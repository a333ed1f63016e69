"""Deterministic simulator for federated learning with global-local
dynamic prototypes on staged, long-tailed, non-iid client data. The package
exports no names: import each from its defining module."""
