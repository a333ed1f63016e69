"""Desk-scale runs shared by the trend tests of several suites.

A run is deterministic in its config, so a config asked for twice in one
session is run once: criterion 7's full-GLDP rows and the staged trend test
in ``test_federation`` run equal five-stage GLDP configs on seeds 0-4.
Callers only read the returned logs, and pick rows out of them with
:func:`select`.
"""

from functools import lru_cache

from gldpsim.federation import ExperimentConfig, run_experiment
from gldpsim.metrics import MetricRow, MetricsLog


@lru_cache(maxsize=None)
def cached_run(config: ExperimentConfig) -> MetricsLog:
    return run_experiment(config)


def select(mlog: MetricsLog, metric: str, scope: str) -> list[MetricRow]:
    """The rows of ``metric`` in ``scope``, in log order."""
    return [r for r in mlog.rows if r.metric == metric and r.scope == scope]
