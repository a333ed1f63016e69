"""Error categories shared across the simulator.

Each category maps to a distinct CLI exit code so scripted callers can
tell configuration mistakes apart from data or protocol defects.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulator errors."""

    exit_code = 1
    label = "error"


class ConfigError(SimulationError):
    """Invalid configuration value or malformed config file."""

    exit_code = 2
    label = "configuration error"


class DataError(SimulationError):
    """Dataset or partition violates a precondition."""

    exit_code = 3
    label = "data error"


class ProtocolError(SimulationError):
    """Client/server exchange or aggregation state is inconsistent."""

    exit_code = 4
    label = "protocol error"
