"""Exception hierarchy for the repro library.

Having a single root (:class:`ReproError`) lets applications distinguish
"this configuration is infeasible" outcomes -- which are expected results in
design-space exploration -- from programming errors, with one ``except``
clause.
"""

from __future__ import annotations

from pathlib import Path

__all__ = [
    "ReproError",
    "AllocationError",
    "UnschedulableError",
    "SimulationError",
    "ConfigurationError",
    "path_error",
]


class ReproError(Exception):
    """Base class for all library-specific errors."""


class AllocationError(ReproError):
    """Raised when a task cannot be partitioned onto any core."""


class UnschedulableError(ReproError):
    """Raised when an analysis is asked to produce parameters for a task set
    that cannot be made schedulable (e.g. period selection when even the
    maximum periods fail)."""


class SimulationError(ReproError):
    """Raised for inconsistencies detected while running the discrete-event
    simulator (e.g. an RT deadline miss under a configuration the analysis
    declared schedulable)."""


class ConfigurationError(ReproError):
    """Raised for invalid experiment or generator configuration."""


def path_error(what: str, path: Path, exc: OSError) -> ConfigurationError:
    """The one-line refusal of a path the program cannot read or create.

    Names the regular file that stands where a directory of *path* should
    be (``mkdir`` reports that as "File exists"), else the OS's reason.
    """
    blocker = next((parent for parent in path.parents if parent.exists()), None)
    if blocker is not None and not blocker.is_dir():
        reason = f"{blocker} is not a directory"
    else:
        reason = exc.strerror or str(exc)
    return ConfigurationError(f"cannot use {what} {path}: {reason}")
