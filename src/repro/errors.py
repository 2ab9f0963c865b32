"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError`, so user
code can catch a single base class.  Sub-classes are grouped by subsystem.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "PlatformError",
    "GraphError",
    "CycleError",
    "WorkloadError",
    "MappingError",
    "InfeasibleMappingError",
    "KernelBackendError",
    "ObjectiveError",
    "SolverError",
    "InfeasibleModelError",
    "UnboundedModelError",
    "SimulationError",
    "GeneratorError",
    "ExperimentError",
    "UsageError",
    "OnlineSchedulingError",
    "JournalError",
    "CheckpointError",
    "ServiceError",
]


class ReproError(Exception):
    """Base class of all exceptions raised by the :mod:`repro` library."""


class PlatformError(ReproError):
    """Invalid platform description (bad bandwidth, negative core counts...)."""


class GraphError(ReproError):
    """Invalid streaming task graph (unknown task, duplicate edge...)."""


class CycleError(GraphError):
    """The task graph contains a cycle and therefore is not a DAG."""


class WorkloadError(GraphError):
    """Invalid multi-application workload (duplicate app, bad weight...)."""


class MappingError(ReproError):
    """A mapping is malformed (task missing, unknown processing element...)."""


class ObjectiveError(ReproError):
    """Unknown or misconfigured scheduling objective."""


class KernelBackendError(ReproError):
    """Invalid delta-kernel selection.

    Raised when ``REPRO_KERNEL_BACKEND`` (or the ``backend`` argument of
    ``DeltaAnalyzer``) is not ``python`` or ``auto``: an unknown
    name, a non-string, or one of the resolved labels ``numpy`` /
    ``cython``."""


class InfeasibleMappingError(MappingError):
    """A mapping violates a hard platform constraint (memory or DMA slots)."""


class SolverError(ReproError):
    """The LP/MILP backend failed (numerical trouble, unexpected status)."""


class InfeasibleModelError(SolverError):
    """The LP/MILP model admits no feasible point."""


class UnboundedModelError(SolverError):
    """The LP/MILP model is unbounded in the optimisation direction."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class GeneratorError(ReproError):
    """Invalid parameters passed to a workload generator."""


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""


class UsageError(ExperimentError):
    """The user's invocation is self-contradictory (e.g. duplicate apps).

    Subclasses :class:`ExperimentError` so existing ``except`` clauses and
    the CLI's error printing keep working; the distinct type lets front
    ends tell "you asked for something impossible" apart from "the harness
    is misconfigured"."""


class OnlineSchedulingError(ReproError):
    """The online scheduling runtime was driven inconsistently
    (malformed event timeline, failing an unknown or already-failed SPE...)."""


class JournalError(OnlineSchedulingError):
    """A write-ahead event journal is unreadable or inconsistent.

    Raised for corruption that recovery must *not* paper over: a bad or
    missing header, a malformed record before the final line, or
    out-of-order record indices.  A torn final line (the mid-write-crash
    signature) is explicitly **not** an error — recovery truncates it."""


class CheckpointError(OnlineSchedulingError):
    """A scheduler state checkpoint is unreadable, malformed, or does
    not match the journal it is being recovered against."""


class ServiceError(OnlineSchedulingError):
    """The scheduler service was driven inconsistently
    (started twice, submitted to after shutdown, bad configuration...)."""
