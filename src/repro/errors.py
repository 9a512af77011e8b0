"""Exception hierarchy for the repro library.

Every error raised deliberately by this package derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors (``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A scenario or algorithm was configured with invalid parameters."""


class InfeasibleDecisionError(ReproError):
    """An offloading decision violates constraints (12b)-(12d) of the paper."""


class InfeasibleAllocationError(ReproError):
    """A computing-resource allocation violates constraints (12e)-(12f)."""


class SolverError(ReproError):
    """A scheduling algorithm failed to produce a valid solution."""


class DeterminismViolation(ReproError):
    """The runtime sanitizer caught a reproducibility contract breach.

    Raised by :mod:`repro.sanitize` when per-stream draw ledgers diverge
    between replays that the contract requires to be bitwise identical
    (scalar vs delta, or a resumed run vs a fresh one).
    """
