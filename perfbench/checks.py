"""Correctness checks the benchmark applies to every answer it times.

Each check returns a list of problems (empty = pass) instead of raising,
so the harness can count a failed check as a failed operation and keep
measuring.  ``perfbench/test_perfbench.py`` injects a corrupted utility,
an infeasible decision, a degenerate instance, a changed answer and a
missing sweep cell, and asserts that each one is caught.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from typing import Dict, List, Sequence, Tuple

from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import ScheduleResult
from repro.errors import InfeasibleAllocationError, InfeasibleDecisionError
from repro.sim.metrics import SolutionMetrics
from repro.sim.scenario import Scenario
from repro.sim.validation import validate_result

#: SolutionMetrics fields that hold timings; every other field must
#: repeat bit for bit whenever the same cell is computed again.
TIMING_FIELDS = ("wall_time_s", "reschedule_wall_time_s")


def _bits(value: float) -> bytes:
    return struct.pack("<d", float(value))


def check_answer(scenario: Scenario, result: ScheduleResult) -> List[str]:
    """Feasible, utility equal to a fresh evaluation bit for bit, and >= 0."""
    problems: List[str] = []
    try:
        validate_result(scenario, result)
    except (InfeasibleDecisionError, InfeasibleAllocationError) as exc:
        problems.append(f"infeasible answer: {exc}")
        return problems
    fresh = ObjectiveEvaluator(scenario).evaluate(result.decision)
    if _bits(fresh) != _bits(result.utility):
        problems.append(
            f"reported utility {result.utility!r} != fresh evaluation {fresh!r}"
        )
    if not result.utility >= 0.0:
        problems.append(f"negative utility {result.utility!r}")
    return problems


def check_nondegenerate(label: str, greedy: ScheduleResult) -> List[str]:
    """An instance is worth timing only if Greedy offloads at least one user."""
    if greedy.decision.n_offloaded() < 1:
        return [f"{label}: degenerate instance, Greedy offloads no user"]
    return []


def answer_digest(result: ScheduleResult) -> str:
    """Digest of the decision, allocation and utility bits of one answer."""
    digest = hashlib.sha256()
    digest.update(result.decision.server.tobytes())
    digest.update(result.decision.channel.tobytes())
    digest.update(result.allocation.tobytes())
    digest.update(_bits(result.utility))
    return digest.hexdigest()


def check_repeat(label: str, seen: Dict[str, str], digest: str) -> List[str]:
    """The same instance and RNG seed must give the same answer every time."""
    first = seen.setdefault(label, digest)
    if first != digest:
        return [f"{label}: answer differs from the first solve of the run"]
    return []


def cell_signature(metrics: SolutionMetrics) -> Tuple[Tuple[str, bytes], ...]:
    """The non-timing fields of one sweep cell, as exact bits."""
    return tuple(
        (f.name, _bits(getattr(metrics, f.name)))
        for f in dataclasses.fields(SolutionMetrics)
        if f.name not in TIMING_FIELDS
    )


def check_cells(
    metrics: Dict[str, List[SolutionMetrics]],
    failed_seeds: Sequence[int],
    schemes: Sequence[str],
    seeds: Sequence[int],
    seen: Dict[Tuple[str, int], Tuple[Tuple[str, bytes], ...]],
) -> List[Tuple[str, int, str]]:
    """Problems per (scheme, seed) cell of one ``run_schemes`` result.

    Every cell must be present, no seed may have failed, and each cell's
    non-timing fields must equal those of its first appearance in
    ``seen`` (which may also hold independently computed references).
    """
    problems: List[Tuple[str, int, str]] = []
    completed = [seed for seed in seeds if seed not in failed_seeds]
    for scheme in schemes:
        column = metrics.get(scheme, [])
        for seed in seeds:
            if seed in failed_seeds:
                problems.append((scheme, seed, "seed failed"))
        if len(column) != len(completed):
            problems.extend(
                (scheme, seed, "cell missing") for seed in completed
            )
            continue
        for seed, cell in zip(completed, column):
            signature = cell_signature(cell)
            if seen.setdefault((scheme, seed), signature) != signature:
                problems.append((scheme, seed, "cell differs from its reference"))
    return problems
