"""Equivalence-test harness: replay one RNG stream through every
evaluation path and compare whole trajectories, not just endpoints.

The library claims that ``use_delta`` is a pure wall-clock
optimisation: with a fixed RNG, the scalar and delta paths walk
**bitwise-identical** accepted-move chains.  This module turns that
claim into a reusable assertion:

* :func:`run_trajectory` runs TSAJS on a scenario in either mode and
  captures everything that could diverge — the utility bits,
  the final decision and allocation, the accepted-move count, the full
  per-level best-value trace and the *final RNG state* (which pins the
  exact number and order of every draw the run consumed).
* :func:`assert_trajectories_identical` compares two captures field by
  field with exact (non-approximate) equality.

``tests/test_delta_objective.py`` and ``tests/test_sharded_equivalence.py``
drive this harness; it is kept importable (no test functions here) so
future evaluation paths can reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from repro.core.annealing import AnnealingSchedule
from repro.core.scheduler import TsajsScheduler
from repro.sim.rng import child_rng
from repro.sim.scenario import Scenario

#: The evaluation paths under the bitwise-identity contract.
MODES = ("scalar", "delta")


@dataclass
class Trajectory:
    """Everything observable about one TSAJS run that must not diverge."""

    mode: str
    utility: float
    server: Tuple[int, ...]
    channel: Tuple[int, ...]
    allocation: Tuple[float, ...]
    accepted_moves: int
    evaluations: int
    best_trace: Tuple[float, ...]
    #: Final ``rng.bit_generator.state`` — equal states prove the two
    #: runs consumed the exact same draw sequence.
    rng_state: Any


def make_scheduler(mode: str, schedule: AnnealingSchedule) -> TsajsScheduler:
    """A TSAJS scheduler on the requested evaluation path."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    return TsajsScheduler(
        schedule=schedule, record_trace=True, use_delta=mode == "delta"
    )


def run_trajectory(
    scenario: Scenario,
    seed: int,
    mode: str,
    schedule: Optional[AnnealingSchedule] = None,
    stream: int = 100,
) -> Trajectory:
    """Run TSAJS in ``mode`` from the deterministic ``child_rng`` stream."""
    if schedule is None:
        schedule = AnnealingSchedule(chain_length=15, min_temperature=1e-2)
    scheduler = make_scheduler(mode, schedule)
    rng = child_rng(seed, stream)
    result = scheduler.schedule(scenario, rng)
    return Trajectory(
        mode=mode,
        utility=result.utility,
        server=tuple(int(s) for s in result.decision.server),
        channel=tuple(int(c) for c in result.decision.channel),
        allocation=tuple(float(f) for f in result.allocation.ravel()),
        accepted_moves=result.accepted_moves,
        evaluations=result.evaluations,
        best_trace=tuple(result.trace),
        rng_state=rng.bit_generator.state,
    )


def run_sharded_trajectory(
    scenario: Scenario,
    seed: int,
    mode: str,
    cluster_radius_km: float,
    interference_radius_km: Optional[float] = None,
    max_reconcile_rounds: int = 2,
    schedule: Optional[AnnealingSchedule] = None,
    stream: int = 100,
) -> Trajectory:
    """Run the spatially sharded solver and capture its trajectory.

    Uses the same ``child_rng`` stream protocol as :func:`run_trajectory`,
    so a single-cluster sharded capture is directly comparable (bitwise)
    to the global capture of the matching evaluation ``mode``.
    """
    from repro.core.sharding import ShardedScheduler

    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if schedule is None:
        schedule = AnnealingSchedule(chain_length=15, min_temperature=1e-2)
    scheduler = ShardedScheduler(
        cluster_radius_km=cluster_radius_km,
        interference_radius_km=interference_radius_km,
        max_reconcile_rounds=max_reconcile_rounds,
        schedule=schedule,
        record_trace=True,
        use_delta=mode == "delta",
    )
    rng = child_rng(seed, stream)
    result = scheduler.schedule(scenario, rng)
    return Trajectory(
        mode=mode,
        utility=result.utility,
        server=tuple(int(s) for s in result.decision.server),
        channel=tuple(int(c) for c in result.decision.channel),
        allocation=tuple(float(f) for f in result.allocation.ravel()),
        accepted_moves=result.accepted_moves,
        evaluations=result.evaluations,
        best_trace=tuple(result.trace),
        rng_state=rng.bit_generator.state,
    )


def assert_trajectories_identical(reference: Trajectory, other: Trajectory) -> None:
    """Exact, field-by-field trajectory comparison."""
    label = f"{reference.mode} vs {other.mode}"
    assert reference.utility == other.utility, (
        f"{label}: utility bits diverged "
        f"({reference.utility!r} != {other.utility!r})"
    )
    assert reference.server == other.server, f"{label}: server assignment diverged"
    assert reference.channel == other.channel, f"{label}: channel assignment diverged"
    assert reference.allocation == other.allocation, f"{label}: KKT allocation diverged"
    assert reference.accepted_moves == other.accepted_moves, (
        f"{label}: accepted-move count diverged "
        f"({reference.accepted_moves} != {other.accepted_moves})"
    )
    assert len(reference.best_trace) == len(other.best_trace), (
        f"{label}: level count diverged (fast-cooling schedule differs)"
    )
    assert reference.best_trace == other.best_trace, (
        f"{label}: per-level best-value trace diverged"
    )
    assert reference.rng_state == other.rng_state, (
        f"{label}: final RNG state diverged (draw sequences differ)"
    )
    assert reference.evaluations == other.evaluations, (
        f"{label}: evaluation count diverged "
        f"({reference.evaluations} != {other.evaluations})"
    )


def accepted_step_trace(records: list) -> list:
    """The accepted-move chain from ``anneal.step`` trace events.

    Returns one ``(iteration, delta_bits, accepted, worse)`` tuple per
    recorded proposal, with the delta as raw IEEE bits so NaN/-inf
    compare exactly.
    """
    chain = []
    for record in records:
        if record.get("kind") == "event" and record.get("name") == "anneal.step":
            attrs = record["attrs"]
            delta = attrs["delta"]
            bits = np.float64(
                float("-inf") if delta is None else delta
            ).view(np.uint64)
            chain.append(
                (attrs["iteration"], int(bits), attrs["accepted"], attrs["worse"])
            )
    return chain
