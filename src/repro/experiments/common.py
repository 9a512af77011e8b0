"""Shared helpers for the experiment drivers.

All figures compare the same scheme set (TSAJS, hJTORA, LocalSearch,
Greedy — plus Exhaustive on the small network), built here with one knob
for the annealer's chain length ``L`` (the paper sweeps L in Figs. 4, 7
and 8) and one for the stopping temperature (used by the ``quick()``
presets so CI does not pay the full 1e-9 cool-down on every point).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.baselines import (
    ExhaustiveScheduler,
    GreedyScheduler,
    HJtoraScheduler,
    LocalSearchScheduler,
)
from repro.core.annealing import AnnealingSchedule
from repro.core.scheduler import Scheduler, TsajsScheduler

#: Scheme display order used by every comparison figure.
SCHEME_ORDER = ("Exhaustive", "TSAJS", "hJTORA", "LocalSearch", "Greedy")


def make_tsajs(
    chain_length: int = 30,
    min_temperature: float = 1e-9,
) -> TsajsScheduler:
    """A TSAJS instance with the paper's schedule except ``L``/``T_min``."""
    return TsajsScheduler(
        schedule=AnnealingSchedule(
            chain_length=chain_length, min_temperature=min_temperature
        ),
    )


def standard_schedulers(
    chain_length: int = 30,
    min_temperature: float = 1e-9,
    include_exhaustive: bool = False,
    local_search_iterations: int = 5000,
) -> List[Scheduler]:
    """The paper's comparison set, in :data:`SCHEME_ORDER`."""
    schedulers: List[Scheduler] = []
    if include_exhaustive:
        schedulers.append(ExhaustiveScheduler())
    schedulers.extend(
        [
            make_tsajs(chain_length, min_temperature),
            HJtoraScheduler(),
            LocalSearchScheduler(max_iterations=local_search_iterations),
            GreedyScheduler(),
        ]
    )
    return schedulers


def default_seeds(n_seeds: int, base: int = 2025) -> List[int]:
    """Deterministic seed list shared by all drivers."""
    return [base + i for i in range(n_seeds)]


def scheme_names(schedulers: Sequence[Scheduler]) -> List[str]:
    return [s.name for s in schedulers]
