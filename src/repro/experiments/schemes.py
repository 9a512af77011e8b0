"""Name-to-scheduler registry for the CLI and user scripts.

Maps the scheme names used throughout the paper (and this library's
extensions) to constructor callables, with a ``quick`` knob for the
annealer-based schemes and an ``evaluator_factory`` for the search
schemes (``ObjectiveEvaluator`` selects the scalar reference lane the
incremental default is checked against).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.baselines import (
    AllLocalScheduler,
    ExhaustiveScheduler,
    GeneticScheduler,
    GreedyScheduler,
    HJtoraScheduler,
    LocalSearchScheduler,
    RandomScheduler,
)
from repro.core.annealing import AnnealingSchedule
from repro.core.delta import DeltaEvaluator
from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import Scheduler, TsajsScheduler
from repro.core.sharding import ShardedScheduler
from repro.errors import ConfigurationError
from repro.extensions.power_control import TsajsWithPowerControl

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.scenario import Scenario

#: Builds a scheme's objective evaluator for one scenario.
EvaluatorFactory = Callable[["Scenario"], ObjectiveEvaluator]

#: Stop temperature used by annealer-based schemes in quick mode.
QUICK_MIN_TEMPERATURE = 1e-2


@dataclass(frozen=True)
class SchemeOptions:
    """Construction knobs shared by every scheme factory.

    ``quick`` shortens the annealing schedule.  ``evaluator_factory``
    builds the evaluator of the schemes that score search moves (the
    TSAJS variants, hJTORA and LocalSearch); the evaluator picks the
    lane, so ``ObjectiveEvaluator`` runs them on the scalar reference
    lane, bitwise-equal to the incremental default.  The sharded solver
    calls it as ``factory(scenario, external_rx=...)``.  Other baselines
    ignore it.

    ``use_sharding`` swaps the TSAJS factory for the spatially sharded
    solver (``TSAJS-Shard`` always builds it); ``cluster_radius_km``,
    ``interference_radius_km`` and ``max_reconcile_rounds`` forward to
    :class:`~repro.core.sharding.ShardedScheduler`.
    """

    quick: bool = False
    evaluator_factory: EvaluatorFactory = DeltaEvaluator
    use_sharding: bool = False
    cluster_radius_km: float = 2.0
    interference_radius_km: Optional[float] = None
    max_reconcile_rounds: int = 2


def _annealing(quick: bool) -> AnnealingSchedule:
    return AnnealingSchedule(
        min_temperature=QUICK_MIN_TEMPERATURE if quick else 1e-9
    )


def _sharded(opts: SchemeOptions) -> ShardedScheduler:
    return ShardedScheduler(
        cluster_radius_km=opts.cluster_radius_km,
        interference_radius_km=opts.interference_radius_km,
        max_reconcile_rounds=opts.max_reconcile_rounds,
        schedule=_annealing(opts.quick),
        evaluator_factory=opts.evaluator_factory,
    )


#: Scheme name -> factory taking a :class:`SchemeOptions`.
SCHEME_FACTORIES: Dict[str, Callable[[SchemeOptions], Scheduler]] = {
    "TSAJS": lambda opts: _sharded(opts)
    if opts.use_sharding
    else TsajsScheduler(
        schedule=_annealing(opts.quick), evaluator_factory=opts.evaluator_factory
    ),
    "TSAJS-Shard": _sharded,
    "hJTORA": lambda opts: HJtoraScheduler(evaluator_factory=opts.evaluator_factory),
    "LocalSearch": lambda opts: LocalSearchScheduler(
        evaluator_factory=opts.evaluator_factory
    ),
    "Greedy": lambda opts: GreedyScheduler(),
    "Exhaustive": lambda opts: ExhaustiveScheduler(),
    "GA": lambda opts: GeneticScheduler(generations=20 if opts.quick else 80),
    "TSAJS-PC": lambda opts: TsajsWithPowerControl(
        schedule=_annealing(opts.quick), evaluator_factory=opts.evaluator_factory
    ),
    "AllLocal": lambda opts: AllLocalScheduler(),
    "Random": lambda opts: RandomScheduler(samples=10),
}


def available_schemes() -> List[str]:
    """All registered scheme names, in display order."""
    return list(SCHEME_FACTORIES.keys())


def build_schemes(
    names: List[str],
    quick: bool = False,
    evaluator_factory: EvaluatorFactory = DeltaEvaluator,
    use_sharding: bool = False,
    cluster_radius_km: float = 2.0,
    interference_radius_km: Optional[float] = None,
    max_reconcile_rounds: int = 2,
) -> List[Scheduler]:
    """Instantiate schedulers for the given scheme names.

    Raises :class:`ConfigurationError` for unknown or duplicate names.
    """
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate scheme names: {names}")
    opts = SchemeOptions(
        quick=quick,
        evaluator_factory=evaluator_factory,
        use_sharding=use_sharding,
        cluster_radius_km=cluster_radius_km,
        interference_radius_km=interference_radius_km,
        max_reconcile_rounds=max_reconcile_rounds,
    )
    schedulers = []
    for name in names:
        try:
            factory = SCHEME_FACTORIES[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown scheme {name!r}; available: {', '.join(available_schemes())}"
            ) from None
        schedulers.append(factory(opts))
    return schedulers
