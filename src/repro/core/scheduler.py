"""TSAJS — the joint task-scheduling scheme (Algorithm 1 + the KKT Lemma).

The scheduler composes the three pieces of the paper's method:

1. a random feasible initial decision (Alg. 1 line 5),
2. the threshold-triggered annealer searching over offloading decisions
   with Algorithm 2's neighbourhood, scoring each candidate with the
   closed-form optimal-value function ``J*(X)`` of Eq. (24) (which embeds
   the optimal resource allocation via Eq. 23),
3. the explicit KKT allocation ``F*`` (Eq. 22) recovered for the best
   decision found.

The output matches Algorithm 1's: the offloading decision ``X``, the
computing-resource allocation ``F`` and the achieved utility ``J``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, runtime_checkable

import numpy as np

from repro.core.allocation import kkt_allocation
from repro.core.annealing import AnnealingSchedule, ThresholdTriggeredAnnealer
from repro.core.decision import OffloadingDecision
from repro.core.delta import DeltaEvaluator
from repro.core.neighborhood import NeighborhoodSampler
from repro.core.objective import ObjectiveEvaluator
from repro.errors import ConfigurationError
from repro.obs.clock import Stopwatch
from repro.obs.recorder import get_recorder
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.scenario import Scenario


@dataclass(frozen=True)
class ScheduleResult:
    """The ``(X, F, J)`` triple produced by any scheduler, plus metadata.

    Attributes
    ----------
    decision:
        The offloading decision ``X``.
    allocation:
        The ``(U, S)`` computing-resource allocation ``F`` (KKT optimum for
        the returned decision).
    utility:
        The achieved system utility ``J*(X)`` (Eq. 24).
    evaluations:
        Objective evaluations spent (algorithm-cost metric for Fig. 8).
    wall_time_s:
        Wall-clock scheduling time in seconds.
    trace:
        Optional per-temperature best-utility trace (TSAJS only).
    """

    decision: OffloadingDecision
    allocation: np.ndarray
    utility: float
    evaluations: int
    wall_time_s: float
    trace: List[float] = field(default_factory=list)
    #: Accepted annealer moves (improving + worse); 0 for non-annealing
    #: schedulers.
    accepted_moves: int = 0


@runtime_checkable
class Scheduler(Protocol):
    """Common interface implemented by TSAJS and every baseline."""

    name: str

    def schedule(
        self, scenario: "Scenario", rng: Optional[np.random.Generator] = None
    ) -> ScheduleResult:
        """Solve the JTORA problem for one scenario instance."""
        ...  # pragma: no cover - protocol definition


class TsajsScheduler:
    """The paper's TSAJS heuristic (threshold-triggered SA + KKT).

    Parameters
    ----------
    schedule:
        Annealing schedule; defaults to Algorithm 1's constants, with the
        initial temperature resolving to the sub-channel count ``N``.
    neighborhood:
        Move generator; defaults to Algorithm 2's probabilities.
    initial_offload_probability:
        Density of the random feasible initial solution.
    record_trace:
        Keep a per-temperature best-utility trace in the result.
    evaluator_factory:
        Builds the objective evaluator for a scenario; defaults to the
        incremental :class:`~repro.core.delta.DeltaEvaluator`.  The
        evaluator picks the annealer's lane: one exposing
        ``evaluate_move`` scores each move from its cache (the
        ``propose_move``/``move_objective`` lane), any other evaluator —
        :class:`~repro.core.objective.ObjectiveEvaluator`, the scalar
        reference, or an extended objective such as the downlink-aware
        evaluator — rescores every candidate in full.  The two lanes are
        bit-for-bit equal, so with a fixed RNG they return the exact
        same decision, allocation, utility and evaluation count.
    """

    name = "TSAJS"

    def __init__(
        self,
        schedule: Optional[AnnealingSchedule] = None,
        neighborhood: Optional[NeighborhoodSampler] = None,
        initial_offload_probability: float = 0.5,
        record_trace: bool = False,
        evaluator_factory: Callable[
            ["Scenario"], ObjectiveEvaluator
        ] = DeltaEvaluator,
    ) -> None:
        if not 0.0 <= initial_offload_probability <= 1.0:
            raise ConfigurationError(
                "initial_offload_probability must lie in [0, 1], got "
                f"{initial_offload_probability}"
            )
        self.schedule_params = schedule if schedule is not None else AnnealingSchedule()
        self.neighborhood = (
            neighborhood if neighborhood is not None else NeighborhoodSampler()
        )
        self.initial_offload_probability = initial_offload_probability
        self.record_trace = record_trace
        self.evaluator_factory = evaluator_factory

    def schedule(
        self,
        scenario: "Scenario",
        rng: Optional[np.random.Generator] = None,
        *,
        initial: Optional[OffloadingDecision] = None,
    ) -> ScheduleResult:
        """Run Algorithm 1 on ``scenario`` and return ``(X, F, J)``.

        ``initial`` warm-starts the anneal from a given feasible decision
        instead of Alg. 1 line 5's random draw (used by the graceful
        degradation policy to repair an existing plan); the annealer's
        best-tracking starts at the initial state, so the result is never
        worse than the warm start itself.
        """
        # Imported here: repro.sim imports this module at package-init
        # time, so a top-level import would be circular.
        from repro.sim.rng import make_rng

        rng = rng if rng is not None else make_rng()
        rec = get_recorder()
        watch = Stopwatch()
        with rec.span(
            "scheduler.schedule",
            scheme=self.name,
            n_users=scenario.n_users,
            n_servers=scenario.n_servers,
            n_subbands=scenario.n_subbands,
            warm_start=initial is not None,
        ):
            evaluator = self.evaluator_factory(scenario)

            if scenario.n_users == 0:
                # Degenerate instance: the only decision is the empty one.
                empty = OffloadingDecision.all_local(
                    0, scenario.n_servers, scenario.n_subbands
                )
                return ScheduleResult(
                    decision=empty,
                    allocation=kkt_allocation(scenario, empty),
                    utility=evaluator.evaluate(empty),
                    evaluations=evaluator.evaluations,
                    wall_time_s=watch.elapsed(),
                )

            if initial is None:
                initial = OffloadingDecision.random_feasible(
                    scenario.n_users,
                    scenario.n_servers,
                    scenario.n_subbands,
                    rng,
                    offload_probability=self.initial_offload_probability,
                )
            else:
                initial = initial.copy()
            annealer = ThresholdTriggeredAnnealer(self.schedule_params)
            delta_kwargs: Dict[str, Any] = {}
            if hasattr(evaluator, "evaluate_move"):
                delta_kwargs = dict(
                    propose_move=self.neighborhood.propose_move,
                    move_objective=evaluator.evaluate_move,
                )
            outcome = annealer.run(
                initial_state=initial,
                objective=evaluator.evaluate,
                propose=self.neighborhood.propose,
                rng=rng,
                default_initial_temperature=float(scenario.n_subbands),
                record_trace=self.record_trace,
                recorder=rec,
                **delta_kwargs,
            )

            best = outcome.best_state
            # An empty offload set scores 0; never return a negative-utility
            # plan when staying local is available (users only offload when
            # the benefit is positive, Sec. III-A-4).
            if outcome.best_value < 0.0:
                best = OffloadingDecision.all_local(
                    scenario.n_users, scenario.n_servers, scenario.n_subbands
                )
            utility = evaluator.evaluate(best)
            allocation = kkt_allocation(scenario, best)
            if rec.enabled:
                fast_evals = int(getattr(evaluator, "fast_evals", 0))
                rec.event(
                    "scheduler.result",
                    scheme=self.name,
                    utility=float(utility),
                    evaluations=evaluator.evaluations,
                    fast_evals=fast_evals,
                    full_evals=evaluator.evaluations - fast_evals,
                    accepted_moves=outcome.accepted_moves,
                    fast_coolings=outcome.fast_coolings,
                    n_offloaded=int(best.n_offloaded()),
                )
            return ScheduleResult(
                decision=best,
                allocation=allocation,
                utility=utility,
                evaluations=evaluator.evaluations,
                wall_time_s=watch.elapsed(),
                trace=list(outcome.best_trace),
                accepted_moves=outcome.accepted_moves,
            )
