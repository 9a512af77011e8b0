"""hJTORA — the heuristic of Tran & Pompili (ref. [37] of the paper).

The paper uses hJTORA as its strongest polynomial-time baseline: "a novel
meta-heuristic approach ... capable of identifying a more favorable task
offloading strategy with reduced complexity", which nevertheless "cannot
guarantee the optimal solution, and its execution may still be
time-consuming" as the instance grows.

The published algorithm performs iterative *steepest-ascent* improvement
over single-user adjustments: starting from all-local, every round scores
every possible reassignment of every user — to each (server, sub-band)
slot that is free, or back to local — under the closed-form optimal-value
function ``J*(X)``, applies the single best utility-improving move, and
stops when no move improves.  Each round costs ``O(U * S * N)`` objective
evaluations, which is why its measured runtime climbs much faster with the
sub-channel count than Greedy/LocalSearch (Fig. 8).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.obs.clock import Stopwatch
from repro.core.allocation import kkt_allocation
from repro.core.decision import LOCAL, OffloadingDecision
from repro.core.delta import DeltaEvaluator
from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import ScheduleResult
from repro.errors import ConfigurationError
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.scenario import Scenario


class HJtoraScheduler:
    """Steepest-ascent single-user improvement (hJTORA).

    Parameters
    ----------
    max_rounds:
        Upper bound on improvement rounds (each applies one move).  The
        search converges naturally well before this on paper-scale inputs;
        the bound guards against pathological cycling under floating-point
        ties.
    evaluator_factory:
        Builds the objective evaluator; defaults to the incremental
        :class:`~repro.core.delta.DeltaEvaluator`, whose
        ``evaluate_placements`` scores all of a user's candidates in one
        what-if pass.  The scalar
        :class:`~repro.core.objective.ObjectiveEvaluator` rescores every
        candidate in full; both return the same bits.
    """

    name = "hJTORA"

    def __init__(
        self,
        max_rounds: int = 10_000,
        evaluator_factory: Callable[["Scenario"], ObjectiveEvaluator] = DeltaEvaluator,
    ) -> None:
        if max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {max_rounds}")
        self.max_rounds = max_rounds
        self.evaluator_factory = evaluator_factory

    def schedule(
        self, scenario: "Scenario", rng: Optional[np.random.Generator] = None
    ) -> ScheduleResult:
        """Run hJTORA on ``scenario``; deterministic, ``rng`` ignored."""
        del rng
        watch = Stopwatch()
        evaluator = self.evaluator_factory(scenario)
        n_users = scenario.n_users
        n_servers = scenario.n_servers
        n_channels = scenario.n_subbands

        decision = OffloadingDecision.all_local(n_users, n_servers, n_channels)
        current_value = evaluator.evaluate(decision)

        server = decision.server
        channel = decision.channel
        revoke = (LOCAL, LOCAL)
        # Users whose slot changed since the evaluator last synced to the
        # vectors: only the move applied at the end of a round.  The
        # scalar reference ignores the hint and rescores in full.
        pending: Tuple[int, ...] = ()
        for _ in range(self.max_rounds):
            best_delta = 0.0
            best_move = None  # (user, server, channel) with LOCAL for revoke
            # The slot table is fixed until the round's move is applied,
            # and with it the free-slot list.  A user's own slot is
            # occupied by that user, so it never appears here.
            free_slots = [
                (s, j) for s in range(n_servers) for j in decision.free_channels(s)
            ]
            revoke_or_free = [revoke] + free_slots
            for u in range(n_users):
                # Candidates: revoke an offload, then every free slot.
                slots = free_slots if server[u] == LOCAL else revoke_or_free
                values = evaluator.evaluate_placements(
                    server, channel, u, slots, touched=pending
                )
                pending = ()
                for (s, j), value in zip(slots, values):
                    delta = value - current_value
                    if delta > best_delta:
                        best_delta, best_move = delta, (u, s, j)
            if best_move is None:
                break
            u, s, j = best_move
            if s == LOCAL:
                decision.set_local(u)
            else:
                decision.assign(u, s, j)
            pending = (u,)
            current_value += best_delta

        utility = evaluator.evaluate(decision)
        allocation = kkt_allocation(scenario, decision)
        return ScheduleResult(
            decision=decision,
            allocation=allocation,
            utility=utility,
            evaluations=evaluator.evaluations,
            wall_time_s=watch.elapsed(),
        )
