"""Threshold-triggered simulated annealing — Algorithm 1's control loop.

Classic simulated annealing cools geometrically (``T <- alpha * T``).  The
paper's twist is a *threshold trigger*: the run counts accepted worsened
solutions across chains, and the count is compared against ``maxCount =
threshold_factor * chain_length`` once at the end of each chain.  While
``count < maxCount`` the slow rate ``alpha_slow = 0.97`` applies; the
first end-of-chain check at which the count has reached ``maxCount``
(``count >= maxCount``) applies the fast rate ``alpha_fast = 0.90`` for
exactly that one cooling step and resets the counter to zero, so a fresh
accumulation starts at the next temperature.  Sustained acceptance of bad
moves means the chain is wandering, so the schedule spends less time at
unproductive temperatures — this is what lets TSAJS "effectively avoid
local optima and converge toward the global optimum" within a polynomial
budget.

The engine is generic over the state type: it only needs an objective
function, a proposal function and an initial state, so the ablation
experiments can reuse it with alternative neighbourhoods or schedules and
:class:`~repro.baselines.local_search.LocalSearchScheduler` shares its
bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, List, Optional, Tuple, TypeVar

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.recorder import Recorder, get_recorder

State = TypeVar("State")


@dataclass(frozen=True)
class AnnealingSchedule:
    """Cooling-schedule parameters of Algorithm 1 (lines 3-4).

    ``initial_temperature = None`` reproduces the paper's ``T <- N``
    (the sub-channel count), resolved when the run starts.
    """

    initial_temperature: Optional[float] = None
    min_temperature: float = 1e-9
    alpha_slow: float = 0.97
    alpha_fast: float = 0.90
    chain_length: int = 30
    threshold_factor: float = 1.75

    def __post_init__(self) -> None:
        if self.initial_temperature is not None and self.initial_temperature <= 0:
            raise ConfigurationError(
                f"initial temperature must be positive, got {self.initial_temperature}"
            )
        if self.min_temperature <= 0:
            raise ConfigurationError(
                f"min temperature must be positive, got {self.min_temperature}"
            )
        if (
            self.initial_temperature is not None
            and self.min_temperature >= self.initial_temperature
        ):
            raise ConfigurationError("min temperature must be below the initial one")
        for name in ("alpha_slow", "alpha_fast"):
            alpha = getattr(self, name)
            if not 0.0 < alpha < 1.0:
                raise ConfigurationError(f"{name} must lie in (0, 1), got {alpha}")
        if self.chain_length < 1:
            raise ConfigurationError(
                f"chain length must be >= 1, got {self.chain_length}"
            )
        if self.threshold_factor <= 0:
            raise ConfigurationError(
                f"threshold factor must be positive, got {self.threshold_factor}"
            )

    @property
    def max_count(self) -> float:
        """The trigger threshold ``maxCount = threshold_factor * L``.

        The accepted-worse count is compared against this once per chain,
        *after* the chain's ``L`` proposals: a count that has reached
        ``maxCount`` (``count >= maxCount``) triggers exactly one
        fast-cooling step (``alpha_fast``) and resets the counter; any
        smaller count cools slowly (``alpha_slow``) and keeps
        accumulating.  With the paper's defaults (``threshold_factor =
        1.75``, ``L = 30``) the trigger therefore fires at the end of
        the first chain where the running count reaches 52.5, i.e. 53
        accepted worsened moves.
        """
        return self.threshold_factor * self.chain_length


@dataclass
class AnnealingResult(Generic[State]):
    """Outcome of one annealing run.

    ``temperature_trace`` / ``best_trace`` record one point per outer
    (temperature) iteration — useful for convergence plots and the
    threshold-trigger ablation.
    """

    best_state: State
    best_value: float
    iterations: int
    fast_coolings: int
    temperature_trace: List[float] = field(default_factory=list)
    best_trace: List[float] = field(default_factory=list)
    #: Total accepted moves (improving + accepted-worse), for the golden
    #: trajectory regressions and acceptance-ratio diagnostics.
    accepted_moves: int = 0


class ThresholdTriggeredAnnealer:
    """Algorithm 1's annealing engine, generic over the state type."""

    def __init__(self, schedule: Optional[AnnealingSchedule] = None) -> None:
        self.schedule = schedule if schedule is not None else AnnealingSchedule()

    def run(
        self,
        initial_state: State,
        objective: Callable[[State], float],
        propose: Callable[[State, np.random.Generator], State],
        rng: np.random.Generator,
        default_initial_temperature: float = 1.0,
        record_trace: bool = False,
        propose_move: Optional[
            Callable[[State, np.random.Generator], Tuple[State, Tuple[int, ...]]]
        ] = None,
        move_objective: Optional[
            Callable[[State, Tuple[int, ...]], float]
        ] = None,
        recorder: Optional[Recorder] = None,
    ) -> AnnealingResult[State]:
        """Maximise ``objective`` from ``initial_state``.

        Parameters
        ----------
        default_initial_temperature:
            Used when the schedule leaves ``initial_temperature`` unset;
            TSAJS passes the sub-channel count ``N`` here (Alg. 1 line 3).
        recorder:
            Observability sink (defaults to the process-level recorder).
            When enabled, the run emits one ``anneal.level`` event per
            temperature level (temperature, best/current value, accepted
            and accepted-worse counters) and an ``anneal.phase_switch``
            event at every end-of-chain check where the accepted-worse
            count has reached ``maxCount = threshold_factor * L``
            (Algorithm 2's trigger); with ``iteration_detail`` set it
            additionally emits one ``anneal.step`` event per proposal.
            Emission never touches the RNG stream, so traced and
            untraced runs walk bitwise-identical trajectories.
        propose_move, move_objective:
            Optional *delta-evaluation* pair (pass both or neither).
            ``propose_move`` returns ``(candidate, touched)`` and
            ``move_objective(candidate, touched)`` scores it from an
            incremental cache.  The cache mirrors the last *evaluated*
            candidate — accepted or not — so after a rejection the next
            call passes the union of the new and the rejected touched
            sets; ``propose`` is then unused (it must draw from the same
            RNG stream as ``propose_move`` for the two modes to walk
            identical chains, as :class:`NeighborhoodSampler` does).
            ``objective`` still scores the initial state.
        """
        sched = self.schedule
        if (propose_move is None) != (move_objective is None):
            raise ConfigurationError(
                "propose_move and move_objective must be provided together"
            )
        delta_mode = move_objective is not None
        temperature = (
            sched.initial_temperature
            if sched.initial_temperature is not None
            else float(default_initial_temperature)
        )
        if temperature <= sched.min_temperature:
            raise ConfigurationError(
                f"initial temperature {temperature} must exceed min "
                f"{sched.min_temperature}"
            )

        rec = recorder if recorder is not None else get_recorder()
        tracing = rec.enabled
        step_events = tracing and rec.iteration_detail

        current = initial_state
        current_value = objective(current)
        best = current
        best_value = current_value
        accepted_worse = 0
        accepted_moves = 0
        iterations = 0
        fast_coolings = 0
        level = 0
        prev_accepted = 0
        prev_worse = 0
        # Touched set of the last *rejected* candidate: the delta cache
        # still reflects that candidate, so the next evaluation must
        # also cover its users to diff back correctly.
        carry: Tuple[int, ...] = ()
        result = AnnealingResult(
            best_state=best,
            best_value=best_value,
            iterations=0,
            fast_coolings=0,
        )

        run_span = rec.span(
            "anneal.run",
            initial_temperature=temperature,
            min_temperature=sched.min_temperature,
            chain_length=sched.chain_length,
            max_count=sched.max_count,
            alpha_slow=sched.alpha_slow,
            alpha_fast=sched.alpha_fast,
            delta_mode=delta_mode,
        )
        while temperature > sched.min_temperature:
            for _ in range(sched.chain_length):
                if step_events:
                    prev_accepted = accepted_moves
                    prev_worse = accepted_worse
                iterations += 1
                if delta_mode:
                    assert propose_move is not None and move_objective is not None
                    candidate, touched = propose_move(current, rng)
                    candidate_value = move_objective(candidate, touched + carry)
                else:
                    touched = ()
                    candidate = propose(current, rng)
                    candidate_value = objective(candidate)
                delta = candidate_value - current_value
                if delta > 0:
                    current, current_value = candidate, candidate_value
                    accepted_moves += 1
                    carry = ()
                    if current_value > best_value:
                        best, best_value = current, current_value
                else:
                    # Accept a worsened solution with probability
                    # exp(delta / T); count it toward the trigger.
                    if delta > -np.inf and np.exp(delta / temperature) > rng.random():
                        current, current_value = candidate, candidate_value
                        accepted_worse += 1
                        accepted_moves += 1
                        carry = ()
                    else:
                        carry = touched
                if step_events:
                    rec.event(
                        "anneal.step",
                        iteration=iterations,
                        temperature=temperature,
                        delta=float(delta),
                        accepted=accepted_moves != prev_accepted,
                        worse=accepted_worse != prev_worse,
                        accepted_worse=accepted_worse,
                    )
            if record_trace:
                result.temperature_trace.append(temperature)
                result.best_trace.append(best_value)
            if tracing:
                rec.event(
                    "anneal.level",
                    level=level,
                    temperature=temperature,
                    best=float(best_value),
                    current=float(current_value),
                    accepted_moves=accepted_moves,
                    accepted_worse=accepted_worse,
                    iterations=iterations,
                )
            if accepted_worse < sched.max_count:
                temperature *= sched.alpha_slow
            else:
                # Algorithm 2's trigger: the accepted-worse count reached
                # maxCount at an end-of-chain check, so the schedule
                # switches to one fast cooling step (alpha_fast).
                if tracing:
                    rec.event(
                        "anneal.phase_switch",
                        level=level,
                        temperature=temperature,
                        accepted_worse=accepted_worse,
                        max_count=sched.max_count,
                        fast_coolings=fast_coolings + 1,
                    )
                temperature *= sched.alpha_fast
                fast_coolings += 1
                accepted_worse = 0
            level += 1
        if tracing:
            rec.event(
                "anneal.finish",
                levels=level,
                iterations=iterations,
                accepted_moves=accepted_moves,
                fast_coolings=fast_coolings,
                best=float(best_value),
            )
        run_span.__exit__(None, None, None)

        result.best_state = best
        result.best_value = best_value
        result.iterations = iterations
        result.fast_coolings = fast_coolings
        result.accepted_moves = accepted_moves
        return result
