"""Uplink transmit-power optimisation on top of TSAJS.

The paper keeps every user's transmit power fixed ("we've kept the user
transmit power constant", Sec. III-B-1) and explicitly scopes power
allocation out of the optimisation ("we're not focusing on the
optimization of uplink power allocation", Sec. IV).  This extension adds
that missing degree of freedom as a post-processing stage:

* For a *fixed* offloading decision ``X``, the system utility depends on
  the power vector ``p`` through each user's own SINR and energy term and
  through the interference it inflicts on co-channel users of other
  cells.  :func:`optimize_powers` runs Gauss-Seidel best-response sweeps:
  each offloaded user in turn picks the power in ``[p_min, p_max]`` that
  maximises the *system* utility with everyone else fixed (coarse
  log-spaced grid + local refinement), repeated until a sweep yields no
  measurable gain.  Each step is a coordinate ascent on a continuous
  function over a box, so the utility is monotonically non-decreasing and
  converges.

* :class:`TsajsWithPowerControl` alternates TSAJS (re-optimising ``X``
  for the current powers) with the power stage, giving a joint
  heuristic for offloading + power allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.annealing import AnnealingSchedule
from repro.core.decision import OffloadingDecision
from repro.core.scheduler import ScheduleResult, TsajsScheduler
from repro.errors import ConfigurationError
from repro.net.sinr import compute_link_stats
from repro.sim.rng import make_rng
from repro.sim.scenario import Scenario
from repro.tasks.device import UserDevice


def utility_with_powers(
    scenario: Scenario,
    decision: OffloadingDecision,
    powers: np.ndarray,
) -> float:
    """System utility ``J*(X)`` under an explicit power vector.

    Identical to :meth:`ObjectiveEvaluator.evaluate` except the transmit
    powers are taken from ``powers`` instead of the scenario.  ``phi``,
    ``psi`` and ``eta`` do not depend on the transmit power (Eq. 19), so
    only the SINR terms and the ``psi * p`` energy weight change.
    """
    powers = np.asarray(powers, dtype=float)
    if powers.shape != (scenario.n_users,):
        raise ConfigurationError(
            f"powers must have shape ({scenario.n_users},), got {powers.shape}"
        )
    offloaded = decision.offloaded_users()
    if offloaded.size == 0:
        return 0.0
    stats = compute_link_stats(
        scenario.gains,
        powers,
        scenario.noise_watts,
        scenario.subband_width_hz,
        decision.server,
        decision.channel,
        validate=False,
    )
    se = stats.spectral_efficiency[offloaded]
    if np.any(se <= 0.0):
        return float("-inf")
    comm_weight = scenario.phi[offloaded] + scenario.psi[offloaded] * powers[offloaded]
    gamma_cost = float(np.sum(comm_weight / se))
    root_sums = np.bincount(
        decision.server[offloaded],
        weights=scenario.sqrt_eta[offloaded],
        minlength=scenario.n_servers,
    )
    lambda_cost = float(np.sum(root_sums**2 / scenario.server_cpu_hz))
    gain = float(
        np.sum(
            scenario.operator_weight[offloaded]
            * (scenario.beta_time[offloaded] + scenario.beta_energy[offloaded])
        )
    )
    return gain - gamma_cost - lambda_cost


def scenario_with_powers(scenario: Scenario, powers: np.ndarray) -> Scenario:
    """A copy of ``scenario`` whose users transmit at the given powers."""
    powers = np.asarray(powers, dtype=float)
    if powers.shape != (scenario.n_users,):
        raise ConfigurationError(
            f"powers must have shape ({scenario.n_users},), got {powers.shape}"
        )
    users = [
        UserDevice(
            task=user.task,
            cpu_hz=user.cpu_hz,
            tx_power_watts=float(power),
            kappa=user.kappa,
            beta_time=user.beta_time,
            beta_energy=user.beta_energy,
            operator_weight=user.operator_weight,
        )
        for user, power in zip(scenario.users, powers)
    ]
    return Scenario(
        users=users,
        servers=scenario.servers,
        gains=scenario.gains,
        ofdma=scenario.ofdma,
        noise_watts=scenario.noise_watts,
        topology=scenario.topology,
        user_positions=scenario.user_positions,
    )


@dataclass(frozen=True)
class PowerControlResult:
    """Outcome of the best-response power optimisation.

    Attributes
    ----------
    powers:
        Optimised per-user transmit powers (local users keep their
        original setting — they do not transmit).
    utility_before / utility_after:
        System utility at the original and optimised powers.
    sweeps_run:
        Gauss-Seidel sweeps executed.
    converged:
        Whether the last sweep improved by less than the tolerance.
    """

    powers: np.ndarray
    utility_before: float
    utility_after: float
    sweeps_run: int
    converged: bool

    @property
    def utility_gain(self) -> float:
        return self.utility_after - self.utility_before


def optimize_powers(
    scenario: Scenario,
    decision: OffloadingDecision,
    p_min_watts: float = 1e-3,
    p_max_watts: float = 0.1,
    max_sweeps: int = 10,
    grid_points: int = 24,
    refine_iterations: int = 20,
    tolerance: float = 1e-9,
) -> PowerControlResult:
    """Best-response uplink power optimisation for a fixed decision.

    Each offloaded user in turn maximises the system utility over its own
    power: a log-spaced grid bracket followed by golden-section refinement
    on the bracketing interval.  Sweeps repeat until the total improvement
    of a sweep falls below ``tolerance`` (or ``max_sweeps`` is hit).
    """
    if not 0.0 < p_min_watts < p_max_watts:
        raise ConfigurationError(
            f"need 0 < p_min < p_max, got {p_min_watts}, {p_max_watts}"
        )
    if grid_points < 3:
        raise ConfigurationError(f"grid_points must be >= 3, got {grid_points}")
    if max_sweeps < 1:
        raise ConfigurationError(f"max_sweeps must be >= 1, got {max_sweeps}")

    powers = scenario.tx_power_watts.copy()
    before = utility_with_powers(scenario, decision, powers)
    offloaded = [int(u) for u in decision.offloaded_users()]
    grid = np.geomspace(p_min_watts, p_max_watts, grid_points)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0

    current = before
    sweeps_run = 0
    converged = False
    for _ in range(max_sweeps):
        sweeps_run += 1
        sweep_start = current
        for user in offloaded:
            # Coarse bracket over the log grid.
            best_value = -np.inf
            best_index = 0
            for index, candidate in enumerate(grid):
                powers[user] = candidate
                value = utility_with_powers(scenario, decision, powers)
                if value > best_value:
                    best_value, best_index = value, index
            low = grid[max(best_index - 1, 0)]
            high = grid[min(best_index + 1, grid_points - 1)]
            # Golden-section refinement inside the bracket.
            a, b = low, high
            for _ in range(refine_iterations):
                c = b - invphi * (b - a)
                d = a + invphi * (b - a)
                powers[user] = c
                fc = utility_with_powers(scenario, decision, powers)
                powers[user] = d
                fd = utility_with_powers(scenario, decision, powers)
                if fc > fd:
                    b = d
                else:
                    a = c
            powers[user] = (a + b) / 2.0
            refined = utility_with_powers(scenario, decision, powers)
            if refined < best_value:  # keep the grid winner if refinement lost
                powers[user] = grid[best_index]
                refined = best_value
            current = refined
        if current - sweep_start < tolerance:
            converged = True
            break

    return PowerControlResult(
        powers=powers,
        utility_before=before,
        utility_after=current,
        sweeps_run=sweeps_run,
        converged=converged,
    )


@dataclass(frozen=True)
class JointScheduleResult:
    """Result of alternating TSAJS and power control.

    ``result`` is the final schedule (decision/allocation/utility measured
    at the optimised powers); ``scenario`` is the power-adjusted scenario
    it refers to.
    """

    result: ScheduleResult
    powers: np.ndarray
    scenario: Scenario
    utility_history: List[float]


class TsajsWithPowerControl:
    """Joint offloading + uplink power heuristic (TSAJS <-> best response).

    Each round runs TSAJS on the current scenario, then optimises the
    powers for the decision found; the adjusted powers feed the next
    round.  With ``rounds=1`` this is TSAJS plus one power post-pass.
    """

    name = "TSAJS-PC"

    def __init__(
        self,
        schedule: Optional[AnnealingSchedule] = None,
        rounds: int = 2,
        p_min_watts: float = 1e-3,
        p_max_watts: float = 0.1,
        use_delta: bool = False,
    ) -> None:
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        self.tsajs = TsajsScheduler(schedule=schedule, use_delta=use_delta)
        self.rounds = rounds
        self.p_min_watts = p_min_watts
        self.p_max_watts = p_max_watts

    def schedule_joint(
        self, scenario: Scenario, rng: Optional[np.random.Generator] = None
    ) -> JointScheduleResult:
        """Alternate TSAJS and power best-response for ``rounds`` rounds.

        The result's ``evaluations`` and ``accepted_moves`` sum over all
        TSAJS rounds.
        """
        rng = rng if rng is not None else make_rng()
        current = scenario
        history: List[float] = []
        result = None
        evaluations = 0
        accepted_moves = 0
        powers = scenario.tx_power_watts.copy()
        for _ in range(self.rounds):
            result = self.tsajs.schedule(current, rng)
            evaluations += result.evaluations
            accepted_moves += result.accepted_moves
            history.append(result.utility)
            control = optimize_powers(
                current,
                result.decision,
                p_min_watts=self.p_min_watts,
                p_max_watts=self.p_max_watts,
            )
            powers = control.powers
            history.append(control.utility_after)
            current = scenario_with_powers(current, powers)
        assert result is not None
        # Re-state the final schedule against the power-adjusted scenario.
        final = ScheduleResult(
            decision=result.decision,
            allocation=result.allocation,
            utility=history[-1],
            evaluations=evaluations,
            wall_time_s=result.wall_time_s,
            trace=result.trace,
            accepted_moves=accepted_moves,
        )
        return JointScheduleResult(
            result=final,
            powers=powers,
            scenario=current,
            utility_history=history,
        )

    def schedule(
        self, scenario: Scenario, rng: Optional[np.random.Generator] = None
    ) -> ScheduleResult:
        """Scheduler-protocol entry point (returns the final schedule)."""
        return self.schedule_joint(scenario, rng).result
