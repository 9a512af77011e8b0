"""Tests for the uplink power-control extension."""

import numpy as np
import pytest

from repro.core.annealing import AnnealingSchedule
from repro.core.decision import OffloadingDecision
from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import ScheduleResult, Scheduler, TsajsScheduler
from repro.errors import ConfigurationError
from repro.extensions.power_control import (
    TsajsWithPowerControl,
    optimize_powers,
    scenario_with_powers,
    utility_with_powers,
)
from tests.conftest import make_scenario

QUICK = AnnealingSchedule(min_temperature=1e-2)


class TestUtilityWithPowers:
    def test_matches_evaluator_at_scenario_powers(self, small_random_scenario, rng):
        decision = OffloadingDecision.random_feasible(
            small_random_scenario.n_users,
            small_random_scenario.n_servers,
            small_random_scenario.n_subbands,
            rng,
        )
        via_evaluator = ObjectiveEvaluator(small_random_scenario).evaluate(decision)
        via_powers = utility_with_powers(
            small_random_scenario, decision, small_random_scenario.tx_power_watts
        )
        assert via_powers == pytest.approx(via_evaluator, rel=1e-12)

    def test_empty_decision_zero(self, tiny_scenario):
        decision = OffloadingDecision.all_local(4, 2, 2)
        assert utility_with_powers(
            tiny_scenario, decision, tiny_scenario.tx_power_watts
        ) == 0.0

    def test_rejects_wrong_shape(self, tiny_scenario):
        decision = OffloadingDecision.all_local(4, 2, 2)
        with pytest.raises(ConfigurationError):
            utility_with_powers(tiny_scenario, decision, np.ones(3))

    def test_interference_free_user_gains_from_power(self, tiny_scenario):
        # A single offloaded user: more power = faster upload = higher J
        # (the energy term psi*p grows, but at these parameters the rate
        # gain dominates).
        decision = OffloadingDecision.all_local(4, 2, 2)
        decision.assign(0, 0, 0)
        powers = tiny_scenario.tx_power_watts.copy()
        low = utility_with_powers(tiny_scenario, decision, powers)
        powers[0] *= 10.0
        high = utility_with_powers(tiny_scenario, decision, powers)
        assert high > low


class TestScenarioWithPowers:
    def test_updates_power_arrays(self, tiny_scenario):
        new_powers = np.full(4, 0.05)
        updated = scenario_with_powers(tiny_scenario, new_powers)
        np.testing.assert_allclose(updated.tx_power_watts, new_powers)
        # Radio environment and tasks untouched.
        np.testing.assert_array_equal(updated.gains, tiny_scenario.gains)
        np.testing.assert_array_equal(updated.cycles, tiny_scenario.cycles)

    def test_psi_recomputed_consistently(self, tiny_scenario):
        # psi does not depend on p, so it must be unchanged.
        updated = scenario_with_powers(tiny_scenario, np.full(4, 0.05))
        np.testing.assert_allclose(updated.psi, tiny_scenario.psi)

    def test_rejects_wrong_shape(self, tiny_scenario):
        with pytest.raises(ConfigurationError):
            scenario_with_powers(tiny_scenario, np.ones(2))

    def test_original_untouched(self, tiny_scenario):
        before = tiny_scenario.tx_power_watts.copy()
        scenario_with_powers(tiny_scenario, np.full(4, 0.05))
        np.testing.assert_array_equal(tiny_scenario.tx_power_watts, before)


class TestOptimizePowers:
    def decision_on(self, scenario, rng):
        return OffloadingDecision.random_feasible(
            scenario.n_users, scenario.n_servers, scenario.n_subbands, rng
        )

    def test_never_decreases_utility(self, small_random_scenario, rng):
        decision = self.decision_on(small_random_scenario, rng)
        control = optimize_powers(small_random_scenario, decision)
        assert control.utility_after >= control.utility_before - 1e-12
        assert control.utility_gain >= -1e-12

    def test_powers_within_bounds(self, small_random_scenario, rng):
        decision = self.decision_on(small_random_scenario, rng)
        control = optimize_powers(
            small_random_scenario, decision, p_min_watts=0.002, p_max_watts=0.05
        )
        for u in decision.offloaded_users():
            assert 0.002 - 1e-12 <= control.powers[u] <= 0.05 + 1e-12

    def test_local_users_keep_power(self, small_random_scenario, rng):
        decision = self.decision_on(small_random_scenario, rng)
        control = optimize_powers(small_random_scenario, decision)
        for u in range(small_random_scenario.n_users):
            if not decision.is_offloaded(u):
                assert control.powers[u] == small_random_scenario.tx_power_watts[u]

    def test_reported_utility_consistent(self, small_random_scenario, rng):
        decision = self.decision_on(small_random_scenario, rng)
        control = optimize_powers(small_random_scenario, decision)
        recomputed = utility_with_powers(
            small_random_scenario, decision, control.powers
        )
        assert control.utility_after == pytest.approx(recomputed)

    def test_empty_decision_noop(self, tiny_scenario):
        decision = OffloadingDecision.all_local(4, 2, 2)
        control = optimize_powers(tiny_scenario, decision)
        assert control.utility_before == 0.0
        assert control.utility_after == 0.0
        assert control.converged

    def test_validation(self, tiny_scenario):
        decision = OffloadingDecision.all_local(4, 2, 2)
        with pytest.raises(ConfigurationError):
            optimize_powers(tiny_scenario, decision, p_min_watts=0.1, p_max_watts=0.1)
        with pytest.raises(ConfigurationError):
            optimize_powers(tiny_scenario, decision, grid_points=2)
        with pytest.raises(ConfigurationError):
            optimize_powers(tiny_scenario, decision, max_sweeps=0)

    def test_deterministic(self, small_random_scenario, rng):
        decision = self.decision_on(small_random_scenario, rng)
        a = optimize_powers(small_random_scenario, decision)
        b = optimize_powers(small_random_scenario, decision)
        np.testing.assert_array_equal(a.powers, b.powers)


class TestTsajsWithPowerControl:
    def test_satisfies_protocol(self):
        assert isinstance(TsajsWithPowerControl(schedule=QUICK), Scheduler)

    def test_joint_beats_or_matches_plain_tsajs(self, small_random_scenario):
        plain = TsajsScheduler(schedule=QUICK).schedule(
            small_random_scenario, np.random.default_rng(4)
        )
        joint = TsajsWithPowerControl(schedule=QUICK, rounds=1).schedule_joint(
            small_random_scenario, np.random.default_rng(4)
        )
        assert joint.result.utility >= plain.utility - 1e-9

    def test_history_monotone_within_round(self, small_random_scenario):
        joint = TsajsWithPowerControl(schedule=QUICK, rounds=1).schedule_joint(
            small_random_scenario, np.random.default_rng(4)
        )
        # [tsajs, power] per round: power step never decreases utility.
        assert joint.utility_history[1] >= joint.utility_history[0] - 1e-12

    def test_schedule_returns_schedule_result(self, small_random_scenario):
        result = TsajsWithPowerControl(schedule=QUICK, rounds=1).schedule(
            small_random_scenario, np.random.default_rng(4)
        )
        assert isinstance(result, ScheduleResult)

    def test_rejects_bad_rounds(self):
        with pytest.raises(ConfigurationError):
            TsajsWithPowerControl(rounds=0)

    def test_cost_sums_over_rounds(self, small_random_scenario):
        """evaluations/accepted_moves count every TSAJS round, not the last."""
        joint = TsajsWithPowerControl(schedule=QUICK, rounds=2).schedule(
            small_random_scenario, np.random.default_rng(4)
        )
        # Replay the two rounds by hand on the same stream.
        rng = np.random.default_rng(4)
        tsajs = TsajsScheduler(schedule=QUICK)
        scenario = small_random_scenario
        rounds = []
        for _ in range(2):
            result = tsajs.schedule(scenario, rng)
            rounds.append(result)
            powers = optimize_powers(scenario, result.decision).powers
            scenario = scenario_with_powers(scenario, powers)
        assert joint.evaluations == sum(r.evaluations for r in rounds)
        assert joint.accepted_moves == sum(r.accepted_moves for r in rounds)
        assert joint.accepted_moves > 0

    def test_scenario_in_result_has_tuned_powers(self, small_random_scenario):
        joint = TsajsWithPowerControl(schedule=QUICK, rounds=1).schedule_joint(
            small_random_scenario, np.random.default_rng(4)
        )
        np.testing.assert_allclose(
            joint.scenario.tx_power_watts, joint.powers
        )
