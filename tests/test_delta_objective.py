"""Equivalence suite locking the delta evaluator to the full objective.

Every test drives :class:`DeltaEvaluator` through long random move
sequences and checks, after *every* move, that it agrees with a fresh
:meth:`ObjectiveEvaluator.evaluate` — exactly, since the delta path is
specified to be bit-for-bit equal — and with :meth:`breakdown` within
1e-9.  The sequences exercise the touched-set protocol exactly as the
annealer uses it (rejections leave the cache on the rejected candidate,
so the next evaluation carries the rejected touched set), plus unhinted
``touched=None`` diffs and mid-sequence :meth:`rebuild` checkpoints.
The interference cache is property-tested against from-scratch
``net.sinr`` recomputes, with and without a frozen ``external_rx``
matrix, and the ``tests/equivalence.py`` harness replays whole TSAJS
trajectories at paper scale on both evaluation paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.annealing import AnnealingSchedule
from repro.core.decision import LOCAL, OffloadingDecision
from repro.core.delta import DeltaEvaluator
from repro.core.neighborhood import NeighborhoodSampler
from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import TsajsScheduler
from repro.net.sinr import total_received_power
from repro.sim.config import SimulationConfig, small_network_config
from repro.sim.rng import child_rng
from repro.sim.scenario import Scenario
from tests.conftest import make_scenario
from tests.equivalence import assert_trajectories_identical, run_trajectory

#: (U, S, N, scenario seed) grid — 10 randomized scenarios x 60 moves
#: each = 600 checked moves in the main sequence test alone.
SCENARIO_GRID = [
    (1, 1, 1, 0),
    (2, 1, 2, 1),
    (4, 2, 2, 2),
    (5, 3, 1, 3),
    (6, 2, 3, 4),
    (8, 3, 2, 5),
    (9, 4, 3, 6),
    (10, 2, 4, 7),
    (12, 5, 2, 8),
    (15, 3, 3, 9),
]

MOVES_PER_SCENARIO = 60
REBUILD_EVERY = 25


def random_scenario(n_users, n_servers, n_subbands, seed):
    config = SimulationConfig(
        n_users=n_users, n_servers=n_servers, n_subbands=n_subbands
    )
    return Scenario.build(config, seed=seed)


def assert_breakdown_close(full: ObjectiveEvaluator, delta_value, decision):
    detailed = full.breakdown(decision).system_utility
    if detailed == float("-inf") or delta_value == float("-inf"):
        assert detailed == delta_value
    else:
        assert delta_value == pytest.approx(detailed, rel=1e-9, abs=1e-12)


class TestMoveSequences:
    @pytest.mark.parametrize("n_users,n_servers,n_subbands,seed", SCENARIO_GRID)
    def test_annealer_style_sequence(self, n_users, n_servers, n_subbands, seed):
        """Accept/reject walks with carry, hints and rebuild checkpoints."""
        scenario = random_scenario(n_users, n_servers, n_subbands, seed)
        rng = np.random.default_rng(1000 + seed)
        sampler = NeighborhoodSampler()
        full = ObjectiveEvaluator(scenario)
        delta = DeltaEvaluator(scenario)

        current = OffloadingDecision.random_feasible(
            n_users, n_servers, n_subbands, rng
        )
        # Sync the cache onto the random start the way the annealer does:
        # one unhinted evaluation.
        assert delta.evaluate(current) == full.evaluate(current)

        carry = ()
        for step in range(MOVES_PER_SCENARIO):
            candidate, touched = sampler.propose_move(current, rng)
            if step % 7 == 3:
                # Unhinted call: must self-diff, regardless of carry.
                got = delta.evaluate_assignment(
                    candidate.server, candidate.channel
                )
            else:
                got = delta.evaluate_move(candidate, touched + carry)
            expected = full.evaluate(candidate)
            assert got == expected, f"step {step}"
            assert_breakdown_close(full, got, candidate)

            if rng.random() < 0.5:  # accept
                current = candidate
                carry = ()
            else:
                # Reject: the cache stays on the rejected candidate, so
                # the next evaluation must also cover its touched users
                # (even when this evaluation was the unhinted kind).
                carry = touched

            if step % REBUILD_EVERY == REBUILD_EVERY - 1:
                delta.rebuild()
                assert delta.evaluate(current) == full.evaluate(current)

    @pytest.mark.parametrize("n_users,n_servers,n_subbands,seed", SCENARIO_GRID)
    def test_touched_superset_is_allowed(self, n_users, n_servers, n_subbands, seed):
        """Extra users in the touched set (even duplicated) are harmless."""
        scenario = random_scenario(n_users, n_servers, n_subbands, seed)
        rng = np.random.default_rng(2000 + seed)
        sampler = NeighborhoodSampler()
        full = ObjectiveEvaluator(scenario)
        delta = DeltaEvaluator(scenario)
        current = OffloadingDecision.random_feasible(
            n_users, n_servers, n_subbands, rng
        )
        delta.evaluate(current)
        for _ in range(20):
            candidate, touched = sampler.propose_move(current, rng)
            extra = tuple(
                int(u) for u in rng.integers(0, n_users, size=3)
            )
            got = delta.evaluate_move(candidate, touched + touched + extra)
            assert got == full.evaluate(candidate)
            current = candidate

    def test_touched_sets_cover_actual_changes(self):
        """propose_move's touched set covers every differing user."""
        scenario = random_scenario(10, 3, 2, 42)
        rng = np.random.default_rng(42)
        sampler = NeighborhoodSampler()
        current = OffloadingDecision.random_feasible(10, 3, 2, rng)
        for _ in range(300):
            candidate, touched = sampler.propose_move(current, rng)
            changed = set(int(u) for u in current.changed_users(candidate))
            assert changed <= set(touched)
            current = candidate


class TestDropInUsage:
    def test_unhinted_mutated_arrays(self):
        """hJTORA-style callers mutate scratch vectors between calls."""
        scenario = random_scenario(8, 3, 2, 11)
        rng = np.random.default_rng(11)
        full = ObjectiveEvaluator(scenario)
        delta = DeltaEvaluator(scenario)
        server = np.full(8, LOCAL, dtype=np.int64)
        channel = np.full(8, LOCAL, dtype=np.int64)
        for _ in range(120):
            u = int(rng.integers(0, 8))
            if rng.random() < 0.3:
                server[u] = LOCAL
                channel[u] = LOCAL
            else:
                s = int(rng.integers(0, 3))
                j = int(rng.integers(0, 2))
                # Clear any other occupant of the slot to stay feasible.
                for v in range(8):
                    if v != u and server[v] == s and channel[v] == j:
                        server[v] = LOCAL
                        channel[v] = LOCAL
                server[u] = s
                channel[u] = j
            got = delta.evaluate_assignment(server, channel)
            assert got == full.evaluate_assignment(server, channel)

    def test_constant_gains_scenario(self):
        """Degenerate equal-gain channels (exercises ties and cancellation)."""
        scenario = make_scenario(n_users=6, n_servers=2, n_subbands=2)
        rng = np.random.default_rng(0)
        full = ObjectiveEvaluator(scenario)
        delta = DeltaEvaluator(scenario)
        sampler = NeighborhoodSampler()
        current = OffloadingDecision.random_feasible(6, 2, 2, rng)
        delta.evaluate(current)
        for _ in range(60):
            candidate, touched = sampler.propose_move(current, rng)
            assert delta.evaluate_move(candidate, touched) == full.evaluate(candidate)
            current = candidate


class TestEdgeCases:
    def test_all_local_is_zero(self):
        scenario = random_scenario(5, 2, 2, 3)
        delta = DeltaEvaluator(scenario)
        decision = OffloadingDecision.all_local(5, 2, 2)
        assert delta.evaluate(decision) == 0.0
        # Offload someone, then back to all-local.
        decision.assign(2, 1, 0)
        assert delta.evaluate(decision) == ObjectiveEvaluator(scenario).evaluate(
            decision
        )
        decision.set_local(2)
        assert delta.evaluate(decision) == 0.0

    def test_no_users(self):
        scenario = make_scenario(n_users=0, n_servers=2, n_subbands=2)
        delta = DeltaEvaluator(scenario)
        decision = OffloadingDecision.all_local(0, 2, 2)
        assert delta.evaluate(decision) == 0.0

    def test_dead_link_matches_full_minus_inf(self):
        """Subnormal gains give se == 0, so both paths return -inf."""
        gains = np.full((3, 2, 2), 1e-300)
        scenario = make_scenario(n_users=3, n_servers=2, n_subbands=2, gains=gains)
        full = ObjectiveEvaluator(scenario)
        delta = DeltaEvaluator(scenario)
        decision = OffloadingDecision.all_local(3, 2, 2)
        decision.assign(0, 0, 0)
        assert full.evaluate(decision) == float("-inf")
        assert delta.evaluate(decision) == float("-inf")
        # Recovery: back to all-local must return exactly 0 again.
        decision.set_local(0)
        assert delta.evaluate(decision) == 0.0

    def test_breakdown_unaffected_by_cache(self):
        """breakdown() is inherited and never reads the delta cache."""
        scenario = random_scenario(6, 2, 2, 21)
        rng = np.random.default_rng(21)
        delta = DeltaEvaluator(scenario)
        full = ObjectiveEvaluator(scenario)
        a = OffloadingDecision.random_feasible(6, 2, 2, rng)
        b = OffloadingDecision.random_feasible(6, 2, 2, rng)
        delta.evaluate(a)  # cache points at `a`
        assert delta.breakdown(b).system_utility == pytest.approx(
            full.breakdown(b).system_utility, rel=1e-12
        )
        # ... and breakdown did not corrupt the cache.
        assert delta.evaluate(a) == full.evaluate(a)


class TestSchedulerTrajectoryEquality:
    """The acceptance check: use_delta=True reproduces the exact run."""

    @pytest.mark.parametrize(
        "config",
        [small_network_config(), SimulationConfig(n_users=30)],
        ids=["fig3", "fig4"],
    )
    def test_exact_same_best_decision_and_objective(self, config):
        scenario = Scenario.build(config, seed=7)
        schedule = AnnealingSchedule(chain_length=10, min_temperature=1e-3)
        full = TsajsScheduler(schedule=schedule, use_delta=False).schedule(
            scenario, child_rng(7, 100)
        )
        fast = TsajsScheduler(schedule=schedule, use_delta=True).schedule(
            scenario, child_rng(7, 100)
        )
        assert fast.decision == full.decision
        assert fast.utility == full.utility
        assert fast.evaluations == full.evaluations
        assert fast.accepted_moves == full.accepted_moves
        np.testing.assert_array_equal(fast.allocation, full.allocation)


class TestPaperScaleBitwiseIdentity:
    """Scalar vs delta trajectories at U=40/S=5/N=20 (Sec. V's U=40 point)."""

    CONFIG = SimulationConfig(n_users=40, n_servers=5, n_subbands=20)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(3000, 3005))
    def test_delta_matches_scalar(self, seed):
        scenario = Scenario.build(self.CONFIG, seed=seed)
        schedule = AnnealingSchedule(chain_length=15, min_temperature=1e-2)
        scalar = run_trajectory(scenario, seed, "scalar", schedule=schedule)
        delta = run_trajectory(scenario, seed, "delta", schedule=schedule)
        assert_trajectories_identical(scalar, delta)


def _external_rx(scenario, kind):
    """``None`` or a random non-negative ``(N, S)`` frozen-power matrix."""
    if kind == "none":
        return None
    rng = np.random.default_rng(scenario.n_users)
    # Same order of magnitude as in-instance received powers.
    scale = float(np.max(scenario.gains)) * float(np.max(scenario.tx_power_watts))
    return rng.random((scenario.n_subbands, scenario.n_servers)) * scale


class TestInterferenceCacheProperties:
    """Cached per-sub-band interference == from-scratch net.sinr bits."""

    def _assert_cache_matches(self, evaluator, scenario, external_rx):
        server = np.asarray(evaluator._server_list)
        channel = np.asarray(evaluator._channel_list)
        expected = total_received_power(
            scenario.gains, scenario.tx_power_watts, server, channel
        )
        if external_rx is not None:
            expected = expected + external_rx
        cached = np.asarray(evaluator._total_rx)
        assert np.array_equal(cached, expected), (
            "cached (band, server) received-power buckets diverged from "
            "the from-scratch net.sinr recompute"
        )

    @pytest.mark.parametrize("kind", ["none", "external"])
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_assignment_sequences(self, seed, kind):
        config = SimulationConfig(n_users=12, n_servers=4, n_subbands=3)
        scenario = Scenario.build(config, seed=seed)
        external_rx = _external_rx(scenario, kind)
        rng = np.random.default_rng(1000 + seed)
        evaluator = DeltaEvaluator(scenario, external_rx=external_rx)
        reference = ObjectiveEvaluator(scenario, external_rx=external_rx)
        U, S, N = scenario.n_users, scenario.n_servers, scenario.n_subbands
        for _ in range(40):
            # Random feasible-ish assignment: draw per-user, then clear
            # slot collisions back to local (the cache contract does not
            # require feasibility, but the schedulers maintain it).
            server = rng.integers(-1, S, size=U)
            channel = np.where(server >= 0, rng.integers(0, N, size=U), LOCAL)
            used = set()
            for u in range(U):
                if server[u] >= 0:
                    slot = (int(server[u]), int(channel[u]))
                    if slot in used:
                        server[u] = LOCAL
                        channel[u] = LOCAL
                    else:
                        used.add(slot)
            got = evaluator.evaluate_assignment(server, channel)
            assert got == reference.evaluate_assignment(server, channel)
            self._assert_cache_matches(evaluator, scenario, external_rx)

    @pytest.mark.parametrize("kind", ["none", "external"])
    def test_cache_exact_after_rebuild(self, kind):
        config = SimulationConfig(n_users=10, n_servers=3, n_subbands=2)
        scenario = Scenario.build(config, seed=3)
        external_rx = _external_rx(scenario, kind)
        rng = np.random.default_rng(3)
        evaluator = DeltaEvaluator(scenario, external_rx=external_rx)
        reference = ObjectiveEvaluator(scenario, external_rx=external_rx)
        decision = OffloadingDecision.random_feasible(
            scenario.n_users, scenario.n_servers, scenario.n_subbands, rng
        )
        before = evaluator.evaluate(decision)
        assert before == reference.evaluate(decision)
        cached_before = [list(row) for row in evaluator._total_rx]
        evaluator.rebuild()
        after = evaluator.evaluate(decision)
        assert before == after  # exact bits across a cache reset
        assert cached_before == [list(row) for row in evaluator._total_rx]
        self._assert_cache_matches(evaluator, scenario, external_rx)


def test_log2_is_value_deterministic():
    """Invariant 2: a short np.log2 call gives the full-vector bits."""
    rng = np.random.default_rng(2)
    values = 1.0 + np.abs(rng.normal(size=257))
    whole = np.log2(values)
    one_by_one = np.array([np.log2(np.array([v]))[0] for v in values])
    assert np.array_equal(whole, one_by_one)
