"""What-if placement scoring: ``DeltaEvaluator.evaluate_placements`` scores
every candidate slot of one user without applying any of them, and must
return the scalar reference's bits for each.

Each candidate moves one user to a ``(server, sub-band)`` slot, or back
to local with ``(LOCAL, LOCAL)``.  For every candidate the delta value
must equal :meth:`ObjectiveEvaluator.evaluate_assignment` on the moved
vectors bit for bit, with and without a frozen ``external_rx`` matrix.
The call counts one evaluation per slot, and leaves the cache on the
vectors' own assignment: it still reproduces the pre-call value and
received-power buckets.  Generated instances reach the degenerate shapes
(U=1, S=1, N=1); the named cases pin revoke, a local user, a same-band
server move, an empty target band and zero-SE (``-inf``) candidates.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.decision import LOCAL, OffloadingDecision
from repro.core.delta import DeltaEvaluator
from repro.core.objective import ObjectiveEvaluator
from tests.conftest import make_scenario

REVOKE = (LOCAL, LOCAL)
#: A gain whose SNR (p*h/noise = 1e-19) rounds log2(1 + SINR) to zero.
DEAD_GAIN = 1e-30


def _bits(value):
    return struct.pack("<d", value)


def _external_rx(scenario):
    """A random non-negative ``(N, S)`` matrix at in-instance power levels."""
    rng = np.random.default_rng(scenario.n_users + 7)
    scale = float(np.max(scenario.gains)) * float(np.max(scenario.tx_power_watts))
    return rng.random((scenario.n_subbands, scenario.n_servers)) * scale


def _candidates(decision, user):
    """Revoke (if offloaded), the user's own slot, then every free slot."""
    slots = []
    if decision.is_offloaded(user):
        slots.append(REVOKE)
        slots.append((int(decision.server[user]), int(decision.channel[user])))
    for s in range(decision.n_servers):
        slots.extend((s, j) for j in decision.free_channels(s))
    return slots


def _reference_values(scenario, external_rx, decision, user, slots):
    reference = ObjectiveEvaluator(scenario, external_rx=external_rx)
    values = []
    for s, j in slots:
        server, channel = decision.server.copy(), decision.channel.copy()
        server[user], channel[user] = s, j
        values.append(reference.evaluate_assignment(server, channel))
    return values


def check_placements(scenario, decision, user, slots, external_rx, start, hinted):
    """Score ``slots`` on a delta cache last synced to ``start``."""
    delta = DeltaEvaluator(scenario, external_rx=external_rx)
    delta.evaluate(start)
    touched = decision.changed_users(start).tolist() if hinted else None
    before = delta.evaluations
    server, channel = decision.server.copy(), decision.channel.copy()

    values = delta.evaluate_placements(server, channel, user, slots, touched=touched)

    assert delta.evaluations == before + len(slots)
    assert delta.fast_evals + delta.full_evals == delta.evaluations
    expected = _reference_values(scenario, external_rx, decision, user, slots)
    assert [_bits(v) for v in values] == [_bits(v) for v in expected], slots
    # Nothing was applied: the vectors are untouched and the cache still
    # holds their assignment, buckets included.
    assert np.array_equal(server, decision.server)
    assert np.array_equal(channel, decision.channel)
    fresh = DeltaEvaluator(scenario, external_rx=external_rx)
    pre_call = fresh.evaluate(decision)
    assert delta._total_rx == fresh._total_rx
    assert delta._band_users == fresh._band_users
    for v in decision.offloaded_users():
        assert delta._rx_rows[v] == fresh._rx_rows[v]
    assert [_bits(x) for x in delta._se] == [_bits(x) for x in fresh._se]
    assert np.array_equal(delta._net, fresh._net)
    assert _bits(delta.evaluate_assignment(server, channel, touched=())) == _bits(
        pre_call
    )
    assert _bits(pre_call) == _bits(
        ObjectiveEvaluator(scenario, external_rx=external_rx).evaluate(decision)
    )
    return values


@st.composite
def placement_cases(draw):
    """A small instance, a feasible decision, a user and a stale start."""
    n_users = draw(st.integers(min_value=1, max_value=6))
    n_servers = draw(st.integers(min_value=1, max_value=3))
    n_subbands = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    dead_share = draw(st.sampled_from([0.0, 0.0, 0.3]))
    rng = np.random.default_rng(seed)
    gains = rng.uniform(1e-12, 1e-7, size=(n_users, n_servers, n_subbands))
    # Gains this weak round log2(1 + SINR) to zero: -inf candidates.
    gains[rng.random(gains.shape) < dead_share] = DEAD_GAIN
    scenario = make_scenario(
        n_users=n_users, n_servers=n_servers, n_subbands=n_subbands, gains=gains
    )
    decision = OffloadingDecision.random_feasible(
        n_users, n_servers, n_subbands, rng, offload_probability=0.7
    )
    start = OffloadingDecision.random_feasible(n_users, n_servers, n_subbands, rng)
    user = draw(st.integers(min_value=0, max_value=n_users - 1))
    return scenario, decision, user, start


def _case(n_users, n_servers, n_subbands, seed=0):
    rng = np.random.default_rng(seed)
    gains = rng.uniform(1e-12, 1e-7, size=(n_users, n_servers, n_subbands))
    scenario = make_scenario(
        n_users=n_users, n_servers=n_servers, n_subbands=n_subbands, gains=gains
    )
    decision = OffloadingDecision.random_feasible(
        n_users, n_servers, n_subbands, rng, offload_probability=0.7
    )
    start = OffloadingDecision.all_local(n_users, n_servers, n_subbands)
    return scenario, decision, 0, start


@settings(max_examples=60, deadline=None)
@given(
    case=placement_cases(),
    external=st.booleans(),
    hinted=st.booleans(),
)
@example(case=_case(1, 1, 1), external=False, hinted=True)
@example(case=_case(1, 1, 1), external=True, hinted=False)
@example(case=_case(1, 3, 2, seed=1), external=True, hinted=True)
@example(case=_case(5, 1, 3, seed=2), external=False, hinted=True)
@example(case=_case(5, 3, 1, seed=3), external=True, hinted=True)
def test_generated_placements_equal_scalar_bits(case, external, hinted):
    scenario, decision, user, start = case
    external_rx = _external_rx(scenario) if external else None
    slots = _candidates(decision, user)
    check_placements(scenario, decision, user, slots, external_rx, start, hinted)


@pytest.mark.parametrize("external", [False, True], ids=["plain", "external_rx"])
@pytest.mark.parametrize("seed", range(4))
def test_crowded_bands_every_user(seed, external):
    """Four occupants per band: bucket sums of three or more rows, whose
    bits depend on the ascending-user insertion order."""
    rng = np.random.default_rng(100 + seed)
    gains = rng.uniform(1e-12, 1e-7, size=(12, 4, 3))
    scenario = make_scenario(n_users=12, n_servers=4, n_subbands=3, gains=gains)
    decision = OffloadingDecision.random_feasible(
        12, 4, 3, rng, offload_probability=0.9
    )
    external_rx = _external_rx(scenario) if external else None
    start = OffloadingDecision.random_feasible(12, 4, 3, rng)
    for user in range(12):
        slots = _candidates(decision, user)
        check_placements(scenario, decision, user, slots, external_rx, start, True)


def _named_scenario(gains=None):
    """U=4, S=3, N=3 with distinct gains (or the ones given)."""
    if gains is None:
        gains = np.random.default_rng(11).uniform(1e-10, 1e-8, size=(4, 3, 3))
    return make_scenario(n_users=4, n_servers=3, n_subbands=3, gains=gains)


def _named_decision():
    """Users 0 and 1 share band 0; user 2 sits on band 1; user 3 is local;
    band 2 is empty."""
    decision = OffloadingDecision.all_local(4, 3, 3)
    decision.assign(0, 0, 0)
    decision.assign(1, 1, 0)
    decision.assign(2, 2, 1)
    return decision


@pytest.mark.parametrize("external", [False, True], ids=["plain", "external_rx"])
class TestNamedCandidates:
    def _check(self, user, slots, external, gains=None, hinted=True):
        scenario = _named_scenario(gains)
        decision = _named_decision()
        external_rx = _external_rx(scenario) if external else None
        start = OffloadingDecision.all_local(4, 3, 3)
        start.assign(3, 0, 2)
        return check_placements(
            scenario, decision, user, slots, external_rx, start, hinted
        )

    def test_revoke(self, external):
        (value,) = self._check(0, [REVOKE], external)
        assert np.isfinite(value)

    def test_revoke_of_the_only_offloaded_user_scores_zero(self, external):
        scenario = _named_scenario()
        decision = OffloadingDecision.all_local(4, 3, 3)
        decision.assign(2, 1, 1)
        external_rx = _external_rx(scenario) if external else None
        start = OffloadingDecision.all_local(4, 3, 3)
        values = check_placements(
            scenario, decision, 2, [REVOKE], external_rx, start, hinted=True
        )
        assert values == [0.0]

    def test_local_user(self, external):
        slots = [REVOKE] + _candidates(_named_decision(), 3)
        values = self._check(3, slots, external)
        assert len(values) == 1 + 6

    def test_same_band_server_move(self, external):
        # User 0 moves from (0, 0) to (2, 0): band 0's bucket is unchanged.
        self._check(0, [(2, 0), (0, 0)], external)

    def test_empty_target_band(self, external):
        self._check(2, [(0, 2), (1, 2), (2, 2)], external)

    def test_cross_band_moves_and_revoke_share_one_detach(self, external):
        slots = [REVOKE, (2, 0), (0, 1), (1, 1), (0, 2), (2, 2)]
        self._check(1, slots, external, hinted=False)

    def test_zero_spectral_efficiency_scores_minus_inf(self, external):
        gains = np.random.default_rng(11).uniform(1e-10, 1e-8, size=(4, 3, 3))
        gains[3, 1, :] = DEAD_GAIN  # user 3 has no link to server 1
        gains[0, 2, 2] = DEAD_GAIN  # user 0 cannot reach server 2 on band 2
        values = self._check(3, [(1, 2), (0, 2), (1, 1)], external, gains=gains)
        assert values[0] == float("-inf") and values[2] == float("-inf")
        assert np.isfinite(values[1])
        values = self._check(0, [(2, 2), (1, 2), REVOKE], external, gains=gains)
        assert values[0] == float("-inf")
        assert np.isfinite(values[1]) and np.isfinite(values[2])

    def test_dead_occupant_revived_by_leaving_user(self, external):
        # User 1's signal at (1, 0) is so weak that user 0's interference
        # drives its spectral efficiency to zero; moving user 0 off band 0
        # revives it, moving user 0 within band 0 does not.
        gains = np.random.default_rng(11).uniform(1e-10, 1e-8, size=(4, 3, 3))
        gains[1, 1, 0] = 1e-25
        gains[0, 1, 0] = 1e-8
        values = self._check(0, [REVOKE, (0, 1), (2, 0)], external, gains=gains)
        assert values[2] == float("-inf")
        if not external:
            assert np.isfinite(values[0]) and np.isfinite(values[1])

    def test_empty_slot_list(self, external):
        scenario = _named_scenario()
        delta = DeltaEvaluator(scenario)
        decision = _named_decision()
        before = delta.evaluations
        assert delta.evaluate_placements(decision.server, decision.channel, 0, []) == []
        assert delta.evaluations == before
        # The call still synced the cache to the vectors.
        assert delta._server_list == decision.server.tolist()


def test_scalar_reference_restores_the_vectors():
    scenario = _named_scenario()
    decision = _named_decision()
    reference = ObjectiveEvaluator(scenario)
    server, channel = decision.server.copy(), decision.channel.copy()
    slots = [REVOKE] + _candidates(decision, 1)
    values = reference.evaluate_placements(server, channel, 1, slots)
    assert reference.evaluations == len(slots)
    assert np.array_equal(server, decision.server)
    assert np.array_equal(channel, decision.channel)
    assert values == _reference_values(scenario, None, decision, 1, slots)
