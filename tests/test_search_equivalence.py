"""The evaluator picks the lane: every search scheme returns the same bits
on the scalar reference and on its default incremental evaluator.

TSAJS, hJTORA and LocalSearch score single-user moves with
:class:`~repro.core.delta.DeltaEvaluator` by default and with the full
:class:`~repro.core.objective.ObjectiveEvaluator` when it is passed as
``evaluator_factory``.  Both lanes must agree on the decision, the
utility bits, the evaluation count and the accepted-move count — on the
paper's Fig. 4 point and on generated small instances, degenerate
shapes included.  An evaluator without ``evaluate_move`` (the
downlink-aware one) must keep running on the generic lane.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines import HJtoraScheduler, LocalSearchScheduler
from repro.core.annealing import AnnealingSchedule
from repro.core.scheduler import TsajsScheduler
from repro.extensions.downlink import DownlinkAwareEvaluator
from repro.sim.config import SimulationConfig
from repro.sim.scenario import Scenario
from tests.conftest import make_scenario
from tests.equivalence import SCHEMES, assert_trajectories_identical, run_trajectory

#: Fig. 4's point: U=90, S=9, N=3, w=1000 Mc.
FIG4 = SimulationConfig(n_users=90, workload_megacycles=1000.0)
SHORT = AnnealingSchedule(chain_length=5, min_temperature=0.5)


@pytest.mark.slow
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("seed", [2025, 2026, 2027])
def test_fig4_lanes_bitwise_identical(scheme, seed):
    scenario = Scenario.build(FIG4, seed=seed)
    scalar = run_trajectory(scenario, seed, "scalar", scheme=scheme)
    delta = run_trajectory(scenario, seed, "delta", scheme=scheme)
    assert_trajectories_identical(scalar, delta)
    assert scalar.evaluations > 0


@st.composite
def small_instances(draw):
    """A small scenario with random gains (U may be 0; S and N may be 1)."""
    n_users = draw(st.integers(min_value=0, max_value=6))
    n_servers = draw(st.integers(min_value=1, max_value=3))
    n_subbands = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    gains = np.random.default_rng(seed).uniform(
        1e-12, 1e-7, size=(n_users, n_servers, n_subbands)
    )
    beta_time = draw(st.floats(min_value=0.05, max_value=0.95, allow_nan=False))
    scenario = make_scenario(
        n_users=n_users,
        n_servers=n_servers,
        n_subbands=n_subbands,
        gains=gains,
        beta_time=beta_time,
    )
    return scenario, seed


def _shape(n_users, n_servers, n_subbands, seed=0):
    gains = np.random.default_rng(seed).uniform(
        1e-12, 1e-7, size=(n_users, n_servers, n_subbands)
    )
    return (
        make_scenario(
            n_users=n_users, n_servers=n_servers, n_subbands=n_subbands, gains=gains
        ),
        seed,
    )


@settings(max_examples=25, deadline=None)
@given(instance=small_instances(), scheme=st.sampled_from(SCHEMES))
@example(instance=_shape(0, 2, 2), scheme="TSAJS")
@example(instance=_shape(0, 2, 2), scheme="hJTORA")
@example(instance=_shape(0, 2, 2), scheme="LocalSearch")
@example(instance=_shape(1, 2, 2), scheme="hJTORA")
@example(instance=_shape(1, 2, 2), scheme="LocalSearch")
@example(instance=_shape(4, 1, 3), scheme="hJTORA")
@example(instance=_shape(4, 1, 3), scheme="LocalSearch")
@example(instance=_shape(4, 3, 1), scheme="hJTORA")
@example(instance=_shape(4, 3, 1), scheme="LocalSearch")
def test_generated_lanes_bitwise_identical(instance, scheme):
    scenario, seed = instance
    scalar = run_trajectory(scenario, seed, "scalar", schedule=SHORT, scheme=scheme)
    delta = run_trajectory(scenario, seed, "delta", schedule=SHORT, scheme=scheme)
    assert_trajectories_identical(scalar, delta)


@pytest.mark.parametrize(
    "scheduler",
    [
        TsajsScheduler(schedule=SHORT, evaluator_factory=DownlinkAwareEvaluator),
        HJtoraScheduler(evaluator_factory=DownlinkAwareEvaluator),
        LocalSearchScheduler(evaluator_factory=DownlinkAwareEvaluator),
    ],
    ids=lambda scheduler: scheduler.name,
)
def test_evaluator_without_evaluate_move_runs_the_generic_lane(scheduler):
    scenario = Scenario.build(SimulationConfig(n_users=12), seed=3)
    result = scheduler.schedule(scenario, np.random.default_rng(0))
    assert result.evaluations > 0
    # The reported utility is the downlink-aware value of the decision.
    aware = DownlinkAwareEvaluator(scenario)
    assert aware.evaluate(result.decision) == result.utility
