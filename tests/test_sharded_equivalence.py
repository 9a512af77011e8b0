"""Sharded-vs-global equivalence suite.

Two gates lock the sharded solver down:

* **single-cluster bitwise identity** — when the partition yields one
  cluster (a huge ``cluster_radius_km``), the sharded solve must be
  bitwise identical to the global solve on every evaluation path
  (scalar, delta): same utility bits, same decision, same KKT
  allocation, same accepted-move chain, same final RNG state.
* **multi-cluster bounded gap** — with a real decomposition the solver
  is an approximation; across a pinned seed set the utility gap versus
  the global solve stays within an explicit tolerance (the quick
  annealing schedule is stochastic, so per-seed gaps land on either
  side of zero — the sharded warm starts sometimes *beat* the global
  chain).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decision import OffloadingDecision
from repro.core.sharding import ShardedScheduler
from repro.errors import ConfigurationError
from repro.sim.config import SimulationConfig
from repro.sim.rng import child_rng
from repro.sim.scenario import Scenario
from repro.sim.validation import validate_result
from tests.equivalence import (
    MODES,
    assert_trajectories_identical,
    run_sharded_trajectory,
    run_trajectory,
)

#: Paper-scale configuration (Sec. V: U=30, S=9, N=3).
CONFIG = SimulationConfig()

#: Radius large enough that the whole deployment is one grid tile.
SINGLE_CLUSTER_RADIUS = 1000.0

#: Radius that splits the paper's 9-station deployment into 5 clusters.
MULTI_CLUSTER_RADIUS = 1.2

#: Seeds of the multi-cluster gap gate (>= 10, per the suite contract).
GAP_SEEDS = tuple(range(2025, 2035))

#: Pinned tolerances for the multi-cluster utility gap, relative to the
#: global solve: no single seed may fall more than 20% short, and the
#: mean gap across the seed set must stay within 5%.
MAX_SEED_GAP = 0.20
MAX_MEAN_GAP = 0.05


@pytest.mark.parametrize("seed", [2025, 2031])
@pytest.mark.parametrize("mode", MODES)
def test_single_cluster_bitwise_identical(mode, seed):
    """One-cluster sharded solve == global solve, per evaluation path."""
    scenario = Scenario.build(CONFIG, seed)
    reference = run_trajectory(scenario, seed, mode)
    sharded = run_sharded_trajectory(
        scenario, seed, mode, cluster_radius_km=SINGLE_CLUSTER_RADIUS
    )
    assert_trajectories_identical(reference, sharded)


def test_single_cluster_cross_mode_identity():
    """The sharded delta path matches the global scalar chain bitwise."""
    seed = 2027
    scenario = Scenario.build(CONFIG, seed)
    scalar = run_trajectory(scenario, seed, "scalar")
    sharded = run_sharded_trajectory(
        scenario, seed, "delta", cluster_radius_km=SINGLE_CLUSTER_RADIUS
    )
    assert_trajectories_identical(scalar, sharded)


def test_multi_cluster_gap_within_pinned_tolerance():
    """Sharded utility tracks the global solve across >= 10 seeds."""
    gaps = []
    for seed in GAP_SEEDS:
        scenario = Scenario.build(CONFIG, seed)
        reference = run_trajectory(scenario, seed, "scalar")
        sharded = run_sharded_trajectory(
            scenario, seed, "scalar", cluster_radius_km=MULTI_CLUSTER_RADIUS
        )
        assert sharded.utility > 0.0
        gap = (reference.utility - sharded.utility) / abs(reference.utility)
        gaps.append(gap)
        assert gap <= MAX_SEED_GAP, (
            f"seed {seed}: sharded utility {sharded.utility} trails global "
            f"{reference.utility} by {gap:.2%} (> {MAX_SEED_GAP:.0%})"
        )
    mean_gap = float(np.mean(gaps))
    assert mean_gap <= MAX_MEAN_GAP, (
        f"mean sharded-vs-global gap {mean_gap:.2%} exceeds {MAX_MEAN_GAP:.0%}"
    )


def test_multi_cluster_result_is_feasible():
    scenario = Scenario.build(CONFIG, 2030)
    scheduler = ShardedScheduler(cluster_radius_km=MULTI_CLUSTER_RADIUS)
    result = scheduler.schedule(scenario, child_rng(2030, 100))
    validate_result(scenario, result)
    # A real decomposition happened (not the degenerate single tile).
    from repro.core.partition import partition_scenario

    part = partition_scenario(
        scenario,
        MULTI_CLUSTER_RADIUS,
        scenario.topology.inter_site_distance_km,
    )
    assert part.n_clusters > 1


def test_multi_cluster_evaluation_paths_agree():
    """Scalar and delta give the same sharded outcome, bit for bit.

    The cluster solves and the boundary re-anneals both run on the
    configured evaluation path, and both evaluators model the frozen
    ``external_rx`` term identically, so the whole sharded trajectory —
    utility bits, decision, evaluation count, accepted moves and the
    final RNG state of the caller's stream — is mode-independent.
    """
    for seed in (2025, 2026, 2027):
        scenario = Scenario.build(CONFIG, seed)
        scalar, delta = (
            run_sharded_trajectory(
                scenario, seed, mode, cluster_radius_km=MULTI_CLUSTER_RADIUS
            )
            for mode in MODES
        )
        assert_trajectories_identical(scalar, delta)


def test_sharded_replay_is_deterministic():
    seed = 2029
    scenario = Scenario.build(CONFIG, seed)
    first = run_sharded_trajectory(
        scenario, seed, "scalar", cluster_radius_km=MULTI_CLUSTER_RADIUS
    )
    second = run_sharded_trajectory(
        scenario, seed, "scalar", cluster_radius_km=MULTI_CLUSTER_RADIUS
    )
    assert_trajectories_identical(first, second)


def test_warm_start_round_trips_through_the_decomposition():
    scenario = Scenario.build(CONFIG, 2028)
    scheduler = ShardedScheduler(cluster_radius_km=MULTI_CLUSTER_RADIUS)
    cold = scheduler.schedule(scenario, child_rng(2028, 100))
    warm = scheduler.schedule(
        scenario, child_rng(2028, 101), initial=cold.decision
    )
    validate_result(scenario, warm)
    assert warm.utility > 0.0


def test_geometry_free_scenario_is_rejected():
    scenario = Scenario.build(CONFIG, 2025)
    stripped = Scenario.from_parts(
        users=list(scenario.users),
        servers=list(scenario.servers),
        gains=scenario.gains,
        total_bandwidth_hz=scenario.ofdma.total_bandwidth_hz,
        noise_watts=scenario.noise_watts,
    )
    scheduler = ShardedScheduler()
    with pytest.raises(ConfigurationError):
        scheduler.schedule(stripped, child_rng(2025, 100))


def test_scheduler_rejects_bad_knobs():
    with pytest.raises(ConfigurationError):
        ShardedScheduler(cluster_radius_km=0.0)
    with pytest.raises(ConfigurationError):
        ShardedScheduler(interference_radius_km=-1.0)
    with pytest.raises(ConfigurationError):
        ShardedScheduler(max_reconcile_rounds=-1)


def test_zero_reconcile_rounds_still_returns_feasible_plan():
    scenario = Scenario.build(CONFIG, 2032)
    scheduler = ShardedScheduler(
        cluster_radius_km=MULTI_CLUSTER_RADIUS, max_reconcile_rounds=0
    )
    result = scheduler.schedule(scenario, child_rng(2032, 100))
    validate_result(scenario, result)
    assert result.utility > 0.0


def test_negative_composed_utility_falls_back_to_all_local():
    """Cross-cluster interference can make the stitched plan negative.

    Two users huddled 30 m apart in separate single-station clusters
    each offload happily in isolation, but their mutual interference —
    invisible to the per-cluster solves — drives the composed global
    utility below the all-local baseline.  The scheduler must mirror
    ``TsajsScheduler``'s guard and return the all-local plan (utility
    0) rather than a negative one.
    """
    config = SimulationConfig(
        n_users=2,
        n_servers=2,
        n_subbands=1,
        inter_site_distance_km=0.03,
        min_bs_distance_km=0.01,
        input_kb=42000.0,
        workload_megacycles=20000.0,
    )
    scenario = Scenario.build(config, seed=4)
    scheduler = ShardedScheduler(
        cluster_radius_km=0.02,
        interference_radius_km=1.0,
        max_reconcile_rounds=0,
    )
    result = scheduler.schedule(scenario, child_rng(4, 100))
    validate_result(scenario, result)
    assert result.utility == 0.0
    assert result.decision.n_offloaded() == 0

    # Without the guard the stitched plan really is negative: compose
    # the per-cluster solves by hand and evaluate globally.
    from repro.core.objective import ObjectiveEvaluator
    from repro.core.partition import (
        extract_cluster_scenario,
        partition_scenario,
        scatter_decision,
    )
    from repro.core.scheduler import TsajsScheduler
    from repro.core.sharding import _SEED_BOUND
    from repro.sim.rng import make_rng

    part = partition_scenario(scenario, 0.02, 1.0)
    assert part.n_clusters == 2
    rng = child_rng(4, 100)
    seeds = rng.integers(0, _SEED_BOUND, size=part.n_clusters)
    stitched = OffloadingDecision.all_local(
        scenario.n_users, scenario.n_servers, scenario.n_subbands
    )
    for cluster in part.clusters:
        sub = extract_cluster_scenario(scenario, cluster)
        sub_result = TsajsScheduler().schedule(
            sub, make_rng(int(seeds[cluster.index]))
        )
        scatter_decision(stitched, cluster, sub_result.decision)
    assert stitched.n_offloaded() > 0
    assert ObjectiveEvaluator(scenario).evaluate(stitched) < 0.0


def test_sharded_solve_emits_shard_telemetry():
    """A traced multi-cluster solve emits the documented shard records."""
    from repro.obs.clock import TickClock
    from repro.obs.recorder import use_recorder
    from repro.obs.trace import TraceRecorder

    scenario = Scenario.build(CONFIG, 2033)
    scheduler = ShardedScheduler(cluster_radius_km=MULTI_CLUSTER_RADIUS)
    recorder = TraceRecorder(clock=TickClock())
    with use_recorder(recorder):
        traced = scheduler.schedule(scenario, child_rng(2033, 100))
    names = [record["name"] for record in recorder.records]
    assert "shard.schedule" in names
    assert "shard.cluster" in names
    assert "shard.reconcile_round" in names
    counters = recorder.snapshot()["counters"]
    assert any("shard.reconcile_rounds" in key for key in counters)
    result_events = [
        record
        for record in recorder.records
        if record["name"] == "scheduler.result"
        and record["attrs"].get("scheme") == "TSAJS-Shard"
    ]
    assert len(result_events) == 1
    assert result_events[0]["attrs"]["utility"] == traced.utility
    assert result_events[0]["attrs"]["n_clusters"] > 1

    # Tracing never perturbs the trajectory: an untraced replay of the
    # same stream is bitwise identical.
    untraced = scheduler.schedule(scenario, child_rng(2033, 100))
    assert untraced.utility == traced.utility
    assert np.array_equal(untraced.decision.server, traced.decision.server)
