"""Scale benchmark: sharded solve cost at metro scale (U up to 4000).

The spatial decomposition's claim is that solve cost tracks the
**cluster** size, not the global user count: with station density and
per-cluster occupancy held constant, growing the deployment 25x (U=160
to U=4000) leaves the per-cluster TTSA solve time flat, while the cost
of a single *global* objective evaluation — the inner-loop unit of an
undecomposed anneal — grows with U*S*N.  Recorded here:

* **per-cluster solve time** (the gated metric): mean/max wall time of
  one quick-schedule TTSA solve per cluster, flat across the sweep;
* **total sharded wall time**: grows ~linearly with the cluster count
  (i.e. with U), not superlinearly like a global anneal whose per-move
  cost itself grows with U;
* **per-evaluation contrast**: microseconds for one full objective
  evaluation at global shape vs at cluster shape.

Run standalone to (re)generate ``BENCH_shard.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_shard.py

or via pytest (asserts the flat-cluster-cost contract with conservative
tolerances so noisy CI machines do not flake)::

    PYTHONPATH=src python -m pytest benchmarks/bench_shard.py -m bench
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Tuple

import numpy as np
import pytest

from repro.core.annealing import AnnealingSchedule
from repro.core.decision import OffloadingDecision
from repro.core.objective import ObjectiveEvaluator
from repro.core.partition import extract_cluster_scenario, partition_scenario
from repro.core.scheduler import TsajsScheduler
from repro.core.sharding import ShardedScheduler
from repro.sim.config import SimulationConfig
from repro.sim.rng import child_rng, make_rng
from repro.sim.scenario import Scenario

#: The scale axis: station count grows 25x at fixed density (10 users
#: per station, 1 km spacing), so cluster occupancy is scale-invariant.
SCALES: Tuple[int, ...] = (16, 64, 144, 400)
USERS_PER_STATION = 10

#: Grid-tile side / far-field cutoff for the partition (km).
CLUSTER_RADIUS_KM = 2.0
INTERFERENCE_RADIUS_KM = 1.0

#: Quick per-cluster schedule: the bench measures scaling shape, not
#: solution quality, so short chains keep the sweep affordable.
SCHEDULE = AnnealingSchedule(chain_length=10, min_temperature=1e-1)

# BENCH_OUT_DIR redirects the result file (e.g. so CI can compare a
# fresh run against the checked-in baseline without clobbering it).
_OUT_DIR = os.environ.get("BENCH_OUT_DIR")
RESULT_PATH = (
    Path(_OUT_DIR) if _OUT_DIR else Path(__file__).resolve().parent.parent
) / "BENCH_shard.json"


def _scenario(n_servers: int, seed: int = 1) -> Scenario:
    config = SimulationConfig(
        n_users=n_servers * USERS_PER_STATION,
        n_servers=n_servers,
        interference_radius_km=INTERFERENCE_RADIUS_KM,
        cluster_radius_km=CLUSTER_RADIUS_KM,
    )
    return Scenario.build(config, seed=seed)


def measure_scale(n_servers: int, repeats: int = 2, seed: int = 1) -> dict:
    """Cluster-solve and evaluation costs at one deployment size."""
    scenario = _scenario(n_servers, seed=seed)
    partition = partition_scenario(
        scenario, CLUSTER_RADIUS_KM, INTERFERENCE_RADIUS_KM
    )
    inner = TsajsScheduler(schedule=SCHEDULE)

    # Per-cluster quick TTSA solves (the unit the decomposition repeats).
    solve_times = []
    for cluster in partition.clusters:
        sub = extract_cluster_scenario(scenario, cluster)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            inner.schedule(sub, make_rng(seed))
            best = min(best, time.perf_counter() - t0)
        solve_times.append(best)

    # One full sharded solve, reconciliation included.
    sharder = ShardedScheduler(
        cluster_radius_km=CLUSTER_RADIUS_KM,
        interference_radius_km=INTERFERENCE_RADIUS_KM,
        max_reconcile_rounds=1,
        schedule=SCHEDULE,
    )
    t0 = time.perf_counter()
    sharder.schedule(scenario, child_rng(seed, 100))
    total_sharded_s = time.perf_counter() - t0

    # Per-evaluation contrast: one objective evaluation at global shape
    # vs at the median cluster's shape — the inner-loop unit an
    # undecomposed anneal pays U/u times more often, U/u times dearer.
    def eval_us(sc: Scenario) -> float:
        evaluator = ObjectiveEvaluator(sc)
        rng = make_rng(seed)
        decision = OffloadingDecision.random_feasible(
            sc.n_users, sc.n_servers, sc.n_subbands, rng
        )
        n_evals = 20
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(n_evals):
                evaluator.evaluate_assignment(decision.server, decision.channel)
            best = min(best, time.perf_counter() - t0)
        return best / n_evals * 1e6

    sizes = sorted(c.n_users for c in partition.clusters)
    median_cluster = next(
        c for c in partition.clusters if c.n_users == sizes[len(sizes) // 2]
    )
    cluster_eval_us = eval_us(
        extract_cluster_scenario(scenario, median_cluster)
    )
    global_eval_us = eval_us(scenario)

    return {
        "n_users": scenario.n_users,
        "n_servers": scenario.n_servers,
        "n_clusters": partition.n_clusters,
        "mean_users_per_cluster": round(
            scenario.n_users / partition.n_clusters, 1
        ),
        "cluster_solve_mean_s": round(float(np.mean(solve_times)), 4),
        "cluster_solve_max_s": round(float(np.max(solve_times)), 4),
        "total_sharded_s": round(total_sharded_s, 3),
        "global_eval_us": round(global_eval_us, 1),
        "cluster_eval_us": round(cluster_eval_us, 1),
    }


def measure(repeats: int = 2) -> dict:
    """The full scale sweep plus the flat-cluster-cost verdict."""
    scales = [measure_scale(s, repeats=repeats) for s in SCALES]
    mean_solves = [entry["cluster_solve_mean_s"] for entry in scales]
    totals = [entry["total_sharded_s"] for entry in scales]
    user_growth = (SCALES[-1] * USERS_PER_STATION) / (
        SCALES[0] * USERS_PER_STATION
    )
    return {
        "description": (
            "Sharded TSAJS at fixed station density (10 users/station, "
            "1 km spacing, 2 km tiles): per-cluster solve cost stays "
            "flat while the deployment grows 25x to U=4000."
        ),
        "scales": scales,
        "flat_metric": (
            "cluster_solve_mean_s = mean wall time of one per-cluster "
            "quick TTSA solve; flat because cluster occupancy, not the "
            "global user count, sets the solve size."
        ),
        "cluster_solve_growth_smallest_to_largest": round(
            mean_solves[-1] / mean_solves[0], 3
        ),
        "cluster_cost_is_flat": mean_solves[-1] <= 2.5 * mean_solves[0],
        "total_wall_time_growth": round(totals[-1] / totals[0], 2),
        "total_growth_vs_user_growth": round(
            (totals[-1] / totals[0]) / user_growth, 3
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


@pytest.mark.bench
def test_cluster_solve_cost_flat_as_deployment_grows():
    """The decomposition contract, with CI-safe slack.

    Growing the deployment 9x (U=160 to U=1440) must leave the mean
    per-cluster solve time within 2.5x (it is ~1x in practice), while
    the global per-evaluation cost — the undecomposed alternative's
    inner-loop unit — grows by much more.
    """
    small = measure_scale(16, repeats=2)
    large = measure_scale(144, repeats=2)
    assert large["cluster_solve_mean_s"] <= 2.5 * small["cluster_solve_mean_s"], (
        small,
        large,
    )
    # The cluster-shaped evaluation stays cluster-priced...
    assert large["cluster_eval_us"] <= 2.5 * small["cluster_eval_us"], (
        small,
        large,
    )
    # ...while the global evaluation price scales with the deployment.
    assert large["global_eval_us"] >= 3.0 * large["cluster_eval_us"], large


@pytest.mark.bench
def test_total_sharded_time_tracks_cluster_count():
    """Total sharded wall time grows no faster than the user count."""
    small = measure_scale(16, repeats=1)
    large = measure_scale(144, repeats=1)
    user_growth = large["n_users"] / small["n_users"]
    assert large["total_sharded_s"] <= 2.0 * user_growth * small[
        "total_sharded_s"
    ], (small, large)


def main() -> int:
    result = measure()
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"\n[written to {RESULT_PATH}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
