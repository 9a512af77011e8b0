"""Tests of the benchmark itself: span aggregation, probes and checks.

Run from the repository root::

    python3 -m pytest perfbench -q

Each correctness check is shown able to fail: a corrupted utility, an
infeasible decision, a degenerate instance, a changed answer and a
missing or changed sweep cell are injected and must be caught.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, import_program, result_line  # noqa: E402

import_program()

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from checks import (  # noqa: E402
    answer_digest,
    cell_signature,
    check_answer,
    check_cells,
    check_nondegenerate,
    check_repeat,
)
from repro.baselines import GreedyScheduler  # noqa: E402
from repro.core.annealing import AnnealingSchedule  # noqa: E402
from repro.core.objective import ObjectiveEvaluator  # noqa: E402
from repro.core.scheduler import TsajsScheduler  # noqa: E402
from repro.core.sharding import ShardedScheduler  # noqa: E402
from repro.sim.config import SimulationConfig  # noqa: E402
from repro.sim.metrics import solution_metrics  # noqa: E402
from repro.sim.rng import child_rng  # noqa: E402
from repro.sim.scenario import Scenario  # noqa: E402
from spans import Span, Tracer, aggregate, instrument, self_time_by_name  # noqa: E402

QUICK = AnnealingSchedule(chain_length=5, min_temperature=0.5)
SMALL = SimulationConfig(n_users=12)
#: A workload this light makes local execution nearly free, so no
#: offload pays and Greedy keeps every user local.
DEGENERATE = SimulationConfig(n_users=12, workload_megacycles=1e-3)


def quick_tsajs() -> TsajsScheduler:
    return TsajsScheduler(schedule=QUICK)


@pytest.fixture(scope="module")
def solved():
    scenario = Scenario.build(SMALL, seed=3)
    result = quick_tsajs().schedule(scenario, child_rng(3, 100))
    assert result.decision.n_offloaded() >= 2
    return scenario, result


# --- span aggregation -------------------------------------------------------


class ScriptedClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_nested_and_sibling_children():
    # root [0, 10] > a [1, 4] > c [2, 3];  root > b [5, 9] > d [5, 6], e [8, 9]
    tracer = Tracer(clock=ScriptedClock([0, 1, 2, 3, 4, 5, 5, 6, 8, 9, 9, 10]))
    with tracer.request("op-0"):
        root = tracer.open("root")
        a = tracer.open("a")
        c = tracer.open("c")
        tracer.close(c)
        tracer.close(a)
        b = tracer.open("b")
        d = tracer.open("leaf", "d")
        tracer.close(d)
        e = tracer.open("leaf", "e")
        tracer.close(e)
        tracer.close(b)
        tracer.close(root)
    stats = aggregate(tracer.spans)
    assert stats[("root", "")].total_s == 10
    assert stats[("root", "")].self_s == 10 - 3 - 4
    assert stats[("a", "")].self_s == 3 - 1
    assert stats[("c", "")].self_s == 1
    assert stats[("b", "")].self_s == 4 - 1 - 1
    assert stats[("leaf", "d")].calls == 1
    assert self_time_by_name(stats) == {"root": 3, "a": 2, "c": 1, "b": 2, "leaf": 2}
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0, 3, 3]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", "", 0.0, -1, "op-0"), Span("x", "", 1.0, 0, "op-0"),
             Span("x", "", 3.0, 0, "op-0"), Span("x", "", 12.0, 0, "op-0")]
    spans[0].end, spans[1].end, spans[2].end, spans[3].end = 10.0, 5.0, 7.0, 14.0
    stats = aggregate(spans)
    assert stats[("p", "")].self_s == 10 - 6
    assert stats[("x", "")].calls == 3


def test_aggregate_filters_by_request_and_records_only_inside_one():
    tracer = Tracer(clock=ScriptedClock([0, 1, 2, 4]))
    assert tracer.open("ignored") is None
    with tracer.request("setup"):
        tracer.close(tracer.open("build"))
    with tracer.request("op-0"):
        tracer.close(tracer.open("solve"))
    ops = aggregate(tracer.spans, requests=lambda r: r.startswith("op-"))
    assert list(ops) == [("solve", "")] and ops[("solve", "")].total_s == 2


def test_instrument_records_calls_and_restores_originals(solved):
    scenario, _ = solved
    original = ObjectiveEvaluator.__dict__["evaluate_assignment"]
    original_build = Scenario.__dict__["build"]
    tracer = Tracer()
    with instrument(tracer, layers.PROBES), tracer.request("op-0"):
        evaluator = ObjectiveEvaluator(scenario)
        result = quick_tsajs().schedule(scenario, child_rng(3, 100))
        Scenario.build(SMALL, seed=4)
    assert ObjectiveEvaluator.__dict__["evaluate_assignment"] is original
    assert Scenario.__dict__["build"] is original_build
    stats = aggregate(tracer.spans)
    assert stats[("objective.eval", "")].calls == result.evaluations
    assert stats[("annealer.run", "")].counts["iterations"] > 0
    assert stats[("scenario.build", "")].calls == 1
    assert evaluator.evaluations == 0


def test_traced_sharded_solve_tags_cluster_reconcile_and_global_work():
    scenario = Scenario.build(
        SimulationConfig(n_users=160, n_servers=16, interference_radius_km=1.0), seed=5
    )
    sharder = ShardedScheduler(
        cluster_radius_km=2.0, interference_radius_km=1.0, schedule=QUICK, use_delta=True
    )
    untraced = sharder.schedule(scenario, child_rng(5, 100))
    tracer = Tracer()
    with instrument(tracer, layers.PROBES), tracer.request("op-0"):
        traced = sharder.schedule(scenario, child_rng(5, 100))
    assert answer_digest(traced) == answer_digest(untraced)
    metrics = layers.layer_metrics(tracer.spans, 1, 1.0, 1.0)
    assert metrics["sharding.cluster_solves"] > 1
    assert metrics["sharding.reconcile_solves"] >= 1
    assert metrics["objective.global_evals"] >= 1
    assert metrics["delta.moves"] > 0
    assert metrics["partition.partition_s"] > 0
    assert metrics["sharding.cluster_solve_s"] + metrics["sharding.reconcile_solve_s"] < (
        tracer.spans[0].end - tracer.spans[0].start
    )


# --- correctness checks, each shown able to fail ---------------------------


def test_correct_answer_passes(solved):
    scenario, result = solved
    assert check_answer(scenario, result) == []


def test_corrupted_utility_is_caught(solved):
    scenario, result = solved
    corrupted = dataclasses.replace(result, utility=np.nextafter(result.utility, np.inf))
    assert any("fresh evaluation" in p for p in check_answer(scenario, corrupted))


def test_negative_utility_is_caught():
    scenario = Scenario.build(DEGENERATE, seed=1)
    result = quick_tsajs().schedule(scenario, child_rng(1, 100))
    negative = dataclasses.replace(result, utility=-0.5)
    assert any("negative utility" in p for p in check_answer(scenario, negative))


def test_infeasible_decision_is_caught(solved):
    scenario, result = solved
    decision = result.decision.copy()
    first, second = decision.offloaded_users()[:2]
    decision.server[second] = decision.server[first]
    decision.channel[second] = decision.channel[first]
    broken = dataclasses.replace(result, decision=decision)
    assert any("infeasible" in p for p in check_answer(scenario, broken))


def test_over_capacity_allocation_is_caught(solved):
    scenario, result = solved
    broken = dataclasses.replace(result, allocation=result.allocation * 2.0)
    assert any("infeasible" in p for p in check_answer(scenario, broken))


def test_degenerate_instance_is_caught():
    scenario = Scenario.build(DEGENERATE, seed=1)
    greedy = GreedyScheduler().schedule(scenario)
    assert greedy.decision.n_offloaded() == 0
    assert check_nondegenerate("tiny workload", greedy)


def test_changed_answer_is_caught(solved):
    _, result = solved
    seen = {}
    assert check_repeat("x", seen, answer_digest(result)) == []
    assert check_repeat("x", seen, answer_digest(result)) == []
    other = dataclasses.replace(result, utility=result.utility + 1.0)
    assert check_repeat("x", seen, answer_digest(other))


def test_sweep_cell_checks_catch_missing_changed_and_failed_cells(solved):
    scenario, result = solved
    cell = solution_metrics(scenario, result)
    slower = dataclasses.replace(cell, wall_time_s=cell.wall_time_s + 1.0)
    changed = dataclasses.replace(cell, n_offloaded=cell.n_offloaded + 1)
    seen = {}
    assert check_cells({"A": [cell, cell]}, [], ["A"], [1, 2], seen) == []
    assert check_cells({"A": [slower, cell]}, [], ["A"], [1, 2], seen) == []
    assert check_cells({"A": [changed, cell]}, [], ["A"], [1, 2], seen) == [
        ("A", 1, "cell differs from its reference")
    ]
    assert ("A", 2, "cell missing") in check_cells({"A": [cell]}, [], ["A"], [1, 2], seen)
    assert check_cells({"A": [cell]}, [2], ["A"], [1, 2], seen) == [("A", 2, "seed failed")]
    assert cell_signature(slower) == cell_signature(cell)


# --- host speed scaling ----------------------------------------------------


def test_host_speed_scales_each_call_by_the_reference_around_it():
    now = [0.0]
    durations = [0.3, 0.2, 0.2] + [0.1] * 10 + [0.05]

    def work():
        now[0] += durations.pop(0)

    host = hostspeed.HostSpeed(work=work, clock=lambda: now[0])
    assert host.before == pytest.approx(0.2)  # warm-up sample not counted
    # Reference 0.2 s before and 0.1 s after: the host ran at 1.5x nominal.
    assert host.scale(5.0) == pytest.approx(5.0 * hostspeed.NOMINAL_S / 0.15)
    assert host.scale(5.0) == pytest.approx(5.0)
    # A short call still gets one sample after it.
    assert host.scale(1e-3) == pytest.approx(1e-3 * hostspeed.NOMINAL_S / 0.075)
    assert not durations and len(host.samples) == 13
    assert host.factor == pytest.approx(sum(host.samples) / 13 / hostspeed.NOMINAL_S)


def test_run_op_hands_each_call_time_to_between():
    workload = small_workload(quick_tsajs)
    seen = []
    workload.run_op(seen.append)
    assert seen == [call_s for _, call_s in workload.part_s]
    assert [label for label, _ in workload.part_s] == [i.label for i in workload.instances]


# --- failures reach the result line ----------------------------------------


def small_workload(make_scheduler, config=SMALL):
    plan = [(f"small seed {s}", config, s, True) for s in (3, 4)]
    workload = workloads.SolverWorkload("small", plan, make_scheduler)
    workload.setup()
    return workload


def run_twice(workload):
    tally = workloads.Tally()
    for _ in range(2):
        workload.check_op(workload.run_op(), tally)
    return tally


def test_clean_workload_reports_correct():
    tally = run_twice(small_workload(quick_tsajs))
    assert (tally.attempted, tally.failed) == (4, 0)
    assert result_line([], {}, tally)["correct"] is True


class CorruptingScheduler:
    name = "TSAJS"

    def schedule(self, scenario, rng=None):
        result = quick_tsajs().schedule(scenario, rng)
        return dataclasses.replace(result, utility=result.utility + 1e-9)


def test_corrupted_scheduler_raises_failed_share():
    tally = run_twice(small_workload(CorruptingScheduler))
    assert (tally.attempted, tally.failed) == (4, 4)
    assert result_line([], {}, tally)["correct"] is False


def test_degenerate_plan_raises_failed_share():
    tally = run_twice(small_workload(quick_tsajs, DEGENERATE))
    assert tally.failed == tally.attempted == 4
    assert all("degenerate" in p for p in tally.problems)


def test_raising_scheduler_counts_as_failed():
    class Broken:
        name = "TSAJS"

        def schedule(self, scenario, rng=None):
            raise RuntimeError("boom")

    tally = run_twice(small_workload(Broken))
    assert tally.failed == 4 and "RuntimeError: boom" in tally.problems[0]


def test_known_weak_instances_stay_in_the_workloads():
    solve = workloads.solve_workload(7)
    labels = [label for label, _, _, _ in solve.plan]
    assert sum("U400/S10/N50 panel" in label for label in labels) == len(
        workloads.SOLVE_PANEL_SEEDS
    )
    shapes = [(c.n_users, c.n_servers, c.n_subbands) for _, c, _, _ in solve.plan]
    assert shapes.count((200, 9, 20)) == shapes.count((400, 10, 50))
    assert workloads.solve_workload(7).plan == solve.plan
    sweep = workloads.SweepResumeWorkload(7, HERE / ".work" / "unused")
    assert sweep.seeds[:3] == [2025, 2026, 2027] and len(set(sweep.seeds)) == 6
    assert sweep.seeds[3:] == sweep.cached_seeds
    assert sweep.seeds != workloads.SweepResumeWorkload(8, HERE / ".work" / "unused").seeds


# --- the benchmark definition ----------------------------------------------


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_its_schema():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    assert tuple(names) == ("solve", "shard-metro", "sweep-resume")
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    bounds = {}
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        bounds[entry["name"]] = entry["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(entry["name"]) and UNIT.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    all_names = [e["name"] for e in spec["end_to_end"] + spec["per_layer"]] + names
    assert len(all_names) == len(set(all_names))


def test_interaction_map_covers_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    interactions = json.loads((HERE / "interactions.json").read_text())
    units = {e["name"]: e["unit"] for e in spec["per_layer"]}
    assert set(interactions["per_layer"]) == set(units)
    end_to_end = {e["name"] for e in spec["end_to_end"]}
    workload_names = {w["name"] for w in spec["workloads"]}
    for name, entry in interactions["per_layer"].items():
        assert entry["unit"] == units[name]
        for target in entry["moves"]:
            assert target["metric"] in end_to_end
            assert target["workload"] in workload_names
    assert set(interactions["workloads"]) == workload_names


def test_layer_metrics_cover_every_per_layer_name():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = layers.layer_metrics([], 1, 1.0, 1.0)
    assert set(metrics) == {e["name"] for e in spec["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
