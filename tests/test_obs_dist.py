"""Distributed tracing, trace analysis, and the perf sentinel.

The load-bearing guarantees of ``repro.obs.dist`` and friends:

* **Propagation.**  Pool and queue sweeps run with telemetry produce
  per-worker trace shards whose spans (including the annealer's, from
  inside the workers) merge into one schema-v2-valid tree under the
  coordinator's spans.
* **Determinism.**  Telemetry on or off never perturbs metrics on any
  backend, and on a :class:`~repro.obs.clock.TickClock` the merged
  trace is byte-identical across two runs (worker PIDs never reach
  record bodies).
* **Degradation.**  A torn shard is quarantined and replaced by a
  ``shard_truncated`` event; an unpropagable context is announced with
  ``worker_detached`` instead of silently dropping worker telemetry.
* **Sentinel.**  Fresh BENCH files outside the tolerance bands fail the
  comparison (nonzero exit via the CLI).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.baselines import GreedyScheduler
from repro.cli import main as cli_main
from repro.core.annealing import AnnealingSchedule
from repro.core.scheduler import TsajsScheduler
from repro.errors import ConfigurationError
from repro.obs.analyze import (
    build_span_tree,
    critical_path,
    folded_stacks,
    render_critical_path,
    render_openmetrics,
    render_tree,
)
from repro.obs.clock import TickClock
from repro.obs.dist import (
    MERGED_TRACE_NAME,
    TraceContext,
    find_shards,
    merge_trace_shards,
    propagated_context,
    worker_trace,
    write_merged_trace,
)
from repro.obs.recorder import set_recorder, use_recorder
from repro.obs.schema import span_pairs_balanced, validate_record
from repro.obs.sentinel import run_sentinel
from repro.obs.trace import TraceRecorder, events_named, read_trace
from repro.sim.config import SimulationConfig
from repro.sim.executors import (
    ProcessPoolSweepExecutor,
    SerialExecutor,
    WorkQueueExecutor,
)
from repro.sim.runner import run_schemes
from tests.test_resilience import assert_identical_metrics

REPO_ROOT = Path(repro.__file__).resolve().parents[2]
CONFIG = SimulationConfig(n_users=4, n_servers=2, n_subbands=2)
SCHEDULE = AnnealingSchedule(chain_length=10, min_temperature=1e-1)
FAST_QUEUE = dict(poll_s=0.02, idle_timeout_s=15.0, lease_timeout_s=10.0)
SEEDS = [2025, 2026]


@pytest.fixture(autouse=True)
def _clean_obs_state():
    yield
    set_recorder(None)


def _annealer() -> TsajsScheduler:
    return TsajsScheduler(schedule=SCHEDULE)


def _traced_sweep(telemetry_dir: Path, executor):
    """One annealer sweep with full distributed telemetry into ``telemetry_dir``."""
    telemetry_dir.mkdir(parents=True, exist_ok=True)
    recorder = TraceRecorder(
        telemetry_dir / "trace.jsonl",
        clock=TickClock(step=0.5),
        trace_id="run-test",
        shard_dir=telemetry_dir,
    )
    try:
        with use_recorder(recorder):
            result = run_schemes(
                CONFIG, [_annealer()], SEEDS, executor=executor
            )
    finally:
        recorder.close()
        executor.close()
    return result


def _ctx(tmp_path: Path, **overrides) -> TraceContext:
    payload = {
        "trace_id": "run-test",
        "parent_span_id": 0,
        "shard_dir": str(tmp_path),
        "iteration_detail": False,
        "tick": 0.5,
    }
    payload.update(overrides)
    return TraceContext.from_payload(payload)


class TestTraceContext:
    def test_payload_round_trip(self, tmp_path):
        ctx = TraceContext(
            trace_id="run-x",
            parent_span_id=7,
            shard_dir=str(tmp_path),
            iteration_detail=True,
            tick=0.25,
        )
        assert TraceContext.from_payload(ctx.to_payload()) == ctx

    def test_round_trip_through_json(self, tmp_path):
        ctx = _ctx(tmp_path)
        wire = json.dumps(ctx.to_payload())
        assert TraceContext.from_payload(json.loads(wire)) == ctx

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"trace_id": ""}, "trace_id"),
            ({"trace_id": 7}, "trace_id"),
            ({"parent_span_id": -1}, "parent_span_id"),
            ({"parent_span_id": True}, "parent_span_id"),
            ({"parent_span_id": "root"}, "parent_span_id"),
            ({"shard_dir": ""}, "shard_dir"),
            ({"shard_dir": None}, "shard_dir"),
            ({"tick": -0.5}, "tick"),
            ({"tick": "fast"}, "tick"),
        ],
    )
    def test_invalid_payloads_raise(self, tmp_path, overrides, fragment):
        payload = _ctx(tmp_path).to_payload()
        payload.update(overrides)
        with pytest.raises(ConfigurationError, match=fragment):
            TraceContext.from_payload(payload)

    def test_non_object_payload_raises(self):
        with pytest.raises(ConfigurationError, match="object"):
            TraceContext.from_payload(["not", "a", "dict"])

    def test_no_context_from_null_recorder(self):
        assert propagated_context() is None

    def test_no_context_without_distributed_opt_in(self, tmp_path):
        # trace_id alone (or neither) is not enough: shard_dir is the
        # distributed opt-in.
        with use_recorder(TraceRecorder(trace_id="run-x")):
            assert propagated_context() is None
        with use_recorder(TraceRecorder()):
            assert propagated_context() is None

    def test_context_captures_recorder_state(self, tmp_path):
        recorder = TraceRecorder(
            clock=TickClock(step=0.25),
            iteration_detail=True,
            trace_id="run-x",
            shard_dir=tmp_path,
        )
        with use_recorder(recorder):
            assert propagated_context().parent_span_id is None
            with recorder.span("outer"):
                ctx = propagated_context()
        assert ctx.trace_id == "run-x"
        assert ctx.parent_span_id == 0
        assert ctx.shard_dir == str(tmp_path)
        assert ctx.iteration_detail is True
        assert ctx.tick == 0.25

    def test_monotonic_recorder_propagates_no_tick(self, tmp_path):
        recorder = TraceRecorder(trace_id="run-x", shard_dir=tmp_path)
        with use_recorder(recorder):
            assert propagated_context().tick is None


class TestWorkerTrace:
    def test_shard_records_nest_under_foreign_parent(self, tmp_path):
        ctx = _ctx(tmp_path, parent_span_id=41)
        with worker_trace(ctx, task="s7") as recorder:
            with use_recorder(recorder):
                recorder.event("anneal.finish", best=1.0)
        shards = find_shards(tmp_path)
        assert len(shards) == 1
        assert shards[0].name.endswith("-s7.jsonl")
        records = read_trace(shards[0])
        root = records[0]
        assert root["kind"] == "span_start"
        assert root["name"] == "worker.task"
        assert root["parent"] == 41
        assert root["attrs"]["task"] == "s7"
        assert all(record["trace"] == "run-test" for record in records)
        assert span_pairs_balanced(records)
        # The propagated tick makes shard timing deterministic: the
        # worker's TickClock starts fresh, so t is exactly one step.
        assert records[0]["t"] == 0.5

    def test_unreachable_shard_dir_never_fails_the_task(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not directory", encoding="utf-8")
        ctx = _ctx(tmp_path, shard_dir=str(blocker / "nested"))
        with worker_trace(ctx, task="s7") as recorder:
            with use_recorder(recorder):
                recorder.event("anneal.finish", best=1.0)
        assert find_shards(tmp_path) == []


class TestMergeShards:
    def _telemetry(self, tmp_path: Path) -> Path:
        """A hand-built coordinator trace plus two worker shards."""
        tel = tmp_path / "tel"
        tel.mkdir()
        coordinator = TraceRecorder(
            tel / "trace.jsonl",
            clock=TickClock(step=0.5),
            trace_id="run-test",
            shard_dir=tel,
        )
        with use_recorder(coordinator):
            with coordinator.span("pool.wave", n_cells=2):
                ctx = propagated_context()
        coordinator.close()
        for task in ("s1", "s2"):
            with worker_trace(ctx, task=task) as recorder:
                with use_recorder(recorder):
                    with recorder.span("runner.seed", seed=int(task[1:])):
                        recorder.event("anneal.finish", best=1.0)
        return tel

    def test_merge_renumbers_and_stamps(self, tmp_path):
        tel = self._telemetry(tmp_path)
        records = merge_trace_shards(tel)
        for number, record in enumerate(records, start=1):
            validate_record(record, line=number)
        # Coordinator records come first with their ids preserved.
        assert records[0]["name"] == "pool.wave"
        assert records[0]["id"] == 0
        # Shard roots keep their coordinator-side parent; shard-local
        # span ids are renumbered into one collision-free namespace.
        roots = [
            record
            for record in records
            if record["kind"] == "span_start"
            and record["name"] == "worker.task"
        ]
        assert len(roots) == 2
        assert all(root["parent"] == 0 for root in roots)
        ids = [
            record["id"] for record in records if record["kind"] == "span_start"
        ]
        assert len(ids) == len(set(ids))
        shard_labels = {
            record["shard"] for record in records if "shard" in record
        }
        assert shard_labels == {"s1", "s2"}
        # Shard-internal parent links survive the renumbering.
        tree = build_span_tree(records)
        (wave,) = tree
        assert [node.name for node in wave.children] == [
            "worker.task",
            "worker.task",
        ]
        assert [grand.name for node in wave.children for grand in node.children] == [
            "runner.seed",
            "runner.seed",
        ]

    def test_merged_write_is_deterministic(self, tmp_path):
        tel = self._telemetry(tmp_path)
        target_a, _ = write_merged_trace(tel)
        first = target_a.read_bytes()
        target_b, _ = write_merged_trace(tel)
        assert target_b.read_bytes() == first
        assert target_a.name == MERGED_TRACE_NAME

    def test_torn_shard_is_quarantined_not_fatal(self, tmp_path):
        tel = self._telemetry(tmp_path)
        victim = sorted(find_shards(tel))[0]
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) // 2])  # torn mid-record
        records = merge_trace_shards(tel)
        for number, record in enumerate(records, start=1):
            validate_record(record, line=number)
        truncations = events_named(records, "shard_truncated")
        assert len(truncations) == 1
        assert truncations[0]["shard"] == truncations[0]["attrs"]["task"]
        # The torn file was moved aside, not destroyed, and the healthy
        # shard still merged normally.
        quarantined = list((tel / "corrupt").iterdir())
        assert [path.name for path in quarantined] == [victim.name]
        assert any(
            record.get("shard") and record["name"] == "worker.task"
            for record in records
        )


class TestPoolBackendTracing:
    def test_traced_pool_sweep_matches_untraced(self, tmp_path):
        untraced = run_schemes(
            CONFIG, [_annealer()], SEEDS, executor=SerialExecutor()
        )
        traced = _traced_sweep(
            tmp_path / "tel", ProcessPoolSweepExecutor(n_jobs=2)
        )
        assert_identical_metrics(untraced, traced)

    def test_pool_shards_merge_into_one_tree(self, tmp_path):
        tel = tmp_path / "tel"
        _traced_sweep(tel, ProcessPoolSweepExecutor(n_jobs=2))
        assert len(find_shards(tel)) == len(SEEDS)
        records = merge_trace_shards(tel)
        for number, record in enumerate(records, start=1):
            validate_record(record, line=number)
        # Worker-side annealer spans made it into the merged tree, each
        # attributed to its seed's shard.
        anneal_runs = [
            record
            for record in records
            if record["kind"] == "span_start" and record["name"] == "anneal.run"
        ]
        assert len(anneal_runs) == len(SEEDS)
        assert {record["shard"] for record in anneal_runs} == {
            f"s{seed}" for seed in SEEDS
        }
        tree = build_span_tree(records)
        rendered = render_tree(tree)
        assert "pool.wave" in rendered
        assert "worker.task" in rendered
        path = critical_path(tree)
        assert path and path[0].name in ("runner.run_schemes", "pool.wave")
        assert any("anneal.run" in line for line in folded_stacks(tree))

    def test_merged_trace_is_byte_identical_across_runs(self, tmp_path):
        # Different worker PIDs each run; on a TickClock the merged
        # document must not notice.
        blobs = []
        for name in ("a", "b"):
            tel = tmp_path / name
            _traced_sweep(tel, ProcessPoolSweepExecutor(n_jobs=2))
            target, _ = write_merged_trace(tel)
            blobs.append(target.read_bytes())
        assert blobs[0] == blobs[1]

    def test_obs_cli_analyzes_a_real_sweep_trace(self, tmp_path, capsys):
        tel = tmp_path / "tel"
        _traced_sweep(tel, ProcessPoolSweepExecutor(n_jobs=2))
        assert cli_main(["obs", "merge", str(tel)]) == 0
        merged = tel / MERGED_TRACE_NAME
        assert cli_main(["obs", "tree", str(merged), "--max-depth", "3"]) == 0
        assert cli_main(["obs", "critical-path", str(merged)]) == 0
        assert cli_main(["obs", "flame", str(tel)]) == 0
        out = capsys.readouterr().out
        assert "worker.task" in out
        assert "anneal.run" in out

    def test_wave_without_context_emits_worker_detached(self, tmp_path):
        # Telemetry on, but no shard_dir: the legacy lossy situation,
        # now announced instead of silent.
        recorder = TraceRecorder(clock=TickClock())
        executor = ProcessPoolSweepExecutor(n_jobs=2)
        try:
            with use_recorder(recorder):
                executor.run_wave(
                    CONFIG,
                    [GreedyScheduler()],
                    [(0, 2025), (1, 2026)],
                    timeout_s=None,
                )
        finally:
            executor.close()
        (detached,) = events_named(recorder.records, "worker_detached")
        assert detached["attrs"]["backend"] == "pool"
        assert detached["attrs"]["n_cells"] == 2
        snapshot = recorder.snapshot()
        assert (
            snapshot["counters"]["obs.workers_detached{backend=pool}"] == 2.0
        )


class TestQueueBackendTracing:
    def test_traced_queue_sweep_matches_untraced_and_shards_merge(
        self, tmp_path
    ):
        untraced = run_schemes(
            CONFIG, [_annealer()], SEEDS, executor=SerialExecutor()
        )
        tel = tmp_path / "tel"
        traced = _traced_sweep(
            tel,
            WorkQueueExecutor(tmp_path / "queue", **FAST_QUEUE),
        )
        assert_identical_metrics(untraced, traced)
        assert len(find_shards(tel)) == len(SEEDS)
        records = merge_trace_shards(tel)
        for number, record in enumerate(records, start=1):
            validate_record(record, line=number)
        # The queue workers are fresh subprocesses, not forks — the
        # context rode in the task files.
        roots = [
            record
            for record in records
            if record["kind"] == "span_start"
            and record["name"] == "worker.task"
        ]
        assert len(roots) == len(SEEDS)
        assert any(
            record["kind"] == "span_start"
            and record["name"] == "anneal.run"
            and "shard" in record
            for record in records
        )

    def test_queue_latency_histograms_recorded(self, tmp_path):
        tel = tmp_path / "tel"
        recorder = TraceRecorder(
            tel / "trace.jsonl",
            trace_id="run-test",
            shard_dir=tel,
        )
        executor = WorkQueueExecutor(tmp_path / "queue", **FAST_QUEUE)
        try:
            with use_recorder(recorder):
                run_schemes(CONFIG, [_annealer()], SEEDS, executor=executor)
        finally:
            recorder.close()
            executor.close()
        histograms = recorder.snapshot()["histograms"]
        waits = histograms["queue.result_wait_s"]
        assert waits["count"] == len(SEEDS)
        assert waits["min"] >= 0.0

    def test_untraced_task_files_carry_no_trace_key(self, tmp_path):
        executor = WorkQueueExecutor(
            tmp_path / "queue", n_local_workers=1, **FAST_QUEUE
        )

        # Workers spawn only after every task file is enqueued, so a
        # stubbed _spawn_worker sees the final on-disk protocol.
        def peek(*args, **kwargs):
            tasks = list((tmp_path / "queue" / "tasks").glob("*.json"))
            payloads = [
                json.loads(path.read_text(encoding="utf-8")) for path in tasks
            ]
            assert payloads and all("trace" not in p for p in payloads)
            raise KeyboardInterrupt  # stop the wave once inspected

        executor._spawn_worker = peek  # type: ignore[method-assign]
        with pytest.raises(KeyboardInterrupt):
            executor.run_wave(
                CONFIG, [GreedyScheduler()], [(0, 2025)], timeout_s=None
            )
        executor.close()


class TestAnalysis:
    def test_openmetrics_renders_all_sections(self):
        recorder = TraceRecorder(clock=TickClock())
        recorder.count("runner.seeds_completed", scheme="TSAJS")
        recorder.gauge_set("scheduler.utility", 2.5, scheme="TSAJS", seed=1)
        recorder.observe("queue.result_wait_s", 0.5)
        recorder.observe("queue.result_wait_s", 1.5)
        rendered = render_openmetrics(recorder.snapshot())
        assert rendered.endswith("# EOF\n")
        assert (
            'runner_seeds_completed_total{scheme="TSAJS"} 1.0' in rendered
        )
        assert "# TYPE queue_result_wait_s summary" in rendered
        assert "queue_result_wait_s_count 2" in rendered
        assert "queue_result_wait_s_sum 2.0" in rendered
        assert "queue_result_wait_s_min 0.5" in rendered
        assert "queue_result_wait_s_max 1.5" in rendered

    def test_openmetrics_rejects_malformed_snapshot(self):
        with pytest.raises(ConfigurationError, match="counters"):
            render_openmetrics({"counters": [1, 2]})

    def test_critical_path_descends_heaviest_children(self):
        recorder = TraceRecorder(clock=TickClock(step=1.0))
        with recorder.span("root"):
            with recorder.span("light"):
                pass
            with recorder.span("heavy"):
                with recorder.span("leaf"):
                    recorder.event("tick")
        tree = build_span_tree(recorder.records)
        names = [node.name for node in critical_path(tree)]
        assert names == ["root", "heavy", "leaf"]
        rendered = render_critical_path(critical_path(tree))
        assert "100.0%" in rendered.splitlines()[0]


class TestSentinel:
    def _current_dir(self, tmp_path: Path) -> Path:
        current = tmp_path / "current"
        current.mkdir()
        for name in (
            "BENCH_delta.json",
            "BENCH_obs.json",
            "BENCH_shard.json",
        ):
            shutil.copy(REPO_ROOT / name, current / name)
        return current

    def test_identical_results_pass(self, tmp_path):
        current = self._current_dir(tmp_path)
        report = run_sentinel(current, REPO_ROOT)
        assert report.verdict == "pass"
        assert report.n_enforced > 0
        assert not report.errors

    def test_degraded_bench_fails_with_nonzero_exit(self, tmp_path):
        current = self._current_dir(tmp_path)
        obs_path = current / "BENCH_obs.json"
        payload = json.loads(obs_path.read_text(encoding="utf-8"))
        payload["traced_overhead_pct"] = payload["traced_overhead_pct"] + 50.0
        obs_path.write_text(json.dumps(payload), encoding="utf-8")
        report = run_sentinel(current, REPO_ROOT)
        assert report.verdict == "fail"
        (failure,) = report.failures()
        assert failure.metric == "traced_overhead_pct"
        assert cli_main(
            [
                "obs",
                "sentinel",
                "--current",
                str(current),
                "--baseline",
                str(REPO_ROOT),
            ]
        ) == 1

    def test_collapsed_speedup_fails(self, tmp_path):
        current = self._current_dir(tmp_path)
        delta_path = current / "BENCH_delta.json"
        payload = json.loads(delta_path.read_text(encoding="utf-8"))
        payload["speedup"] = 1.0  # baseline is >3x
        delta_path.write_text(json.dumps(payload), encoding="utf-8")
        report = run_sentinel(current, REPO_ROOT)
        assert report.verdict == "fail"

    def test_flipped_correctness_boolean_fails(self, tmp_path):
        current = self._current_dir(tmp_path)
        delta_path = current / "BENCH_delta.json"
        payload = json.loads(delta_path.read_text(encoding="utf-8"))
        payload["values_identical"] = False
        delta_path.write_text(json.dumps(payload), encoding="utf-8")
        report = run_sentinel(current, REPO_ROOT)
        assert report.verdict == "fail"

    def test_missing_current_file_is_an_error_not_a_skip(self, tmp_path):
        current = self._current_dir(tmp_path)
        (current / "BENCH_obs.json").unlink()
        report = run_sentinel(current, REPO_ROOT)
        assert report.verdict == "fail"
        assert any("BENCH_obs.json" in error for error in report.errors)

    def test_machine_readable_payload_shape(self, tmp_path):
        current = self._current_dir(tmp_path)
        payload = run_sentinel(current, REPO_ROOT).to_payload()
        assert payload["verdict"] == "pass"
        assert payload["n_checks"] == len(payload["checks"])
        assert {check["status"] for check in payload["checks"]} <= {
            "pass",
            "fail",
            "info",
        }
