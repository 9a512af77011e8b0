"""Command-line interface: ``tsajs``.

Sub-commands
------------

``tsajs list``
    List all registered experiments (paper figures + ablations).
``tsajs run <experiment-id> [--quick] [--workers N] [--out FILE]``
    Run one experiment and print (and optionally save) its table.
    ``--workers`` fans the seeds over worker processes (same results).
    ``--backend serial|pool|queue`` picks the sweep executor;
    ``--cache DIR`` reuses previously computed (scheme, seed) cells
    from a crash-safe content-addressed store (see ``docs/caching.md``).
``tsajs worker QUEUE_DIR [--drain]``
    Drain task files from a ``run --backend queue --queue-dir`` sweep;
    run any number of workers, on any machine sharing the directory.
``tsajs solve [--users U --servers S --subbands N --delta ...]``
    Solve a single random instance with the selected schemes and print
    the utilities side by side — a one-command demo of the library.
    ``--delta`` switches TSAJS to the incremental evaluation path
    (bit-identical to the scalar path); ``--sanitize`` replays the solve
    on both paths and checks the RNG ledgers and utilities match.
``tsajs schemes``
    List the scheme names accepted by ``solve --schemes``.
``tsajs episode [--pool P --slots T --outage q ...]``
    Run the slot-based episodic simulation (activity, mobility churn,
    server-outage fault injection) and print the per-slot log.
``tsajs faults [--outage q --band-outage q --churn q --policy P ...]``
    Inject a seeded fault set into one scheduled instance and print how
    the degradation policy (local fallback or restricted re-scheduling)
    recovers: utility retention, fallback count, repair time.
``tsajs lint [PATHS ...] [--format text|json] [--rules R001,...]``
    Run the project's static-analysis rules (determinism, unit
    discipline, paper-equation traceability); exits 1 on findings.
``tsajs trace record --out FILE [instance options]``
    Solve one instance with tracing on and write the schema-v2 JSONL
    span/event trace (see ``docs/observability.md``).
``tsajs trace show FILE [--convergence]``
    Validate and summarise a recorded trace; ``--convergence`` rebuilds
    the annealer's convergence profile from its ``anneal.level`` events.
``tsajs obs merge|tree|critical-path|flame|export|sentinel ...``
    Distributed-trace analysis: merge worker shards into one span tree,
    render the tree / the critical path / folded flamegraph stacks,
    export a metrics snapshot as OpenMetrics text, or compare fresh
    BENCH_*.json results against the checked-in baselines.

Observability flags: ``solve --trace FILE`` records the solve,
``run --telemetry DIR`` writes ``trace.jsonl`` + ``metrics.json`` for a
whole experiment, and ``run --profile`` adds per-seed cProfile hotspot
sidecars.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

import numpy as np

from repro import __version__
from repro.experiments.registry import get_experiment, list_experiments
from repro.experiments.report import render_text
from repro.lint import cli as lint
from repro.sim.config import SimulationConfig
from repro.sim.rng import child_rng
from repro.sim.scenario import Scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsajs",
        description="TSAJS reproduction: multi-server joint task scheduling for MEC",
    )
    parser.add_argument("--version", action="version", version=f"tsajs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=list_experiments())
    run_parser.add_argument(
        "--quick",
        action="store_true",
        help="use the reduced quick preset instead of paper-scale settings",
    )
    run_parser.add_argument(
        "--out", metavar="FILE", help="also write the rendered table to FILE"
    )
    run_parser.add_argument(
        "--json",
        metavar="FILE",
        help="also write the structured result (incl. raw stats) as JSON",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "fan multi-seed runs out over N worker processes "
            "(results are identical to --workers 1, just faster)"
        ),
    )
    run_parser.add_argument(
        "--backend",
        choices=["serial", "pool", "queue"],
        default=None,
        metavar="NAME",
        help=(
            "sweep execution backend: serial (in-process), pool "
            "(process pool, uses --workers), or queue (file-based work "
            "queue in --queue-dir drained by 'tsajs worker' processes); "
            "results are byte-identical on every backend"
        ),
    )
    run_parser.add_argument(
        "--queue-dir",
        metavar="DIR",
        help=(
            "work-queue directory for --backend queue; point any number "
            "of 'tsajs worker DIR' processes (on any machine sharing "
            "the directory) at it to help drain the sweep"
        ),
    )
    run_parser.add_argument(
        "--journal",
        metavar="FILE",
        help=(
            "checkpoint every completed (scheme, seed) cell to this "
            "JSON-lines file as it is computed (crash-safe)"
        ),
    )
    run_parser.add_argument(
        "--cache",
        metavar="DIR",
        help=(
            "content-addressed result cache: every computed (scheme, "
            "seed) cell is stored under a key derived from the config, "
            "scheme, seed and code fingerprint, written atomically with "
            "a checksum; later runs (any experiment, any machine "
            "sharing DIR) reuse matching cells and corrupt entries are "
            "quarantined and recomputed"
        ),
    )
    run_parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "load the --journal file and re-run only the missing cells; "
            "results are byte-identical to an uninterrupted run "
            "(--cache resumes by default)"
        ),
    )
    run_parser.add_argument(
        "--no-resume",
        action="store_true",
        help=(
            "ignore previously persisted cells: truncate the --journal "
            "file / recompute despite --cache hits (use this after a "
            "stale-code-fingerprint error)"
        ),
    )
    run_parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "retry crashed or hung seeds up to N times (exponential "
            "backoff; failed seeds are recorded, not fatal)"
        ),
    )
    run_parser.add_argument(
        "--seed-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "treat a seed exceeding this wall-clock budget as hung and "
            "retry it (parallel runs only)"
        ),
    )
    run_parser.add_argument(
        "--telemetry",
        metavar="DIR",
        help=(
            "record a schema-v2 span/event trace (trace.jsonl, plus "
            "per-worker trace-*.jsonl shards on parallel backends) and a "
            "metrics snapshot (metrics.json) into DIR"
        ),
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "capture a cProfile hotspot summary per seed into the "
            "--telemetry directory (requires --telemetry)"
        ),
    )
    run_parser.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "run the experiment twice serially under the determinism "
            "sanitizer and assert per-stream RNG ledgers and outputs "
            "are identical (incompatible with --journal/--workers)"
        ),
    )

    worker_parser = sub.add_parser(
        "worker",
        help="drain a work-queue directory (see tsajs run --backend queue)",
    )
    worker_parser.add_argument(
        "queue_dir", help="queue directory created by tsajs run --queue-dir"
    )
    worker_parser.add_argument(
        "--drain",
        action="store_true",
        help="exit once the task directory is empty instead of polling",
    )
    worker_parser.add_argument(
        "--poll",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="idle poll period",
    )
    worker_parser.add_argument(
        "--heartbeat",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="lease heartbeat period (coordinators expire silent leases)",
    )
    worker_parser.add_argument(
        "--max-tasks",
        type=int,
        default=None,
        metavar="N",
        help="stop after processing N tasks",
    )

    solve_parser = sub.add_parser("solve", help="solve one random instance")
    solve_parser.add_argument("--users", type=int, default=20)
    solve_parser.add_argument("--servers", type=int, default=9)
    solve_parser.add_argument("--subbands", type=int, default=3)
    solve_parser.add_argument("--workload-mc", type=float, default=1000.0)
    solve_parser.add_argument("--input-kb", type=float, default=420.0)
    solve_parser.add_argument("--seed", type=int, default=0)
    solve_parser.add_argument(
        "--quick",
        action="store_true",
        help="stop the annealer early (T_min = 1e-2)",
    )
    solve_parser.add_argument(
        "--schemes",
        default="TSAJS,hJTORA,LocalSearch,Greedy",
        help=(
            "comma-separated scheme names to run "
            "(see `tsajs schemes` for the full list)"
        ),
    )
    solve_parser.add_argument(
        "--delta",
        action="store_true",
        help=(
            "score annealer moves with the incremental (delta) evaluator; "
            "bit-identical results, lower wall-clock time"
        ),
    )
    solve_parser.add_argument(
        "--shard",
        action="store_true",
        help=(
            "solve via spatial sharding: partition the topology into "
            "cell clusters, solve each independently, then reconcile "
            "boundary users (see docs/sharding.md)"
        ),
    )
    solve_parser.add_argument(
        "--cluster-radius",
        type=float,
        default=2.0,
        metavar="KM",
        help="grid-tile side for the station partition with --shard (km)",
    )
    solve_parser.add_argument(
        "--interference-radius",
        type=float,
        default=None,
        metavar="KM",
        help=(
            "far-field cutoff distance with --shard (km); defaults to "
            "the inter-site distance"
        ),
    )
    solve_parser.add_argument(
        "--reconcile-rounds",
        type=int,
        default=2,
        metavar="R",
        help="boundary-reconciliation fixed-point cap with --shard",
    )
    solve_parser.add_argument(
        "--trace",
        metavar="FILE",
        help="record a schema-v2 span/event trace of the solve to FILE",
    )
    solve_parser.add_argument(
        "--trace-iterations",
        action="store_true",
        help=(
            "include one anneal.step event per proposal in the trace "
            "(orders of magnitude more lines; requires --trace)"
        ),
    )
    solve_parser.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "replay the solve under scalar and delta evaluation "
            "with the determinism sanitizer and assert per-stream RNG "
            "ledgers and utilities are identical (overrides "
            "--delta; incompatible with --trace)"
        ),
    )

    sub.add_parser("schemes", help="list available scheduling schemes")

    trace_parser = sub.add_parser(
        "trace", help="record or inspect observability traces"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_record = trace_sub.add_parser(
        "record", help="solve one instance with tracing on"
    )
    trace_record.add_argument("--out", required=True, metavar="FILE")
    trace_record.add_argument("--users", type=int, default=20)
    trace_record.add_argument("--servers", type=int, default=9)
    trace_record.add_argument("--subbands", type=int, default=3)
    trace_record.add_argument("--seed", type=int, default=0)
    trace_record.add_argument("--schemes", default="TSAJS")
    trace_record.add_argument(
        "--quick",
        action="store_true",
        help="stop the annealer early (T_min = 1e-2)",
    )
    trace_record.add_argument(
        "--delta",
        action="store_true",
        help="use the incremental (delta) evaluator",
    )
    trace_record.add_argument(
        "--iterations",
        action="store_true",
        help="include per-proposal anneal.step events",
    )
    trace_show = trace_sub.add_parser(
        "show", help="validate and summarise a recorded trace"
    )
    trace_show.add_argument("file", metavar="FILE")
    trace_show.add_argument(
        "--convergence",
        action="store_true",
        help="rebuild the convergence profile from anneal.level events",
    )

    obs_parser = sub.add_parser(
        "obs", help="distributed-trace analysis and the perf sentinel"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)

    obs_merge = obs_sub.add_parser(
        "merge",
        help="merge worker trace shards into one schema-valid trace",
    )
    obs_merge.add_argument(
        "telemetry_dir", metavar="DIR", help="telemetry directory to merge"
    )
    obs_merge.add_argument(
        "--out",
        metavar="FILE",
        help="merged trace destination (default DIR/trace_merged.jsonl)",
    )

    for name, help_text in (
        ("tree", "render the span hierarchy with per-span self/total time"),
        ("critical-path", "render the longest root-to-leaf span chain"),
        ("flame", "emit folded-stack lines for flamegraph tooling"),
    ):
        analysis = obs_sub.add_parser(name, help=help_text)
        analysis.add_argument(
            "path",
            metavar="TRACE",
            help=(
                "a trace .jsonl file, or a telemetry directory "
                "(shards are merged in memory)"
            ),
        )
        if name == "tree":
            analysis.add_argument(
                "--max-depth",
                type=int,
                default=None,
                help="truncate the rendering below this depth",
            )

    obs_export = obs_sub.add_parser(
        "export", help="export a metrics snapshot for scraping"
    )
    obs_export.add_argument(
        "metrics_file", metavar="FILE", help="a metrics.json snapshot"
    )
    obs_export.add_argument(
        "--format",
        choices=["openmetrics"],
        default="openmetrics",
        help="output format (OpenMetrics text is the only one today)",
    )
    obs_export.add_argument(
        "--out", metavar="FILE", help="write to FILE instead of stdout"
    )

    obs_sentinel = obs_sub.add_parser(
        "sentinel",
        help=(
            "compare fresh BENCH_*.json results against checked-in "
            "baselines (exit 1 on regression)"
        ),
    )
    obs_sentinel.add_argument(
        "--current",
        metavar="DIR",
        default=".",
        help="directory holding the freshly produced BENCH files",
    )
    obs_sentinel.add_argument(
        "--baseline",
        metavar="DIR",
        default=".",
        help="directory holding the checked-in baseline BENCH files",
    )
    obs_sentinel.add_argument(
        "--files",
        metavar="NAME",
        nargs="+",
        default=None,
        help="BENCH file names to compare (default: all four)",
    )
    obs_sentinel.add_argument(
        "--json",
        metavar="FILE",
        help="also write the machine-readable verdict to FILE",
    )

    lint_parser = sub.add_parser(
        "lint", help="run the project-specific static-analysis rules"
    )
    lint.add_arguments(lint_parser)

    episode_parser = sub.add_parser(
        "episode", help="run a slot-based episodic simulation"
    )
    episode_parser.add_argument("--pool", type=int, default=20)
    episode_parser.add_argument("--slots", type=int, default=10)
    episode_parser.add_argument("--servers", type=int, default=9)
    episode_parser.add_argument("--subbands", type=int, default=3)
    episode_parser.add_argument("--activity", type=float, default=0.6)
    episode_parser.add_argument("--churn", type=float, default=0.05)
    episode_parser.add_argument("--outage", type=float, default=0.0)
    episode_parser.add_argument("--scheme", default="TSAJS")
    episode_parser.add_argument("--seed", type=int, default=0)
    episode_parser.add_argument(
        "--quick",
        action="store_true",
        help="stop the annealer early (T_min = 1e-2)",
    )

    faults_parser = sub.add_parser(
        "faults", help="inject faults into one instance and degrade gracefully"
    )
    faults_parser.add_argument("--users", type=int, default=20)
    faults_parser.add_argument("--servers", type=int, default=5)
    faults_parser.add_argument("--subbands", type=int, default=3)
    faults_parser.add_argument("--seed", type=int, default=0)
    faults_parser.add_argument(
        "--outage", type=float, default=0.2, help="per-server full-outage probability"
    )
    faults_parser.add_argument(
        "--degraded",
        type=float,
        default=0.0,
        help="per-server capacity-degradation probability",
    )
    faults_parser.add_argument(
        "--degraded-capacity",
        type=float,
        default=0.25,
        help="surviving capacity fraction of a degraded server",
    )
    faults_parser.add_argument(
        "--band-outage",
        type=float,
        default=0.0,
        help="per-(server, band) outage probability",
    )
    faults_parser.add_argument(
        "--churn",
        type=float,
        default=0.0,
        help="per-user task-withdrawal probability",
    )
    faults_parser.add_argument(
        "--policy",
        choices=["local_fallback", "reschedule", "both"],
        default="both",
        help="degradation policy to apply",
    )
    faults_parser.add_argument(
        "--quick",
        action="store_true",
        help="stop the annealer early (T_min = 1e-2)",
    )
    return parser


def _cmd_list() -> int:
    for experiment_id in list_experiments():
        spec = get_experiment(experiment_id)
        print(f"{experiment_id:24s} {spec.description}")
    return 0


def _cmd_run(
    experiment_id: str,
    quick: bool,
    out: Optional[str],
    json_out: Optional[str],
    workers: int = 1,
    journal_path: Optional[str] = None,
    resume: bool = False,
    retries: Optional[int] = None,
    seed_timeout: Optional[float] = None,
    telemetry: Optional[str] = None,
    profile: bool = False,
    sanitize: bool = False,
    backend: Optional[str] = None,
    queue_dir: Optional[str] = None,
    cache: Optional[str] = None,
    no_resume: bool = False,
) -> int:
    if resume and journal_path is None:
        print("error: --resume requires --journal FILE", file=sys.stderr)
        return 2
    if resume and no_resume:
        print(
            "error: --resume and --no-resume are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if no_resume and journal_path is None and cache is None:
        print(
            "error: --no-resume requires --journal FILE or --cache DIR",
            file=sys.stderr,
        )
        return 2
    if journal_path is not None and cache is not None:
        print(
            "error: --journal and --cache both install the seed "
            "checkpoint store; pick one",
            file=sys.stderr,
        )
        return 2
    if backend == "queue" and queue_dir is None:
        print(
            "error: --backend queue requires --queue-dir DIR",
            file=sys.stderr,
        )
        return 2
    if queue_dir is not None and backend != "queue":
        print(
            "error: --queue-dir only applies to --backend queue",
            file=sys.stderr,
        )
        return 2
    if sanitize:
        if (
            journal_path is not None
            or telemetry is not None
            or workers != 1
            or backend is not None
            or cache is not None
        ):
            print(
                "error: --sanitize replays the experiment serially and "
                "cannot be combined with --journal, --cache, --backend, "
                "--telemetry or --workers",
                file=sys.stderr,
            )
            return 2
        return _cmd_run_sanitized(experiment_id, quick, out, json_out)
    if profile and telemetry is None:
        print("error: --profile requires --telemetry DIR", file=sys.stderr)
        return 2
    if telemetry is not None:
        from pathlib import Path

        from repro.obs.profile import set_profiling
        from repro.obs.recorder import set_recorder
        from repro.obs.trace import TraceRecorder

        telemetry_dir = Path(telemetry)
        # trace_id + shard_dir opt this run into distributed tracing:
        # pool/queue workers receive a TraceContext and publish their
        # own trace-*.jsonl shards next to the coordinator's trace.
        recorder = TraceRecorder(
            telemetry_dir / "trace.jsonl",
            trace_id=f"run-{experiment_id}",
            shard_dir=telemetry_dir,
        )
        set_recorder(recorder)
        if profile:
            set_profiling(telemetry_dir)
        try:
            status = _cmd_run_body(
                experiment_id, quick, out, json_out, workers,
                journal_path, resume, retries, seed_timeout,
                backend, queue_dir, cache, no_resume,
            )
        finally:
            set_recorder(None)
            if profile:
                set_profiling(None)
            recorder.close()
        from repro.atomicio import atomic_write_json

        atomic_write_json(
            telemetry_dir / "metrics.json", recorder.snapshot(), indent=2
        )
        from repro.obs.dist import find_shards

        n_shards = len(find_shards(telemetry_dir))
        shard_note = (
            f", {n_shards} worker shards (merge with "
            f"'tsajs obs merge {telemetry_dir}')"
            if n_shards
            else ""
        )
        print(
            f"[telemetry: {recorder.n_records} trace records and a metrics "
            f"snapshot written to {telemetry_dir}{shard_note}]"
        )
        return status
    return _cmd_run_body(
        experiment_id, quick, out, json_out, workers,
        journal_path, resume, retries, seed_timeout,
        backend, queue_dir, cache, no_resume,
    )


def _cmd_run_sanitized(
    experiment_id: str,
    quick: bool,
    out: Optional[str],
    json_out: Optional[str],
) -> int:
    """Run the experiment twice serially and assert ledger/output equality.

    Serial on purpose: the sanitizer's stream observer is process-local,
    so pool workers would create unobserved streams.  Two full replays
    must agree draw-for-draw on every stream and byte-for-byte on the
    rendered table.
    """
    from repro.errors import DeterminismViolation
    from repro.sanitize import assert_ledgers_match, sanitized

    spec = get_experiment(experiment_id)
    snapshots = []
    texts = []
    output = None
    for _ in range(2):
        with sanitized() as sanitizer:
            output = spec.run_quick() if quick else spec.run_full()
        snapshots.append(sanitizer.snapshot())
        texts.append(render_text(output))
    try:
        assert_ledgers_match(
            snapshots[0],
            snapshots[1],
            context="serial run replay",
        )
    except DeterminismViolation as exc:
        print(f"SANITIZER FAILED: {exc}", file=sys.stderr)
        return 1
    if texts[0] != texts[1]:
        print(
            "SANITIZER FAILED: rendered outputs differ between replays",
            file=sys.stderr,
        )
        return 1
    print(texts[1])
    if out:
        from repro.atomicio import atomic_write_text

        atomic_write_text(out, texts[1] + "\n")
        print(f"\n[written to {out}]")
    if json_out and output is not None:
        from repro.experiments.persistence import save_output

        save_output(output, json_out)
        print(f"[structured result written to {json_out}]")
    print(
        f"[sanitize: {len(snapshots[0])} RNG stream ledgers identical "
        "across 2 serial replays]"
    )
    return 0


def _cmd_run_body(
    experiment_id: str,
    quick: bool,
    out: Optional[str],
    json_out: Optional[str],
    workers: int = 1,
    journal_path: Optional[str] = None,
    resume: bool = False,
    retries: Optional[int] = None,
    seed_timeout: Optional[float] = None,
    backend: Optional[str] = None,
    queue_dir: Optional[str] = None,
    cache: Optional[str] = None,
    no_resume: bool = False,
) -> int:
    if workers != 1:
        from repro.sim.runner import set_default_n_workers

        set_default_n_workers(workers)
    if journal_path is not None:
        from repro.experiments.persistence import SweepJournal
        from repro.sim.runner import set_default_journal

        set_default_journal(SweepJournal(journal_path, resume=resume))
    if cache is not None:
        from repro.experiments.cache import ResultCache
        from repro.sim.runner import set_default_journal

        set_default_journal(ResultCache(cache, resume=not no_resume))
    if backend is not None:
        from repro.sim.executors import make_executor
        from repro.sim.runner import set_default_executor

        set_default_executor(
            make_executor(backend, n_jobs=workers, queue_dir=queue_dir)
        )
    if retries is not None or seed_timeout is not None:
        from repro.sim.runner import RetryPolicy, set_default_retry

        set_default_retry(
            RetryPolicy(
                max_attempts=retries if retries is not None else 3,
                seed_timeout_s=seed_timeout,
            )
        )
    spec = get_experiment(experiment_id)
    output = spec.run_quick() if quick else spec.run_full()
    text = render_text(output)
    print(text)
    if out:
        from repro.atomicio import atomic_write_text

        atomic_write_text(out, text + "\n")
        print(f"\n[written to {out}]")
    if json_out:
        from repro.experiments.persistence import save_output

        save_output(output, json_out)
        print(f"[structured result written to {json_out}]")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Drain a work-queue directory (the ``tsajs worker`` subcommand)."""
    from pathlib import Path

    from repro.sim.executors.worker import QueueWorker

    worker = QueueWorker(
        Path(args.queue_dir), poll_s=args.poll, heartbeat_s=args.heartbeat
    )
    try:
        if args.drain:
            processed = worker.drain(max_tasks=args.max_tasks)
        else:
            processed = worker.run_forever(max_tasks=args.max_tasks)
    except KeyboardInterrupt:
        print("[worker: interrupted]", file=sys.stderr)
        return 130
    print(f"[worker: processed {processed} task(s) from {args.queue_dir}]")
    return 0


def _cmd_schemes() -> int:
    from repro.experiments.schemes import available_schemes

    for name in available_schemes():
        print(name)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.trace_iterations and not args.trace:
        print("error: --trace-iterations requires --trace FILE", file=sys.stderr)
        return 2
    if args.sanitize:
        if args.trace:
            print(
                "error: --sanitize replays the solve and cannot be "
                "combined with --trace",
                file=sys.stderr,
            )
            return 2
        return _cmd_solve_sanitized(args)
    if args.trace:
        from repro.obs.recorder import use_recorder
        from repro.obs.trace import TraceRecorder

        recorder = TraceRecorder(
            args.trace, iteration_detail=args.trace_iterations
        )
        with recorder, use_recorder(recorder):
            status = _cmd_solve_body(args)
        print(f"[trace: {recorder.n_records} records written to {args.trace}]")
        return status
    return _cmd_solve_body(args)


def _cmd_solve_body(args: argparse.Namespace) -> int:
    from repro.experiments.schemes import build_schemes

    config = SimulationConfig(
        n_users=args.users,
        n_servers=args.servers,
        n_subbands=args.subbands,
        workload_megacycles=args.workload_mc,
        input_kb=args.input_kb,
        use_delta=args.delta,
        use_sharding=args.shard,
        cluster_radius_km=args.cluster_radius,
        interference_radius_km=args.interference_radius,
        max_reconcile_rounds=args.reconcile_rounds,
    )
    scenario = Scenario.build(config, seed=args.seed)
    if config.use_sharding:
        from repro.sim.validation import validate_sharding_config

        validate_sharding_config(config, scenario.topology)
    print(
        f"instance: U={args.users} S={args.servers} N={args.subbands} "
        f"w={args.workload_mc:.0f} Mc d={args.input_kb:.0f} KB seed={args.seed}"
        + (" [sharded]" if config.use_sharding else "")
    )
    names = [name.strip() for name in args.schemes.split(",") if name.strip()]
    schedulers = build_schemes(
        names,
        quick=args.quick,
        use_delta=config.use_delta,
        use_sharding=config.use_sharding,
        cluster_radius_km=config.cluster_radius_km,
        interference_radius_km=config.interference_radius_km,
        max_reconcile_rounds=config.max_reconcile_rounds,
    )
    for index, scheduler in enumerate(schedulers):
        rng = child_rng(args.seed, 100 + index)
        result = scheduler.schedule(scenario, rng)
        print(
            f"{scheduler.name:12s} utility={result.utility:10.4f} "
            f"offloaded={result.decision.n_offloaded():3d}/{args.users:<3d} "
            f"time={result.wall_time_s:7.3f}s"
        )
    return 0


def _cmd_solve_sanitized(args: argparse.Namespace) -> int:
    """Replay the solve under both evaluators with ledger checks.

    Scalar and delta must agree draw-for-draw, on every final stream
    state and on every utility bit (sharded solves included).
    """
    from repro.errors import DeterminismViolation
    from repro.experiments.schemes import build_schemes
    from repro.sanitize import assert_ledgers_match, sanitized

    names = [name.strip() for name in args.schemes.split(",") if name.strip()]
    modes = (("scalar", False), ("delta", True))
    shard_tag = " sharded" if args.shard else ""
    print(
        f"instance: U={args.users} S={args.servers} N={args.subbands} "
        f"w={args.workload_mc:.0f} Mc d={args.input_kb:.0f} KB "
        f"seed={args.seed} [sanitize: scalar/delta{shard_tag} replay]"
    )
    snapshots = {}
    utilities: Dict[str, Dict[str, float]] = {}
    for mode_name, use_delta in modes:
        config = SimulationConfig(
            n_users=args.users,
            n_servers=args.servers,
            n_subbands=args.subbands,
            workload_megacycles=args.workload_mc,
            input_kb=args.input_kb,
            use_delta=use_delta,
            use_sharding=args.shard,
            cluster_radius_km=args.cluster_radius,
            interference_radius_km=args.interference_radius,
            max_reconcile_rounds=args.reconcile_rounds,
        )
        with sanitized() as sanitizer:
            scenario = Scenario.build(config, seed=args.seed)
            schedulers = build_schemes(
                names,
                quick=args.quick,
                use_delta=use_delta,
                use_sharding=config.use_sharding,
                cluster_radius_km=config.cluster_radius_km,
                interference_radius_km=config.interference_radius_km,
                max_reconcile_rounds=config.max_reconcile_rounds,
            )
            for index, scheduler in enumerate(schedulers):
                rng = child_rng(args.seed, 100 + index)
                result = scheduler.schedule(scenario, rng)
                utilities.setdefault(scheduler.name, {})[mode_name] = (
                    result.utility
                )
        snapshots[mode_name] = sanitizer.snapshot()
    try:
        assert_ledgers_match(
            snapshots["scalar"],
            snapshots["delta"],
            context="scalar vs delta replay",
        )
    except DeterminismViolation as exc:
        print(f"SANITIZER FAILED: {exc}", file=sys.stderr)
        return 1
    divergent = {
        name: by_mode
        for name, by_mode in utilities.items()
        if len({repr(value) for value in by_mode.values()}) != 1
    }
    if divergent:
        print(
            f"SANITIZER FAILED: utilities diverged across modes: "
            f"{divergent}",
            file=sys.stderr,
        )
        return 1
    for name in sorted(utilities):
        print(
            f"{name:12s} utility={utilities[name]['scalar']:10.4f} "
            "(bitwise-identical across scalar/delta)"
        )
    n_streams = len(snapshots["scalar"])
    print(
        f"[sanitize: {n_streams} RNG stream ledgers identical across "
        f"{len(modes)} replays]"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "record":
        return _cmd_trace_record(args)
    return _cmd_trace_show(args)


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from repro.experiments.schemes import build_schemes
    from repro.obs.recorder import use_recorder
    from repro.obs.trace import TraceRecorder

    config = SimulationConfig(
        n_users=args.users,
        n_servers=args.servers,
        n_subbands=args.subbands,
        use_delta=args.delta,
    )
    scenario = Scenario.build(config, seed=args.seed)
    names = [name.strip() for name in args.schemes.split(",") if name.strip()]
    schedulers = build_schemes(names, quick=args.quick, use_delta=args.delta)
    recorder = TraceRecorder(args.out, iteration_detail=args.iterations)
    with recorder, use_recorder(recorder):
        for index, scheduler in enumerate(schedulers):
            rng = child_rng(args.seed, 100 + index)
            result = scheduler.schedule(scenario, rng)
            print(
                f"{scheduler.name:12s} utility={result.utility:10.4f} "
                f"evaluations={result.evaluations}"
            )
    print(f"[trace: {recorder.n_records} records written to {args.out}]")
    return 0


def _cmd_trace_show(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.errors import ReproError
    from repro.obs.schema import span_pairs_balanced
    from repro.obs.trace import read_trace

    try:
        records = read_trace(args.file)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    counts = Counter(
        (record["kind"], record["name"]) for record in records
    )
    versions = sorted({record["v"] for record in records})
    version_note = "/".join(f"v{v}" for v in versions) if versions else "empty"
    print(f"{args.file}: {len(records)} records, schema {version_note}, all valid")
    print(f"spans balanced: {'yes' if span_pairs_balanced(records) else 'NO'}")
    print(f"{'kind':>10} {'name':24} {'count':>7}")
    for (kind, name), count in sorted(counts.items()):
        print(f"{kind:>10} {name:24} {count:>7}")
    if args.convergence:
        from repro.analysis.convergence import (
            ascii_sparkline,
            best_traces_from_records,
            summarize_trace_records,
        )

        traces = best_traces_from_records(records)
        if not traces:
            print(
                "error: no anneal.level events in this trace "
                "(record one from an annealing scheduler)",
                file=sys.stderr,
            )
            return 1
        for index, trace in enumerate(traces):
            report = summarize_trace_records(records, run_index=index)
            print(
                f"\nannealing run {index}: final={report.final_value:.4f} "
                f"levels={report.levels} to90={report.levels_to_90} "
                f"to99={report.levels_to_99} auc={report.normalized_auc:.3f}"
            )
            finite = [value for value in trace if value > float("-inf")]
            if finite:
                print(ascii_sparkline(finite, width=min(len(finite), 60)))
    return 0


def _load_trace_records(path_arg: str) -> List[Dict[str, object]]:
    """Trace records from a .jsonl file or a telemetry directory.

    Directories are merged in memory (coordinator trace + worker
    shards), so the analysis subcommands work on a sweep's telemetry
    directory without an explicit ``tsajs obs merge`` first.
    """
    from pathlib import Path

    from repro.obs.dist import merge_trace_shards
    from repro.obs.trace import read_trace

    path = Path(path_arg)
    if path.is_dir():
        return merge_trace_shards(path)
    return read_trace(path)


def _cmd_obs(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import ReproError

    try:
        if args.obs_command == "merge":
            from repro.obs.dist import write_merged_trace

            target, records = write_merged_trace(
                args.telemetry_dir, out_path=args.out
            )
            shard_labels = sorted(
                {
                    str(record["shard"])
                    for record in records
                    if "shard" in record
                }
            )
            print(
                f"{target}: {len(records)} records from "
                f"{len(shard_labels)} shard tasks, schema-valid"
            )
            return 0
        if args.obs_command in ("tree", "critical-path", "flame"):
            from repro.obs.analyze import (
                build_span_tree,
                critical_path,
                folded_stacks,
                render_critical_path,
                render_tree,
            )

            roots = build_span_tree(_load_trace_records(args.path))
            if args.obs_command == "tree":
                print(render_tree(roots, max_depth=args.max_depth))
            elif args.obs_command == "critical-path":
                print(render_critical_path(critical_path(roots)))
            else:
                for line in folded_stacks(roots):
                    print(line)
            return 0
        if args.obs_command == "export":
            import json as json_module

            from repro.obs.analyze import render_openmetrics

            snapshot = json_module.loads(
                Path(args.metrics_file).read_text(encoding="utf-8")
            )
            rendered = render_openmetrics(snapshot)
            if args.out:
                from repro.atomicio import atomic_write_text

                atomic_write_text(Path(args.out), rendered)
                print(f"wrote {args.out}")
            else:
                sys.stdout.write(rendered)
            return 0
        if args.obs_command == "sentinel":
            from repro.obs.sentinel import render_report, run_sentinel

            report = run_sentinel(
                args.current,
                args.baseline,
                files=tuple(args.files) if args.files else None,
            )
            print(render_report(report))
            if args.json:
                from repro.atomicio import atomic_write_json

                atomic_write_json(Path(args.json), report.to_payload(), indent=2)
            return 0 if report.verdict == "pass" else 1
        raise AssertionError(f"unhandled obs command {args.obs_command!r}")
    except BrokenPipeError:
        # Output piped into head/less and the reader quit: not an error.
        # Detach stdout so the interpreter's shutdown flush stays quiet.
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (OSError, ValueError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_episode(args: argparse.Namespace) -> int:
    from repro.experiments.schemes import build_schemes
    from repro.sim.episodes import EpisodeConfig, run_episode

    config = EpisodeConfig(
        base=SimulationConfig(
            n_users=0, n_servers=args.servers, n_subbands=args.subbands
        ),
        pool_size=args.pool,
        n_slots=args.slots,
        activity_probability=args.activity,
        reposition_probability=args.churn,
        server_outage_probability=args.outage,
    )
    scheduler = build_schemes([args.scheme], quick=args.quick)[0]
    result = run_episode(config, scheduler, seed=args.seed)
    print(
        f"episode: pool={args.pool} slots={args.slots} scheme={args.scheme} "
        f"activity={args.activity} churn={args.churn} outage={args.outage}"
    )
    print(f"{'slot':>4} {'active':>6} {'offloaded':>9} {'down':>6} {'J':>9}")
    for record in result.slots:
        down = ",".join(map(str, record.failed_servers)) or "-"
        print(
            f"{record.slot:>4} {len(record.active_users):>6} "
            f"{record.metrics.n_offloaded:>9} {down:>6} "
            f"{record.metrics.system_utility:>9.3f}"
        )
    summary = result.utility_summary()
    print(
        f"\nmean utility/slot = {summary.mean:.3f} "
        f"(95% CI +/-{summary.ci_halfwidth:.3f}), "
        f"offload ratio = {result.offload_ratio_summary().mean:.0%}, "
        f"outage events = {result.total_outage_slots()}"
    )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.core.annealing import AnnealingSchedule
    from repro.core.degradation import DEGRADATION_POLICIES, degrade
    from repro.core.scheduler import TsajsScheduler
    from repro.faults import FaultConfig, apply_faults, draw_faults_for_seed

    config = SimulationConfig(
        n_users=args.users, n_servers=args.servers, n_subbands=args.subbands
    )
    scenario = Scenario.build(config, seed=args.seed)
    schedule = (
        AnnealingSchedule(min_temperature=1e-2) if args.quick else AnnealingSchedule()
    )
    planner = TsajsScheduler(schedule=schedule)
    plan = planner.schedule(scenario, child_rng(args.seed, 100))
    fault_config = FaultConfig(
        server_outage_probability=args.outage,
        server_degradation_probability=args.degraded,
        degraded_capacity_fraction=args.degraded_capacity,
        band_outage_probability=args.band_outage,
        arrival_churn_probability=args.churn,
    )
    faults = draw_faults_for_seed(
        fault_config,
        scenario.n_users,
        scenario.n_servers,
        scenario.n_subbands,
        args.seed,
    )
    faulted = apply_faults(scenario, faults)
    print(
        f"instance: U={args.users} S={args.servers} N={args.subbands} "
        f"seed={args.seed}"
    )
    print(f"planned utility (fault-free) = {plan.utility:.4f}")
    print(
        f"faults: down={sorted(faults.failed_servers) or '-'} "
        f"degraded={[s for s, _ in faults.degraded_servers] or '-'} "
        f"dead bands={sorted(faults.failed_bands) or '-'} "
        f"churned users={sorted(faults.churned_users) or '-'}"
    )
    policies = (
        list(DEGRADATION_POLICIES) if args.policy == "both" else [args.policy]
    )
    for index, policy in enumerate(policies):
        degraded = degrade(
            faulted,
            plan,
            faults,
            policy,
            rng=child_rng(args.seed, 200 + index),
            schedule=schedule,
        )
        print(
            f"{policy:15s} utility={degraded.degraded_utility:10.4f} "
            f"retention={degraded.utility_retention:6.1%} "
            f"fallback={degraded.n_fallback:3d} churned={degraded.n_churned:3d} "
            f"repair={degraded.reschedule_wall_time_s:.3f}s"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (also exposed as the ``tsajs`` console script)."""
    args = _build_parser().parse_args(argv)
    np.seterr(all="raise", under="ignore")
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(
            args.experiment,
            args.quick,
            args.out,
            args.json,
            args.workers,
            journal_path=args.journal,
            resume=args.resume,
            retries=args.retries,
            seed_timeout=args.seed_timeout,
            telemetry=args.telemetry,
            profile=args.profile,
            sanitize=args.sanitize,
            backend=args.backend,
            queue_dir=args.queue_dir,
            cache=args.cache,
            no_resume=args.no_resume,
        )
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "schemes":
        return _cmd_schemes()
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "episode":
        return _cmd_episode(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "lint":
        return lint.run(args, prog="tsajs lint")
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
