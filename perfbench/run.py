"""End-to-end benchmark of TSAJS: timed whole calls, answer quality, layer times.

Run from the repository root::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 25 --trace 0

``--workload`` is one of ``solve``, ``shard-metro`` and ``sweep-resume``
(see ``workloads.py`` and the ``why`` of each in ``BENCHMARK.json``).
Instances are generated from ``--seed``; the program only receives the
generated instances.

``--trace 0`` is the measured run: the set-up is repeated and timed
(median reported as ``setup_s``), then operations run back to back, each
timed with the program's default ``NullRecorder`` in place, until
``--seconds`` is used up (at least ``MIN_OPS`` operations).  Every
answer is checked (``checks.py``).  It reports every end-to-end metric
of ``BENCHMARK.json``.  Its times are scaled to a host of fixed speed
(``hostspeed.py``): after each timed call (each set-up, and each
public call an operation makes: one per instance on ``solve`` and
``shard-metro``, the one ``run_schemes`` on ``sweep-resume``) a fixed
reference load runs, and the call counts with the reference speed
measured just before and just after it.  ``setup_s`` is the median
scaled set-up; ``ops_per_s`` is the units of all operations over
their summed scaled time.  The unscaled figures are printed on the
summary lines.

``--trace 1`` is the traced run: set-up once under the span probes of
``layers.py``, then untraced and traced operations alternate.  It
reports every per-layer metric of ``BENCHMARK.json`` (per traced
operation) and writes the spans to ``perfbench/out/`` when it ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it are a human-readable summary.  Exit code 0 means the run
completed, even if a check failed (``correct`` is then false); any other
code means it could not run, and no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve", "shard-metro", "sweep-resume")

#: Set-ups per measured run: at least ``SETUP_REPEATS``, and more until
#: they have taken ``SETUP_SECONDS``; ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
#: Fewest timed operations per run, so that every run compares a
#: repeated answer and reports a median.
MIN_OPS = 2


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program.

    Refuses a ``repro`` package found anywhere else, so the benchmark
    never measures code outside the checkout it runs in.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    location = Path(repro.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError(f"repro imported from {location}, not from {src}")


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def make_workload(name: str, seed: int) -> Any:
    import workloads

    if name == "solve":
        return workloads.solve_workload(seed)
    if name == "shard-metro":
        return workloads.shard_metro_workload(seed)
    work_dir = HERE / ".work" / f"sweep-{os.getpid()}"
    return workloads.SweepResumeWorkload(seed, work_dir)


def peak_rss_mb() -> float:
    """Largest max RSS of this process and of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed(fn: Any) -> Tuple[Any, float]:
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def measured_run(workload: Any, seconds: float, tally: Any) -> Dict[str, float]:
    setup_host = hostspeed.HostSpeed()
    setup_s: List[float] = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        setup_s.append(timed(workload.setup)[1])
        setup_host.scale(setup_s[-1])
    host = hostspeed.HostSpeed()
    op_s: List[float] = []
    start = time.perf_counter()
    while True:
        workload.prepare()
        out = workload.run_op(host.scale)
        op_s.append(sum(call_s for _, call_s in workload.part_s))
        workload.check_op(out, tally)
        spent = time.perf_counter() - start
        next_op = statistics.median(op_s) * (1.0 + hostspeed.SHARE)
        if len(op_s) >= MIN_OPS and spent + next_op > seconds:
            break
    workload.verify(tally)
    quality = workload.quality()
    print(f"setup_s each: {' '.join(f'{s:.4f}' for s in setup_s)}")
    print(f"op_s each ({workload.units_per_op} per op): {' '.join(f'{s:.4f}' for s in op_s)}")
    raw_ops_per_s = workload.units_per_op * len(op_s) / sum(op_s)
    print(f"host speed: reference {setup_host.factor:.4f} x nominal over "
          f"{len(setup_host.samples)} samples in set-up, {host.factor:.4f} x over "
          f"{len(host.samples)} in ops; unscaled setup_s "
          f"{statistics.median(setup_s):.4f}, ops_per_s {raw_ops_per_s:.6g}")
    for label, scored in (("quality panel", quality), ("all answers", workload.quality(False))):
        print(f"{label}: fallback_share {scored.fallback_share:.4f} "
              f"({scored.fallbacks} of {scored.answers}), "
              f"utility_vs_greedy {scored.utility_vs_greedy:.6f}")
    return {
        "setup_s": statistics.median(setup_host.scaled),
        "ops_per_s": workload.units_per_op * len(op_s) / sum(host.scaled),
        "utility_vs_greedy": quality.utility_vs_greedy,
        "offload_share": 1.0 - quality.fallback_share,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_run(
    workload: Any, seconds: float, tally: Any, spans_path: Path
) -> Dict[str, float]:
    import layers
    from spans import Tracer, instrument

    tracer = Tracer()
    # A forked pool worker inherits the patched classes; it must not
    # record into its copy of the span list.
    os.register_at_fork(after_in_child=tracer.detach)
    with instrument(tracer, layers.PROBES), tracer.request("setup"):
        workload.setup()
    untraced: List[float] = []
    traced: List[float] = []
    start = time.perf_counter()
    while True:
        workload.prepare()
        out, elapsed = timed(workload.run_op)
        untraced.append(elapsed)
        workload.check_op(out, tally)
        workload.prepare()
        with instrument(tracer, layers.PROBES), tracer.request(f"op-{len(traced)}"):
            out, elapsed = timed(workload.run_op)
        traced.append(elapsed)
        workload.check_op(out, tally)
        spent = time.perf_counter() - start
        pair = statistics.median(untraced) + statistics.median(traced)
        if spent + pair > seconds:
            break
    workload.verify(tally)
    metrics = layers.layer_metrics(
        tracer.spans,
        len(traced),
        statistics.median(untraced),
        statistics.median(traced),
    )
    print("\n".join(layers.layer_table(tracer.spans)))
    tracer.write(spans_path)
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    return metrics


def result_line(
    spec_metrics: Sequence[Dict[str, Any]], values: Dict[str, float], tally: Any
) -> Dict[str, Any]:
    metrics = {}
    for entry in spec_metrics:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    from workloads import Tally

    tally = Tally()
    workload = make_workload(args.workload, args.seed)
    try:
        if args.trace:
            spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            values = traced_run(workload, args.seconds, tally, spans_path)
            spec_metrics = spec["per_layer"]
        else:
            values = measured_run(workload, args.seconds, tally)
            spec_metrics = spec["end_to_end"]
    finally:
        workload.close()

    print(f"workload {args.workload} seed {args.seed}: answers {workload.digest()}")
    print(f"attempted {tally.attempted}, failed {tally.failed}, "
          f"failed_share {tally.failed / tally.attempted:.4f}")
    for problem in tally.problems[:20]:
        print(f"FAILED CHECK: {problem}")
    for entry in spec_metrics:
        print(f"{entry['name']:<28} {values[entry['name']]:>14.6g} {entry['unit']}")
    print(json.dumps(result_line(spec_metrics, values, tally)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
