#!/usr/bin/env python
"""CI smoke test: executor backends and the result cache under chaos.

Runs one small sweep on every executor backend (serial, process pool,
file-based work queue) while injecting real failures — a scheduler that
kills its own worker process, plus torn and bit-flipped cache entries —
and gates on the robustness contract:

* every backend's metrics are byte-identical to the serial run's
  (modulo the measured ``wall_time_s``),
* corruption is quarantined (evidence kept) and recomputed, never
  trusted,
* RNG ledgers stay clean: a fresh replay draws identical streams and a
  fully warm cache draws none at all.

Exits non-zero on the first violated invariant. Used by the
``executor-chaos`` job in ``.github/workflows/ci.yml``; runnable locally
with ``python scripts/executor_chaos_smoke.py``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))
# Queue workers are separate processes: they must be able to import both
# the library and the chaos schedulers (which live in tests/) to unpickle
# the wave spec.
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT / "src"), str(ROOT)]
    + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)

from repro.baselines import GreedyScheduler  # noqa: E402
from repro.experiments.cache import ResultCache, cell_key  # noqa: E402
from repro.sanitize import assert_ledgers_match, sanitized  # noqa: E402
from repro.sim.config import SimulationConfig  # noqa: E402
from repro.sim.executors import (  # noqa: E402
    ProcessPoolSweepExecutor,
    WorkQueueExecutor,
)
from repro.sim.runner import RetryPolicy, run_schemes  # noqa: E402
from tests.test_executors import CrashOnceScheduler  # noqa: E402

CONFIG = SimulationConfig(n_users=6, n_servers=2, n_subbands=2)
SEEDS = [1, 2, 3]


def canonical(result) -> str:
    """Byte-comparable rendering of a sweep result.

    ``wall_time_s`` is measured wall clock — the one field that is
    *supposed* to differ between runs — so it is excluded; everything
    else must match to the last bit.
    """
    import dataclasses

    payload = {}
    for scheme in sorted(result.metrics):
        rows = []
        for metrics in result.metrics[scheme]:
            row = dataclasses.asdict(metrics)
            row.pop("wall_time_s")
            rows.append(row)
        payload[scheme] = rows
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def check(condition: bool, label: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {label}")
    sys.stdout.write(f"ok: {label}\n")


def main() -> int:
    baseline = run_schemes(CONFIG, [GreedyScheduler()], SEEDS)
    reference = canonical(baseline)

    # --- pool backend survives a worker death (serial fallback) ---------
    with tempfile.TemporaryDirectory() as tmp:
        result = run_schemes(
            CONFIG,
            [CrashOnceScheduler(tmp)],
            SEEDS,
            retry=RetryPolicy(backoff_s=0.0),
            executor=ProcessPoolSweepExecutor(n_jobs=2),
        )
        check(not result.failures, "pool: chaos sweep completed")
        check((Path(tmp) / "crashed").exists(), "pool: a worker really died")
        # CrashOnce delegates to Greedy after its one crash, so the
        # recovered sweep must reproduce the Greedy baseline bitwise.
        pool_text = canonical(result).replace("CrashOnce", "Greedy")
        check(pool_text == reference, "pool: byte-identical to serial")

    # --- queue backend survives a worker killed mid-lease ---------------
    with tempfile.TemporaryDirectory() as tmp:
        marker = Path(tmp) / "markers"
        marker.mkdir()
        result = run_schemes(
            CONFIG,
            [CrashOnceScheduler(str(marker))],
            SEEDS,
            retry=RetryPolicy(backoff_s=0.0, quarantine_after=3),
            executor=WorkQueueExecutor(
                Path(tmp) / "q", n_local_workers=2, poll_s=0.02
            ),
        )
        check(not result.failures, "queue: chaos sweep completed")
        expired = list((Path(tmp) / "q" / "expired").iterdir())
        check(bool(expired), "queue: the dead worker's lease was reclaimed")
        queue_text = canonical(result).replace("CrashOnce", "Greedy")
        check(queue_text == reference, "queue: byte-identical to serial")

    # --- cache chaos: torn entry + bit flip → quarantine + recompute ----
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        cold = run_schemes(CONFIG, [GreedyScheduler()], SEEDS, journal=cache)
        check(canonical(cold) == reference, "cache: cold run matches serial")

        torn = cache._entry_path(cell_key(CONFIG, GreedyScheduler(), SEEDS[0]))
        torn.write_text(torn.read_text()[: torn.stat().st_size // 2])
        flipped = cache._entry_path(
            cell_key(CONFIG, GreedyScheduler(), SEEDS[1])
        )
        raw = bytearray(flipped.read_bytes())
        digit = raw.find(b'"system_utility":') + len(b'"system_utility":') + 3
        raw[digit] = ord("1") if raw[digit] != ord("1") else ord("2")
        flipped.write_bytes(bytes(raw))

        warm = run_schemes(CONFIG, [GreedyScheduler()], SEEDS, journal=cache)
        check(
            len(cache.corrupt_entries()) == 2,
            "cache: torn and bit-flipped entries quarantined",
        )
        check(canonical(warm) == reference, "cache: recomputed run matches serial")

    # --- RNG ledgers: replay identity, fully warm cache draws nothing ---
    with sanitized() as first:
        run_schemes(CONFIG, [GreedyScheduler()], SEEDS)
    with sanitized() as second:
        run_schemes(CONFIG, [GreedyScheduler()], SEEDS)
    assert_ledgers_match(
        first.snapshot(),
        second.snapshot(),
        context="serial replay",
    )
    check(bool(first.snapshot()), "ledgers: serial replay draws matched streams")
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        run_schemes(CONFIG, [GreedyScheduler()], SEEDS, journal=cache)
        with sanitized() as warm_run:
            run_schemes(CONFIG, [GreedyScheduler()], SEEDS, journal=cache)
        check(
            warm_run.snapshot() == {},
            "ledgers: fully warm cache draws zero RNG streams",
        )

    sys.stdout.write("executor chaos smoke: all invariants hold\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
