"""Backend determinism of the sharded scheduler.

The sharded solver must be a pure function of ``(scenario, seed)`` no
matter which :class:`~repro.sim.executors.base.SweepExecutor` backend
fans the cells out: serial in-process, process pool, or the file-based
work queue.  Locked down here:

* identical metrics for every (scheme, seed) cell across all three
  backends;
* journals written under each backend are byte-identical once the two
  wall-clock fields — explicitly outside the determinism contract —
  are normalised away;
* two serial replays under the determinism sanitizer produce matching
  per-stream RNG ledgers (draw-for-draw);
* the ``tsajs solve --shard --sanitize`` CLI path passes end to end.
"""

from __future__ import annotations

import json

import pytest

from repro.core.annealing import AnnealingSchedule
from repro.core.sharding import ShardedScheduler
from repro.experiments.persistence import SweepJournal
from repro.sim.config import SimulationConfig
from repro.sim.executors import WorkQueueExecutor, make_executor
from repro.sim.runner import RetryPolicy, run_schemes
from tests.test_resilience import assert_identical_metrics

#: Small multi-cluster deployment: 9 stations at 1 km spacing under a
#: 1.2 km tile split into 5 clusters, so every run exercises the
#: cluster-seed protocol and the boundary reconciliation pass.
CONFIG = SimulationConfig(
    n_users=8,
    n_servers=9,
    use_sharding=True,
    cluster_radius_km=1.2,
)

SEEDS = [1, 2, 3]

#: Queue knobs tuned for test speed (matches tests/test_executors.py).
FAST_QUEUE = dict(poll_s=0.02, idle_timeout_s=15.0, lease_timeout_s=10.0)


def _scheduler() -> ShardedScheduler:
    return ShardedScheduler(
        cluster_radius_km=CONFIG.cluster_radius_km,
        max_reconcile_rounds=CONFIG.max_reconcile_rounds,
        schedule=AnnealingSchedule(chain_length=10, min_temperature=1e-1),
    )


def _run(executor=None, journal=None):
    kwargs = {}
    if executor is not None:
        kwargs["executor"] = executor
        kwargs["retry"] = RetryPolicy(backoff_s=0.0)
    if journal is not None:
        kwargs["journal"] = journal
    return run_schemes(CONFIG, [_scheduler()], SEEDS, **kwargs)


def _normalized_journal(path) -> str:
    """Journal contents in canonical cell order, wall-clock zeroed.

    Records are appended in completion order, which the pool/queue
    backends do not guarantee, so they are re-sorted by (scheme, seed);
    ``wall_time_s`` / ``reschedule_wall_time_s`` measure the host, not
    the algorithm.  Every other byte of every record must be identical
    across backends.
    """
    records = []
    for line in path.read_text().splitlines():
        payload = json.loads(line)
        payload["metrics"]["wall_time_s"] = 0.0
        payload["metrics"]["reschedule_wall_time_s"] = 0.0
        records.append(payload)
    records.sort(key=lambda r: (r["scheme"], r["seed"]))
    return "\n".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records
    )


def test_all_backends_compute_identical_metrics(tmp_path):
    serial = _run()
    pool = _run(executor=make_executor("pool", n_jobs=2))
    queue = _run(
        executor=WorkQueueExecutor(
            tmp_path / "q", n_local_workers=2, **FAST_QUEUE
        )
    )
    assert not pool.failures
    assert not queue.failures
    assert_identical_metrics(serial, pool)
    assert_identical_metrics(serial, queue)


def test_journals_byte_identical_across_backends(tmp_path):
    paths = {}
    for backend in ("serial", "pool", "queue"):
        path = tmp_path / f"{backend}.jsonl"
        paths[backend] = path
        journal = SweepJournal(path)
        if backend == "serial":
            _run(journal=journal)
        elif backend == "pool":
            _run(executor=make_executor("pool", n_jobs=2), journal=journal)
        else:
            _run(
                executor=WorkQueueExecutor(
                    tmp_path / "qj", n_local_workers=2, **FAST_QUEUE
                ),
                journal=journal,
            )
    reference = _normalized_journal(paths["serial"])
    assert reference  # the journal actually recorded the cells
    assert _normalized_journal(paths["pool"]) == reference
    assert _normalized_journal(paths["queue"]) == reference


def test_sanitizer_ledgers_match_across_serial_replays():
    from repro.sanitize import assert_ledgers_match, sanitized

    snapshots = []
    utilities = []
    for _ in range(2):
        with sanitized() as sanitizer:
            result = _run()
        snapshots.append(sanitizer.snapshot())
        utilities.append(
            [m.system_utility for m in result.metrics["TSAJS-Shard"]]
        )
    # Raises DeterminismViolation on any per-stream divergence.
    assert_ledgers_match(
        snapshots[0],
        snapshots[1],
        context="sharded serial replay",
    )
    assert utilities[0] == utilities[1]


def test_cli_sanitized_sharded_solve_passes(capsys):
    from repro.cli import main

    status = main(
        [
            "solve",
            "--users",
            "6",
            "--servers",
            "9",
            "--quick",
            "--shard",
            "--cluster-radius",
            "1.2",
            "--schemes",
            "TSAJS",
            "--sanitize",
        ]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "sharded replay" in out
    assert "ledgers identical" in out


def test_sharded_scheme_name_in_journal(tmp_path):
    path = tmp_path / "j.jsonl"
    _run(journal=SweepJournal(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records
    assert {r["scheme"] for r in records} == {"TSAJS-Shard"}
    assert sorted(r["seed"] for r in records) == sorted(SEEDS)
