"""Where the traced run puts its spans, and the per-layer metrics they give.

Each :class:`~spans.Probe` names a layer entry point as its caller looks
it up: methods on their class, and the functions ``ShardedScheduler``
imported by name in ``repro.core.sharding``'s own namespace.  Only the
coordinator process is traced; pool workers inherit the patches but
record nothing, and their layers are reported from each cell's returned
``wall_time_s``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from spans import Probe, Span, Stat, aggregate, self_time_by_name

_SHARDING = "sharding.schedule"


def _objective_tag(parent: str, args: tuple, kwargs: dict) -> str:
    # ShardedScheduler scores composed global decisions itself; every
    # other scalar evaluation runs inside a scheduler or the annealer.
    return "global" if parent == _SHARDING else ""


def _solve_tag(parent: str, args: tuple, kwargs: dict) -> str:
    if parent != _SHARDING:
        return ""
    return "reconcile" if kwargs.get("initial") is not None else "cluster"


def _iterations(span: Span, result: Any, args: tuple, kwargs: dict) -> None:
    span.add("iterations", result.iterations)


def _lookup(span: Span, result: Any, args: tuple, kwargs: dict) -> None:
    span.add("misses" if result is None else "hits", 1)


def _wave(span: Span, outcome: Any, args: tuple, kwargs: dict) -> None:
    executor, _config, schedulers, cells = args[:4]
    span.add("workers", min(executor.n_jobs, len(cells)))
    for done in outcome.done:
        for scheduler, metrics in zip(schedulers, done.metrics):
            span.add("cell_s", metrics.wall_time_s)
            span.add("cell_s." + scheduler.name, metrics.wall_time_s)


PROBES: Sequence[Probe] = (
    Probe("repro.sim.scenario:Scenario.build", "scenario.build"),
    Probe(
        "repro.core.objective:ObjectiveEvaluator.evaluate_assignment",
        "objective.eval",
        tag=_objective_tag,
    ),
    Probe("repro.core.delta:DeltaEvaluator.evaluate_move", "delta.move"),
    Probe(
        "repro.core.neighborhood:NeighborhoodSampler.propose_move",
        "neighborhood.propose",
    ),
    Probe(
        "repro.core.annealing:ThresholdTriggeredAnnealer.run",
        "annealer.run",
        after=_iterations,
    ),
    Probe("repro.core.scheduler:TsajsScheduler.schedule", "scheduler.schedule", tag=_solve_tag),
    Probe("repro.core.sharding:partition_scenario", "partition.partition"),
    Probe("repro.core.sharding:extract_cluster_scenario", "partition.extract"),
    Probe("repro.core.sharding:external_interference", "partition.external_rx"),
    Probe("repro.core.sharding:ShardedScheduler.schedule", _SHARDING),
    Probe(
        "repro.sim.executors.pool:ProcessPoolSweepExecutor.run_wave",
        "executor.wave",
        after=_wave,
    ),
    Probe("repro.experiments.cache:ResultCache.lookup_seed", "cache.lookup", after=_lookup),
    Probe("repro.experiments.cache:ResultCache.record_seed", "cache.record"),
    Probe("repro.sim.runner:run_schemes", "runner.run_schemes"),
)

#: Per-cell ``wall_time_s`` of each scheme, as reported by the workers.
CELL_METRICS = {
    "TSAJS": "scheduler.tsajs_cell_s",
    "hJTORA": "baselines.hjtora_s",
    "LocalSearch": "baselines.localsearch_s",
    "Greedy": "baselines.greedy_s",
}


def _stat(stats: Dict[Any, Stat], name: str, tag: str = "") -> Stat:
    return stats.get((name, tag), Stat())


def layer_metrics(
    spans: Sequence[Span],
    n_ops: int,
    untraced_s: float,
    traced_s: float,
) -> Dict[str, float]:
    """Per-layer metrics, per traced operation, from one traced run.

    Spans of requests ``op-*`` are the traced operations; the
    ``setup`` request gives the scenario build time.
    """
    ops = aggregate(spans, requests=lambda r: r.startswith("op-"))
    setup = aggregate(spans, requests=lambda r: r == "setup")
    self_s = self_time_by_name(ops)
    per_op: Dict[str, float] = {}

    def put(name: str, value: float) -> None:
        per_op[name] = value / n_ops

    evals = _stat(ops, "objective.eval")
    global_evals = _stat(ops, "objective.eval", "global")
    put("objective.eval_s", evals.self_s)
    put("objective.evals", evals.calls)
    put("objective.global_eval_s", global_evals.self_s)
    put("objective.global_evals", global_evals.calls)
    put("delta.move_s", _stat(ops, "delta.move").self_s)
    put("delta.moves", _stat(ops, "delta.move").calls)
    put("neighborhood.propose_s", _stat(ops, "neighborhood.propose").self_s)
    put("neighborhood.proposals", _stat(ops, "neighborhood.propose").calls)
    put("annealer.self_s", self_s.get("annealer.run", 0.0))
    put("annealer.iterations", _stat(ops, "annealer.run").counts.get("iterations", 0.0))
    put("scheduler.self_s", self_s.get("scheduler.schedule", 0.0))
    put("partition.partition_s", _stat(ops, "partition.partition").total_s)
    put("partition.extract_s", _stat(ops, "partition.extract").total_s)
    put("partition.external_rx_s", _stat(ops, "partition.external_rx").total_s)
    put("sharding.self_s", self_s.get(_SHARDING, 0.0))
    for kind in ("cluster", "reconcile"):
        solves = _stat(ops, "scheduler.schedule", kind)
        put(f"sharding.{kind}_solve_s", solves.total_s)
        put(f"sharding.{kind}_solves", solves.calls)

    waves = _stat(ops, "executor.wave")
    for scheme, name in CELL_METRICS.items():
        put(name, waves.counts.get("cell_s." + scheme, 0.0))
    put("executor.wave_s", waves.total_s)
    put("executor.waves", waves.calls)
    capacity = sum(
        (s.counts or {}).get("workers", 0.0) * (s.end - s.start)
        for s in spans
        if s.name == "executor.wave" and s.request.startswith("op-")
    )
    per_op["executor.idle_share"] = (
        1.0 - waves.counts.get("cell_s", 0.0) / capacity if capacity > 0 else 0.0
    )

    lookups = _stat(ops, "cache.lookup")
    hits = lookups.counts.get("hits", 0.0)
    misses = lookups.counts.get("misses", 0.0)
    put("cache.lookup_s", lookups.total_s)
    put("cache.record_s", _stat(ops, "cache.record").total_s)
    put("cache.hits", hits)
    put("cache.misses", misses)
    per_op["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    put("runner.self_s", self_s.get("runner.run_schemes", 0.0))

    per_op["scenario.build_s"] = _stat(setup, "scenario.build").total_s
    per_op["trace.untraced_op_s"] = untraced_s
    per_op["trace.traced_op_s"] = traced_s
    per_op["trace.overhead_share"] = traced_s / untraced_s - 1.0
    return per_op


def layer_table(spans: Sequence[Span]) -> List[str]:
    """Human-readable self time by span name over the traced operations."""
    ops = aggregate(spans, requests=lambda r: r.startswith("op-"))
    rows = sorted(ops.items(), key=lambda item: -item[1].self_s)
    lines = [f"{'span':<32} {'tag':<10} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
    for (name, tag), stat in rows:
        lines.append(
            f"{name:<32} {tag:<10} {stat.calls:>9d} {stat.total_s:>10.4f} {stat.self_s:>10.4f}"
        )
    return lines
