"""The benchmark's three workloads, each driven through a public entry point.

* ``solve`` — ``TsajsScheduler().schedule`` at its defaults (paper
  schedule, scalar evaluator) over a list with equal numbers of
  U=200/S=9/N=20 and U=400/S=10/N=50 instances.
* ``shard-metro`` — ``ShardedScheduler.schedule`` on the U=1440 metro
  instance of ``benchmarks/bench_shard.py`` (144 stations, 2 km tiles,
  1 km interference radius, quick schedule, delta evaluator) and on one
  seed-drawn instance of the same deployment.
* ``sweep-resume`` — ``run_schemes`` of the Fig. 4 point (U=90, S=9,
  N=3, w=1000 Mc, L=10) over 6 seeds on ``ProcessPoolSweepExecutor(2)``,
  resuming from a fresh copy of a ``ResultCache`` that holds the
  seed-drawn half, so every call computes Fig. 4's seeds 2025-2027.

Every workload has the same life cycle, driven by ``run.py``:
``setup()`` builds the instances and Greedy references (timed as
set-up), ``prepare()`` does untimed per-operation housekeeping,
``run_op(between)`` is the timed operation: it leaves the time of each
public call it made in ``part_s`` and hands that time to ``between``
after the call (``run.py`` samples the host's speed there),
``check_op()`` checks its answers and
counts attempts and failures, ``verify()`` runs checks too costly for
every operation, and ``quality()`` reports the answer quality beside
the times.  One caller, closed loop: the next operation starts when the
previous one has returned.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from checks import (
    answer_digest,
    cell_signature,
    check_answer,
    check_cells,
    check_nondegenerate,
    check_repeat,
)
from repro.baselines import GreedyScheduler
from repro.core.annealing import AnnealingSchedule
from repro.core.scheduler import ScheduleResult, Scheduler, TsajsScheduler
from repro.core.sharding import ShardedScheduler
from repro.experiments.cache import ResultCache
from repro.experiments.common import standard_schedulers
from repro.sim import runner
from repro.sim.config import SimulationConfig
from repro.sim.executors.pool import ProcessPoolSweepExecutor
from repro.sim.metrics import solution_metrics
from repro.sim.rng import child_rng
from repro.sim.scenario import Scenario

#: RNG stream a scheme solves with: the runner gives scheduler ``i``
#: stream ``100 + i``, and every timed solve here is "scheduler 0".
SOLVER_STREAM = 100

#: ``solve`` shapes (U, S, N).  U=400/S=10/N=50 is kept on purpose: the
#: paper schedule returns all-local there while Greedy offloads.
SOLVE_SHAPES: Tuple[Tuple[int, int, int], ...] = ((200, 9, 20), (400, 10, 50))

#: Fixed ``solve`` instances the quality metrics are computed on, one
#: per shape.  TSAJS falls back to all-local on a U=200 instance about
#: one time in three, so quality over seed-drawn instances spreads far
#: wider than any bound; a fixed panel keeps it a steady gate.  Timing
#: uses the panel plus one seed-drawn instance per shape.
SOLVE_PANEL_SEEDS: Tuple[int, ...] = (1,)

#: The ``shard-metro`` deployment (``benchmarks/bench_shard.py``).
METRO_STATIONS = 144
METRO_USERS_PER_STATION = 10
METRO_CLUSTER_RADIUS_KM = 2.0
METRO_INTERFERENCE_RADIUS_KM = 1.0
METRO_SCHEDULE = AnnealingSchedule(chain_length=10, min_temperature=1e-1)
#: Fixed ``shard-metro`` instances solved beside the seed-drawn one:
#: ``bench_shard``'s own seed.  Solve time varies about 7% and the
#: Greedy gap about 4% from one drawn instance to the next; a fixed
#: half steadies both.  Quality is scored on all of them.
METRO_PANEL_SEEDS: Tuple[int, ...] = (1,)

#: The ``sweep-resume`` point: Fig. 4 at U=90, w=1000 Mc, L=10.
SWEEP_CONFIG = SimulationConfig(n_users=90, workload_megacycles=1000.0)
SWEEP_CHAIN_LENGTH = 10
SWEEP_MIN_TEMPERATURE = 1e-9
#: The half every timed call computes: Fig. 4's first three seeds, so
#: every call does the same work (cell cost varies about 20% from seed
#: to seed).  They are also the quality panel: seed 2025 is where TSAJS
#: trails Greedy most (9.71 vs 13.77), and a seed-drawn seed can fall
#: back to all-local, which would spread quality past its bound.  The
#: cached half is drawn from the benchmark seed and computed in set-up.
SWEEP_COMPUTED_SEEDS: Tuple[int, ...] = (2025, 2026, 2027)
SWEEP_N_JOBS = 2
#: Schemes recomputed in-process after the measured phase to validate
#: the cells the pool workers returned (hJTORA is left out: at ~2 s a
#: cell it would double the run).
SWEEP_VERIFIED = ("TSAJS", "LocalSearch", "Greedy")


def derived_seeds(seed: int, salt: int, count: int) -> List[int]:
    """``count`` instance seeds drawn from the benchmark seed."""
    rng = np.random.default_rng([seed, salt])
    return [int(s) for s in rng.integers(10_000, 2**31 - 1, size=count)]


@dataclass
class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def add(self, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


@dataclass
class Quality:
    """Answer quality against the Greedy reference on the same instances."""

    tsajs_utility: float
    greedy_utility: float
    answers: int
    fallbacks: int

    @property
    def utility_vs_greedy(self) -> float:
        return self.tsajs_utility / self.greedy_utility

    @property
    def fallback_share(self) -> float:
        return self.fallbacks / self.answers


@dataclass
class Instance:
    """One generated instance plus its Greedy reference."""

    label: str
    scenario: Scenario
    seed: int
    greedy: ScheduleResult
    panel: bool

    @property
    def problems(self) -> List[str]:
        return check_nondegenerate(self.label, self.greedy)


def build_instance(
    label: str, config: SimulationConfig, seed: int, panel: bool
) -> Instance:
    scenario = Scenario.build(config, seed=seed)
    greedy = GreedyScheduler().schedule(scenario)
    return Instance(label, scenario, seed, greedy, panel)


Plan = List[Tuple[str, SimulationConfig, int, bool]]
Answer = Union[ScheduleResult, Exception]
#: Called after each public call of an operation with its seconds.
Between = Callable[[float], object]


def ignore(call_s: float) -> None:
    pass


class SolverWorkload:
    """Solve a fixed list of instances with one scheduler, one call each.

    One operation is one pass over the list; its rate is solves per
    second.  The quality metrics use the instances marked ``panel``.
    """

    def __init__(
        self, name: str, plan: Plan, make_scheduler: Callable[[], Scheduler]
    ) -> None:
        self.name = name
        self.plan = plan
        self.make_scheduler = make_scheduler
        self.instances: List[Instance] = []
        self.digests: Dict[str, str] = {}
        self.answers: Dict[str, ScheduleResult] = {}
        self.part_s: List[Tuple[str, float]] = []

    @property
    def units_per_op(self) -> int:
        return len(self.plan)

    def setup(self) -> None:
        self.instances = [build_instance(*entry) for entry in self.plan]

    def prepare(self) -> None:
        pass

    def run_op(self, between: Between = ignore) -> List[Answer]:
        answers: List[Answer] = []
        self.part_s = []
        for instance in self.instances:
            start = time.perf_counter()
            try:
                answers.append(
                    self.make_scheduler().schedule(
                        instance.scenario, child_rng(instance.seed, SOLVER_STREAM)
                    )
                )
            except Exception as exc:  # counted as a failed operation
                answers.append(exc)
            self.part_s.append((instance.label, time.perf_counter() - start))
            between(self.part_s[-1][1])
        return answers

    def check_op(self, answers: List[Answer], tally: Tally) -> None:
        for instance, answer in zip(self.instances, answers):
            if isinstance(answer, Exception):
                tally.add([f"{instance.label}: {type(answer).__name__}: {answer}"])
                continue
            tally.add(
                instance.problems
                + check_answer(instance.scenario, answer)
                + check_repeat(instance.label, self.digests, answer_digest(answer))
            )
            self.answers.setdefault(instance.label, answer)

    def verify(self, tally: Tally) -> None:
        pass

    def quality(self, panel_only: bool = True) -> Quality:
        panel = [
            i
            for i in self.instances
            if (i.panel or not panel_only) and i.label in self.answers
        ]
        return Quality(
            tsajs_utility=sum(self.answers[i.label].utility for i in panel),
            greedy_utility=sum(i.greedy.utility for i in panel),
            answers=len(panel),
            fallbacks=sum(
                1 for i in panel if self.answers[i.label].decision.n_offloaded() == 0
            ),
        )

    def digest(self) -> str:
        return " ".join(self.digests[i.label][:12] for i in self.instances)

    def close(self) -> None:
        pass


def solve_workload(seed: int) -> SolverWorkload:
    plan: Plan = []
    drawn = derived_seeds(seed, 1, len(SOLVE_SHAPES))
    for (users, servers, bands), own_seed in zip(SOLVE_SHAPES, drawn):
        config = SimulationConfig(n_users=users, n_servers=servers, n_subbands=bands)
        shape = f"U{users}/S{servers}/N{bands}"
        for panel_seed in SOLVE_PANEL_SEEDS:
            plan.append((f"{shape} panel seed {panel_seed}", config, panel_seed, True))
        plan.append((f"{shape} seed {own_seed}", config, own_seed, False))
    return SolverWorkload("solve", plan, TsajsScheduler)


def metro_scheduler() -> ShardedScheduler:
    return ShardedScheduler(
        cluster_radius_km=METRO_CLUSTER_RADIUS_KM,
        interference_radius_km=METRO_INTERFERENCE_RADIUS_KM,
        schedule=METRO_SCHEDULE,
        use_delta=True,
    )


def shard_metro_workload(seed: int) -> SolverWorkload:
    config = SimulationConfig(
        n_users=METRO_STATIONS * METRO_USERS_PER_STATION,
        n_servers=METRO_STATIONS,
        interference_radius_km=METRO_INTERFERENCE_RADIUS_KM,
        cluster_radius_km=METRO_CLUSTER_RADIUS_KM,
    )
    (own_seed,) = derived_seeds(seed, 2, 1)
    shape = f"metro U{config.n_users}/S{METRO_STATIONS}"
    plan: Plan = [
        (f"{shape} panel seed {panel_seed}", config, panel_seed, True)
        for panel_seed in METRO_PANEL_SEEDS
    ]
    plan.append((f"{shape} seed {own_seed}", config, own_seed, True))
    return SolverWorkload("shard-metro", plan, metro_scheduler)


class SweepResumeWorkload:
    """One ``run_schemes`` call resuming from a half-filled result cache.

    One operation is one call; its rate is (scheme, seed) cells returned
    per second, pool start-up and shut-down included.  The cache copy is
    made before the clock starts.
    """

    name = "sweep-resume"

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.config = SWEEP_CONFIG
        self.schedulers = standard_schedulers(
            chain_length=SWEEP_CHAIN_LENGTH, min_temperature=SWEEP_MIN_TEMPERATURE
        )
        self.names = [s.name for s in self.schedulers]
        self.cached_seeds = derived_seeds(seed, 3, len(SWEEP_COMPUTED_SEEDS))
        self.seeds = list(SWEEP_COMPUTED_SEEDS) + self.cached_seeds
        self.work_dir = work_dir
        self.template = work_dir / "template"
        self.op_dir = work_dir / "op"
        self.instances: Dict[int, Instance] = {}
        self.seen: Dict[Tuple[str, int], Tuple[Tuple[str, bytes], ...]] = {}
        self.first: Optional[runner.ExperimentResult] = None
        self.part_s: List[Tuple[str, float]] = []

    @property
    def units_per_op(self) -> int:
        return len(self.names) * len(self.seeds)

    def _run(self, seeds: Sequence[int], cache_dir: Path) -> runner.ExperimentResult:
        return runner.run_schemes(
            self.config,
            self.schedulers,
            seeds,
            journal=ResultCache(cache_dir),
            executor=ProcessPoolSweepExecutor(SWEEP_N_JOBS),
        )

    def setup(self) -> None:
        self.instances = {
            seed: build_instance(f"sweep seed {seed}", self.config, seed, True)
            for seed in self.seeds
        }
        shutil.rmtree(self.template, ignore_errors=True)
        self._run(self.cached_seeds, self.template)

    def prepare(self) -> None:
        shutil.rmtree(self.op_dir, ignore_errors=True)
        shutil.copytree(self.template, self.op_dir)

    def run_op(
        self, between: Between = ignore
    ) -> Union[runner.ExperimentResult, Exception]:
        start = time.perf_counter()
        try:
            result: Union[runner.ExperimentResult, Exception] = self._run(
                self.seeds, self.op_dir
            )
        except Exception as exc:  # counted as failed cells
            result = exc
        self.part_s = [("run_schemes", time.perf_counter() - start)]
        between(self.part_s[0][1])
        return result

    def check_op(
        self, result: Union[runner.ExperimentResult, Exception], tally: Tally
    ) -> None:
        if isinstance(result, Exception):
            for _ in range(self.units_per_op):
                tally.add([f"run_schemes: {type(result).__name__}: {result}"])
            return
        by_cell: Dict[Tuple[str, int], List[str]] = {
            (name, seed): list(self.instances[seed].problems)
            for name in self.names
            for seed in self.seeds
        }
        failed_seeds = [f.seed for f in result.failures]
        for scheme, seed, problem in check_cells(
            result.metrics, failed_seeds, self.names, self.seeds, self.seen
        ):
            by_cell[(scheme, seed)].append(f"{scheme} seed {seed}: {problem}")
        if "TSAJS" in result.metrics and not failed_seeds:
            for seed, cell in zip(self.seeds, result.metrics["TSAJS"]):
                if not cell.system_utility >= 0.0:
                    by_cell[("TSAJS", seed)].append(
                        f"TSAJS seed {seed}: negative utility {cell.system_utility!r}"
                    )
        for problems in by_cell.values():
            tally.add(problems)
        if self.first is None and not any(by_cell.values()):
            self.first = result

    def verify(self, tally: Tally) -> None:
        """Recompute the cheap schemes in-process and compare bit for bit."""
        for seed in self.seeds:
            scenario = self.instances[seed].scenario
            for index, scheduler in enumerate(self.schedulers):
                if scheduler.name not in SWEEP_VERIFIED:
                    continue
                result = scheduler.schedule(
                    scenario, child_rng(seed, SOLVER_STREAM + index)
                )
                problems = check_answer(scenario, result)
                reference = cell_signature(solution_metrics(scenario, result))
                if self.seen.get((scheduler.name, seed)) != reference:
                    problems.append(
                        f"{scheduler.name} seed {seed}: pool cell differs from "
                        "the in-process recomputation"
                    )
                tally.add(problems)

    def quality(self, panel_only: bool = True) -> Quality:
        if self.first is None:
            raise RuntimeError("no fully correct run_schemes result to score")
        count = len(SWEEP_COMPUTED_SEEDS) if panel_only else len(self.seeds)
        tsajs = self.first.metrics["TSAJS"][:count]
        greedy = self.first.metrics["Greedy"][:count]
        return Quality(
            tsajs_utility=sum(c.system_utility for c in tsajs),
            greedy_utility=sum(c.system_utility for c in greedy),
            answers=len(tsajs),
            fallbacks=sum(
                1 for t, g in zip(tsajs, greedy) if t.n_offloaded == 0 < g.n_offloaded
            ),
        )

    def digest(self) -> str:
        cells = hashlib.sha256(repr(sorted(self.seen.items())).encode())
        return f"{len(self.seen)} cells {cells.hexdigest()[:12]}"

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)
