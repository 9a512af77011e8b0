"""Flow-layer tests: symbol table, call graph, taint, and rules R009-R012.

Fixture packages mirror the real ``repro`` layout (the engine maps any
``repro/...`` directory to package-relative module names), so resolution
against the blessed factories (``repro.sim.rng.make_rng`` etc.) works
exactly as it does on the shipped tree.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.engine import Project, _collect_files, _parse
from repro.lint.flow import analyze_project
from repro.lint.flow.taint import EXECUTOR, RNG, RNG_POOL, UNORDERED

RNG_MODULE = """\
import numpy as np


def make_rng(seed):
    return np.random.default_rng(seed)


def child_rng(seed, stream):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    )
"""

RECORDER_MODULE = """\
class Recorder:
    enabled = False
    iteration_detail = False

    def event(self, name, **fields):
        pass

    def gauge_set(self, name, value):
        pass


def get_recorder():
    return Recorder()
"""


def _write(root: Path, rel: str, source: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def _fixture_root(tmp_path: Path) -> Path:
    _write(tmp_path, "repro/__init__.py", "")
    _write(tmp_path, "repro/sim/__init__.py", "")
    _write(tmp_path, "repro/sim/rng.py", RNG_MODULE)
    _write(tmp_path, "repro/obs/__init__.py", "")
    _write(tmp_path, "repro/obs/recorder.py", RECORDER_MODULE)
    return tmp_path


def _build_project(root: Path) -> Project:
    project = Project()
    for path in _collect_files([root]):
        ctx, _ = _parse(path, root)
        if ctx is not None:
            project.contexts.append(ctx)
    return project


def _flow_findings(root: Path, rule_id: str):
    result = lint_paths([root], rule_ids=[rule_id], root=root)
    return [d for d in result.diagnostics if d.rule_id == rule_id]


class TestSymbolTable:
    def test_import_resolution_and_module_names(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/use.py",
            "from repro.sim.rng import make_rng as mk\n"
            "import numpy as np\n"
            "def f():\n"
            "    return mk(0)\n",
        )
        analysis = analyze_project(_build_project(root))
        symbols = analysis.symbols
        assert "repro.core.use" in symbols.modules
        assert symbols.resolve("repro.core.use", ("mk",)) == (
            "repro.sim.rng.make_rng"
        )
        assert symbols.resolve("repro.core.use", ("np", "sum")) == "numpy.sum"
        assert symbols.resolve("repro.core.use", ("nope",)) is None

    def test_function_level_imports_resolve(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/lazy.py",
            "def f():\n"
            "    from concurrent.futures import ProcessPoolExecutor\n"
            "    return ProcessPoolExecutor()\n",
        )
        analysis = analyze_project(_build_project(root))
        assert analysis.symbols.resolve(
            "repro.core.lazy", ("ProcessPoolExecutor",)
        ) == "concurrent.futures.ProcessPoolExecutor"

    def test_init_retention_detected(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/chain.py",
            "class Chain:\n"
            "    def __init__(self, rng, label):\n"
            "        self.rng = rng\n"
            "        self._name = str(label)\n"
            "\n"
            "class Transient:\n"
            "    def __init__(self, rng):\n"
            "        rng.random()\n",
        )
        analysis = analyze_project(_build_project(root))
        chain = analysis.symbols.class_info("repro.core.chain.Chain")
        assert chain is not None
        assert chain.retained_params == {"rng", "label"}
        transient = analysis.symbols.class_info("repro.core.chain.Transient")
        assert transient is not None
        assert transient.retained_params == set()

    def test_dataclass_fields_count_as_retained(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/dc.py",
            "from dataclasses import dataclass\n"
            "import numpy as np\n"
            "@dataclass\n"
            "class Holder:\n"
            "    rng: np.random.Generator\n"
            "    count: int = 0\n",
        )
        analysis = analyze_project(_build_project(root))
        holder = analysis.symbols.class_info("repro.core.dc.Holder")
        assert holder is not None
        assert "rng" in holder.retained_params


class TestCallGraph:
    def test_direct_and_method_edges(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/calls.py",
            "def leaf():\n"
            "    return 1\n"
            "def trunk():\n"
            "    return leaf()\n"
            "class K:\n"
            "    def a(self):\n"
            "        return self.b()\n"
            "    def b(self):\n"
            "        return trunk()\n",
        )
        analysis = analyze_project(_build_project(root))
        graph = analysis.callgraph
        assert "repro.core.calls.leaf" in graph.callees("repro.core.calls.trunk")
        assert "repro.core.calls.K.b" in graph.callees("repro.core.calls.K.a")
        reachable = graph.transitive("repro.core.calls.K.a")
        assert "repro.core.calls.leaf" in reachable

    def test_constructor_edge_lands_on_init(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/ctor.py",
            "class K:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
            "def build():\n"
            "    return K()\n",
        )
        analysis = analyze_project(_build_project(root))
        assert "repro.core.ctor.K.__init__" in analysis.callgraph.callees(
            "repro.core.ctor.build"
        )


class TestTaint:
    def test_rng_seeding_and_propagation(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/use.py",
            "from repro.sim.rng import make_rng\n"
            "def f(flag):\n"
            "    rng = make_rng(0)\n"
            "    alias = rng\n"
            "    chosen = alias if flag else rng\n"
            "    pool = rng.spawn(4)\n"
            "    one = pool[0]\n"
            "    value = rng.random()\n"
            "    return chosen, one, value\n",
        )
        analysis = analyze_project(_build_project(root))
        fnt = analysis.functions["repro.core.use.f"]
        assert RNG in fnt.names["rng"]
        assert RNG in fnt.names["alias"]
        assert RNG in fnt.names["chosen"]
        assert RNG_POOL in fnt.names["pool"]
        assert RNG in fnt.names["one"]
        # A draw result is data, not a stream.
        assert RNG not in fnt.names["value"]

    def test_return_taint_crosses_calls(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/factory.py",
            "from repro.sim.rng import child_rng\n"
            "def derive(seed):\n"
            "    return child_rng(seed, 7)\n"
            "def use(seed):\n"
            "    rng = derive(seed)\n"
            "    return rng\n",
        )
        analysis = analyze_project(_build_project(root))
        fnt = analysis.functions["repro.core.factory.use"]
        assert RNG in fnt.names["rng"]

    def test_param_taint_flows_from_call_sites(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/passer.py",
            "from repro.sim.rng import make_rng\n"
            "def consume(generator):\n"
            "    return generator.random()\n"
            "def produce():\n"
            "    return consume(make_rng(0))\n",
        )
        analysis = analyze_project(_build_project(root))
        fnt = analysis.functions["repro.core.passer.consume"]
        # 'generator' is neither annotated nor named rng-like; the
        # call-site fixpoint supplies its taint.
        assert RNG in fnt.names["generator"]

    def test_unordered_sources_and_sorted_cleanse(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/orders.py",
            "import os\n"
            "def f(xs):\n"
            "    raw = {x for x in xs}\n"
            "    listed = list(raw)\n"
            "    pinned = sorted(raw)\n"
            "    names = os.listdir('.')\n"
            "    return raw, listed, pinned, names\n",
        )
        analysis = analyze_project(_build_project(root))
        fnt = analysis.functions["repro.core.orders.f"]
        assert UNORDERED in fnt.names["raw"]
        assert UNORDERED in fnt.names["listed"]
        assert UNORDERED not in fnt.names["pinned"]
        assert UNORDERED in fnt.names["names"]

    def test_executor_taint_through_with(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/pools.py",
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def f():\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool\n",
        )
        analysis = analyze_project(_build_project(root))
        fnt = analysis.functions["repro.core.pools.f"]
        assert EXECUTOR in fnt.names["pool"]


class TestR009RngAliasing:
    def test_loop_shared_stream_fires(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/sim/bad.py",
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from repro.sim.rng import make_rng\n"
            "def work(rng):\n"
            "    return rng.random()\n"
            "def shared(n):\n"
            "    rng = make_rng(0)\n"
            "    out = []\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        for _ in range(n):\n"
            "            out.append(pool.submit(work, rng))\n"
            "    return out\n",
        )
        findings = _flow_findings(root, "R009")
        assert len(findings) == 1
        assert "bound outside this loop" in findings[0].message

    def test_two_retaining_constructors_fire(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/sim/twice.py",
            "from repro.sim.rng import make_rng\n"
            "class Chain:\n"
            "    def __init__(self, rng):\n"
            "        self.rng = rng\n"
            "def two():\n"
            "    rng = make_rng(1)\n"
            "    first = Chain(rng)\n"
            "    second = Chain(rng)\n"
            "    return first, second\n",
        )
        findings = _flow_findings(root, "R009")
        assert len(findings) == 1
        assert "second retaining call site" in findings[0].message

    def test_closure_capture_submission_fires(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/sim/closure.py",
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from repro.sim.rng import make_rng\n"
            "def f(n):\n"
            "    rng = make_rng(2)\n"
            "    def task():\n"
            "        return rng.random()\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return [pool.submit(task) for _ in range(n)]\n",
        )
        findings = _flow_findings(root, "R009")
        assert len(findings) == 1
        assert "closure 'task'" in findings[0].message

    def test_spawned_pool_per_chain_is_clean(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/sim/good.py",
            "from repro.sim.rng import make_rng\n"
            "class Chain:\n"
            "    def __init__(self, rng):\n"
            "        self.rng = rng\n"
            "def spawned(n):\n"
            "    rng = make_rng(0)\n"
            "    streams = rng.spawn(n)\n"
            "    return [Chain(streams[c]) for c in range(n)]\n"
            "def per_iteration(n):\n"
            "    chains = []\n"
            "    for c in range(n):\n"
            "        rng = make_rng(c)\n"
            "        chains.append(Chain(rng))\n"
            "    return chains\n",
        )
        assert _flow_findings(root, "R009") == []

    def test_non_retaining_constructor_is_clean(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/sim/transient.py",
            "from repro.sim.rng import make_rng\n"
            "class Sampler:\n"
            "    def __init__(self, rng):\n"
            "        self.first = rng.random()\n"
            "def two():\n"
            "    rng = make_rng(1)\n"
            "    return Sampler(rng), Sampler(rng)\n",
        )
        # __init__ draws but does not retain the stream: sequential use.
        assert _flow_findings(root, "R009") == []


class TestR010PoolCapture:
    def test_global_cache_mutation_fires(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/sim/cache.py",
            "from concurrent.futures import ProcessPoolExecutor\n"
            "_CACHE = {}\n"
            "def work(x):\n"
            "    _CACHE[x] = x * 2\n"
            "    return _CACHE[x]\n"
            "def run(xs):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return [pool.submit(work, x) for x in xs]\n",
        )
        findings = _flow_findings(root, "R010")
        assert len(findings) == 1
        assert "_CACHE" in findings[0].message

    def test_transitive_callee_mutation_fires(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/sim/deep.py",
            "from concurrent.futures import ProcessPoolExecutor\n"
            "_SEEN = []\n"
            "def helper(x):\n"
            "    _SEEN.append(x)\n"
            "def work(x):\n"
            "    helper(x)\n"
            "    return x\n"
            "def run(xs):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return [pool.submit(work, x) for x in xs]\n",
        )
        findings = _flow_findings(root, "R010")
        assert len(findings) == 1
        assert "_SEEN" in findings[0].message

    def test_read_only_globals_are_clean(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/sim/reads.py",
            "from concurrent.futures import ProcessPoolExecutor\n"
            "_TUNABLES = {'retries': 3}\n"
            "def work(x):\n"
            "    return x * _TUNABLES['retries']\n"
            "def run(xs):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return [pool.submit(work, x) for x in xs]\n",
        )
        assert _flow_findings(root, "R010") == []

    def test_unsubmitted_mutation_is_clean(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/sim/serial.py",
            "_CACHE = {}\n"
            "def memoise(x):\n"
            "    _CACHE[x] = x\n"
            "    return _CACHE[x]\n",
        )
        # Serial-only mutation is not this rule's concern.
        assert _flow_findings(root, "R010") == []

    def test_closure_mutating_captured_list_fires(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/sim/capture.py",
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(xs):\n"
            "    results = []\n"
            "    def task(x):\n"
            "        results.append(x)\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        for x in xs:\n"
            "            pool.submit(task, x)\n"
            "    return results\n",
        )
        findings = _flow_findings(root, "R010")
        assert len(findings) == 1
        assert "results" in findings[0].message


class TestR011UnorderedReduction:
    def test_sum_over_set_fires(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/analysis/bad.py",
            "def f(values):\n"
            "    return sum({v * 2.0 for v in values})\n",
        )
        findings = _flow_findings(root, "R011")
        assert len(findings) == 1
        assert "unordered iterable" in findings[0].message

    def test_accumulation_over_as_completed_fires(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/analysis/gather.py",
            "from concurrent.futures import as_completed\n"
            "def f(futures):\n"
            "    total = 0.0\n"
            "    for fut in as_completed(futures):\n"
            "        total += fut.result()\n"
            "    return total\n",
        )
        findings = _flow_findings(root, "R011")
        assert len(findings) == 1

    def test_sorted_cleanses(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/analysis/good.py",
            "from concurrent.futures import as_completed\n"
            "def f(values):\n"
            "    return sum(sorted({v * 2.0 for v in values}))\n"
            "def g(futures):\n"
            "    results = []\n"
            "    for fut in as_completed(futures):\n"
            "        results.append(fut.result())\n"
            "    return sum(sorted(results))\n",
        )
        assert _flow_findings(root, "R011") == []

    def test_taint_survives_list_wrapper(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/analysis/wrapped.py",
            "import os\n"
            "def f():\n"
            "    names = list(os.listdir('.'))\n"
            "    return sum(len(n) * 1.5 for n in names)\n",
        )
        # list() preserves the unordered directory order.
        findings = _flow_findings(root, "R011")
        assert len(findings) == 1


class TestR012TelemetryPurity:
    def test_draw_in_emission_argument_fires(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/emit.py",
            "from repro.obs.recorder import get_recorder\n"
            "def f(rng):\n"
            "    rec = get_recorder()\n"
            "    rec.event('step', jitter=rng.random())\n",
        )
        findings = _flow_findings(root, "R012")
        assert len(findings) == 1
        assert "emission argument" in findings[0].message

    def test_draw_under_derived_enable_flag_fires(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/guard.py",
            "from repro.obs.recorder import get_recorder\n"
            "def f(rng):\n"
            "    rec = get_recorder()\n"
            "    tracing = rec.enabled\n"
            "    if tracing:\n"
            "        noise = rng.random()\n"
            "        rec.event('noise', value=noise)\n",
        )
        findings = _flow_findings(root, "R012")
        assert len(findings) == 1
        assert "enable flag" in findings[0].message

    def test_mutating_evaluator_call_in_emission_fires(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/mutate.py",
            "from repro.obs.recorder import get_recorder\n"
            "def f(evaluator, decision):\n"
            "    rec = get_recorder()\n"
            "    rec.gauge_set('objective', evaluator.evaluate(decision))\n",
        )
        findings = _flow_findings(root, "R012")
        assert len(findings) == 1
        assert "evaluate" in findings[0].message

    @pytest.mark.parametrize(
        "call",
        [
            "evaluator.evaluate_assignment(server, channel)",
            "evaluator.evaluate_placements(server, channel, 0, [(0, 0)])",
        ],
        ids=["evaluate_assignment", "evaluate_placements"],
    )
    def test_scoring_call_in_emission_fires(self, tmp_path, call):
        # DeltaEvaluator syncs its cache on both: scoring is a mutation.
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/score.py",
            "from repro.obs.recorder import get_recorder\n"
            "def f(evaluator, server, channel):\n"
            "    rec = get_recorder()\n"
            f"    rec.gauge_set('objective', {call})\n",
        )
        findings = _flow_findings(root, "R012")
        assert len(findings) == 1
        assert call.split("(")[0].split(".")[1] in findings[0].message

    def test_precomputed_emission_is_clean(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/pure.py",
            "from repro.obs.recorder import get_recorder\n"
            "def f(rng, evaluator, decision):\n"
            "    value = rng.random()\n"
            "    objective = evaluator.evaluate(decision)\n"
            "    rec = get_recorder()\n"
            "    tracing = rec.enabled\n"
            "    if tracing:\n"
            "        rec.event('step', value=value)\n"
            "        rec.gauge_set('objective', objective)\n",
        )
        assert _flow_findings(root, "R012") == []


class TestFlowAnalysisCaching:
    def test_single_build_per_project(self, tmp_path):
        root = _fixture_root(tmp_path)
        project = _build_project(root)
        first = analyze_project(project)
        second = analyze_project(project)
        assert first is second
        assert project.flow_cache is first
