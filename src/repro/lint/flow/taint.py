"""Taint/dataflow walker over the project call graph.

Tracks six taint kinds through assignments, comprehensions, conditional
expressions, containers, calls and returns:

* ``RNG`` — a single ``numpy.random.Generator`` stream, seeded at
  ``make_rng()``/``child_rng()`` calls and ``Generator``-annotated (or
  ``rng``-named) parameters;
* ``RNG_POOL`` — a collection of *distinct* streams (the result of
  ``rng.spawn(n)`` or a list/comprehension of fresh generators);
  indexing or iterating a pool yields a fresh ``RNG``, which is why
  ``streams[c]`` over spawned children is not an aliasing violation
  while reusing one ``rng`` across chains is;
* ``EXECUTOR`` — a process/thread pool, seeded at
  ``ProcessPoolExecutor(...)`` constructions and ``Executor``-annotated
  parameters;
* ``RECORDER`` — the observability recorder (``get_recorder()`` /
  ``Recorder`` annotations);
* ``ENABLED_FLAG`` — a boolean derived from ``recorder.enabled`` /
  ``recorder.iteration_detail``; code guarded by such a flag runs only
  when tracing, so any RNG draw or evaluator mutation under it breaks
  traced==untraced bitwise identity;
* ``UNORDERED`` — an iterable with no deterministic order (set
  displays/constructors, ``as_completed``, ``os.listdir``, ``glob``,
  ``Path.iterdir``); ``sorted(...)`` cleanses it, ``list()`` and
  comprehensions preserve it.

The analysis is *flow-insensitive within a function* (a name carries the
union of every kind ever assigned to it) but *inter-procedural across
the project*: a fixpoint over the call graph propagates argument taint
into parameters, return taint back to call sites, and ``self.attr``
taint across the methods of a class.  Loop-carried sharing is detected
structurally: each name records the deepest loop level at which it is
bound, and the CFG-lite reports the loop depth of every use site.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.astutil import dotted_name
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.cfg import FunctionCFG
from repro.lint.flow.symbols import FunctionInfo, SymbolTable

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

# Taint kinds.
RNG = "rng"
RNG_POOL = "rng_pool"
EXECUTOR = "executor"
RECORDER = "recorder"
ENABLED_FLAG = "enabled_flag"
UNORDERED = "unordered"

#: Stream factories: the project's blessed helpers plus the raw numpy
#: constructor they wrap (so taint still seeds in fixture trees and in
#: code that has not been migrated to the helpers yet).
RNG_FACTORIES = {
    "repro.sim.rng.make_rng",
    "repro.sim.rng.child_rng",
    "numpy.random.default_rng",
    "numpy.random.Generator",
}

EXECUTOR_FACTORIES = {
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "concurrent.futures.thread.ThreadPoolExecutor",
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
}

RECORDER_FACTORIES = {"repro.obs.recorder.get_recorder"}

#: Callables returning inherently unordered iterables.
UNORDERED_FACTORIES = {
    "os.listdir",
    "os.scandir",
    "glob.glob",
    "glob.iglob",
    "concurrent.futures.as_completed",
}

#: Method names yielding unordered iterables on any receiver.
_UNORDERED_METHODS = {"iterdir"}

#: Generator attributes that are *not* entropy draws.
NON_DRAW_RNG_ATTRS = {"spawn", "bit_generator"}

_GENERATOR_ANNOTATION = re.compile(r"\bGenerator\b")
_RECORDER_ANNOTATION = re.compile(r"\bRecorder\b")
_EXECUTOR_ANNOTATION = re.compile(r"\bExecutor\b")


@dataclass
class CallRecord:
    """One call site inside a function, with its resolution."""

    node: ast.Call
    #: Absolute dotted target, or ``None`` for unresolvable callees.
    target: Optional[str]


@dataclass
class FunctionTaint:
    """Per-function dataflow facts."""

    info: FunctionInfo
    cfg: FunctionCFG
    #: Union taint kinds per local name (parameters included).
    names: Dict[str, Set[str]] = field(default_factory=dict)
    #: Deepest loop level at which each name is (re)bound; a use at a
    #: strictly greater depth re-reads the *same* binding every
    #: iteration.
    binding_depth: Dict[str, int] = field(default_factory=dict)
    #: Union taint of every ``return`` expression.
    returns: Set[str] = field(default_factory=set)
    #: Resolved call sites, in source order.
    calls: List[CallRecord] = field(default_factory=list)

    def add_name(self, name: str, kinds: Set[str], depth: int) -> bool:
        """Merge kinds/depth for a binding; True when anything changed."""
        changed = False
        existing = self.names.setdefault(name, set())
        if not kinds <= existing:
            existing.update(kinds)
            changed = True
        previous = self.binding_depth.get(name)
        if previous is None or depth > previous:
            self.binding_depth[name] = depth
            changed = previous is None or bool(self.names[name])
        return changed


class TaintAnalysis:
    """Inter-procedural taint over every function in the project."""

    def __init__(self, symbols: SymbolTable, callgraph: CallGraph) -> None:
        self.symbols = symbols
        self.callgraph = callgraph
        self.functions: Dict[str, FunctionTaint] = {}
        #: Class attribute taint: ``"mod.Class" -> {"attr": kinds}``.
        self.class_attrs: Dict[str, Dict[str, Set[str]]] = {}
        #: Extra parameter kinds discovered at call sites.
        self._param_seeds: Dict[str, Dict[str, Set[str]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, symbols: SymbolTable, callgraph: CallGraph) -> "TaintAnalysis":
        analysis = cls(symbols, callgraph)
        infos = symbols.all_functions()
        for info in infos:
            analysis.functions[info.qualified] = FunctionTaint(
                info=info, cfg=FunctionCFG.build(info.node)
            )
        # Fixpoint: local passes interleaved with call-site/param,
        # return and self-attribute propagation until nothing changes
        # (bounded — the kind lattice is tiny, so this converges fast).
        for _ in range(8):
            changed = False
            for info in infos:
                if analysis._local_pass(analysis.functions[info.qualified]):
                    changed = True
            if analysis._propagate_call_sites():
                changed = True
            if not changed:
                break
        return analysis

    def _seed_params(self, fnt: FunctionTaint) -> None:
        args = fnt.info.node.args
        params = list(args.posonlyargs + args.args + args.kwonlyargs)
        for param in params:
            kinds: Set[str] = set()
            annotation = param.annotation
            if annotation is not None:
                try:
                    text = ast.unparse(annotation)
                except Exception:  # pragma: no cover - malformed annotation
                    text = ""
                if _GENERATOR_ANNOTATION.search(text):
                    kinds.add(RNG)
                if _RECORDER_ANNOTATION.search(text):
                    kinds.add(RECORDER)
                if _EXECUTOR_ANNOTATION.search(text):
                    kinds.add(EXECUTOR)
            elif param.arg == "rng" or param.arg.endswith("_rng"):
                # Unannotated but idiomatically named stream parameters.
                kinds.add(RNG)
            elif param.arg in ("executor", "pool"):
                kinds.add(EXECUTOR)
            kinds |= self._param_seeds.get(fnt.info.qualified, {}).get(
                param.arg, set()
            )
            if kinds:
                fnt.add_name(param.arg, kinds, depth=0)
            else:
                fnt.names.setdefault(param.arg, set())
                fnt.binding_depth.setdefault(param.arg, 0)

    def _local_pass(self, fnt: FunctionTaint) -> bool:
        """One statement sweep; returns True when facts changed."""
        before = (
            {k: set(v) for k, v in fnt.names.items()},
            set(fnt.returns),
        )
        fnt.calls = []
        self._seed_params(fnt)
        for node in fnt.cfg.statements():
            self._transfer(fnt, node.stmt, node.loop_depth)
        after = ({k: set(v) for k, v in fnt.names.items()}, set(fnt.returns))
        return before != after

    # ------------------------------------------------------------------
    # Statement transfer
    # ------------------------------------------------------------------

    def _transfer(self, fnt: FunctionTaint, stmt: ast.stmt, depth: int) -> None:
        for call in self._own_calls(stmt):
            target = self._resolve_call(fnt, call)
            fnt.calls.append(CallRecord(node=call, target=target))
        if isinstance(stmt, ast.Assign):
            kinds = self.kinds_of(fnt, stmt.value)
            for target in stmt.targets:
                self._bind_target(fnt, target, kinds, stmt.value, depth)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            kinds = self.kinds_of(fnt, stmt.value)
            self._bind_target(fnt, stmt.target, kinds, stmt.value, depth)
        elif isinstance(stmt, ast.AugAssign):
            kinds = self.kinds_of(fnt, stmt.value)
            if isinstance(stmt.target, ast.Name):
                fnt.add_name(stmt.target.id, kinds, depth)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_kinds = self.kinds_of(fnt, stmt.iter)
            element: Set[str] = set()
            if RNG_POOL in iter_kinds:
                element.add(RNG)
            if UNORDERED in iter_kinds:
                element.add(UNORDERED)
            # The loop target is rebound every iteration: bind at body
            # depth so pool elements count as fresh streams.
            self._bind_target(fnt, stmt.target, element, None, depth + 1)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    kinds = self.kinds_of(fnt, item.context_expr)
                    self._bind_target(
                        fnt, item.optional_vars, kinds, item.context_expr, depth
                    )
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            fnt.returns |= self.kinds_of(fnt, stmt.value)

    def _bind_target(
        self,
        fnt: FunctionTaint,
        target: ast.expr,
        kinds: Set[str],
        value: Optional[ast.expr],
        depth: int,
    ) -> None:
        if isinstance(target, ast.Name):
            fnt.add_name(target.id, kinds, depth)
        elif isinstance(target, (ast.Tuple, ast.List)):
            # Unpacking a pool (``a, b = rng.spawn(2)``) gives each
            # element a distinct stream.
            element = set(kinds)
            if RNG_POOL in element:
                element.discard(RNG_POOL)
                element.add(RNG)
            for elt in target.elts:
                self._bind_target(fnt, elt, element, None, depth)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and fnt.info.class_name is not None
        ):
            class_key = f"{fnt.info.module}.{fnt.info.class_name}"
            attrs = self.class_attrs.setdefault(class_key, {})
            attrs.setdefault(target.attr, set()).update(kinds)

    @staticmethod
    def _own_calls(stmt: ast.stmt) -> List[ast.Call]:
        """Call nodes inside this statement's expressions (not nested defs)."""
        calls: List[ast.Call] = []
        stack: List[ast.AST] = [stmt]
        first = True
        while stack:
            node = stack.pop()
            if not first and isinstance(node, ast.stmt):
                continue
            first = False
            if isinstance(node, ast.Call):
                calls.append(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
        calls.reverse()
        return calls

    # ------------------------------------------------------------------
    # Expression taint
    # ------------------------------------------------------------------

    def kinds_of(self, fnt: FunctionTaint, expr: ast.expr) -> Set[str]:
        """Union taint kinds of one expression in this function."""
        if isinstance(expr, ast.Name):
            return set(fnt.names.get(expr.id, set()))
        if isinstance(expr, ast.Call):
            return self._call_kinds(fnt, expr)
        if isinstance(expr, ast.Attribute):
            base = self.kinds_of(fnt, expr.value)
            if RECORDER in base and expr.attr in ("enabled", "iteration_detail"):
                return {ENABLED_FLAG}
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and fnt.info.class_name is not None
            ):
                class_key = f"{fnt.info.module}.{fnt.info.class_name}"
                return set(self.class_attrs.get(class_key, {}).get(expr.attr, set()))
            return set()
        if isinstance(expr, ast.Subscript):
            base = self.kinds_of(fnt, expr.value)
            result: Set[str] = set()
            if RNG_POOL in base:
                result.add(RNG)
            if UNORDERED in base:
                result.add(UNORDERED)
            return result
        if isinstance(expr, (ast.Tuple, ast.List)):
            kinds: Set[str] = set()
            for elt in expr.elts:
                kinds |= self.kinds_of(fnt, elt)
            if RNG in kinds:
                # A container of streams is a pool, not a stream.
                kinds.discard(RNG)
                kinds.add(RNG_POOL)
            return kinds
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return {UNORDERED}
        if isinstance(expr, ast.DictComp):
            return (
                {UNORDERED}
                if UNORDERED in self.kinds_of(fnt, expr.generators[0].iter)
                else set()
            )
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            kinds = set()
            if UNORDERED in self.kinds_of(fnt, expr.generators[0].iter):
                kinds.add(UNORDERED)
            element = self._comprehension_element_kinds(fnt, expr)
            if RNG in element:
                kinds.add(RNG_POOL)
            return kinds
        if isinstance(expr, ast.IfExp):
            return self.kinds_of(fnt, expr.body) | self.kinds_of(fnt, expr.orelse)
        if isinstance(expr, ast.BoolOp):
            kinds = set()
            for value in expr.values:
                kinds |= self.kinds_of(fnt, value)
            return kinds
        if isinstance(expr, ast.BinOp):
            return self.kinds_of(fnt, expr.left) | self.kinds_of(fnt, expr.right)
        if isinstance(expr, ast.Starred):
            return self.kinds_of(fnt, expr.value)
        if isinstance(expr, ast.NamedExpr):
            return self.kinds_of(fnt, expr.value)
        if isinstance(expr, ast.Await):
            return self.kinds_of(fnt, expr.value)
        return set()

    def _comprehension_element_kinds(
        self, fnt: FunctionTaint, expr: Union[ast.ListComp, ast.GeneratorExp]
    ) -> Set[str]:
        """Taint of the produced elements (comprehension targets bound)."""
        scratch = FunctionTaint(info=fnt.info, cfg=fnt.cfg)
        scratch.names = {k: set(v) for k, v in fnt.names.items()}
        for generator in expr.generators:
            iter_kinds = self.kinds_of(fnt, generator.iter)
            element: Set[str] = set()
            if RNG_POOL in iter_kinds:
                element.add(RNG)
            if UNORDERED in iter_kinds:
                element.add(UNORDERED)
            self._bind_target(scratch, generator.target, element, None, 1)
        return self.kinds_of(scratch, expr.elt)

    def _call_kinds(self, fnt: FunctionTaint, call: ast.Call) -> Set[str]:
        target = self._resolve_call(fnt, call)
        if target in RNG_FACTORIES:
            return {RNG}
        if target in EXECUTOR_FACTORIES:
            return {EXECUTOR}
        if target in RECORDER_FACTORIES:
            return {RECORDER}
        if target in UNORDERED_FACTORIES:
            return {UNORDERED}
        name = dotted_name(call.func)
        if name == ("set",) or name == ("frozenset",):
            return {UNORDERED}
        if name == ("sorted",):
            # sorted() pins a deterministic order: cleanse UNORDERED.
            if call.args:
                return self.kinds_of(fnt, call.args[0]) - {UNORDERED}
            return set()
        if name in (("list",), ("tuple",), ("iter",), ("enumerate",), ("reversed",)):
            # Order-preserving wrappers keep the source's (non)ordering;
            # wrapping a pool keeps it a pool.
            if call.args:
                return self.kinds_of(fnt, call.args[0])
            return set()
        if isinstance(call.func, ast.Attribute):
            base = self.kinds_of(fnt, call.func.value)
            if RNG in base:
                if call.func.attr == "spawn":
                    return {RNG_POOL}
                return set()  # a draw: the result is data, not a stream
            if call.func.attr in _UNORDERED_METHODS:
                return {UNORDERED}
            if call.func.attr == "submit" and EXECUTOR in base:
                return set()
        if target is not None:
            callee = self.functions.get(target)
            if callee is not None:
                return set(callee.returns)
        return set()

    def _resolve_call(
        self, fnt: FunctionTaint, call: ast.Call
    ) -> Optional[str]:
        """Absolute dotted target of a call site (``self.m`` included)."""
        name = dotted_name(call.func)
        if name is None:
            return None
        if (
            name[0] == "self"
            and len(name) >= 2
            and fnt.info.class_name is not None
        ):
            return ".".join(
                (fnt.info.module, fnt.info.class_name) + name[1:]
            )
        return self.symbols.resolve(fnt.info.module, name)

    # ------------------------------------------------------------------
    # Inter-procedural propagation
    # ------------------------------------------------------------------

    def _propagate_call_sites(self) -> bool:
        """Push argument taint into callee parameters (one round)."""
        changed = False
        for qualified in sorted(self.functions):
            fnt = self.functions[qualified]
            for record in fnt.calls:
                if record.target is None:
                    continue
                callee, params, offset = self._callee_signature(record.target)
                if callee is None or params is None:
                    continue
                seeds = self._param_seeds.setdefault(callee, {})
                for position, arg in enumerate(record.node.args):
                    index = position + offset
                    if index >= len(params):
                        break
                    if self._seed_param(
                        seeds, params[index], self.kinds_of(fnt, arg)
                    ):
                        changed = True
                for keyword in record.node.keywords:
                    if keyword.arg is None:
                        continue
                    if keyword.arg in params and self._seed_param(
                        seeds, keyword.arg, self.kinds_of(fnt, keyword.value)
                    ):
                        changed = True
        return changed

    def _callee_signature(
        self, target: str
    ) -> Tuple[Optional[str], Optional[Sequence[str]], int]:
        """``(function qualname, parameter names, positional offset)``."""
        info = self.symbols.function(target)
        if info is not None:
            params = info.parameters()
            if info.is_method and params and params[0] == "self":
                return target, params[1:], 0
            return target, params, 0
        cls = self.symbols.class_info(target)
        if cls is not None:
            init = self.symbols.function(f"{target}.__init__")
            if init is not None:
                params = init.parameters()
                if params and params[0] == "self":
                    params = params[1:]
                return f"{target}.__init__", params, 0
            return None, None, 0
        return None, None, 0

    @staticmethod
    def _seed_param(
        seeds: Dict[str, Set[str]], param: str, kinds: Set[str]
    ) -> bool:
        relevant = kinds & {RNG, RNG_POOL, EXECUTOR, RECORDER, UNORDERED}
        if not relevant:
            return False
        existing = seeds.setdefault(param, set())
        if relevant <= existing:
            return False
        existing.update(relevant)
        return True

    # ------------------------------------------------------------------
    # Queries for the rules
    # ------------------------------------------------------------------

    def is_rng_draw(self, fnt: FunctionTaint, call: ast.Call) -> bool:
        """Whether a call consumes entropy from a tracked stream."""
        if not isinstance(call.func, ast.Attribute):
            return False
        if call.func.attr in NON_DRAW_RNG_ATTRS:
            return False
        return RNG in self.kinds_of(fnt, call.func.value)

    def is_emission(self, fnt: FunctionTaint, call: ast.Call) -> bool:
        """Whether a call emits telemetry through a recorder."""
        if not isinstance(call.func, ast.Attribute):
            return False
        if call.func.attr not in ("event", "span", "count", "observe", "gauge_set"):
            return False
        return RECORDER in self.kinds_of(fnt, call.func.value)
