"""R009 — no RNG stream may reach two concurrently-executed call sites.

Every stream in the project is a ``numpy.random.Generator`` whose draw
sequence *is* the experiment: two consumers sharing one stream interleave
their draws, and the interleaving depends on execution order — which a
process pool, a thread pool, or even a refactor of loop order does not
pin.  The reproduction contract therefore requires one stream per
concurrent consumer, derived through ``child_rng``/``spawn``.

This rule is inter-procedural: it uses the flow layer's taint analysis
to follow Generators from ``make_rng()``/``child_rng()`` (and
``Generator``-annotated parameters) to *retaining sinks* — places that
park a long-lived reference to the stream:

* arguments of ``executor.submit(...)`` / ``executor.map(...)`` — each
  submission may run concurrently with the others;
* constructor calls whose ``__init__`` assigns the parameter onto
  ``self`` (the symbol table records which parameters each class
  retains) — the object outlives the call and replays the stream later.

It fires when:

1. a stream bound *outside* a loop reaches a retaining sink *inside*
   the loop (every iteration shares the one stream);
2. the same stream name reaches two or more distinct retaining sinks;
3. a closure (nested ``def`` or ``lambda``) capturing a tainted stream
   is handed to an executor — the workers would all replay the same
   captured Generator.

Deriving fresh streams is never flagged: ``rng.spawn(n)`` produces a
pool whose elements are independent, so ``streams[c]`` / unpacking /
iterating a pool taints each element as a *fresh* stream.  This is
exactly the one-spawned-child-per-chain idiom and the runner idiom
(``child_rng(seed, stream)`` inside the worker).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Union

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import Project
from repro.lint.flow import analyze_project
from repro.lint.flow.taint import (
    EXECUTOR,
    RNG,
    CallRecord,
    FunctionTaint,
    TaintAnalysis,
)
from repro.lint.registry import register
from repro.lint.rules_base import Rule

#: Executor methods that schedule their callable for concurrent runs.
SUBMIT_METHODS = {"submit", "map", "apply_async", "map_async", "imap_unordered"}

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@register
class RngAliasingRule(Rule):
    rule_id = "R009"
    title = "one RNG stream per concurrent consumer"
    rationale = (
        "A Generator reaching two concurrently-executed call sites "
        "interleaves draws in scheduler-dependent order; derive a fresh "
        "stream per consumer with child_rng()/rng.spawn() instead."
    )

    def check_project(self, project: Project) -> Iterator[Diagnostic]:
        analysis = analyze_project(project)
        taint = analysis.taint
        for qualified in sorted(taint.functions):
            fnt = taint.functions[qualified]
            yield from self._check_function(taint, fnt)

    # ------------------------------------------------------------------

    def _check_function(
        self, taint: TaintAnalysis, fnt: FunctionTaint
    ) -> Iterator[Diagnostic]:
        nested = _nested_defs(fnt.info.node)
        #: rng name -> statement indices of retaining sinks it reached.
        sink_stmts: Dict[str, Set[int]] = {}
        for record in fnt.calls:
            call = record.node
            tainted_args = self._retained_rng_args(taint, fnt, record)
            if tainted_args is None:
                continue
            for arg in tainted_args:
                if isinstance(arg, ast.Name):
                    yield from self._check_loop_sharing(taint, fnt, call, arg)
                    stmts = sink_stmts.setdefault(arg.id, set())
                    stmts.add(fnt.cfg.statement_index_of(call))
                    if len(stmts) == 2:
                        yield fnt.info.ctx.diagnostic(
                            self.rule_id,
                            call,
                            f"RNG stream '{arg.id}' reaches a second "
                            "retaining call site; each concurrent consumer "
                            "needs its own stream (child_rng()/rng.spawn())",
                        )
            yield from self._check_closure_submission(taint, fnt, call, nested)

    def _retained_rng_args(
        self, taint: TaintAnalysis, fnt: FunctionTaint, record: CallRecord
    ) -> Optional[List[ast.expr]]:
        """RNG-tainted argument expressions parked by this call, if any.

        Returns ``None`` when the call is not a retaining sink at all,
        and a (possibly empty) list of tainted args when it is.
        """
        call = record.node
        target = record.target
        # Executor submission: every argument is handed to a worker.
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in SUBMIT_METHODS
            and EXECUTOR in taint.kinds_of(fnt, func.value)
        ):
            tainted = [
                arg
                for arg in list(call.args)
                + [kw.value for kw in call.keywords if kw.arg is not None]
                if RNG in taint.kinds_of(fnt, arg)
            ]
            return tainted
        # Constructor retention: only the parameters __init__ assigns
        # onto self park a reference.
        if target is not None:
            cls = taint.symbols.class_info(target)
            if cls is None and target.endswith(".__init__"):
                cls = taint.symbols.class_info(target[: -len(".__init__")])
            if cls is None:
                return None
            tainted = []
            for position, arg in enumerate(call.args):
                if position >= len(cls.init_params):
                    break
                if cls.init_params[position] in cls.retained_params and (
                    RNG in taint.kinds_of(fnt, arg)
                ):
                    tainted.append(arg)
            for keyword in call.keywords:
                if (
                    keyword.arg in cls.retained_params
                    and RNG in taint.kinds_of(fnt, keyword.value)
                ):
                    tainted.append(keyword.value)
            return tainted
        return None

    def _check_loop_sharing(
        self,
        taint: TaintAnalysis,
        fnt: FunctionTaint,
        call: ast.Call,
        arg: ast.Name,
    ) -> Iterator[Diagnostic]:
        use_depth = fnt.cfg.loop_depth_of(call)
        bind_depth = fnt.binding_depth.get(arg.id, 0)
        if use_depth > bind_depth:
            yield fnt.info.ctx.diagnostic(
                self.rule_id,
                call,
                f"RNG stream '{arg.id}' is bound outside this loop but "
                "retained inside it, so every iteration shares one "
                "stream; derive a per-iteration stream with "
                "child_rng()/rng.spawn() inside the loop",
            )

    def _check_closure_submission(
        self,
        taint: TaintAnalysis,
        fnt: FunctionTaint,
        call: ast.Call,
        nested: Dict[str, FunctionNode],
    ) -> Iterator[Diagnostic]:
        func = call.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in SUBMIT_METHODS
            and EXECUTOR in taint.kinds_of(fnt, func.value)
        ):
            return
        if not call.args:
            return
        callable_arg = call.args[0]
        body: Optional[ast.AST] = None
        label = ""
        if isinstance(callable_arg, ast.Lambda):
            body, label = callable_arg, "lambda"
        elif isinstance(callable_arg, ast.Name) and callable_arg.id in nested:
            body, label = nested[callable_arg.id], f"closure '{callable_arg.id}'"
        if body is None:
            return
        for free in _free_names(body):
            if RNG in fnt.names.get(free, set()):
                yield fnt.info.ctx.diagnostic(
                    self.rule_id,
                    call,
                    f"{label} submitted to the executor captures RNG "
                    f"stream '{free}'; workers would replay one shared "
                    "stream — pass a per-task seed/stream id and derive "
                    "the Generator inside the worker",
                )
                return


def _nested_defs(fn: FunctionNode) -> Dict[str, FunctionNode]:
    """Function defs nested directly inside ``fn``'s body tree."""
    found: Dict[str, FunctionNode] = {}
    for node in ast.walk(fn):
        if node is not fn and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            found[node.name] = node
    return found


def _free_names(fn: ast.AST) -> Set[str]:
    """Names read inside a def/lambda but never bound there."""
    bound: Set[str] = set()
    read: Set[str] = set()
    args = getattr(fn, "args", None)
    if args is not None:
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            bound.add(arg.arg)
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                bound.add(node.id)
            else:
                read.add(node.id)
    return read - bound
