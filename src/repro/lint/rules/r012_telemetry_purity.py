"""R012 — telemetry emission must be pure (no draws, no mutation).

The observability contract (docs/observability.md, enforced per-file by
R008) is that recording *observes* the run: enabling tracing must not
change a single bit of any trajectory.  Two inter-procedural leaks can
break that even when every file looks clean in isolation:

1. an emission argument that *computes* its value by drawing from an
   RNG (``rec.event("x", jitter=rng.random())``) — the draw happens
   only on the traced run, desynchronising every later draw;
2. an emission argument that calls a mutating evaluator method
   (``rec.gauge_set("obj", evaluator.evaluate(...))`` where ``evaluate``
   restages internal arrays) — traced runs mutate state untraced runs
   do not;
3. an RNG draw guarded by a recorder enable flag
   (``if rec.enabled: x = rng.random()``) — the flow layer tracks
   ``rec.enabled`` / ``rec.iteration_detail`` reads as boolean taint
   through assignments (``tracing = rec.enabled``), so draws under any
   derived guard are caught too.

The flow layer supplies both sides: ``RECORDER`` taint identifies the
emission receivers (``get_recorder()`` results and ``Recorder``-
annotated parameters, through locals and re-assignments), and ``RNG``
taint identifies the streams.  Precomputing the value on both paths and
emitting the precomputed name is always clean.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import Project
from repro.lint.flow import analyze_project
from repro.lint.flow.taint import ENABLED_FLAG, FunctionTaint, TaintAnalysis
from repro.lint.registry import register
from repro.lint.rules_base import Rule

#: Evaluator methods that mutate internal state when called.
MUTATING_EVALUATOR_METHODS = {
    "evaluate",
    "evaluate_assignment",
    "evaluate_move",
    "evaluate_placements",
    "commit",
    "rebuild",
    "stage",
    "apply",
}


@register
class TelemetryPurityRule(Rule):
    rule_id = "R012"
    title = "telemetry emission paths must not draw RNG or mutate state"
    rationale = (
        "Tracing must be bitwise-invisible: an RNG draw or evaluator "
        "mutation inside an emission argument (or under a recorder "
        "enable flag) runs only on traced runs and diverges every "
        "subsequent draw — precompute on both paths and emit the value."
    )

    def check_project(self, project: Project) -> Iterator[Diagnostic]:
        analysis = analyze_project(project)
        taint = analysis.taint
        for qualified in sorted(taint.functions):
            fnt = taint.functions[qualified]
            yield from self._check_emission_args(taint, fnt)
            yield from self._check_guarded_draws(taint, fnt)

    # ------------------------------------------------------------------

    def _check_emission_args(
        self, taint: TaintAnalysis, fnt: FunctionTaint
    ) -> Iterator[Diagnostic]:
        for record in fnt.calls:
            call = record.node
            if not taint.is_emission(fnt, call):
                continue
            for arg in self._argument_exprs(call):
                for inner in ast.walk(arg):
                    if not isinstance(inner, ast.Call):
                        continue
                    if taint.is_rng_draw(fnt, inner):
                        yield fnt.info.ctx.diagnostic(
                            self.rule_id,
                            inner,
                            "RNG draw inside a telemetry emission "
                            "argument; the draw happens only when "
                            "tracing, desynchronising the stream — "
                            "precompute the value on both paths",
                        )
                    elif (
                        isinstance(inner.func, ast.Attribute)
                        and inner.func.attr in MUTATING_EVALUATOR_METHODS
                    ):
                        yield fnt.info.ctx.diagnostic(
                            self.rule_id,
                            inner,
                            f"call to mutating method "
                            f"'.{inner.func.attr}()' inside a telemetry "
                            "emission argument; traced runs would mutate "
                            "state untraced runs do not — emit a "
                            "precomputed value",
                        )

    def _check_guarded_draws(
        self, taint: TaintAnalysis, fnt: FunctionTaint
    ) -> Iterator[Diagnostic]:
        for node in fnt.cfg.statements():
            stmt = node.stmt
            if not isinstance(stmt, ast.If):
                continue
            if ENABLED_FLAG not in taint.kinds_of(fnt, stmt.test):
                continue
            for body_stmt in stmt.body:
                for inner in ast.walk(body_stmt):
                    if isinstance(inner, ast.Call) and taint.is_rng_draw(
                        fnt, inner
                    ):
                        yield fnt.info.ctx.diagnostic(
                            self.rule_id,
                            inner,
                            "RNG draw guarded by a recorder enable flag; "
                            "the draw happens only when tracing is on, "
                            "so traced and untraced runs diverge — move "
                            "the draw outside the guard",
                        )

    @staticmethod
    def _argument_exprs(call: ast.Call) -> List[ast.expr]:
        return list(call.args) + [kw.value for kw in call.keywords]
