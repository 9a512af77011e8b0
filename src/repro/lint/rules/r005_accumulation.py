"""R005 — no scalar Python accumulation over floats in ``core/``.

The delta/objective bitwise-equality contract pins an exact floating-
point accumulation order: fixed-length masked arrays reduced with
``np.add.reduce`` / ``np.bincount`` in ascending user order.  Python's
builtin ``sum()`` (and ``math.fsum``, which compensates differently)
accumulate left-to-right over whatever iterable order they are handed,
so a refactor from vectorised to scalar summation changes results in
the last bits — exactly the drift the golden-trajectory suite exists to
catch.  Use ``np.sum`` / ``np.add.reduce`` over arrays instead.

BLAS-backed reductions — ``np.dot`` / ``np.matmul`` / ``np.einsum`` /
``np.inner`` and the ``@`` operator — are banned in ``core/`` for the
same reason from the other direction: their accumulation order is an
implementation detail of the linked BLAS (blocked, threaded, SIMD-width
dependent), so the same expression can produce different last bits
across machines.  Vectorised kernels in ``core/`` must stay on
elementwise multiply plus ``np.add.reduce`` / ``np.add.at``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import dotted_name
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import register
from repro.lint.rules_base import FileContext, Rule


@register
class AccumulationRule(Rule):
    rule_id = "R005"
    title = "use batched numpy reductions in core/, not builtin sum()"
    rationale = (
        "Builtin sum()/math.fsum() accumulate in iterable order and "
        "break the bitwise delta/objective equivalence contract; reduce "
        "fixed-length arrays with np.sum/np.add.reduce instead."
    )

    def check_file(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_subpackage("core"):
            return
        for call in self._walk_calls(ctx.tree):
            name = dotted_name(call.func)
            if name == ("sum",):
                yield ctx.diagnostic(
                    self.rule_id,
                    call,
                    "builtin sum() accumulates in iterable order; use "
                    "np.sum/np.add.reduce over a fixed-length array to "
                    "preserve the bitwise accumulation contract",
                )
            elif name == ("math", "fsum") or name == ("fsum",):
                yield ctx.diagnostic(
                    self.rule_id,
                    call,
                    "math.fsum() uses compensated summation that differs "
                    "from the pinned np.add.reduce order; use np.sum "
                    "over a fixed-length array",
                )
            elif name is not None and len(name) == 2 and name[0] in (
                "np",
                "numpy",
            ) and name[1] in ("dot", "matmul", "einsum", "inner", "vdot"):
                yield ctx.diagnostic(
                    self.rule_id,
                    call,
                    f"np.{name[1]}() reduces in BLAS-defined order, which "
                    "is not bitwise-reproducible across builds; use an "
                    "elementwise product with np.add.reduce/np.add.at "
                    "(the pinned accumulation contract)",
                )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                yield ctx.diagnostic(
                    self.rule_id,
                    node,
                    "the @ operator reduces in BLAS-defined order, which "
                    "is not bitwise-reproducible across builds; use an "
                    "elementwise product with np.add.reduce/np.add.at "
                    "(the pinned accumulation contract)",
                )
