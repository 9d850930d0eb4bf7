"""Minimization of linear integer expressions by bound bisection.

Pseudo-Boolean totalizers degrade badly when weights are large and
heterogeneous (hardware prices in dollars): the value-labelled nodes
enumerate every distinct partial sum. Cost objectives instead reuse the
bit-blasting encoder — each probe ``expr <= mid`` is one reified
comparator circuit over the already-encoded count variables, and the
optimum is found in ``O(log range)`` solver calls.
"""

from __future__ import annotations

from repro.obs.trace import NULL_TRACER, Tracer
from repro.opt.descent import Model, descend
from repro.smt.encoder import IntEncoder
from repro.smt.intervals import bounds_of
from repro.smt.terms import LinExpr


def expr_value(
    expr: LinExpr, encoder: IntEncoder, model: dict[int, bool]
) -> int:
    """Evaluate a linear expression under a SAT model."""
    return expr.evaluate({v: encoder.value_of(v, model) for v in expr.coeffs})


def minimize_linexpr(
    solver,
    encoder: IntEncoder,
    expr: LinExpr,
    model: Model,
    base: list[int],
    tolerance: int = 0,
    tracer: Tracer | None = None,
    freeze_lit: int | None = None,
) -> tuple[Model, int, int]:
    """Minimize *expr* from the incumbent *model* under assumptions *base*.

    Returns ``(model, value, probes)`` from :func:`~repro.opt.descent.descend`;
    the found bound stays asserted afterwards (behind *freeze_lit* when
    given), so lower-priority objectives cannot degrade it. With a
    *tracer*, the descent is timed under a ``bisect`` span.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span("bisect"):
        return descend(
            solver,
            base,
            model,
            cost=lambda m: expr_value(expr, encoder, m),
            at_most=lambda k: [encoder.reify(expr <= k)],
            lo=bounds_of(expr).lo,
            tolerance=tolerance,
            freeze_lit=freeze_lit,
        )
