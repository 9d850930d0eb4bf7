"""Lexicographic multi-objective optimization.

Implements the ``Optimize(latency > hardware_cost > monitoring)`` pattern
from the paper's Listing 3: objectives are minimized strictly in priority
order — each objective is optimized, its optimum frozen as a hard bound,
and the next objective optimized within that slice. Callers chain one
:func:`lexicographic_optimize` call per objective, threading the model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.logic.pseudo_boolean import GeneralizedTotalizer, PBTerm
from repro.obs.trace import NULL_TRACER, Tracer
from repro.opt.descent import Model, descend
from repro.sat.solver import Solver


@dataclass
class LexObjective:
    """One minimization objective: a named weighted sum of literals."""

    name: str
    terms: list[PBTerm]

    def cost(self, model: dict[int, bool]) -> int:
        """Evaluate the objective under a model."""
        return sum(
            t.weight
            for t in self.terms
            if (t.lit > 0) == model.get(abs(t.lit), False)
        )


def lexicographic_optimize(
    solver: Solver,
    objective: LexObjective,
    model: Model,
    base: list[int],
    tracer: Tracer | None = None,
    freeze_lit: int | None = None,
    totalizer_cache: dict | None = None,
) -> tuple[Model, int, int]:
    """Minimize *objective* from the incumbent *model* under *base*.

    Returns ``(model, optimum, probes)``. The optimum stays asserted as a
    hard upper bound (behind *freeze_lit* when given), so the next
    objective is minimized within it. The descent runs over a generalized
    totalizer; *totalizer_cache* maps a terms key to an already-built one,
    letting sessions reuse counting circuits across queries on one
    persistent solver. With a *tracer*, the descent is timed under a
    ``lex:<name>`` span.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span(f"lex:{objective.name}"):
        terms = [t for t in objective.terms if t.weight > 0]
        if any(t.weight < 0 for t in objective.terms):
            raise ValueError(
                f"objective {objective.name!r} has negative weights; "
                "rewrite over negated literals first"
            )
        if not terms:
            return model, 0, 0
        if objective.cost(model) == 0:
            # Already optimal; freeze by forbidding every weighted
            # literal, or later objectives could silently degrade it.
            def at_most(_k: int) -> list[int]:
                return [-t.lit for t in terms]
        else:
            gte = _totalizer(solver, terms, totalizer_cache)

            def at_most(k: int) -> list[int]:
                lit = gte.geq_literal(k + 1)
                return [] if lit is None else [-lit]

        return descend(
            solver, base, model, objective.cost, at_most, 0,
            freeze_lit=freeze_lit,
        )


def _totalizer(
    solver: Solver, terms: list[PBTerm], cache: dict | None
) -> GeneralizedTotalizer:
    """The counting circuit over *terms*, built into *solver* once."""
    key = tuple((t.weight, t.lit) for t in terms)
    gte = cache.get(key) if cache is not None else None
    if gte is None:
        cap = sum(t.weight for t in terms) + 1
        gte = GeneralizedTotalizer(terms, cap=cap, new_var=solver.new_var)
        for clause in gte.clauses:
            solver.add_clause(clause)
        if cache is not None:
            cache[key] = gte
    return gte
