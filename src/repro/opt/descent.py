"""One bound-tightening descent for every objective.

Every minimization the engine runs — cost objectives over the bit-vector
encoding, ordering dimensions, soft rules and parsimony over generalized
totalizers — is the same loop: start from a model already in hand,
bisect the cost between a lower bound and the incumbent, then freeze the
optimum so lower-priority objectives cannot degrade it. The entry points
differ only in how "cost <= k" is spelled as literals.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.sat.solver import Solver

Model = dict[int, bool]


def descend(
    solver: Solver,
    base: list[int],
    model: Model,
    cost: Callable[[Model], int],
    at_most: Callable[[int], list[int]],
    lo: int,
    tolerance: int = 0,
    freeze_lit: int | None = None,
) -> tuple[Model, int, int]:
    """Minimize *cost* from the incumbent *model*; return ``(model, value, probes)``.

    *model* must satisfy the formula under *base*: the descent makes no
    opening solve. Each probe solves under ``base + at_most(mid)``, where
    *at_most(k)* returns literals whose conjunction means ``cost <= k``;
    a SAT probe tightens the upper bound to the new model's real cost.
    *tolerance* stops once the optimality gap is that small — the probes
    nearest the optimum are the hardest UNSAT instances.

    The optimum is then frozen as hard clauses (guarded by *freeze_lit*
    when given, so an incremental session can retire them by dropping
    the activation literal), and one last solve under *base* finds a
    model that satisfies every frozen bound.
    """
    hi = cost(model)
    probes = 0
    while lo + tolerance < hi:
        mid = lo + (hi - lo) // 2
        probes += 1
        if solver.solve(base + at_most(mid)):
            model = solver.model()
            hi = cost(model)
        else:
            lo = mid + 1
    for lit in at_most(hi):
        solver.add_clause([lit] if freeze_lit is None else [-freeze_lit, lit])
    satisfiable = solver.solve(base)
    assert satisfiable, "frozen optimum must remain satisfiable"
    return solver.model(), hi, probes
