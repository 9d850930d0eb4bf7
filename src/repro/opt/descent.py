"""One bound-tightening descent for every objective.

Every minimization the engine runs — cost objectives over the bit-vector
encoding, ordering dimensions, soft rules and parsimony over generalized
totalizers — is the same loop: start from a model already in hand,
bisect the cost between a lower bound and the incumbent, then freeze the
optimum so lower-priority objectives cannot degrade it. The entry points
differ only in how "cost <= k" is spelled: as literals of a persistent
counting circuit, or as a fresh native linear constraint per probe.
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
    tolerance: int | Callable[[int], int] = 0,
    freeze_lit: int | None = None,
    freeze: Callable[[int, int | None], None] | None = None,
) -> tuple[Model, int, int]:
    """Minimize *cost* from the incumbent *model*; return ``(model, value, probes)``.

    *model* must satisfy the formula under *base*: the descent makes no
    opening solve. Each probe solves under ``base + at_most(mid)``, where
    *at_most(k)* returns literals whose conjunction means ``cost <= k``;
    a SAT probe tightens the upper bound to the new model's real cost,
    an UNSAT one raises the proven lower bound.

    *tolerance* stops the descent once ``hi - lo`` is at most that gap —
    the probes nearest the optimum are the hardest UNSAT instances. A
    callable gets the proven lower bound and returns the gap, so a
    relative rule such as ``lambda lo: lo // 50`` bounds the answer's
    distance from the true optimum (within 2%).

    The optimum is then frozen (guarded by *freeze_lit* when given, so
    an incremental session can retire it by dropping the activation
    literal), and one last solve under *base* finds a model that
    satisfies every frozen bound. By default the freeze asserts the
    literals of ``at_most(hi)`` as clauses. A caller whose *at_most*
    builds a fresh activation literal per probe passes
    *freeze(k, guard)*, which asserts ``guard -> cost <= k`` (hard when
    *guard* is None); each probe's literals are then retired with root
    units once the probe returns, so the solver can drop its constraint.
    """
    hi = cost(model)
    probes = 0
    while hi - lo > (tolerance(lo) if callable(tolerance) else tolerance):
        mid = lo + (hi - lo) // 2
        probes += 1
        probe = at_most(mid)
        if solver.solve(base + probe):
            model = solver.model()
            hi = cost(model)
        else:
            lo = mid + 1
        if freeze is not None:
            for lit in probe:
                solver.add_clause([-lit])
    if freeze is not None:
        freeze(hi, freeze_lit)
    else:
        for lit in at_most(hi):
            solver.add_clause(
                [lit] if freeze_lit is None else [-freeze_lit, lit]
            )
    satisfiable = solver.solve(base)
    assert satisfiable, "frozen optimum must remain satisfiable"
    return solver.model(), hi, probes
