"""Conflict diagnosis: minimal explanations for infeasible requests (§6).

Every constraint group is guarded by an assumption selector, so an UNSAT
answer comes with a core of guard names. The core is then shrunk by
deletion: drop one group at a time and re-solve; keep the drop whenever
the remainder is still unsatisfiable. The result is a *minimal* set —
removing any named requirement would make the design feasible — which is
exactly the answer to the paper's "tell the architect which of their
requirements are in conflict".

Determinism matters here: the engine promises the *same* minimal
conflict whether a query ran on a fresh solver or on a shared
incremental session, which preprocesses its CNF. Solver-returned cores are
config-dependent (they reflect the learned-clause state), so they are
used only as a *witness* that lets the minimization skip solver calls —
never to steer which minimal set is found. The scan itself walks all
constraint groups in sorted-name order, making the answer a pure
function of the request's semantics.
"""

from __future__ import annotations

from repro.core.compile import CompiledDesign
from repro.core.design import Conflict


def diagnose(compiled: CompiledDesign) -> Conflict | None:
    """Explain infeasibility; None when the request is feasible."""
    if compiled.solve():
        return None
    return conflict_from_core(compiled)


def conflict_from_core(compiled: CompiledDesign) -> Conflict:
    """Minimal conflict seeded by the solver's current UNSAT core.

    The most recent ``solve`` on *compiled* must have returned UNSAT;
    this skips the redundant re-solve when the caller (the query
    executor) has just established infeasibility.
    """
    core = minimize_core(compiled, compiled.core_names())
    return Conflict(
        constraints=sorted(core),
        descriptions={
            name: compiled.descriptions.get(name, "") for name in core
        },
    )


def minimize_core(compiled: CompiledDesign, core: list[str]) -> list[str]:
    """Deletion-based minimization to a canonical minimal conflict.

    *core* is a known-UNSAT witness (any unsat core over *compiled*'s
    selector names); the scan covers **all** selector groups in sorted
    order, so the result is independent of which core the solver
    happened to return.

    One pass suffices: an element confirmed necessary for the current
    working set stays necessary for every subset of it (dropping other
    elements only removes constraints), so the scan never revisits the
    confirmed prefix. The witness makes the pass cheap — whenever the
    current witness survives a trial deletion, the trial is UNSAT by
    inference and costs no solver call; the solver only runs when a
    witness element itself is up for deletion. Solver calls are
    therefore bounded by the witness sizes encountered plus the final
    conflict size, not by the number of groups.
    """
    working = sorted(compiled.selectors)
    witness = set(core)  # invariant: witness is UNSAT and ⊆ working
    index = 0
    while index < len(working):
        trial = working[:index] + working[index + 1:]
        if working[index] not in witness:
            # The witness stays intact, so the trial is UNSAT by
            # inference: adopt the deletion without a solver call.
            working = trial
            continue
        lits = [compiled.selectors[name] for name in trial]
        if compiled.solver.solve(lits):
            index += 1  # this group is necessary
        else:
            working = trial
            witness = set(compiled.core_names())
    return working
