"""Cube-and-conquer: split on top-VSIDS variables, conquer the cubes.

Cube-and-conquer divides the search space instead of racing solvers
over all of it: a short probe solve warms the VSIDS activities, the
``k`` hottest variables become split variables, and the ``2**k`` sign
combinations over them become *cubes* — a complete partition of the
search space. Each cube is the original CNF under ``assumptions +
cube``; SAT on any cube is SAT for the instance, UNSAT on every cube is
UNSAT (the cubes cover all assignments of the split variables).

Two execution modes:

- **shared** (``jobs <= 1``, the default) — one incremental solver
  conquers the cubes in sequence. Everything learned while refuting cube
  ``i`` (learnt clauses, root units, polarity/activity state) carries
  into cube ``i+1``, so the sweep is *not* ``2**k`` cold solves: on
  conflict-heavy instances the focused subproblems plus carried lemmas
  beat one monolithic solve outright, no OS parallelism required. Fully
  deterministic.
- **process** (``jobs >= 2``) — cubes are farmed to ``multiprocessing``
  workers. Each worker reports its verdict *and* the root-level unit
  literals it derived; units merged from finished cubes are injected
  into every later-launched worker, so refuted cubes still share what
  they learned. SAT anywhere wins immediately.

Verdicts are identical to a sequential solve by construction; cores for
UNSAT answers are unions of the per-cube cores with the cube literals
removed (every total assignment falls in some cube, so the union of the
caller-assumption parts is itself inconsistent with the CNF).
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
from dataclasses import dataclass, field

from repro.sat.solver import Solver

__all__ = [
    "CubeResult",
    "make_cubes",
    "solve_cubes",
]

#: Conflict budget for the probe solve that warms VSIDS activities.
_PROBE_CONFLICTS = 2000


@dataclass
class CubeResult:
    """Outcome of a :func:`solve_cubes` call.

    ``satisfiable`` is ``None`` only when a ``conflict_budget`` ran out
    before the sweep reached a verdict. ``cubes`` is the number of cubes
    actually attempted (0 when the probe already decided the instance),
    ``winner`` the index of the deciding cube (-1 for the probe).
    """

    satisfiable: bool | None
    model: dict[int, bool] | None = None
    core: list[int] | None = None
    mode: str = "shared"
    cubes: int = 0
    winner: int | None = None
    split_vars: list[int] = field(default_factory=list)
    conflicts: int = 0  #: total conflicts across probe and all cubes
    shared_units: int = 0  #: root units merged across cube workers
    stats: dict[str, int] = field(default_factory=dict)


def make_cubes(solver: Solver, k: int) -> tuple[list[int], list[list[int]]]:
    """Build the ``2**k`` cubes over *solver*'s hottest variables.

    Returns ``(split_vars, cubes)``. The first cube takes every split
    variable at its saved phase (the assignment search would try first,
    maximizing the chance the very first cube is SAT); the remaining
    cubes enumerate the other sign combinations by Gray-code-free binary
    order. Fewer than *k* branchable variables shrink the split
    accordingly; no branchable variables yield a single empty cube.
    """
    split_vars = solver.top_activity_vars(k)
    if not split_vars:
        return [], [[]]
    preferred = [
        v if solver.preferred_phase(v) else -v for v in split_vars
    ]
    cubes = []
    for mask in range(1 << len(split_vars)):
        cube = [
            -preferred[i] if (mask >> i) & 1 else preferred[i]
            for i in range(len(split_vars))
        ]
        cubes.append(cube)
    return split_vars, cubes


def _probe(num_vars: int, clauses, assumptions,
           probe_conflicts: int) -> tuple[Solver, object]:
    solver = Solver()
    solver.new_vars(num_vars)
    for clause in clauses:
        if not solver.add_clause(clause):
            break  # root-level unsat; solve_limited reports it
    result = solver.solve_limited(
        assumptions, conflict_budget=probe_conflicts
    )
    return solver, result


def solve_cubes(
    num_vars: int,
    clauses: list[list[int]],
    assumptions: list[int] | None = None,
    k: int = 4,
    jobs: int = 1,
    conflict_budget: int | None = None,
    probe_conflicts: int = _PROBE_CONFLICTS,
) -> CubeResult:
    """Decide a CNF by cube-and-conquer over ``2**k`` cubes.

    A probe solve (bounded by *probe_conflicts*) warms the branching
    heuristic; if it already reaches a verdict, that verdict is returned
    with ``cubes=0``. Otherwise the instance is split into ``2**k``
    cubes over the hottest variables and conquered in shared mode
    (``jobs <= 1``) or by worker processes (``jobs >= 2``).
    """
    if k < 0:
        raise ValueError(f"cube split size must be >= 0, got {k}")
    assumptions = list(assumptions or [])
    solver, probe = _probe(num_vars, clauses, assumptions, probe_conflicts)
    if probe.satisfiable is not None:
        return CubeResult(
            satisfiable=probe.satisfiable,
            model=probe.model,
            core=probe.core,
            mode="probe",
            cubes=0,
            winner=-1,
            conflicts=solver.stats.conflicts,
            stats=probe.stats,
        )
    split_vars, cubes = make_cubes(solver, k)
    if jobs >= 2 and len(cubes) >= 2:
        return _conquer_process(
            num_vars, clauses, assumptions, split_vars, cubes,
            jobs, conflict_budget, solver.stats.conflicts,
        )
    return _conquer_shared(
        solver, assumptions, split_vars, cubes, conflict_budget,
    )


def _strip_cube(core, cube_lits: set[int]) -> list[int]:
    """Drop cube literals from a per-cube core, keeping caller assumptions."""
    return [lit for lit in core or [] if lit not in cube_lits]


# ---------------------------------------------------------------------------
# Shared (deterministic, single-process) mode
# ---------------------------------------------------------------------------


def _conquer_shared(
    solver: Solver,
    assumptions: list[int],
    split_vars: list[int],
    cubes: list[list[int]],
    conflict_budget: int | None,
) -> CubeResult:
    """Conquer the cubes on the probe solver, carrying lemmas across.

    The probe solver already holds warmed activities, saved phases, and
    every lemma the probe learned; each refuted cube adds its own. The
    sweep is deterministic: same instance, same cubes, same trajectory.
    """
    merged_core: list[int] = []
    seen_core: set[int] = set()
    spent = solver.stats.conflicts
    for index, cube in enumerate(cubes):
        budget = None
        if conflict_budget is not None:
            budget = conflict_budget - (solver.stats.conflicts - spent)
            if budget <= 0:
                return CubeResult(
                    satisfiable=None, mode="shared", cubes=index,
                    split_vars=split_vars,
                    conflicts=solver.stats.conflicts,
                )
        result = solver.solve_limited(
            assumptions + cube, conflict_budget=budget
        )
        if result.satisfiable is None:
            return CubeResult(
                satisfiable=None, mode="shared", cubes=index + 1,
                split_vars=split_vars, conflicts=solver.stats.conflicts,
            )
        if result.satisfiable:
            return CubeResult(
                satisfiable=True,
                model=result.model,
                mode="shared",
                cubes=index + 1,
                winner=index,
                split_vars=split_vars,
                conflicts=solver.stats.conflicts,
                stats=result.stats,
            )
        for lit in _strip_cube(result.core, set(cube)):
            if lit not in seen_core:
                seen_core.add(lit)
                merged_core.append(lit)
    return CubeResult(
        satisfiable=False,
        core=merged_core,
        mode="shared",
        cubes=len(cubes),
        split_vars=split_vars,
        conflicts=solver.stats.conflicts,
        stats=solver.stats.as_dict(),
    )


# ---------------------------------------------------------------------------
# Process (multiprocessing) mode
# ---------------------------------------------------------------------------


def _cube_worker(index, num_vars, clauses, assumptions, cube,
                 shared_units, conflict_budget, results) -> None:
    solver = Solver()
    solver.new_vars(num_vars)
    ok = True
    for clause in clauses:
        if not solver.add_clause(clause):
            ok = False
            break
    if ok:
        # Units merged back from already-refuted cubes are consequences
        # of the CNF alone, so they are sound to assert at the root.
        for lit in shared_units:
            if not solver.add_clause([lit]):
                break
    result = solver.solve_limited(
        assumptions + cube, conflict_budget=conflict_budget
    )
    units = solver.root_units() if result.satisfiable is False else []
    results.put((
        index,
        result.satisfiable,
        result.model,
        result.core,
        units,
        result.stats,
    ))


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _conquer_process(
    num_vars: int,
    clauses: list[list[int]],
    assumptions: list[int],
    split_vars: list[int],
    cubes: list[list[int]],
    jobs: int,
    conflict_budget: int | None,
    probe_conflicts_spent: int,
) -> CubeResult:
    ctx = _mp_context()
    results: multiprocessing.Queue = ctx.Queue()
    pending = list(enumerate(cubes))
    running: dict[int, multiprocessing.Process] = {}
    merged_units: list[int] = []
    seen_units: set[int] = set()
    merged_core: list[int] = []
    seen_core: set[int] = set()
    conflicts = probe_conflicts_spent
    unsat_cubes = 0
    exhausted = False
    try:
        while True:
            while pending and len(running) < jobs:
                index, cube = pending.pop(0)
                proc = ctx.Process(
                    target=_cube_worker,
                    args=(index, num_vars, clauses, assumptions, cube,
                          list(merged_units), conflict_budget, results),
                    daemon=True,
                )
                proc.start()
                running[index] = proc
            # A worker's result is in the pipe before the worker exits, so
            # only one that had exited before this read and is still
            # silent after it died without reporting.
            exited = [index for index, proc in running.items()
                      if not proc.is_alive()]
            try:
                index, satisfiable, model, core, units, stats = results.get(
                    timeout=0.05
                )
            except queue_mod.Empty:
                for index in exited:
                    running.pop(index).join()
                    exhausted = True
                if not running and not pending:
                    break
                continue
            conflicts += stats.get("conflicts", 0)
            proc = running.pop(index, None)
            if proc is not None:
                proc.join()
            if satisfiable:
                return CubeResult(
                    satisfiable=True,
                    model=model,
                    mode="process",
                    cubes=unsat_cubes + 1,
                    winner=index,
                    split_vars=split_vars,
                    conflicts=conflicts,
                    shared_units=len(merged_units),
                    stats=stats,
                )
            if satisfiable is None:
                exhausted = True
                if not running and not pending:
                    break
                continue
            unsat_cubes += 1
            for lit in units:
                if lit not in seen_units:
                    seen_units.add(lit)
                    merged_units.append(lit)
            for lit in _strip_cube(core, set(cubes[index])):
                if lit not in seen_core:
                    seen_core.add(lit)
                    merged_core.append(lit)
            if not running and not pending:
                break
    finally:
        for proc in running.values():
            if proc.is_alive():
                proc.terminate()
        for proc in running.values():
            proc.join(timeout=2.0)
    if exhausted or unsat_cubes < len(cubes):
        return CubeResult(
            satisfiable=None, mode="process", cubes=unsat_cubes,
            split_vars=split_vars, conflicts=conflicts,
            shared_units=len(merged_units),
        )
    return CubeResult(
        satisfiable=False,
        core=merged_core,
        mode="process",
        cubes=len(cubes),
        split_vars=split_vars,
        conflicts=conflicts,
        shared_units=len(merged_units),
    )
