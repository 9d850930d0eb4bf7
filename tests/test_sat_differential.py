"""Differential fuzzing of the CDCL solver against brute-force enumeration.

The promoted harness: hundreds of seeded random CNFs, solved with and
without assumptions, cross-checked against exhaustive enumeration.
Every SAT answer is validated clause by clause (and against the
assumptions); every UNSAT-under-assumptions answer must come with a
core that is a subset of the assumptions and is itself sufficient for
unsatisfiability.

Instances stay at <= 8 variables so the brute-force oracle is exact;
the solver-vs-reference-DPLL suite covers the larger range.
"""

from __future__ import annotations

import random

import pytest

from repro.sat import Solver
from tests.conftest import brute_force_sat, random_clauses

#: (seed, num_vars, num_clauses, with_assumptions) — 320 instances.
_CASES = [
    (seed, num_vars, num_clauses, with_assumptions)
    for seed in range(40)
    for num_vars, num_clauses in ((4, 10), (6, 18), (8, 26), (8, 34))
    for with_assumptions in (False, True)
][:320]


def _model_satisfies(model: dict[int, bool], clauses) -> bool:
    return all(
        any(model[abs(lit)] == (lit > 0) for lit in clause)
        for clause in clauses
    )


def _random_assumptions(rng: random.Random, num_vars: int) -> list[int]:
    count = rng.randint(1, max(1, num_vars // 2))
    variables = rng.sample(range(1, num_vars + 1), count)
    return [v * rng.choice([1, -1]) for v in variables]


@pytest.mark.parametrize(
    "seed,num_vars,num_clauses,with_assumptions", _CASES
)
def test_differential(seed, num_vars, num_clauses, with_assumptions):
    rng = random.Random((seed, num_vars, num_clauses, with_assumptions).__hash__())
    clauses = random_clauses(rng, num_vars, num_clauses)
    assumptions = (
        _random_assumptions(rng, num_vars) if with_assumptions else []
    )

    solver = Solver()
    solver.new_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    got = solver.solve(assumptions)

    # Oracle: assumptions become unit clauses.
    expected = brute_force_sat(
        num_vars, clauses + [[lit] for lit in assumptions]
    )
    assert got == expected, (
        f"disagreement on seed={seed} n={num_vars} m={num_clauses} "
        f"assumptions={assumptions}"
    )

    if got:
        model = solver.model()
        assert _model_satisfies(model, clauses)
        for lit in assumptions:
            assert model[abs(lit)] == (lit > 0)
    elif assumptions:
        core = solver.unsat_core()
        assert set(core) <= set(assumptions)
        # The core alone must still make the formula unsatisfiable.
        assert not brute_force_sat(
            num_vars, clauses + [[lit] for lit in core]
        )


def test_case_count_meets_floor():
    assert len(_CASES) >= 300


# -- cube-and-conquer equivalence --------------------------------------------
#
# Splitting into cubes may only change *how* an answer is found, never
# *what* it is. These cases solve the ``_CASES`` instances, minus their
# unit clauses, by cube-and-conquer with the probe disabled: with no
# units, root propagation cannot decide an instance, so every case
# really runs over the cubes. The answers are held to the brute-force
# oracle and the plain sequential solver: SAT models are validated
# clause by clause, and a merged UNSAT core must be a subset of the
# assumptions that is unsatisfiable on its own.


def _check_cubes(seed, num_vars, num_clauses, with_assumptions, jobs):
    from repro.par import solve_cubes

    rng = random.Random((seed, num_vars, num_clauses, with_assumptions).__hash__())
    clauses = [
        clause for clause in random_clauses(rng, num_vars, num_clauses)
        if len(clause) > 1
    ]
    assumptions = (
        _random_assumptions(rng, num_vars) if with_assumptions else []
    )

    sequential = Solver()
    sequential.new_vars(num_vars)
    for clause in clauses:
        sequential.add_clause(clause)
    expected = sequential.solve(assumptions)
    oracle = brute_force_sat(
        num_vars, clauses + [[lit] for lit in assumptions]
    )
    assert expected == oracle

    result = solve_cubes(
        num_vars, clauses, assumptions=assumptions, k=2, jobs=jobs,
        probe_conflicts=0,
    )
    assert result.mode == ("process" if jobs >= 2 else "shared")
    assert result.satisfiable == expected, (
        f"cubes disagree on seed={seed} n={num_vars} m={num_clauses} "
        f"assumptions={assumptions} jobs={jobs} winner={result.winner}"
    )
    if result.satisfiable:
        assert _model_satisfies(result.model, clauses)
        for lit in assumptions:
            assert result.model[abs(lit)] == (lit > 0)
    else:
        assert set(result.core) <= set(assumptions)
        assert not brute_force_sat(
            num_vars, clauses + [[lit] for lit in result.core]
        )


@pytest.mark.parametrize(
    "seed,num_vars,num_clauses,with_assumptions", _CASES
)
def test_cubes_match_sequential(
    seed, num_vars, num_clauses, with_assumptions
):
    _check_cubes(seed, num_vars, num_clauses, with_assumptions, jobs=1)


@pytest.mark.parametrize("seed", range(4))
def test_cubes_process_mode_matches_oracle(seed):
    """jobs=2 conquers the cubes in worker processes; the verdict, model
    and core checks must hold exactly as in shared mode."""
    for case in _CASES:
        if case[0] == seed:
            _check_cubes(*case, jobs=2)


def test_incremental_solving_matches_oracle():
    """Clause additions between solve calls stay consistent with the oracle."""
    for seed in range(12):
        rng = random.Random(seed)
        num_vars = 6
        solver = Solver()
        solver.new_vars(num_vars)
        clauses: list[list[int]] = []
        for round_no in range(6):
            for clause in random_clauses(rng, num_vars, 4):
                clauses.append(clause)
                solver.add_clause(clause)
            got = solver.solve()
            expected = brute_force_sat(num_vars, clauses)
            assert got == expected, f"seed={seed} round={round_no}"
            if got:
                assert _model_satisfies(solver.model(), clauses)
            else:
                break
