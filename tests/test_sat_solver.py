"""Unit tests for the CDCL SAT solver."""

from __future__ import annotations

import random

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidLiteralError, SolverStateError
from repro.sat import Solver
from repro.sat.preprocess import preprocess_solver
from repro.sat.solver import luby
from tests.conftest import brute_force_sat, random_clauses


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert Solver().solve() is True

    def test_single_unit_clause(self):
        s = Solver()
        a = s.new_var()
        assert s.add_clause([a])
        assert s.solve()
        assert s.value(a) is True
        assert s.value(-a) is False

    def test_contradictory_units(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a])
        assert not s.add_clause([-a])
        assert s.solve() is False

    def test_model_satisfies_clauses(self):
        s = Solver()
        a, b, c = s.new_vars(3)
        clauses = [[a, b], [-a, c], [-b, -c], [a, -c]]
        for clause in clauses:
            s.add_clause(clause)
        assert s.solve()
        model = s.model()
        for clause in clauses:
            assert any((lit > 0) == model[abs(lit)] for lit in clause)

    def test_implication_chain_propagates(self):
        s = Solver()
        variables = s.new_vars(50)
        for prev, cur in zip(variables, variables[1:]):
            s.add_clause([-prev, cur])
        s.add_clause([variables[0]])
        assert s.solve()
        assert all(s.value(v) for v in variables)

    def test_duplicate_literals_collapse(self):
        s = Solver()
        a = s.new_var()
        assert s.add_clause([a, a, a])
        assert s.solve()
        assert s.value(a) is True

    def test_tautology_is_dropped(self):
        s = Solver()
        a, b = s.new_vars(2)
        assert s.add_clause([a, -a])
        s.add_clause([-b])
        assert s.solve()
        assert s.value(b) is False

    def test_incremental_solving(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        assert s.solve()
        s.add_clause([-a])
        assert s.solve()
        assert s.value(b) is True
        s.add_clause([-b])
        assert s.solve() is False


class TestValidation:
    def test_zero_literal_rejected(self):
        s = Solver()
        s.new_var()
        with pytest.raises(InvalidLiteralError):
            s.add_clause([0])

    def test_unknown_variable_rejected(self):
        s = Solver()
        with pytest.raises(InvalidLiteralError):
            s.add_clause([1])

    def test_bool_literal_rejected(self):
        s = Solver()
        s.new_var()
        with pytest.raises(InvalidLiteralError):
            s.add_clause([True])

    def test_model_before_solve_raises(self):
        s = Solver()
        s.new_var()
        with pytest.raises(SolverStateError):
            s.model()

    def test_core_without_failed_assumptions_raises(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a])
        s.solve()
        with pytest.raises(SolverStateError):
            s.unsat_core()


def _intake_solver() -> Solver:
    """Four variables: 1 true at the root, 4 eliminated by preprocessing,
    2 and 3 free; solved, so a model is in hand."""
    s = Solver()
    s.new_vars(4)
    for clause in ([1], [2, 4], [-4, 3]):
        s.add_clause(clause)
    preprocess_solver(s, frozen=[1, 2, 3])
    assert s.eliminated_vars == {4}
    assert s.solve()
    return s


def _snapshot(s: Solver):
    return (s.num_vars, list(s._arena.data), list(s._clauses),
            list(s._trail), s._unsat, s.model())


#: (clause, error) pairs. An invalid literal is reported before an
#: eliminated one, wherever it stands, and even after a tautology or a
#: literal already true at the root.
_BAD_CLAUSES = [
    ([0], InvalidLiteralError),
    ([True], InvalidLiteralError),
    ([False], InvalidLiteralError),
    ([numpy.int64(2)], InvalidLiteralError),
    ([2.0], InvalidLiteralError),
    ([5], InvalidLiteralError),
    ([-5], InvalidLiteralError),
    ([4], SolverStateError),
    ([-4, 2], SolverStateError),
    ([4, 0], InvalidLiteralError),
    ([2, 4, 5], InvalidLiteralError),
    ([2, -2, 5], InvalidLiteralError),
    ([1, 5], InvalidLiteralError),
    ([1, 4], SolverStateError),
    ([2, -2, -4], SolverStateError),
]

#: (assumptions, error) pairs: the first bad assumption decides.
_BAD_ASSUMPTIONS = [
    ([0], InvalidLiteralError),
    ([True], InvalidLiteralError),
    ([numpy.int64(2)], InvalidLiteralError),
    ([2.0], InvalidLiteralError),
    ([5], InvalidLiteralError),
    ([-5], InvalidLiteralError),
    ([4], SolverStateError),
    ([2, -4], SolverStateError),
    ([2, 0], InvalidLiteralError),
    ([4, 0], SolverStateError),
    ([0, 4], InvalidLiteralError),
]


class TestIntakeErrors:
    @pytest.mark.parametrize("lits,error", _BAD_CLAUSES)
    def test_rejected_clause_leaves_solver_unchanged(self, lits, error):
        s = _intake_solver()
        before = _snapshot(s)
        with pytest.raises(error):
            s.add_clause(lits)
        assert _snapshot(s) == before

    @pytest.mark.parametrize("lits,error", _BAD_ASSUMPTIONS)
    def test_rejected_assumptions(self, lits, error):
        s = _intake_solver()
        before = _snapshot(s)
        with pytest.raises(error):
            s.solve(lits)
        assert _snapshot(s) == before

    def test_clause_from_an_iterator(self):
        s = _intake_solver()
        assert s.add_clause(iter([-2, 3, -2])) is True
        assert s.clause_literals()[-1] == [-2, 3]
        assert s.add_clause(x for x in [2, 3, -2]) is True  # tautology
        assert s.add_clause(iter([-1, -2])) is True  # -1 stripped: unit
        assert -2 in s.root_units()


class TestPigeonhole:
    @pytest.mark.parametrize("pigeons,holes", [(2, 1), (4, 3), (6, 5)])
    def test_php_unsat(self, pigeons, holes):
        s = Solver()
        v = {
            (p, h): s.new_var()
            for p in range(pigeons)
            for h in range(holes)
        }
        for p in range(pigeons):
            s.add_clause([v[p, h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([-v[p1, h], -v[p2, h]])
        assert s.solve() is False

    def test_php_equal_is_sat(self):
        s = Solver()
        n = 4
        v = {(p, h): s.new_var() for p in range(n) for h in range(n)}
        for p in range(n):
            s.add_clause([v[p, h] for h in range(n)])
        for h in range(n):
            for p1 in range(n):
                for p2 in range(p1 + 1, n):
                    s.add_clause([-v[p1, h], -v[p2, h]])
        assert s.solve() is True


class TestAssumptions:
    def test_sat_under_assumptions(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        assert s.solve([-a])
        assert s.value(b) is True

    def test_unsat_core_is_subset_of_assumptions(self):
        s = Solver()
        x, y, z, w = s.new_vars(4)
        s.add_clause([-x, y])
        s.add_clause([-y, -z])
        assert s.solve([x, z, w]) is False
        core = s.unsat_core()
        assert set(core) <= {x, z, w}
        assert x in core and z in core
        assert w not in core

    def test_assumptions_do_not_persist(self):
        s = Solver()
        a = s.new_var()
        assert s.solve([-a])
        assert s.solve([a])

    def test_duplicate_assumptions(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([-a, b])
        assert s.solve([a, a, a])
        assert s.value(b) is True

    def test_conflicting_assumptions(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])  # keep the formula satisfiable
        assert s.solve([a, -a]) is False
        assert set(s.unsat_core()) == {a, -a}

    def test_formula_level_unsat_gives_empty_core(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([a])
        s.add_clause([-a])
        assert s.solve([b]) is False
        assert s.unsat_core() == []


class TestBudget:
    def test_budget_exhaustion_returns_none(self):
        s = Solver(restart_base=1)
        # A hard-ish pigeonhole so one conflict is not enough.
        pigeons, holes = 7, 6
        v = {
            (p, h): s.new_var()
            for p in range(pigeons)
            for h in range(holes)
        }
        for p in range(pigeons):
            s.add_clause([v[p, h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([-v[p1, h], -v[p2, h]])
        result = s.solve_limited(conflict_budget=3)
        assert result.satisfiable is None

    def test_solve_or_raise(self):
        from repro.errors import BudgetExceededError

        s = Solver()
        a, b, c = s.new_vars(3)
        s.add_clause([a, b, c])
        assert s.solve_or_raise() is True
        s2 = Solver(restart_base=1)
        v = {(p, h): s2.new_var() for p in range(7) for h in range(6)}
        for p in range(7):
            s2.add_clause([v[p, h] for h in range(6)])
        for h in range(6):
            for p1 in range(7):
                for p2 in range(p1 + 1, 7):
                    s2.add_clause([-v[p1, h], -v[p2, h]])
        with pytest.raises(BudgetExceededError):
            s2.solve_or_raise(conflict_budget=2)


class TestAblations:
    """Feature switches must not change verdicts, only speed."""

    @pytest.mark.parametrize(
        "flags",
        [
            {"enable_vsids": False},
            {"enable_learning": False},
            {"enable_restarts": False},
            {"enable_phase_saving": False},
        ],
    )
    def test_ablation_agrees_with_brute_force(self, flags):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(2, 7)
            clauses = random_clauses(rng, n, rng.randint(1, 25))
            expected = brute_force_sat(n, clauses)
            s = Solver(**flags)
            s.new_vars(n)
            for clause in clauses:
                s.add_clause(clause)
            assert s.solve() == expected, (flags, clauses)


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            luby(0)


class TestRandomized:
    def test_agrees_with_brute_force(self):
        rng = random.Random(1234)
        for _ in range(200):
            n = rng.randint(2, 8)
            clauses = random_clauses(rng, n, rng.randint(1, 30))
            expected = brute_force_sat(n, clauses)
            s = Solver()
            s.new_vars(n)
            for clause in clauses:
                s.add_clause(clause)
            got = s.solve()
            assert got == expected, clauses
            if got:
                model = s.model()
                assert all(
                    any((lit > 0) == model[abs(lit)] for lit in clause)
                    for clause in clauses
                )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_hypothesis_random_formulas(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        clauses = data.draw(
            st.lists(
                st.lists(
                    st.integers(min_value=1, max_value=n).flatmap(
                        lambda v: st.sampled_from([v, -v])
                    ),
                    min_size=1,
                    max_size=4,
                ),
                min_size=0,
                max_size=20,
            )
        )
        s = Solver()
        s.new_vars(n)
        for clause in clauses:
            s.add_clause(clause)
        assert s.solve() == brute_force_sat(n, clauses)

    def test_stats_accumulate(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        s.solve()
        stats = s.stats.as_dict()
        assert stats["decisions"] >= 1


def _php_solver(pigeons: int, holes: int, **kwargs) -> Solver:
    """A solver loaded with PHP(pigeons, holes)."""
    s = Solver(**kwargs)
    v = {
        (p, h): s.new_var() for p in range(pigeons) for h in range(holes)
    }
    for p in range(pigeons):
        s.add_clause([v[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                s.add_clause([-v[p1, h], -v[p2, h]])
    return s


class TestModelInvalidation:
    def test_add_clause_invalidates_model(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        assert s.solve()
        s.model()  # fine right after solve
        s.add_clause([-a, b])
        with pytest.raises(SolverStateError):
            s.model()
        with pytest.raises(SolverStateError):
            s.value(a)
        # Re-solving restores access, under the new clause set.
        assert s.solve()
        model = s.model()
        assert model[a] or model[b]
        assert not model[a] or model[b]

    def test_add_clause_invalidates_core(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([-a, b])
        assert s.solve([a, -b]) is False
        assert set(s.unsat_core()) <= {a, -b}
        s.add_clause([a, b])
        with pytest.raises(SolverStateError):
            s.unsat_core()


class TestHeapBound:
    def test_order_heap_stays_bounded_under_heavy_bumping(self):
        # PHP(7,6) generates hundreds of conflicts, each bumping every
        # variable on the conflict side; without lazy-deletion compaction
        # the heap grows with the number of bumps instead of the number
        # of variables.
        s = _php_solver(7, 6)
        assert s.solve() is False
        assert s.stats.conflicts > 100  # the workload actually bumped a lot
        assert len(s._order_heap) <= 3 * s.num_vars + 64

    def test_decide_var_skips_stale_entries(self):
        s = Solver()
        variables = s.new_vars(8)
        for i in range(0, 8, 2):
            s.add_clause([variables[i], variables[i + 1]])
        assert s.solve()
        # Solved instance: heap may hold stale entries, but a fresh solve
        # must still pick every variable exactly once.
        assert s.solve()
        assert len(s.model()) == 8


class TestProofForStrengthenedClauses:
    def test_root_strengthened_clause_is_logged_and_verifies(self):
        from repro.sat.drat import check_rup_proof

        s = Solver(proof_logging=True)
        a, b, c = s.new_vars(3)
        clauses = [[-a], [a, b, c], [-b], [-c]]
        for clause in clauses:
            s.add_clause(clause)
        # [a, b, c] was strengthened to [b, c] by the root unit -a, then
        # to the unit [b]... the formula is unsat; the proof must include
        # the strengthened additions so the refutation checks out.
        assert s.solve() is False
        assert s.proof.ends_with_empty_clause
        assert check_rup_proof(clauses, s.proof)

    def test_strengthened_to_unit_is_logged(self):
        from repro.sat.drat import check_rup_proof

        s = Solver(proof_logging=True)
        a, b = s.new_vars(2)
        clauses = [[-a], [a, b], [-b]]
        for clause in clauses:
            s.add_clause(clause)
        # [a, b] strengthens to the unit [b], which clashes with [-b]:
        # the empty clause lands at add_clause time, before any solve.
        assert s.solve() is False
        added = [lits for op, lits in s.proof.steps if op == "a"]
        assert [b] in added, "the strengthened unit must appear in the proof"
        assert check_rup_proof(clauses, s.proof)

    def test_strengthened_binary_is_logged(self):
        from repro.sat.drat import check_rup_proof

        s = Solver(proof_logging=True)
        a, b, c, d = s.new_vars(4)
        clauses = [[-a], [a, b, c], [b, d], [-b], [-c], [-d]]
        for clause in clauses:
            s.add_clause(clause)
        assert s.solve() is False
        added = [sorted(lits) for op, lits in s.proof.steps if op == "a"]
        assert sorted([b, c]) in added
        assert check_rup_proof(clauses, s.proof)
