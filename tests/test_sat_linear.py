"""Native linear constraints ``sum(w * lit) <= bound`` in the CDCL solver.

The solver propagates them by slack and explains each propagation and
conflict with a clause built from the literals that used the slack up.
These tests check the verdicts, models and cores against brute force,
the constraint against the reified adder/comparator encoding it
replaces, and the intake errors.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.errors import InvalidLiteralError, SolverStateError
from repro.sat.preprocess import preprocess_solver
from repro.sat.solver import Solver
from repro.smt.encoder import IntEncoder
from repro.smt.terms import IntVar, LinExpr


def _holds(lit: int, bits: tuple[bool, ...]) -> bool:
    return bits[abs(lit) - 1] == (lit > 0)


def _brute_force(num_vars, clauses, linear, assumptions) -> bool:
    for bits in itertools.product((False, True), repeat=num_vars):
        if (
            all(_holds(a, bits) for a in assumptions)
            and all(any(_holds(x, bits) for x in c) for c in clauses)
            and all(
                sum(w for w, x in terms if _holds(x, bits)) <= bound
                for terms, bound in linear
            )
        ):
            return True
    return False


def _random_instance(rng: random.Random):
    num_vars = rng.randint(2, 9)

    def lit() -> int:
        return rng.choice((1, -1)) * rng.randint(1, num_vars)

    clauses = [
        [lit() for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(0, 2 * num_vars))
    ]
    linear = []
    for _ in range(rng.randint(1, 4)):
        chosen = rng.sample(range(1, num_vars + 1), rng.randint(1, num_vars))
        terms = [(rng.randint(1, 9), rng.choice((1, -1)) * v) for v in chosen]
        bound = rng.randint(-1, sum(w for w, _ in terms))
        linear.append((terms, bound))
    return num_vars, clauses, linear


@pytest.mark.parametrize("seed", range(6))
def test_differential_fuzz_against_brute_force(seed):
    rng = random.Random(f"sat-linear-{seed}")
    for trial in range(120):
        num_vars, clauses, linear = _random_instance(rng)
        solver = Solver(
            restart_base=rng.choice((1, 5, 100)),
            inprocess_interval=rng.choice((1, 3000)),
        )
        solver.ensure_vars(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        for terms, bound in linear:
            solver.add_linear(terms, bound)
        for _ in range(4):
            chosen = rng.sample(range(1, num_vars + 1),
                                rng.randint(0, min(num_vars, 4)))
            assumptions = [rng.choice((1, -1)) * v for v in chosen]
            expected = _brute_force(num_vars, clauses, linear, assumptions)
            assert solver.solve(assumptions) == expected, (
                trial, clauses, linear, assumptions)
            if expected:
                bits = tuple(solver.model()[v]
                             for v in range(1, num_vars + 1))
                assert all(_holds(a, bits) for a in assumptions)
                assert all(any(_holds(x, bits) for x in c) for c in clauses)
                for terms, bound in linear:
                    assert sum(w for w, x in terms if _holds(x, bits)) <= bound
            else:
                core = solver.unsat_core()
                assert set(core) <= set(assumptions)
                assert not _brute_force(num_vars, clauses, linear, core)


@pytest.mark.parametrize("seed", range(10))
def test_agrees_with_the_reified_comparator(seed):
    """A guarded native constraint and ``reify`` agree on every probe."""
    rng = random.Random(f"sat-linear-reify-{seed}")
    solver = Solver()
    encoder = IntEncoder(solver)
    variables = [
        IntVar(f"x{i}", lo, lo + rng.randint(1, 12))
        for i, lo in enumerate(rng.randint(-4, 4) for _ in range(3))
    ]
    expr = LinExpr(
        {v: rng.choice((-7, -3, -1, 1, 2, 5, 11)) for v in variables},
        rng.randint(-20, 20),
    )
    guard = solver.new_var()
    encoder.assert_implies(guard, expr <= 0)
    comparator = encoder.reify(expr <= 0)
    bits = [bit for v in variables for bit in encoder.bits_for(v)]
    for _ in range(40):
        chosen = rng.sample(bits, rng.randint(0, len(bits)))
        assumptions = [rng.choice((1, -1)) * b for b in chosen]
        native = solver.solve([guard] + assumptions)
        assert native == solver.solve([comparator] + assumptions)
        if native:
            values = encoder.values(solver.model())
            assert expr.evaluate(values) <= 0
    # The guard is the constraint, nothing more.
    assert not solver.solve([guard, -comparator])
    if solver.solve([comparator]):
        assert solver.solve([-guard, comparator])


def test_propagates_by_slack_and_retires_at_the_root():
    solver = Solver()
    a, b, c, act = solver.new_vars(4)
    assert solver.add_linear([(5, a), (3, b), (2, c), (6, act)], 10)
    assert solver.num_linear == 1
    assert solver.solve([act])
    model = solver.model()
    assert 5 * model[a] + 3 * model[b] + 2 * model[c] <= 4
    assert not solver.solve([act, a])
    assert set(solver.unsat_core()) == {act, a}
    solver.add_clause([-act])  # retire the activation literal
    assert solver.solve([a, b, c])
    assert solver.num_linear == 0


def test_trivial_and_root_falsified_constraints():
    solver = Solver()
    a, b = solver.new_vars(2)
    assert solver.add_linear([(1, a), (1, b)], 2)  # can never fail
    assert solver.num_linear == 0
    assert solver.add_clause([a])
    assert not solver.add_linear([(3, a)], 2)  # root-true literal overruns
    assert not solver.solve()


class TestErrors:
    @pytest.mark.parametrize("weight", [0, -2, 1.5, True])
    def test_weights_must_be_positive_ints(self, weight):
        solver = Solver()
        a, b = solver.new_vars(2)
        with pytest.raises(ValueError):
            solver.add_linear([(weight, a), (1, b)], 1)
        assert solver.num_linear == 0

    @pytest.mark.parametrize("second", [1, -1])
    def test_a_variable_appears_once(self, second):
        solver = Solver()
        a, b = solver.new_vars(2)
        with pytest.raises(ValueError):
            solver.add_linear([(2, a), (1, b), (3, second * a)], 2)

    def test_invalid_literal(self):
        solver = Solver()
        solver.new_vars(2)
        with pytest.raises(InvalidLiteralError):
            solver.add_linear([(1, 3)], 0)

    def test_eliminated_variable(self):
        solver = Solver()
        a, b, c = solver.new_vars(3)
        solver.add_clause([a, b])
        solver.add_clause([-a, c])
        preprocess_solver(solver, frozen=[b, c])
        assert a in solver.eliminated_vars
        with pytest.raises(SolverStateError):
            solver.add_linear([(1, a), (1, b)], 1)

    def test_linear_variables_are_never_eliminated(self):
        solver = Solver()
        a, b, c = solver.new_vars(3)
        solver.add_clause([a, b])
        solver.add_clause([-a, c])
        solver.add_linear([(2, a), (2, b)], 2)
        preprocess_solver(solver, frozen=[b, c])
        assert a not in solver.eliminated_vars
        assert solver.solve([a])
        assert not solver.solve([a, b])

    def test_only_at_decision_level_zero(self):
        solver = Solver()
        a, b = solver.new_vars(2)
        solver._new_decision_level()
        with pytest.raises(SolverStateError):
            solver.add_linear([(1, a), (1, b)], 1)
        solver._cancel_until(0)
        assert solver.add_linear([(1, a), (1, b)], 1)

    def test_refused_on_a_proof_logging_solver(self):
        """DRAT proofs are clause-only: slack reasoning has no RUP steps."""
        solver = Solver(proof_logging=True)
        a, b = solver.new_vars(2)
        with pytest.raises(SolverStateError):
            solver.add_linear([(1, a), (1, b)], 1)
