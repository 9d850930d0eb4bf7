"""Tests for the descent driver (weighted MaxSAT, lexicographic and linear
minimization) and for model enumeration."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.logic.pseudo_boolean import PBTerm
from repro.opt import (
    LexObjective,
    count_models,
    descend,
    enumerate_models,
    equivalence_classes,
    lexicographic_optimize,
)
from repro.opt.linear import expr_value, minimize_linexpr
from repro.sat import Solver
from repro.smt import IntEncoder, IntVar
from tests.conftest import random_clauses


def _brute_min_cost(n, hard, soft):
    best = None
    for bits in itertools.product([False, True], repeat=n):
        if not all(
            any((lit > 0) == bits[abs(lit) - 1] for lit in cl) for cl in hard
        ):
            continue
        cost = sum(
            w
            for cl, w in soft
            if not any((lit > 0) == bits[abs(lit) - 1] for lit in cl)
        )
        best = cost if best is None else min(best, cost)
    return best


def _soft_objective(solver, soft):
    """Relax each ``(clause, weight)`` with a fresh literal; charge its weight."""
    terms = []
    for lits, weight in soft:
        relax = solver.new_var()
        solver.add_clause(list(lits) + [relax])
        terms.append(PBTerm(weight, relax))
    return LexObjective("violations", terms)


class TestMaxSat:
    """Weighted partial MaxSAT through the driver: each soft clause gets a
    relaxation literal, and the weighted sum of those is minimized."""

    @pytest.mark.parametrize("route", ["linear", "binary"])
    def test_simple_tradeoff(self, route):
        # a or b; violating "not a" costs 1, violating "not b" costs 3.
        # "linear": the cost as a linear integer expression over 0/1
        # variables, through minimize_linexpr's bit-vector comparators.
        # "binary": relaxation literals, bisected on the totalizer outputs.
        s = Solver()
        if route == "linear":
            encoder = IntEncoder(s)
            x, y = IntVar("a", 0, 1), IntVar("b", 0, 1)
            encoder.assert_constraint((x + y) >= 1)
            assert s.solve()
            model, cost, _ = minimize_linexpr(
                s, encoder, 1 * x + 3 * y, s.model(), []
            )
            values = encoder.values(model)
            chosen = (values[x] == 1, values[y] == 1)
        else:
            a, b = s.new_vars(2)
            s.add_clause([a, b])
            objective = _soft_objective(s, [([-a], 1), ([-b], 3)])
            assert s.solve()
            model, cost, _ = lexicographic_optimize(
                s, objective, s.model(), []
            )
            chosen = (model[a], model[b])
        assert cost == 1
        assert chosen == (True, False)  # only "not a" is violated

    @pytest.mark.parametrize("guarded", [False, True], ids=["hard", "guarded"])
    def test_matches_brute_force(self, guarded):
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randint(2, 6)
            hard = random_clauses(rng, n, rng.randint(0, 4))
            soft = [
                (random_clauses(rng, n, 1)[0], rng.randint(1, 5))
                for _ in range(rng.randint(1, 5))
            ]
            expected = _brute_min_cost(n, hard, soft)
            s = Solver()
            s.new_vars(n)
            for clause in hard:
                s.add_clause(clause)
            objective = _soft_objective(s, soft)
            # Guarded: the session-path shape, bounds behind an
            # activation literal that every solve assumes.
            act = s.new_var() if guarded else None
            base = [act] if guarded else []
            if not s.solve(base):
                assert expected is None
                continue
            model, cost, _ = lexicographic_optimize(
                s, objective, s.model(), base, freeze_lit=act
            )
            assert cost == expected
            assert objective.cost(model) == expected
            # The optimum stays frozen for later objectives.
            assert s.solve(base)
            assert objective.cost(s.model()) == expected

    def test_zero_cost_optimum(self):
        s = Solver()
        a = s.new_var()
        objective = _soft_objective(s, [([a], 5)])
        assert s.solve()
        model, cost, _ = lexicographic_optimize(s, objective, s.model(), [])
        assert cost == 0
        assert model[a]  # the soft clause holds


class TestLexicographic:
    def test_priority_order_matters(self):
        # obj1 wants a false; obj2 wants b false; a<->not b forced.
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        s.add_clause([-a, -b])
        assert s.solve()
        model, first, _ = lexicographic_optimize(
            s, LexObjective("first", [PBTerm(1, a)]), s.model(), []
        )
        model, second, _ = lexicographic_optimize(
            s, LexObjective("second", [PBTerm(1, b)]), model, []
        )
        assert (first, second) == (0, 1)
        assert model[b] is True

    def test_zero_cost_objective_frozen(self):
        # Regression: an objective already at 0 must stay at 0.
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        assert s.solve()
        model, first, _ = lexicographic_optimize(
            s, LexObjective("keep_a_off", [PBTerm(5, a)]), s.model(), []
        )
        model, second, _ = lexicographic_optimize(
            s, LexObjective("keep_b_off", [PBTerm(1, b)]), model, []
        )
        assert (first, second) == (0, 1)

    def test_negative_weight_rejected(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a, -a])
        assert s.solve()
        with pytest.raises(ValueError):
            lexicographic_optimize(
                s, LexObjective("bad", [PBTerm(-1, a)]), s.model(), []
            )

    def test_empty_objective(self):
        s = Solver()
        s.new_var()
        assert s.solve()
        model = s.model()
        result = lexicographic_optimize(s, LexObjective("empty", []), model, [])
        assert result == (model, 0, 0)


class TestDescent:
    def test_no_opening_solve(self):
        # x has 8 one-hot values; cost is the index of the true one.
        s = Solver()
        xs = s.new_vars(8)
        s.add_clause(xs)
        for i, j in itertools.combinations(xs, 2):
            s.add_clause([-i, -j])
        assert s.solve([xs[7]])
        calls = []
        solve = s.solve

        def counting(assumptions=()):
            calls.append(list(assumptions))
            return solve(assumptions)

        s.solve = counting
        model, value, probes = descend(
            s,
            [],
            s.model(),
            cost=lambda m: next(i for i, x in enumerate(xs) if m[x]),
            at_most=lambda k: [-x for x in xs[k + 1:]],
            lo=0,
        )
        assert value == 0 and model[xs[0]]
        assert probes == 3  # bisection over [0, 7]
        assert len(calls) == probes + 1  # probes, then one frozen solve
        assert calls[-1] == []


class TestLinearMin:
    def test_minimize_simple(self):
        s = Solver()
        encoder = IntEncoder(s)
        x = IntVar("x", 0, 100)
        y = IntVar("y", 0, 100)
        encoder.assert_constraint((x + y) >= 30)
        assert s.solve()
        model, value, _ = minimize_linexpr(
            s, encoder, 2 * x + 3 * y, s.model(), []
        )
        assert value == 60  # all weight on the cheap variable
        values = encoder.values(model)
        assert values[x] == 30 and values[y] == 0

    def test_freeze_persists(self):
        s = Solver()
        encoder = IntEncoder(s)
        x = IntVar("x", 0, 50)
        encoder.assert_constraint(x >= 7)
        assert s.solve()
        _, value, _ = minimize_linexpr(s, encoder, 1 * x, s.model(), [])
        assert value == 7
        # After freezing, larger values are unreachable.
        probe = encoder.reify(x >= 8)
        assert not s.solve([probe])

    def test_tolerance_stops_early(self):
        def minimize(tolerance):
            s = Solver()
            encoder = IntEncoder(s)
            x = IntVar("x", 0, 1000)
            encoder.assert_constraint(x >= 100)
            assert s.solve([encoder.reify(x >= 900)])  # a poor incumbent
            return minimize_linexpr(
                s, encoder, 1 * x, s.model(), [], tolerance=tolerance
            )

        _, exact, exact_probes = minimize(0)
        _, loose, loose_probes = minimize(50)
        assert exact == 100
        assert 100 <= loose <= 150
        assert loose_probes < exact_probes

    def test_expr_value(self):
        s = Solver()
        encoder = IntEncoder(s)
        x = IntVar("x", 0, 10)
        encoder.assert_constraint(x.eq(4))
        s.solve()
        assert expr_value(3 * x + 2, encoder, s.model()) == 14


class TestEnumeration:
    def test_enumerate_all(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        models = list(enumerate_models(s, [a, b]))
        assert len(models) == 3
        assert all(m[a] or m[b] for m in models)

    def test_limit(self):
        s = Solver()
        vs = s.new_vars(4)
        assert count_models(s, vs, limit=5) == 5

    def test_projection_collapses(self):
        s = Solver()
        a, b, c = s.new_vars(3)
        s.add_clause([a])
        assert count_models(s, [a]) == 1  # b, c projected away

    def test_empty_projection(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a])
        assert count_models(s, []) == 1
        s2 = Solver()
        x = s2.new_var()
        s2.add_clause([x])
        s2.add_clause([-x])
        assert count_models(s2, []) == 0

    def test_equivalence_classes_with_completions(self):
        s = Solver()
        a, b, c = s.new_vars(3)
        s.add_clause([a, b])
        classes = equivalence_classes(s, observed=[a], refinement=[b, c])
        by_sig = {cls.signature[a]: cls.completions for cls in classes}
        assert by_sig == {True: 4, False: 2}

    def test_unsat_yields_no_classes(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a])
        s.add_clause([-a])
        assert equivalence_classes(s, observed=[a]) == []
