"""Differential tests: ReasoningSession vs a fresh engine per query.

The session's contract is semantic equivalence with fresh compilation:
identical feasibility verdicts, semantically valid minimal conflicts,
exact optima on ordering objectives, and cost optima within the engine's
documented bisection tolerance. The tests drive both paths over the same
what-if sweeps and compare.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.compile import compile_design
from repro.core.design import DesignRequest
from repro.core.engine import ReasoningEngine
from repro.core.query import Query
from repro.core.session import ReasoningSession
from repro.kb.ordering import Ordering
from repro.kb.workload import Workload
from repro.par.cache import QueryCache, request_cache_key


def _request(**kwargs) -> DesignRequest:
    defaults = dict(
        workloads=[Workload(name="app", objectives=["packet_processing"])],
    )
    defaults.update(kwargs)
    return DesignRequest(**defaults)


def _sweep() -> list[DesignRequest]:
    """Structural what-ifs plus infeasible probes over the tiny KB."""
    return [
        _request(),
        _request(required_systems=["StackB"]),
        _request(forbidden_systems=["StackA"]),
        _request(fixed_hardware={"FancyNIC": 2}),
        _request(budgets={"capex_usd": 100}),  # infeasible: too tight
        _request(workloads=[Workload(name="app", objectives=["teleportation"])]),
        _request(budgets={"capex_usd": 500_000}),
        _request(),  # re-ask the baseline
        _request(required_systems=["StackB"], budgets={"power_w": 100_000}),
    ]


def _assert_conflict_valid(kb, request, conflict):
    """The conflict must be UNSAT on a *fresh* compilation by itself."""
    compiled = compile_design(kb, request)
    lits = [compiled.selectors[name] for name in conflict.constraints]
    assert not compiled.solver.solve(lits)


class TestCheckParity:
    def test_verdicts_match_fresh_engine(self, tiny_kb):
        engine = ReasoningEngine(tiny_kb, incremental=False)
        session = ReasoningSession(tiny_kb)
        for i, request in enumerate(_sweep()):
            fresh = engine.check(request)
            inc = session.check(request)
            assert fresh.feasible == inc.feasible, f"query {i}"
            if not inc.feasible:
                assert inc.conflict is not None
                _assert_conflict_valid(tiny_kb, request, inc.conflict)
        assert session.stats.compiles == 1
        assert session.stats.queries == len(_sweep())

    def test_infeasible_query_does_not_poison_session(self, tiny_kb):
        session = ReasoningSession(tiny_kb)
        assert session.check(_request()).feasible
        assert not session.check(_request(budgets={"capex_usd": 1})).feasible
        assert session.check(_request()).feasible

    def test_reasking_a_variant_adds_no_clauses(self, tiny_kb):
        session = ReasoningSession(tiny_kb)
        variant = _request(budgets={"capex_usd": 500_000})
        session.check(_request())
        session.check(variant)
        clauses_before = len(session._compiled.solver._clauses)
        encoded_before = session.stats.groups_encoded
        session.check(variant)
        session.check(_request())
        assert len(session._compiled.solver._clauses) == clauses_before
        assert session.stats.groups_encoded == encoded_before
        assert session.stats.groups_reused > 0


class TestSynthesizeParity:
    @pytest.fixture
    def ordered_kb(self, tiny_kb):
        tiny_kb.add_ordering(Ordering("StackB", "StackA", "latency"))
        return tiny_kb

    def test_ordering_optima_exact_and_costs_close(self, ordered_kb):
        engine = ReasoningEngine(ordered_kb, incremental=False)
        session = ReasoningSession(ordered_kb)
        sweep = [
            _request(optimize=["latency", "capex_usd"]),
            _request(optimize=["latency", "capex_usd"],
                     forbidden_systems=["StackB"]),
            _request(optimize=["capex_usd"]),
            _request(optimize=["latency", "capex_usd"]),  # re-ask
        ]
        for i, request in enumerate(sweep):
            fresh = engine.synthesize(request)
            inc = session.synthesize(request)
            assert fresh.feasible == inc.feasible, f"query {i}"
            if not fresh.feasible:
                continue
            fo = fresh.solution.objective_costs
            so = inc.solution.objective_costs
            assert fo.keys() == so.keys(), f"query {i}"
            for name in fo:
                if name in ("capex_usd", "power_w"):
                    # Both sides bisect to within ~2% of the true
                    # optimum, so they may differ by twice that.
                    slack = 0.05 * max(fo[name], so[name], 1)
                    assert abs(fo[name] - so[name]) <= slack, (i, name)
                else:
                    assert fo[name] == so[name], (i, name)

    def test_compare_matches_fresh_compare(self, ordered_kb):
        baseline = _request(optimize=["latency", "capex_usd"])
        alternative = _request(optimize=["latency", "capex_usd"],
                               required_systems=["StackB"])
        fresh = ReasoningEngine(ordered_kb, incremental=False).compare(
            baseline, alternative
        )
        inc = ReasoningSession(ordered_kb).compare(baseline, alternative)
        assert fresh.both_feasible == inc.both_feasible
        for name, delta in fresh.objective_deltas().items():
            if name not in ("capex_usd", "power_w"):
                assert inc.objective_deltas()[name] == delta


class TestInvalidation:
    def test_shape_change_rebases(self, tiny_kb):
        session = ReasoningSession(tiny_kb)
        session.check(_request())
        session.check(_request(inventory={"Box": 2, "PlainNIC": 4}))
        assert session.stats.rebases == 1
        assert session.stats.compiles == 2

    def test_kb_mutation_rebases(self, tiny_kb):
        from repro.kb.system import System
        from repro.logic.ast import TRUE

        session = ReasoningSession(tiny_kb)
        assert session.check(
            _request(workloads=[Workload(name="app", objectives=["magic"])])
        ).feasible is False
        tiny_kb.add_system(System(
            name="Wand", category="monitoring", solves=["magic"],
            requires=TRUE,
        ))
        outcome = session.check(
            _request(workloads=[Workload(name="app", objectives=["magic"])])
        )
        assert outcome.feasible
        assert session.stats.rebases == 1

    def test_incompatible_required_system_rebases_or_raises(self, tiny_kb):
        # A required system outside the compiled candidate pool cannot be
        # guard-switched; the session must rebase, not silently answer.
        session = ReasoningSession(tiny_kb)
        session.check(_request(candidate_systems=["StackA"]))
        outcome = session.check(_request(candidate_systems=["StackA", "StackB"],
                                         required_systems=["StackB"]))
        assert outcome.feasible
        assert session.stats.rebases == 1


class TestEngineIntegration:
    def test_cache_key_includes_configuration(self, tiny_kb):
        request = _request()
        keys = {
            request_cache_key("check", tiny_kb, request, config)
            for config in ("", "inc=0", "inc=1")
        }
        assert len(keys) == 3
        inc = ReasoningEngine(tiny_kb, cache=QueryCache(), incremental=True)
        fresh = ReasoningEngine(tiny_kb, cache=QueryCache(), incremental=False)
        query = Query("check", request)
        assert inc.executor.cache_key(query) != fresh.executor.cache_key(query)
        # Same request, different verb or options -> different key.
        assert inc.executor.cache_key(Query("diagnose", request)) != (
            inc.executor.cache_key(query)
        )
        assert inc.executor.cache_key(
            Query("equivalence", request, class_limit=4)
        ) != inc.executor.cache_key(
            Query("equivalence", request, class_limit=64)
        )

    def test_check_many_routes_through_session(self, tiny_kb):
        engine = ReasoningEngine(tiny_kb)
        sweep = _sweep()
        outcomes = engine.check_many(sweep)
        assert engine.executor._session is not None
        assert engine.session().stats.queries > 0
        assert engine.session().stats.compiles == 1
        baseline = ReasoningEngine(tiny_kb, incremental=False).check_many(sweep)
        assert [o.feasible for o in outcomes] == [o.feasible for o in baseline]

    def test_non_incremental_engine_never_builds_session(self, tiny_kb):
        engine = ReasoningEngine(tiny_kb, incremental=False)
        engine.check_many(_sweep()[:3])
        assert engine.executor._session is None


class TestPoisonedSessions:
    """Regression: a solver exception mid-query must not leave the
    session silently reusable (the daemon pools sessions, so corrupted
    solver state would otherwise leak into later requests)."""

    def test_solver_exception_poisons_until_reset(self, tiny_kb):
        from repro.errors import SolverStateError

        session = ReasoningSession(tiny_kb)
        request = _request()
        assert session.check(request).feasible
        assert not session.poisoned

        original_view = session.view
        fail = {"on": True}

        def flaky_view(req):
            if fail["on"]:
                fail["on"] = False
                raise RuntimeError("injected mid-solve failure")
            return original_view(req)

        session.view = flaky_view
        with pytest.raises(RuntimeError):
            session.check(request)
        assert session.poisoned

        # A poisoned session refuses further queries instead of
        # answering from corrupted solver state.
        with pytest.raises(SolverStateError):
            session.check(request)

        # reset() recompiles from scratch and clears the poison.
        session.reset()
        assert not session.poisoned
        outcome = session.check(request)
        assert outcome.feasible
        assert session.stats.compiles >= 2

    def test_validation_errors_leave_session_clean(self, tiny_kb):
        from repro.errors import QueryError

        session = ReasoningSession(tiny_kb)
        assert session.check(_request()).feasible
        with pytest.raises(QueryError):
            session._executor.execute(Query("explain", _request()))
        assert not session.poisoned
        assert session.check(_request()).feasible


class TestLifetime:
    def test_dropped_session_is_freed_without_cyclic_gc(self, tiny_kb):
        """A session that answered every verb is freed, solver and all,
        as soon as its last reference goes, with the cyclic GC off."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            session = ReasoningSession(tiny_kb)
            assert session.check(_request()).feasible
            assert session.synthesize(
                _request(optimize=["capex_usd"])
            ).feasible
            session.diagnose(_request(budgets={"capex_usd": 100}))
            ref = weakref.ref(session)
            solver = weakref.ref(session._compiled.solver)
            del session
            assert ref() is None
            assert solver() is None
        finally:
            if was_enabled:
                gc.enable()
