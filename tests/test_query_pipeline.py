"""The unified query pipeline: Query IR, executor stages, and parity.

Covers the invariants the pipeline refactor introduced:

- the Query IR validates verbs and keys caches canonically (verb and
  options can never collide);
- ``diagnose``/``equivalence``/``enumerate``/``compare`` gain result
  caching with per-verb hit/miss metrics;
- deletion-based MUS minimization is one-pass (solver-call count pinned);
- session-vs-fresh differential parity: minimal conflict sets and
  equivalence-class partitions are identical with ``incremental`` on
  (a preprocessed session) and off (a fresh compile), over a fuzzed
  request population.
"""

from __future__ import annotations

import random

import pytest

import repro.core.executor as executor_module
from repro.core.design import DesignRequest
from repro.core.diagnose import minimize_core
from repro.core.engine import ReasoningEngine
from repro.core.executor import QueryExecutor
from repro.core.query import CACHEABLE_VERBS, Query, VERBS
from repro.errors import QueryError, UnknownEntityError
from repro.kb.dsl import sys_var
from repro.kb.ordering import Ordering
from repro.kb.rules import Rule
from repro.kb.workload import Workload
from repro.logic.ast import Not
from repro.obs.observer import EngineObserver
from repro.par.cache import QueryCache
from repro.sat.solver import Solver


def _request(**kwargs) -> DesignRequest:
    defaults = dict(
        workloads=[Workload(name="app", objectives=["packet_processing"])],
    )
    defaults.update(kwargs)
    return DesignRequest(**defaults)


# ---------------------------------------------------------------------------
# Query IR
# ---------------------------------------------------------------------------


class TestQueryIR:
    def test_rejects_unknown_verbs(self):
        with pytest.raises(QueryError):
            Query("summon", _request())

    def test_every_verb_is_known(self):
        for verb in VERBS:
            assert Query(verb, _request()).verb == verb

    def test_explain_is_not_cacheable(self):
        assert not Query("explain", _request()).cacheable
        for verb in CACHEABLE_VERBS:
            assert Query(verb, _request()).cacheable

    def test_cache_key_covers_verb_and_options(self, tiny_kb):
        request = _request()
        keys = {
            Query(verb, request).cache_key(tiny_kb)
            for verb in CACHEABLE_VERBS
        }
        assert len(keys) == len(CACHEABLE_VERBS)
        assert Query(
            "equivalence", request, class_limit=4
        ).cache_key(tiny_kb) != Query(
            "equivalence", request, class_limit=8
        ).cache_key(tiny_kb)
        assert Query("enumerate", request, limit=2).cache_key(
            tiny_kb
        ) != Query("enumerate", request, limit=3).cache_key(tiny_kb)

    def test_cache_key_covers_executor_config(self, tiny_kb):
        query = Query("check", _request())
        assert query.cache_key(tiny_kb, "inc=1") != query.cache_key(
            tiny_kb, "inc=0"
        )


# ---------------------------------------------------------------------------
# Executor caching (diagnose / equivalence / compare)
# ---------------------------------------------------------------------------


class TestExecutorCaching:
    def test_diagnose_conflicts_are_cached(self, tiny_kb):
        observer = EngineObserver()
        engine = ReasoningEngine(
            tiny_kb, observer=observer, cache=QueryCache()
        )
        bad = _request(
            required_systems=["StackA"], forbidden_systems=["StackA"]
        )
        first = engine.diagnose(bad)
        second = engine.diagnose(bad)
        assert first is second
        assert first.constraints == ["forbidden:StackA", "required:StackA"]
        assert observer.metrics.counter("cache.diagnose.misses") == 1
        assert observer.metrics.counter("cache.diagnose.hits") == 1
        assert observer.metrics.counter("queries.diagnose") == 1

    def test_feasible_diagnose_caches_none(self, tiny_kb):
        observer = EngineObserver()
        engine = ReasoningEngine(
            tiny_kb, observer=observer, cache=QueryCache()
        )
        ok = _request()
        assert engine.diagnose(ok) is None
        assert engine.diagnose(ok) is None
        # The None result must come from the cache, not be recomputed:
        # the miss sentinel is distinct from a cached None.
        assert observer.metrics.counter("cache.diagnose.hits") == 1
        assert observer.metrics.counter("queries.diagnose") == 1

    def test_diagnose_and_check_never_collide(self, tiny_kb):
        cache = QueryCache()
        engine = ReasoningEngine(tiny_kb, cache=cache)
        bad = _request(
            required_systems=["Monitor"], forbidden_systems=["Monitor"]
        )
        outcome = engine.check(bad)
        conflict = engine.diagnose(bad)
        assert cache.stats()["size"] == 2
        assert not outcome.feasible
        assert conflict.constraints == outcome.conflict.constraints

    def test_compare_shares_cache_with_synthesize(self, tiny_kb):
        observer = EngineObserver()
        engine = ReasoningEngine(
            tiny_kb, observer=observer, cache=QueryCache()
        )
        baseline = _request(optimize=["capex_usd"])
        alternative = _request(
            optimize=["capex_usd"], required_systems=["Monitor"]
        )
        first = engine.compare(baseline, alternative)
        second = engine.compare(baseline, alternative)
        assert second.baseline is first.baseline
        assert second.alternative is first.alternative
        assert observer.metrics.counter("cache.synthesize.hits") == 2
        # A plain synthesize of the baseline is the same cache entry.
        assert engine.synthesize(baseline) is first.baseline
        assert observer.metrics.counter("queries.synthesize") == 2

    def test_equivalence_cached_per_options(self, tiny_kb):
        observer = EngineObserver()
        engine = ReasoningEngine(
            tiny_kb, observer=observer, cache=QueryCache()
        )
        request = _request()
        wide = engine.equivalence_classes(request, class_limit=16)
        again = engine.equivalence_classes(request, class_limit=16)
        narrow = engine.equivalence_classes(request, class_limit=1)
        assert again is wide
        assert len(narrow) == 1
        assert observer.metrics.counter("cache.equivalence.misses") == 2
        assert observer.metrics.counter("cache.equivalence.hits") == 1


# ---------------------------------------------------------------------------
# Executor verbs
# ---------------------------------------------------------------------------


class TestExecutorVerbs:
    def test_enumerate_deployments(self, tiny_kb):
        engine = ReasoningEngine(tiny_kb)
        deployments = engine.enumerate_deployments(_request())
        assert set(deployments) == {
            ("StackA",),
            ("StackB",),
            ("Monitor", "StackA"),
            ("Monitor", "StackB"),
        }
        # Smallest deployments first, then lexicographic.
        assert deployments[0] == ("StackA",)
        assert len(deployments[0]) <= len(deployments[-1])
        # Enumeration must not poison the shared session solver.
        assert engine.check(_request()).feasible

    def test_enumerate_respects_limit_and_infeasible(self, tiny_kb):
        engine = ReasoningEngine(tiny_kb)
        assert len(engine.enumerate_deployments(_request(), limit=2)) == 2
        bad = _request(
            required_systems=["StackA"], forbidden_systems=["StackA"]
        )
        assert engine.enumerate_deployments(bad) == []

    def test_explain_requires_outcome(self, tiny_kb):
        executor = QueryExecutor(tiny_kb)
        with pytest.raises(QueryError):
            executor.execute(Query("explain", _request()))

    def test_explain_through_executor(self, tiny_kb):
        engine = ReasoningEngine(tiny_kb)
        request = _request()
        feasible = engine.check(request)
        assert "StackA" in engine.explain(
            request, feasible
        ) or "StackB" in engine.explain(request, feasible)
        bad = _request(
            required_systems=["StackA"], forbidden_systems=["StackA"]
        )
        text = engine.explain(bad, engine.check(bad))
        assert "required:StackA" in text

    def test_session_rejects_unknown_entities(self, tiny_kb):
        engine = ReasoningEngine(tiny_kb)  # incremental by default
        with pytest.raises(UnknownEntityError):
            engine.diagnose(_request(forbidden_systems=["Ghost"]))
        with pytest.raises(UnknownEntityError):
            engine.check(_request(fixed_hardware={"GhostNIC": 1}))

    def test_batch_mixed_verbs_through_one_executor(self, tiny_kb):
        executor = QueryExecutor(tiny_kb, cache=QueryCache())
        bad = _request(
            required_systems=["StackB"], forbidden_systems=["StackB"]
        )
        results = executor.execute_many(
            [
                Query("check", _request()),
                Query("diagnose", bad),
                Query("diagnose", _request()),
            ]
        )
        assert results[0].feasible
        assert results[1].constraints == [
            "forbidden:StackB", "required:StackB"
        ]
        assert results[2] is None


# ---------------------------------------------------------------------------
# Synthesize: one descent per objective, no solve re-finds a model in hand
# ---------------------------------------------------------------------------


class TestSynthesizeSolveSequence:
    @pytest.fixture
    def rich_kb(self, tiny_kb):
        tiny_kb.add_ordering(Ordering("StackB", "StackA", "latency"))
        tiny_kb.add_rule(Rule(
            name="avoid_stack_a",
            formula=Not(sys_var("StackA")),
            severity="soft",
            weight=3,
        ))
        return tiny_kb

    @pytest.mark.parametrize(
        "incremental", [True, False], ids=["session", "fresh"]
    )
    def test_descents_thread_the_model(self, rich_kb, incremental,
                                       monkeypatch):
        events = []
        solve, add_clause = Solver.solve, Solver.add_clause

        def spy_solve(self, assumptions=()):
            satisfiable = solve(self, assumptions)
            events.append((tuple(assumptions), satisfiable))
            return satisfiable

        def spy_add_clause(self, lits):
            events.append(None)
            return add_clause(self, lits)

        monkeypatch.setattr(Solver, "solve", spy_solve)
        monkeypatch.setattr(Solver, "add_clause", spy_add_clause)
        descents = []  # (objective, probes), one per entry call

        def spy(entry, objective_name):
            def wrapped(*args, **kwargs):
                model, value, probes = entry(*args, **kwargs)
                descents.append((objective_name(*args), probes))
                return model, value, probes
            monkeypatch.setattr(executor_module, entry.__name__, wrapped)

        spy(executor_module.minimize_linexpr, lambda *args: "cost")
        spy(executor_module.lexicographic_optimize,
            lambda solver, objective, *rest: objective.name)
        engine = ReasoningEngine(rich_kb, incremental=incremental)
        outcome = engine.synthesize(
            _request(optimize=["latency", "capex_usd"])
        )
        assert outcome.feasible
        assert [name for name, _ in descents] == [
            "latency", "cost", "soft_rules", "parsimony"
        ]
        solves = [event for event in events if event is not None]
        previous = None  # assumptions of the last SAT solve, if no clause since
        for event in events:
            if event is None:
                previous = None
                continue
            assumptions, satisfiable = event
            assert assumptions != previous, "solve re-finds the model in hand"
            previous = assumptions if satisfiable else None
        # One feasibility solve, then each descent's probes and its one
        # post-freeze solve (every objective here has terms).
        assert len(solves) == 1 + sum(probes + 1 for _, probes in descents)


# ---------------------------------------------------------------------------
# MUS minimization is one-pass
# ---------------------------------------------------------------------------


class _ScriptedSolver:
    """SAT iff the designated MUS is not fully assumed; cores echo the
    assumptions (the least-helpful legal core a CDCL solver may return)."""

    def __init__(self, mus_lits: set[int]):
        self.mus = set(mus_lits)
        self.calls = 0
        self._last: list[int] = []

    def solve(self, assumptions):
        self.calls += 1
        self._last = list(assumptions)
        return not self.mus <= set(assumptions)

    def unsat_core(self):
        return list(self._last)


class _ScriptedCompiled:
    def __init__(self, names: list[str], mus_names: list[str]):
        self.selectors = {name: i + 1 for i, name in enumerate(names)}
        self.solver = _ScriptedSolver(
            {self.selectors[name] for name in mus_names}
        )

    def core_names(self):
        by_lit = {lit: name for name, lit in self.selectors.items()}
        return [
            by_lit[lit]
            for lit in self.solver.unsat_core()
            if lit in by_lit
        ]


class TestMinimizeCoreIsOnePass:
    def test_finds_the_unique_mus(self):
        names = [f"g{i:02d}" for i in range(12)]
        mus = ["g02", "g07", "g11"]
        compiled = _ScriptedCompiled(names, mus)
        assert sorted(minimize_core(compiled, list(names))) == sorted(mus)

    def test_solver_call_count_is_linear(self):
        # Before the fix, every successful deletion reset the scan to
        # index 0, re-confirming the whole prefix: quadratic solve calls
        # even with a cooperative solver. One pass needs exactly one
        # call per initial core element.
        names = [f"g{i:02d}" for i in range(12)]
        compiled = _ScriptedCompiled(names, ["g02", "g07", "g11"])
        minimize_core(compiled, list(names))
        assert compiled.solver.calls == len(names)

    def test_call_count_on_a_real_seeded_conflict(self, tiny_kb):
        # required Monitor needs NIC timestamps, but the only NIC with
        # them is frozen at zero units; the engine-facing guarantee:
        # minimization stays within one solve per initial-core element
        # on a live CDCL solver too.
        engine = ReasoningEngine(tiny_kb, incremental=False)
        request = _request(
            required_systems=["Monitor"],
            fixed_hardware={"FancyNIC": 0},
        )
        compiled = engine.compile(request)
        assert not compiled.solve()
        initial = len(compiled.core_names())
        calls = 0
        original_solve = compiled.solver.solve

        def counting_solve(assumptions=()):
            nonlocal calls
            calls += 1
            return original_solve(assumptions)

        compiled.solver.solve = counting_solve
        conflict_names = minimize_core(
            compiled, sorted(compiled.core_names())
        )
        assert calls <= initial
        assert "required:Monitor" in conflict_names
        assert "fixed_hardware:FancyNIC" in conflict_names


# ---------------------------------------------------------------------------
# Session-vs-fresh differential parity (fuzzed)
# ---------------------------------------------------------------------------


#: ``(incremental,)``: a session (which preprocesses its compiled base)
#: against a fresh compile (which never preprocesses), so parity also
#: shows that preprocessing changes no verdict, conflict or partition.
_CONFIGS = (
    (True,),
    (False,),
)


def _fuzzed_requests(seed: int, count: int) -> list[DesignRequest]:
    """Randomized requests over tiny_kb, mixing feasible and infeasible.

    The generator keeps the request *shape* (workloads, candidates,
    inventory) constant so incremental engines exercise guard reuse
    rather than rebasing every query.
    """
    rng = random.Random(seed)
    systems = ["StackA", "StackB", "Monitor"]
    out = []
    for _ in range(count):
        required = [s for s in systems if rng.random() < 0.35]
        forbidden = [s for s in systems if rng.random() < 0.3]
        budgets = {}
        if rng.random() < 0.5:
            budgets["capex_usd"] = rng.choice([150, 600, 1500, 40_000])
        if rng.random() < 0.3:
            budgets["power_w"] = rng.choice([5, 40, 5_000])
        fixed = {}
        if rng.random() < 0.3:
            fixed["FancyNIC"] = rng.choice([0, 1])
        if rng.random() < 0.2:
            fixed["Box"] = rng.choice([0, 2])
        objectives = rng.choice(
            [["packet_processing"], ["packet_processing",
                                     "detect_queue_length"]]
        )
        out.append(_request(
            workloads=[Workload(name="app", objectives=objectives)],
            required_systems=required,
            forbidden_systems=forbidden,
            budgets=budgets,
            fixed_hardware=fixed,
        ))
    return out


class TestSessionFreshParity:
    def test_diagnose_parity_over_fuzzed_requests(self, tiny_kb):
        requests = _fuzzed_requests(seed=1338, count=60)
        engines = {
            config: ReasoningEngine(tiny_kb, incremental=config[0])
            for config in _CONFIGS
        }
        infeasible = 0
        for i, request in enumerate(requests):
            conflicts = {
                config: engines[config].diagnose(request)
                for config in _CONFIGS
            }
            reference = conflicts[(True,)]
            for config, conflict in conflicts.items():
                if reference is None:
                    assert conflict is None, (i, config)
                else:
                    assert conflict is not None, (i, config)
                    assert conflict.constraints == reference.constraints, (
                        i, config
                    )
            if reference is not None:
                infeasible += 1
        # The fuzz must exercise both outcomes to mean anything.
        assert 5 <= infeasible <= len(requests) - 5

    def test_equivalence_parity_over_fuzzed_requests(self, tiny_kb):
        requests = _fuzzed_requests(seed=90125, count=48)
        engines = {
            config: ReasoningEngine(tiny_kb, incremental=config[0])
            for config in _CONFIGS
        }
        nonempty = 0
        for i, request in enumerate(requests):
            partitions = {
                config: [
                    (tuple(cls.systems), cls.completions)
                    for cls in engines[config].equivalence_classes(
                        request, class_limit=None, completions_limit=8
                    )
                ]
                for config in _CONFIGS
            }
            reference = partitions[(True,)]
            for config, partition in partitions.items():
                assert partition == reference, (i, config)
            if reference:
                nonempty += 1
        assert 5 <= nonempty <= len(requests) - 5
