"""Unit tests for ``repro.par``: cube-and-conquer, cache, and batch queries.

Covers the contract points the differential suites don't:

- **determinism** — restart-segment stepping follows the uninterrupted
  search, and cube-and-conquer repeats its verdicts and trajectories;
- **cache semantics** — LRU bounds, hit/miss/eviction accounting,
  metrics mirroring, KB-fingerprint invalidation;
- **batch API** — ``check_many``/``synthesize_many`` agree with the
  sequential verbs and dedupe identical requests.
"""

from __future__ import annotations

import multiprocessing
import queue
import random
import time

import pytest

from repro.obs import MetricsRegistry
from repro.par import QueryCache, request_cache_key, solve_cubes
from repro.sat import Solver
from tests.conftest import brute_force_sat


def _hard_instance(seed: int, num_vars: int = 40):
    rng = random.Random(f"par-instance-{seed}")
    clauses = []
    for _ in range(int(num_vars * 4.2)):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v * rng.choice([1, -1]) for v in variables])
    return num_vars, clauses


# -- determinism -------------------------------------------------------------


def test_solve_step_follows_solo_trajectory():
    """Interleaving whole restart segments must not change the search:
    stepping to completion equals one uninterrupted solve() call."""
    for seed in range(6):
        num_vars, clauses = _hard_instance(seed, num_vars=30)
        solo = Solver()
        solo.new_vars(num_vars)
        for clause in clauses:
            solo.add_clause(clause)
        expected = solo.solve()

        stepped = Solver()
        stepped.new_vars(num_vars)
        for clause in clauses:
            stepped.add_clause(clause)
        while True:
            result = stepped.solve_step()
            if result.satisfiable is not None:
                break
        assert result.satisfiable == expected
        assert stepped.stats.conflicts == solo.stats.conflicts
        assert stepped.stats.decisions == solo.stats.decisions


def test_process_mode_verdict_is_deterministic():
    num_vars, clauses = _hard_instance(3, num_vars=20)
    expected = brute_force_sat(num_vars, clauses)
    verdicts = {
        solve_cubes(
            num_vars, clauses, k=2, jobs=2, probe_conflicts=0
        ).satisfiable
        for _ in range(2)
    }
    assert verdicts == {expected}


class _LateQueue:
    """A result queue whose first read times out only once every worker
    has exited: the race where workers report and exit while the
    conquer loop's read is timing out."""

    def __init__(self, inner):
        self.inner = inner
        self.stalled = False

    def put(self, item):
        self.inner.put(item)

    def get(self, timeout=None):
        if not self.stalled:
            self.stalled = True
            deadline = time.monotonic() + 30
            while (multiprocessing.active_children()
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            raise queue.Empty
        return self.inner.get(timeout=timeout)


def test_process_mode_reads_results_sent_just_before_exit(monkeypatch):
    """A worker that reported and then exited during a read that timed
    out is not counted as dead: its result is read next."""
    from repro.par import cubes as cubes_mod

    real = cubes_mod._mp_context()

    class _Context:
        Process = real.Process

        @staticmethod
        def Queue():
            return _LateQueue(real.Queue())

    monkeypatch.setattr(cubes_mod, "_mp_context", _Context)
    # UNSAT, so the verdict needs every cube's report.
    num_vars, clauses = _hard_instance(1, num_vars=20)
    assert brute_force_sat(num_vars, clauses) is False
    result = solve_cubes(num_vars, clauses, k=2, jobs=2, probe_conflicts=0)
    assert result.mode == "process"
    assert result.satisfiable is False


# -- LRU cache ---------------------------------------------------------------


def test_cache_lru_eviction_order():
    cache = QueryCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a"; "b" is now LRU
    cache.put("c", 3)
    assert "b" not in cache
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    stats = cache.stats()
    assert stats["evictions"] == 1
    assert stats["size"] == 2


def test_cache_counters_and_metrics_mirroring():
    metrics = MetricsRegistry()
    cache = QueryCache(maxsize=1, metrics=metrics, name="qc")
    cache.get("missing")
    cache.put("k", "v")
    cache.get("k")
    cache.put("k2", "v2")  # evicts "k"
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1
    assert metrics.counter("qc.hits") == 1
    assert metrics.counter("qc.misses") == 1
    assert metrics.counter("qc.evictions") == 1
    assert metrics.gauge("qc.size") == 1
    cache.clear()
    assert len(cache) == 0
    assert metrics.gauge("qc.size") == 0


def test_cache_rejects_nonpositive_maxsize():
    with pytest.raises(ValueError):
        QueryCache(maxsize=0)


# -- KB fingerprint and engine-level invalidation ----------------------------


def test_kb_fingerprint_changes_on_mutation(tiny_kb):
    from repro.kb.system import System
    from repro.logic.ast import TRUE

    before = tiny_kb.fingerprint()
    assert tiny_kb.fingerprint() == before, "fingerprint must be stable"
    version_before = tiny_kb.version
    tiny_kb.add_system(System(
        name="Extra", category="monitoring", solves=["detect_queue_length"],
        requires=TRUE,
    ))
    assert tiny_kb.version == version_before + 1
    assert tiny_kb.fingerprint() != before


def test_request_cache_key_tracks_kb_and_request(tiny_kb):
    from repro.core.design import DesignRequest
    from repro.kb.system import System
    from repro.kb.workload import Workload
    from repro.logic.ast import TRUE

    request = DesignRequest(workloads=[Workload(
        name="w", objectives=["packet_processing"]
    )])
    base = request_cache_key("check", tiny_kb, request)
    assert request_cache_key("check", tiny_kb, request) == base
    assert request_cache_key("synthesize", tiny_kb, request) != base
    other = DesignRequest(workloads=[Workload(
        name="w2", objectives=["packet_processing"]
    )])
    assert request_cache_key("check", tiny_kb, other) != base
    tiny_kb.add_system(System(
        name="Extra", category="monitoring", solves=["detect_queue_length"],
        requires=TRUE,
    ))
    assert request_cache_key("check", tiny_kb, request) != base


# -- engine integration ------------------------------------------------------


def _requests(tiny_kb):
    from repro.core.design import DesignRequest
    from repro.kb.workload import Workload

    return [
        DesignRequest(workloads=[Workload(
            name=f"w{i}", objectives=["packet_processing"],
        )])
        for i in range(3)
    ]


def test_engine_cache_hit_returns_same_outcome(tiny_kb):
    from repro.core.engine import ReasoningEngine

    cache = QueryCache()
    engine = ReasoningEngine(tiny_kb, cache=cache)
    request = _requests(tiny_kb)[0]
    cold = engine.check(request)
    warm = engine.check(request)
    assert warm.feasible == cold.feasible
    assert cache.stats()["hits"] >= 1
    synth_cold = engine.synthesize(request)
    synth_warm = engine.synthesize(request)
    assert synth_warm.feasible == synth_cold.feasible
    assert synth_warm.solution.systems == synth_cold.solution.systems


def test_engine_cache_invalidated_by_kb_mutation(tiny_kb):
    from repro.core.engine import ReasoningEngine
    from repro.kb.system import System
    from repro.logic.ast import TRUE

    cache = QueryCache()
    engine = ReasoningEngine(tiny_kb, cache=cache)
    request = _requests(tiny_kb)[0]
    engine.check(request)
    hits_before = cache.stats()["hits"]
    tiny_kb.add_system(System(
        name="Shadow", category="monitoring",
        solves=["detect_queue_length"], requires=TRUE,
    ))
    engine.check(request)  # new fingerprint -> recompute, not a stale hit
    assert cache.stats()["hits"] == hits_before
    assert cache.stats()["size"] == 2


def test_batch_matches_sequential(tiny_kb):
    from repro.core.engine import ReasoningEngine

    engine = ReasoningEngine(tiny_kb)
    requests = _requests(tiny_kb)
    sequential = [engine.check(r) for r in requests]
    batched = engine.check_many(requests)
    assert [o.feasible for o in batched] == [o.feasible for o in sequential]
    synth = engine.synthesize_many(requests[:2])
    assert [o.feasible for o in synth] == [
        engine.synthesize(r).feasible for r in requests[:2]
    ]


def test_batch_dedupes_identical_requests(tiny_kb):
    from repro.core.engine import ReasoningEngine
    from repro.obs import EngineObserver

    observer = EngineObserver()
    cache = QueryCache()
    engine = ReasoningEngine(tiny_kb, observer=observer, cache=cache)
    request = _requests(tiny_kb)[0]
    outcomes = engine.check_many([request, request, request])
    assert len(outcomes) == 3
    assert len({id(o) for o in outcomes}) == 1, "one computation, fanned out"
    assert observer.metrics.counter("queries.check") == 1


def test_engine_wires_observer_metrics_into_cache(tiny_kb):
    from repro.core.engine import ReasoningEngine
    from repro.obs import EngineObserver

    observer = EngineObserver()
    cache = QueryCache(name="engine_cache")
    ReasoningEngine(tiny_kb, observer=observer, cache=cache)
    assert cache.metrics is observer.metrics


# ---------------------------------------------------------------------------
# Cube-and-conquer (repro.par.cubes)
# ---------------------------------------------------------------------------


def _random_3sat(num_vars, num_clauses, seed):
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def _php(holes):
    pigeons = holes + 1

    def var(p, h):
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


class TestMakeCubes:
    def test_complete_sign_enumeration(self):
        from repro.par import make_cubes
        from repro.sat import Solver

        solver = Solver()
        solver.new_vars(6)
        solver.add_clauses([[1, 2, 3], [-1, 4, 5], [2, -5, 6]])
        split_vars, cubes = make_cubes(solver, 3)
        assert len(split_vars) == 3
        assert len(cubes) == 8
        # Every sign combination over the split vars appears exactly once.
        combos = {tuple(lit > 0 for lit in cube) for cube in cubes}
        assert len(combos) == 8
        for cube in cubes:
            assert [abs(lit) for lit in cube] == split_vars

    def test_no_branchable_vars_yields_empty_cube(self):
        from repro.par import make_cubes
        from repro.sat import Solver

        solver = Solver()
        solver.new_vars(2)
        solver.add_clauses([[1], [2]])
        assert solver.solve() is True
        split_vars, cubes = make_cubes(solver, 3)
        assert split_vars == []
        assert cubes == [[]]


class TestSolveCubes:
    def test_unsat_php(self):
        from repro.par import solve_cubes

        num_vars, clauses = _php(5)
        # probe_conflicts=0 forces the cube sweep (the probe would
        # otherwise refute this small instance outright).
        result = solve_cubes(num_vars, clauses, k=3, probe_conflicts=0)
        assert result.satisfiable is False
        assert result.mode == "shared"
        assert result.cubes == 8

    def test_sat_model_is_valid(self):
        from repro.par import solve_cubes

        clauses = _random_3sat(40, 140, seed=2)
        result = solve_cubes(40, clauses, k=3, probe_conflicts=0)
        assert result.satisfiable is True
        model = result.model
        for clause in clauses:
            assert any(model[abs(lit)] == (lit > 0) for lit in clause)

    def test_probe_decides_easy_instances(self):
        from repro.par import solve_cubes

        result = solve_cubes(3, [[1], [1, 2], [-2, 3]])
        assert result.satisfiable is True
        assert result.mode == "probe"
        assert result.cubes == 0
        assert result.winner == -1

    def test_matches_sequential_verdicts(self):
        from repro.par import solve_cubes
        from repro.sat import Solver

        for seed in range(8):
            clauses = _random_3sat(30, 128, seed=seed)
            solver = Solver()
            solver.new_vars(30)
            solver.add_clauses(clauses)
            expected = solver.solve()
            result = solve_cubes(30, clauses, k=2, probe_conflicts=0)
            assert result.satisfiable == expected, seed
            if expected:
                model = result.model
                for clause in clauses:
                    assert any(
                        model[abs(lit)] == (lit > 0) for lit in clause
                    ), seed

    def test_unsat_core_excludes_cube_literals(self):
        from repro.par import solve_cubes

        # UNSAT only because of the assumptions: core must mention them
        # and never the internal split literals.
        clauses = [[-1, -2], [1, 3], [2, 4], [3, 4, 5], [-5, 6]]
        result = solve_cubes(
            6, clauses, assumptions=[1, 2], k=2, probe_conflicts=0
        )
        assert result.satisfiable is False
        assert set(result.core) <= {1, 2}
        assert result.core, "core must name the failing assumptions"

    def test_shared_mode_is_deterministic(self):
        from repro.par import solve_cubes

        clauses = _random_3sat(40, 170, seed=9)
        runs = [
            solve_cubes(40, clauses, k=3, probe_conflicts=64)
            for _ in range(2)
        ]
        assert runs[0].satisfiable == runs[1].satisfiable
        assert runs[0].conflicts == runs[1].conflicts
        assert runs[0].cubes == runs[1].cubes
        assert runs[0].split_vars == runs[1].split_vars
        assert runs[0].model == runs[1].model

    def test_process_mode_matches_shared(self):
        from repro.par import solve_cubes

        for seed in (3, 4):
            clauses = _random_3sat(30, 128, seed=seed)
            shared = solve_cubes(30, clauses, k=2, probe_conflicts=0)
            process = solve_cubes(
                30, clauses, k=2, probe_conflicts=0, jobs=2
            )
            assert process.satisfiable == shared.satisfiable, seed
            assert process.mode == "process"
            if process.satisfiable:
                model = process.model
                for clause in clauses:
                    assert any(
                        model[abs(lit)] == (lit > 0) for lit in clause
                    ), seed

    def test_conflict_budget_returns_unknown(self):
        from repro.par import solve_cubes

        num_vars, clauses = _php(6)
        result = solve_cubes(
            num_vars, clauses, k=2, probe_conflicts=0, conflict_budget=5
        )
        assert result.satisfiable is None

    def test_rejects_negative_k(self):
        from repro.par import solve_cubes

        with pytest.raises(ValueError):
            solve_cubes(2, [[1, 2]], k=-1)
