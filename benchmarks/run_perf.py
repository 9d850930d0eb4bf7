#!/usr/bin/env python
"""Standalone performance driver for the solver/engine observability layer.

Runs the two workloads the profile work cares about and writes the
results to ``BENCH_solver.json``:

- **prototype_query** — engine ``check`` + ``synthesize`` on prototype
  requests, traced with an :class:`~repro.obs.EngineObserver`, reporting
  the phase breakdown (compile / solve / optimize / diagnose) and the
  solver progress counters.
- **solver_scaling** — the raw CDCL loop on random 3-SAT at the hard
  clause/variable ratio and on pigeonhole instances, with per-instance
  conflicts/propagations throughput from the progress callback.
- **tracer_overhead** — the same solver workload run bare and wrapped in
  *disabled* tracer spans, to demonstrate the near-zero cost of leaving
  instrumentation in place (acceptance: < 2%).
- **query_cache** — engine queries with a cold vs. warm
  :class:`~repro.par.QueryCache`, reporting the hit/miss counters and
  the warm/cold speedup (acceptance: warm >= 10x faster).
- **incremental_whatif** — a 20-query what-if sweep (the §5.1
  multi-workload request plus structural variations) answered by a
  fresh engine per query vs. one compile-once
  :class:`~repro.core.session.ReasoningSession`, with verdict parity
  asserted (acceptance: session >= 3x faster end-to-end).
- **incremental_diagnose** — a 20-query repeated-conflict sweep (tight
  budgets plus structural variations) diagnosed fresh-compile-per-query
  vs. through the shared incremental session, with the minimal conflict
  sets asserted *identical* (acceptance: session >= 2x faster).
- **executor_dispatch** — a warm-cache ``check`` hot loop through the
  Query-IR executor vs. a direct ``request_cache_key`` + ``cache.get``
  probe, pinning the cost of the unified dispatch layer (acceptance:
  < 5% overhead).
- **propagate_microopt** — unit-propagation throughput on
  propagation-bound implication-chain instances (v5: the old
  conflict-heavy pigeonhole pin mostly measured conflict analysis),
  recorded against the pre-arena object-per-clause solver measured on
  the same workloads and against the historical PR-3 pin.
- **cube_and_conquer** — sequential solve vs. shared-mode
  cube-and-conquer (``repro.par.cubes``) on a pinned hard random 3-SAT
  instance, with verdict parity asserted (acceptance: >= 2x).
- **shape_key_cache** — the per-request ``shape_key`` memo on the
  serving hot path: the key is consulted at every pool checkout and
  again inside the session view, so v7 caches it on the request object
  and this workload pins the cached vs. uncached per-call cost.
- **kb_delta** — a pinned-scope query stream interleaved with
  footprint-disjoint KB hardware upserts: one delta-absorbing session
  (v8 per-entity fingerprints let it adopt each delta without touching
  the solver) vs. recompiling after every KB change, with verdict
  parity asserted (acceptance: session >= 3x faster, exactly one
  compile, and the scoped query cache keeps hitting across deltas).
- **daemon_load** — the 20-query what-if sweep fired by 8 concurrent
  closed-loop clients at the ``repro.serve`` daemon over HTTP
  (``benchmarks/load_gen.py``), warm session pool vs. per-request fresh
  compile (``pool_size=0``), reporting latency percentiles, throughput,
  pool hit rate, and the wall-clock speedup (acceptance: warm >= 2x,
  zero error responses). v7 adds a ``workers`` axis: the same sweep
  against the multi-process shape-affinity worker pool
  (``--workers 4``), with the process/threaded throughput ratio and the
  core count recorded alongside (the ratio only exceeds 1 when the
  machine has cores to scale onto — single-core CI boxes will honestly
  report ~1x or below, which is the point of recording ``cores``).

Usage::

    PYTHONPATH=src python benchmarks/run_perf.py           # full run
    PYTHONPATH=src python benchmarks/run_perf.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.design import DesignRequest  # noqa: E402
from repro.core.engine import ReasoningEngine  # noqa: E402
from repro.kb.workload import Workload  # noqa: E402
from repro.knowledge import default_knowledge_base, inference_case_study  # noqa: E402
from repro.obs import EngineObserver, NULL_TRACER, ProgressRecorder  # noqa: E402
from repro.par import QueryCache  # noqa: E402
from repro.par.cache import request_cache_key  # noqa: E402
from repro.sat import Solver  # noqa: E402

#: Hard-region clause/variable ratio for random 3-SAT.
_RATIO = 4.26


# -- instance generators -----------------------------------------------------------


def random_3sat(num_vars: int, seed: int, ratio: float = _RATIO) -> list[list[int]]:
    rng = random.Random(seed)
    num_clauses = int(round(ratio * num_vars))
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def pigeonhole(holes: int) -> tuple[int, list[list[int]]]:
    """PHP(holes+1, holes): unsatisfiable, exponential for resolution."""
    pigeons = holes + 1

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


def cheap_request() -> DesignRequest:
    """A small synthesis request for quick mode (sub-second)."""
    return DesignRequest(
        workloads=[Workload(
            name="app",
            objectives=["packet_processing", "bandwidth_allocation"],
            peak_cores=64,
        )],
        context={"datacenter_fabric": True},
        inventory={
            "SRV-G2-64C-256G": 16,
            "STD-100G-TS-IP": 64,
            "FF-100G-32P": 4,
        },
        optimize=["capex_usd"],
    )


# -- workloads ---------------------------------------------------------------------


def run_prototype_query(quick: bool) -> dict:
    kb = default_knowledge_base()
    request = cheap_request() if quick else inference_case_study()
    results = {}
    for query in ("check", "synthesize"):
        observer = EngineObserver(progress_interval=256)
        engine = ReasoningEngine(kb, observer=observer)
        start = time.perf_counter()
        outcome = getattr(engine, query)(request)
        elapsed = time.perf_counter() - start
        results[query] = {
            "feasible": outcome.feasible,
            "elapsed_s": round(elapsed, 4),
            "phases_s": {
                k: round(v, 4) for k, v in observer.tracer.phase_totals().items()
            },
            "solver": outcome.solver_stats,
            "progress": observer.progress.summary(),
        }
    results["request"] = "cheap" if quick else "inference_case_study"
    return results


def _solve_instances(instances, wrap_spans=None):
    """Solve each (name, num_vars, clauses); return per-instance rows.

    With *wrap_spans* (a tracer), the load and solve steps are wrapped
    in spans at the same granularity the engine instruments its phases —
    used by the overhead measurement with a *disabled* tracer.
    """
    rows = []
    for name, num_vars, clauses in instances:
        recorder = ProgressRecorder()
        solver = Solver(progress_callback=recorder, progress_interval=512)
        solver.new_vars(num_vars)
        start = time.perf_counter()
        if wrap_spans is not None:
            with wrap_spans.span(name):
                with wrap_spans.span("compile"):
                    for clause in clauses:
                        solver.add_clause(clause)
                with wrap_spans.span("solve"):
                    satisfiable = solver.solve()
        else:
            for clause in clauses:
                solver.add_clause(clause)
            satisfiable = solver.solve()
        elapsed = time.perf_counter() - start
        rows.append({
            "instance": name,
            "vars": num_vars,
            "clauses": len(clauses),
            "satisfiable": satisfiable,
            "elapsed_s": round(elapsed, 4),
            "solver": solver.stats.as_dict(),
            "throughput": recorder.throughput(),
            "restarts": len(recorder.restarts),
            "peak_trail_depth": recorder.peak_trail_depth(),
            "peak_learnt_db": recorder.peak_learnt_db(),
        })
    return rows


def _scaling_instances(quick: bool):
    sizes = (30, 60) if quick else (50, 100, 150)
    instances = [
        (f"3sat_n{n}_s{seed}", n, random_3sat(n, seed))
        for n in sizes
        for seed in ((1,) if quick else (1, 2))
    ]
    holes = 5 if quick else 7
    num_vars, clauses = pigeonhole(holes)
    instances.append((f"php_{holes + 1}_{holes}", num_vars, clauses))
    return instances


def run_solver_scaling(quick: bool) -> dict:
    rows = _solve_instances(_scaling_instances(quick))
    return {"instances": rows}


def run_tracer_overhead(quick: bool, repeats: int) -> dict:
    """Bare solve vs. solve wrapped in disabled-tracer spans.

    The workload must be large enough that scheduler noise stays below
    the signal (a disabled span costs well under a microsecond), so a
    conflict-heavy pigeonhole instance is used rather than the tiny
    quick-mode scaling set. Interleaved min-of-N on each side washes out
    drift; the acceptance criterion for leaving spans in hot paths is
    < 2% overhead.
    """
    holes = 6 if quick else 7
    num_vars, clauses = pigeonhole(holes)
    instances = [(f"php_{holes + 1}_{holes}", num_vars, clauses)]

    def total(wrap):
        start = time.perf_counter()
        _solve_instances(instances, wrap_spans=wrap)
        return time.perf_counter() - start

    bare_runs, disabled_runs = [], []
    for _ in range(repeats):
        bare_runs.append(total(None))
        disabled_runs.append(total(NULL_TRACER))
    bare = min(bare_runs)
    disabled = min(disabled_runs)
    overhead_pct = 100.0 * (disabled - bare) / bare if bare > 0 else 0.0
    return {
        "workload": instances[0][0],
        "repeats": repeats,
        "bare_s": round(bare, 4),
        "disabled_tracer_s": round(disabled, 4),
        "overhead_pct": round(overhead_pct, 2),
    }


def run_query_cache(quick: bool) -> dict:
    """Cold vs. warm engine queries through the query-result cache."""
    kb = default_knowledge_base()
    request = cheap_request() if quick else inference_case_study()
    cache = QueryCache()
    engine = ReasoningEngine(kb, cache=cache)
    results = {}
    for query in ("check", "synthesize"):
        start = time.perf_counter()
        cold_outcome = getattr(engine, query)(request)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        warm_outcome = getattr(engine, query)(request)
        warm = time.perf_counter() - start
        assert warm_outcome.feasible == cold_outcome.feasible
        results[query] = {
            "cold_s": round(cold, 5),
            "warm_s": round(warm, 6),
            "speedup": round(cold / warm, 1) if warm > 0 else float("inf"),
        }
    results["cache"] = cache.stats()
    results["request"] = "cheap" if quick else "inference_case_study"
    return results


def _whatif_sweep(quick: bool):
    """The what-if query stream: one base request plus 19 variations.

    All variations are structural (required/forbidden systems, pinned
    hardware, context flips) — the questions an architect actually
    iterates on — so each differs from the base by one or two guarded
    constraint groups.
    """
    from dataclasses import replace

    from repro.knowledge.casestudy import more_workloads_request

    base = more_workloads_request()
    out = [base]
    for name in ("Sonata", "DCTCP", "Swift", "HPCC"):
        out.append(replace(base, required_systems=[name]))
        out.append(replace(base, forbidden_systems=[name]))
    out += [
        replace(base, required_systems=["QUIC"]),
        replace(base, required_systems=["Sonata"], forbidden_systems=["DCTCP"]),
        replace(base, required_systems=["Swift"], forbidden_systems=["Sonata"]),
        replace(base, required_systems=["HPCC", "Sonata"]),
        replace(base, fixed_hardware={"SRV-G2-64C-256G": 32}),
        replace(base, fixed_hardware={"SRV-G3-128C-512G": 24}),
        replace(base, fixed_hardware={"SRV-G2-64C-256G": 32, "RDMA-100G-RB": 64}),
        replace(base, context={**base.context, "network_load_ge_40g": False}),
        replace(base, required_systems=["DCTCP"],
                fixed_hardware={"SRV-G2-64C-256G": 32}),
        replace(base, forbidden_systems=["Sonata", "Swift"]),
        base,  # the architect re-asks the baseline at the end
    ]
    return out[:6] if quick else out


def run_incremental_whatif(quick: bool) -> dict:
    """Fresh engine per query vs. one compile-once incremental session."""
    from repro.core.session import ReasoningSession

    kb = default_knowledge_base()
    queries = _whatif_sweep(quick)

    engine = ReasoningEngine(kb, incremental=False)
    start = time.perf_counter()
    fresh = [engine.check(r) for r in queries]
    fresh_s = time.perf_counter() - start

    session = ReasoningSession(kb)
    start = time.perf_counter()
    incremental = [session.check(r) for r in queries]
    session_s = time.perf_counter() - start

    for i, (a, b) in enumerate(zip(fresh, incremental)):
        assert a.feasible == b.feasible, f"verdict mismatch on query {i}"

    speedup = fresh_s / session_s if session_s > 0 else float("inf")
    return {
        "queries": len(queries),
        "feasible": sum(1 for o in fresh if o.feasible),
        "fresh_s": round(fresh_s, 4),
        "session_s": round(session_s, 4),
        "fresh_per_query_s": round(fresh_s / len(queries), 5),
        "session_per_query_s": round(session_s / len(queries), 5),
        "speedup": round(speedup, 3),
        "session": session.stats.as_dict(),
    }


def _diagnose_sweep(quick: bool):
    """The repeated-conflict stream: tight budgets plus variations.

    This is the architect's "why does nothing fit?" loop — most requests
    are infeasible, each differing from the last by a required/forbidden
    system, a pinned hardware count, or the budget figure itself, so the
    diagnosis (core minimization) runs on nearly every query.
    """
    from dataclasses import replace

    from repro.knowledge.casestudy import more_workloads_request

    base = more_workloads_request()
    tight = replace(base, budgets={"capex_usd": 100})
    out = [tight]
    for name in ("Sonata", "DCTCP", "Swift", "HPCC"):
        out.append(replace(tight, required_systems=[name]))
        out.append(replace(tight, forbidden_systems=[name]))
    out += [
        replace(base, budgets={"power_w": 1}),
        replace(tight, required_systems=["QUIC"]),
        replace(tight, forbidden_systems=["Sonata", "Swift"]),
        replace(tight, fixed_hardware={"SRV-G2-64C-256G": 32}),
        replace(base, budgets={"power_w": 1},
                fixed_hardware={"SRV-G2-64C-256G": 32}),
        replace(base, budgets={"capex_usd": 200}),
        replace(base, budgets={"capex_usd": 500}),
        replace(base, budgets={"power_w": 10}),
        base,  # a feasible probe mid-stream
        replace(base, required_systems=["Sonata"]),  # another feasible one
        tight,  # the architect re-asks the original question
    ]
    return out[:6] if quick else out


def run_incremental_diagnose(quick: bool) -> dict:
    """Fresh compile per diagnosis vs. the shared incremental session.

    Beyond the timing, this asserts the executor's determinism promise:
    the *same* minimal conflict set from both paths on every query.
    """
    kb = default_knowledge_base()
    queries = _diagnose_sweep(quick)

    fresh_engine = ReasoningEngine(kb, incremental=False)
    start = time.perf_counter()
    fresh = [fresh_engine.diagnose(r) for r in queries]
    fresh_s = time.perf_counter() - start

    inc_engine = ReasoningEngine(kb, incremental=True)
    start = time.perf_counter()
    incremental = [inc_engine.diagnose(r) for r in queries]
    session_s = time.perf_counter() - start

    for i, (a, b) in enumerate(zip(fresh, incremental)):
        assert (a is None) == (b is None), f"verdict mismatch on query {i}"
        if a is not None:
            assert a.constraints == b.constraints, (
                f"conflict mismatch on query {i}: "
                f"{a.constraints} != {b.constraints}"
            )

    speedup = fresh_s / session_s if session_s > 0 else float("inf")
    return {
        "queries": len(queries),
        "conflicts": sum(1 for c in fresh if c is not None),
        "fresh_s": round(fresh_s, 4),
        "session_s": round(session_s, 4),
        "fresh_per_query_s": round(fresh_s / len(queries), 5),
        "session_per_query_s": round(session_s / len(queries), 5),
        "speedup": round(speedup, 3),
        "session": inc_engine.session().stats.as_dict(),
    }


class _DirectCheckPath:
    """The hand-rolled per-verb cache plumbing the Query IR replaced.

    This reproduces, call for call, what ``ReasoningEngine.check`` did on
    a warm cache hit before every verb lowered to a Query: read the
    tracer property, build the configuration tag, compute the request
    key, probe the cache. It is the honest "direct path" baseline for
    the dispatch-overhead measurement — not an idealized single-frame
    loop with the key precomputed, which no per-verb wrapper ever was.
    """

    def __init__(self, kb, cache, incremental=True, preprocess=True):
        self.kb = kb
        self.cache = cache
        self.observer = None
        self.incremental = incremental
        self.preprocess = preprocess

    @property
    def _tracer(self):
        if self.observer is not None and self.observer.enabled:
            return self.observer.tracer
        return NULL_TRACER

    def _config_tag(self):
        return f"inc={int(self.incremental)};pp={int(self.preprocess)}"

    def _cache_key(self, verb, request):
        if self.cache is None:
            return None
        return request_cache_key(verb, self.kb, request, self._config_tag())

    def check(self, request):
        tracer = self._tracer  # noqa: F841 - the old hot path read this
        key = self._cache_key("check", request)
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        raise AssertionError("warm dispatch loop must hit the cache")


def run_executor_dispatch(quick: bool, repeats: int) -> dict:
    """Warm-cache ``check`` through the Query IR vs. the direct path.

    Every verb now lowers to a Query and runs through the executor's
    staged pipeline; this pins what that unified dispatch costs on the
    hottest path (a cache hit) against :class:`_DirectCheckPath`, the
    per-verb plumbing it replaced. The two loops are interleaved and
    min-of-N on each side, washing out scheduler noise and drift.
    """
    from repro.knowledge.casestudy import more_workloads_request

    kb = default_knowledge_base()
    request = cheap_request() if quick else more_workloads_request()
    engine = ReasoningEngine(kb, cache=QueryCache())
    outcome = engine.check(request)  # fill the executor's cache
    assert outcome.feasible
    direct_path = _DirectCheckPath(kb, QueryCache())
    direct_path.cache.put(direct_path._cache_key("check", request), outcome)
    loops = 300 if quick else 3000
    if not quick:
        repeats = max(repeats, 15)

    direct = ir = None
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            direct_path.check(request)
        elapsed = time.perf_counter() - start
        direct = elapsed if direct is None else min(direct, elapsed)
        start = time.perf_counter()
        for _ in range(loops):
            engine.check(request)
        elapsed = time.perf_counter() - start
        ir = elapsed if ir is None else min(ir, elapsed)

    overhead_pct = 100.0 * (ir - direct) / direct if direct > 0 else 0.0
    return {
        "loops": loops,
        "repeats": repeats,
        "direct_s": round(direct, 5),
        "ir_s": round(ir, 5),
        "direct_per_query_us": round(1e6 * direct / loops, 2),
        "ir_per_query_us": round(1e6 * ir / loops, 2),
        "overhead_pct": round(overhead_pct, 2),
        "request": "cheap" if quick else "more_workloads",
    }


#: v5 redefines the propagate workload. The old pin solved pigeonhole,
#: which is *conflict*-dominated (~14 propagations per conflict): its
#: props/s mostly measures conflict analysis and DB reduction, and the
#: arena rewrite leaves it flat. The v5 workloads are propagation-bound
#: implication chains — every clause visit is watch-list work — so the
#: number actually measures the propagation loop the pin is named after.
#:
#: Baselines, measured on the machine that produced the committed
#: BENCH_solver.json:
#: - ``pr3_pin`` — the PR-3 ``propagate_microopt`` pin (php_8_7 on the
#:   object-per-clause solver), kept for continuity with older reports.
#: - ``object_solver`` — the pre-arena (object-per-clause, dict-watcher)
#:   solver run on the *same v5 chain workloads*, extracted from git at
#:   the commit before the arena rewrite. This is the honest
#:   apples-to-apples comparison.
_PROPAGATE_BASELINES = {
    "pr3_pin": {"instance": "php_8_7", "props_per_s": 61_300},
    "object_solver": {
        "bin_chain_100k": 898_092,
        "long_chain_30k_w8": 112_205,
        "php_8_7": 54_204,
    },
}


def binary_chain(n: int) -> tuple[int, list[list[int]]]:
    """A unit plus an equivalence chain x1 = x2 = ... = xn.

    One unit propagation cascades through all *n* variables over binary
    clauses only: the pure binary-watcher hot path, zero conflicts.
    """
    clauses = [[1]]
    for i in range(1, n):
        clauses.append([-i, i + 1])
        clauses.append([i, -(i + 1)])
    return n, clauses


def long_chain(n: int, width: int = 8) -> tuple[int, list[list[int]]]:
    """A cascade of width-*width* clauses forcing every variable False.

    Each clause ``[x_{i-w+2} .. x_i, -x_{i+1}]`` becomes unit only once
    its whole window is False, so propagation continually moves watches
    through long clauses: the long-clause replacement-scan hot path.
    """
    clauses = [[-i] for i in range(1, width)]
    for i in range(width, n):
        clauses.append(
            [j for j in range(i - width + 2, i + 1)] + [-(i + 1)]
        )
    return n, clauses


def run_propagate_microopt(quick: bool) -> dict:
    """Propagation throughput on the v5 chain workloads vs. the baselines.

    The headline ``props_per_s`` is the binary-chain rate (the purest
    propagation measurement); per-instance rates and old-solver ratios
    are reported alongside. php stays in the set as the conflict-heavy
    control — the arena is *expected* to leave it roughly flat.
    """
    if quick:
        instances = [
            ("bin_chain_20k", *binary_chain(20_000)),
            ("long_chain_8k_w8", *long_chain(8_000)),
            ("php_7_6", *pigeonhole(6)),
        ]
    else:
        instances = [
            ("bin_chain_100k", *binary_chain(100_000)),
            ("long_chain_30k_w8", *long_chain(30_000)),
            ("php_8_7", *pigeonhole(7)),
        ]
    rows = {}
    for name, num_vars, clauses in instances:
        best = 0.0
        for _ in range(2 if quick else 3):
            solver = Solver()
            solver.new_vars(num_vars)
            for clause in clauses:
                solver.add_clause(clause)
            start = time.perf_counter()
            solver.solve()
            elapsed = time.perf_counter() - start
            rate = solver.stats.propagations / elapsed if elapsed > 0 else 0.0
            best = max(best, rate)
        row = {"props_per_s": round(best)}
        old = _PROPAGATE_BASELINES["object_solver"].get(name)
        if old:
            row["object_solver_props_per_s"] = old
            row["speedup_vs_object_solver"] = round(best / old, 3)
        rows[name] = row
    headline = rows[instances[0][0]]["props_per_s"]
    result = {
        "instance": instances[0][0],
        "props_per_s": headline,
        "instances": rows,
        "baseline": dict(_PROPAGATE_BASELINES["pr3_pin"]),
    }
    if not quick:
        result["speedup_vs_baseline"] = round(
            headline / _PROPAGATE_BASELINES["pr3_pin"]["props_per_s"], 3
        )
    return result


#: The cube-and-conquer pinned workload: hard-region random 3-SAT where
#: the sequential default configuration wanders before finding a model,
#: while the probe + top-VSIDS split sends one cube straight into the
#: satisfiable region. Deterministic: same instance, same probe, same
#: cubes, same conflict counts every run.
_CUBE_WORKLOAD = {"num_vars": 180, "ratio": 4.3, "seed": 3, "k": 4}
_CUBE_WORKLOAD_QUICK = {"num_vars": 180, "ratio": 4.3, "seed": 3, "k": 4}


def run_cube_and_conquer(quick: bool) -> dict:
    """Sequential solve vs. shared-mode cube-and-conquer on the pin.

    Asserts identical SAT/UNSAT verdicts and reports both wall-clock and
    conflict-count speedups; the conflict ratio is fully deterministic
    (same trajectories every run) and is what CI bounds.
    """
    from repro.par import solve_cubes

    spec = _CUBE_WORKLOAD_QUICK if quick else _CUBE_WORKLOAD
    num_vars = spec["num_vars"]
    clauses = random_3sat(num_vars, spec["seed"], ratio=spec["ratio"])
    name = f"3sat_n{num_vars}_r{spec['ratio']}_s{spec['seed']}"

    solver = Solver()
    solver.new_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    start = time.perf_counter()
    expected = solver.solve()
    sequential_s = time.perf_counter() - start
    seq_conflicts = solver.stats.conflicts

    start = time.perf_counter()
    result = solve_cubes(num_vars, clauses, k=spec["k"])
    cube_s = time.perf_counter() - start
    assert result.satisfiable == expected, name

    time_speedup = sequential_s / cube_s if cube_s > 0 else 0.0
    conflict_speedup = (
        seq_conflicts / result.conflicts if result.conflicts > 0 else 0.0
    )
    return {
        "instance": name,
        "k": spec["k"],
        "mode": result.mode,
        "cubes": result.cubes,
        "split_vars": result.split_vars,
        "satisfiable": result.satisfiable,
        "sequential_s": round(sequential_s, 4),
        "cube_s": round(cube_s, 4),
        "sequential_conflicts": seq_conflicts,
        "cube_conflicts": result.conflicts,
        "speedup": round(time_speedup, 3),
        "conflict_speedup": round(conflict_speedup, 3),
    }


def _kb_delta_request(kb) -> DesignRequest:
    """A pinned-scope request: explicit candidates + inventory.

    Pinning matters — an unpinned request's entity scope includes the
    catalog membership keys, so *any* hardware addition would force a
    rebase. The pinned scope is what lets the session adopt disjoint
    deltas for free and the scoped cache key stay stable across them.
    The candidate set pins the *entire* system catalog — the same
    encoding an unpinned request would compile, but with an explicit
    list, so the scope stays keyed on concrete entities rather than the
    membership catalogs.
    """
    candidates = sorted(kb.systems)
    return DesignRequest(
        workloads=[Workload(
            name="app",
            objectives=["packet_processing", "bandwidth_allocation"],
            peak_cores=64,
        )],
        context={"datacenter_fabric": True},
        candidate_systems=candidates,
        inventory={
            "SRV-G2-64C-256G": 16,
            "STD-100G-TS-IP": 64,
            "FF-100G-32P": 4,
        },
    )


def run_kb_delta(quick: bool) -> dict:
    """Catalog growth under load: absorb deltas vs. recompile.

    Interleaves a pinned-scope ``check`` stream with footprint-disjoint
    hardware upserts (a new NIC model lands between every pair of
    queries — the spec-sheet ingestion pattern). The session side
    absorbs each delta through the per-entity journal: the new entity is
    outside the compiled scope, so the session adopts the fingerprint
    with zero solver work and the scoped cache key does not move. The
    reference side does what every pre-v8 client had to: recompile from
    scratch after each KB change.
    """
    from repro.kb.hardware import Hardware, NICSpec

    rounds = 6 if quick else 20

    def nic(i: int) -> Hardware:
        return Hardware(
            spec=NICSpec(model=f"BENCH-NIC-{i}", rate_gbps=100,
                         power_w=18 + i, cost_usd=900 + i),
            max_units=8,
        )

    # Reference: recompile after every delta.
    kb = default_knowledge_base()
    request = _kb_delta_request(kb)
    fresh_engine = ReasoningEngine(kb, incremental=False)
    start = time.perf_counter()
    fresh = [fresh_engine.check(request)]
    for i in range(rounds):
        kb.upsert_hardware(nic(i))
        fresh.append(fresh_engine.check(request))
    recompile_s = time.perf_counter() - start

    # Session (no cache, so every query reaches the solver): absorb
    # every delta in place through the per-entity journal.
    kb = default_knowledge_base()
    engine = ReasoningEngine(kb, incremental=True)
    start = time.perf_counter()
    absorbed = [engine.check(request)]
    for i in range(rounds):
        kb.upsert_hardware(nic(i))
        absorbed.append(engine.check(request))
    delta_s = time.perf_counter() - start

    verdicts = [o.feasible for o in fresh]
    assert all(v == verdicts[0] for v in verdicts)
    assert all(o.feasible == verdicts[0] for o in absorbed), (
        "delta-absorbing session diverged from recompile verdicts"
    )

    stats = engine.session().stats
    assert stats.compiles == 1, f"expected one compile, got {stats.compiles}"
    assert stats.rebases == 0, "disjoint deltas must not force a rebase"
    assert stats.rebases_avoided >= rounds

    # Cache survival: with the scoped key, a footprint-disjoint delta
    # does not even miss — the executor answers from the cache without
    # consulting the session at all.
    kb = default_knowledge_base()
    cache = QueryCache()
    cached_engine = ReasoningEngine(kb, incremental=True, cache=cache)
    first = cached_engine.check(request)
    for i in range(rounds):
        kb.upsert_hardware(nic(i))
        assert cached_engine.check(request).feasible == first.feasible
    cache_stats = cache.stats()
    assert cache_stats["hits"] >= rounds, (
        "scoped cache keys must survive disjoint deltas"
    )

    speedup = recompile_s / delta_s if delta_s > 0 else float("inf")
    return {
        "rounds": rounds,
        "queries": len(fresh),
        "feasible": verdicts[0],
        "recompile_s": round(recompile_s, 4),
        "delta_s": round(delta_s, 4),
        "recompile_per_query_s": round(recompile_s / len(fresh), 5),
        "delta_per_query_s": round(delta_s / len(absorbed), 5),
        "speedup": round(speedup, 3),
        "session": stats.as_dict(),
        "cache": cache_stats,
    }


# -- driver ------------------------------------------------------------------------


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def run_shape_key_cache(quick: bool) -> dict:
    """Per-call cost of ``shape_key``: memoized vs. recomputed.

    The serving hot path consults the shape key twice per request (pool
    checkout routing plus the session view), and the process-pool
    supervisor a third time for affinity routing; memoizing it on the
    request object turns the repeats into one attribute read.
    """
    from repro.core.session import _shape_key_uncached, shape_key
    from repro.knowledge.casestudy import more_workloads_request

    request = more_workloads_request()
    calls = 2_000 if quick else 20_000

    start = time.perf_counter()
    for _ in range(calls):
        _shape_key_uncached(request)
    uncached_s = time.perf_counter() - start

    assert shape_key(request) == _shape_key_uncached(request)
    start = time.perf_counter()
    for _ in range(calls):
        shape_key(request)
    cached_s = time.perf_counter() - start

    return {
        "calls": calls,
        "uncached_us_per_call": round(uncached_s / calls * 1e6, 3),
        "cached_us_per_call": round(cached_s / calls * 1e6, 3),
        "speedup": round(uncached_s / cached_s, 1) if cached_s > 0 else 0.0,
    }


def run_daemon_load(quick: bool) -> dict:
    """8 concurrent what-if clients: warm pool vs. fresh compile,
    threaded backend vs. the multi-process shape-affinity worker pool."""
    try:  # script mode: benchmarks/ itself is sys.path[0]
        from load_gen import run_benchmark
    except ImportError:  # package mode (pytest imports benchmarks.run_perf)
        from benchmarks.load_gen import run_benchmark

    clients = 4 if quick else 8
    workers = 2 if quick else 4
    report = run_benchmark(clients=clients, quick=quick, baseline=True)
    warm, fresh = report["warm"], report["fresh"]
    assert warm["errors"] == 0, f"warm-run errors: {warm['error_detail']}"
    assert fresh["errors"] == 0, f"fresh-run errors: {fresh['error_detail']}"
    assert warm["completed"] == warm["requests"], "lost responses"

    process_report = run_benchmark(
        clients=clients, quick=quick, baseline=False, workers=workers,
    )
    process = process_report["warm"]
    assert process["errors"] == 0, (
        f"process-run errors: {process['error_detail']}"
    )
    assert process["completed"] == process["requests"], "lost responses"
    warm_rps = warm["throughput_rps"]
    throughput_speedup = (
        round(process["throughput_rps"] / warm_rps, 3) if warm_rps else 0.0
    )
    return {
        "clients": clients,
        "queries_per_client": warm["queries_per_client"],
        "cores": _available_cores(),
        "warm": warm,
        "fresh": fresh,
        "pool": report["pool"],
        "speedup": report["speedup"],
        "workers": workers,
        "process": process,
        "throughput_speedup": throughput_speedup,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small instances, for CI smoke runs")
    parser.add_argument("--repeats", type=int, default=None,
                        help="repeats for the overhead measurement")
    parser.add_argument("-o", "--output", default=str(REPO_ROOT / "BENCH_solver.json"),
                        help="where to write the JSON report")
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (3 if args.quick else 5)

    report = {
        "benchmark": "solver-observability",
        "version": 8,
        "quick": args.quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workloads": {},
    }

    print("[1/12] prototype queries ...", flush=True)
    report["workloads"]["prototype_query"] = run_prototype_query(args.quick)
    print("[2/12] solver scaling ...", flush=True)
    report["workloads"]["solver_scaling"] = run_solver_scaling(args.quick)
    print("[3/12] tracer overhead ...", flush=True)
    overhead = run_tracer_overhead(args.quick, repeats)
    report["workloads"]["tracer_overhead"] = overhead
    print("[4/12] query cache ...", flush=True)
    cache_result = run_query_cache(args.quick)
    report["workloads"]["query_cache"] = cache_result
    print("[5/12] incremental what-if ...", flush=True)
    whatif = run_incremental_whatif(args.quick)
    report["workloads"]["incremental_whatif"] = whatif
    print("[6/12] incremental diagnose ...", flush=True)
    diag = run_incremental_diagnose(args.quick)
    report["workloads"]["incremental_diagnose"] = diag
    print("[7/12] executor dispatch ...", flush=True)
    dispatch = run_executor_dispatch(args.quick, repeats)
    report["workloads"]["executor_dispatch"] = dispatch
    print("[8/12] propagate micro-opt ...", flush=True)
    propagate = run_propagate_microopt(args.quick)
    report["workloads"]["propagate_microopt"] = propagate
    print("[9/12] cube and conquer ...", flush=True)
    cubes = run_cube_and_conquer(args.quick)
    report["workloads"]["cube_and_conquer"] = cubes
    print("[10/12] shape key cache ...", flush=True)
    shape_cache = run_shape_key_cache(args.quick)
    report["workloads"]["shape_key_cache"] = shape_cache
    print("[11/12] kb delta ...", flush=True)
    kb_delta = run_kb_delta(args.quick)
    report["workloads"]["kb_delta"] = kb_delta
    print("[12/12] daemon load ...", flush=True)
    daemon = run_daemon_load(args.quick)
    report["workloads"]["daemon_load"] = daemon

    out = Path(args.output)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")

    for name, result in report["workloads"]["prototype_query"].items():
        if isinstance(result, dict):
            print(f"  {name:<11} {result['elapsed_s']:.3f} s  "
                  f"phases={result['phases_s']}")
    for row in report["workloads"]["solver_scaling"]["instances"]:
        rate = row["throughput"]["conflicts_per_s"]
        print(f"  {row['instance']:<16} {'SAT' if row['satisfiable'] else 'UNSAT'}"
              f"  {row['elapsed_s']:.3f} s  {row['solver']['conflicts']} conflicts"
              f"  ({rate:,.0f}/s)")
    print(f"  tracer overhead (disabled): {overhead['overhead_pct']:+.2f}% "
          f"(bare {overhead['bare_s']:.3f} s, "
          f"spans {overhead['disabled_tracer_s']:.3f} s)")
    for query in ("check", "synthesize"):
        row = cache_result[query]
        print(f"  cache {query:<11} cold {row['cold_s']:.4f} s "
              f"warm {row['warm_s']:.6f} s ({row['speedup']:.0f}x)")
    print(f"  what-if sweep: fresh {whatif['fresh_s']:.3f} s "
          f"vs session {whatif['session_s']:.3f} s "
          f"({whatif['speedup']:.2f}x over {whatif['queries']} queries)")
    print(f"  diagnose sweep: fresh {diag['fresh_s']:.3f} s "
          f"vs session {diag['session_s']:.3f} s "
          f"({diag['speedup']:.2f}x over {diag['queries']} queries, "
          f"{diag['conflicts']} conflicts)")
    print(f"  executor dispatch: direct {dispatch['direct_per_query_us']:.1f} us "
          f"vs IR {dispatch['ir_per_query_us']:.1f} us "
          f"({dispatch['overhead_pct']:+.2f}%)")
    for name, row in propagate["instances"].items():
        old = row.get("speedup_vs_object_solver")
        suffix = f"  ({old:.2f}x vs object solver)" if old else ""
        print(f"  propagate {name:<18} {row['props_per_s']:,.0f} props/s"
              f"{suffix}")
    print(f"  propagate headline: {propagate['props_per_s']:,.0f} props/s "
          f"on {propagate['instance']} "
          f"(PR-3 pin {propagate['baseline']['props_per_s']:,.0f})")
    print(f"  cube-and-conquer: sequential {cubes['sequential_s']:.3f} s "
          f"vs cubes {cubes['cube_s']:.3f} s ({cubes['speedup']:.2f}x time, "
          f"{cubes['conflict_speedup']:.2f}x conflicts, "
          f"{cubes['cubes']} cubes)")
    print(f"  shape_key: uncached {shape_cache['uncached_us_per_call']:.2f} us "
          f"vs cached {shape_cache['cached_us_per_call']:.2f} us "
          f"({shape_cache['speedup']:.0f}x over {shape_cache['calls']} calls)")
    print(f"  kb delta: recompile {kb_delta['recompile_s']:.3f} s "
          f"vs absorb {kb_delta['delta_s']:.3f} s "
          f"({kb_delta['speedup']:.2f}x over {kb_delta['rounds']} deltas, "
          f"{kb_delta['session']['rebases_avoided']} adopted, "
          f"{kb_delta['cache']['hits']} cache hits)")
    print(f"  daemon load: {daemon['clients']} clients x "
          f"{daemon['queries_per_client']} queries, warm "
          f"{daemon['warm']['wall_s']:.3f} s "
          f"(p99 {daemon['warm']['latency_s']['p99']:.3f} s) vs fresh "
          f"{daemon['fresh']['wall_s']:.3f} s ({daemon['speedup']:.2f}x, "
          f"pool hit rate {daemon['pool']['hit_rate']:.2f})")
    print(f"  daemon load (process pool): {daemon['workers']} workers on "
          f"{daemon['cores']} core(s), "
          f"{daemon['process']['throughput_rps']:.1f} rps vs threaded "
          f"{daemon['warm']['throughput_rps']:.1f} rps "
          f"({daemon['throughput_speedup']:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
