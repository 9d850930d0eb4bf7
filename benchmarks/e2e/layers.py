"""Per-layer tracing from the benchmark's side of each layer boundary.

The traced run serves the workload from an in-process daemon. Before the
load starts, :class:`Tracer` replaces public functions and methods of each
layer at the place they are looked up (a module global the caller reads,
or a method on its class) with wrappers that record spans. Every wrapper
is declared in :data:`WRAPPERS`; installing one whose target has been
renamed raises, so a refactor breaks the trace loudly instead of
reporting a silent zero.

A span is ``[name, start, end, parent, request id, info]``. Spans on the
event loop find their parent through a context variable (each connection
is its own asyncio task). Solver work runs on executor threads, which do
not inherit the loop's context: the ``Query`` object that
``envelope_to_query`` returns travels with the work, so the wrapper of
``execute_pooled`` looks the query up to join the request's span tree.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from collections import Counter, defaultdict

import repro.core.executor
import repro.core.session
import repro.serve.daemon
from repro.core.executor import QueryExecutor
from repro.core.session import ReasoningSession
from repro.kb.registry import KnowledgeBase
from repro.sat.solver import Solver
from repro.serve.admission import AdmissionController
from repro.serve.daemon import ReasoningDaemon
from repro.serve.pool import SessionPool
from repro.serve.workers import WorkerSupervisor

_span = contextvars.ContextVar("e2e_span", default=None)
#: The last request a connection task handled; its reply is serialized
#: after ``handle`` returns, so the encode span is attributed through it.
_last_handle = contextvars.ContextVar("e2e_last_handle", default=None)

# Span record fields.
NAME, START, END, PARENT, RID, INFO = range(6)

#: (owner, attribute, span name, kind) for the threaded traced pass. Span
#: names are unique, so ``Tracer.fired`` counts the calls of each wrapper;
#: *kind* names the ``Tracer._wrap_<kind>`` factory that builds it.
WRAPPERS = [
    (ReasoningDaemon, "handle", "serve.daemon.handle", "handle"),
    (repro.serve.daemon, "decode_envelope", "serve.protocol.decode_envelope",
     "decode"),
    (repro.serve.daemon, "envelope_to_query",
     "serve.protocol.envelope_to_query", "query"),
    (repro.serve.daemon, "decode_kb_update", "serve.protocol.decode_kb_update",
     "sync"),
    (repro.serve.daemon, "result_to_wire", "serve.protocol.result_to_wire",
     "sync"),
    (repro.serve.daemon, "canonical_json", "serve.protocol.canonical_json",
     "encode"),
    (AdmissionController, "try_acquire", "serve.admission.wait", "admission"),
    (SessionPool, "checkout", "serve.pool.checkout", "sync"),
    (SessionPool, "checkin", "serve.pool.checkin", "sync"),
    (repro.serve.daemon, "execute_pooled", "serve.daemon.execute", "execute"),
    (QueryExecutor, "execute", "core.executor.execute", "sync"),
    (ReasoningSession, "view", "core.session.view", "view"),
    (repro.core.session, "preprocess_solver", "sat.preprocess", "preprocess"),
    (repro.core.executor, "conflict_from_core", "core.diagnose.minimize",
     "sync"),
    (repro.core.executor, "minimize_linexpr", "opt.linear", "sync"),
    (repro.core.executor, "lexicographic_optimize", "opt.lexicographic",
     "sync"),
    (Solver, "solve", "sat.solver.solve", "solve"),
    (KnowledgeBase, "__deepcopy__", "kb.registry.copy", "sync"),
    (KnowledgeBase, "apply_entity_delta", "kb.registry.apply", "sync"),
    (KnowledgeBase, "validate_or_raise", "kb.registry.validate", "sync"),
]

#: Supervisor-side wrappers for the process-mode pass.
PROCESS_WRAPPERS = [
    (WorkerSupervisor, "route", "serve.workers.route", "sync"),
    (WorkerSupervisor, "submit", "serve.workers.submit", "submit"),
]

#: Spans reported under a coarser layer.
LAYER_OF = {
    "serve.protocol.decode_envelope": "serve.protocol.decode",
    "serve.protocol.envelope_to_query": "serve.protocol.decode",
    "serve.protocol.decode_kb_update": "serve.protocol.decode",
    "serve.protocol.result_to_wire": "serve.protocol.encode",
    "serve.protocol.canonical_json": "serve.protocol.encode",
}

_SESSION_COUNTERS = ("compiles", "rebases", "rebases_patched",
                     "rebases_avoided")


class Tracer:
    """Installs the wrappers and keeps the spans they record."""

    def __init__(self, wrappers=WRAPPERS):
        self.wrappers = wrappers
        self.spans: dict[int, list] = {}
        self.fired: Counter = Counter()
        self.queue_depth_max = 0
        self._ids = itertools.count()
        self._by_query: dict[int, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- span records -------------------------------------------------------------

    def _open(self, name: str, parent, info=None) -> int:
        index = next(self._ids)
        self.spans[index] = [name, time.perf_counter(), None, parent, None,
                             info]
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()

    # -- installation -------------------------------------------------------------

    def install(self) -> "Tracer":
        try:
            for owner, attr, name, kind in self.wrappers:
                original = getattr(owner, attr)  # a rename raises here
                wrapper = getattr(self, f"_wrap_{kind}")(original, name)
                functools.update_wrapper(wrapper, original)
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrapper factories ----------------------------------------------------------

    def _enter(self, name: str, info=None):
        self.fired[name] += 1
        index = self._open(name, _span.get(), info)
        return index, _span.set(index)

    def _leave(self, index: int, token) -> None:
        _span.reset(token)
        self._close(index)

    def _wrap_sync(self, original, name):
        def wrapper(*args, **kwargs):
            index, token = self._enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._leave(index, token)
        return wrapper

    def _wrap_handle(self, original, name):
        async def wrapper(daemon, raw, *args, **kwargs):
            index, token = self._enter(name)
            if isinstance(raw, dict):  # PUT /kb arrives decoded
                self.spans[index][RID] = raw.get("id")
            try:
                return await original(daemon, raw, *args, **kwargs)
            finally:
                self._leave(index, token)
                _last_handle.set(index)
        return wrapper

    def _wrap_decode(self, original, name):
        def wrapper(*args, **kwargs):
            index, token = self._enter(name)
            try:
                envelope = original(*args, **kwargs)
            finally:
                self._leave(index, token)
            handle = self.spans[index][PARENT]
            if handle is not None and isinstance(envelope, dict):
                self.spans[handle][RID] = envelope.get("id")
            return envelope
        return wrapper

    def _wrap_query(self, original, name):
        def wrapper(*args, **kwargs):
            index, token = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._leave(index, token)
            # The Query object carries the request across to the solver
            # thread (see execute below).
            self._by_query[id(result[1])] = self.spans[index][PARENT]
            return result
        return wrapper

    def _wrap_encode(self, original, name):
        def wrapper(*args, **kwargs):
            handle = _span.get()
            if handle is None:
                # Serializing a reply after handle() returned: no parent,
                # but the span belongs to that request.
                index = self._open(name, None, {"request": _last_handle.get()})
                self.fired[name] += 1
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close(index)
            index, token = self._enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._leave(index, token)
        return wrapper

    def _wrap_admission(self, original, name):
        async def wrapper(controller, *args, **kwargs):
            self.queue_depth_max = max(self.queue_depth_max,
                                       controller.queue_depth)
            index, token = self._enter(name)
            try:
                return await original(controller, *args, **kwargs)
            finally:
                self._leave(index, token)
        return wrapper

    def _wrap_execute(self, original, name):
        def wrapper(pooled, query, *args, **kwargs):
            self.fired[name] += 1
            parent = self._by_query.pop(id(query), None)
            index = self._open(name, parent)
            token = _span.set(index)
            try:
                return original(pooled, query, *args, **kwargs)
            finally:
                self._leave(index, token)
        return wrapper

    def _wrap_view(self, original, name):
        def wrapper(session, *args, **kwargs):
            stats = session.stats
            before = [getattr(stats, c) for c in _SESSION_COUNTERS]
            index, token = self._enter(name)
            try:
                return original(session, *args, **kwargs)
            finally:
                self._leave(index, token)
                deltas = {c: getattr(stats, c) - b
                          for c, b in zip(_SESSION_COUNTERS, before)}
                self.spans[index][INFO] = deltas
                if deltas["compiles"]:
                    self.spans[index][NAME] = "core.session.compile"
        return wrapper

    def _wrap_preprocess(self, original, name):
        def wrapper(*args, **kwargs):
            index, token = self._enter(name)
            try:
                stats = original(*args, **kwargs)
            finally:
                self._leave(index, token)
            self.spans[index][INFO] = {
                "eliminated_vars": stats.eliminated_vars}
            return stats
        return wrapper

    def _wrap_solve(self, original, name):
        def wrapper(solver, *args, **kwargs):
            stats = solver.stats
            conflicts, props = stats.conflicts, stats.propagations
            index, token = self._enter(name)
            result = None
            try:
                result = original(solver, *args, **kwargs)
                return result
            finally:
                self._leave(index, token)
                self.spans[index][INFO] = {
                    "sat": result,
                    "conflicts": stats.conflicts - conflicts,
                    "propagations": stats.propagations - props,
                }
        return wrapper

    def _wrap_submit(self, original, name):
        async def wrapper(supervisor, request_id, kb_name, kb, query,
                          *args, **kwargs):
            index, token = self._enter(name, {"verb": query.verb})
            try:
                return await original(supervisor, request_id, kb_name, kb,
                                      query, *args, **kwargs)
            finally:
                self._leave(index, token)
        return wrapper


# -- aggregation ------------------------------------------------------------------


def _duration(span) -> float:
    return span[END] - span[START]


def _ancestors(spans, span):
    parent = span[PARENT]
    while parent is not None:
        span = spans[parent]
        yield span
        parent = span[PARENT]


#: Layers reported as self time, in the order the table prints them.
LAYERS = [
    "serve.daemon.handle", "serve.daemon.handoff", "serve.protocol.decode",
    "serve.protocol.encode", "serve.admission.wait", "serve.pool.checkout",
    "serve.pool.checkin", "serve.daemon.execute", "core.executor.execute",
    "core.session.view", "core.session.compile", "sat.preprocess",
    "core.diagnose.minimize", "opt.linear", "opt.lexicographic",
    "sat.solver.solve", "kb.registry.copy", "kb.registry.apply",
    "kb.registry.validate",
]


def layer_table(spans: dict) -> dict:
    """Per layer: calls, self and inclusive time in seconds, summed over
    every request. ``serve.daemon.handoff`` is derived: in threaded mode it
    is the wait between pool checkout and the solver thread starting plus
    the wait for the event loop to resume after it, the part of
    ``handle`` no wrapped function covers."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in spans.items():
        if span[PARENT] is not None:
            children[span[PARENT]].append(index)
    table = {name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
             for name in LAYERS}
    for index, span in spans.items():
        row = table.setdefault(LAYER_OF.get(span[NAME], span[NAME]),
                               {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        kids = children.get(index, [])
        own = _duration(span) - sum(_duration(spans[k]) for k in kids)
        if span[NAME] == "serve.daemon.handle":
            handoff = _handoff(spans, kids)
            own -= handoff
            table["serve.daemon.handoff"]["self_s"] += handoff
            table["serve.daemon.handoff"]["incl_s"] += handoff
        row["calls"] += 1
        row["self_s"] += own
        row["incl_s"] += _duration(span)
    return table


def _handoff(spans, kids: list[int]) -> float:
    by_name = {spans[k][NAME]: spans[k] for k in kids}
    checkout = by_name.get("serve.pool.checkout")
    checkin = by_name.get("serve.pool.checkin")
    execute = by_name.get("serve.daemon.execute")
    if checkout is None or checkin is None or execute is None:
        return 0.0
    return max(0.0, checkin[START] - checkout[END] - _duration(execute))


def layer_metrics(tracer: Tracer, client_latency: dict, pool: dict) -> dict:
    """The per-layer metrics of the threaded traced pass.

    Times are per handled request, in ms. ``*_ms`` is self time except
    for ``serve.daemon.handle_ms``, ``core.diagnose.minimize_ms`` and the
    ``opt.*`` times, which include the solver calls they make.
    """
    spans = tracer.spans
    table = layer_table(spans)
    handles = {i: s for i, s in spans.items()
               if s[NAME] == "serve.daemon.handle"}
    requests = max(1, len(handles))

    def per_request(layer, field="self_s"):
        return 1000.0 * table[layer][field] / requests

    encode_after = defaultdict(float)
    for span in spans.values():
        info = span[INFO]
        if span[PARENT] is None and isinstance(info, dict) and "request" in info:
            encode_after[info["request"]] += _duration(span)
    # What the client waited beyond handle() and serializing its reply:
    # HTTP parsing, socket I/O and the client's own work.
    transports = [
        latency - _duration(span) - encode_after[index]
        for index, span in handles.items()
        if (latency := client_latency.get(span[RID])) is not None
    ]

    solves = [s for s in spans.values() if s[NAME] == "sat.solver.solve"]
    under = defaultdict(list)
    for span in solves:
        for ancestor in _ancestors(spans, span):
            if ancestor[NAME] in ("core.diagnose.minimize", "opt.linear",
                                  "opt.lexicographic"):
                under[ancestor[NAME]].append(span)
                break
    solve_s = sum(_duration(s) for s in solves)
    props = sum(s[INFO]["propagations"] for s in solves)
    session = Counter()
    for span in spans.values():
        if span[NAME] in ("core.session.view", "core.session.compile"):
            session.update(span[INFO])
    eliminated = sum(s[INFO]["eliminated_vars"] for s in spans.values()
                     if s[NAME] == "sat.preprocess")
    unsat_linear = [s for s in under["opt.linear"] if s[INFO]["sat"] is False]
    handle_ms = per_request("serve.daemon.handle", "incl_s")
    residual_ms = per_request("serve.daemon.handle")
    lookups = pool["hits"] + pool["misses"]
    return {
        "serve.daemon.handle_ms": (handle_ms, "ms"),
        "serve.daemon.self_ms": (residual_ms, "ms"),
        "serve.daemon.handoff_ms": (per_request("serve.daemon.handoff"), "ms"),
        "serve.client.transport_ms": (
            1000.0 * sum(transports) / max(1, len(transports)), "ms"),
        "serve.protocol.decode_ms": (per_request("serve.protocol.decode"),
                                     "ms"),
        "serve.protocol.encode_ms": (per_request("serve.protocol.encode"),
                                     "ms"),
        "serve.admission.wait_ms": (per_request("serve.admission.wait"), "ms"),
        "serve.admission.queue_depth_max": (tracer.queue_depth_max, "count"),
        "serve.pool.checkout_ms": (
            per_request("serve.pool.checkout")
            + per_request("serve.pool.checkin"), "ms"),
        "serve.pool.hit_ratio": (pool["hits"] / lookups if lookups else 0.0,
                                 "ratio"),
        "serve.pool.rekeyed": (pool["rekeyed"], "count"),
        "core.executor.self_ms": (
            per_request("core.executor.execute")
            + per_request("serve.daemon.execute"), "ms"),
        "core.session.view_ms": (per_request("core.session.view"), "ms"),
        "core.session.compile_ms": (per_request("core.session.compile"), "ms"),
        "core.session.compiles": (session["compiles"], "count"),
        "core.session.rebases": (session["rebases"], "count"),
        "core.session.rebases_patched": (session["rebases_patched"], "count"),
        "core.session.rebases_avoided": (session["rebases_avoided"], "count"),
        "core.diagnose.minimize_ms": (
            per_request("core.diagnose.minimize", "incl_s"), "ms"),
        "core.diagnose.solver_calls": (len(under["core.diagnose.minimize"]),
                                       "count"),
        "sat.preprocess.ms": (per_request("sat.preprocess"), "ms"),
        "sat.preprocess.eliminated_vars": (eliminated, "count"),
        "sat.solver.solve_calls": (len(solves), "count"),
        "sat.solver.solve_ms": (per_request("sat.solver.solve"), "ms"),
        "sat.solver.conflicts": (
            sum(s[INFO]["conflicts"] for s in solves), "count"),
        "sat.solver.props_per_s": (props / solve_s if solve_s else 0.0,
                                   "1/s"),
        "opt.linear.probes": (len(under["opt.linear"]), "count"),
        "opt.linear.unsat_probes": (len(unsat_linear), "count"),
        "opt.lexicographic.probes": (len(under["opt.lexicographic"]),
                                     "count"),
        "kb.registry.copies": (table["kb.registry.copy"]["calls"], "count"),
        "trace.coverage_pct": (
            100.0 * (1.0 - residual_ms / handle_ms) if handle_ms else 0.0,
            "%"),
    }


def workers_metrics(tracer: Tracer, stats: dict) -> dict:
    """``serve.workers.*`` from the process-mode pass: supervisor-side
    submit round trips against the workers' own solve latencies."""
    submits = defaultdict(list)
    for span in tracer.spans.values():
        if span[NAME] == "serve.workers.submit":
            submits[span[INFO]["verb"]].append(_duration(span))
    transit_total = 0.0
    count = 0
    for verb, durations in submits.items():
        hist = stats.get("solve_latency", {}).get(f"solve_latency.{verb}")
        solve_mean = hist["total"] / hist["count"] if hist else 0.0
        transit_total += sum(durations) - len(durations) * solve_mean
        count += len(durations)
    per_worker = [
        sum(v for k, v in (w.get("counters") or {}).items()
            if k.startswith("queries."))
        for w in stats.get("workers", [])
    ]
    counters = stats.get("metrics", {}).get("counters", {})
    routed = counters.get("route.affinity", 0) + counters.get("route.spill", 0)
    return {
        "serve.workers.transit_ms": (
            1000.0 * transit_total / count if count else 0.0, "ms"),
        "serve.workers.busiest_share": (
            max(per_worker) / sum(per_worker) if sum(per_worker) else 0.0,
            "ratio"),
        "serve.workers.spill_ratio": (
            counters.get("route.spill", 0) / routed if routed else 0.0,
            "ratio"),
        "serve.workers.kb_delta_shipped": (
            counters.get("workers.kb_delta_shipped", 0), "count"),
        "serve.workers.kb_shipped": (counters.get("workers.kb_shipped", 0),
                                     "count"),
    }
