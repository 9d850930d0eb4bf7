"""The multi-process solver execution backend (`repro.serve.workers`).

Four obligations, mirroring the daemon's threaded-mode guarantees:

1. **Byte parity.** Every verb — unary and streamed — answered through
   the worker pool must produce byte-identical wire payloads to the
   threaded daemon (which is itself pinned byte-identical to direct
   executor runs by test_serve). Both modes build replies with the same
   function; this pins that the supervisor relays them unchanged.
2. **Routing.** A request goes to the first live worker, in its session
   key's consistent-hash ring order, with the fewest requests in flight:
   repeat shapes on idle workers share one slot, a busy or dead slot
   hands the key to its ring successor, and two concurrent requests on
   one shape keep both workers busy.
3. **Loss is structured.** SIGKILLing a worker mid-solve yields a
   ``worker_lost`` error payload (never a hang), the slot respawns, and
   the daemon keeps serving.
4. **Aggregation.** ``/stats`` reports worker pools and caches summed
   and solve-latency histograms merged across processes, in the same
   shape as threaded mode.
"""

from __future__ import annotations

import asyncio
import copy
import json
import os
import queue
import signal
import time

import pytest

from repro.core.compile import request_entity_scope
from repro.core.design import DesignRequest
from repro.core.engine import ReasoningEngine
from repro.core.query import Query
from repro.kb.hardware import Hardware, NICSpec, ServerSpec
from repro.kb.registry import KnowledgeBase
from repro.kb.rules import Rule
from repro.kb.system import System
from repro.kb.workload import Workload
from repro.kb.dsl import obj
from repro.logic.ast import FALSE, TRUE, Not
from repro.serve import DaemonConfig, InprocDaemon, ReasoningDaemon
from repro.serve.client import make_envelope
from repro.serve import workers
from repro.serve.daemon import StreamReply
from repro.serve.pool import SessionPool
from repro.serve.protocol import WireError
from repro.serve.workers import WorkerSupervisor

pytestmark = pytest.mark.timeout(300)


def _kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_system(System(
        name="StackA", category="network_stack",
        solves=["packet_processing"], requires=TRUE,
    ))
    kb.add_system(System(
        name="StackB", category="network_stack",
        solves=["packet_processing"], requires=TRUE,
    ))
    kb.add_hardware(Hardware(
        spec=NICSpec(model="NIC", rate_gbps=25, power_w=10, cost_usd=200),
        max_units=4,
    ))
    kb.add_hardware(Hardware(
        spec=ServerSpec(model="Box", cores=32, mem_gb=128, power_w=400,
                        cost_usd=5000),
        max_units=4,
    ))
    return kb


def _request(shape: str = "app") -> DesignRequest:
    return DesignRequest(workloads=[
        Workload(name=shape, objectives=["packet_processing"]),
    ])


def _infeasible_request() -> DesignRequest:
    return DesignRequest(
        workloads=[Workload(name="app", objectives=["packet_processing"])],
        required_systems=["StackA"],
        forbidden_systems=["StackA"],
    )


def _parity_envelopes() -> list[dict]:
    feasible, infeasible = _request(), _infeasible_request()
    return [
        make_envelope("check", feasible, request_id="q-check"),
        make_envelope("check", infeasible, request_id="q-check-unsat"),
        make_envelope("synthesize", feasible, request_id="q-synth"),
        make_envelope("explain", feasible, request_id="q-explain"),
        make_envelope("diagnose", infeasible, request_id="q-diag"),
        make_envelope("diagnose", infeasible, request_id="q-diag-s",
                      stream=True),
        make_envelope("diagnose", feasible, request_id="q-diag-ok-s",
                      stream=True),
        make_envelope("enumerate", feasible, request_id="q-enum",
                      options={"limit": 3}),
        make_envelope("enumerate", feasible, request_id="q-enum-s",
                      options={"limit": 3}, stream=True),
        make_envelope("equivalence", feasible, request_id="q-equiv",
                      options={"completions_limit": 4}),
        make_envelope("equivalence", feasible, request_id="q-equiv-s",
                      options={"completions_limit": 4}, stream=True),
        # Error paths must serialize identically too.
        {"id": "q-bad-verb", "verb": "nope", "request": {}},
        {"id": "q-bad-kb", "verb": "check", "kb": "missing",
         "request": feasible.to_dict()},
        {"id": "q-bad-req", "verb": "check", "request": {"workloads": 7}},
        {"id": "q-bad-stream", "verb": "check", "stream": True,
         "request": feasible.to_dict()},
    ]


def _put(ops: list[dict]) -> dict:
    return {"verb": "put_kb", "kb": "default", "ops": ops}


def _upsert(kind: str, name: str, entity) -> dict:
    return {"op": "upsert", "entity": kind, "name": name,
            "payload": entity.to_dict()}


class TestProcessParity:
    def test_byte_parity_with_threaded_daemon_across_all_verbs(self):
        """Workers answer every verb byte-identically to threaded mode."""
        envelopes = _parity_envelopes()
        with InprocDaemon(
            ReasoningDaemon(_kb(), DaemonConfig(port=None))
        ) as threaded:
            expected = [threaded.query_bytes(e) for e in envelopes]
        with InprocDaemon(
            ReasoningDaemon(_kb(), DaemonConfig(port=None, workers=2))
        ) as pooled:
            actual = [pooled.query_bytes(e) for e in envelopes]
        for envelope, want, got in zip(envelopes, expected, actual):
            assert got == want, (
                f"divergence on {envelope.get('id')}:\n"
                f"  threaded: {want!r}\n  process:  {got!r}"
            )

    def test_parent_kb_mutation_is_reshipped_to_workers(self):
        """Workers answer against the *current* KB, not their boot copy."""
        kb = _kb()
        daemon = ReasoningDaemon(kb, DaemonConfig(port=None, workers=2))
        with InprocDaemon(daemon) as harness:
            first = harness.query(make_envelope("check", _request()))
            assert first["ok"] and first["result"]["feasible"] is True
            # Outlaw the objective: the previously feasible request must
            # now come back infeasible through the same worker pool.
            assert harness.query(_put([_upsert("rule", "outlawed", Rule(
                name="outlawed", formula=Not(obj("packet_processing")),
            ))]))["ok"]
            second = harness.query(make_envelope("check", _request()))
            assert second["ok"] and second["result"]["feasible"] is False
            # The update travels as its ops, never as a full KB
            # re-serialization.
            assert daemon.metrics.counter("workers.kb_delta_shipped") >= 1
            assert daemon.metrics.counter("workers.kb_shipped") == 0

    def test_a_long_write_feed_never_leaves_a_warm_session_stale(self):
        """More updates than the KB's change journal holds, then one that
        makes every stack undeployable: a warm worker session must answer
        like a fresh compile of the served KB."""
        daemon = ReasoningDaemon(_kb(), DaemonConfig(port=None, workers=2))
        with InprocDaemon(daemon) as harness:
            warm = harness.query(make_envelope("check", _request()))
            assert warm["ok"] and warm["result"]["feasible"] is True
            for i in range(1100):
                assert harness.query(_put([_upsert("hardware", "NIC", Hardware(
                    spec=NICSpec(model="NIC", rate_gbps=25, power_w=10,
                                 cost_usd=200 + i % 2),
                    max_units=4,
                ))]))["ok"]
            assert harness.query(_put([
                _upsert("system", name, System(
                    name=name, category="network_stack",
                    solves=["packet_processing"], requires=FALSE,
                ))
                for name in ("StackA", "StackB")
            ]))["ok"]
            reply = harness.query(make_envelope("check", _request()))
            served = daemon.kbs["default"]
        fresh = ReasoningEngine(served, incremental=False).check(_request())
        assert fresh.feasible is False
        assert reply["ok"] and reply["result"]["feasible"] is fresh.feasible


class _StubProcess:
    """Stands in for a worker process: alive until told otherwise."""

    pid = None

    def __init__(self, alive: bool = True):
        self.running = alive

    def is_alive(self) -> bool:
        return self.running


def _idle_supervisor(workers: int) -> WorkerSupervisor:
    """A supervisor whose slots look live but run no process."""
    supervisor = WorkerSupervisor(
        {"default": _kb()}, DaemonConfig(port=None, workers=workers)
    )
    for handle in supervisor.workers:
        handle.process = _StubProcess()
    return supervisor


def _ring_order(supervisor: WorkerSupervisor, query) -> list[int]:
    """The key's slots clockwise round the ring, walked independently
    of ``route``."""
    key = SessionPool.key_for("default", query)
    point = supervisor._hash(repr(key))
    ring = supervisor._ring
    start = next(
        (i for i, (p, _slot) in enumerate(ring) if p >= point), 0
    )
    order: list[int] = []
    for _point, slot in ring[start:] + ring[:start]:
        if slot not in order:
            order.append(slot)
    return order


def _busy(handle, requests: int = 1) -> None:
    handle.pending = {i: object() for i in range(requests)}


class TestRouting:
    def _supervisor(self, workers: int):
        return _idle_supervisor(workers)

    def test_same_shape_always_routes_to_the_same_slot(self):
        supervisor = self._supervisor(4)
        query = Query("check", _request())
        slots = {
            supervisor.route("default", query).slot for _ in range(8)
        }
        assert len(slots) == 1

    def test_distinct_shapes_spread_across_slots(self):
        supervisor = self._supervisor(4)
        slots = {
            supervisor.route(
                "default", Query("check", _request(f"shape{i}"))
            ).slot
            for i in range(32)
        }
        assert len(slots) >= 2

    def test_busy_preferred_slot_hands_off_to_an_idle_one(self):
        supervisor = self._supervisor(2)
        query = Query("check", _request())
        preferred = supervisor.route("default", query)
        _busy(preferred)
        other = next(h for h in supervisor.workers if h is not preferred)
        assert supervisor.route("default", query) is other
        assert supervisor.metrics.counter("route.spill") == 1

    def test_equal_loads_keep_the_preferred_slot(self):
        supervisor = self._supervisor(2)
        query = Query("check", _request())
        preferred = supervisor.route("default", query)
        for handle in supervisor.workers:
            _busy(handle, 2)
        assert supervisor.route("default", query) is preferred
        assert supervisor.metrics.counter("route.affinity") == 2
        assert supervisor.metrics.counter("route.spill") == 0

    def test_busy_preferred_slot_spills_to_its_ring_successor(self):
        supervisor = self._supervisor(4)
        for i in range(8):
            query = Query("check", _request(f"shape{i}"))
            order = _ring_order(supervisor, query)
            assert len(order) == 4
            for handle in supervisor.workers:
                handle.pending = {}
            _busy(supervisor.workers[order[0]])
            slots = {
                supervisor.route("default", query).slot
                for _ in range(4)
            }
            assert slots == {order[1]}

    def test_disabled_preferred_slot_goes_to_its_ring_successor(self):
        supervisor = self._supervisor(4)
        for i in range(8):
            query = Query("check", _request(f"shape{i}"))
            order = _ring_order(supervisor, query)
            for handle in supervisor.workers:
                handle.process = _StubProcess()
            supervisor.workers[order[0]].process = None
            assert supervisor.route("default", query).slot == order[1]

    def test_disabled_slot_falls_back_to_a_live_worker(self):
        supervisor = self._supervisor(2)
        query = Query("check", _request())
        preferred = supervisor.route("default", query)
        preferred.process = None
        routed = supervisor.route("default", query)
        assert routed is not preferred and routed.process is not None

    def test_exited_worker_is_never_chosen_before_its_loss_is_handled(self):
        """A worker that exited has nothing pending until its pipe EOF is
        handled; it must not win on load and fail the request."""
        supervisor = self._supervisor(2)
        query = Query("check", _request())
        preferred = supervisor.route("default", query)
        other = next(h for h in supervisor.workers if h is not preferred)
        _busy(other, 3)
        preferred.process = _StubProcess(alive=False)
        assert supervisor.route("default", query) is other

    def test_all_slots_disabled_is_a_structured_error(self):
        supervisor = self._supervisor(2)
        for handle in supervisor.workers:
            handle.process = None
        with pytest.raises(WireError) as excinfo:
            supervisor.route("default", Query("check", _request()))
        assert excinfo.value.code == "internal"


def _nic(model: str) -> Hardware:
    return Hardware(
        spec=NICSpec(model=model, rate_gbps=100, power_w=20, cost_usd=900),
        max_units=4,
    )


class TestShapeKeyedRing:
    def test_a_delta_in_scope_moves_no_shape_off_its_slot(self):
        """The ring key is ``(kb_name, shape)``: a KB delta that changes
        every request's scoped fingerprint leaves each shape on the
        worker that compiled it."""
        supervisor = _idle_supervisor(2)
        kb = supervisor.kbs["default"]
        queries = [Query("check", _request(f"shape{i}")) for i in range(16)]
        before = [supervisor.route("default", q).slot for q in queries]
        scopes = [request_entity_scope(kb, q.request) for q in queries]
        prints = [kb.scoped_fingerprint(scope) for scope in scopes]
        # A new hardware model under an unpinned inventory is in scope.
        evolved = copy.deepcopy(kb)
        evolved.apply_entity_delta([{
            "op": "upsert", "entity": "hardware", "name": "NewNIC",
            "payload": _nic("NewNIC").to_dict(),
        }])
        supervisor.kbs["default"] = evolved
        assert all(
            evolved.scoped_fingerprint(request_entity_scope(
                evolved, q.request)) != fp
            for q, fp in zip(queries, prints)
        )
        after = [supervisor.route("default", q).slot for q in queries]
        assert after == before
        assert len(set(before)) == 2

    def test_request_path_hashes_no_kb_state(self, monkeypatch):
        """Pool checkout, routing and publishing a delta to the workers
        never fingerprint the KB: the session is the one place that
        reacts to a KB change."""
        supervisor = _idle_supervisor(2)
        kb = supervisor.kbs["default"]
        handle = supervisor.workers[0]
        handle.send_q = queue.Queue()
        pool = SessionPool(max_sessions=2)
        query = Query("check", _request())
        pool.checkin(pool.checkout("default", kb, query))
        kb.add_hardware(_nic("NewNIC"))

        def refuse(*_args, **_kwargs):
            raise AssertionError("KB hashed on the request path")

        monkeypatch.setattr(KnowledgeBase, "fingerprint", refuse)
        monkeypatch.setattr(KnowledgeBase, "scoped_fingerprint", refuse)
        pooled = pool.checkout("default", kb, query)
        assert pooled.session.kb is kb
        pool.checkin(pooled)
        assert pool.checkout("default", kb, Query(
            "check", _request("other"))).session.kb is kb
        stats = pool.stats_dict()
        assert (stats["hits"], stats["misses"], stats["rekeyed"]) == (1, 2, 1)
        assert supervisor.route("default", query).alive
        ops = [_upsert("hardware", "NewNIC", _nic("NewNIC"))]
        supervisor.publish_delta("default", ops)
        message = json.loads(handle.send_q.get_nowait())
        assert message == {"kind": "apply_delta", "name": "default",
                           "ops": ops}
        assert handle.send_q.empty()
        # The other slot has a process but no pipe yet: nothing queued.
        assert supervisor.workers[1].send_q is None
        assert supervisor.metrics.counter("workers.kb_delta_shipped") == 1


class TestConcurrentRouting:
    def test_two_concurrent_shapes_on_one_slot_keep_both_workers_busy(self):
        """Two architects whose shapes prefer the same slot are answered
        by both workers, byte-identically to threaded mode."""
        idle = _idle_supervisor(2)
        by_slot: dict[int, list[str]] = {}
        for i in range(32):
            shape = f"shape{i}"
            query = Query("check", _request(shape))
            slot = idle.route("default", query).slot
            by_slot.setdefault(slot, []).append(shape)
        shapes = next(names for names in by_slot.values() if len(names) >= 2)
        envelopes = [
            make_envelope("check", _request(shape), request_id=f"q-{shape}")
            for shape in shapes[:2]
        ]
        with InprocDaemon(
            ReasoningDaemon(_kb(), DaemonConfig(port=None))
        ) as threaded:
            expected = [threaded.query_bytes(e) for e in envelopes]

        daemon = ReasoningDaemon(_kb(), DaemonConfig(port=None, workers=2))

        async def concurrently():
            return await asyncio.gather(
                *(daemon.handle(e) for e in envelopes)
            )

        with InprocDaemon(daemon) as pooled:
            replies = pooled.submit(concurrently()).result(120)
            supervisor = daemon._supervisor
            pooled.submit(supervisor.refresh_stats(timeout=30)).result(60)
            slots = supervisor.slot_stats()
        assert [reply.body() for reply in replies] == expected
        for slot in slots:
            assert (slot["counters"] or {}).get("queries.check", 0) >= 1, slots


class TestStreamRelay:
    def test_clean_stream_ends_with_done_frame(self):
        """The supervisor hands a worker's stream frames to the transport
        unchanged."""
        frames = [b'{"id":"rid2","ok":true,"stream":true,"verb":"enumerate"}',
                  b'{"item":["StackA"],"seq":0}',
                  b'{"item":["StackB"],"seq":1}',
                  b'{"count":2,"done":true}']

        async def run():
            supervisor = _idle_supervisor(1)
            handle = supervisor.workers[0]
            handle.conn = object()
            future = asyncio.get_running_loop().create_future()
            handle.pending[7] = future
            supervisor._dispatch(
                handle, handle.conn,
                {"kind": "reply", "rid": 7, "status": 200, "stream": True},
                b"\n".join(frames),
            )
            return await future

        reply = asyncio.run(run())
        assert isinstance(reply, StreamReply)
        assert reply.frames == frames
        parsed = [json.loads(f) for f in reply.frames]
        assert [f.get("seq") for f in parsed[1:-1]] == [0, 1]
        assert parsed[-1] == {"done": True, "count": 2}


class TestWorkerLoss:
    def test_sigkill_mid_solve_yields_worker_lost_then_respawn(
        self, monkeypatch
    ):
        """The acceptance scenario: kill a worker while it solves.

        The in-flight request must fail with a structured ``worker_lost``
        error (no hang), the slot must respawn with a fresh pid, and the
        daemon must keep answering with zero leaked admission slots.
        """
        from repro.knowledge import default_knowledge_base
        from repro.knowledge.casestudy import more_workloads_request

        monkeypatch.setattr(workers, "HEARTBEAT_INTERVAL_S", 0.2)
        daemon = ReasoningDaemon(
            default_knowledge_base(), DaemonConfig(port=None, workers=2),
        )
        harness = InprocDaemon(daemon).start()
        try:
            request = more_workloads_request()
            victim_future = harness.submit(daemon.handle(
                make_envelope("check", request, request_id="victim")
            ))
            supervisor = daemon._supervisor
            deadline = time.monotonic() + 60
            victim = None
            while time.monotonic() < deadline and victim is None:
                victim = next(
                    (h for h in supervisor.workers if h.load and h.pid),
                    None,
                )
                time.sleep(0.01)
            assert victim is not None, "request never reached a worker"
            old_pid = victim.pid
            os.kill(old_pid, signal.SIGKILL)

            reply = victim_future.result(timeout=60)
            assert reply.payload["ok"] is False
            assert reply.payload["error"]["code"] == "worker_lost"
            assert "Traceback" not in reply.payload["error"]["message"]

            # The slot respawns with a fresh process.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if victim.alive and victim.pid != old_pid:
                    break
                time.sleep(0.02)
            assert victim.alive and victim.pid != old_pid
            assert victim.restarts >= 1
            assert supervisor.lost_total == 1

            # No leaked admission slot, and the daemon still answers.
            assert daemon.admission.inflight == 0
            after = harness.query(
                make_envelope("check", request, request_id="after"),
            )
            assert after["ok"] is True
        finally:
            harness.stop()


    def test_worker_killed_after_a_put_kb_respawns_on_the_updated_kb(
        self, monkeypatch
    ):
        """A worker respawned after a ``PUT /kb`` boots from the served
        KB, so it answers with the update applied."""
        monkeypatch.setattr(workers, "HEARTBEAT_INTERVAL_S", 0.2)
        daemon = ReasoningDaemon(_kb(), DaemonConfig(port=None, workers=2))
        harness = InprocDaemon(daemon).start()
        try:
            first = harness.query(make_envelope("check", _request()))
            assert first["ok"] and first["result"]["feasible"] is True
            assert harness.query(_put([_upsert("rule", "outlawed", Rule(
                name="outlawed", formula=Not(obj("packet_processing")),
            ))]))["ok"]
            supervisor = daemon._supervisor
            old_pids = [handle.pid for handle in supervisor.workers]
            for pid in old_pids:
                os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not all(
                handle.alive and handle.pid != old
                for handle, old in zip(supervisor.workers, old_pids)
            ):
                time.sleep(0.02)
            assert all(handle.restarts == 1 for handle in supervisor.workers)
            after = harness.query(make_envelope("check", _request()))
            assert after["ok"] and after["result"]["feasible"] is False
        finally:
            harness.stop()


class TestStatsAggregation:
    def test_stats_have_one_shape_in_both_modes(self):
        """``/stats`` has the same keys in threaded and process mode, and
        ``solve_latency`` lists ``solve_latency.<verb>`` for every verb
        answered."""
        shapes = {}
        for mode_workers in (1, 2):
            daemon = ReasoningDaemon(
                _kb(), DaemonConfig(port=None, workers=mode_workers)
            )
            answered = set()
            with InprocDaemon(daemon) as harness:
                for envelope in _parity_envelopes():
                    payload = harness.query(envelope)
                    head = payload[0] if isinstance(payload, list) else payload
                    if head["ok"]:
                        answered.add(envelope["verb"])
                stats = harness.submit(daemon._stats_reply()).result(60)
            stats = stats.payload
            assert answered == {"check", "synthesize", "explain",
                                "diagnose", "enumerate", "equivalence"}
            assert set(stats["solve_latency"]) == {
                f"solve_latency.{verb}" for verb in answered
            }
            assert len(stats["workers"]) == mode_workers
            shapes[mode_workers] = (
                set(stats), set(stats["daemon"]), set(stats["pool"]),
                {key for worker in stats["workers"] for key in worker},
            )
        assert shapes[1] == shapes[2]

    def test_stats_sum_pools_and_merge_histograms_across_workers(self):
        daemon = ReasoningDaemon(
            _kb(), DaemonConfig(port=None, workers=2)
        )
        with InprocDaemon(daemon) as harness:
            for i in range(3):
                payload = harness.query(
                    make_envelope("check", _request(), request_id=f"q{i}")
                )
                assert payload["ok"] is True
            stats = harness.submit(daemon._stats_reply()).result(60).payload
            assert stats["daemon"]["mode"] == "process"
            assert stats["daemon"]["workers"] == 2
            workers = stats["workers"]
            assert len(workers) == 2
            assert all(w["alive"] for w in workers)
            assert len({w["pid"] for w in workers}) == 2
            pool = stats["pool"]
            assert pool["hits"] + pool["misses"] == 3
            assert pool["max_sessions"] == 2 * daemon.config.pool_size
            hist = stats["solve_latency"]["solve_latency.check"]
            assert hist["count"] == 3
            assert hist["total"] > 0

    def test_stats_sum_the_workers_caches(self):
        """Process mode reports the caches its workers answer from; the
        front end holds no pool or cache of its own."""
        daemon = ReasoningDaemon(
            _kb(), DaemonConfig(port=None, workers=2, cache_size=8)
        )
        with InprocDaemon(daemon) as harness:
            for i in range(3):
                payload = harness.query(
                    make_envelope("check", _request(), request_id=f"q{i}")
                )
                assert payload["ok"] is True
            harness.submit(
                daemon._supervisor.refresh_stats(timeout=30)
            ).result(60)
            stats = daemon.stats_payload()
        cache = stats["cache"]
        assert cache["hits"] >= 2
        assert cache["hits"] + cache["misses"] == 3
        assert cache["maxsize"] == 2 * daemon.config.cache_size
        assert cache == {
            name: sum(w["cache"][name] for w in stats["workers"])
            for name in cache
        }
        assert not hasattr(daemon, "pool") and not hasattr(daemon, "cache")

    def test_stop_terminates_every_worker(self):
        daemon = ReasoningDaemon(
            _kb(), DaemonConfig(port=None, workers=2)
        )
        harness = InprocDaemon(daemon).start()
        try:
            assert harness.query(make_envelope("check", _request()))["ok"]
            processes = [
                h.process for h in daemon._supervisor.workers if h.process
            ]
            assert len(processes) == 2
        finally:
            harness.stop()
        assert all(not p.is_alive() for p in processes)
