"""Multi-process solver execution: a shape-affinity worker pool.

The threaded backend runs every solve on one Python interpreter, so
aggregate throughput tops out near a single core no matter how many
clients connect. This module adds the scale-out backend: a supervisor in
the asyncio front-end process starts N solver **worker processes**, each
owning its own warm :class:`~repro.serve.pool.SessionPool`, connected
over per-worker duplex pipes.

A worker answers a query exactly as the threaded backend does — with
:func:`~repro.serve.daemon.answer_query` — and ships the reply's bytes;
the supervisor hands them to the transport unchanged. Process-mode and
threaded-mode replies are therefore byte-identical by construction.

Layout::

    front-end process (asyncio)            worker process (x N)
    ---------------------------            -----------------------------
    parse / admit / rate-limit             worker_main():
    WorkerSupervisor.submit()                recv exec/ping/apply_delta/...
      route: fewest in flight,  --pipe-->    SessionPool checkout
      ties in the key's ring
      order (forwards the envelope)          answer_query()
      reader+writer thread per  <--pipe--    reply header + reply bytes
      worker, replies dispatched
      onto the event loop

Design rules:

1. **Least loaded, in ring order.** Walking a consistent-hash ring
   clockwise from the session-pool key ``(kb_name, shape)`` gives each
   key a preference order over the live workers; a request goes to the
   first worker in that order with the fewest requests in flight. Idle
   workers mean the ring-preferred worker, so repeat shapes land where
   they were compiled and warm sessions stay hot. The key holds no KB
   state, so a ``PUT /kb`` moves no shape off its worker: the worker's
   session absorbs the delta where it is. A busy worker hands the
   request to the key's next slot, so a shape is compiled on at most as
   many workers as it has concurrent requests and no worker idles while
   another has a queue.
2. **A dead worker never hangs a client.** The per-worker reader thread
   detects pipe EOF (and the heartbeat monitor detects silent exits);
   every in-flight request on the dead worker fails with a structured
   ``worker_lost`` error and a replacement process is spawned into the
   same slot, preserving the routing ring. A reply travels as one pipe
   message, so a worker never dies halfway through one.
3. **Spawn-safe.** Workers are started with the ``spawn`` method: the
   entry point is a top-level function and knowledge bases are shipped
   as their JSON serialization, never pickled live objects.
4. **Each KB update is replayed as it is applied.** A ``PUT /kb`` hands
   its ops to :meth:`WorkerSupervisor.publish_delta`, which queues one
   ``apply_delta`` message on every running worker's pipe before any
   later request can be routed. A worker mutates its one KB object in
   place and never replaces it, so its warm sessions only ever compare
   versions of one lineage. A worker spawned later boots from the
   served KB, which already holds the update.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import multiprocessing
import queue
import threading
import time

from repro.kb.registry import KnowledgeBase
from repro.obs.metrics import MetricsRegistry
from repro.serve.daemon import (
    DaemonConfig,
    StreamReply,
    UnaryReply,
    answer_query,
    error_reply,
    slot_pool,
    solver_stats,
)
from repro.serve.pool import SessionPool
from repro.serve.protocol import WireError, canonical_json, envelope_to_query

__all__ = ["WorkerSupervisor", "worker_main"]

#: Seconds between heartbeat pings (each pong refreshes that worker's
#: cached stats snapshot).
HEARTBEAT_INTERVAL_S = 2.0

#: ``multiprocessing`` start method: workers rebuild their state from
#: JSON, so nothing is forked mid-mutation.
START_METHOD = "spawn"

#: Seconds stop() waits for workers to exit before terminating them.
SHUTDOWN_TIMEOUT_S = 5.0

#: Hash-ring points per worker slot. Enough that shapes spread evenly;
#: the ring only has to be *stable*, since the slot count is fixed for
#: the daemon's lifetime and respawned workers keep their slot.
_RING_REPLICAS = 16

#: A worker that dies within this many seconds of spawning "died fast" —
#: after _MAX_FAST_DEATHS consecutive fast deaths the slot is disabled
#: instead of respawned, so a persistent boot failure (bad interpreter,
#: OOM-on-import) cannot become a fork bomb.
_FAST_DEATH_S = 1.0
_MAX_FAST_DEATHS = 3


# -- worker side (runs in the child process) ---------------------------------------


def worker_main(conn, slot: int, kb_blobs: dict,
                config: DaemonConfig) -> None:
    """Entry point of one solver worker process (spawn-safe).

    Serves messages from the supervisor pipe serially: ``exec`` (answer
    the forwarded request envelope on the worker-local session pool with
    :func:`~repro.serve.daemon.answer_query`, and send back a ``reply``
    header line followed by the reply's bytes), ``ping`` (heartbeat —
    answered with a full stats snapshot), ``apply_delta`` (replay a
    ``PUT /kb`` delta on the worker's KB in place — warm sessions absorb
    it on their next query), ``shutdown``. Exits on pipe EOF so an
    orphaned worker can never outlive its daemon.
    """
    kbs = {
        name: KnowledgeBase.from_dict(blob)
        for name, blob in kb_blobs.items()
    }
    pool = slot_pool(config)
    metrics = MetricsRegistry()
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            break
        try:
            msg = json.loads(data)
        except ValueError:
            continue
        kind = msg.get("kind")
        try:
            if kind == "shutdown":
                break
            if kind == "ping":
                conn.send_bytes(canonical_json({
                    "kind": "pong", "seq": msg.get("seq", 0), "slot": slot,
                    "stats": solver_stats(pool, metrics),
                }))
            elif kind == "apply_delta":
                kb = kbs.get(msg["name"])
                if kb is not None:
                    kb.apply_entity_delta(msg["ops"], strict=False)
                    metrics.incr("kb_deltas")
            elif kind == "exec":
                envelope = msg["envelope"]
                request_id = envelope.get("id")
                try:
                    # The front end already validated this envelope; a
                    # failure here is internal.
                    kb_name, query, stream = envelope_to_query(envelope)
                    pooled = pool.checkout(kb_name, kbs[kb_name], query)
                except Exception as exc:  # noqa: BLE001 - becomes a reply
                    reply = error_reply(request_id, exc)
                else:
                    try:
                        reply = answer_query(pooled, query, request_id,
                                             stream, metrics)
                    finally:
                        pool.checkin(pooled)
                conn.send_bytes(canonical_json({
                    "kind": "reply", "rid": msg["rid"],
                    "status": reply.status,
                    "stream": isinstance(reply, StreamReply),
                }) + b"\n" + reply.body())
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass


# -- supervisor side (runs in the daemon process) ----------------------------------


class _WorkerHandle:
    """Supervisor-side state for one worker slot (survives respawns)."""

    def __init__(self, slot: int):
        self.slot = slot
        self.process = None
        self.conn = None
        self.send_q: queue.Queue | None = None
        #: request id -> future resolved with the worker's reply.
        self.pending: dict[int, asyncio.Future] = {}
        self.restarts = 0
        self.fast_deaths = 0
        self.started_at: float | None = None
        self.last_pong: float | None = None
        self.last_stats: dict = {}

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def load(self) -> int:
        return len(self.pending)


class WorkerSupervisor:
    """Owns N solver worker processes and routes queries to them.

    The process backend of :class:`~repro.serve.daemon.ReasoningDaemon`,
    configured by its :class:`~repro.serve.daemon.DaemonConfig`
    (``workers``; each worker builds its own pool and cache from
    ``pool_size`` and ``cache_size`` with
    :func:`~repro.serve.daemon.slot_pool`). Lives
    on the daemon's event loop. All public coroutines must be awaited
    from that loop; replies from the per-worker reader threads are
    marshalled onto it with ``call_soon_threadsafe``.
    """

    def __init__(self, kbs: dict[str, KnowledgeBase],
                 config: DaemonConfig,
                 metrics: MetricsRegistry | None = None):
        if config.workers < 1:
            raise ValueError("need at least one worker process")
        self.kbs = kbs
        self.config = config
        self.metrics = metrics or MetricsRegistry()
        self.ctx = multiprocessing.get_context(START_METHOD)
        self.workers = [_WorkerHandle(slot) for slot in
                        range(config.workers)]
        self._ring = self._build_ring(config.workers)
        #: Distinct slots clockwise from each ring entry: the preference
        #: order of every key that hashes onto that entry.
        self._orders = [
            tuple(dict.fromkeys(
                slot for _point, slot in self._ring[i:] + self._ring[:i]
            ))
            for i in range(len(self._ring))
        ]
        self._rid = 0
        self._ping_seq = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._monitor_task: asyncio.Task | None = None
        self._stats_waiters: dict[tuple, asyncio.Future] = {}
        self._stopping = False
        self.lost_total = 0

    @property
    def started(self) -> bool:
        return self._loop is not None

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        if self.started:
            return
        self._loop = asyncio.get_running_loop()
        for handle in self.workers:
            self._spawn(handle)
        self._monitor_task = asyncio.ensure_future(self._monitor())

    async def stop(self) -> None:
        """Shut every worker down; pending requests fail as ``draining``."""
        self._stopping = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            await asyncio.gather(self._monitor_task, return_exceptions=True)
        for handle in self.workers:
            if handle.send_q is not None:
                self._enqueue(handle, {"kind": "shutdown"})
        deadline = time.monotonic() + SHUTDOWN_TIMEOUT_S
        for handle in self.workers:
            if handle.process is None:
                continue
            remaining = max(0.0, deadline - time.monotonic())
            await self._loop.run_in_executor(
                None, handle.process.join, remaining
            )
            if handle.process.is_alive():
                handle.process.terminate()
                await self._loop.run_in_executor(
                    None, handle.process.join, 2.0
                )
                if handle.process.is_alive():  # pragma: no cover - last resort
                    handle.process.kill()
            self._teardown_transport(handle)
            self._fail_pending(handle, "draining", "daemon is shutting down")

    def _spawn(self, handle: _WorkerHandle) -> None:
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        blobs = {name: kb.to_dict() for name, kb in self.kbs.items()}
        process = self.ctx.Process(
            target=worker_main,
            args=(child_conn, handle.slot, blobs, self.config),
            name=f"repro-serve-worker-{handle.slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.send_q = queue.Queue()
        handle.started_at = time.monotonic()
        handle.last_pong = None
        threading.Thread(
            target=self._writer_loop, args=(parent_conn, handle.send_q),
            name=f"repro-serve-w{handle.slot}-send", daemon=True,
        ).start()
        threading.Thread(
            target=self._reader_loop, args=(handle, parent_conn),
            name=f"repro-serve-w{handle.slot}-recv", daemon=True,
        ).start()

    def _teardown_transport(self, handle: _WorkerHandle) -> None:
        if handle.send_q is not None:
            handle.send_q.put(None)
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass

    # -- pipe I/O threads ---------------------------------------------------------

    def _writer_loop(self, conn, send_q: queue.Queue) -> None:
        """Drain the outbound queue so the event loop never blocks on a
        full pipe buffer. One writer per worker generation keeps sends
        ordered."""
        while True:
            data = send_q.get()
            if data is None:
                return
            try:
                conn.send_bytes(data)
            except (BrokenPipeError, OSError):
                # The reader thread's EOF (or the monitor) handles the
                # loss; just stop writing.
                return

    def _reader_loop(self, handle: _WorkerHandle, conn) -> None:
        while True:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                break
            # A JSON header line, then (for a reply) the reply's bytes.
            head, _, body = data.partition(b"\n")
            try:
                msg = json.loads(head)
            except ValueError:
                continue
            self._call_on_loop(self._dispatch, handle, conn, msg, body)
        self._call_on_loop(self._on_reader_eof, handle, conn)

    def _call_on_loop(self, fn, *args) -> None:
        try:
            self._loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:  # loop already closed (daemon torn down)
            pass

    # -- event-loop callbacks -----------------------------------------------------

    def _dispatch(self, handle: _WorkerHandle, conn, msg: dict,
                  body: bytes) -> None:
        if conn is not handle.conn:
            return  # message from a dead worker generation
        kind = msg.get("kind")
        if kind == "pong":
            handle.last_pong = time.monotonic()
            handle.last_stats = msg.get("stats") or {}
            waiter = self._stats_waiters.pop(
                (msg.get("seq"), handle.slot), None
            )
            if waiter is not None and not waiter.done():
                waiter.set_result(None)
        elif kind == "reply":
            future = handle.pending.pop(msg.get("rid"), None)
            if future is not None and not future.done():
                future.set_result(
                    StreamReply(msg["status"], body.split(b"\n"))
                    if msg.get("stream") else UnaryReply(msg["status"], body)
                )

    @staticmethod
    def _fail_pending(handle: _WorkerHandle, code: str,
                      message: str) -> None:
        """Fail every request in flight on *handle* with *code*."""
        for future in handle.pending.values():
            if not future.done():
                future.set_exception(WireError(code, message))
        handle.pending.clear()

    def _on_reader_eof(self, handle: _WorkerHandle, conn) -> None:
        if conn is not handle.conn or self._stopping:
            return
        self._handle_loss(handle)

    def _handle_loss(self, handle: _WorkerHandle) -> None:
        """Fail everything in flight on a dead worker and respawn it."""
        self.lost_total += 1
        self.metrics.incr("workers.lost")
        self._fail_pending(
            handle, "worker_lost",
            f"solver worker {handle.slot} (pid {handle.pid}) died with "
            f"{handle.load} request(s) in flight; a replacement was spawned",
        )
        for key in [k for k in self._stats_waiters if k[1] == handle.slot]:
            waiter = self._stats_waiters.pop(key)
            if not waiter.done():
                waiter.set_result(None)
        self._teardown_transport(handle)
        if handle.process is not None:
            handle.process.join(timeout=0.2)  # reap; it is already dead
        lifetime = (
            time.monotonic() - handle.started_at
            if handle.started_at is not None else 0.0
        )
        if lifetime < _FAST_DEATH_S:
            handle.fast_deaths += 1
        else:
            handle.fast_deaths = 0
        if self._stopping:
            return
        if handle.fast_deaths >= _MAX_FAST_DEATHS:
            # Persistent boot failure: disable the slot rather than
            # respawning in a tight loop. Routing skips disabled slots.
            handle.process = None
            handle.conn = None
            self.metrics.incr("workers.disabled")
            return
        handle.restarts += 1
        self.metrics.incr("workers.respawned")
        self._spawn(handle)

    async def _monitor(self) -> None:
        """Heartbeat: detect silent worker exits, refresh stats snapshots."""
        try:
            while True:
                await asyncio.sleep(HEARTBEAT_INTERVAL_S)
                if self._stopping:
                    return
                for handle in self.workers:
                    if handle.process is None:
                        continue
                    if not handle.alive:
                        # Fallback path: pipe EOF normally catches this
                        # first; a second call after respawn is a no-op
                        # because the process is alive again.
                        self._handle_loss(handle)
                    else:
                        self._enqueue(handle, {"kind": "ping", "seq": 0})
        except asyncio.CancelledError:
            return

    # -- routing ------------------------------------------------------------------

    @staticmethod
    def _hash(data: str) -> int:
        return int.from_bytes(
            hashlib.sha256(data.encode()).digest()[:8], "big"
        )

    def _build_ring(self, workers: int) -> list[tuple[int, int]]:
        """(point, slot) pairs, sorted — a classic consistent-hash ring."""
        ring = [
            (self._hash(f"slot:{slot}:replica:{i}"), slot)
            for slot in range(workers)
            for i in range(_RING_REPLICAS)
        ]
        ring.sort()
        return ring

    def route(self, kb_name: str, query) -> _WorkerHandle:
        """The first live worker in the key's ring order with the fewest
        requests in flight.

        ``route.affinity`` counts requests sent to the key's ring-preferred
        slot, ``route.spill`` those sent anywhere else (it was busy, dead
        or disabled).
        """
        point = self._hash(repr(SessionPool.key_for(kb_name, query)))
        order = self._orders[
            bisect.bisect_left(self._ring, (point,)) % len(self._ring)
        ]
        # Only a running process: one that exited but whose pipe EOF is
        # not handled yet has nothing pending and would otherwise win.
        live = [self.workers[slot] for slot in order
                if self.workers[slot].alive]
        if not live:
            raise WireError(
                "internal",
                "no solver worker is running: every slot is respawning or "
                "disabled after repeated crashes; restart the daemon if "
                "this persists",
            )
        chosen = min(live, key=lambda h: h.load)  # first of the least loaded
        self.metrics.incr(
            "route.affinity" if chosen.slot == order[0] else "route.spill"
        )
        return chosen

    # -- submission ---------------------------------------------------------------

    def _enqueue(self, handle: _WorkerHandle, payload: dict) -> None:
        handle.send_q.put(canonical_json(payload))

    def publish_delta(self, kb_name: str, ops: list[dict]) -> None:
        """Queue a ``PUT /kb`` delta on every running worker's pipe.

        Called right after the front end swaps in the updated KB, with no
        ``await`` in between, so every request routed afterwards queues
        behind the delta. A slot with no process (unstarted or disabled)
        is skipped: a worker spawned later boots from ``self.kbs``, which
        already holds the update.
        """
        data = canonical_json({
            "kind": "apply_delta", "name": kb_name, "ops": ops,
        })
        for handle in self.workers:
            if handle.process is None or handle.send_q is None:
                continue
            self.metrics.incr("workers.kb_delta_shipped")
            handle.send_q.put(data)

    async def submit(self, request_id, kb_name: str, kb: KnowledgeBase,
                     query, stream: bool, envelope: dict):
        """Answer *query* on a worker and return its reply.

        The decoded envelope is forwarded as-is, so the worker sees every
        field the client sent; *query* only picks the worker. *kb* is
        not read: each worker holds its own copy, kept current by
        :meth:`publish_delta`. Raises :class:`WireError` — code
        ``worker_lost`` if the assigned worker dies first.
        """
        if not self.started:
            # A daemon driven through handle() without start() (in-process
            # harnesses) spins its workers up on first use.
            await self.start()
        handle = self.route(kb_name, query)
        self._rid += 1
        future = self._loop.create_future()
        handle.pending[self._rid] = future
        self._enqueue(handle, {
            "kind": "exec", "rid": self._rid, "envelope": envelope,
        })
        return await future

    # -- stats --------------------------------------------------------------------

    async def refresh_stats(self, timeout: float = 1.0) -> None:
        """Ping every live worker and wait (bounded) for fresh snapshots.

        A worker that is mid-solve will not answer within the timeout;
        its last heartbeat snapshot is used instead — ``/stats`` must
        never block behind a long solve.
        """
        self._ping_seq += 1
        seq = self._ping_seq
        waiters = []
        for handle in self.workers:
            if not handle.alive:
                continue
            future = self._loop.create_future()
            self._stats_waiters[(seq, handle.slot)] = future
            self._enqueue(handle, {"kind": "ping", "seq": seq})
            waiters.append(future)
        if waiters:
            await asyncio.wait(waiters, timeout=timeout)
        for key in [k for k in self._stats_waiters if k[0] == seq]:
            self._stats_waiters.pop(key)

    def slot_stats(self) -> list[dict]:
        """Per-worker detail plus each worker's last stats snapshot."""
        now = time.monotonic()
        return [{
            "slot": handle.slot,
            "pid": handle.pid,
            "alive": handle.alive,
            "pending": handle.load,
            "restarts": handle.restarts,
            "uptime_s": (
                round(now - handle.started_at, 3)
                if handle.started_at is not None else 0.0
            ),
            "last_pong_age_s": (
                round(now - handle.last_pong, 3)
                if handle.last_pong is not None else None
            ),
            "pool": handle.last_stats.get("pool"),
            "cache": handle.last_stats.get("cache"),
            "counters": handle.last_stats.get("counters"),
            "histograms": handle.last_stats.get("histograms"),
        } for handle in self.workers]
