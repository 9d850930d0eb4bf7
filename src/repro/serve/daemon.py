"""The reasoning-as-a-service daemon.

An asyncio server exposing the :class:`~repro.core.query.Query` pipeline
over two transports:

- **HTTP/1.1** (TCP) — ``POST /query`` with a request envelope body,
  ``GET /stats``, ``GET /healthz``. Streaming responses use chunked
  transfer encoding with one NDJSON frame per item.
- **NDJSON** (unix socket) — one request envelope per line, one
  response (or a header/item/footer frame sequence) per line.

Every query takes one path. ``handle()`` decodes, rate-limits and admits
it, then hands it to the backend's ``submit``. The backend checks a warm
session out of a pool and calls :func:`answer_query` — the one function
that turns a session and a ``Query`` into reply bytes — and ``handle()``
returns those bytes unchanged. Two backends differ only in where that
call runs:

- **Threads** (``workers=1``, the default) — :class:`ThreadBackend`
  calls it on one of ``max_inflight`` executor threads in this process.
  Zero setup cost, but aggregate throughput is GIL-bound near one core.
- **Processes** (``workers=N``) — each of N solver worker processes
  managed by :class:`~repro.serve.workers.WorkerSupervisor` calls it on
  its own warm pool; the supervisor routes by shape affinity and relays
  the reply bytes verbatim. A crashed worker fails its in-flight
  requests with a structured ``worker_lost`` error and is respawned.

Design rules, in priority order:

1. **The event loop never blocks on a solve.** All solver work runs on
   an executor thread (or in a worker process); the loop only parses,
   routes, admits, and writes.
2. **Overload degrades to structured errors, not latency.** Admission
   control bounds inflight + queued requests; everything beyond is shed
   with an ``overloaded`` payload. Per-client token buckets shed abusive
   clients with ``rate_limited``.
3. **No tracebacks on the wire.** Every failure maps to a structured
   error payload through :func:`error_reply`; internal errors are
   reported as ``{"code": "internal"}`` with the exception repr only.
4. **Sessions are never shared and never recycled corrupted.** Each
   request checks a warm session out of the pool for exclusive use;
   poisoned sessions (solver failure mid-query) are discarded on
   checkin.
5. **Shutdown drains.** ``stop()`` refuses new work, waits for inflight
   solves (bounded by ``drain_timeout``), then tears the transports
   down.
"""

from __future__ import annotations

import asyncio
import copy
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING
from urllib.parse import unquote

from repro.core.query import Query
from repro.errors import KnowledgeBaseError, QueryError, StoreBusyError
from repro.kb.registry import KnowledgeBase
from repro.obs.metrics import LatencyHistogram, MetricsRegistry
from repro.par.cache import QueryCache
from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.pool import PooledSession, SessionPool, execute_pooled
from repro.serve.protocol import (
    ERROR_HTTP_STATUS,
    KB_VERBS,
    WireError,
    canonical_json,
    decode_envelope,
    decode_kb_update,
    envelope_to_query,
    error_payload,
    ok_payload,
    result_items,
    result_to_wire,
)

if TYPE_CHECKING:
    from repro.serve.workers import WorkerSupervisor

__all__ = [
    "DaemonConfig",
    "ReasoningDaemon",
    "StreamReply",
    "ThreadBackend",
    "UnaryReply",
    "answer_query",
    "error_reply",
    "slot_pool",
    "solver_stats",
]

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Summable fields of ``SessionPool.stats_dict()``.
_POOL_SUM_FIELDS = (
    "hits", "misses", "evictions", "rekeyed",
    "discarded_poisoned", "discarded_overflow",
    "idle", "in_use", "size", "distinct_keys",
)


def _sum_blocks(blocks: list[dict], fields) -> dict:
    """Sum each of *fields* over the solver slots' stats *blocks*."""
    return {name: sum(b.get(name, 0) for b in blocks) for name in fields}


#: ``put_kb`` ops whose fact kind is ``ordering`` whatever their entity.
_ORDERING_OPS = ("add_ordering", "remove_ordering", "set_orderings")


@dataclass
class DaemonConfig:
    """Every operational knob in one place (see ``docs/daemon.md``)."""

    host: str = "127.0.0.1"
    #: TCP port for the HTTP transport; 0 = ephemeral, None = disabled.
    port: int | None = 0
    #: Filesystem path for the unix NDJSON transport; None = disabled.
    unix_path: str | None = None
    #: Idle warm sessions retained (0 = fresh compile per request). In
    #: process mode this is the bound *per worker process*.
    pool_size: int = 8
    #: Solver worker **processes**. 1 (the default) solves on threads in
    #: this process; N > 1 runs the shape-affinity process pool.
    workers: int = 1
    #: Concurrent solves admitted (and solver threads in threaded mode);
    #: further requests queue.
    max_inflight: int = 8
    #: Requests allowed to wait for a solve slot; beyond this, shed.
    queue_limit: int = 32
    #: Per-client token-bucket refill rate (requests/s); <= 0 disables.
    rate: float = 0.0
    #: Per-client token-bucket capacity.
    burst: int = 20
    #: Hard bound on a request body / NDJSON line.
    max_body_bytes: int = 1_000_000
    #: Query-result cache entries per solver slot (0 = disabled, the
    #: default: caching memoizes the *first* equally-valid answer, which
    #: weakens the byte-for-byte trajectory parity with direct execution
    #: that the differential suite pins). Each slot's cache is shared by
    #: its pooled sessions: threaded mode has one, process mode one per
    #: worker, and ``/stats`` sums them. Keys hash the request's scoped
    #: KB fingerprint, so a ``PUT /kb`` delta strands exactly the entries
    #: it can change; the LRU bound reclaims them.
    cache_size: int = 0
    #: Seconds stop() waits for inflight solves before giving up.
    drain_timeout: float = 10.0


@dataclass
class UnaryReply:
    """A single-payload response, held as its canonical JSON bytes."""

    status: int
    data: bytes

    @property
    def payload(self) -> dict:
        return json.loads(self.data)

    def body(self) -> bytes:
        return self.data


@dataclass
class StreamReply:
    """A streamed response: header frame, item frames, footer frame."""

    status: int
    frames: list[bytes]

    def body(self) -> bytes:
        """The frames as NDJSON (without the final newline)."""
        return b"\n".join(self.frames)


# -- the solver side (executor thread or worker process) ---------------------------


def error_reply(request_id, exc: Exception) -> UnaryReply:
    """The structured reply for a failure — the one place exceptions
    are classified (``str`` for query/KB errors, ``repr`` for internal
    ones, so the wire never carries a traceback)."""
    if isinstance(exc, WireError):
        code, message = exc.code, exc.message
    elif isinstance(exc, (QueryError, KnowledgeBaseError)):
        code, message = "bad_request", str(exc)
    elif isinstance(exc, StoreBusyError):
        code, message = "unavailable", str(exc)
    else:
        code, message = "internal", repr(exc)
    return UnaryReply(
        ERROR_HTTP_STATUS[code],
        canonical_json(error_payload(request_id, code, message)),
    )


def answer_query(pooled: PooledSession, query: Query, request_id,
                 stream: bool, metrics: MetricsRegistry
                 ) -> UnaryReply | StreamReply:
    """Solve *query* on a checked-out session and shape the reply.

    Every solved query is answered here: :class:`ThreadBackend` calls
    it on an executor thread, each solver worker process calls it from
    :func:`~repro.serve.workers.worker_main`. Records
    ``queries.<verb>`` and ``solve_latency.<verb>`` into *metrics*.
    Never raises: failures become :func:`error_reply` payloads.
    """
    try:
        start = time.perf_counter()
        result = execute_pooled(pooled, query)
        metrics.observe_histogram(
            f"solve_latency.{query.verb}", time.perf_counter() - start
        )
        metrics.incr(f"queries.{query.verb}")
        if stream:
            items = result_items(query.verb, result)
            frames = [canonical_json({"id": request_id, "ok": True,
                                      "verb": query.verb, "stream": True})]
            frames.extend(canonical_json({"item": item, "seq": i})
                          for i, item in enumerate(items))
            frames.append(canonical_json({"done": True, "count": len(items)}))
            return StreamReply(200, frames)
        return UnaryReply(200, canonical_json(ok_payload(
            request_id, query.verb, result_to_wire(query.verb, result),
        )))
    except Exception as exc:  # noqa: BLE001 - mapped to a structured reply
        return error_reply(request_id, exc)


def slot_pool(config: DaemonConfig) -> SessionPool:
    """One solver slot's warm session pool and result cache.

    Built where the slot's queries run — by :class:`ThreadBackend`, and
    by each worker process in :func:`~repro.serve.workers.worker_main` —
    so no pool or cache exists that no request reads.
    """
    cache = (
        QueryCache(config.cache_size) if config.cache_size > 0 else None
    )
    return SessionPool(max_sessions=config.pool_size, cache=cache)


def solver_stats(pool: SessionPool, metrics: MetricsRegistry) -> dict:
    """A solver's stats snapshot: its pool and cache, counters and
    histograms."""
    return {
        "pool": pool.stats_dict(),
        "cache": pool.cache.stats() if pool.cache is not None else None,
        "counters": metrics.as_dict().get("counters", {}),
        "histograms": metrics.histogram_states(),
    }


class ThreadBackend:
    """The threaded backend: one in-process solver slot.

    It answers ``submit`` like :class:`~repro.serve.workers.WorkerSupervisor`
    does, so ``handle()`` has no per-backend branch. Pool checkout and
    checkin stay on the event loop; only :func:`answer_query` runs on an
    executor thread.
    """

    lost_total = 0

    def __init__(self, config: DaemonConfig):
        self.pool = slot_pool(config)
        #: Solver-side registry, the counterpart of a worker's.
        self.metrics = MetricsRegistry()
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, config.max_inflight),
            thread_name_prefix="repro-serve",
        )
        self._started_at = time.monotonic()

    async def start(self) -> None:
        pass

    async def stop(self) -> None:
        # Called after the admission drain: anything still running was
        # abandoned by the drain timeout and keeps its thread.
        self._executor.shutdown(wait=False, cancel_futures=True)
        self.pool.clear()

    async def submit(self, request_id, kb_name: str, kb: KnowledgeBase,
                     query: Query, stream: bool, envelope: dict):
        pooled = self.pool.checkout(kb_name, kb, query)
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._executor, answer_query, pooled, query, request_id,
                stream, self.metrics,
            )
        finally:
            self.pool.checkin(pooled)

    def publish_delta(self, kb_name: str, ops: list[dict]) -> None:
        pass  # checkout rebinds each session to the served KB

    async def refresh_stats(self, timeout: float) -> None:
        pass  # the local snapshot is always current

    def slot_stats(self) -> list[dict]:
        """One slot — this process — shaped like a worker's entry."""
        return [{
            "slot": 0,
            "pid": os.getpid(),
            "alive": True,
            "pending": self.pool.in_use,
            "restarts": 0,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "last_pong_age_s": 0.0,
            **solver_stats(self.pool, self.metrics),
        }]


# -- the front end (event loop) -----------------------------------------------------


class ReasoningDaemon:
    """Serve reasoning queries over warm pooled sessions.

    Parameters
    ----------
    kbs:
        Either one :class:`KnowledgeBase` (served as ``"default"``) or a
        mapping of name -> KB. Envelopes address KBs by name.
    config:
        A :class:`DaemonConfig`; defaults are sensible for tests.
    """

    def __init__(
        self,
        kbs: KnowledgeBase | dict[str, KnowledgeBase],
        config: DaemonConfig | None = None,
    ):
        if isinstance(kbs, KnowledgeBase):
            kbs = {"default": kbs}
        if not kbs:
            raise ValueError("daemon needs at least one knowledge base")
        for kb in kbs.values():
            kb.validate_or_raise()
        self.kbs = dict(kbs)
        self.config = config or DaemonConfig()
        self.metrics = MetricsRegistry()
        #: Serializes KB mutations (copy-on-write swap + delta publish).
        self._kb_lock = asyncio.Lock()
        self.admission = AdmissionController(
            self.config.max_inflight, self.config.queue_limit
        )
        self.bucket = TokenBucket(self.config.rate, self.config.burst)
        self._supervisor: WorkerSupervisor | None = None
        if self.config.workers > 1:
            # Imported here: the workers module imports this one.
            from repro.serve import workers

            self._supervisor = workers.WorkerSupervisor(
                self.kbs, self.config, metrics=self.metrics
            )
        self._backend = self._supervisor or ThreadBackend(self.config)
        self._servers: list[asyncio.AbstractServer] = []
        self._conn_tasks: set[asyncio.Task] = set()
        self._draining = False
        self._started_at: float | None = None
        self._bound_port: int | None = None

    # -- lifecycle ----------------------------------------------------------------

    @property
    def port(self) -> int | None:
        """The bound TCP port (after :meth:`start`)."""
        return self._bound_port

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def mode(self) -> str:
        """``"process"`` (worker pool) or ``"thread"``."""
        return "process" if self._supervisor is not None else "thread"

    async def start(self) -> None:
        """Bind the configured transports (and spawn worker processes)."""
        cfg = self.config
        await self._backend.start()
        # Leave generous slack over max_body_bytes so the size check in
        # decode_envelope (not the stream reader) reports the violation.
        limit = cfg.max_body_bytes + 65536
        if cfg.port is not None:
            server = await asyncio.start_server(
                self._http_connection, cfg.host, cfg.port, limit=limit
            )
            self._servers.append(server)
            self._bound_port = server.sockets[0].getsockname()[1]
        if cfg.unix_path is not None:
            server = await asyncio.start_unix_server(
                self._lines_connection, cfg.unix_path, limit=limit
            )
            self._servers.append(server)
        self._started_at = time.monotonic()

    async def stop(self, drain: bool = True) -> bool:
        """Graceful shutdown: refuse new work, drain, tear down.

        Returns True when every inflight request finished inside
        ``drain_timeout``; False when the drain timed out and running
        solves were abandoned.
        """
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        drained = True
        if drain:
            drained = await self.admission.drain(self.config.drain_timeout)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self._backend.stop()
        self.metrics.incr("shutdowns")
        return drained

    # -- request handling (transport-independent) ---------------------------------

    async def handle(
        self, raw: bytes | dict, client_hint: str = "inproc"
    ) -> UnaryReply | StreamReply:
        """Answer one request envelope; never raises."""
        self.metrics.incr("requests")
        request_id = None
        try:
            if isinstance(raw, dict):
                envelope = raw
            else:
                envelope = decode_envelope(
                    raw, self.config.max_body_bytes
                )
            request_id = envelope.get("id")
            if self._draining:
                raise WireError("draining", "daemon is shutting down")
            client = envelope.get("client") or client_hint
            if not isinstance(client, str):
                raise WireError("bad_request", "'client' must be a string")
            if not self.bucket.allow(client):
                raise WireError(
                    "rate_limited",
                    f"client {client!r} exceeded "
                    f"{self.config.rate:g} requests/s "
                    f"(burst {self.config.burst})",
                )
            if envelope.get("verb") in KB_VERBS:
                reply = await self._handle_kb_update(request_id, envelope)
            else:
                reply = await self._handle_query(request_id, envelope)
        except Exception as exc:  # noqa: BLE001 - rule 3
            reply = error_reply(request_id, exc)
        if reply.status == 200:
            self.metrics.incr("requests.ok")
        else:
            code = reply.payload["error"]["code"]
            self.metrics.incr(f"requests.error.{code}")
        return reply

    async def _handle_query(self, request_id, envelope: dict):
        """Admit a query and answer it on the backend.

        The admission slot is held until the whole reply is in hand, in
        both modes, so ``stop()``'s drain waits for every answer.
        """
        kb_name, query, stream = envelope_to_query(envelope)
        kb = self.kbs.get(kb_name)
        if kb is None:
            raise WireError(
                "not_found",
                f"unknown kb {kb_name!r}; served: {sorted(self.kbs)}",
            )
        if not await self.admission.try_acquire():
            self.metrics.incr("requests.shed")
            raise WireError(
                "overloaded",
                f"queue full ({self.config.max_inflight} inflight "
                f"+ {self.config.queue_limit} queued); retry later",
            )
        self.metrics.set_gauge("queue_depth", self.admission.queue_depth)
        start = time.perf_counter()
        try:
            reply = await self._backend.submit(
                request_id, kb_name, kb, query, stream, envelope
            )
        finally:
            self.admission.release()
        if reply.status == 200:
            self.metrics.observe_histogram(
                f"latency.{query.verb}", time.perf_counter() - start
            )
        return reply

    async def _handle_kb_update(
        self, request_id, envelope: dict
    ) -> UnaryReply:
        """Apply a ``put_kb``/``delete_kb`` delta: copy-on-write swap.

        The delta is applied to a *copy* of the KB and validated there,
        so a malformed or invalidating delta is rejected whole — the
        served KB is never half-mutated. The ops are then written to the
        attached fact store (if any) on a thread, so a store that waits
        on another writer's lock stalls only this update, never the
        event loop. Once the write returns, the copy (whose mutation
        journal continues the original's, thanks to
        ``KnowledgeBase.__deepcopy__``) replaces the served instance and
        the backend's ``publish_delta`` replays the same ops on every
        worker process, with no ``await`` in between, so any request
        routed afterwards sees the update. Nothing else reacts: pooled
        sessions keep their keys and absorb the delta in place on their
        next query, and cache entries the delta can change stop being
        addressable.
        """
        kb_name, ops = decode_kb_update(envelope)
        async with self._kb_lock:
            kb = self.kbs.get(kb_name)
            if kb is None:
                raise WireError(
                    "not_found",
                    f"unknown kb {kb_name!r}; served: {sorted(self.kbs)}",
                )
            evolved = copy.deepcopy(kb)
            changed = evolved.apply_entity_delta(ops)
            evolved.validate_or_raise()
            store = kb.store
            if store is not None:
                # One all-or-none write: if it fails, the served KB, its
                # store and the log stay exactly as they were.
                await asyncio.to_thread(store.extend, [
                    (op["op"],
                     "ordering" if op["op"] in _ORDERING_OPS
                     else op["entity"],
                     op["name"], op.get("payload"))
                    for op in ops
                ])
                kb.detach_store()
                evolved.attach_store(store, snapshot=False)
            self.kbs[kb_name] = evolved
            self._backend.publish_delta(kb_name, ops)
            self.metrics.incr("kb.updates")
            self.metrics.set_gauge(f"kb.version.{kb_name}", evolved.version)
            result = {
                "kb": kb_name,
                "version": evolved.version,
                "fingerprint": evolved.fingerprint(),
                "changed": sorted(
                    f"{kind}/{name}" if name else kind
                    for kind, name in changed
                ),
            }
        return UnaryReply(200, canonical_json(
            ok_payload(request_id, envelope.get("verb"), result)
        ))

    # -- stats --------------------------------------------------------------------

    def stats_payload(self) -> dict:
        """``/stats``: the daemon block, then the solver slots' snapshots
        (one in threaded mode, one per worker in process mode) with
        their pools and caches summed and solve-latency histograms
        merged."""
        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None else 0.0
        )
        workers = self._backend.slot_stats()
        pool = _sum_blocks([w["pool"] for w in workers if w.get("pool")],
                           _POOL_SUM_FIELDS)
        lookups = pool["hits"] + pool["misses"]
        pool["hit_rate"] = (
            round(pool["hits"] / lookups, 4) if lookups else 0.0
        )
        pool["max_sessions"] = self.config.pool_size * len(workers)
        merged: dict[str, LatencyHistogram] = {}
        for worker in workers:
            for name, state in (worker.pop("histograms", None) or {}).items():
                hist = LatencyHistogram.from_state(state)
                if name in merged:
                    merged[name].merge(hist)
                else:
                    merged[name] = hist
        payload = {
            "daemon": {
                "uptime_s": round(uptime, 3),
                "draining": self._draining,
                "inflight": self.admission.inflight,
                "queue_depth": self.admission.queue_depth,
                "kbs": sorted(self.kbs),
                "mode": self.mode,
                "workers": self.config.workers,
                "workers_lost": self._backend.lost_total,
                "rate_limited_clients": self.bucket.clients(),
            },
            "pool": pool,
            "solve_latency": {
                name: hist.as_dict() for name, hist in sorted(merged.items())
            },
            "workers": workers,
            "metrics": self.metrics.as_dict(),
        }
        if self.config.cache_size > 0:
            # Every ``QueryCache.stats()`` field sums; the block is empty
            # until a slot has reported its cache.
            caches = [w["cache"] for w in workers if w.get("cache")]
            payload["cache"] = _sum_blocks(caches, caches[0] if caches else ())
        return payload

    async def _stats_reply(self) -> UnaryReply:
        """``/stats``: ask workers for fresh snapshots first (bounded —
        a worker mid-solve just contributes its last heartbeat)."""
        await self._backend.refresh_stats(timeout=1.0)
        return UnaryReply(200, canonical_json(self.stats_payload()))

    # -- NDJSON transport (unix socket) -------------------------------------------

    async def _lines_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line exceeded the stream limit: structurally reject
                    # and close (the rest of the oversized line cannot be
                    # resynchronized).
                    self.metrics.incr("requests.error.oversized")
                    writer.write(error_reply(None, WireError(
                        "oversized",
                        f"request line exceeds "
                        f"{self.config.max_body_bytes} bytes",
                    )).body() + b"\n")
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                reply = await self.handle(line, client_hint="unix")
                try:
                    # A stream's body is already one line per frame.
                    writer.write(reply.body() + b"\n")
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    self.metrics.incr("stream.aborted")
                    break
        except asyncio.CancelledError:
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- HTTP transport -----------------------------------------------------------

    async def _http_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        peer = writer.get_extra_info("peername")
        client_hint = f"http:{peer[0]}" if peer else "http"
        try:
            while True:
                parsed = await self._read_http_request(reader)
                if parsed is None:
                    break
                method, path, headers, body, parse_error = parsed
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                if parse_error is not None:
                    self.metrics.incr(
                        f"requests.error.{parse_error.code}"
                    )
                    await self._write_http_json(
                        writer, error_reply(None, parse_error),
                        keep_alive=False,
                    )
                    break
                reply = await self._route_http(
                    method, path, body, client_hint
                )
                try:
                    if isinstance(reply, UnaryReply):
                        await self._write_http_json(
                            writer, reply, keep_alive=keep_alive,
                        )
                    else:
                        await self._write_http_stream(
                            writer, reply, keep_alive
                        )
                except (ConnectionResetError, BrokenPipeError):
                    self.metrics.incr("stream.aborted")
                    break
                if not keep_alive:
                    break
        except (asyncio.CancelledError, asyncio.IncompleteReadError,
                ConnectionResetError):
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_http_request(self, reader: asyncio.StreamReader):
        """One HTTP/1.1 request -> (method, path, headers, body, error).

        Returns None on a cleanly closed connection. Protocol problems
        (bad request line, oversized body) come back as a
        :class:`WireError` in the last slot so the caller can answer
        structurally and close.
        """
        try:
            request_line = await reader.readline()
        except ValueError:
            return ("", "", {}, b"",
                    WireError("bad_request", "request line too long"))
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            return ("", "", {}, b"",
                    WireError("bad_request", "malformed request line"))
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            return (method, path, headers, b"",
                    WireError("bad_request", "bad Content-Length"))
        if length > self.config.max_body_bytes:
            return (method, path, headers, b"", WireError(
                "oversized",
                f"request body is {length} bytes; limit is "
                f"{self.config.max_body_bytes}",
            ))
        body = await reader.readexactly(length) if length else b""
        return (method.upper(), path, headers, body, None)

    async def _route_http(
        self, method: str, path: str, body: bytes, client_hint: str
    ) -> UnaryReply | StreamReply:
        path = path.split("?", 1)[0]
        if method == "POST" and path == "/query":
            return await self.handle(body, client_hint=client_hint)
        if method == "PUT" and (path == "/kb" or path.startswith("/kb/")):
            # PUT /kb (kb named in the body) or PUT /kb/<kb-name>.
            try:
                envelope = decode_envelope(body, self.config.max_body_bytes)
            except WireError as exc:
                self.metrics.incr(f"requests.error.{exc.code}")
                return error_reply(None, exc)
            envelope["verb"] = "put_kb"
            segments = [unquote(seg) for seg in path[3:].split("/") if seg]
            if segments:
                envelope["kb"] = segments[0]
            return await self.handle(envelope, client_hint=client_hint)
        if method == "DELETE" and path.startswith("/kb/"):
            # DELETE /kb/<entity>/<name> (default kb) or
            # DELETE /kb/<kb-name>/<entity>/<name>.
            segments = [unquote(seg) for seg in path[4:].split("/") if seg]
            envelope = {"verb": "delete_kb"}
            if len(segments) == 2:
                envelope["entity"], envelope["name"] = segments
            elif len(segments) == 3:
                (envelope["kb"], envelope["entity"],
                 envelope["name"]) = segments
            else:
                return error_reply(None, WireError(
                    "bad_request",
                    "DELETE path must be /kb/<entity>/<name> or "
                    "/kb/<kb>/<entity>/<name>",
                ))
            return await self.handle(envelope, client_hint=client_hint)
        if method == "GET" and path == "/stats":
            return await self._stats_reply()
        if method == "GET" and path == "/healthz":
            return UnaryReply(200, canonical_json(
                {"ok": True, "draining": self._draining}
            ))
        return error_reply(None, WireError(
            "not_found", f"no route for {method} {path}"
        ))

    @staticmethod
    async def _write_http_json(
        writer: asyncio.StreamWriter, reply: UnaryReply,
        keep_alive: bool = True,
    ) -> None:
        body = reply.body()
        reason = _HTTP_REASONS.get(reply.status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {reply.status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    @staticmethod
    async def _write_http_stream(
        writer: asyncio.StreamWriter, reply: StreamReply,
        keep_alive: bool = True,
    ) -> None:
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {reply.status} "
            f"{_HTTP_REASONS.get(reply.status, 'Unknown')}\r\n"
            f"Content-Type: application/x-ndjson\r\n"
            f"Transfer-Encoding: chunked\r\n"
            f"Connection: {connection}\r\n\r\n"
        ).encode("latin-1")
        writer.write(head)
        await writer.drain()
        for frame in reply.frames:
            data = frame + b"\n"
            writer.write(
                f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"
            )
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()
