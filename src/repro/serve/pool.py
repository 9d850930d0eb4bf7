"""A bounded pool of warm reasoning sessions.

The daemon's whole performance story is *session reuse*: a
:class:`~repro.core.session.ReasoningSession` pays the KB compile and
CNF preprocessing once, then answers each query as a
``solve(assumptions)`` call. The pool keeps those warm sessions alive
across requests and hands each request exclusive access to one of them.

Keying
    ``(kb_name, shape_key(request))`` — the structural part of a request
    a session compiles (see :func:`~repro.core.session.shape_key`). The
    KB's state is not in the key: the session is the one place that
    reacts to a KB change. Its ``view()`` compares the KB fingerprint on
    every query and absorbs a delta in place (adopt, guard-group patch,
    or full rebase; see :meth:`ReasoningSession._absorb_kb_delta`), so a
    pooled session stays addressable across ``PUT /kb`` and checkout
    only rebinds it to the current KB object. A request with a different
    structural shape gets its own session instead of forcing a rebase
    thrash on a shared one.

Bounds
    At most ``max_sessions`` *idle* sessions are retained, evicted in
    LRU order. Checked-out sessions are bounded by the daemon's
    admission control (``max_inflight``), so total live sessions are
    bounded by ``max_sessions + max_inflight``.

Safety
    Sessions are returned through :meth:`SessionPool.checkin`, which
    discards poisoned instances (a solver exception mid-query leaves a
    session unusable — see :attr:`ReasoningSession.poisoned`) instead of
    recycling corrupted state into the next request.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.executor import QueryExecutor
from repro.core.query import Query
from repro.core.session import ReasoningSession, shape_key
from repro.kb.registry import KnowledgeBase
from repro.par.cache import QueryCache

__all__ = ["PooledSession", "PoolStats", "SessionPool", "execute_pooled"]


@dataclass
class PoolStats:
    """Counters describing pool effectiveness (mirrored on ``/stats``)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Hits that handed out a session last used at an older KB version
    #: (kept warm; the session absorbs the delta on its next view()).
    rekeyed: int = 0
    discarded_poisoned: int = 0
    discarded_overflow: int = 0

    def as_dict(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hits / total, 4) if total else 0.0,
            "evictions": self.evictions,
            "rekeyed": self.rekeyed,
            "discarded_poisoned": self.discarded_poisoned,
            "discarded_overflow": self.discarded_overflow,
        }


@dataclass
class PooledSession:
    """One warm session plus the executor bound to it.

    The holder has exclusive use until :meth:`SessionPool.checkin`.
    ``execute`` is the only method request handlers need; it runs on the
    caller's thread (the daemon calls it from a worker thread so the
    event loop never blocks on a solve).
    """

    key: tuple
    session: ReasoningSession
    executor: QueryExecutor
    #: The KB version this session was last checked out at.
    kb_version: int = 0
    uses: int = 0

    def execute(self, query: Query):
        self.uses += 1
        return self.executor.execute(query)

    def rebind(self, kb: KnowledgeBase) -> None:
        """Point the session at *kb* (the daemon's copy-on-write KB
        update swaps in a fresh object; journal continuity lets the
        session absorb the delta instead of recompiling)."""
        self.session.kb = kb
        self.executor.kb = kb

    @property
    def poisoned(self) -> bool:
        return self.session.poisoned


class SessionPool:
    """Thread-safe bounded LRU pool of :class:`PooledSession`s."""

    def __init__(
        self,
        max_sessions: int = 8,
        observer=None,
        cache: QueryCache | None = None,
    ):
        self.max_sessions = max(0, max_sessions)
        self.observer = observer
        #: Optional shared result cache handed to every pooled executor.
        self.cache = cache
        self.stats = PoolStats()
        self._lock = threading.Lock()
        #: idle sessions in LRU order (oldest first); key -> list of
        #: sessions sharing that key (several exist when concurrent
        #: clients asked for the same shape at once).
        self._idle: OrderedDict[tuple, list[PooledSession]] = OrderedDict()
        self._idle_count = 0
        self._in_use = 0

    # -- keying -------------------------------------------------------------------

    @staticmethod
    def key_for(kb_name: str, query: Query) -> tuple:
        return (kb_name, shape_key(query.request))

    # -- checkout / checkin -------------------------------------------------------

    def checkout(
        self, kb_name: str, kb: KnowledgeBase, query: Query
    ) -> PooledSession:
        """An exclusive warm session for *query* (created on miss).

        Creation is cheap — the KB compile happens lazily inside the
        first ``execute`` — so this is safe to call from the event loop.
        """
        key = self.key_for(kb_name, query)
        with self._lock:
            bucket = self._idle.get(key)
            if bucket:
                pooled = bucket.pop()
                if not bucket:
                    del self._idle[key]
                self._idle_count -= 1
                self._in_use += 1
                self.stats.hits += 1
                if pooled.kb_version != kb.version:
                    self.stats.rekeyed += 1
                    pooled.kb_version = kb.version
                if pooled.session.kb is not kb:
                    pooled.rebind(kb)
                return pooled
            self.stats.misses += 1
            self._in_use += 1
        session = ReasoningSession(
            kb, observer=self.observer, validate=False
        )
        executor = QueryExecutor(
            kb,
            observer=self.observer,
            cache=self.cache,
            incremental=True,
            session=session,
        )
        return PooledSession(
            key=key, session=session, executor=executor,
            kb_version=kb.version,
        )

    def checkin(self, pooled: PooledSession) -> None:
        """Return a session; poisoned sessions are dropped, and a full
        pool evicts its *oldest* idle session to make room.

        Evicting the LRU entry (rather than discarding the returning
        session) matters under shape churn: dropping the incoming
        session instead would let shapes nobody asks for any more squat
        in the pool forever and drive the hit rate to zero.
        """
        with self._lock:
            self._in_use -= 1
            if pooled.poisoned:
                self.stats.discarded_poisoned += 1
                return
            if self.max_sessions == 0:
                self.stats.discarded_overflow += 1
                return
            bucket = self._idle.setdefault(pooled.key, [])
            bucket.append(pooled)
            self._idle.move_to_end(pooled.key)
            self._idle_count += 1
            self._evict_locked()

    def _evict_locked(self) -> None:
        while self._idle_count > self.max_sessions:
            key, bucket = next(iter(self._idle.items()))
            bucket.pop(0)
            if not bucket:
                del self._idle[key]
            self._idle_count -= 1
            self.stats.evictions += 1

    # -- introspection ------------------------------------------------------------

    @property
    def idle(self) -> int:
        return self._idle_count

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def size(self) -> int:
        """Sessions currently alive (idle + checked out)."""
        return self._idle_count + self._in_use

    def clear(self) -> None:
        with self._lock:
            self._idle.clear()
            self._idle_count = 0

    def stats_dict(self) -> dict:
        with self._lock:
            out = self.stats.as_dict()
            out.update({
                "idle": self._idle_count,
                "in_use": self._in_use,
                "size": self._idle_count + self._in_use,
                "max_sessions": self.max_sessions,
                "distinct_keys": len(self._idle),
            })
            return out


def execute_pooled(pooled: PooledSession, query: Query):
    """Run *query* on a checked-out session, on the caller's thread.

    ``explain`` is answered as a pure function of KB + request: the
    daemon runs ``check`` internally and explains that outcome. Both the
    threaded daemon and the process-pool workers execute through this
    one helper so the two modes cannot drift.
    """
    if query.verb == "explain":
        outcome = pooled.execute(Query("check", query.request))
        return pooled.executor.execute(Query("explain", query.request),
                                       outcome)
    return pooled.execute(query)
