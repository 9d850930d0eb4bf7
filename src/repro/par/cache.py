"""Query-result caching for the solving service.

Engine-level results (:class:`~repro.core.design.DesignOutcome`) are
keyed by :func:`request_cache_key` over the knowledge-base fingerprint
(scoped to the request's entities), the query verb, and the canonical
request serialization. Compilation is deterministic, so this is
equivalent to hashing the compiled CNF + assumptions while also skipping
the compile on a hit. A KB mutation that can change the answer changes
the key, so stale entries can never be served — they simply stop being
addressable and age out of the LRU. There is no other invalidation.

Hit/miss/eviction counts are kept locally and, when a
:class:`~repro.obs.MetricsRegistry` is attached, mirrored into it under
``<name>.hits`` / ``<name>.misses`` / ``<name>.evictions`` plus a
``<name>.size`` gauge.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any

__all__ = ["QueryCache", "request_cache_key"]

_MISS = object()


def request_cache_key(
    verb: str, kb, request, config: str = "", scope: frozenset | None = None
) -> str:
    """Canonical hash of an engine query: verb + KB state + request.

    *config* names the executor configuration that produced the answer
    (``"inc=1"`` for a session, ``"inc=0"`` for a fresh compile). The two
    may legitimately return different (equally valid) models, so their
    results must not alias in a shared cache.

    With *scope* (the request's entity footprint, see
    :func:`repro.core.compile.request_entity_scope`) the key hashes
    :meth:`~repro.kb.registry.KnowledgeBase.scoped_fingerprint` instead
    of the global fingerprint: a KB mutation disjoint from the scope
    leaves the entry addressable, because grounding the request against
    either KB state produces the same formula.
    """
    h = hashlib.sha256()
    h.update(verb.encode())
    h.update(b"\x00")
    if scope is None:
        h.update(kb.fingerprint().encode())
    else:
        h.update(kb.scoped_fingerprint(scope).encode())
    h.update(b"\x00")
    h.update(config.encode())
    h.update(b"\x00")
    h.update(
        json.dumps(request.to_dict(), sort_keys=True, default=str).encode()
    )
    return h.hexdigest()


class QueryCache:
    """A bounded, thread-safe LRU mapping of query keys to results.

    >>> cache = QueryCache(maxsize=128)
    >>> cache.get("key") is None
    True
    >>> cache.put("key", "answer")
    >>> cache.get("key")
    'answer'
    """

    def __init__(
        self,
        maxsize: int = 1024,
        metrics=None,
        name: str = "cache",
    ):
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.name = name
        self.metrics = metrics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._data: OrderedDict[str, Any] = OrderedDict()

    def get(self, key: str, default: Any = None) -> Any:
        """Return the cached value for *key* (marking it fresh) or *default*."""
        with self._lock:
            value = self._data.get(key, _MISS)
            if value is _MISS:
                self.misses += 1
                hit = False
            else:
                self._data.move_to_end(key)
                self.hits += 1
                hit = True
        if self.metrics is not None:
            self.metrics.incr(f"{self.name}.hits" if hit else f"{self.name}.misses")
        return default if value is _MISS else value

    def put(self, key: str, value: Any) -> None:
        """Insert (or refresh) *key*, evicting LRU entries beyond maxsize."""
        evicted = 0
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
                evicted += 1
            size = len(self._data)
        if self.metrics is not None:
            if evicted:
                self.metrics.incr(f"{self.name}.evictions", evicted)
            self.metrics.set_gauge(f"{self.name}.size", size)

    def clear(self) -> None:
        """Drop every entry (explicit invalidation)."""
        with self._lock:
            self._data.clear()
        if self.metrics is not None:
            self.metrics.set_gauge(f"{self.name}.size", 0)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._data
