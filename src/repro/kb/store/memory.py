"""In-memory fact store: a list behind a lock.

The default backend — zero I/O, used whenever persistence is not
requested. Also the reference implementation the sqlite backend is
tested against.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator

from repro.kb.store.base import Fact, FactStore, validate_fact


class MemoryFactStore(FactStore):
    """Append-only fact log held in process memory."""

    def __init__(self):
        self._facts: list[Fact] = []
        self._lock = threading.Lock()

    def append(self, op: str, kind: str, name: str,
               payload: Any = None) -> Fact:
        validate_fact(op, kind, name)
        with self._lock:
            fact = Fact(len(self._facts) + 1, op, kind, name, payload)
            self._facts.append(fact)
            return fact

    def scan(self, after: int = 0, upto: int | None = None) -> Iterator[Fact]:
        with self._lock:
            bound = len(self._facts) if upto is None else min(upto, len(self._facts))
            window = self._facts[max(after, 0):bound]
        yield from window

    @property
    def latest_seq(self) -> int:
        with self._lock:
            return len(self._facts)
