"""In-memory fact store: a list behind a lock.

The default backend — zero I/O, used whenever persistence is not
requested. Also the reference implementation the sqlite backend is
tested against.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator

from repro.kb.store.base import Fact, FactStore, validate_fact


class MemoryFactStore(FactStore):
    """Append-only fact log held in process memory."""

    def __init__(self):
        self._facts: list[Fact] = []
        self._lock = threading.Lock()

    def extend(self, facts: Iterable[tuple]) -> list[Fact]:
        records = list(facts)
        for op, kind, name, _payload in records:
            validate_fact(op, kind, name)
        with self._lock:
            start = len(self._facts) + 1
            added = [Fact(start + i, *record)
                     for i, record in enumerate(records)]
            self._facts.extend(added)
            return added

    def scan(self, after: int = 0, upto: int | None = None) -> Iterator[Fact]:
        with self._lock:
            bound = len(self._facts) if upto is None else min(upto, len(self._facts))
            window = self._facts[max(after, 0):bound]
        # Not a generator: the window is taken at call time.
        return iter(window)

    @property
    def latest_seq(self) -> int:
        with self._lock:
            return len(self._facts)
