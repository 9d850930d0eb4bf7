"""Pluggable fact-store backends for the knowledge base.

See :mod:`repro.kb.store.base` for the log model; backends:

- :class:`MemoryFactStore` — in-process list (default, reference).
- :class:`SqliteFactStore` — durable single file, WAL, multi-reader.
"""

from repro.kb.store.base import FACT_KINDS, FACT_OPS, Fact, FactStore
from repro.kb.store.memory import MemoryFactStore
from repro.kb.store.sqlite import SqliteFactStore

__all__ = [
    "FACT_KINDS",
    "FACT_OPS",
    "Fact",
    "FactStore",
    "MemoryFactStore",
    "SqliteFactStore",
]
