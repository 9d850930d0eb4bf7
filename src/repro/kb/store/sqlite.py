"""Sqlite-backed fact store: durable, crash-safe, multi-reader.

One table, one row per fact, WAL journaling so concurrent readers (other
connections to the same file) never block the single writer. Every
:meth:`~SqliteFactStore.extend` is one transaction — a failed or crashed
write leaves none of its facts behind, never corrupts the log, and a
reopen resumes from the last committed seq (the "reopen mid-log"
recovery path the tests pin).

Snapshot isolation for readers comes from :meth:`scan` materializing its
row window up front under the seq bound captured at call time: facts
appended afterwards — by this connection or any other — are not yielded.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from typing import Iterable, Iterator

from repro.errors import StoreBusyError
from repro.kb.store.base import Fact, FactStore, validate_fact

#: Primary result codes of a write refused by another connection's lock:
#: SQLITE_BUSY and SQLITE_LOCKED (literal, since the sqlite3 module names
#: them only from Python 3.11).
_BUSY_CODES = (5, 6)
#: What those two codes read as, for an error that carries no code
#: (``sqlite_errorcode`` is missing before 3.11 and may be None after).
_BUSY_MESSAGES = ("database is locked", "database table is locked")


def _is_busy(exc: sqlite3.OperationalError) -> bool:
    """True when ``exc`` is a write refused by another writer's lock."""
    code = getattr(exc, "sqlite_errorcode", None)
    if code is not None:
        return code & 0xFF in _BUSY_CODES
    return str(exc) in _BUSY_MESSAGES


_SCHEMA = """
CREATE TABLE IF NOT EXISTS facts (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    op      TEXT NOT NULL,
    kind    TEXT NOT NULL,
    name    TEXT NOT NULL,
    payload TEXT
)
"""


class SqliteFactStore(FactStore):
    """Fact log persisted to a sqlite database file."""

    def __init__(self, path: str, timeout: float = 10.0):
        self.path = path
        self._conn = sqlite3.connect(
            path, timeout=timeout, check_same_thread=False
        )
        self._lock = threading.Lock()
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(_SCHEMA)
            self._conn.commit()

    def extend(self, facts: Iterable[tuple]) -> list[Fact]:
        records = list(facts)
        for op, kind, name, _payload in records:
            validate_fact(op, kind, name)
        rows = [
            (op, kind, name, None if payload is None else json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            ))
            for op, kind, name, payload in records
        ]
        # The connection as a context manager commits the transaction on
        # success and rolls every insert back on any exception.
        try:
            with self._lock, self._conn:
                return [
                    Fact(self._conn.execute(
                        "INSERT INTO facts (op, kind, name, payload) "
                        "VALUES (?,?,?,?)", row,
                    ).lastrowid, *record)
                    for row, record in zip(rows, records)
                ]
        except sqlite3.OperationalError as exc:
            if _is_busy(exc):
                raise StoreBusyError(
                    f"fact log {self.path!r} is locked by another writer: "
                    f"{exc}; retry later"
                ) from exc
            raise

    def scan(self, after: int = 0, upto: int | None = None) -> Iterator[Fact]:
        bound = self.latest_seq if upto is None else upto
        with self._lock:
            rows = self._conn.execute(
                "SELECT seq, op, kind, name, payload FROM facts "
                "WHERE seq > ? AND seq <= ? ORDER BY seq",
                (after, bound),
            ).fetchall()
        # Not a generator: the bound and the rows are read at call time.
        return iter([
            Fact(seq, op, kind, name,
                 None if blob is None else json.loads(blob))
            for seq, op, kind, name, blob in rows
        ])

    @property
    def latest_seq(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COALESCE(MAX(seq), 0) FROM facts"
            ).fetchone()
        return int(row[0])

    def close(self) -> None:
        with self._lock:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass
