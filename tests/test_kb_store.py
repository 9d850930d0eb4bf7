"""FactStore backend contract + sqlite durability/isolation.

The KB is logically a fold over an append-only fact log (see
``repro/kb/store/base.py``). Every backend must round-trip the same
(seq, op, kind, name, payload) sequence; sqlite additionally promises
crash recovery (reopen mid-log resumes at the committed seq) and
snapshot isolation for concurrent readers of the same file.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import StoreBusyError
from repro.kb.hardware import Hardware, NICSpec, ServerSpec, SwitchSpec
from repro.kb.ordering import Ordering
from repro.kb.registry import KnowledgeBase
from repro.kb.rules import Rule
from repro.kb.store import (
    FACT_KINDS,
    FACT_OPS,
    MemoryFactStore,
    SqliteFactStore,
)
from repro.kb.system import System
from repro.logic.ast import TRUE

pytestmark = pytest.mark.timeout(120)


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        yield MemoryFactStore()
    else:
        backend = SqliteFactStore(str(tmp_path / "facts.sqlite"))
        yield backend
        backend.close()


def _populated_kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_system(System(name="StackA", category="network_stack",
                         solves=["packet_processing"], requires=TRUE))
    kb.add_system(System(name="StackB", category="network_stack",
                         solves=["packet_processing"], requires=TRUE))
    kb.add_hardware(Hardware(
        spec=NICSpec(model="NIC", rate_gbps=25, power_w=10, cost_usd=200),
        max_units=4,
    ))
    kb.add_hardware(Hardware(
        spec=ServerSpec(model="Box", cores=32, mem_gb=128, power_w=400,
                        cost_usd=5000),
        max_units=4,
    ))
    kb.add_hardware(Hardware(
        spec=SwitchSpec(model="Tor", port_gbps=100, ports=32, memory_mb=16,
                        power_w=500, cost_usd=20000),
        max_units=2,
    ))
    kb.add_rule(Rule(name="always", formula=TRUE))
    kb.add_ordering(Ordering(dimension="speed", better="StackA",
                             worse="StackB", source="paper"))
    return kb


class TestBackendContract:
    def test_append_scan_roundtrip(self, store):
        facts = [
            ("upsert", "system", "S", {"name": "S"}),
            ("upsert", "hardware", "H", {"kind": "nic"}),
            ("upsert", "rule", "R", {"name": "R"}),
            ("add_ordering", "ordering", "speed", {"better": "a"}),
            ("remove", "system", "S", None),
            ("set_orderings", "ordering", "speed", []),
        ]
        for op, kind, name, payload in facts:
            store.append(op, kind, name, payload)
        replayed = list(store.scan())
        assert [f.seq for f in replayed] == list(range(1, len(facts) + 1))
        assert [(f.op, f.kind, f.name, f.payload) for f in replayed] == facts
        assert store.latest_seq == len(facts)

    def test_scan_window(self, store):
        for i in range(5):
            store.append("upsert", "system", f"s{i}", {})
        assert [f.name for f in store.scan(after=2)] == ["s2", "s3", "s4"]
        assert [f.name for f in store.scan(after=1, upto=3)] == ["s1", "s2"]
        assert list(store.scan(after=5)) == []

    def test_invalid_facts_rejected(self, store):
        with pytest.raises(ValueError, match="unknown fact op"):
            store.append("mangle", "system", "x")
        with pytest.raises(ValueError, match="unknown fact kind"):
            store.append("upsert", "gadget", "x")
        with pytest.raises(ValueError, match="name"):
            store.append("upsert", "system", "")
        assert store.latest_seq == 0

    def test_extend_is_all_or_none(self, store):
        store.append("upsert", "system", "s0", {})
        with pytest.raises(ValueError, match="unknown fact kind"):
            store.extend([("upsert", "system", "s1", {}),
                          ("upsert", "gadget", "x", None)])
        assert store.latest_seq == 1
        added = store.extend([("upsert", "system", "s1", {"i": 1}),
                              ("remove", "system", "s0", None)])
        assert [(f.seq, f.op, f.name) for f in added] == [
            (2, "upsert", "s1"), (3, "remove", "s0"),
        ]
        assert list(store.scan(after=1)) == added

    def test_kb_snapshot_roundtrips_every_entity_kind(self, store):
        """attach(snapshot) -> from_store reproduces the exact KB."""
        kb = _populated_kb()
        kb.attach_store(store, snapshot=True)
        rebuilt = KnowledgeBase.from_store(store)
        assert rebuilt.fingerprint() == kb.fingerprint()
        assert set(rebuilt.systems) == set(kb.systems)
        assert set(rebuilt.hardware) == set(kb.hardware)
        assert set(rebuilt.rules) == set(kb.rules)
        assert rebuilt.dimensions() == kb.dimensions()

    def test_writethrough_mutations_replay(self, store):
        kb = _populated_kb()
        kb.attach_store(store, snapshot=True)
        kb.add_rule(Rule(name="later", formula=TRUE))
        kb.remove_ordering("StackA", "StackB", "speed")
        kb.remove_system("StackB")
        rebuilt = KnowledgeBase.from_store(store)
        assert rebuilt.fingerprint() == kb.fingerprint()
        assert "StackB" not in rebuilt.systems
        assert "later" in rebuilt.rules

    def test_snapshot_isolation_under_interleaved_appends(self, store):
        for i in range(3):
            store.append("upsert", "system", f"s{i}", {})
        scan = store.scan()
        first = next(scan)
        # Appends racing the scan are invisible to it.
        store.append("upsert", "system", "late", {})
        names = [first.name] + [f.name for f in scan]
        assert names == ["s0", "s1", "s2"]
        assert store.latest_seq == 4
        # The bound is taken when scan() is called, not at the first
        # next(): an append in between is invisible too.
        unstarted = store.scan()
        store.append("upsert", "system", "later", {})
        assert [f.name for f in unstarted] == ["s0", "s1", "s2", "late"]


class TestSqliteDurability:
    def test_failed_extend_rolls_back_every_fact(self, tmp_path):
        """A write the database refuses halfway leaves no fact behind."""
        import sqlite3

        path = str(tmp_path / "facts.sqlite")
        store = SqliteFactStore(path)
        store.append("upsert", "system", "s0", {})
        store._conn.execute(
            "CREATE TRIGGER refuse BEFORE INSERT ON facts "
            "WHEN NEW.name = 'bad' "
            "BEGIN SELECT RAISE(ABORT, 'refused'); END"
        )
        with pytest.raises(sqlite3.IntegrityError, match="refused"):
            store.extend([("upsert", "system", "s1", {}),
                          ("upsert", "system", "bad", {})])
        assert store.latest_seq == 1
        assert store.append("upsert", "system", "s1", {}).seq == 2
        store.close()
        with SqliteFactStore(path) as reopened:
            assert [f.name for f in reopened.scan()] == ["s0", "s1"]

    def test_locked_write_raises_store_busy(self, tmp_path):
        """A write refused by another writer's lock is the typed,
        retryable StoreBusyError, and writes nothing."""
        import sqlite3

        path = str(tmp_path / "facts.sqlite")
        store = SqliteFactStore(path, timeout=0.05)
        store.append("upsert", "system", "s0", {})
        holder = sqlite3.connect(path, isolation_level=None)
        holder.execute("BEGIN IMMEDIATE")
        try:
            with pytest.raises(StoreBusyError, match="locked"):
                store.append("upsert", "system", "s1", {})
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        assert store.latest_seq == 1
        assert store.append("upsert", "system", "s1", {}).seq == 2
        store.close()

    @pytest.mark.parametrize("code, message, busy", [
        (5, "database is locked", True),           # SQLITE_BUSY
        (6, "database table is locked", True),     # SQLITE_LOCKED
        (5 | (1 << 8), "database is locked", True),  # SQLITE_BUSY_RECOVERY
        (1, "no such table: facts", False),        # SQLITE_ERROR
        (None, "database is locked", True),        # raised without a code
        (None, "no such table: facts", False),
        ("absent", "database is locked", True),    # no attribute at all
        ("absent", "disk I/O error", False),
    ])
    def test_busy_classification(self, code, message, busy):
        """The busy check reads the result code where the error carries
        one and its message otherwise, so it holds on interpreters whose
        sqlite3 errors have no ``sqlite_errorcode``."""
        import sqlite3

        from repro.kb.store.sqlite import _is_busy

        exc = sqlite3.OperationalError(message)
        if code != "absent":
            exc.sqlite_errorcode = code
        assert _is_busy(exc) is busy

    def test_reopen_mid_log_resumes_at_committed_seq(self, tmp_path):
        """Crash recovery: every append commits; reopen loses nothing."""
        path = str(tmp_path / "facts.sqlite")
        writer = SqliteFactStore(path)
        for i in range(4):
            writer.append("upsert", "system", f"s{i}", {"i": i})
        # Simulate a crash: drop the handle without any explicit
        # checkpoint/flush beyond what append itself does.
        writer.close()
        reopened = SqliteFactStore(path)
        assert reopened.latest_seq == 4
        fact = reopened.append("upsert", "system", "s4", {"i": 4})
        assert fact.seq == 5
        assert [f.name for f in reopened.scan()] == [
            "s0", "s1", "s2", "s3", "s4"
        ]
        reopened.close()

    def test_concurrent_reader_sees_a_snapshot(self, tmp_path):
        """A second connection scanning mid-write sees a stable prefix."""
        path = str(tmp_path / "facts.sqlite")
        writer = SqliteFactStore(path)
        for i in range(10):
            writer.append("upsert", "system", f"s{i}", None)
        reader = SqliteFactStore(path)
        bound = reader.latest_seq
        assert bound == 10
        scan = reader.scan()
        stop = threading.Event()

        def pound():
            i = 10
            while not stop.is_set():
                writer.append("upsert", "system", f"s{i}", None)
                i += 1

        thread = threading.Thread(target=pound)
        thread.start()
        try:
            names = [f.name for f in scan]
        finally:
            stop.set()
            thread.join()
        assert names == [f"s{i}" for i in range(bound)]
        assert writer.latest_seq > bound
        writer.close()
        reader.close()

    def test_kb_replay_from_disk(self, tmp_path):
        """End-to-end: snapshot to disk, mutate, reopen elsewhere."""
        path = str(tmp_path / "kb.sqlite")
        kb = _populated_kb()
        kb.attach_store(SqliteFactStore(path), snapshot=True)
        kb.upsert_hardware(Hardware(
            spec=NICSpec(model="NIC", rate_gbps=50, power_w=12, cost_usd=300),
            max_units=4,
        ))
        kb.detach_store().close()
        rebuilt = KnowledgeBase.from_store(SqliteFactStore(path))
        assert rebuilt.fingerprint() == kb.fingerprint()
        assert rebuilt.hardware["NIC"].spec.rate_gbps == 50


class TestFactModel:
    def test_fact_to_op_matches_wire_shape(self):
        fact_with = MemoryFactStore().append(
            "upsert", "system", "S", {"name": "S"}
        )
        assert fact_with.to_op() == {
            "op": "upsert", "entity": "system", "name": "S",
            "payload": {"name": "S"},
        }
        fact_without = MemoryFactStore().append("remove", "rule", "R")
        assert fact_without.to_op() == {
            "op": "remove", "entity": "rule", "name": "R",
        }

    def test_vocabulary_constants(self):
        assert set(FACT_OPS) == {
            "upsert", "remove", "add_ordering", "remove_ordering",
            "set_orderings",
        }
        assert set(FACT_KINDS) == {"system", "hardware", "rule", "ordering"}
