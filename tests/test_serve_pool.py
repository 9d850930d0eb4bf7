"""SessionPool accounting under KB churn and shape churn.

Regression suite for two pool policies:

1. Checkin evicts the *oldest* idle session when the pool is full
   (counted in ``evictions``), never the incoming one — the historical
   bug let unreachable sessions squat and pin the hit rate to zero.
2. The key is ``(kb_name, shape_key(request))``: a KB delta leaves every
   idle session addressable, checkout rebinds the one it hands out to
   the current KB, and the session absorbs the delta on its next view
   (adopt / guard-group patch / full rebase), so KB churn never
   cold-starts the pool. ``rekeyed`` counts hits that hand out a
   session last used at an older KB version.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.design import DesignRequest
from repro.core.query import Query
from repro.core.session import shape_key
from repro.kb.hardware import Hardware, NICSpec, ServerSpec
from repro.kb.registry import KnowledgeBase
from repro.kb.rules import Rule
from repro.kb.system import System
from repro.kb.workload import Workload
from repro.logic.ast import TRUE
from repro.serve.pool import SessionPool

pytestmark = pytest.mark.timeout(120)


def _kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_system(System(
        name="Stack", category="network_stack",
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


def _query(shape: str = "app") -> Query:
    return Query("check", DesignRequest(workloads=[
        Workload(name=shape, objectives=["packet_processing"]),
    ]))


def _roundtrip(pool: SessionPool, kb: KnowledgeBase, query: Query,
               kb_name: str = "default"):
    pooled = pool.checkout(kb_name, kb, query)
    result = pooled.execute(query)
    pool.checkin(pooled)
    return result


class TestFingerprintChurn:
    def test_stale_sessions_never_outlive_the_lru_bound(self):
        """Mutating the KB between requests cannot wedge the pool."""
        kb = _kb()
        pool = SessionPool(max_sessions=2)
        query = _query()
        for i in range(6):
            # Every mutation changes the KB the session compiled; the
            # session absorbs it under the same key.
            kb.add_rule(Rule(name=f"churn_{i}", formula=TRUE))
            assert _roundtrip(pool, kb, query).feasible
        stats = pool.stats_dict()
        assert stats["idle"] <= 2
        assert stats["size"] <= 2
        # The key holds no KB state: the one warm session sits under
        # its shape key, whatever the KB version.
        with pool._lock:
            assert list(pool._idle) == [
                ("default", shape_key(query.request))
            ]

    def test_churn_rekeys_instead_of_purging(self):
        """A KB delta keeps warm sessions: rebind + in-place absorb."""
        kb = _kb()
        pool = SessionPool(max_sessions=2)
        query = _query()
        rounds = 5
        _roundtrip(pool, kb, query)
        for i in range(rounds):
            kb.add_rule(Rule(name=f"churn_{i}", formula=TRUE))
            assert _roundtrip(pool, kb, query).feasible
        # No delta since the last use: a plain hit.
        assert _roundtrip(pool, kb, query).feasible
        stats = pool.stats_dict()
        # One compile total: every later round hands out the warm
        # session and the session patches the new rule in place.
        assert stats["misses"] == 1
        assert stats["hits"] == rounds + 1
        assert stats["rekeyed"] == rounds
        assert stats["evictions"] == 0
        assert stats["discarded_overflow"] == 0

    def test_rekeyed_counts_deltas_outside_the_scope(self):
        """A delta the session's scope never sees still counts: the hit
        handed out a session last used at an older KB version, which
        adopts the new version without solver work."""
        kb = _kb()
        pool = SessionPool(max_sessions=2)
        query = Query("check", DesignRequest(
            workloads=[Workload(name="app",
                                objectives=["packet_processing"])],
            candidate_systems=["Stack"],
            inventory={"NIC": 2, "Box": 2},
        ))
        _roundtrip(pool, kb, query)
        kb.add_hardware(Hardware(
            spec=NICSpec(model="Offside", rate_gbps=100, power_w=20,
                         cost_usd=900),
            max_units=4,
        ))
        pooled = pool.checkout("default", kb, query)
        assert pooled.execute(query).feasible
        pool.checkin(pooled)
        stats = pool.stats_dict()
        assert (stats["hits"], stats["rekeyed"]) == (1, 1)
        session = pooled.session.stats
        assert (session.compiles, session.rebases,
                session.rebases_avoided) == (1, 0, 1)

    def test_rekeyed_session_absorbs_instead_of_recompiling(self):
        kb = _kb()
        pool = SessionPool(max_sessions=2)
        query = _query()
        pooled = pool.checkout("default", kb, query)
        pooled.execute(query)
        pool.checkin(pooled)
        kb.add_rule(Rule(name="churn", formula=TRUE))
        pooled = pool.checkout("default", kb, query)
        assert pooled.execute(query).feasible
        stats = pooled.session.stats
        assert stats.compiles == 1
        assert stats.rebases == 0
        assert stats.rebases_patched == 1
        pool.checkin(pooled)

    def test_pool_recovers_hits_after_churn_stops(self):
        """The regression: stale squatters used to pin the hit rate at 0."""
        kb = _kb()
        pool = SessionPool(max_sessions=2)
        query = _query()
        for i in range(3):
            _roundtrip(pool, kb, query)
            kb.add_rule(Rule(name=f"churn_{i}", formula=TRUE))
        # Churn stops; the very next repeat request must be a hit.
        _roundtrip(pool, kb, query)
        assert _roundtrip(pool, kb, query).feasible
        stats = pool.stats_dict()
        assert stats["hits"] >= 1

    def test_churn_on_one_kb_leaves_other_kbs_sessions_alone(self):
        kb_a, kb_b = _kb(), _kb()
        kb_b.add_rule(Rule(name="distinct", formula=TRUE))
        pool = SessionPool(max_sessions=4)
        query = _query()
        _roundtrip(pool, kb_a, query, kb_name="a")
        _roundtrip(pool, kb_b, query, kb_name="b")
        kb_a.add_rule(Rule(name="churn", formula=TRUE))
        _roundtrip(pool, kb_a, query, kb_name="a")
        stats = pool.stats_dict()
        assert stats["rekeyed"] == 1  # only kb_a's session saw a delta
        # Both KBs' warm sessions hit.
        assert pool.stats_dict()["hits"] == 1
        _roundtrip(pool, kb_b, query, kb_name="b")
        assert pool.stats_dict()["hits"] == 2
        assert pool.stats_dict()["rekeyed"] == 1


class TestCheckinEviction:
    def test_full_pool_evicts_oldest_not_incoming(self):
        kb = _kb()
        pool = SessionPool(max_sessions=1)
        old_query, new_query = _query("old"), _query("new")
        _roundtrip(pool, kb, old_query)
        _roundtrip(pool, kb, new_query)
        stats = pool.stats_dict()
        # The newest session is retained; the oldest was evicted.
        assert stats["evictions"] == 1
        assert stats["discarded_overflow"] == 0
        _roundtrip(pool, kb, new_query)
        assert pool.stats_dict()["hits"] == 1

    def test_zero_capacity_pool_discards_incoming(self):
        kb = _kb()
        pool = SessionPool(max_sessions=0)
        _roundtrip(pool, kb, _query())
        stats = pool.stats_dict()
        assert stats["idle"] == 0
        assert stats["discarded_overflow"] == 1
        assert stats["evictions"] == 0

    def test_evicted_session_is_freed_without_cyclic_gc(self):
        """Eviction drops the last reference to a session and its solver:
        nothing in them forms a cycle that only the cyclic GC could free."""
        kb = _kb()
        pool = SessionPool(max_sessions=1)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            pooled = pool.checkout("default", kb, _query("old"))
            pooled.execute(_query("old"))
            session = weakref.ref(pooled.session)
            solver = weakref.ref(pooled.session._compiled.solver)
            pool.checkin(pooled)
            del pooled
            _roundtrip(pool, kb, _query("new"))
            assert pool.stats_dict()["evictions"] == 1
            assert session() is None
            assert solver() is None
        finally:
            if was_enabled:
                gc.enable()
