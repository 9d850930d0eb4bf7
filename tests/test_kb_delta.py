"""Delta invalidation: fingerprint freshness, session rebasing, parity.

Three layers of the invalidation architecture:

1. **Fingerprint freshness fuzz** — every mutation path (direct
   mutators, wire deltas, ``evolution.KnowledgeBaseDelta``) must leave
   ``kb.fingerprint()`` equal to what a from-scratch rebuild of the same
   content computes. The historical bug class is a mutation that edits
   the dicts without journaling, leaving a stale cached fingerprint.
2. **Session rebase levels** — a KB delta disjoint from a compiled
   session's entity scope is adopted for free; an in-scope rule delta is
   patched on the live solver; anything else falls back to a full
   rebase. Whatever level fires, answers must match a fresh compile.
3. **Differential parity** — randomized mutation+query interleavings:
   the delta-absorbing session + scope-keyed result cache must return
   byte-identical canonical result JSON to an always-recompile engine,
   over both the memory and sqlite fact-store backends.
"""

from __future__ import annotations

import copy
import random
from dataclasses import replace

import pytest

from repro.core.design import DesignRequest
from repro.core.executor import QueryExecutor
from repro.core.query import Query
from repro.core.session import ReasoningSession
from repro.kb.dsl import obj, prop
from repro.kb.evolution import KnowledgeBaseDelta
from repro.kb.hardware import Hardware, NICSpec, ServerSpec
from repro.kb.ordering import Ordering
from repro.kb.registry import KnowledgeBase
from repro.kb.rules import Rule
from repro.kb.store import SqliteFactStore
from repro.kb.system import System
from repro.kb.workload import Workload
from repro.logic.ast import TRUE, Not
from repro.serve.protocol import canonical_json, result_to_wire

pytestmark = pytest.mark.timeout(600)

SEED = 20260809


def _kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_system(System(name="StackA", category="network_stack",
                         solves=["packet_processing"], requires=TRUE))
    kb.add_system(System(name="StackB", category="network_stack",
                         solves=["packet_processing"],
                         requires=prop("nic", "INTERRUPT_POLLING")))
    kb.add_system(System(name="Probe", category="monitoring",
                         solves=["detect_queue_length"],
                         requires=prop("nic", "NIC_TIMESTAMPS")))
    kb.add_hardware(Hardware(
        spec=NICSpec(model="NIC", rate_gbps=25, power_w=10, cost_usd=200,
                     timestamps=True, interrupt_polling=True),
        max_units=4,
    ))
    kb.add_hardware(Hardware(
        spec=ServerSpec(model="Box", cores=32, mem_gb=128, power_w=400,
                        cost_usd=5000),
        max_units=4,
    ))
    kb.add_ordering(Ordering(dimension="speed", better="StackA",
                             worse="StackB", source="paper"))
    return kb


def _request(**kwargs) -> DesignRequest:
    defaults = dict(workloads=[
        Workload(name="app", objectives=["packet_processing"]),
    ])
    defaults.update(kwargs)
    return DesignRequest(**defaults)


def _fresh_fingerprint(kb: KnowledgeBase) -> str:
    """What the same content hashes to when rebuilt from scratch."""
    return KnowledgeBase.from_dict(kb.to_dict()).fingerprint()


# ---------------------------------------------------------------------------
# 1. Fingerprint freshness
# ---------------------------------------------------------------------------


class TestFingerprintFreshness:
    def test_mutation_sequence_fuzz(self):
        """Random mutator interleavings never leave a stale fingerprint."""
        rng = random.Random(SEED)
        kb = _kb()
        counter = 0

        def fresh_name(prefix: str) -> str:
            nonlocal counter
            counter += 1
            return f"{prefix}{counter}"

        def add_system():
            kb.add_system(System(
                name=fresh_name("Sys"), category="network_stack",
                solves=["packet_processing"], requires=TRUE,
            ))

        def upsert_system():
            name = rng.choice(sorted(kb.systems))
            kb.upsert_system(replace(
                kb.systems[name], description=fresh_name("d"),
            ))

        def remove_system():
            extras = [n for n in kb.systems if n.startswith("Sys")]
            if extras:
                kb.remove_system(rng.choice(sorted(extras)))

        def add_hardware():
            kb.add_hardware(Hardware(spec=NICSpec(
                model=fresh_name("NIC"), rate_gbps=10 * counter,
                power_w=5, cost_usd=100,
            ), max_units=2))

        def upsert_hardware():
            model = rng.choice(sorted(kb.hardware))
            hardware = kb.hardware[model]
            kb.upsert_hardware(replace(
                hardware,
                spec=replace(hardware.spec,
                             cost_usd=hardware.spec.cost_usd + 1),
            ))

        def add_rule():
            kb.add_rule(Rule(name=fresh_name("rule"), formula=TRUE))

        def remove_rule():
            if kb.rules:
                kb.remove_rule(rng.choice(sorted(kb.rules)))

        def add_ordering():
            names = sorted(kb.systems)
            if len(names) >= 2:
                better, worse = rng.sample(names, 2)
                kb.add_ordering(Ordering(
                    dimension=fresh_name("dim"), better=better, worse=worse,
                    source="fuzz",
                ))

        def set_orderings():
            kb.set_orderings("speed", [Ordering(
                dimension="speed", better="StackA", worse="StackB",
                source=fresh_name("src"),
            )])

        def wire_delta():
            kb.apply_entity_delta([{
                "op": "upsert", "entity": "rule",
                "name": fresh_name("rule"),
                "payload": Rule(name="x", formula=TRUE).to_dict()
                | {"name": fresh_name("rule")},
            }])

        mutations = [add_system, upsert_system, remove_system, add_hardware,
                     upsert_hardware, add_rule, remove_rule, add_ordering,
                     set_orderings, wire_delta]
        for step in range(60):
            rng.choice(mutations)()
            assert kb.fingerprint() == _fresh_fingerprint(kb), (
                f"stale fingerprint after step {step}"
            )

    def test_evolution_delta_keeps_fingerprint_fresh(self):
        """Regression: KnowledgeBaseDelta.apply must journal every edit."""
        kb = _kb()
        delta = KnowledgeBaseDelta(
            author="fuzz",
            add_systems=[System(name="New", category="network_stack",
                                solves=["packet_processing"], requires=TRUE)],
            replace_systems=[replace(kb.systems["StackA"],
                                     description="updated")],
            remove_systems=["StackB"],
            add_rules=[Rule(name="delta_rule", formula=TRUE)],
            add_hardware=[Hardware(spec=NICSpec(
                model="NIC2", rate_gbps=100, power_w=20, cost_usd=900,
            ), max_units=2)],
        )
        evolved, report = delta.apply(kb)
        assert report.removed_systems == ["StackB"]
        assert evolved.fingerprint() == _fresh_fingerprint(evolved)
        assert evolved.fingerprint() != kb.fingerprint()
        # The original is untouched.
        assert kb.fingerprint() == _fresh_fingerprint(kb)

    def test_merge_keeps_fingerprint_fresh(self):
        kb = _kb()
        other = KnowledgeBase()
        other.add_system(System(name="Extra", category="monitoring",
                                solves=["detect_queue_length"],
                                requires=TRUE))
        merged = kb.merge(other)
        assert merged.fingerprint() == _fresh_fingerprint(merged)

    def test_changed_entities_tracks_the_journal(self):
        kb = _kb()
        v0 = kb.version
        kb.add_rule(Rule(name="r", formula=TRUE))
        kb.upsert_hardware(kb.hardware["NIC"])
        # Upserting an existing model touches the entity but not the
        # catalog membership key; the new rule touches both.
        assert kb.changed_entities(v0) == frozenset({
            ("rule", "r"), ("rules@", ""), ("hardware", "NIC"),
        })
        assert kb.changed_entities(kb.version) == frozenset()

    def test_deepcopy_preserves_journal_continuity(self):
        kb = _kb()
        v0 = kb.version
        evolved = copy.deepcopy(kb)
        evolved.add_rule(Rule(name="r", formula=TRUE))
        changed = evolved.changed_entities(v0)
        assert changed is not None and ("rule", "r") in changed
        assert evolved.store is None  # stores never ride along a copy


# ---------------------------------------------------------------------------
# 2. Session rebase levels
# ---------------------------------------------------------------------------


class TestSessionRebaseLevels:
    def test_disjoint_delta_is_adopted_for_free(self):
        kb = _kb()
        request = _request(candidate_systems=["StackA"],
                           inventory={"NIC": 2, "Box": 2})
        session = ReasoningSession(kb)
        session.view(request)
        # New hardware the pinned request can never touch.
        kb.add_hardware(Hardware(spec=NICSpec(
            model="Elsewhere", rate_gbps=400, power_w=30, cost_usd=2000,
        ), max_units=2))
        session.view(request)
        assert session.stats.compiles == 1
        assert session.stats.rebases_avoided == 1

    def test_new_restrictive_rule_changes_the_answer(self):
        """A rule added after compile must be enforced, whatever the
        absorb level — the scope only knew the rules that existed at
        compile time."""
        kb = _kb()
        request = _request()
        session = ReasoningSession(kb)
        assert session.check(request).feasible
        kb.add_rule(Rule(name="outlaw",
                         formula=Not(obj("packet_processing"))))
        assert not session.check(request).feasible
        kb.remove_rule("outlaw")
        assert session.check(request).feasible
        # Removal of a compiled-in rule is patchable in place.
        assert session.stats.rebases_patched >= 1

    def test_rule_patch_reuses_the_compiled_base(self):
        kb = _kb()
        request = _request()
        session = ReasoningSession(kb)
        session.view(request)
        kb.add_rule(Rule(name="benign", formula=TRUE))
        session.view(request)
        assert session.stats.compiles == 1
        assert session.stats.rebases == 0
        assert session.stats.rebases_patched == 1

    def test_system_change_forces_full_rebase(self):
        kb = _kb()
        request = _request()
        session = ReasoningSession(kb)
        session.view(request)
        kb.add_system(System(name="Late", category="network_stack",
                             solves=["packet_processing"], requires=TRUE))
        session.view(request)
        assert session.stats.rebases == 1


# ---------------------------------------------------------------------------
# 3. Differential parity: delta absorption vs always-recompile
# ---------------------------------------------------------------------------


def _mutation_script(rng: random.Random):
    """A deterministic list of KB mutations as (label, fn(kb)) pairs."""
    steps = []
    for i in range(6):
        kind = rng.choice(["rule_add", "rule_remove", "hardware", "ordering",
                           "system"])
        if kind == "rule_add":
            name = f"fuzz_rule_{i}"
            steps.append((f"+rule {name}", lambda kb, n=name: kb.add_rule(
                Rule(name=n, formula=TRUE))))
        elif kind == "rule_remove":
            name = f"fuzz_rule_{i}"
            def _toggle(kb, n=name):
                if n in kb.rules:
                    kb.remove_rule(n)
                else:
                    kb.add_rule(Rule(name=n, formula=TRUE))
            steps.append((f"~rule {name}", _toggle))
        elif kind == "hardware":
            model = f"HW{i}"
            steps.append((f"+hw {model}", lambda kb, m=model: kb.add_hardware(
                Hardware(spec=NICSpec(model=m, rate_gbps=10 + i,
                                      power_w=5, cost_usd=100 + i),
                         max_units=2))))
        elif kind == "ordering":
            steps.append(("~ordering speed", lambda kb: kb.set_orderings(
                "speed", [Ordering(dimension="speed", better="StackB",
                                   worse="StackA", source=f"s{i}")])))
        else:
            name = f"Sys{i}"
            steps.append((f"+system {name}", lambda kb, n=name: kb.add_system(
                System(name=n, category="monitoring",
                       solves=["detect_queue_length"], requires=TRUE))))
    return steps


def _query_mix(rng: random.Random) -> list[Query]:
    requests = [
        _request(),
        _request(required_systems=["StackA"]),
        _request(forbidden_systems=["StackB"]),
        _request(budgets={"capex_usd": 100}),
        _request(workloads=[
            Workload(name="app", objectives=["packet_processing"]),
            Workload(name="probe", objectives=["detect_queue_length"]),
        ]),
    ]
    queries = []
    for request in requests:
        queries.append(Query("check", request))
        queries.append(Query("diagnose", request))
    queries.append(Query("enumerate", _request(), limit=4))
    queries.append(Query("equivalence", _request(), class_limit=2,
                         completions_limit=4))
    rng.shuffle(queries)
    return queries


def _canonical(verb: str, result) -> bytes:
    return canonical_json(result_to_wire(verb, result))


def _semantic_key(verb: str, result):
    """The trajectory-independent content of a verb's answer.

    A delta-absorbing session arrives at each query *warm* (learned
    clauses, phases), so among equally-valid answers it may pick a
    different model than a cold recompile — the documented session
    contract. What must agree regardless: feasibility verdicts, whether
    a conflict exists, the *set* of enumerable deployments, and the
    equivalence-class partition.
    """
    wire = result_to_wire(verb, result)
    if verb in ("check", "synthesize"):
        return ("feasible", wire["feasible"])
    if verb == "diagnose":
        return ("conflict", wire is not None)
    if verb == "enumerate":
        return ("deployments", tuple(sorted(
            tuple(sorted(systems)) for systems in wire
        )))
    if verb == "equivalence":
        return ("classes", tuple(sorted(
            tuple(sorted(cls["systems"])) for cls in wire
        )))
    return ("raw", canonical_json(wire))


def _build_plan():
    rng = random.Random(SEED)
    script = _mutation_script(rng)
    queries = _query_mix(rng)
    plan: list[tuple] = [("query", q) for q in queries]
    for step in script:
        plan.insert(rng.randrange(len(plan) + 1), ("mutate", step))
    return plan


def _run_plan(kb: KnowledgeBase, *, delta_mode: bool) -> list[bytes]:
    """Execute the interleaving; returns canonical result bytes per query.

    *delta_mode* keeps one incremental executor alive across mutations
    (sessions absorb deltas, cache keys hash the scoped fingerprint). The
    always-recompile reference discards the executor after every
    mutation — the pre-delta invalidation behavior.
    """
    executor = QueryExecutor(kb, incremental=True)
    out = []
    for action, payload in _build_plan():
        if action == "mutate":
            payload[1](kb)
            if not delta_mode:
                executor = QueryExecutor(kb, incremental=True)
            continue
        out.append(_canonical(payload.verb, executor.execute(payload)))
    return out


class TestDeltaParity:
    def test_backends_are_byte_invisible(self, tmp_path):
        """The same interleaving is byte-identical on memory vs sqlite.

        The fact-store backend sits below the registry; nothing about
        solver trajectories, fingerprints, or absorb decisions may
        depend on it.
        """
        memory_kb = _kb()
        sqlite_kb = _kb()
        sqlite_kb.attach_store(
            SqliteFactStore(str(tmp_path / "kb.sqlite")), snapshot=True
        )
        memory_results = _run_plan(memory_kb, delta_mode=True)
        sqlite_results = _run_plan(sqlite_kb, delta_mode=True)
        assert memory_results == sqlite_results
        # And the whole interleaving replays from the fact log.
        store = sqlite_kb.detach_store()
        assert KnowledgeBase.from_store(store).fingerprint() == (
            sqlite_kb.fingerprint()
        )
        assert sqlite_kb.fingerprint() == memory_kb.fingerprint()

    def test_delta_mode_semantically_matches_always_recompile(self):
        """Interleaved mutations+queries: absorb == recompile answers."""
        delta_kb = _kb()
        reference_kb = _kb()
        delta_executor = QueryExecutor(delta_kb, incremental=True)
        reference_executor = QueryExecutor(reference_kb, incremental=True)
        mismatches = []
        for index, (action, payload) in enumerate(_build_plan()):
            if action == "mutate":
                payload[1](delta_kb)
                payload[1](reference_kb)
                # Reference: the old invalidation story — any mutation
                # throws away all warm state.
                reference_executor = QueryExecutor(
                    reference_kb, incremental=True
                )
                continue
            got = _semantic_key(payload.verb, delta_executor.execute(payload))
            want = _semantic_key(
                payload.verb, reference_executor.execute(payload)
            )
            if got != want:
                mismatches.append((index, payload.verb, got, want))
        assert mismatches == []
        # The delta side must actually have absorbed rather than
        # recompiled its way through the script.
        stats = delta_executor.session().stats
        assert stats.rebases_avoided + stats.rebases_patched > 0


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
class TestCacheFootprints:
    def test_cache_survives_disjoint_deltas_and_never_lies(
        self, backend, tmp_path
    ):
        kb = _kb()
        if backend == "sqlite":
            kb.attach_store(
                SqliteFactStore(str(tmp_path / "kb.sqlite")), snapshot=True
            )
        from repro.par.cache import QueryCache

        executor = QueryExecutor(kb, incremental=True, cache=QueryCache(32))
        pinned = Query("check", _request(
            candidate_systems=["StackA"], inventory={"NIC": 2, "Box": 2},
        ))
        first = executor.execute(pinned)
        hits_before = executor.cache.stats()["hits"]
        # Disjoint delta: new hardware out of the pinned footprint.
        kb.add_hardware(Hardware(spec=NICSpec(
            model="Offside", rate_gbps=400, power_w=30, cost_usd=2000,
        ), max_units=2))
        second = executor.execute(pinned)
        assert executor.cache.stats()["hits"] == hits_before + 1
        assert _canonical("check", first) == _canonical("check", second)
        # Overlapping delta: the pinned NIC itself changes — the cached
        # entry must not survive.
        nic = kb.hardware["NIC"]
        kb.upsert_hardware(replace(
            nic, spec=replace(nic.spec, interrupt_polling=False),
        ))
        third = executor.execute(pinned)
        assert executor.cache.stats()["hits"] == hits_before + 1
        reference = QueryExecutor(
            KnowledgeBase.from_dict(kb.to_dict()),
            incremental=True,
        ).execute(pinned)
        assert _canonical("check", third) == _canonical("check", reference)
