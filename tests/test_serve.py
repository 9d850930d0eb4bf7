"""Differential parity: the daemon vs direct QueryExecutor execution.

The wire contract (`repro.serve.protocol`) promises that a verb executed
through the daemon returns *byte-identical* result JSON to direct
:class:`~repro.core.executor.QueryExecutor` execution. This suite pins
that over a fuzzed batch of 100+ queries across two knowledge bases
(the full default KB and the tiny conftest-style KB), exercising every
verb, plus unit tests for the protocol layer itself.

The direct side mirrors the daemon's pool discipline exactly: one
incremental executor per ``(kb_name, shape_key(request))``, the same
keying the :class:`~repro.serve.pool.SessionPool` uses, driven in the
same global order. Both sides then walk identical solver trajectories,
so even model *choice* (among equally valid models) must agree.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from repro.core.design import DesignRequest
from repro.core.executor import QueryExecutor
from repro.core.query import VERBS, Query
from repro.core.session import shape_key
from repro.kb.workload import Workload
from repro.knowledge import default_knowledge_base
from repro.knowledge.casestudy import more_workloads_request
from repro.serve import (
    DaemonConfig,
    InprocDaemon,
    ReasoningDaemon,
    WireError,
    canonical_json,
    decode_envelope,
    result_to_wire,
)
from repro.serve.client import make_envelope
from repro.serve.protocol import envelope_to_query, ok_payload, result_items

SEED = 20260809

#: Per-KB verb mix for the fuzzed batch (sums to 60; two KBs -> 120).
_VERB_COUNTS = {
    "check": 30,
    "diagnose": 12,
    "enumerate": 6,
    "equivalence": 5,
    "explain": 4,
    "synthesize": 3,
}

_DEFAULT_SYSTEMS = ["Sonata", "DCTCP", "Swift", "QUIC", "HPCC"]
_TINY_SYSTEMS = ["StackA", "StackB", "Monitor"]


def _tiny_request(**kwargs) -> DesignRequest:
    defaults = dict(
        workloads=[Workload(name="app", objectives=["packet_processing"])],
    )
    defaults.update(kwargs)
    return DesignRequest(**defaults)


def _default_kb_requests(rng: random.Random) -> list[DesignRequest]:
    """Structural what-ifs over the §5.1 multi-workload request."""
    base = more_workloads_request()
    variants = [base]
    for name in _DEFAULT_SYSTEMS:
        variants.append(replace(base, required_systems=[name]))
        variants.append(replace(base, forbidden_systems=[name]))
    variants += [
        replace(base, required_systems=["QUIC"], forbidden_systems=["DCTCP"]),
        replace(base, fixed_hardware={"SRV-G2-64C-256G": 32}),
        replace(base, budgets={"capex_usd": 2_000_000}),
        replace(base, budgets={"power_w": 200_000}),
        replace(base, budgets={"capex_usd": 100}),  # infeasible probe
        replace(base, context={**base.context, "network_load_ge_40g": False}),
    ]
    rng.shuffle(variants)
    return variants


def _tiny_kb_requests(rng: random.Random) -> list[DesignRequest]:
    variants = [
        _tiny_request(),
        _tiny_request(required_systems=["StackB"]),
        _tiny_request(forbidden_systems=["StackA"]),
        _tiny_request(fixed_hardware={"FancyNIC": 2}),
        _tiny_request(budgets={"capex_usd": 100}),  # infeasible: too tight
        _tiny_request(budgets={"capex_usd": 500_000}),
        _tiny_request(workloads=[
            Workload(name="app", objectives=["teleportation"]),
        ]),
        _tiny_request(workloads=[
            Workload(name="app", objectives=["packet_processing"]),
            Workload(name="probe", objectives=["detect_queue_length"]),
        ]),
        _tiny_request(required_systems=["StackB"],
                      budgets={"power_w": 100_000}),
    ]
    rng.shuffle(variants)
    return variants


def _fuzz_options(rng: random.Random, kb_name: str, verb: str) -> dict:
    if verb == "enumerate":
        return {"limit": rng.choice([1, 2, 3, 4])}
    if verb == "equivalence":
        if kb_name == "default":
            # Unbounded class enumeration over the full KB is far too
            # expensive for a 120-query parity sweep; always bound it.
            return {"class_limit": rng.choice([1, 2, 3]),
                    "completions_limit": rng.choice([2, 4, 8])}
        options = {}
        if rng.random() < 0.7:
            options["class_limit"] = rng.choice([1, 2, 3])
        if rng.random() < 0.7:
            options["completions_limit"] = rng.choice([2, 4, 8])
        return options
    return {}


def _fuzz_batch(rng: random.Random, kb_name: str,
                requests: list[DesignRequest],
                synthesize_requests: list[DesignRequest] | None = None,
                ) -> list[tuple]:
    """(kb_name, verb, request, options) tuples per the verb mix.

    *synthesize_requests* restricts what ``synthesize`` draws from —
    the full-KB cost bisection takes ~30s per feasible request, so the
    default-KB batch synthesizes only the (fast) infeasible probe.
    """
    batch = []
    for verb, count in _VERB_COUNTS.items():
        pool = requests
        if verb == "synthesize" and synthesize_requests is not None:
            pool = synthesize_requests
        for _ in range(count):
            request = rng.choice(pool)
            batch.append(
                (kb_name, verb, request, _fuzz_options(rng, kb_name, verb))
            )
    return batch


class _DirectMirror:
    """Direct executors managed exactly like the daemon's session pool."""

    def __init__(self, kbs: dict):
        self.kbs = kbs
        self._executors: dict[tuple, QueryExecutor] = {}

    def execute(self, kb_name: str, verb: str, request, options: dict):
        key = (kb_name, shape_key(request))
        executor = self._executors.get(key)
        if executor is None:
            executor = QueryExecutor(self.kbs[kb_name], incremental=True)
            self._executors[key] = executor
        if verb == "explain":
            outcome = executor.execute(Query("check", request))
            return executor.execute(Query("explain", request), outcome)
        return executor.execute(Query(verb, request, **options))


@pytest.fixture(scope="module")
def kbs():
    # The tiny KB is built inline (the conftest fixture is
    # function-scoped; parity wants one shared instance per module).
    return {"default": default_knowledge_base(), "tiny": _build_tiny_kb()}


def _build_tiny_kb():
    from repro.kb.dsl import prop
    from repro.kb.hardware import Hardware, NICSpec, ServerSpec, SwitchSpec
    from repro.kb.registry import KnowledgeBase
    from repro.kb.system import System
    from repro.logic.ast import TRUE

    kb = KnowledgeBase()
    kb.add_system(System(name="StackA", category="network_stack",
                         solves=["packet_processing"], requires=TRUE))
    kb.add_system(System(name="StackB", category="network_stack",
                         solves=["packet_processing"],
                         requires=prop("nic", "INTERRUPT_POLLING")))
    kb.add_system(System(name="Monitor", category="monitoring",
                         solves=["detect_queue_length"],
                         requires=prop("nic", "NIC_TIMESTAMPS")))
    kb.add_hardware(Hardware(
        spec=NICSpec(model="PlainNIC", rate_gbps=25, power_w=10,
                     cost_usd=200, interrupt_polling=False),
        max_units=8,
    ))
    kb.add_hardware(Hardware(
        spec=NICSpec(model="FancyNIC", rate_gbps=100, power_w=20,
                     cost_usd=900, timestamps=True, interrupt_polling=True),
        max_units=8,
    ))
    kb.add_hardware(Hardware(
        spec=ServerSpec(model="Box", cores=32, mem_gb=128, power_w=400,
                        cost_usd=5000),
        max_units=8,
    ))
    kb.add_hardware(Hardware(
        spec=SwitchSpec(model="Tor", port_gbps=100, ports=32, memory_mb=16,
                        power_w=500, cost_usd=20000),
        max_units=4,
    ))
    return kb


@pytest.mark.timeout(600)
class TestDifferentialParity:
    def test_daemon_matches_direct_executor_byte_for_byte(self, kbs):
        rng = random.Random(SEED)
        base = more_workloads_request()
        infeasible_probe = replace(base, budgets={"capex_usd": 100})
        batch = (
            _fuzz_batch(rng, "default", _default_kb_requests(rng),
                        synthesize_requests=[infeasible_probe])
            + _fuzz_batch(rng, "tiny", _tiny_kb_requests(rng))
        )
        rng.shuffle(batch)
        assert len(batch) >= 100
        assert {verb for _, verb, _, _ in batch} == set(VERBS)

        mirror = _DirectMirror(kbs)
        config = DaemonConfig(
            port=None, pool_size=64, max_inflight=1,
        )
        daemon = ReasoningDaemon(kbs, config)
        mismatches = []
        with InprocDaemon(daemon) as harness:
            for i, (kb_name, verb, request, options) in enumerate(batch):
                envelope = make_envelope(
                    verb, request, kb=kb_name, request_id=i, options=options
                )
                daemon_bytes = harness.query_bytes(envelope)
                payload = json.loads(daemon_bytes)
                assert payload["ok"], (i, verb, payload)
                result = mirror.execute(kb_name, verb, request, options)
                expected = canonical_json(
                    ok_payload(i, verb, result_to_wire(verb, result))
                )
                if daemon_bytes != expected:
                    mismatches.append((i, kb_name, verb))
            pool_stats = daemon.stats_payload()["pool"]
        assert mismatches == []
        # The pool must have been doing its job (reuse, no eviction) or
        # the trajectory-parity argument above would be vacuous.
        assert pool_stats["evictions"] == 0
        assert pool_stats["hits"] > pool_stats["misses"]

    def test_streaming_frames_carry_the_same_items(self, kbs):
        """stream=true reframes the identical result, item by item."""
        request = more_workloads_request()
        mirror = _DirectMirror(kbs)
        daemon = ReasoningDaemon(
            kbs, DaemonConfig(port=None, pool_size=8)
        )
        with InprocDaemon(daemon) as harness:
            for verb, options in [
                ("enumerate", {"limit": 3}),
                ("equivalence", {"class_limit": 2, "completions_limit": 4}),
                ("diagnose", {}),
            ]:
                frames = harness.query(make_envelope(
                    verb, request, request_id=verb, options=options,
                    stream=True,
                ))
                header, items, footer = frames[0], frames[1:-1], frames[-1]
                assert header == {"id": verb, "ok": True, "verb": verb,
                                  "stream": True}
                assert footer == {"done": True, "count": len(items)}
                assert [frame["seq"] for frame in items] == list(
                    range(len(items))
                )
                result = mirror.execute("default", verb, request, options)
                assert [frame["item"] for frame in items] == result_items(
                    verb, result
                )


class TestProtocolUnits:
    def test_canonical_json_is_deterministic(self):
        a = canonical_json({"b": 1, "a": [2, {"z": 0, "y": None}]})
        b = canonical_json({"a": [2, {"y": None, "z": 0}], "b": 1})
        assert a == b
        assert b" " not in a

    def test_decode_envelope_rejects_oversize_and_junk(self):
        with pytest.raises(WireError) as exc:
            decode_envelope(b"x" * 101, max_bytes=100)
        assert exc.value.code == "oversized"
        with pytest.raises(WireError) as exc:
            decode_envelope(b"{not json")
        assert exc.value.code == "bad_request"
        with pytest.raises(WireError) as exc:
            decode_envelope(b"[1,2,3]")
        assert exc.value.code == "bad_request"

    def test_envelope_validation(self):
        request = _tiny_request().to_dict()
        good = {"verb": "check", "kb": "tiny", "request": request}
        kb_name, query, stream = envelope_to_query(good)
        assert (kb_name, query.verb, stream) == ("tiny", "check", False)

        bad_shapes = [
            ({"verb": "conjure", "request": request}, "unknown or missing"),
            ({"verb": "check"}, "'request'"),
            ({"verb": "check", "request": request, "kb": 7}, "'kb'"),
            ({"verb": "check", "request": request, "options": [1]},
             "'options'"),
            ({"verb": "check", "request": request,
              "options": {"frobnicate": 1}}, "unknown options"),
            ({"verb": "enumerate", "request": request,
              "options": {"limit": True}}, "must be an int"),
            ({"verb": "check", "request": request, "stream": True},
             "does not support streaming"),
            ({"verb": "check", "request": {"workloads": "nope"}},
             "DesignRequest"),
        ]
        for envelope, needle in bad_shapes:
            with pytest.raises(WireError) as exc:
                envelope_to_query(envelope)
            assert exc.value.code == "bad_request"
            assert needle in exc.value.message

    def test_wire_error_requires_known_code(self):
        with pytest.raises(ValueError):
            WireError("made_up_code", "nope")

    def test_unknown_kb_is_not_found(self):
        daemon = ReasoningDaemon(
            _build_tiny_kb(), DaemonConfig(port=None, pool_size=2)
        )
        with InprocDaemon(daemon) as harness:
            payload = harness.query(
                make_envelope("check", _tiny_request(), kb="nope")
            )
        assert payload["ok"] is False
        assert payload["error"]["code"] == "not_found"
        assert "default" in payload["error"]["message"]
