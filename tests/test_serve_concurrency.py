"""Daemon behaviour under concurrency: isolation, bounds, shedding.

32+ concurrent clients interleave queries against two small KBs that
answer the *same* request differently, so any cross-session state bleed
(a warm session serving the wrong KB or shape) flips a feasibility
verdict and fails loudly. Alongside isolation, these tests pin the
operational envelope: the pool stays bounded, rate-limited and shed
requests get structured errors (never hangs), and the admission gauges
return to zero when the storm passes.

Every test carries a ``timeout`` marker (pytest-timeout in CI, the
conftest SIGALRM fallback locally) so a daemon deadlock fails fast.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.design import DesignRequest
from repro.kb.dsl import prop
from repro.kb.hardware import Hardware, NICSpec, ServerSpec
from repro.kb.registry import KnowledgeBase
from repro.kb.system import System
from repro.kb.workload import Workload
from repro.knowledge import default_knowledge_base
from repro.logic.ast import TRUE
from repro.serve import DaemonConfig, InprocDaemon, ReasoningDaemon
from repro.serve.client import make_envelope

CLIENTS = 32
QUERIES_PER_CLIENT = 6


def _kb(feasible: bool) -> KnowledgeBase:
    """A tiny KB where the standard request is (in)feasible by design.

    Both KBs expose a ``packet_processing`` stack; only the feasible one
    owns a NIC satisfying the stack's requirement. The same request thus
    checks feasible on one KB and infeasible on the other — a bled
    session is immediately visible as a flipped verdict.
    """
    kb = KnowledgeBase()
    kb.add_system(System(
        name="Stack",
        category="network_stack",
        solves=["packet_processing"],
        requires=TRUE if feasible else prop("nic", "INTERRUPT_POLLING"),
    ))
    kb.add_hardware(Hardware(
        spec=NICSpec(model="NIC", rate_gbps=25, power_w=10, cost_usd=200,
                     interrupt_polling=False),
        max_units=4,
    ))
    kb.add_hardware(Hardware(
        spec=ServerSpec(model="Box", cores=32, mem_gb=128, power_w=400,
                        cost_usd=5000),
        max_units=4,
    ))
    return kb


def _request(workload: str) -> DesignRequest:
    # Distinct workload names produce distinct shape keys, so clients
    # interleaving them force the pool to juggle several session shapes
    # per KB rather than one hot key.
    return DesignRequest(workloads=[
        Workload(name=workload, objectives=["packet_processing"]),
    ])


@pytest.mark.timeout(120)
class TestConcurrentIsolation:
    def test_32_clients_interleaved_kbs_no_state_bleed(self):
        kbs = {"feasible": _kb(True), "infeasible": _kb(False)}
        config = DaemonConfig(
            port=None, pool_size=4, max_inflight=8,
            queue_limit=CLIENTS * QUERIES_PER_CLIENT,
        )
        daemon = ReasoningDaemon(kbs, config)
        failures: list[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(CLIENTS)

        def client(n: int) -> None:
            barrier.wait()
            for i in range(QUERIES_PER_CLIENT):
                kb_name = ("feasible", "infeasible")[(n + i) % 2]
                workload = f"wl{(n + i) % 3}"
                request_id = f"c{n}:{i}"
                payload = harness.query(
                    make_envelope("check", _request(workload), kb=kb_name,
                                  request_id=request_id, client=f"c{n}"),
                    client=f"c{n}",
                )
                expected = kb_name == "feasible"
                if (
                    not payload.get("ok")
                    or payload.get("id") != request_id
                    or payload["result"]["feasible"] is not expected
                ):
                    with lock:
                        failures.append(f"{request_id}: {payload}")

        with InprocDaemon(daemon) as harness:
            threads = [
                threading.Thread(target=client, args=(n,), daemon=True)
                for n in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=90)
                assert not thread.is_alive(), "client thread hung"
            stats = daemon.stats_payload()["pool"]
            inflight = daemon.admission.inflight

        assert failures == []
        # Live sessions never exceed the documented bound.
        assert stats["size"] <= config.pool_size + config.max_inflight
        assert stats["idle"] <= config.pool_size
        assert stats["hits"] > 0
        assert inflight == 0

    def test_pool_stays_bounded_under_shape_churn(self):
        """Many distinct shapes cannot grow the pool past its cap."""
        daemon = ReasoningDaemon(
            {"feasible": _kb(True)},
            DaemonConfig(port=None, pool_size=2, max_inflight=2,
                         queue_limit=64),
        )
        with InprocDaemon(daemon) as harness:
            for i in range(12):
                payload = harness.query(make_envelope(
                    "check", _request(f"shape{i}"), kb="feasible",
                ))
                assert payload["ok"], payload
            stats = daemon.stats_payload()["pool"]
        assert stats["idle"] <= 2
        assert stats["size"] <= 4
        assert stats["evictions"] + stats["discarded_overflow"] > 0


@pytest.mark.timeout(120)
class TestOverloadBehaviour:
    def test_rate_limited_clients_get_structured_errors(self):
        daemon = ReasoningDaemon(
            {"feasible": _kb(True)},
            DaemonConfig(port=None, pool_size=2, rate=1.0,
                         burst=2),
        )
        with InprocDaemon(daemon) as harness:
            codes = []
            for i in range(6):
                payload = harness.query(make_envelope(
                    "check", _request("wl"), kb="feasible",
                    request_id=i, client="greedy",
                ))
                codes.append(
                    "ok" if payload["ok"] else payload["error"]["code"]
                )
            # A different client owns a different bucket.
            other = harness.query(make_envelope(
                "check", _request("wl"), kb="feasible", client="patient",
            ))
        assert codes[0] == "ok"
        assert codes.count("rate_limited") >= 1
        assert set(codes) <= {"ok", "rate_limited"}
        assert other["ok"], other

    def test_burst_beyond_queue_limit_is_shed_not_hung(self):
        # One solve slot, one queue slot: a 32-request burst against the
        # full KB (whose first compile holds the slot for ~200ms) must
        # shed the overflow with structured `overloaded` errors while
        # every admitted request still completes.
        daemon = ReasoningDaemon(
            default_knowledge_base(),
            DaemonConfig(port=None, pool_size=2, max_inflight=1,
                         queue_limit=1),
        )
        from repro.knowledge.casestudy import more_workloads_request

        request = more_workloads_request()
        with InprocDaemon(daemon) as harness:
            futures = [
                harness.submit(daemon.handle(
                    make_envelope("check", request, request_id=i,
                                  client=f"c{i}")
                ))
                for i in range(32)
            ]
            replies = [future.result(timeout=60) for future in futures]
            payloads = [reply.payload for reply in replies]
            for _ in range(50):
                if daemon.admission.inflight == 0:
                    break
                time.sleep(0.02)
            inflight = daemon.admission.inflight
            depth = daemon.admission.queue_depth

        codes = [
            "ok" if payload["ok"] else payload["error"]["code"]
            for payload in payloads
        ]
        assert len(codes) == 32
        assert set(codes) <= {"ok", "overloaded"}
        assert codes.count("ok") >= 1
        assert codes.count("overloaded") >= 1
        assert inflight == 0
        assert depth == 0
        shed = daemon.metrics.as_dict()["counters"].get("requests.shed", 0)
        assert shed == codes.count("overloaded")
