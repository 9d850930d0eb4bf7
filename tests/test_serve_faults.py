"""Fault injection against the daemon's real transports.

Each scenario asserts the daemon's two invariants under failure:

1. The failure maps to a clean structured error (or a graceful drain) —
   never a traceback on the socket.
2. The daemon survives: subsequent requests succeed and no pool session
   is orphaned (``in_use`` returns to zero).

Scenarios: malformed envelope JSON, oversized HTTP body, oversized
NDJSON line, client disconnect mid-stream, solver exception mid-query
(session poisoning), and shutdown while a solve is inflight.
"""

from __future__ import annotations

import json
import os
import socket
import time

import pytest

from repro.core.design import DesignRequest
from repro.core.session import ReasoningSession
from repro.kb.hardware import Hardware, NICSpec, ServerSpec
from repro.kb.registry import KnowledgeBase
from repro.kb.system import System
from repro.kb.workload import Workload
from repro.knowledge import default_knowledge_base
from repro.logic.ast import TRUE
from repro.serve import DaemonConfig, InprocDaemon, ReasoningDaemon
from repro.serve.client import DaemonClient, make_envelope
from repro.serve.protocol import canonical_json


def _kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_system(System(
        name="StackA", category="network_stack",
        solves=["packet_processing"], requires=TRUE,
    ))
    kb.add_system(System(
        name="StackB", category="network_stack",
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


def _request() -> DesignRequest:
    return DesignRequest(workloads=[
        Workload(name="app", objectives=["packet_processing"]),
    ])


def _pool_in_use(daemon) -> int:
    return daemon.stats_payload()["pool"]["in_use"]


def _wait_pool_quiesced(daemon, deadline_s: float = 5.0) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if _pool_in_use(daemon) == 0 and daemon.admission.inflight == 0:
            return
        time.sleep(0.02)
    raise AssertionError(
        f"pool did not quiesce: in_use={_pool_in_use(daemon)} "
        f"inflight={daemon.admission.inflight}"
    )


@pytest.fixture
def served(tmp_path):
    """A daemon with both transports bound, plus its endpoints."""
    config = DaemonConfig(
        port=0,
        unix_path=str(tmp_path / "reasond.sock"),
        pool_size=4, max_inflight=4, queue_limit=16,
        max_body_bytes=2048,
    )
    daemon = ReasoningDaemon(_kb(), config)
    harness = InprocDaemon(daemon, start_transports=True).start()
    try:
        yield daemon, f"http://127.0.0.1:{daemon.port}", config.unix_path
    finally:
        harness.stop()


@pytest.mark.timeout(120)
class TestMalformedInput:
    def test_unix_malformed_json_then_recovers(self, served):
        daemon, _url, unix_path = served
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10)
            sock.connect(unix_path)
            reader = sock.makefile("rb")
            sock.sendall(b'{"verb": "check", not json}\n')
            payload = json.loads(reader.readline())
            assert payload["ok"] is False
            assert payload["error"]["code"] == "bad_request"
            assert "Traceback" not in payload["error"]["message"]
            # Same connection still serves valid requests.
            sock.sendall(
                canonical_json(make_envelope("check", _request())) + b"\n"
            )
            payload = json.loads(reader.readline())
            assert payload["ok"] is True
        _wait_pool_quiesced(daemon)

    def test_http_oversized_body_is_413(self, served):
        daemon, url, _unix = served
        big = make_envelope("check", _request())
        big["padding"] = "x" * 8192  # > max_body_bytes=2048
        with DaemonClient(url=url, timeout=10) as client:
            payload = client.query(big)
        assert payload["ok"] is False
        assert payload["error"]["code"] == "oversized"
        # The daemon is still serving.
        with DaemonClient(url=url, timeout=10) as client:
            assert client.healthz()["ok"] is True
            assert client.query(make_envelope("check", _request()))["ok"]
        _wait_pool_quiesced(daemon)

    def test_unix_oversized_line_rejected_and_closed(self, served):
        daemon, _url, unix_path = served
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10)
            sock.connect(unix_path)
            reader = sock.makefile("rb")
            # Exceeds the stream limit (max_body_bytes + 64KiB slack):
            # the line cannot be resynchronized, so the daemon answers
            # structurally and closes.
            sock.sendall(b"x" * 131072 + b"\n")
            payload = json.loads(reader.readline())
            assert payload["ok"] is False
            assert payload["error"]["code"] == "oversized"
            assert reader.readline() == b""  # connection closed
        # A fresh connection is unaffected.
        with DaemonClient(unix_path=unix_path, timeout=10) as client:
            assert client.query(make_envelope("check", _request()))["ok"]
        _wait_pool_quiesced(daemon)


@pytest.mark.timeout(120)
class TestDisconnects:
    def test_client_disconnect_mid_stream(self, served):
        daemon, _url, unix_path = served
        envelope = make_envelope(
            "enumerate", _request(), options={"limit": 2}, stream=True
        )
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10)
            sock.connect(unix_path)
            reader = sock.makefile("rb")
            sock.sendall(canonical_json(envelope) + b"\n")
            header = json.loads(reader.readline())
            assert header["ok"] is True and header["stream"] is True
            # Hang up with item/footer frames still unread.
        _wait_pool_quiesced(daemon)
        # The daemon survives and the pool session was returned.
        with DaemonClient(unix_path=unix_path, timeout=10) as client:
            frames = client.query(envelope)
            assert frames[-1]["done"] is True
            assert frames[-1]["count"] >= 1


@pytest.mark.timeout(120)
class TestClientReconnect:
    """A long-lived DaemonClient must survive a daemon restart: its
    cached keep-alive connection goes stale, and the next query has to
    transparently reconnect and resend — on both transports."""

    def _daemon(self, port=0, unix_path=None):
        config = DaemonConfig(
            port=port, unix_path=unix_path, pool_size=2,
        )
        daemon = ReasoningDaemon(_kb(), config)
        return daemon, InprocDaemon(daemon, start_transports=True).start()

    def test_http_client_survives_server_restart(self):
        daemon, harness = self._daemon()
        port = daemon.port
        client = DaemonClient(url=f"http://127.0.0.1:{port}", timeout=30)
        try:
            assert client.query(make_envelope("check", _request()))["ok"]
            harness.stop()
            # Same port, fresh daemon: the client's cached connection is
            # now a dead socket.
            daemon, harness = self._daemon(port=port)
            assert client.query(make_envelope("check", _request()))["ok"]
            assert client.healthz()["ok"] is True
        finally:
            client.close()
            harness.stop()

    def test_unix_client_survives_server_restart(self, tmp_path):
        path = str(tmp_path / "reasond.sock")
        daemon, harness = self._daemon(port=None, unix_path=path)
        client = DaemonClient(unix_path=path, timeout=30)
        try:
            assert client.query(make_envelope("check", _request()))["ok"]
            harness.stop()
            if os.path.exists(path):
                os.unlink(path)
            daemon, harness = self._daemon(port=None, unix_path=path)
            assert client.query(make_envelope("check", _request()))["ok"]
            # Streams work over the reconnected socket too.
            frames = client.query(make_envelope(
                "enumerate", _request(), options={"limit": 2}, stream=True,
            ))
            assert frames[-1]["done"] is True
        finally:
            client.close()
            harness.stop()


@pytest.mark.timeout(120)
class TestSolverFaults:
    def test_solver_exception_poisons_and_discards_session(
        self, served, monkeypatch
    ):
        daemon, url, _unix = served
        with DaemonClient(url=url, timeout=30) as client:
            # Warm a session so the fault hits a *pooled* one.
            assert client.query(make_envelope("check", _request()))["ok"]

            original = ReasoningSession.view
            calls = {"n": 0}

            def exploding_view(self, request):
                calls["n"] += 1
                raise RuntimeError("injected solver fault")

            monkeypatch.setattr(ReasoningSession, "view", exploding_view)
            payload = client.query(make_envelope("check", _request()))
            assert payload["ok"] is False
            assert payload["error"]["code"] == "internal"
            assert "injected solver fault" in payload["error"]["message"]
            assert "Traceback" not in payload["error"]["message"]
            assert calls["n"] == 1

            # The corrupted session must have been discarded, and the
            # next request (fault removed) gets a clean replacement.
            monkeypatch.setattr(ReasoningSession, "view", original)
            assert daemon.stats_payload()["pool"]["discarded_poisoned"] == 1
            payload = client.query(make_envelope("check", _request()))
            assert payload["ok"] is True
        _wait_pool_quiesced(daemon)

    def test_shutdown_while_solving_drains(self):
        # The full KB's first compile holds a worker for ~200ms — a wide
        # window to issue stop() while the solve is inflight.
        daemon = ReasoningDaemon(
            default_knowledge_base(),
            DaemonConfig(port=None, pool_size=2,
                         drain_timeout=30.0),
        )
        from repro.knowledge.casestudy import more_workloads_request

        request = more_workloads_request()
        harness = InprocDaemon(daemon).start()
        try:
            inflight = harness.submit(daemon.handle(
                make_envelope("check", request, request_id="inflight")
            ))
            time.sleep(0.05)
            drained = harness.submit(daemon.stop(drain=True)).result(60)
            assert drained is True
            # The inflight request completed normally during the drain.
            reply = inflight.result(timeout=60)
            assert reply.payload["ok"] is True, reply.payload
            # New work is refused with a structured error.
            refused = harness.submit(daemon.handle(
                make_envelope("check", request, request_id="late")
            )).result(timeout=10)
            assert refused.payload["ok"] is False
            assert refused.payload["error"]["code"] == "draining"
            assert _pool_in_use(daemon) == 0
        finally:
            harness.stop()
