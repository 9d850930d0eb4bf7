"""Reasoning-as-a-service: a long-lived daemon over the query pipeline.

The paper pitches lightweight reasoning as an *interactive* design aid —
architects (and, increasingly, assistants) fire streams of what-if
queries and expect sub-second answers. This package puts a network
boundary in front of the PR-4 :class:`~repro.core.executor.QueryExecutor`
without giving up the warm-session economics of
:class:`~repro.core.session.ReasoningSession`:

- :mod:`repro.serve.protocol` — the JSON-over-Query-IR wire format
  (request/response envelopes, canonical result serialization,
  structured error payloads, streaming frames);
- :mod:`repro.serve.pool` — a bounded LRU pool of warm sessions keyed
  by KB fingerprint + request shape, with poison-discard on solver
  failure;
- :mod:`repro.serve.admission` — bounded-queue admission control and
  per-client token-bucket rate limiting;
- :mod:`repro.serve.daemon` — the asyncio server (HTTP and unix-socket
  NDJSON transports, the one reply function both backends answer
  through, threaded solving, streaming delivery, graceful drain,
  ``/stats``);
- :mod:`repro.serve.workers` — the process backend: solver worker
  processes behind a shape-affinity router;
- :mod:`repro.serve.client` — stdlib clients (HTTP, unix, in-process)
  for tests and the load generator.

See ``docs/daemon.md`` for the protocol spec and operational knobs.
"""

from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.client import DaemonClient, InprocDaemon
from repro.serve.daemon import DaemonConfig, ReasoningDaemon
from repro.serve.pool import PooledSession, SessionPool
from repro.serve.protocol import (
    WireError,
    canonical_json,
    decode_envelope,
    result_to_wire,
)

__all__ = [
    "AdmissionController",
    "DaemonClient",
    "DaemonConfig",
    "InprocDaemon",
    "PooledSession",
    "ReasoningDaemon",
    "SessionPool",
    "TokenBucket",
    "WireError",
    "canonical_json",
    "decode_envelope",
    "result_to_wire",
]
