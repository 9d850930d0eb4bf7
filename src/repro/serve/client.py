"""Stdlib clients for the reasoning daemon.

Three transports, one call shape:

- :class:`InprocDaemon` — runs a daemon's event loop on a background
  thread and submits envelopes directly to
  :meth:`~repro.serve.daemon.ReasoningDaemon.handle`, skipping sockets
  entirely. This is the differential-parity harness: the bytes it
  returns are exactly what a socket transport would have written.
- ``DaemonClient(url=...)`` — a minimal ``http.client`` wrapper with
  keep-alive, used by the load generator and the CI smoke job.
- ``DaemonClient(unix_path=...)`` — NDJSON over a unix socket.

Every transport returns the parsed response payload; streaming queries
return the list of parsed frames (header, items, footer).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading

from repro.serve.daemon import ReasoningDaemon, StreamReply, UnaryReply
from repro.serve.protocol import canonical_json

__all__ = ["DaemonClient", "InprocDaemon", "make_envelope"]


def make_envelope(
    verb: str,
    request,
    kb: str = "default",
    request_id=None,
    options: dict | None = None,
    client: str | None = None,
    stream: bool = False,
) -> dict:
    """Build a request envelope from a DesignRequest (or its dict)."""
    request_data = (
        request if isinstance(request, dict) else request.to_dict()
    )
    envelope = {"verb": verb, "kb": kb, "request": request_data}
    if request_id is not None:
        envelope["id"] = request_id
    if options:
        envelope["options"] = options
    if client is not None:
        envelope["client"] = client
    if stream:
        envelope["stream"] = True
    return envelope


class InprocDaemon:
    """A daemon running its event loop on a dedicated thread.

    Usable as a context manager::

        with InprocDaemon(ReasoningDaemon(kb)) as harness:
            payload = harness.query(make_envelope("check", request))

    ``query_bytes`` returns the canonical serialized payload — the exact
    bytes a socket transport would write — for byte-level parity tests.
    """

    def __init__(self, daemon: ReasoningDaemon, start_transports: bool = False):
        self.daemon = daemon
        self._start_transports = start_transports
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "InprocDaemon":
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._start_transports:
            self.submit(self.daemon.start()).result()
        return self

    def stop(self, drain: bool = True) -> None:
        if self._loop is None:
            return
        self.submit(self.daemon.stop(drain=drain)).result()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()
        self._loop = None

    def __enter__(self) -> "InprocDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._ready.set()
        loop.run_forever()

    # -- submission ---------------------------------------------------------------

    def submit(self, coro):
        """Schedule *coro* on the daemon loop; returns a concurrent Future."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def query_reply(
        self, envelope: dict | bytes, client: str = "inproc",
        timeout: float | None = 60.0,
    ) -> UnaryReply | StreamReply:
        return self.submit(
            self.daemon.handle(envelope, client_hint=client)
        ).result(timeout)

    def query(self, envelope, client: str = "inproc") -> dict:
        """The response payload (or list of frames for a stream)."""
        reply = self.query_reply(envelope, client)
        if isinstance(reply, StreamReply):
            return [json.loads(frame) for frame in reply.frames]
        return reply.payload

    def query_bytes(self, envelope, client: str = "inproc") -> bytes:
        """Canonical serialized payload, for byte-parity comparisons
        (a stream's frames joined by newlines)."""
        return self.query_reply(envelope, client).body()


class DaemonClient:
    """A blocking client over HTTP (``url=``) or unix NDJSON (``unix_path=``).

    One client owns one connection; concurrent callers should each hold
    their own client (that is what the load generator does).
    """

    def __init__(
        self,
        url: str | None = None,
        unix_path: str | None = None,
        timeout: float = 60.0,
    ):
        if (url is None) == (unix_path is None):
            raise ValueError("pass exactly one of url= or unix_path=")
        self.timeout = timeout
        self._host = None
        self._conn: http.client.HTTPConnection | None = None
        self._sock: socket.socket | None = None
        self._sock_file = None
        if url is not None:
            stripped = url.removeprefix("http://")
            if "/" in stripped:
                stripped = stripped.split("/", 1)[0]
            self._host = stripped
        else:
            self._unix_path = unix_path

    # -- HTTP ---------------------------------------------------------------------

    def _http(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, timeout=self.timeout
            )
        return self._conn

    def _http_request(self, method: str, path: str, body: bytes | None):
        conn = self._http()
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            return conn.getresponse()
        except (http.client.HTTPException, OSError):
            # Server closed the keep-alive connection; retry once fresh.
            self.close()
            conn = self._http()
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            return conn.getresponse()

    # -- unix NDJSON --------------------------------------------------------------

    def _unix(self):
        if self._sock is None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(self.timeout)
            self._sock.connect(self._unix_path)
            self._sock_file = self._sock.makefile("rb")
        return self._sock, self._sock_file

    def _unix_request(self, payload: bytes) -> bytes:
        """Send one line, return the first response line.

        Mirrors the HTTP path's retry: if the cached connection was
        closed under us (server restart), reconnect once and resend.
        """
        try:
            sock, reader = self._unix()
            sock.sendall(payload)
            line = reader.readline()
        except (BrokenPipeError, ConnectionResetError, OSError):
            line = b""
        if not line:
            self.close()
            sock, reader = self._unix()
            sock.sendall(payload)
            line = reader.readline()
        return line

    # -- public api ---------------------------------------------------------------

    def query(self, envelope: dict):
        """Send one envelope; returns the payload (or stream frame list)."""
        stream = bool(envelope.get("stream"))
        if self._host is not None:
            response = self._http_request(
                "POST", "/query", canonical_json(envelope)
            )
            if stream and response.status == 200:
                frames = [
                    json.loads(line)
                    for line in response.read().splitlines() if line
                ]
                return frames
            return json.loads(response.read())
        line = self._unix_request(canonical_json(envelope) + b"\n")
        if not stream:
            return json.loads(line)
        frames = [json.loads(line)]
        if frames[0].get("ok"):
            # Read until the footer frame, {"done": true, ...}.
            while "done" not in frames[-1]:
                frames.append(json.loads(self._sock_file.readline()))
        return frames

    def put_kb(self, ops: list[dict], kb: str = "default",
               request_id=None) -> dict:
        """Apply a delta op list to the served KB (``PUT /kb``)."""
        envelope = {"verb": "put_kb", "kb": kb, "ops": ops}
        if request_id is not None:
            envelope["id"] = request_id
        if self._host is not None:
            response = self._http_request(
                "PUT", "/kb", canonical_json(envelope)
            )
            return json.loads(response.read())
        return json.loads(
            self._unix_request(canonical_json(envelope) + b"\n")
        )

    def delete_entity(self, entity: str, name: str, kb: str = "default",
                      request_id=None) -> dict:
        """Remove one named entity (``DELETE /kb/<entity>/<name>``)."""
        envelope = {"verb": "delete_kb", "kb": kb, "entity": entity,
                    "name": name}
        if request_id is not None:
            envelope["id"] = request_id
        if self._host is not None:
            from urllib.parse import quote

            response = self._http_request(
                "DELETE",
                f"/kb/{quote(kb, safe='')}/{quote(entity, safe='')}"
                f"/{quote(name, safe='')}",
                None,
            )
            return json.loads(response.read())
        return json.loads(
            self._unix_request(canonical_json(envelope) + b"\n")
        )

    def stats(self) -> dict:
        if self._host is None:
            raise ValueError("stats() requires the HTTP transport")
        response = self._http_request("GET", "/stats", None)
        return json.loads(response.read())

    def healthz(self) -> dict:
        if self._host is None:
            raise ValueError("healthz() requires the HTTP transport")
        response = self._http_request("GET", "/healthz", None)
        return json.loads(response.read())

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        if self._sock is not None:
            self._sock_file.close()
            self._sock.close()
            self._sock = None
            self._sock_file = None

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
