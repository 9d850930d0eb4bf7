"""Launch ``repro serve --workers 2`` as its own process, time its set-up,
read its memory, and stop it with every process it started.

The daemon leads its own process group. Its workers and the
multiprocessing resource tracker it spawns are in that group and can
outlive it by a moment, so this process makes itself their reaper
(``PR_SET_CHILD_SUBREAPER``) and a stop waits until no process of the
group is left.
"""

from __future__ import annotations

import ctypes
import multiprocessing.resource_tracker
import os
import re
import signal
import subprocess
import sys
import time

from common import OUT, ROOT, SRC
from repro.serve.client import DaemonClient

WORKERS = 2
#: Generous bounds: a healthy daemon is ready in about a second.
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_BANNER = re.compile(r"serving on (http://\S+)")
_PR_SET_CHILD_SUBREAPER = 36


def _adopt_orphans() -> None:
    """Have orphaned descendants reparented to this process, not init,
    so that they can be waited for."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _processes():
    """(pid, state, ppid, pgrp) of every process in /proc."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # ended while we looked
        yield int(entry), fields[0], int(fields[1]), int(fields[2])


def wait_gone(select, timeout: float = STOP_TIMEOUT_S) -> None:
    """Wait until no process that ``select(ppid, pgrp)`` picks is alive,
    reaping those that are our children. SIGKILL what is still alive
    after *timeout*; raise if even that leaves one after *timeout* more."""
    me = os.getpid()
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        alive = []
        for pid, state, ppid, pgrp in _processes():
            if not select(ppid, pgrp):
                continue
            if state != "Z":
                alive.append(pid)
            elif ppid == me:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass  # reaped elsewhere meanwhile
        if not alive:
            return
        if time.monotonic() > deadline:
            if killed:
                raise RuntimeError(f"processes {alive} outlived SIGKILL")
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
            deadline = time.monotonic() + timeout
        time.sleep(0.01)


def stop_children(timeout: float = 5.0) -> None:
    """Stop every child this process still has: the multiprocessing
    resource tracker (started by spawned workers or reference processes)
    and anything else, which gets *timeout* to end before SIGKILL."""
    multiprocessing.resource_tracker._resource_tracker._stop()
    me = os.getpid()
    wait_gone(lambda ppid, pgrp: ppid == me, timeout)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of *pid* in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServedDaemon:
    """One ``repro serve`` process and its solver workers."""

    def __init__(self, tag: str):
        self.log_path = OUT / f"daemon-{tag}.log"
        self.process: subprocess.Popen | None = None
        self.url: str | None = None
        self.setup_s: float | None = None

    def start(self) -> "ServedDaemon":
        """Launch; return once ``/healthz`` answers and every worker has
        answered a heartbeat. ``setup_s`` is that time from launch."""
        OUT.mkdir(parents=True, exist_ok=True)
        _adopt_orphans()
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        start = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--workers", str(WORKERS), "--port", "0"],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=log,
                start_new_session=True,
            )
        try:
            self.url = self._await_banner(start)
            with DaemonClient(url=self.url, timeout=5.0) as client:
                self._await_workers(client, start)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start
        return self

    def _check_deadline(self, start: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(
                f"daemon exited with {self.process.returncode}: "
                f"{self.log_path.read_text()[-2000:]}"
            )
        if time.perf_counter() - start > READY_TIMEOUT_S:
            raise RuntimeError(f"daemon not ready after {READY_TIMEOUT_S}s")

    def _await_banner(self, start: float) -> str:
        while True:
            match = _BANNER.search(self.log_path.read_text())
            if match:
                return match.group(1)
            self._check_deadline(start)
            time.sleep(0.002)

    def _await_workers(self, client: DaemonClient, start: float) -> None:
        while True:
            try:
                healthy = client.healthz().get("ok") is True
                workers = client.stats().get("workers", []) if healthy else []
            except OSError:
                workers = []
            if len(workers) == WORKERS and all(
                w.get("last_pong_age_s") is not None for w in workers
            ):
                return
            self._check_deadline(start)
            time.sleep(0.002)

    def stats(self) -> dict:
        with DaemonClient(url=self.url, timeout=10.0) as client:
            return client.stats()

    def peak_rss_mb(self, stats: dict) -> float:
        """Summed ``VmHWM`` of the daemon and the workers *stats* lists."""
        pids = [self.process.pid] + [w["pid"] for w in stats["workers"]]
        return sum(vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        """SIGTERM (the daemon drains and joins its workers), then make
        sure no process of the group outlives the call."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self) -> None:
        """Kill the daemon if it still runs and wait until every process
        of its group (workers, resource tracker) has ended."""
        if self.process is None:
            return
        group = self.process.pid  # the daemon leads its own session
        if self.process.poll() is None:
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.process.wait()
        wait_gone(lambda ppid, pgrp: pgrp == group)
        self.process = None


def measure_setup(count: int, tag: str) -> tuple[list[float], ServedDaemon]:
    """Launch the daemon *count* times; the last launch stays up.

    Returns every set-up time and the running daemon.
    """
    times = []
    for i in range(count - 1):
        daemon = ServedDaemon(f"{tag}-{i}").start()
        times.append(daemon.setup_s)
        daemon.stop()
    daemon = ServedDaemon(tag).start()
    times.append(daemon.setup_s)
    return times, daemon
