#!/usr/bin/env python
"""Closed-loop load generator for the reasoning daemon.

Spawns N concurrent clients, each running the 20-query what-if sweep
(the §5.1 multi-workload request plus structural variations) against a
daemon in closed loop: send a query, wait for the answer, send the
next. Reports per-request latency percentiles, throughput, and error
counts, and — unless ``--no-baseline`` — repeats the run against a
daemon with the warm-session pool *disabled* (``pool_size=0``, i.e.
per-request fresh compile) to measure what session reuse buys under
concurrency.

By default the daemon is started in-process on an ephemeral port so the
benchmark is self-contained; ``--url`` targets an externally started
server instead (the CI smoke job does exactly that).

Usage::

    PYTHONPATH=src python benchmarks/load_gen.py                # full run
    PYTHONPATH=src python benchmarks/load_gen.py --quick        # CI smoke
    PYTHONPATH=src python benchmarks/load_gen.py --url http://127.0.0.1:8421

``--quick`` additionally *asserts* a generous p99 bound and zero error
responses, exiting non-zero on violation, so CI can use the exit code
directly.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.knowledge import default_knowledge_base  # noqa: E402
from repro.knowledge.casestudy import more_workloads_request  # noqa: E402
from repro.serve import DaemonConfig, InprocDaemon, ReasoningDaemon  # noqa: E402
from repro.serve.client import DaemonClient, make_envelope  # noqa: E402

#: Structural what-if variations layered on the §5.1 base request; the
#: same sweep shape as run_perf's incremental_whatif workload.
_VARIANT_SYSTEMS = ["Sonata", "DCTCP", "Swift", "QUIC", "HPCC"]


def whatif_sweep(quick: bool = False) -> list:
    """The 20-query what-if stream (4 queries in quick mode)."""
    base = more_workloads_request()
    queries = [base]
    for name in _VARIANT_SYSTEMS:
        queries.append(replace(base, required_systems=[name]))
        queries.append(replace(base, forbidden_systems=[name]))
    queries += [
        replace(base, required_systems=["QUIC"], forbidden_systems=["DCTCP"]),
        replace(base, required_systems=["Sonata", "Swift"]),
        replace(base, fixed_hardware={"SRV-G2-64C-256G": 32}),
        replace(base, fixed_hardware={"SRV-G3-128C-512G": 24}),
        replace(base, context={**base.context, "network_load_ge_40g": False}),
        replace(base, forbidden_systems=["Sonata", "Swift"]),
        replace(base, budgets={"capex_usd": 2_000_000}),
        replace(base, budgets={"power_w": 200_000}),
        replace(base, required_systems=["DCTCP"], budgets={"capex_usd": 2_000_000}),
    ]
    queries = queries[:4] if quick else queries[:20]
    return queries


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile over an already sorted series."""
    if not sorted_values:
        return 0.0
    rank = max(1, round(p * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _client_loop(
    url: str,
    queries: list,
    client_name: str,
    latencies: list[float],
    errors: list[str],
    start_barrier: threading.Barrier,
) -> None:
    client = DaemonClient(url=url, timeout=120.0)
    try:
        start_barrier.wait()
        for i, request in enumerate(queries):
            envelope = make_envelope(
                "check", request, request_id=f"{client_name}:{i}",
                client=client_name,
            )
            start = time.perf_counter()
            try:
                payload = client.query(envelope)
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                errors.append(f"{client_name}:{i} transport {exc!r}")
                continue
            latencies.append(time.perf_counter() - start)
            if not payload.get("ok"):
                errors.append(
                    f"{client_name}:{i} "
                    f"{payload.get('error', {}).get('code', '?')}"
                )
    finally:
        client.close()


def run_load(
    url: str,
    clients: int,
    quick: bool = False,
    sweep: list | None = None,
) -> dict:
    """Run the closed-loop sweep at *clients* concurrency against *url*."""
    queries = sweep if sweep is not None else whatif_sweep(quick)
    latencies: list[float] = []
    errors: list[str] = []
    barrier = threading.Barrier(clients + 1)
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(url, queries, f"c{i}", latencies, errors, barrier),
            daemon=True,
        )
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start
    latencies.sort()
    total = clients * len(queries)
    return {
        "clients": clients,
        "queries_per_client": len(queries),
        "requests": total,
        "completed": len(latencies),
        "errors": len(errors),
        "error_detail": errors[:10],
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(len(latencies) / wall_s, 2) if wall_s else 0.0,
        "latency_s": {
            "p50": round(percentile(latencies, 0.50), 5),
            "p90": round(percentile(latencies, 0.90), 5),
            "p99": round(percentile(latencies, 0.99), 5),
            "max": round(latencies[-1], 5) if latencies else 0.0,
            "mean": (
                round(sum(latencies) / len(latencies), 5)
                if latencies else 0.0
            ),
        },
    }


def _start_daemon(pool_size: int, inflight: int, workers: int = 1):
    """An in-process daemon on an ephemeral port; returns (harness, url).

    ``workers=1`` is the threaded backend (``inflight`` solver threads);
    ``workers=N`` starts N solver worker processes (the shape-affinity
    pool).
    """
    config = DaemonConfig(
        port=0,
        pool_size=pool_size,
        workers=workers,
        max_inflight=inflight,
        queue_limit=1024,
    )
    daemon = ReasoningDaemon(default_knowledge_base(), config)
    harness = InprocDaemon(daemon, start_transports=True).start()
    return harness, f"http://127.0.0.1:{daemon.port}"


def run_benchmark(
    clients: int = 8,
    quick: bool = False,
    baseline: bool = True,
    url: str | None = None,
    workers: int = 1,
) -> dict:
    """Warm-pool run (plus optional fresh-compile baseline run).

    The acceptance line for the ``daemon_load`` workload: warm-pool
    session reuse beats per-request fresh compile by >= 2x wall-clock on
    the what-if sweep at 8 concurrent clients. ``workers`` selects the
    execution backend for the warm run (1 = threaded, N = process pool).
    """
    report: dict = {"external_url": url, "workers": workers}
    if url is not None:
        report["warm"] = run_load(url, clients, quick)
        report["pool"] = None
    else:
        harness, local_url = _start_daemon(
            pool_size=max(clients, 8), inflight=clients, workers=workers,
        )
        try:
            report["warm"] = run_load(local_url, clients, quick)
            report["pool"] = (
                None if workers > 1
                else harness.daemon.stats_payload()["pool"]
            )
        finally:
            harness.stop()
    if baseline and url is None:
        harness, local_url = _start_daemon(pool_size=0, inflight=clients)
        try:
            report["fresh"] = run_load(local_url, clients, quick)
        finally:
            harness.stop()
        warm_s = report["warm"]["wall_s"]
        report["speedup"] = (
            round(report["fresh"]["wall_s"] / warm_s, 3)
            if warm_s > 0 else float("inf")
        )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="closed-loop load generator for the reasoning daemon"
    )
    parser.add_argument("--clients", type=int, default=8, metavar="N",
                        help="concurrent closed-loop clients (default 8)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="solver worker processes for the warm daemon "
                             "(1 = threaded backend, the default)")
    parser.add_argument("--quick", action="store_true",
                        help="short sweep + assert p99 bound and zero "
                             "errors (CI smoke mode)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the fresh-compile (pool disabled) run")
    parser.add_argument("--url", default=None, metavar="URL",
                        help="target an already-running daemon instead of "
                             "spawning one in-process (implies "
                             "--no-baseline)")
    parser.add_argument("--p99-bound", type=float, default=5.0, metavar="S",
                        help="quick-mode p99 assertion bound in seconds "
                             "(default 5.0 — generous on purpose)")
    parser.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="also write the report JSON to FILE")
    args = parser.parse_args(argv)

    report = run_benchmark(
        clients=args.clients,
        quick=args.quick,
        baseline=not args.no_baseline and args.url is None,
        url=args.url,
        workers=args.workers,
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.output:
        Path(args.output).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )

    warm = report["warm"]
    if warm["errors"]:
        print(f"FAIL: {warm['errors']} error responses "
              f"({warm['error_detail']})", file=sys.stderr)
        return 1
    if warm["completed"] != warm["requests"]:
        print("FAIL: lost responses", file=sys.stderr)
        return 1
    if args.quick and warm["latency_s"]["p99"] > args.p99_bound:
        print(f"FAIL: p99 {warm['latency_s']['p99']}s exceeds "
              f"{args.p99_bound}s", file=sys.stderr)
        return 1
    if "speedup" in report and report["speedup"] < 2.0:
        print(f"FAIL: warm-pool speedup {report['speedup']}x below the "
              f"2x acceptance line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
