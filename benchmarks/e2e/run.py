#!/usr/bin/env python3
"""End-to-end benchmark of the reasoning daemon.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py                          # all workloads
    python3 benchmarks/e2e/run.py --workload whatif_warm --seed 3
    python3 benchmarks/e2e/run.py --workload kb_ingest --trace 1
    python3 benchmarks/e2e/run.py compare PARENT_DIR CHANGE_DIR
    python3 benchmarks/e2e/run.py golden                   # rewrite references

The default mode (``--trace 0``) launches ``repro serve --workers 2`` as
its own process for the workload, drives it over HTTP from this process,
checks every answer and reports the end-to-end metrics. ``--trace 1``
serves the same workload and seed from an in-process daemon and reports
the per-layer metrics (see ``layers.py``). Either way the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics ``BENCHMARK.json`` declares for that mode.
Every run also writes its full result (with the workload-specific
metrics) to ``benchmarks/e2e/out/``; ``compare`` judges two sets of
such files. See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys

from common import GOLDEN, OUT, ROOT, percentile, use_checkout_source

use_checkout_source()

import compare as compare_mod  # noqa: E402
import daemonctl  # noqa: E402
import gate  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
from repro.knowledge import default_knowledge_base  # noqa: E402
from repro.serve import DaemonConfig, InprocDaemon, ReasoningDaemon  # noqa: E402
from repro.serve.client import DaemonClient  # noqa: E402

#: Daemon launches per default-mode run; ``setup_s`` is their median.
SETUPS = 5
#: The process-mode trace pass runs for this share of ``--seconds``.
PROCESS_PASS_SHARE = 0.5


def declared_metrics(mode: str) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end" if mode == "default" else "per_layer"]


# -- default mode -----------------------------------------------------------------


def _latency_ms(samples) -> list[float]:
    return [1000.0 * s.latency for s in samples if s.ok]


def primary_stats(workload, run, primary, seconds) -> tuple[float, float]:
    """(throughput, p50) of the primary answers.

    The host's speed drifts by 15-30% over seconds and at times drops by
    a third for a minute or two. Workloads that answer dozens of requests
    a second therefore cut their answers into slices of equal work (see
    ``slices`` in loadgen.py) and take throughput and p50 each from the
    best slice: what the code does while it has the CPU. A slice's
    throughput is its answers over the time from its first request to
    its last answer. The others use the whole window.
    """
    slices = workload.slices(primary, run.t0, seconds)
    if slices:
        return (max(len(s) / (max(x.end for x in s)
                              - min(x.start for x in s)) for s in slices),
                min(percentile(_latency_ms(s), 0.50) for s in slices))
    # Throughput counts answers until the first client stops: after that
    # a client finishing its cycle runs alone.
    last: dict[str, float] = {}
    for sample in primary:
        client = sample.rid.split(":")[0]
        last[client] = max(last.get(client, 0.0), sample.end)
    until = min(last.values())
    answered = sum(sample.end <= until for sample in primary)
    return (answered / (until - run.t0),
            percentile(_latency_ms(primary), 0.50))


def end_to_end_metrics(workload, run, seconds, setups, rss_mb, attempted,
                       failed):
    primary = [s for s in run.stream("primary") if s.ok]
    if not primary:
        raise RuntimeError(f"{workload.name}: no request was answered")
    latency = _latency_ms(primary)
    rps, p50 = primary_stats(workload, run, primary, seconds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rps": (rps, "req/s"),
        "latency_p50_ms": (p50, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        # Workload-specific metrics: in the result file, not gated by
        # BENCHMARK.json (see README.md).
        "primary_requests": (len(primary), "count"),
        "error_rate": (failed / attempted, "fraction"),
    }
    # Tails, where at least ten answers lie beyond the percentile.
    if len(latency) >= 100:
        metrics["latency_p90_ms"] = (percentile(latency, 0.90), "ms")
    if len(latency) >= 1000:
        metrics["latency_p99_ms"] = (percentile(latency, 0.99), "ms")
    groups: dict[int, list] = {}
    for sample in primary:
        groups.setdefault(sample.call.group, []).append(sample)
    if workload.name == "synthesize_cold":
        spans = [max(s.end for s in g) - min(s.start for s in g)
                 for g in groups.values()]
        metrics["makespan_s"] = (statistics.median(spans), "s")
    for stream, prefix, tail in (("probe", "probe", 0.95),
                                 ("write", "kb_write", 0.90)):
        samples = run.stream(stream)
        if samples:
            times = _latency_ms(samples)
            metrics[f"{prefix}_p50_ms"] = (percentile(times, 0.50), "ms")
            metrics[f"{prefix}_p{round(tail * 100)}_ms"] = (
                percentile(times, tail), "ms")
            metrics[f"{prefix}_generator_lag_ms"] = (
                1000.0 * max(s.start - s.due for s in samples), "ms")
    return metrics


def run_default(name: str, seed: int, seconds: float) -> dict:
    workload = loadgen.WORKLOADS[name](seed)
    setups, daemon = daemonctl.measure_setup(SETUPS, name)
    try:
        run = loadgen.drive(workload, daemon.url, seconds)
        stats = daemon.stats()
        rss_mb = daemon.peak_rss_mb(stats)
    finally:
        daemon.stop()
    refs = gate.References()
    attempted, failed, problems = gate.check_run(
        run, refs, verdict_only=name == "kb_ingest")
    metrics = end_to_end_metrics(workload, run, seconds, setups, rss_mb,
                                 attempted, failed)
    return {
        "workload": name, "seed": seed, "mode": "default",
        "seconds": seconds, "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": metrics,
        "setups_s": setups, "pool": stats.get("pool"),
        "workers": [
            {"slot": w["slot"], "counters": w.get("counters")}
            for w in stats.get("workers", [])
        ],
        "samples": {
            "fields": ["stream", "verb", "group", "start_s", "latency_s",
                       "ok"],
            "rows": [[s.call.stream, s.call.verb, s.call.group,
                      s.start - run.t0, s.latency, s.ok]
                     for s in run.samples],
        },
    }


# -- trace mode -------------------------------------------------------------------


def inproc_pass(workload, seconds, tracer=None, workers=1):
    """Serve *workload* from an in-process daemon on an ephemeral port."""
    config = DaemonConfig(port=0, workers=workers)
    daemon = ReasoningDaemon(default_knowledge_base(), config)
    harness = InprocDaemon(daemon, start_transports=True)
    if tracer is not None:
        tracer.install()
    try:
        harness.start()
        url = f"http://127.0.0.1:{daemon.port}"
        run = loadgen.drive(workload, url, seconds)
        with DaemonClient(url=url, timeout=10.0) as client:
            stats = client.stats()
    finally:
        harness.stop()
        if tracer is not None:
            tracer.uninstall()
    return run, stats


def _rps(run) -> float:
    wall = run.primary_wall()
    return sum(s.ok for s in run.stream("primary")) / wall if wall else 0.0


def run_trace(name: str, seed: int, seconds: float) -> dict:
    workload = loadgen.WORKLOADS[name](seed)
    tracer = layers.Tracer()
    traced, traced_stats = inproc_pass(workload, seconds, tracer)
    plain, _ = inproc_pass(workload, seconds)
    process_tracer = layers.Tracer(layers.PROCESS_WRAPPERS)
    process, process_stats = inproc_pass(
        workload, seconds * PROCESS_PASS_SHARE, process_tracer, workers=2)
    refs = gate.References()
    attempted = failed = 0
    problems: list[str] = []
    for run in (traced, plain, process):
        a, f, p = gate.check_run(run, refs, verdict_only=name == "kb_ingest")
        attempted, failed, problems = attempted + a, failed + f, problems + p
    latency = {s.rid: s.end - s.start for s in traced.samples}
    metrics = layers.layer_metrics(tracer, latency, traced_stats["pool"])
    metrics.update(layers.workers_metrics(process_tracer, process_stats))
    metrics["trace.overhead_pct"] = (
        100.0 * (_rps(plain) / _rps(traced) - 1.0), "%")
    table = layers.layer_table(tracer.spans)
    requests = sum(1 for s in tracer.spans.values()
                   if s[layers.NAME] == "serve.daemon.handle")
    _write_trace(name, seed, tracer, process_tracer, table)
    return {
        "workload": name, "seed": seed, "mode": "trace", "seconds": seconds,
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics, "layers": table, "requests": requests,
        "fired": dict(tracer.fired) | dict(process_tracer.fired),
    }


def _write_trace(name, seed, tracer, process_tracer, table) -> None:
    spans = list(tracer.spans.values()) + list(process_tracer.spans.values())
    origin = min((s[layers.START] for s in spans), default=0.0)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps({
        "workload": name, "seed": seed,
        "fields": ["name", "start_s", "end_s", "parent", "rid", "info"],
        "spans": {
            index: [s[0], s[1] - origin, s[2] - origin, s[3], s[4], s[5]]
            for index, s in list(tracer.spans.items())
            + [(f"p{i}", s) for i, s in process_tracer.spans.items()]
        },
        "layers": table,
    }))


# -- output -----------------------------------------------------------------------


def print_report(result: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} "
          f"mode={result['mode']} seconds={result['seconds']:g} ==")
    if result["mode"] == "trace":
        requests = max(1, result["requests"])
        handle = result["layers"]["serve.daemon.handle"]["incl_s"] or 1.0
        print(f"{'layer':<26}{'calls':>8}{'self ms/req':>13}"
              f"{'incl ms/req':>13}{'self % handle':>15}")
        for layer, row in result["layers"].items():
            if not row["calls"] and not row["self_s"]:
                continue
            print(f"{layer:<26}{row['calls']:>8}"
                  f"{1000 * row['self_s'] / requests:>13.3f}"
                  f"{1000 * row['incl_s'] / requests:>13.3f}"
                  f"{100 * row['self_s'] / handle:>15.1f}")
        print()
    for metric, (value, unit) in result["metrics"].items():
        print(f"  {metric:<34} {value:>14.4f} {unit}")
    print(f"  attempted={result['attempted']} failed={result['failed']}")
    for problem in result["problems"]:
        print(f"  WRONG: {problem}")


def write_result(result: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    mode = 1 if result["mode"] == "trace" else 0
    path = OUT / f"{result['workload']}-seed{result['seed']}-trace{mode}.json"
    path.write_text(json.dumps({
        **result,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
        "nproc": os.cpu_count(), "python": platform.python_version(),
    }, indent=1))


def summary_line(results: list[dict]) -> dict:
    """The last line of a run: the declared metrics only."""
    mode = results[0]["mode"]
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for spec in declared_metrics(mode):
            value, unit = result["metrics"][spec["name"]]
            if unit != spec["unit"]:
                raise ValueError(f"{spec['name']}: unit {unit} != declared "
                                 f"{spec['unit']}")
            metrics[prefix + spec["name"]] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _exit_on_sigterm(signum, frame):
    # Unwind through the finally blocks that stop the daemons.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return _main(sys.argv[1:] if argv is None else argv)
    finally:
        # No process this run started may outlive it.
        daemonctl.stop_children()


def _main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare_mod.main(argv[1:])
    if argv[:1] == ["baseline"]:
        return compare_mod.baseline(argv[1:])
    if argv[:1] == ["golden"]:
        return write_golden(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(loadgen.WORKLOADS),
                        help="one workload (default: all four, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measurement window per run (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(loadgen.WORKLOADS)
    results = []
    for name in names:
        result = (run_trace if args.trace else run_default)(
            name, args.seed, args.seconds)
        print_report(result)
        write_result(result)
        results.append(result)
    line = summary_line(results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def write_golden(argv: list[str]) -> int:
    """Recompute the committed references (fresh path) of every request
    any seed can send; takes a few minutes."""
    argparse.ArgumentParser(prog="run.py golden").parse_args(argv)
    refs = gate.References(golden=False)
    calls = [call for cls in loadgen.WORKLOADS.values()
             for call in cls(0).reference_calls()]
    refs.prefetch(calls)
    keys = sorted({call.key for call in calls})
    for call in calls:
        refs.get(call)
    lines = ",\n".join(
        f"{json.dumps(k)}: {json.dumps(refs.refs[k], sort_keys=True)}"
        for k in keys)
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text('{"refs": {\n' + lines + "\n}}\n")
    print(f"wrote {len(keys)} references to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
