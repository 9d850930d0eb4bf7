"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Runs each workload for about two seconds in both modes and checks that
every metric BENCHMARK.json declares is reported with its unit, that the
correctness gate passes, and that every trace wrapper fired at least once
across the workloads, so a renamed layer function fails here rather than
reporting zero.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_checkout_source  # noqa: E402

use_checkout_source()

import layers  # noqa: E402
import loadgen  # noqa: E402
import run as bench  # noqa: E402

SECONDS = 2.0


@pytest.fixture(scope="module")
def results():
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bench, "SETUPS", 1)
            return {
                mode: {name: runner(name, 0, SECONDS)
                       for name in loadgen.WORKLOADS}
                for mode, runner in (("default", bench.run_default),
                                     ("trace", bench.run_trace))
            }
    finally:
        # The trace passes' spawned workers leave a resource tracker.
        bench.daemonctl.stop_children()


@pytest.mark.parametrize("mode", ["default", "trace"])
def test_declared_metrics_reported_and_answers_correct(results, mode):
    for name, result in results[mode].items():
        line = bench.summary_line([result])  # raises on a missing metric
        declared = {m["name"]: m["unit"] for m in bench.declared_metrics(mode)}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
        assert line["correct"], (name, result["problems"])
        assert line["attempted"] > 0 and line["failed"] == 0


def test_every_trace_wrapper_fired(results):
    fired = set()
    for result in results["trace"].values():
        fired |= {name for name, calls in result["fired"].items() if calls}
    declared = {w[2] for w in layers.WRAPPERS + layers.PROCESS_WRAPPERS}
    assert declared - fired == set()


def test_renamed_function_fails_loudly(monkeypatch):
    import repro.core.executor
    from repro.serve.daemon import ReasoningDaemon

    handle = ReasoningDaemon.handle  # wrapped before minimize_linexpr
    monkeypatch.delattr(repro.core.executor, "minimize_linexpr")
    with pytest.raises(AttributeError):
        layers.Tracer().install()
    assert ReasoningDaemon.handle is handle  # nothing left half-installed
