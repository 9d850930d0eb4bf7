"""The cost descent's promise and its footprint on a session's solver.

A synthesize stops its cost bisection once the gap to the proven lower
bound is within 2%, so each reported cost must be within 2% of the true
optimum however poor the first model was. Each probe's bound is a native
linear constraint behind a fresh activation literal; retiring the
literal must detach the constraint, so a session's solver does not
accumulate probe constraints or dead arena space.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.core.executor as executor_mod
from repro.core.compile import CompiledDesign
from repro.core.design import DesignRequest
from repro.core.engine import ReasoningEngine
from repro.core.session import ReasoningSession
from repro.kb.workload import Workload
from repro.knowledge import default_knowledge_base, keep_sonata_requests
from repro.knowledge.casestudy import inference_case_study, more_workloads_request
from repro.knowledge.workloads import telemetry_pipeline, web_frontend

#: The hardware shortlist of tests/test_workload_templates.py.
INVENTORY = {
    "SRV-G3-128C-512G": 64,
    "SRV-G2-64C-256G": 64,
    "STD-100G-TS-IP": 256,
    "RDMA-100G-RB": 128,
    "FF-100G-32P": 16,
    "FF-100G-32P-DB": 16,
}


def _small_request(cores: int = 64) -> DesignRequest:
    """The quick-mode prototype query of benchmarks/run_perf.py."""
    return DesignRequest(
        workloads=[Workload(
            name="app", peak_cores=cores,
            objectives=["packet_processing", "bandwidth_allocation"],
        )],
        context={"datacenter_fabric": True},
        inventory={"SRV-G2-64C-256G": 16, "STD-100G-TS-IP": 64,
                   "FF-100G-32P": 4},
        optimize=["capex_usd"],
    )


def _templates(*workloads) -> DesignRequest:
    return DesignRequest(
        workloads=list(workloads),
        context={"datacenter_fabric": True},
        inventory=dict(INVENTORY),
        optimize=["capex_usd"],
    )


REQUESTS = {
    "template_single": lambda: _templates(web_frontend(qps_k=20)),
    "template_combined": lambda: _templates(
        web_frontend(qps_k=20), telemetry_pipeline()),
    "prototype_quick": _small_request,
    "prototype_case_study": inference_case_study,
    "prototype_keep_sonata": lambda: keep_sonata_requests()[0],
}


@pytest.fixture(scope="module")
def kb():
    return default_knowledge_base()


def _charged_capex(kb, solution) -> int:
    """Capex in the quantized units the descent minimizes."""
    quantum = CompiledDesign.COST_QUANTUM["capex_usd"]
    return sum(
        -(-kb.hardware_model(model).cost_usd // quantum) * units
        for model, units in solution.hardware.items()
    )


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_reported_capex_is_within_two_percent_of_the_optimum(
        kb, monkeypatch, name):
    request = REQUESTS[name]()
    reported = ReasoningEngine(kb, incremental=False).synthesize(request)
    monkeypatch.setattr(executor_mod, "_within_two_percent", lambda lo: 0)
    exact = ReasoningEngine(kb, incremental=False).synthesize(request)
    assert reported.feasible and exact.feasible
    optimum = _charged_capex(kb, exact.solution)
    assert optimum <= _charged_capex(kb, reported.solution) <= 1.02 * optimum


def _assert_solver_tidy(solver, constraints: int) -> None:
    assert solver.num_linear == constraints
    usage = solver.arena_usage()
    assert usage["dead"] < usage["problem"], usage


def test_retired_probes_leave_no_constraints_or_dead_space(kb):
    session = ReasoningSession(kb)
    variants = [
        replace(_small_request(), forbidden_systems=[system],
                budgets={"capex_usd": budget})
        for system in ("DCTCP", "HPCC") for budget in (400_000, 401_000)
    ]
    for request in variants:  # every guarded variant grounded once
        assert session.check(request).feasible
    solver = session._compiled.solver
    constraints = solver.num_linear
    for i in range(8):
        assert session.synthesize(variants[i % len(variants)]).feasible
        _assert_solver_tidy(solver, constraints)


def test_warm_what_if_rounds_keep_the_solver_tidy(kb):
    """40 rounds of a whatif_warm-style menu of 13 checks."""
    base = more_workloads_request()
    menu = (
        [base]
        + [replace(base, required_systems=[s])
           for s in ("DCTCP", "Katran", "Sonata", "Swift")]
        + [replace(base, forbidden_systems=[s])
           for s in ("BBR", "Maglev", "Snap")]
        + [replace(base, required_systems=["HPCC"],
                   forbidden_systems=["DCTCP"])]
        + [replace(base, required_systems=[s]) for s in ("ECMP", "Homa")]
        + [replace(base, fixed_hardware={"SRV-G2-64C-256G": 24})]
        + [replace(base, context={**base.context,
                                  "network_load_ge_40g": True})]
    )
    session = ReasoningSession(kb)
    verdicts = [session.check(request).feasible for request in menu]
    assert not all(verdicts) and any(verdicts)
    solver = session._compiled.solver
    constraints = solver.num_linear
    for _ in range(40):
        for request, verdict in zip(menu, verdicts):
            assert session.check(request).feasible == verdict
        _assert_solver_tidy(solver, constraints)
