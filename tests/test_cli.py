"""Tests for the command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.sat.dimacs import write_dimacs

CORPUS = Path(__file__).parent / "corpus"


class TestStats:
    def test_stats_prints_counts(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "systems" in out
        assert "hardware" in out


class TestValidate:
    def test_validate_clean_kb(self, capsys):
        assert main(["validate"]) == 0
        assert "0 error(s)" in capsys.readouterr().out


class TestExport:
    def test_export_stdout_is_json(self, capsys):
        assert main(["export"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["systems"]) > 50

    def test_export_to_file(self, tmp_path, capsys):
        target = tmp_path / "kb.json"
        assert main(["export", "-o", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert len(payload["hardware"]) >= 200


class TestOrderings:
    def test_figure1_from_terminal(self, capsys):
        assert main(["orderings", "throughput",
                     "--ctx", "network_load_ge_40g"]) == 0
        out = capsys.readouterr().out
        assert "NetChannel > Linux" in out

    def test_no_active_edges(self, capsys):
        # 'fairness' has only context-conditioned edges; with no context
        # flags set, nothing is active.
        assert main(["orderings", "fairness"]) == 0
        assert "no active edges" in capsys.readouterr().out

    def test_feat_flag(self, capsys):
        assert main(["orderings", "throughput",
                     "--feat", "Snap::pony"]) == 0
        assert "Snap > ZygOS" in capsys.readouterr().out

    def test_unknown_dimension(self, capsys):
        assert main(["orderings", "vibes"]) == 2
        assert "unknown dimension" in capsys.readouterr().err


class TestSolve:
    def test_sat_instance(self, tmp_path, capsys):
        cnf = tmp_path / "sat.cnf"
        cnf.write_text(write_dimacs(2, [[1, 2], [-1]]))
        assert main(["solve", str(cnf)]) == 10
        out = capsys.readouterr().out
        assert "s SATISFIABLE" in out
        assert "v " in out

    def test_unsat_instance(self, tmp_path, capsys):
        cnf = tmp_path / "unsat.cnf"
        cnf.write_text(write_dimacs(1, [[1], [-1]]))
        assert main(["solve", str(cnf)]) == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_proof_emitted_and_verifies(self, tmp_path, capsys):
        from repro.sat.dimacs import parse_dimacs
        from repro.sat.drat import Proof, check_rup_proof

        cnf = tmp_path / "unsat.cnf"
        clauses = [[1, 2], [-1, 2], [1, -2], [-1, -2]]
        cnf.write_text(write_dimacs(2, clauses))
        proof_path = tmp_path / "proof.drat"
        assert main(["solve", str(cnf), "--proof", str(proof_path)]) == 20
        text = proof_path.read_text()
        steps = []
        for line in text.splitlines():
            toks = line.split()
            if toks[0] == "d":
                steps.append(("d", [int(t) for t in toks[1:-1]]))
            else:
                steps.append(("a", [int(t) for t in toks[:-1]]))
        assert check_rup_proof(clauses, Proof(steps=steps))

    def test_model_satisfies(self, tmp_path, capsys):
        clauses = [[1, 2, 3], [-1, -2], [-2, -3], [2]]
        cnf = tmp_path / "x.cnf"
        cnf.write_text(write_dimacs(3, clauses))
        assert main(["solve", str(cnf)]) == 10
        line = [
            ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("v ")
        ][0]
        lits = {int(tok) for tok in line[2:].split() if tok != "0"}
        for clause in clauses:
            assert any(lit in lits for lit in clause)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_cubes_verdicts(self, jobs, capsys):
        sat = CORPUS / "3sat_sat_n20.cnf"
        assert main(["solve", str(sat), "--cubes", "2", "--jobs", jobs]) == 10
        out = capsys.readouterr().out
        assert "s SATISFIABLE" in out and "v " in out
        unsat = CORPUS / "php_5_4.cnf"
        assert main(["solve", str(unsat), "--cubes", "2", "--jobs", jobs]) == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--cubes", "2", "--proof", "p.drat"],
        ["--cubes", "2", "--profile"],
        ["--jobs", "2"],
    ])
    def test_usage_errors(self, flags, tmp_path, capsys):
        cnf = tmp_path / "sat.cnf"
        cnf.write_text(write_dimacs(2, [[1, 2], [-1]]))
        assert main(["solve", str(cnf), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "s SATISFIABLE" not in captured.out

    def test_cubes_without_verdict_reports_unknown(
        self, monkeypatch, tmp_path, capsys
    ):
        import repro.par
        from repro.par import CubeResult

        monkeypatch.setattr(
            repro.par, "solve_cubes",
            lambda *args, **kwargs: CubeResult(satisfiable=None),
        )
        cnf = tmp_path / "sat.cnf"
        cnf.write_text(write_dimacs(2, [[1, 2], [-1]]))
        assert main(["solve", str(cnf), "--cubes", "2"]) == 0
        assert "s UNKNOWN" in capsys.readouterr().out


class TestPlan:
    def _request_payload(self):
        return {
            "workloads": [{
                "name": "app",
                "objectives": ["packet_processing", "bandwidth_allocation"],
                "peak_cores": 64,
            }],
            "context": {"datacenter_fabric": True},
            "inventory": {
                "SRV-G2-64C-256G": 16,
                "STD-100G-TS-IP": 64,
                "FF-100G-32P": 4,
            },
            "optimize": ["capex_usd"],
        }

    def test_plan_feasible(self, tmp_path, capsys):
        import json

        path = tmp_path / "request.json"
        path.write_text(json.dumps(self._request_payload()))
        assert main(["plan", str(path)]) == 0
        out = capsys.readouterr().out
        assert "VERDICT: feasible." in out
        assert "Bill of materials:" in out

    def test_plan_with_explanations(self, tmp_path, capsys):
        import json

        path = tmp_path / "request.json"
        path.write_text(json.dumps(self._request_payload()))
        assert main(["plan", str(path), "--explain"]) == 0
        assert "Justifications" in capsys.readouterr().out

    def test_plan_infeasible_exit_code(self, tmp_path, capsys):
        import json

        payload = self._request_payload()
        payload["workloads"][0]["objectives"].append("teleportation")
        path = tmp_path / "request.json"
        path.write_text(json.dumps(payload))
        assert main(["plan", str(path)]) == 3
        assert "no compliant design exists" in capsys.readouterr().out


def _stream_payload(**overrides):
    payload = {
        "workloads": [{
            "name": "app",
            "objectives": ["packet_processing", "bandwidth_allocation"],
            "peak_cores": 64,
        }],
        "context": {"datacenter_fabric": True},
        "inventory": {
            "SRV-G2-64C-256G": 16,
            "STD-100G-TS-IP": 64,
            "FF-100G-32P": 4,
        },
    }
    payload.update(overrides)
    return payload


def _write_stream(tmp_path, *payloads):
    paths = []
    for i, payload in enumerate(payloads):
        path = tmp_path / f"req{i}.json"
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    return paths


class TestWhatif:
    def test_stream_on_one_session(self, tmp_path, capsys):
        paths = _write_stream(
            tmp_path,
            _stream_payload(),
            _stream_payload(budgets={"capex_usd": 1}),
        )
        assert main(["whatif", "--check", "--stats", *paths]) == 3
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith(f"{paths[0]}: feasible [")
        assert "conflict:" in lines[1]
        assert "INFEASIBLE" in lines[1]
        stats = dict(
            line[2:].split(": ", 1)
            for line in captured.err.splitlines()
            if line.startswith("# ")
        )
        assert stats["compiles"] == "1"
        assert stats["queries"] == "2"

    def test_all_feasible_exits_zero(self, tmp_path, capsys):
        paths = _write_stream(tmp_path, _stream_payload())
        assert main(["whatif", "--check", *paths]) == 0
        assert "feasible" in capsys.readouterr().out


class TestDiagnose:
    def test_feasible_stream_exits_zero(self, tmp_path, capsys):
        paths = _write_stream(tmp_path, _stream_payload())
        assert main(["diagnose", *paths]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{paths[0]}: feasible [")
        assert "INFEASIBLE" not in out

    def test_conflict_is_reported_with_explanation(self, tmp_path, capsys):
        infeasible = _stream_payload(budgets={"capex_usd": 1})
        paths = _write_stream(tmp_path, _stream_payload(), infeasible)
        assert main(["diagnose", "--explain", "--stats", *paths]) == 3
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith(f"{paths[0]}: feasible [")
        assert "INFEASIBLE" in lines[1]
        assert "budget:capex_usd" in lines[1]
        # --explain indents the human-readable breakdown underneath.
        assert any(line.startswith("  ") for line in lines[2:])
        stats = dict(
            line[2:].split(": ", 1)
            for line in captured.err.splitlines()
            if line.startswith("# ")
        )
        assert stats["compiles"] == "1"


class TestRequestRoundtrip:
    def test_design_request_json_roundtrip(self):
        from repro.core.design import DesignRequest
        from repro.kb.workload import Workload

        request = DesignRequest(
            workloads=[Workload(name="w", objectives=["x"], peak_cores=3)],
            context={"a": True},
            given_properties=["site::RESEARCH_OK"],
            candidate_systems=["Linux"],
            required_systems=["Linux"],
            budgets={"capex_usd": 10},
            optimize=["latency"],
            include_common_sense=False,
        )
        clone = DesignRequest.from_dict(request.to_dict())
        assert clone.to_dict() == request.to_dict()
        assert clone.exclusive_categories == request.exclusive_categories


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestProfileFlags:
    def _request_path(self, tmp_path):
        payload = {
            "workloads": [{
                "name": "app",
                "objectives": ["packet_processing", "bandwidth_allocation"],
                "peak_cores": 64,
            }],
            "context": {"datacenter_fabric": True},
            "inventory": {
                "SRV-G2-64C-256G": 16,
                "STD-100G-TS-IP": 64,
                "FF-100G-32P": 4,
            },
            "optimize": ["capex_usd"],
        }
        path = tmp_path / "request.json"
        path.write_text(json.dumps(payload))
        return path

    def test_plan_profile_prints_breakdown(self, tmp_path, capsys):
        path = self._request_path(tmp_path)
        assert main(["plan", str(path), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Phase breakdown" in out
        for phase in ("compile", "solve", "optimize"):
            assert phase in out
        assert "Solver" in out
        assert "conflicts" in out

    def test_plan_without_profile_is_clean(self, tmp_path, capsys):
        path = self._request_path(tmp_path)
        assert main(["plan", str(path)]) == 0
        assert "Phase breakdown" not in capsys.readouterr().out

    def test_solve_profile_prints_breakdown(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(write_dimacs(2, [[1, 2], [-1], [-2]]))
        assert main(["solve", str(cnf), "--profile"]) == 20
        out = capsys.readouterr().out
        assert "s UNSATISFIABLE" in out
        assert "Phase breakdown" in out
        assert "Solver" in out

    def test_stats_json_is_metrics_registry_shape(self, capsys):
        assert main(["stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"counters", "gauges", "observations"} <= payload.keys()
        assert payload["gauges"]["kb.systems"] > 50
        assert payload["gauges"]["kb.hardware"] >= 200
