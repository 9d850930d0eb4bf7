"""Golden regression corpus: small DIMACS instances with known verdicts.

``tests/corpus/manifest.json`` pins the expected satisfiability of every
``.cnf`` file in the directory. Each instance is checked through *both*
solver paths — the plain sequential :class:`~repro.sat.Solver` and
cube-and-conquer (:func:`~repro.par.solve_cubes`, in shared and worker
process mode) — so a regression in either path (or a divergence between
them) fails loudly with the instance name.

The verdicts were fixed when the corpus was generated: the pigeonhole,
XOR-chain, and unit-conflict families are known analytically, and the
``n=20`` random instance was verified by exhaustive enumeration.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.par import solve_cubes
from repro.sat import Solver
from repro.sat.dimacs import read_dimacs

CORPUS = Path(__file__).parent / "corpus"
_MANIFEST = json.loads((CORPUS / "manifest.json").read_text())


def _load(name):
    entry = _MANIFEST[name]
    num_vars, clauses = read_dimacs(CORPUS / entry["file"])
    assert num_vars == entry["vars"]
    assert len(clauses) == entry["clauses"]
    return num_vars, clauses, entry["satisfiable"]


def test_manifest_covers_every_cnf_file():
    on_disk = {p.name for p in CORPUS.glob("*.cnf")}
    in_manifest = {entry["file"] for entry in _MANIFEST.values()}
    assert on_disk == in_manifest
    assert len(_MANIFEST) >= 10


@pytest.mark.parametrize("name", sorted(_MANIFEST))
def test_sequential_solver_matches_golden_verdict(name):
    num_vars, clauses, expected = _load(name)
    solver = Solver()
    solver.new_vars(num_vars)
    root_ok = all(solver.add_clause(c) for c in clauses)
    got = solver.solve() if root_ok else False
    assert got == expected, f"sequential solver regressed on {name}"
    if got:
        model = solver.model()
        assert all(
            any(model[abs(lit)] == (lit > 0) for lit in clause)
            for clause in clauses
        ), f"invalid model on {name}"


@pytest.mark.parametrize("name", sorted(_MANIFEST))
def test_cubes_match_golden_verdict(name):
    num_vars, clauses, expected = _load(name)
    for jobs in (1, 2):
        result = solve_cubes(
            num_vars, clauses, k=2, jobs=jobs, probe_conflicts=0
        )
        assert result.satisfiable == expected, (
            f"cubes regressed on {name} (jobs={jobs} mode={result.mode})"
        )
        if result.satisfiable:
            assert all(
                any(result.model[abs(lit)] == (lit > 0) for lit in clause)
                for clause in clauses
            ), f"invalid cube model on {name} (jobs={jobs})"
