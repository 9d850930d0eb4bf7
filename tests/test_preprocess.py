"""Correctness tests for the SatELite-style CNF preprocessing passes.

The load-bearing property is *equisatisfiability with model
reconstruction*: for any input CNF, preprocessing must preserve the
verdict, and a model of the simplified formula must extend — via the
elimination stack — to a model of the **original** clauses. Frozen
variables must survive every pass so assumption literals, cached circuit
outputs, and unsat cores stay meaningful.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest

from repro.errors import SolverStateError
from repro.sat.drat import Proof
from repro.sat.preprocess import (
    preprocess_clauses,
    preprocess_solver,
    reconstruct_model,
)
from repro.sat.solver import Solver


def _random_3sat(num_vars: int, num_clauses: int, rng: random.Random):
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), min(3, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def _solve(num_vars: int, clauses) -> tuple[bool, dict[int, bool] | None]:
    solver = Solver()
    solver.new_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    if solver.solve():
        return True, solver.model()
    return False, None


def _check_model(clauses, model: dict[int, bool]) -> bool:
    return all(
        any(model.get(abs(lit), False) == (lit > 0) for lit in clause)
        for clause in clauses
    )


# -- differential fuzz -------------------------------------------------------------


def test_differential_fuzz_preprocess_clauses():
    """>= 200 random instances: verdict preserved, reconstructed models
    satisfy the original clauses."""
    rng = random.Random(20240826)
    mismatches = 0
    for trial in range(220):
        num_vars = rng.randint(4, 22)
        ratio = rng.uniform(2.0, 5.5)
        clauses = _random_3sat(num_vars, int(ratio * num_vars) + 1, rng)
        expected, _ = _solve(num_vars, clauses)
        result = preprocess_clauses(num_vars, clauses)
        if result.contradiction:
            got = False
        else:
            simplified = [[u] for u in result.units] + result.clauses
            got, model = _solve(num_vars, simplified)
            if got:
                full = reconstruct_model(model, result.eliminated)
                assert _check_model(clauses, full), (
                    f"trial {trial}: reconstructed model violates originals"
                )
        if got != expected:
            mismatches += 1
    assert mismatches == 0


def test_differential_fuzz_preprocess_solver_in_place():
    """In-place preprocessing of a loaded solver answers identically and
    its models (after internal reconstruction) satisfy the originals."""
    rng = random.Random(77)
    for trial in range(200):
        num_vars = rng.randint(4, 20)
        clauses = _random_3sat(num_vars, int(4.0 * num_vars) + 1, rng)
        expected, _ = _solve(num_vars, clauses)
        solver = Solver()
        solver.new_vars(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        preprocess_solver(solver)
        got = solver.solve()
        assert got == expected, f"trial {trial}: verdict flipped"
        if got:
            assert _check_model(clauses, solver.model()), (
                f"trial {trial}: model violates original clauses"
            )


# -- specific passes ---------------------------------------------------------------


def test_subsumed_clause_is_removed():
    result = preprocess_clauses(3, [[1, 2], [1, 2, 3]], frozen=[1, 2, 3])
    assert result.stats.subsumed >= 1
    assert [1, 2] in result.clauses
    assert all(sorted(c) != [1, 2, 3] for c in result.clauses)


def test_self_subsuming_resolution_strengthens():
    # (1 2) and (1 -2 3): resolving on 2 gives (1 3) which replaces the
    # second clause.
    result = preprocess_clauses(3, [[1, 2], [1, -2, 3]], frozen=[1, 2, 3])
    assert result.stats.strengthened >= 1
    assert sorted(map(sorted, result.clauses)) == [[1, 2], [1, 3]]


def test_variable_elimination_with_reconstruction():
    # Var 2 occurs once positively and once negatively: eliminated, with
    # resolvent (1 3).
    clauses = [[1, 2], [-2, 3]]
    result = preprocess_clauses(3, clauses, frozen=[1, 3])
    assert result.stats.eliminated_vars == 1
    assert [v for v, _ in result.eliminated] == [2]
    simplified = [[u] for u in result.units] + result.clauses
    sat, model = _solve(3, simplified)
    assert sat
    full = reconstruct_model(model, result.eliminated)
    assert 2 in full
    assert _check_model(clauses, full)


def test_pure_literal_elimination():
    # Var 3 occurs only positively: zero resolvents, clauses just drop.
    result = preprocess_clauses(3, [[1, 3], [2, 3]], frozen=[1, 2])
    assert result.stats.eliminated_vars >= 1
    sat, model = _solve(3, [[u] for u in result.units] + result.clauses)
    assert sat
    full = reconstruct_model(model, result.eliminated)
    assert _check_model([[1, 3], [2, 3]], full)


def test_contradiction_detected():
    result = preprocess_clauses(1, [[1], [-1]])
    assert result.contradiction


def test_frozen_variables_never_eliminated():
    rng = random.Random(5)
    for _ in range(50):
        num_vars = rng.randint(5, 15)
        clauses = _random_3sat(num_vars, 3 * num_vars, rng)
        frozen = rng.sample(range(1, num_vars + 1), 3)
        result = preprocess_clauses(num_vars, clauses, frozen=frozen)
        eliminated = {v for v, _ in result.eliminated}
        assert not eliminated & set(frozen)


# -- solver integration ------------------------------------------------------------


def test_assumptions_on_frozen_vars_and_valid_cores():
    """Selector-style assumptions survive preprocessing: querying under
    them gives the same verdicts as an unpreprocessed solver, and unsat
    cores only name assumption literals."""
    rng = random.Random(11)
    for _ in range(40):
        num_vars = rng.randint(6, 16)
        clauses = _random_3sat(num_vars, int(4.2 * num_vars), rng)
        selectors = rng.sample(range(1, num_vars + 1), 3)

        plain = Solver()
        plain.new_vars(num_vars)
        pre = Solver()
        pre.new_vars(num_vars)
        for clause in clauses:
            plain.add_clause(clause)
            pre.add_clause(clause)
        preprocess_solver(pre, frozen=selectors)

        for signs in ((1, 1, 1), (1, -1, 1), (-1, -1, -1)):
            assumptions = [s * v for s, v in zip(signs, selectors)]
            expected = plain.solve(assumptions)
            assert pre.solve(assumptions) == expected
            if not expected:
                core = pre.unsat_core()
                assert set(core) <= set(assumptions)
                # The core really is unsatisfiable on the original CNF.
                recheck = Solver()
                recheck.new_vars(num_vars)
                for clause in clauses:
                    recheck.add_clause(clause)
                assert not recheck.solve(list(core))


def test_eliminated_vars_are_rejected_in_new_clauses_and_assumptions():
    clauses = [[1, 2], [-2, 3]]
    solver = Solver()
    solver.new_vars(3)
    for clause in clauses:
        solver.add_clause(clause)
    preprocess_solver(solver, frozen=[1, 3])
    assert 2 in solver.eliminated_vars
    with pytest.raises(SolverStateError):
        solver.add_clause([2, 3])
    with pytest.raises(SolverStateError):
        solver.solve([2])


def test_preprocess_refuses_proof_logging():
    solver = Solver(proof_logging=True)
    solver.new_vars(2)
    solver.add_clause([1, 2])
    with pytest.raises(SolverStateError):
        preprocess_solver(solver)


def test_preprocess_preserves_incremental_use():
    """Clauses added after preprocessing (over frozen vars) behave
    normally — the session's request-grounding pattern."""
    rng = random.Random(3)
    clauses = _random_3sat(12, 40, rng)
    frozen = [1, 2, 3, 4]
    solver = Solver()
    solver.new_vars(12)
    for clause in clauses:
        solver.add_clause(clause)
    preprocess_solver(solver, frozen=frozen)
    guard = solver.new_var()
    solver.add_clause([-guard, 1])
    solver.add_clause([-guard, -2])
    plain = Solver()
    plain.new_vars(12)
    for clause in clauses:
        plain.add_clause(clause)
    assert solver.solve([guard]) == plain.solve([1, -2])
    assert solver.solve([-guard]) == plain.solve([])


# -- differential oracle -----------------------------------------------------------


class _NaiveOracle:
    """SatELite by full occurrence scans.

    The same passes as :func:`preprocess_clauses`, without its candidate
    filtering: subsumption and strengthening test every clause on the
    occurrence list of C's rarest literal and of each ¬l by building its
    literal set, and variable elimination tests every variable. Occurrence
    sets see the same adds and discards in the same order, so iteration
    orders, and with them the whole output, must agree exactly.
    """

    def __init__(self, num_vars, clauses, frozen, *, elim_occ_limit=16,
                 elim_growth=0, elim_clause_limit=16, proof=None):
        self.n, self.proof = num_vars, proof
        self.frozen = {abs(v) for v in frozen}
        self.limits = (elim_occ_limit, elim_growth, elim_clause_limit)
        self.stats = dict.fromkeys(
            ["subsumed", "strengthened", "eliminated_vars",
             "resolvents_added", "units_derived", "rounds"], 0)
        self.assign, self.units, self.store = {}, [], []
        self.occ, self.dirty, self.eliminated = defaultdict(set), [], []
        self.unsat = False
        seen = set()
        for raw in clauses:
            lits = []
            for lit in raw:
                if -lit in lits:
                    break
                if lit not in lits:
                    lits.append(lit)
            else:
                if not lits:
                    self.unsat = True
                    return
                if len(lits) == 1:
                    self.units.append(lits[0])
                elif frozenset(lits) not in seen:
                    seen.add(frozenset(lits))
                    self.attach(lits)

    def attach(self, lits):
        self.store.append(lits)
        for lit in lits:
            self.occ[lit].add(len(self.store) - 1)
        self.dirty.append(len(self.store) - 1)

    def detach(self, i):
        for lit in self.store[i]:
            self.occ[lit].discard(i)
        self.store[i] = None

    def remove_lit(self, i, lit):
        lits = self.store[i]
        old = list(lits)
        lits.remove(lit)
        self.occ[lit].discard(i)
        if self.proof is not None:
            self.proof.add(list(lits))
            self.proof.delete(old)
        if len(lits) == 1:
            self.detach(i)
            self.units.append(lits[0])
            self.stats["units_derived"] += 1
        else:
            self.dirty.append(i)

    def propagate(self):
        while self.units and not self.unsat:
            lit = self.units.pop()
            if abs(lit) in self.assign:
                self.unsat |= self.assign[abs(lit)] != (lit > 0)
                continue
            self.assign[abs(lit)] = lit > 0
            for i in list(self.occ[lit]):
                if self.proof is not None:
                    self.proof.delete(self.store[i])
                self.detach(i)
            for i in list(self.occ[-lit]):
                self.remove_lit(i, -lit)

    def backward(self):
        changed = False
        while self.dirty and not self.unsat:
            c = self.store[self.dirty.pop()]
            if c is None:
                continue
            rarest = min(c, key=lambda l: len(self.occ[l]))
            for i in list(self.occ[rarest]):
                d = self.store[i]
                if d is not None and d is not c and set(c) <= set(d):
                    if self.proof is not None:
                        self.proof.delete(d)
                    self.detach(i)
                    self.stats["subsumed"] += 1
                    changed = True
            for lit in c:
                rest = set(c) - {lit}
                for i in list(self.occ[-lit]):
                    d = self.store[i]
                    if d is not None and rest <= set(d):
                        self.remove_lit(i, -lit)
                        self.stats["strengthened"] += 1
                        changed = True
            self.propagate()
        return changed

    def eliminate(self):
        occ_limit, growth, width = self.limits
        changed = False
        for var in range(1, self.n + 1):
            if self.unsat or var in self.frozen or var in self.assign:
                continue
            pos, neg = list(self.occ[var]), list(self.occ[-var])
            if not pos + neg or len(pos + neg) > occ_limit:
                continue
            resolvents, keys = [], set()
            for p in pos:
                for q in neg:
                    r = [l for l in self.store[p] if l != var]
                    r += [l for l in self.store[q] if l != -var and l not in r]
                    if any(-l in r for l in r) or frozenset(r) in keys:
                        continue
                    keys.add(frozenset(r))
                    resolvents.append(r)
            if (any(len(r) > width for r in resolvents)
                    or len(resolvents) > len(pos) + len(neg) + growth):
                continue
            self.eliminated.append(
                (var, [list(self.store[i]) for i in pos + neg]))
            for i in pos + neg:
                self.detach(i)
            self.frozen.add(var)
            self.stats["eliminated_vars"] += 1
            self.stats["resolvents_added"] += len(resolvents)
            for r in resolvents:
                if len(r) == 1:
                    self.units.append(r[0])
                    self.stats["units_derived"] += 1
                else:
                    self.attach(r)
            self.propagate()
            changed = True
        return changed

    def run(self, max_rounds=3):
        if not self.unsat:
            self.propagate()
        for _ in range(max_rounds):
            if self.unsat:
                break
            self.stats["rounds"] += 1
            changed = self.backward()
            if self.proof is None:
                changed = self.eliminate() or changed
                changed = self.backward() or changed
            if not changed:
                break
        if self.unsat:
            return [], [], self.eliminated, True, self.stats
        units = [v if val else -v for v, val in sorted(self.assign.items())]
        clauses = [c for c in self.store if c is not None]
        return units, clauses, self.eliminated, False, self.stats


def _outcome(result):
    return (result.units, result.clauses, result.eliminated,
            result.contradiction, result.stats.as_dict())


def _fuzzed_cnf(rng: random.Random):
    """Small CNFs with repeated literals, tautologies, units, repeated
    clauses, and clauses that one earlier clause subsumes or strengthens
    (often several at once), so every pass has work."""
    num_vars = rng.randint(3, 24)
    clauses = []
    for _ in range(rng.randint(1, 2 * num_vars)):
        width = rng.choice([1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 5, 6] * 2 + [1])
        clause = [rng.choice([-1, 1]) * rng.randint(1, num_vars)
                  for _ in range(width)]
        clauses.append(clause)
        if rng.random() < 0.05:
            clauses.append(list(reversed(clause)))
        for _ in range(rng.choice([0, 0, 1, 2, 3])):
            extra = rng.choice([-1, 1]) * rng.randint(1, num_vars)
            flip = rng.randrange(len(clause)) if rng.random() < 0.5 else None
            clauses.append([-lit if i == flip else lit
                            for i, lit in enumerate(clause)] + [extra])
    frozen = rng.sample(range(1, num_vars + 1), rng.randint(0, num_vars // 2))
    return num_vars, clauses, frozen


@pytest.mark.parametrize("with_proof", [False, True], ids=["bve", "proof"])
def test_matches_naive_oracle_on_fuzzed_cnfs(with_proof):
    rng = random.Random(2405 + with_proof)
    for trial in range(300):
        num_vars, clauses, frozen = _fuzzed_cnf(rng)
        limits = dict(elim_occ_limit=rng.choice([0, 4, 16]),
                      elim_growth=rng.choice([0, 0, 2]),
                      elim_clause_limit=rng.choice([3, 16]))
        rounds = rng.randint(1, 3)
        proofs = (Proof(), Proof()) if with_proof else (None, None)
        oracle = _NaiveOracle(num_vars, [list(c) for c in clauses], frozen,
                              proof=proofs[0], **limits).run(rounds)
        result = preprocess_clauses(num_vars, clauses, frozen,
                                    max_rounds=rounds, proof=proofs[1],
                                    **limits)
        assert _outcome(result) == oracle, f"trial {trial}"
        if with_proof:
            assert proofs[0].steps == proofs[1].steps, f"trial {trial}"


class _Captured(Exception):
    pass


def _session_base(monkeypatch, request):
    """(num_vars, clauses, frozen) the session hands to preprocessing
    when it compiles *request* on the default KB."""
    import repro.core.session as session_mod
    from repro.core.session import ReasoningSession
    from repro.knowledge import default_knowledge_base

    def spy(solver, frozen=()):
        units = [[u] for u in solver.root_units()]
        raise _Captured(solver.num_vars, solver.clause_literals() + units,
                        sorted(frozen))

    monkeypatch.setattr(session_mod, "preprocess_solver", spy)
    with pytest.raises(_Captured) as captured:
        ReasoningSession(default_knowledge_base()).check(request)
    return captured.value.args


#: sha256 of repr(_outcome(...)) of each base: a change to the compiled
#: base or to any preprocessing pass moves it.
_BASE_DIGESTS = {
    "more_workloads_request":
        "6a39a071662e32f8f2f3e55100150175b840156343a150abd055ce629db4772a",
    "inference_case_study":
        "ac36f24c9cd239720d08e2fde996245240ba73ae23deacb9e91c826eb4219834",
}


@pytest.mark.parametrize("name", sorted(_BASE_DIGESTS))
def test_case_study_bases_match_oracle_and_pinned_digest(monkeypatch, name):
    import hashlib

    from repro.knowledge import casestudy

    num_vars, clauses, frozen = _session_base(
        monkeypatch, getattr(casestudy, name)())
    result = preprocess_clauses(num_vars, clauses, frozen)
    oracle = _NaiveOracle(num_vars, [list(c) for c in clauses], frozen).run()
    assert _outcome(result) == oracle
    if name == "more_workloads_request":
        assert result.stats.as_dict() == {
            "subsumed": 120, "strengthened": 43, "eliminated_vars": 459,
            "resolvents_added": 595, "units_derived": 13, "rounds": 3,
        }
    digest = hashlib.sha256(repr(_outcome(result)).encode()).hexdigest()
    assert digest == _BASE_DIGESTS[name]
