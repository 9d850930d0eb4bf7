"""SatELite-style CNF preprocessing (Eén & Biere 2005).

Three equisatisfiability-preserving passes over a clause set, iterated to
a fixpoint and bounded so the pure-Python implementation stays cheap
relative to search:

- **backward subsumption** — a clause deletes every superset clause;
- **self-subsuming resolution** — ``(A ∨ l)`` strengthens ``(A' ∨ ¬l)``
  to ``A'`` whenever ``A ⊆ A'``;
- **bounded variable elimination (BVE)** — a variable whose resolvent
  set is no larger than the clauses it replaces is resolved away
  (pure literals are the zero-resolvent special case).

Variable elimination changes the model set, so every eliminated variable
records the clauses it appeared in; :func:`reconstruct_model` (and the
solver hook :meth:`~repro.sat.solver.Solver.install_elimination`) re-value
eliminated variables from any model of the preprocessed formula, in
reverse elimination order.

**Frozen variables are never eliminated.** Any variable that can appear
in a later ``add_clause``, in solve assumptions (guards, activation
literals), or that the caller needs to read out of models verbatim
(objective/selector variables) must be frozen — the session layer
(:mod:`repro.core.session`) freezes everything named or cached by its
builder and encoder. Eliminated variables are rejected by the solver in
new clauses and assumptions, so a missing freeze fails loudly rather
than silently corrupting answers. Unsat cores stay valid because cores
only name assumption literals, which are always frozen.

Entry points: :func:`preprocess_clauses` for plain clause lists, and
:func:`preprocess_solver` to rebuild a :class:`~repro.sat.Solver` with
the preprocessed database in place.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from operator import neg
from collections.abc import Iterable, Sequence

from repro.errors import SolverStateError
from repro.sat.solver import Solver

__all__ = [
    "PreprocessResult",
    "PreprocessStats",
    "preprocess_clauses",
    "preprocess_solver",
    "reconstruct_model",
]


@dataclass
class PreprocessStats:
    """Counters for one :func:`preprocess_clauses` run."""

    subsumed: int = 0
    strengthened: int = 0
    eliminated_vars: int = 0
    resolvents_added: int = 0
    units_derived: int = 0
    rounds: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "subsumed": self.subsumed,
            "strengthened": self.strengthened,
            "eliminated_vars": self.eliminated_vars,
            "resolvents_added": self.resolvents_added,
            "units_derived": self.units_derived,
            "rounds": self.rounds,
        }


@dataclass
class PreprocessResult:
    """Outcome of :func:`preprocess_clauses`.

    ``units`` are root-level forced literals, ``clauses`` the surviving
    non-unit clauses, and ``eliminated`` the reconstruction stack of
    ``(var, saved_clauses)`` pairs in elimination order.
    """

    num_vars: int
    units: list[int]
    clauses: list[list[int]]
    eliminated: list[tuple[int, list[list[int]]]]
    contradiction: bool = False
    stats: PreprocessStats = field(default_factory=PreprocessStats)


class _Worker:
    """Occurrence-list state machine for one preprocessing run.

    ``occ[lit]`` is exact: it holds the index of every live clause that
    contains *lit* and nothing else, so a clause that contains all of a
    set of literals is found by intersecting their occurrence sets.

    With a *proof* attached (DRAT :class:`~repro.sat.drat.Proof`), every
    clause mutation is mirrored as proof events: subsumed and satisfied
    clauses get delete lines, strengthened/shrunk clauses get the new
    clause added before the original is deleted (both are RUP steps).
    Bounded variable elimination is **skipped entirely** under a proof —
    BVE is not expressible as RUP steps.
    """

    def __init__(
        self,
        num_vars: int,
        clauses: Iterable[Iterable[int]],
        frozen: frozenset[int],
        elim_occ_limit: int,
        elim_growth: int,
        elim_clause_limit: int,
        proof=None,
    ):
        self.num_vars = num_vars
        self.frozen = frozen
        self.elim_occ_limit = elim_occ_limit
        self.elim_growth = elim_growth
        self.elim_clause_limit = elim_clause_limit
        self.proof = proof
        self.stats = PreprocessStats()
        self.assign: dict[int, bool] = {}
        self.unit_queue: list[int] = []
        self.contradiction = False
        self.eliminated: list[tuple[int, list[list[int]]]] = []
        self.elim_set: set[int] = set()
        #: Clause storage; a slot is None once its clause is removed.
        self.clauses: list[list[int] | None] = []
        self.occ: dict[int, set[int]] = defaultdict(set)
        self.dirty: list[int] = []  # clause indices awaiting backward pass
        seen: set[frozenset[int]] = set()
        for raw in clauses:
            lits = list(raw)
            key = frozenset(lits)
            if not key.isdisjoint(map(neg, lits)):
                continue  # tautology
            if len(key) != len(lits):
                lits = list(dict.fromkeys(lits))  # drop repeats, keep order
            if not lits:
                self.contradiction = True
                return
            if len(lits) == 1:
                self.unit_queue.append(lits[0])
            elif key not in seen:
                seen.add(key)
                self._attach(lits)

    def _attach(self, lits: list[int]) -> int:
        idx = len(self.clauses)
        self.clauses.append(lits)
        for lit in lits:
            self.occ[lit].add(idx)
        self.dirty.append(idx)
        return idx

    def _detach(self, idx: int) -> None:
        lits = self.clauses[idx]
        if lits is None:
            return
        for lit in lits:
            self.occ[lit].discard(idx)
        self.clauses[idx] = None

    def _strengthen(self, other: int, lit: int) -> None:
        """Remove *lit* from clause *other* (a unit is queued instead)."""
        dlits = self.clauses[other]
        old = list(dlits) if self.proof is not None else None
        dlits.remove(lit)
        self.occ[lit].discard(other)
        if self.proof is not None:
            self.proof.add(list(dlits))
            self.proof.delete(old)
        if len(dlits) == 1:
            self._detach(other)
            self.unit_queue.append(dlits[0])
            self.stats.units_derived += 1
        else:
            self.dirty.append(other)

    # -- unit propagation ----------------------------------------------------

    def propagate(self) -> None:
        """Exhaustively apply the queued unit literals."""
        occ = self.occ
        clauses = self.clauses
        proof = self.proof
        while self.unit_queue and not self.contradiction:
            lit = self.unit_queue.pop()
            var = abs(lit)
            value = lit > 0
            prev = self.assign.get(var)
            if prev is not None:
                if prev != value:
                    self.contradiction = True
                continue
            self.assign[var] = value
            # Clauses satisfied by lit disappear; clauses with -lit shrink.
            for idx in list(occ[lit]):
                if proof is not None:
                    proof.delete(clauses[idx])
                self._detach(idx)
            for idx in list(occ[-lit]):
                self._strengthen(idx, -lit)

    # -- subsumption & self-subsuming resolution -----------------------------

    def backward_pass(self) -> bool:
        """Use each dirty clause to subsume/strengthen the rest.

        A clause D that C subsumes contains every literal of C, and a
        clause D that C = (A ∨ l) strengthens contains ¬l and every
        literal of A, so both passes take their candidates from an
        intersection of occurrence sets, filtered first through the
        rarest literal. When several clauses qualify they are visited
        in the iteration order of one occurrence set (that of C's rarest
        literal for subsumption, that of ¬l for strengthening), which
        fixes the order of every mutation and so the output.
        """
        changed = False
        occ = self.occ
        clauses = self.clauses
        dirty = self.dirty
        stats = self.stats
        while dirty and not self.contradiction:
            idx = dirty.pop()
            lits = clauses[idx]
            if lits is None:
                continue
            # C's two rarest literals; ties go to the earlier literal.
            sizes = [len(occ[l]) for l in lits]
            first, second = sorted(range(len(lits)), key=sizes.__getitem__)[:2]
            rarest, runner_up = lits[first], lits[second]
            rare_occ, runner_occ = occ[rarest], occ[runner_up]
            # The clauses that hold both; C is one of them.
            both = rare_occ & runner_occ
            # Subsumption: a superset of C also holds C's other literals.
            if len(both) > 1:
                hits = both
                if len(lits) > 2:
                    hits = both.intersection(
                        *[occ[l] for l in lits if l != rarest and l != runner_up]
                    )
                if len(hits) > 1:
                    for other in [o for o in rare_occ if o in hits]:
                        if other == idx:
                            continue
                        if self.proof is not None:
                            self.proof.delete(clauses[other])
                        self._detach(other)
                        stats.subsumed += 1
                    changed = True
            # Self-subsuming resolution: C = (A ∨ l) strengthens any
            # D ⊇ (A ∨ ¬l) by removing ¬l from D. D lies in the
            # occurrence set of ¬l and of A's rarest literal, or in
            # ``both`` when l is neither of C's rarest. ``both`` may
            # still list clauses removed since; they are in no occurrence
            # set any more, so intersecting with that of ¬l drops them.
            for lit in lits:
                neg_occ = occ.get(-lit)
                if not neg_occ:
                    continue
                if lit == rarest:
                    pivot_occ, known = runner_occ, (lit, runner_up)
                elif lit == runner_up:
                    pivot_occ, known = rare_occ, (lit, rarest)
                elif len(both) > 1:
                    pivot_occ, known = both, (lit, rarest, runner_up)
                else:
                    continue  # no other clause holds C's rarest literals
                if neg_occ.isdisjoint(pivot_occ):
                    continue
                hits = neg_occ & pivot_occ
                rest = [occ[l] for l in lits if l not in known]
                if rest:
                    hits.intersection_update(*rest)
                    if not hits:
                        continue
                if len(hits) > 1:
                    hits = [o for o in neg_occ if o in hits]
                for other in hits:
                    self._strengthen(other, -lit)
                    stats.strengthened += 1
                changed = True
            if self.unit_queue:
                self.propagate()
        return changed

    # -- bounded variable elimination ----------------------------------------

    def eliminate_pass(self) -> bool:
        """Resolve away cheap unfrozen variables (one sweep)."""
        changed = False
        occ = self.occ
        limit = self.elim_occ_limit
        frozen, elim_set, assign = self.frozen, self.elim_set, self.assign
        for var in range(1, self.num_vars + 1):
            if self.contradiction:
                break
            if var in frozen or var in elim_set or var in assign:
                continue
            total = len(occ[var]) + len(occ[-var])
            if total == 0 or total > limit:
                continue  # never constrained, or too costly to resolve
            if self._try_eliminate(var):
                changed = True
                self.propagate()
        return changed

    def _try_eliminate(self, var: int) -> bool:
        clauses = self.clauses
        occ = self.occ
        pos = list(occ[var])
        neg = list(occ[-var])
        resolvents: list[list[int]] = []
        if pos and neg:
            budget = len(pos) + len(neg) + self.elim_growth
            width = self.elim_clause_limit
            nrests = [[l for l in clauses[ni] if l != -var] for ni in neg]
            seen: set[frozenset[int]] = set()
            for pi in pos:
                prest = [l for l in clauses[pi] if l != var]
                clash = {-l for l in prest}
                for nrest in nrests:
                    if not clash.isdisjoint(nrest):
                        continue  # tautological resolvent
                    merged = prest + [l for l in nrest if l not in prest]
                    if len(merged) > width:
                        return False  # resolvent too wide: abort this var
                    key = frozenset(merged)
                    if key in seen:
                        continue
                    seen.add(key)
                    resolvents.append(merged)
                    if len(resolvents) > budget:
                        return False  # clause count would grow: abort
        saved = [clauses[i] for i in pos]
        saved += [clauses[i] for i in neg]
        for i in pos + neg:
            self._detach(i)
        self.eliminated.append((var, saved))
        self.elim_set.add(var)
        self.stats.eliminated_vars += 1
        self.stats.resolvents_added += len(resolvents)
        for merged in resolvents:
            if len(merged) == 1:
                self.unit_queue.append(merged[0])
                self.stats.units_derived += 1
            else:
                self._attach(merged)
        return True

    # -- driver --------------------------------------------------------------

    def run(self, max_rounds: int) -> PreprocessResult:
        if not self.contradiction:
            self.propagate()
        for _ in range(max_rounds):
            if self.contradiction:
                break
            self.stats.rounds += 1
            changed = self.backward_pass()
            if self.proof is None:
                # BVE is not a RUP step; under proof logging only the
                # subsumption/strengthening passes run.
                changed = self.eliminate_pass() or changed
                changed = self.backward_pass() or changed
            if not changed:
                break
        units = [
            (v if value else -v) for v, value in sorted(self.assign.items())
        ]
        surviving = [c for c in self.clauses if c is not None]
        return PreprocessResult(
            num_vars=self.num_vars,
            units=[] if self.contradiction else units,
            clauses=[] if self.contradiction else surviving,
            eliminated=self.eliminated,
            contradiction=self.contradiction,
            stats=self.stats,
        )


def preprocess_clauses(
    num_vars: int,
    clauses: Iterable[Iterable[int]],
    frozen: Iterable[int] = (),
    *,
    elim_occ_limit: int = 16,
    elim_growth: int = 0,
    elim_clause_limit: int = 16,
    max_rounds: int = 3,
    proof=None,
) -> PreprocessResult:
    """Preprocess a clause set; *frozen* variables are never eliminated.

    Limits: a variable is only eliminated when it occurs in at most
    *elim_occ_limit* clauses, no resolvent exceeds *elim_clause_limit*
    literals, and the clause count grows by at most *elim_growth*
    (``elim_occ_limit=0`` disables elimination altogether).

    *proof*, when given, is a DRAT :class:`~repro.sat.drat.Proof` that
    receives add/delete lines for every transformation; variable
    elimination is skipped in that case (it is not RUP).
    """
    worker = _Worker(
        num_vars,
        clauses,
        frozenset(abs(v) for v in frozen),
        elim_occ_limit,
        elim_growth,
        elim_clause_limit,
        proof=proof,
    )
    return worker.run(max_rounds)


def reconstruct_model(
    model: dict[int, bool],
    eliminated: Sequence[tuple[int, Sequence[Sequence[int]]]],
) -> dict[int, bool]:
    """Extend *model* over the eliminated variables (returns a new dict).

    Walks the elimination stack backwards; each variable is set to
    satisfy whichever of its saved clauses is not already satisfied by
    the rest of the model (BVE guarantees at most one polarity is
    forcing, because every resolvent was added back).
    """
    out = dict(model)
    for var, saved in reversed(eliminated):
        value = False
        for clause in saved:
            through: int | None = None
            satisfied = False
            for lit in clause:
                v = lit if lit > 0 else -lit
                if v == var:
                    through = lit
                elif (lit > 0) == out.get(v, False):
                    satisfied = True
                    break
            if not satisfied and through is not None:
                value = through > 0
                break
        out[var] = value
    return out


def preprocess_solver(
    solver: Solver,
    frozen: Iterable[int] = (),
    *,
    elim_occ_limit: int = 16,
    elim_growth: int = 0,
    elim_clause_limit: int = 16,
    max_rounds: int = 3,
) -> PreprocessStats:
    """Preprocess *solver*'s clause database in place.

    Must be called at decision level 0. The solver's problem clauses and
    root-level units are rewritten to the preprocessed form; learnt
    clauses are discarded (they are implied and may mention eliminated
    variables). Eliminated variables are registered through
    :meth:`~repro.sat.solver.Solver.install_elimination`, so later
    models are reconstructed transparently and any attempt to mention an
    eliminated variable raises.

    Not compatible with DRAT proof logging: variable elimination steps
    are not RUP, so preprocessing a proof-logging solver raises.
    """
    if solver.proof is not None:
        raise SolverStateError(
            "preprocessing is not supported with DRAT proof logging "
            "(variable elimination is not a RUP step)"
        )
    if solver._trail_lim:
        raise SolverStateError("preprocess requires decision level 0")
    if solver._unsat:
        return PreprocessStats()
    # Streamed, so the solver's clauses exist as lists only inside the
    # preprocessor: a materialised copy would outlive several garbage
    # collections and bring on a full one.
    arena = solver._arena
    clauses = (arena.literals(cref) for cref in solver._clauses)
    units = [[u] for u in solver._trail]
    result = preprocess_clauses(
        solver.num_vars,
        chain(clauses, units),
        frozen,
        elim_occ_limit=elim_occ_limit,
        elim_growth=elim_growth,
        elim_clause_limit=elim_clause_limit,
        max_rounds=max_rounds,
    )
    # Rebuild the database: a fresh arena with the preprocessed units and
    # clauses (learnt clauses are discarded — they are implied and may
    # mention eliminated variables). The solve_step restart cursor is
    # reset: the old resume state referred to a database that no longer
    # exists, so a resumed interleaved search starts a fresh Luby column
    # instead of replaying a stale one.
    if result.contradiction:
        solver._replace_database([], [])
        solver._unsat = True
        solver._step_attempt = 0
        return result.stats
    solver.install_elimination(result.eliminated)
    solver._replace_database(result.units, result.clauses)
    solver._step_attempt = 0
    return result.stats
