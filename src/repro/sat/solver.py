"""A conflict-driven clause-learning (CDCL) SAT solver.

This is a MiniSat-lineage solver implemented in pure Python:

- two-watched-literal unit propagation over a **flat clause arena**
  (:class:`repro.sat.clause.ClauseArena`) with blocker literals and
  dedicated binary-implication lists,
- first-UIP conflict analysis with recursive-free clause minimization,
- VSIDS variable activities with phase saving,
- Luby-sequence restarts,
- learnt-clause database reduction driven by LBD and activity, with
  garbage collection by arena compaction (watcher lists are rebuilt
  from scratch, so no stale watcher can survive a reduction),
- inprocessing between restarts: clause vivification plus
  subsumption/self-subsumption (via :mod:`repro.sat.preprocess`),
- incremental solving under assumptions with unsat-core extraction.

Clause storage (the tentpole of the PR-6 rework): every clause lives in
one contiguous ``array('i')`` of ``[size, lit, lit, ...]`` blocks and is
identified by an integer *cref* (the offset of its size word; 0 means
"no clause"). Watcher lists are flat per-literal ``list[int]`` buffers —
``[cref, blocker, cref, blocker, ...]`` for clauses of three or more
literals and ``[other_lit, cref, ...]`` for binary clauses — so the
propagation loop touches no per-clause Python objects at all.

The feature switches (``enable_vsids``, ``enable_learning``,
``enable_restarts``, ``enable_phase_saving``, ``enable_inprocessing``)
exist so the ablation benchmarks can quantify what each heuristic buys
(DESIGN.md §6).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Sequence

from repro.errors import BudgetExceededError, SolverStateError
from repro.sat.clause import ClauseArena
from repro.sat.literals import check_literal, var_of

_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100

#: VSIDS variable-activity and clause-activity decay factors.
_VAR_DECAY = 0.95
_CLAUSE_DECAY = 0.999

#: Minimum lazy-heap size before duplicate-entry pressure triggers a rebuild.
_HEAP_REBUILD_FLOOR = 32

#: Arena size (in ints) below which ablation-mode garbage collection waits.
_ARENA_GC_FLOOR = 1 << 16


def luby(i: int) -> int:
    """Return the *i*-th element (1-indexed) of the Luby restart sequence.

    The sequence is 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
    """
    if i < 1:
        raise ValueError(f"Luby sequence is 1-indexed, got {i}")
    x = i - 1  # the classic recurrence is 0-based
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x = x % size
    return 1 << seq


@dataclass
class SolverStats:
    """Counters accumulated over the lifetime of a :class:`Solver`."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learnt_clauses: int = 0
    deleted_clauses: int = 0
    minimized_literals: int = 0
    inprocessings: int = 0
    vivified_clauses: int = 0
    vivified_literals: int = 0
    inprocess_subsumed: int = 0
    inprocess_strengthened: int = 0
    arena_compactions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "decisions": self.decisions,
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "restarts": self.restarts,
            "learnt_clauses": self.learnt_clauses,
            "deleted_clauses": self.deleted_clauses,
            "minimized_literals": self.minimized_literals,
            "inprocessings": self.inprocessings,
            "vivified_clauses": self.vivified_clauses,
            "vivified_literals": self.vivified_literals,
            "inprocess_subsumed": self.inprocess_subsumed,
            "inprocess_strengthened": self.inprocess_strengthened,
            "arena_compactions": self.arena_compactions,
        }


@dataclass
class SolverProgress:
    """One point-in-time snapshot of a running search.

    Emitted through the solver's optional progress callback every
    ``progress_interval`` conflicts, at every restart, and once when a
    ``solve_limited`` call returns. Rates are cumulative over the current
    solve call.
    """

    event: str  # "sample" | "restart" | "final"
    elapsed_s: float
    conflicts: int
    propagations: int
    decisions: int
    restarts: int
    trail_depth: int
    learnt_db_size: int
    conflicts_per_s: float
    propagations_per_s: float

    def as_dict(self) -> dict[str, float | int | str]:
        return {
            "event": self.event,
            "elapsed_s": self.elapsed_s,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
            "decisions": self.decisions,
            "restarts": self.restarts,
            "trail_depth": self.trail_depth,
            "learnt_db_size": self.learnt_db_size,
            "conflicts_per_s": self.conflicts_per_s,
            "propagations_per_s": self.propagations_per_s,
        }


ProgressCallback = Callable[[SolverProgress], None]


@dataclass
class SolveResult:
    """Outcome of a :meth:`Solver.solve_limited` call.

    ``satisfiable`` is ``None`` when the conflict budget ran out before a
    verdict was reached.
    """

    satisfiable: bool | None
    model: dict[int, bool] | None = None
    core: list[int] | None = None
    stats: dict[str, int] = field(default_factory=dict)


class Solver:
    """CDCL SAT solver over DIMACS-style integer literals.

    Typical use::

        s = Solver()
        a, b, c = (s.new_var() for _ in range(3))
        s.add_clause([a, b])
        s.add_clause([-a, c])
        if s.solve():
            print(s.value(c))

    The solver is incremental: clauses may be added between ``solve()``
    calls, and ``solve(assumptions=[...])`` checks satisfiability under a
    temporary set of literal assumptions. After an unsatisfiable
    assumption-based call, :meth:`unsat_core` returns the subset of
    assumptions responsible.
    """

    def __init__(
        self,
        enable_vsids: bool = True,
        enable_learning: bool = True,
        enable_restarts: bool = True,
        enable_phase_saving: bool = True,
        restart_base: int = 100,
        proof_logging: bool = False,
        progress_callback: ProgressCallback | None = None,
        progress_interval: int = 2048,
        enable_inprocessing: bool = True,
        inprocess_interval: int = 3000,
        vivify_budget: int = 20000,
    ):
        self._num_vars = 0
        # Literal-indexed truth values with the negative-index trick:
        # ``_assign[lit]`` is > 0 when *lit* is true, < 0 when false, 0
        # when unassigned, for positive AND negative lits alike (negative
        # literals index from the end of the list). Slots [0..cap] hold
        # positive literals, [cap+1..2cap] the negatives; var-indexed
        # reads (``_assign[v]``) therefore also work unchanged. The hot
        # loop reads one subscript per truth test — no sign branch, no
        # negation. Capacity doubles as variables are allocated.
        self._lit_cap = 64
        self._assign: list[int] = [0] * (2 * self._lit_cap + 1)
        # Indexed by variable (1-based); slot 0 unused.
        self._level: list[int] = [0]
        self._reason: list[int] = [0]  # cref of the implying clause; 0 = none
        self._phase: list[bool] = [False]
        self._activity: list[float] = [0.0]
        self._seen = bytearray(1)  # scratch for _analyze, kept all-zero
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._arena = ClauseArena()
        # Watcher lists, literal-indexed like ``_assign``: a clause
        # watching literal L is listed in ``_watch[L]`` and visited when
        # L becomes false. Long clauses store (cref, blocker) pairs;
        # binary clauses store (other_lit, cref) pairs in ``_bwatch``.
        self._watch: list[list[int]] = [[] for _ in range(2 * self._lit_cap + 1)]
        self._bwatch: list[list[int]] = [[] for _ in range(2 * self._lit_cap + 1)]
        self._clauses: list[int] = []  # problem clause crefs
        self._learnts: list[int] = []  # learnt clause crefs
        self._cla_activity: dict[int, float] = {}
        self._cla_lbd: dict[int, int] = {}
        self._order_heap: list[tuple[float, int]] = []
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._max_learnts = 1000.0
        self._arena_gc_limit = _ARENA_GC_FLOOR
        self._unsat = False
        self._model: dict[int, bool] | None = None
        self._core: list[int] | None = None
        self._enable_vsids = enable_vsids
        self._enable_learning = enable_learning
        self._enable_restarts = enable_restarts
        self._enable_phase_saving = enable_phase_saving
        self._enable_inprocessing = enable_inprocessing
        self._inprocess_interval = max(1, inprocess_interval)
        self._next_inprocess = self._inprocess_interval
        self._vivify_budget = vivify_budget
        self._restart_base = restart_base
        self._step_attempt = 0
        # Variables removed by preprocessing (bounded variable
        # elimination). They carry no clauses, must never be mentioned
        # again, and are re-valued on every model through the
        # reconstruction stack (repro.sat.preprocess).
        self._eliminated: set[int] = set()
        self._elim_stack: list[tuple[int, list[list[int]]]] = []
        self.stats = SolverStats()
        self._progress_cb = progress_callback
        self._progress_interval = max(1, progress_interval)
        self._solve_start = 0.0
        self._conflicts_at_start = 0
        self._propagations_at_start = 0
        if proof_logging:
            from repro.sat.drat import Proof

            self.proof: "Proof | None" = Proof()
        else:
            self.proof = None

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Number of variables allocated so far."""
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Number of problem (non-learnt) clauses currently stored."""
        return len(self._clauses)

    def new_var(self) -> int:
        """Allocate a fresh variable and return it (a positive int)."""
        self._num_vars += 1
        v = self._num_vars
        if v > self._lit_cap:
            self._grow_literal_tables(2 * self._lit_cap)
        self._level.append(0)
        self._reason.append(0)
        self._seen.append(0)
        self._phase.append(False)
        self._activity.append(0.0)
        heapq.heappush(self._order_heap, (0.0, v))
        return v

    def new_vars(self, n: int) -> list[int]:
        """Allocate *n* fresh variables and return them."""
        return [self.new_var() for _ in range(n)]

    def ensure_vars(self, max_var: int) -> None:
        """Allocate variables until *max_var* exists."""
        while self._num_vars < max_var:
            self.new_var()

    def _grow_literal_tables(self, new_cap: int) -> None:
        """Double the capacity of the literal-indexed tables.

        Negative literals index from the end of each table, so growing
        means rebuilding: positive slots keep their index, negative slots
        move to the end of the longer list.
        """
        mid = self._lit_cap + 1  # first negative slot
        added = 2 * (new_cap - self._lit_cap)
        assign = self._assign
        self._assign = assign[:mid] + [0] * added + assign[mid:]
        watch = self._watch
        self._watch = watch[:mid] + [[] for _ in range(added)] + watch[mid:]
        bwatch = self._bwatch
        self._bwatch = bwatch[:mid] + [[] for _ in range(added)] + bwatch[mid:]
        self._lit_cap = new_cap

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; return ``False`` if the formula became trivially unsat.

        Duplicates are removed and tautological clauses silently dropped.
        Literals already false at the root level are stripped; a clause
        emptied this way marks the formula unsatisfiable. Any previously
        computed model or core is invalidated — callers must re-solve
        before reading :meth:`model`/:meth:`value`/:meth:`unsat_core`.
        A clause rejected with an error leaves the solver unchanged.
        """
        if self._trail_lim:
            raise SolverStateError("clauses may only be added at decision level 0")
        if self._unsat:
            return False
        # One pass validates, finds eliminated variables and normalises.
        # Every literal is validated, even after a tautology or a root-
        # satisfied literal, and an invalid literal is reported before
        # an eliminated variable; nothing changes until all have passed.
        num_vars = self._num_vars
        assign = self._assign
        eliminated = self._eliminated
        elim_var = 0
        satisfied = False
        stripped = False
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if type(lit) is not int or not -num_vars <= lit <= num_vars or not lit:
                check_literal(lit, num_vars)  # raises, or passes an int subclass
            if eliminated and (lit if lit > 0 else -lit) in eliminated:
                elim_var = elim_var or (lit if lit > 0 else -lit)
            if satisfied or lit in seen:
                continue
            val = assign[lit]
            if val > 0 or -lit in seen:
                satisfied = True  # satisfied at root level, or a tautology
            elif val < 0:
                stripped = True  # falsified at root level: drop the literal
            else:
                seen.add(lit)
                out.append(lit)
        if elim_var:
            raise SolverStateError(
                f"variable {elim_var} was eliminated by "
                "preprocessing and cannot appear in new clauses; "
                "freeze it before preprocessing"
            )
        self._model = None
        self._core = None
        if satisfied:
            return True
        if not out:
            self._unsat = True
            if self.proof is not None:
                self.proof.add([])
            return False
        if stripped and self.proof is not None:
            # The solver works with the strengthened clause, so the proof
            # must derive it: it is RUP from the original clause plus the
            # root-level units that falsified the stripped literals.
            self.proof.add(out)
        if len(out) == 1:
            self._enqueue(out[0], 0)
            if self._propagate() is not None:
                self._unsat = True
                if self.proof is not None:
                    self.proof.add([])
                return False
            return True
        cref = self._arena.add(out)
        self._clauses.append(cref)
        self._watch_clause(cref, out)
        return True

    def add_clauses(self, clause_list: Iterable[Iterable[int]]) -> bool:
        """Add many clauses; return ``False`` once trivially unsat."""
        ok = True
        for lits in clause_list:
            ok = self.add_clause(lits) and ok
        return ok

    def clause_literals(self) -> list[list[int]]:
        """The current problem clauses, as fresh literal lists."""
        arena = self._arena
        return [arena.literals(cref) for cref in self._clauses]

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def set_progress_callback(
        self, callback: ProgressCallback | None, interval: int = 2048
    ) -> None:
        """Install (or clear) the progress-sampling callback.

        *callback* receives a :class:`SolverProgress` snapshot every
        *interval* conflicts, at every restart, and once per
        :meth:`solve_limited` call when it returns.
        """
        self._progress_cb = callback
        self._progress_interval = max(1, interval)

    def _emit_progress(self, event: str) -> None:
        elapsed = time.perf_counter() - self._solve_start
        safe = elapsed if elapsed > 0 else 1e-9
        # Rates cover the current solve call only: lifetime counters
        # divided by per-call elapsed time would overstate throughput
        # badly under incremental solving.
        conflicts_here = self.stats.conflicts - self._conflicts_at_start
        propagations_here = self.stats.propagations - self._propagations_at_start
        self._progress_cb(SolverProgress(
            event=event,
            elapsed_s=elapsed,
            conflicts=self.stats.conflicts,
            propagations=self.stats.propagations,
            decisions=self.stats.decisions,
            restarts=self.stats.restarts,
            trail_depth=len(self._trail),
            learnt_db_size=len(self._learnts),
            conflicts_per_s=conflicts_here / safe,
            propagations_per_s=propagations_here / safe,
        ))

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Decide satisfiability (under optional *assumptions*).

        Returns ``True`` when a model exists; it is then available via
        :meth:`value` and :meth:`model`. Returns ``False`` otherwise; when
        assumptions were given, :meth:`unsat_core` names the culprits.
        """
        result = self.solve_limited(assumptions, conflict_budget=None)
        assert result.satisfiable is not None
        return result.satisfiable

    def solve_limited(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: int | None = None,
    ) -> SolveResult:
        """Like :meth:`solve` but bounded by a conflict budget.

        ``satisfiable`` is ``None`` in the result when the budget ran out.
        """
        self._check_assumptions(assumptions)
        self._model = None
        self._core = None
        self._solve_start = time.perf_counter()
        self._conflicts_at_start = self.stats.conflicts
        self._propagations_at_start = self.stats.propagations
        if self._unsat:
            self._core = []
            return SolveResult(False, core=[], stats=self.stats.as_dict())
        self._cancel_until(0)
        if self._propagate() is not None:
            self._unsat = True
            self._core = []
            if self.proof is not None:
                self.proof.add([])
            return SolveResult(False, core=[], stats=self.stats.as_dict())

        assumptions = list(assumptions)
        spent = 0
        attempt = 0
        status: bool | None = None
        while status is None:
            attempt += 1
            if self._enable_restarts:
                budget = luby(attempt) * self._restart_base
            else:
                budget = None
            if conflict_budget is not None:
                remaining = conflict_budget - spent
                if remaining <= 0:
                    break
                budget = remaining if budget is None else min(budget, remaining)
            status, used = self._search(budget, assumptions)
            spent += used
            if status is None:
                self.stats.restarts += 1
                self._cancel_until(0)
                # Inprocessing runs at restart boundaries keyed off the
                # lifetime conflict counter, so an interrupted solve
                # (solve_step) simplifies at exactly the same points as
                # an uninterrupted one — the trajectories stay identical.
                self._maybe_inprocess()
                if self._unsat:
                    self._core = []
                    return SolveResult(
                        False, core=[], stats=self.stats.as_dict()
                    )
                if self._progress_cb is not None:
                    self._emit_progress("restart")
        self._cancel_until(0)
        if self._progress_cb is not None:
            self._emit_progress("final")
        return SolveResult(
            satisfiable=status,
            model=dict(self._model) if self._model is not None else None,
            core=list(self._core) if self._core is not None else None,
            stats=self.stats.as_dict(),
        )

    def solve_step(self, assumptions: Sequence[int] = ()) -> SolveResult:
        """Run exactly one restart segment of the search (resumable solve).

        Each call advances a persistent Luby restart counter, runs CDCL
        until that segment's conflict budget is spent or a verdict is
        reached, and returns. ``satisfiable`` is ``None`` while the
        search is still open — call again (with the *same* assumptions)
        to continue. Because CDCL restarts cancel to the root level
        anyway, a sequence of ``solve_step`` calls follows the *same
        trajectory* as one uninterrupted :meth:`solve`, so a caller can
        check a deadline between segments without perturbing the search.
        Inprocessing preserves this: it fires at the same conflict-count
        boundaries either way.

        With ``enable_restarts=False`` a single call runs to completion.
        """
        self._check_assumptions(assumptions)
        self._model = None
        self._core = None
        self._solve_start = time.perf_counter()
        self._conflicts_at_start = self.stats.conflicts
        self._propagations_at_start = self.stats.propagations
        if self._unsat:
            self._core = []
            return SolveResult(False, core=[], stats=self.stats.as_dict())
        self._cancel_until(0)
        if self._propagate() is not None:
            self._unsat = True
            self._core = []
            if self.proof is not None:
                self.proof.add([])
            return SolveResult(False, core=[], stats=self.stats.as_dict())
        if self._enable_restarts:
            self._step_attempt += 1
            budget = luby(self._step_attempt) * self._restart_base
        else:
            budget = None
        status, _ = self._search(budget, list(assumptions))
        if status is None:
            self.stats.restarts += 1
            self._cancel_until(0)
            self._maybe_inprocess()
            if self._unsat:
                self._core = []
                return SolveResult(False, core=[], stats=self.stats.as_dict())
            if self._progress_cb is not None:
                self._emit_progress("restart")
            return SolveResult(None, stats=self.stats.as_dict())
        self._cancel_until(0)
        if self._progress_cb is not None:
            self._emit_progress("final")
        return SolveResult(
            satisfiable=status,
            model=dict(self._model) if self._model is not None else None,
            core=list(self._core) if self._core is not None else None,
            stats=self.stats.as_dict(),
        )

    def solve_or_raise(
        self, assumptions: Sequence[int] = (), conflict_budget: int | None = None
    ) -> bool:
        """Like :meth:`solve_limited` but raising on budget exhaustion."""
        result = self.solve_limited(assumptions, conflict_budget)
        if result.satisfiable is None:
            raise BudgetExceededError(
                f"no verdict within {conflict_budget} conflicts"
            )
        return result.satisfiable

    def value(self, lit: int) -> bool | None:
        """Truth value of *lit* in the most recent model (None if unassigned)."""
        if self._model is None:
            raise SolverStateError("no model available; call solve() first")
        v = var_of(lit)
        if v not in self._model:
            return None
        val = self._model[v]
        return val if lit > 0 else not val

    def model(self) -> dict[int, bool]:
        """The most recent model, as a ``{variable: bool}`` mapping."""
        if self._model is None:
            raise SolverStateError("no model available; call solve() first")
        return dict(self._model)

    def unsat_core(self) -> list[int]:
        """Assumption literals responsible for the last UNSAT answer."""
        if self._core is None:
            raise SolverStateError(
                "no unsat core available; the last solve() call must have "
                "returned False under assumptions"
            )
        return list(self._core)

    def top_activity_vars(self, k: int) -> list[int]:
        """The *k* hottest branchable variables by VSIDS activity.

        Excludes root-fixed and eliminated variables. Ties break on the
        lower variable index, so the ranking is deterministic for a given
        search trajectory. Cube-and-conquer (``repro.par.cubes``) splits
        on these after a probe solve has warmed the activities.
        """
        assign = self._assign
        level = self._level
        eliminated = self._eliminated
        candidates = [
            v for v in range(1, self._num_vars + 1)
            if v not in eliminated and not (assign[v] != 0 and level[v] == 0)
        ]
        candidates.sort(key=lambda v: (-self._activity[v], v))
        return candidates[:k]

    def preferred_phase(self, v: int) -> bool:
        """The saved polarity branching would try first for variable *v*."""
        return bool(self._phase[v])

    def root_units(self) -> list[int]:
        """Literals fixed at decision level 0.

        These are consequences of the clause database alone (assumptions
        live at levels >= 1), so they may be asserted as unit clauses in
        any other solver working on the same CNF — the lemma-sharing
        channel between cube-and-conquer workers.
        """
        level = self._level
        return [
            lit for lit in self._trail
            if level[lit if lit > 0 else -lit] == 0
        ]

    # ------------------------------------------------------------------
    # Preprocessing hooks (repro.sat.preprocess)
    # ------------------------------------------------------------------

    @property
    def eliminated_vars(self) -> frozenset[int]:
        """Variables removed by preprocessing (never decide/mention them)."""
        return frozenset(self._eliminated)

    def install_elimination(
        self, stack: Sequence[tuple[int, Sequence[Sequence[int]]]]
    ) -> None:
        """Register variables eliminated by preprocessing.

        *stack* lists ``(var, saved_clauses)`` in elimination order, where
        *saved_clauses* are the original clauses mentioning *var* at the
        time it was eliminated. Eliminated variables are excluded from
        branching, rejected in new clauses and assumptions, and re-valued
        on every model by :meth:`_reconstruct_model` (in reverse order, so
        each saved clause only reads already-reconstructed values). The
        solver keeps the saved clauses as given, without copying them.
        """
        for var, saved in stack:
            self._elim_stack.append((var, saved))
            self._eliminated.add(var)
        self._rebuild_heap()

    def _reconstruct_model(self, model: dict[int, bool]) -> None:
        """Extend a model over surviving vars to the eliminated ones."""
        for var, saved in reversed(self._elim_stack):
            value = False
            for clause in saved:
                through: int | None = None
                satisfied = False
                for lit in clause:
                    v = lit if lit > 0 else -lit
                    if v == var:
                        through = lit
                    elif (lit > 0) == model.get(v, False):
                        satisfied = True
                        break
                if not satisfied and through is not None:
                    # The clause must be satisfied through *var*; variable
                    # elimination guarantees no opposite-polarity clause is
                    # simultaneously forcing (their resolvent holds).
                    value = through > 0
                    break
            model[var] = value

    def _check_assumptions(self, assumptions: Sequence[int]) -> None:
        num_vars = self._num_vars
        eliminated = self._eliminated
        for lit in assumptions:
            if type(lit) is not int or not -num_vars <= lit <= num_vars or not lit:
                check_literal(lit, num_vars)  # raises, or passes an int subclass
            if eliminated and (lit if lit > 0 else -lit) in eliminated:
                raise SolverStateError(
                    f"assumption {lit} mentions variable {var_of(lit)}, "
                    "which was eliminated by preprocessing; freeze it "
                    "before preprocessing"
                )

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------

    def _value_lit(self, lit: int) -> bool | None:
        val = self._assign[var_of(lit)]
        if val == 0:
            return None
        return (val > 0) == (lit > 0)

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _watch_clause(self, cref: int, lits: Sequence[int]) -> None:
        """Register watchers for the clause at *cref* on lits[0]/lits[1]."""
        a, b = lits[0], lits[1]
        if len(lits) == 2:
            self._bwatch[a].extend((b, cref))
            self._bwatch[b].extend((a, cref))
        else:
            self._watch[a].extend((cref, b))
            self._watch[b].extend((cref, a))

    def _enqueue(self, lit: int, reason: int = 0) -> None:
        v = lit if lit > 0 else -lit
        s = 1 if lit > 0 else -1
        self._assign[v] = s
        self._assign[-v] = -s
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        if self._enable_phase_saving:
            self._phase[v] = lit > 0
        self._trail.append(lit)

    def _propagate(self) -> int | None:
        """Unit propagation; return a conflicting cref or None.

        This is the solver's hottest loop. Everything it touches per
        literal is bound to a local up front (attribute loads dominate in
        CPython); truth values are read straight off the assignment array
        with the sign-folding idiom ``assign[l] if l > 0 else -assign[-l]``
        (> 0 true, < 0 false, 0 unassigned); binary clauses take a
        dedicated no-search path; and long clauses are only decoded from
        the arena after their cached blocker literal fails to satisfy.
        """
        trail = self._trail
        assign = self._assign  # literal-indexed: one subscript per test
        level = self._level
        reason = self._reason
        phase = self._phase
        save_phase = self._enable_phase_saving
        arena = self._arena.data
        watch = self._watch
        bwatch = self._bwatch
        dl = len(self._trail_lim)
        qhead = self._qhead
        propagations = 0
        conflict: int | None = None
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            propagations += 1
            false_lit = -p
            # Binary implications: no watch juggling, straight to enqueue.
            bw = bwatch[false_lit]
            if bw:
                for j in range(0, len(bw), 2):
                    other = bw[j]
                    v = assign[other]
                    if v > 0:
                        continue
                    if v < 0:
                        conflict = bw[j + 1]
                        qhead = len(trail)
                        break
                    assign[other] = 1
                    assign[-other] = -1
                    ov = other if other > 0 else -other
                    level[ov] = dl
                    reason[ov] = bw[j + 1]
                    if save_phase:
                        phase[ov] = other > 0
                    trail.append(other)
                if conflict is not None:
                    break
            # Long clauses: two watched literals with in-place compaction.
            ws = watch[false_lit]
            if not ws:
                continue
            i = 0
            j2 = 0
            n = len(ws)
            while i < n:
                blocker = ws[i + 1]
                if assign[blocker] > 0:
                    if j2 != i:
                        ws[j2] = ws[i]
                        ws[j2 + 1] = blocker
                    i += 2
                    j2 += 2
                    continue
                cref = ws[i]
                base = cref + 1
                # Ensure the false literal sits at arena position 1.
                first = arena[base]
                if first == false_lit:
                    arena[base] = arena[base + 1]
                    arena[base + 1] = false_lit
                    first = arena[base]
                fv = assign[first]
                if fv > 0:
                    if j2 != i:
                        ws[j2] = cref
                    ws[j2 + 1] = first
                    i += 2
                    j2 += 2
                    continue
                # Look for a replacement watch.
                end = base + arena[cref]
                moved = False
                for k in range(base + 2, end):
                    lk = arena[k]
                    if assign[lk] >= 0:
                        arena[base + 1] = lk
                        arena[k] = false_lit
                        watch[lk].extend((cref, first))
                        moved = True
                        break
                if moved:
                    i += 2
                    continue
                # Clause is unit or conflicting: keep the watcher.
                if j2 != i:
                    ws[j2] = cref
                ws[j2 + 1] = first
                i += 2
                j2 += 2
                if fv < 0:
                    conflict = cref
                    while i < n:
                        ws[j2] = ws[i]
                        ws[j2 + 1] = ws[i + 1]
                        i += 2
                        j2 += 2
                    qhead = len(trail)
                    break
                assign[first] = 1
                assign[-first] = -1
                fvv = first if first > 0 else -first
                level[fvv] = dl
                reason[fvv] = cref
                if save_phase:
                    phase[fvv] = first > 0
                trail.append(first)
            if j2 != i:
                del ws[j2:]
            if conflict is not None:
                break
        self._qhead = qhead
        self.stats.propagations += propagations
        return conflict

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        trail = self._trail
        assign = self._assign
        reasons = self._reason
        bound = self._trail_lim[level]
        count = len(trail) - bound
        # Massive backtracks (e.g. after a long propagation chain) re-heap
        # in one O(n) pass instead of count * O(log n) pushes.
        bulk = count > 512 and 2 * count >= self._num_vars
        if bulk:
            for i in range(len(trail) - 1, bound - 1, -1):
                lit = trail[i]
                v = lit if lit > 0 else -lit
                assign[v] = 0
                assign[-v] = 0
                reasons[v] = 0
        else:
            heap = self._order_heap
            activity = self._activity
            for i in range(len(trail) - 1, bound - 1, -1):
                lit = trail[i]
                v = lit if lit > 0 else -lit
                assign[v] = 0
                assign[-v] = 0
                reasons[v] = 0
                heapq.heappush(heap, (-activity[v], v))
        del trail[bound:]
        del self._trail_lim[level:]
        self._qhead = len(trail)
        if bulk:
            self._rebuild_heap()
        else:
            self._maybe_compact_heap()

    def _decide_var(self) -> int | None:
        eliminated = self._eliminated
        if len(self._trail) + len(eliminated) >= self._num_vars:
            # Everything decidable is assigned (eliminated vars are never
            # on the trail): don't drain the heap to find that out.
            return None
        if self._enable_vsids:
            heap = self._order_heap
            activity = self._activity
            assign = self._assign
            while heap:
                neg_act, v = heapq.heappop(heap)
                # Lazy deletion: skip assigned variables and entries whose
                # recorded activity is stale (a fresher duplicate exists).
                if assign[v] == 0 and -neg_act == activity[v] and v not in eliminated:
                    return v
            # Heap exhausted by stale entries: fall through to linear scan.
        for v in range(1, self._num_vars + 1):
            if self._assign[v] == 0 and v not in eliminated:
                return v
        return None

    def _bump_var(self, v: int) -> None:
        self._activity[v] += self._var_inc
        if self._activity[v] > _RESCALE_LIMIT:
            for u in range(1, self._num_vars + 1):
                self._activity[u] *= _RESCALE_FACTOR
            self._var_inc *= _RESCALE_FACTOR
            self._rebuild_heap()
        elif self._assign[v] == 0:
            heapq.heappush(self._order_heap, (-self._activity[v], v))
            self._maybe_compact_heap()

    def _maybe_compact_heap(self) -> None:
        """Rebuild once stale/duplicate entries dominate the order heap.

        Every backtrack pushes a fresh entry without removing the old
        one; without this check the heap grows without bound on
        conflict-heavy instances.
        """
        if len(self._order_heap) > max(_HEAP_REBUILD_FLOOR, 2 * self._num_vars):
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        self._order_heap = [
            (-self._activity[v], v)
            for v in range(1, self._num_vars + 1)
            if self._assign[v] == 0 and v not in self._eliminated
        ]
        heapq.heapify(self._order_heap)

    def _decay_activities(self) -> None:
        self._var_inc /= _VAR_DECAY
        self._cla_inc /= _CLAUSE_DECAY

    def _analyze(self, confl: int) -> tuple[list[int], int, int]:
        """First-UIP conflict analysis.

        Returns ``(learnt_clause, backjump_level, lbd)`` where the asserting
        literal is at position 0 of the learnt clause.

        ``self._seen`` is a persistent bytearray scratch (always all-zero
        between calls); variable bumps run inline with a deferred rescale,
        because every variable seen here is assigned and therefore never
        needs a heap push.
        """
        arena = self._arena.data
        level = self._level
        trail = self._trail
        reasons = self._reason
        seen = self._seen
        activity = self._activity
        var_inc = self._var_inc
        cla_act = self._cla_activity
        cla_inc = self._cla_inc
        touched: list[int] = []
        learnt: list[int] = [0]  # placeholder for the asserting literal
        counter = 0
        p = 0
        pv = 0
        index = len(trail) - 1
        cur_level = len(self._trail_lim)
        var_rescale = False
        cla_rescale = False
        while True:
            if confl in cla_act:
                a = cla_act[confl] + cla_inc
                cla_act[confl] = a
                if a > _RESCALE_LIMIT:
                    cla_rescale = True
            for qi in range(confl + 1, confl + 1 + arena[confl]):
                q = arena[qi]
                v = q if q > 0 else -q
                if seen[v] or level[v] == 0:
                    continue
                seen[v] = 1
                touched.append(v)
                a = activity[v] + var_inc
                activity[v] = a
                if a > _RESCALE_LIMIT:
                    var_rescale = True
                if level[v] >= cur_level:
                    counter += 1
                else:
                    learnt.append(q)
            # Walk back to the next marked literal on the trail.
            while True:
                p = trail[index]
                pv = p if p > 0 else -p
                if seen[pv]:
                    break
                index -= 1
            index -= 1
            counter -= 1
            if counter == 0:
                break
            confl = reasons[pv]
            assert confl, "non-decision literal must have a reason"
        learnt[0] = -p

        learnt = self._minimize_learnt(learnt, seen)
        if len(learnt) == 1:
            back_level = 0
        else:
            # Move the literal with the highest level to position 1.
            max_i = max(
                range(1, len(learnt)), key=lambda i: level[var_of(learnt[i])]
            )
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            back_level = level[var_of(learnt[1])]
        lbd = len({level[var_of(lit)] for lit in learnt})
        for v in touched:
            seen[v] = 0
        if var_rescale:
            for u in range(1, self._num_vars + 1):
                activity[u] *= _RESCALE_FACTOR
            self._var_inc *= _RESCALE_FACTOR
            self._rebuild_heap()
        if cla_rescale:
            for c in self._learnts:
                if c in cla_act:
                    cla_act[c] *= _RESCALE_FACTOR
            self._cla_inc *= _RESCALE_FACTOR
        return learnt, back_level, lbd

    def _minimize_learnt(self, learnt: list[int], seen: bytearray) -> list[int]:
        """Drop literals implied by the rest of the clause (local check)."""
        arena = self._arena.data
        level = self._level
        reasons = self._reason
        out = [learnt[0]]
        for lit in learnt[1:]:
            v = lit if lit > 0 else -lit
            r = reasons[v]
            if not r:
                out.append(lit)
                continue
            redundant = True
            for qi in range(r + 1, r + 1 + arena[r]):
                q = arena[qi]
                u = q if q > 0 else -q
                if u != v and not seen[u] and level[u] != 0:
                    redundant = False
                    break
            if redundant:
                self.stats.minimized_literals += 1
            else:
                out.append(lit)
        return out

    def _record_learnt(self, learnt: list[int], lbd: int) -> None:
        if self.proof is not None:
            self.proof.add(learnt)
        if len(learnt) == 1:
            self._enqueue(learnt[0], 0)
            return
        cref = self._arena.add(learnt)
        if self._enable_learning:
            self._learnts.append(cref)
            self._cla_activity[cref] = self._cla_inc
            self._cla_lbd[cref] = lbd
            self._watch_clause(cref, learnt)
            self.stats.learnt_clauses += 1
            self._enqueue(learnt[0], cref)
        else:
            # Ablation mode: the clause stays in the arena (so the
            # backjump assertion has a readable reason) but is never
            # watched or retained; _collect_garbage reclaims it.
            self._enqueue(learnt[0], cref)

    def _reduce_db(self) -> None:
        """Discard the least useful half of the learnt clauses.

        Ends with an arena compaction, which rebuilds every watcher list
        from scratch — deleted clauses cannot leave stale watchers behind
        in buckets propagation never visits.
        """
        arena = self._arena.data
        act = self._cla_activity
        lbd = self._cla_lbd
        reasons = self._reason
        self._learnts.sort(key=lambda c: (lbd[c], -act[c]))
        keep_from = len(self._learnts) // 2
        kept: list[int] = []
        proof = self.proof
        for i, cref in enumerate(self._learnts):
            first = arena[cref + 1]
            locked = reasons[first if first > 0 else -first] == cref
            if i < keep_from or arena[cref] <= 2 or locked:
                kept.append(cref)
            else:
                self.stats.deleted_clauses += 1
                if proof is not None:
                    proof.delete(self._arena.literals(cref))
                del act[cref]
                del lbd[cref]
        self._learnts = kept
        self._collect_garbage()

    def _collect_garbage(self) -> None:
        """Compact the arena down to live clauses and rebuild all watchers.

        Live clauses are the problem clauses, the retained learnts, and
        any clause still acting as the reason for a trail literal (e.g.
        ablation-mode learnts). Watch positions (arena slots 0/1) are
        preserved by compaction, so rebuilding watchers mid-search keeps
        the two-watched-literal invariant intact.
        """
        reasons = self._reason
        live = list(self._clauses)
        live.extend(self._learnts)
        for lit in self._trail:
            r = reasons[lit if lit > 0 else -lit]
            if r:
                live.append(r)
        arena, remap = self._arena.compact(live)
        self._arena = arena
        self._clauses = [remap[c] for c in self._clauses]
        self._learnts = [remap[c] for c in self._learnts]
        self._cla_activity = {
            remap[c]: a for c, a in self._cla_activity.items()
        }
        self._cla_lbd = {remap[c]: l for c, l in self._cla_lbd.items()}
        for lit in self._trail:
            v = lit if lit > 0 else -lit
            r = reasons[v]
            if r:
                reasons[v] = remap[r]
        self._rebuild_watches()
        self._arena_gc_limit = max(_ARENA_GC_FLOOR, 2 * len(arena.data))
        self.stats.arena_compactions += 1

    def _rebuild_watches(self) -> None:
        """Recreate every watcher list from the live clause sets.

        The lists are emptied in place, not reallocated, which spares
        thousands of allocations on every preprocessing pass.
        """
        for watchers in self._watch:
            watchers.clear()
        for watchers in self._bwatch:
            watchers.clear()
        arena = self._arena
        for cref in self._clauses:
            self._watch_clause(cref, arena.literals(cref))
        for cref in self._learnts:
            self._watch_clause(cref, arena.literals(cref))

    def watcher_stats(self) -> dict[str, int]:
        """Watcher-list accounting, for invariant checks and tests.

        Every live long clause must own exactly two entries across the
        long watcher lists, and every live binary clause exactly two
        entries across the binary lists — no more (stale watchers), no
        fewer (lost watchers).
        """
        arena = self._arena
        live = set(self._clauses) | set(self._learnts)
        long_live = sum(1 for c in live if arena.size(c) > 2)
        bin_live = len(live) - long_live
        long_entries = 0
        for ws in self._watch:
            long_entries += len(ws) // 2
        bin_entries = 0
        for bw in self._bwatch:
            bin_entries += len(bw) // 2
        return {
            "live_long_clauses": long_live,
            "live_binary_clauses": bin_live,
            "long_watcher_entries": long_entries,
            "binary_watcher_entries": bin_entries,
        }

    # ------------------------------------------------------------------
    # Inprocessing (vivification + subsumption between restarts)
    # ------------------------------------------------------------------

    def _maybe_inprocess(self) -> None:
        """Run inprocessing at a restart boundary when the schedule says so.

        The schedule is keyed off the lifetime conflict counter, so a
        solve interrupted into ``solve_step`` segments simplifies at the
        same points as an uninterrupted ``solve`` call.
        """
        if not self._enable_inprocessing:
            return
        if self.stats.conflicts < self._next_inprocess:
            return
        self._next_inprocess = self.stats.conflicts + self._inprocess_interval
        self._inprocess()

    def _inprocess(self) -> None:
        """Vivify + subsume the clause database at the root level.

        Every transformation is RUP-justified and mirrored into the DRAT
        proof (add the strengthened clause, then delete the original), so
        proofs stay checkable across inprocessing. Bounded variable
        elimination is explicitly disabled (``elim_occ_limit=0``): BVE is
        not a RUP step and would also invalidate outstanding assumption
        variables mid-solve.
        """
        self.stats.inprocessings += 1
        proof = self.proof
        problem = self._vivify()
        if self._unsat:
            return
        from repro.sat.preprocess import preprocess_clauses

        units = list(self._trail)
        result = preprocess_clauses(
            self._num_vars,
            problem + [[u] for u in units],
            frozen=(),
            elim_occ_limit=0,  # no BVE during inprocessing
            max_rounds=2,
            proof=proof,
        )
        if result.contradiction:
            self._unsat = True
            if proof is not None:
                proof.add([])
            return
        self.stats.inprocess_subsumed += result.stats.subsumed
        self.stats.inprocess_strengthened += result.stats.strengthened
        root = {u if u > 0 else -u: u > 0 for u in result.units}
        new_units = list(result.units)
        learnts: list[tuple[list[int], float, int]] = []
        arena = self._arena
        for cref in self._learnts:
            lits = arena.literals(cref)
            kept: list[int] = []
            satisfied = False
            for lit in lits:
                v = lit if lit > 0 else -lit
                val = root.get(v)
                if val is None:
                    kept.append(lit)
                elif val == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                if proof is not None:
                    proof.delete(lits)
                continue
            if not kept:
                self._unsat = True
                if proof is not None:
                    proof.add([])
                return
            if len(kept) < len(lits):
                if proof is not None:
                    proof.add(kept)
                    proof.delete(lits)
                if len(kept) == 1:
                    new_units.append(kept[0])
                    continue
            learnts.append(
                (kept, self._cla_activity[cref], self._cla_lbd[cref])
            )
        self._replace_database(new_units, result.clauses, learnts)

    def _vivify(self) -> list[list[int]]:
        """Shorten problem clauses by assume-and-propagate probing.

        Returns the surviving non-unit problem clauses as literal lists
        (the database itself is rebuilt afterwards by
        :meth:`_replace_database`). Probing temporarily disables phase
        saving so failed assumptions cannot perturb saved polarities —
        vivification must be invisible to the search trajectory except
        through the strengthened clauses themselves.
        """
        proof = self.proof
        budget = self._vivify_budget
        saved_phase = self._enable_phase_saving
        self._enable_phase_saving = False
        out: list[list[int]] = []
        arena = self._arena
        try:
            for cref in self._clauses:
                lits = arena.literals(cref)
                # Root-level filter: drop satisfied clauses, strip
                # falsified literals.
                kept: list[int] = []
                satisfied = False
                for lit in lits:
                    val = self._value_lit(lit)
                    if val is True:
                        satisfied = True
                        break
                    if val is None:
                        kept.append(lit)
                if satisfied:
                    if proof is not None:
                        proof.delete(lits)
                    continue
                if not kept:
                    self._unsat = True
                    if proof is not None:
                        proof.add([])
                    return out
                if len(kept) >= 2 and budget > 0:
                    budget -= len(kept)
                    new = self._vivify_probe(kept)
                else:
                    new = kept
                if len(new) < len(lits):
                    if len(new) < len(kept):
                        self.stats.vivified_clauses += 1
                        self.stats.vivified_literals += len(kept) - len(new)
                    if proof is not None:
                        proof.add(new)
                        proof.delete(lits)
                    if len(new) == 1:
                        self._enqueue(new[0], 0)
                        if self._propagate() is not None:
                            self._unsat = True
                            if proof is not None:
                                proof.add([])
                            return out
                        continue
                out.append(new)
        finally:
            self._enable_phase_saving = saved_phase
        return out

    def _vivify_probe(self, lits: list[int]) -> list[int]:
        """Probe one clause: assume literal negations in order, propagate.

        Each outcome maps to a RUP-sound strengthening of the clause:
        a true literal or a propagation conflict truncates the clause to
        the processed prefix (plus that literal); a false literal is
        simply dropped.
        """
        self._new_decision_level()
        new: list[int] = []
        for lit in lits:
            val = self._value_lit(lit)
            if val is True:
                new.append(lit)
                break
            if val is False:
                continue
            new.append(lit)
            self._enqueue(-lit, 0)
            if self._propagate() is not None:
                break
        self._cancel_until(0)
        return new

    def _replace_database(
        self,
        units: Iterable[int],
        clauses: Iterable[Sequence[int]],
        learnts: Iterable[tuple[Sequence[int], float, int]] = (),
    ) -> None:
        """Swap in a fresh clause database (arena, watchers, root trail).

        Used by inprocessing and by :func:`repro.sat.preprocess.
        preprocess_solver` after the clause set has been rewritten. The
        root trail is rebuilt from *units* and propagated to fixpoint; a
        contradiction marks the solver unsatisfiable. ``_step_attempt``
        (the ``solve_step`` restart cursor) is deliberately left alone so
        interrupted and uninterrupted solves stay in lockstep; external
        passes that want a clean slate reset it explicitly.
        """
        assign = self._assign
        level = self._level
        reasons = self._reason
        for lit in self._trail:
            v = lit if lit > 0 else -lit
            assign[v] = 0
            assign[-v] = 0
            level[v] = 0
            reasons[v] = 0
        del self._trail[:]
        del self._trail_lim[:]
        self._qhead = 0
        self._model = None
        self._core = None
        self._arena = ClauseArena()
        self._clauses = []
        self._learnts = []
        self._cla_activity = {}
        self._cla_lbd = {}
        arena = self._arena
        self._rebuild_watches()
        for lits in clauses:
            cref = arena.add(lits)
            self._clauses.append(cref)
            self._watch_clause(cref, lits)
        for lits, act, lbd in learnts:
            cref = arena.add(lits)
            self._learnts.append(cref)
            self._cla_activity[cref] = act
            self._cla_lbd[cref] = lbd
            self._watch_clause(cref, lits)
        self.stats.arena_compactions += 1
        self._arena_gc_limit = max(_ARENA_GC_FLOOR, 2 * len(arena.data))
        for u in units:
            v = u if u > 0 else -u
            val = assign[v]
            if val != 0:
                if (val > 0) != (u > 0):
                    self._unsat = True
                    if self.proof is not None:
                        self.proof.add([])
                    return
                continue
            self._enqueue(u, 0)
        if self._propagate() is not None:
            self._unsat = True
            if self.proof is not None:
                self.proof.add([])
            return
        self._rebuild_heap()

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _search(
        self, budget: int | None, assumptions: list[int]
    ) -> tuple[bool | None, int]:
        """Run CDCL until SAT, UNSAT, or *budget* conflicts; return status+used."""
        conflicts = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                conflicts += 1
                self.stats.conflicts += 1
                if not self._trail_lim:
                    # Learnt clauses never rely on assumptions being true, so
                    # a root-level conflict means the formula itself is unsat.
                    self._unsat = True
                    self._core = []
                    if self.proof is not None:
                        self.proof.add([])
                    return False, conflicts
                learnt, back_level, lbd = self._analyze(confl)
                self._cancel_until(back_level)
                self._record_learnt(learnt, lbd)
                self._decay_activities()
                if (
                    self._progress_cb is not None
                    and (self.stats.conflicts - self._conflicts_at_start)
                    % self._progress_interval == 0
                ):
                    self._emit_progress("sample")
                if budget is not None and conflicts >= budget:
                    return None, conflicts
                continue
            if self._enable_learning:
                if len(self._learnts) > self._max_learnts + len(self._trail):
                    self._reduce_db()
                    self._max_learnts *= 1.05
            elif len(self._arena.data) > self._arena_gc_limit:
                # Ablation mode (no learning) still allocates a reason
                # clause per conflict; reclaim the dead ones periodically.
                self._collect_garbage()
            level = len(self._trail_lim)
            if level < len(assumptions):
                p = assumptions[level]
                val = self._value_lit(p)
                if val is True:
                    self._new_decision_level()
                    continue
                if val is False:
                    self._core = self._analyze_final(p)
                    return False, conflicts
                self._new_decision_level()
                self._enqueue(p, 0)
                continue
            v = self._decide_var()
            if v is None:
                self._model = {
                    u: self._assign[u] > 0 for u in range(1, self._num_vars + 1)
                }
                if self._elim_stack:
                    self._reconstruct_model(self._model)
                return True, conflicts
            self.stats.decisions += 1
            self._new_decision_level()
            self._enqueue(v if self._phase[v] else -v, 0)

    def _analyze_final(self, p: int) -> list[int]:
        """Compute the set of assumptions responsible for falsifying *p*."""
        core = [p]
        if not self._trail_lim:
            return core
        arena = self._arena.data
        level = self._level
        reasons = self._reason
        seen = {p if p > 0 else -p}
        for i in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
            q = self._trail[i]
            v = q if q > 0 else -q
            if v not in seen:
                continue
            r = reasons[v]
            if not r:
                if level[v] > 0:
                    core.append(q)
            else:
                for qi in range(r + 1, r + 1 + arena[r]):
                    u = arena[qi]
                    u = u if u > 0 else -u
                    if u != v and level[u] > 0:
                        seen.add(u)
        return core
