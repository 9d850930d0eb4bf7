"""Incremental what-if sessions: compile once, assume many (§2.3).

The paper's headline workload is an architect iterating *what-if*
queries over one knowledge base — relax a budget, swap a NIC, flip a
context flag, re-ask. A fresh :class:`~repro.core.engine.ReasoningEngine`
call re-grounds the whole KB and starts an empty solver each time,
discarding everything the previous query taught it.

:class:`ReasoningSession` keeps one persistent
:class:`~repro.sat.Solver` per knowledge-base *shape*:

- the KB encoding is compiled **once** and run through the
  SatELite-style :mod:`repro.sat.preprocess` passes, with every named /
  cached variable frozen;
- every request-specific constraint group (required/forbidden systems,
  budgets, fixed hardware, performance bounds, context values) sits
  behind a guard literal, so each query is a ``solve(assumptions)``
  call — learned clauses, VSIDS activity, and saved phases carry across
  queries;
- what-if variants of a group (a different budget value, a flipped
  context flag) are grounded incrementally and registered in the
  compiled design's group registry, so re-asking any earlier variant
  adds no clauses at all;
- optimization bounds are frozen behind a per-query activation literal
  and retired afterwards, so ``synthesize`` never poisons the shared
  formula; totalizer circuits are cached and reused across queries.

Invalidation is automatic: a KB mutation changes
``kb.fingerprint()``, and a request whose *shape* (workload traffic and
properties, candidate pool, inventory, given properties) differs from
the compiled base triggers a transparent rebase — correctness first,
amortization second.

The session itself is the *compile-once* half of the story: it serves
per-query :class:`~repro.core.compile.CompiledDesign` views over the
shared solver via :meth:`ReasoningSession.view`. The verbs (`check`,
`synthesize`, `diagnose`, `compare`) are answered by the same
:class:`~repro.core.executor.QueryExecutor` pipeline the engine uses,
bound back to this session.

Typical use::

    session = ReasoningSession(kb)
    base = session.synthesize(request)              # compiles + solves
    for variant in what_if_variants(request):
        outcome = session.synthesize(variant)       # assumptions only
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace

from repro.core.compile import (
    CompiledDesign,
    _Compiler,
    request_entity_scope,
    validate_request_entities,
)
from repro.core.design import Conflict, DesignOutcome, DesignRequest
from repro.core.executor import QueryExecutor
from repro.core.query import Query
from repro.errors import SolverStateError
from repro.kb.registry import PATCHABLE_KINDS, KnowledgeBase
from repro.obs.observer import EngineObserver
from repro.obs.trace import NULL_TRACER
from repro.sat.preprocess import preprocess_solver

__all__ = ["ReasoningSession", "SessionStats", "shape_key"]


@dataclass
class SessionStats:
    """Counters describing how much work the session amortized."""

    queries: int = 0
    #: Base compiles (1 + rebases).
    compiles: int = 0
    #: Full rebases (KB change outside the compiled scope's patchable
    #: kinds, or a request-shape change).
    rebases: int = 0
    #: KB deltas absorbed with zero solver work (every changed entity
    #: was outside the compiled base's scope).
    rebases_avoided: int = 0
    #: KB deltas absorbed by re-grounding only the dirty groups in
    #: place (rule/ordering changes inside the scope).
    rebases_patched: int = 0
    #: Request-specific groups served from the registry vs newly encoded.
    groups_reused: int = 0
    groups_encoded: int = 0
    last_preprocess: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "queries": self.queries,
            "compiles": self.compiles,
            "rebases": self.rebases,
            "rebases_avoided": self.rebases_avoided,
            "rebases_patched": self.rebases_patched,
            "groups_reused": self.groups_reused,
            "groups_encoded": self.groups_encoded,
            "last_preprocess": dict(self.last_preprocess),
        }


class ReasoningSession:
    """A stream of design queries answered on one persistent solver.

    Answers are semantically identical to what a fresh
    :class:`~repro.core.engine.ReasoningEngine` would produce for each
    request in isolation: same feasibility verdicts, same minimal-core
    diagnosis semantics, same exact optima on ordering objectives, and
    cost optima within the engine's bisection tolerance: each cost
    descent stops once its answer is within 2% of a proven lower bound,
    so both paths are within 2% of the true optimum, though not always
    at the same cost. (Ties between equally-good models may break
    differently, since the solver arrives at each query warm.)

    Parameters
    ----------
    kb:
        The knowledge base. Mutating it between queries is fine — the
        fingerprint check triggers a transparent recompile.
    observer:
        Optional :class:`~repro.obs.EngineObserver` for tracing.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        observer: EngineObserver | None = None,
        validate: bool = True,
    ):
        if validate:
            kb.validate_or_raise()
        self.kb = kb
        self.observer = observer
        self.stats = SessionStats()
        self._poisoned = False
        self._compiler: _Compiler | None = None
        self._compiled: CompiledDesign | None = None
        self._fingerprint: str | None = None
        self._shape: tuple | None = None
        #: KB version and entity scope of the compiled base, for delta
        #: rebasing (see :meth:`_absorb_kb_delta`).
        self._kb_version: int = -1
        self._scope: frozenset = frozenset()
        self._totalizers: dict = {}
        #: Sessions answer verbs through the same pipeline as the
        #: engine, with this session as the compile-once backend. The
        #: executor holds the session through a weak proxy: a strong
        #: reference would make a cycle, and a dropped session (one the
        #: pool evicts, say) would keep its solver until the cyclic GC.
        self._executor = QueryExecutor(
            kb,
            observer=observer,
            incremental=True,
            session=weakref.proxy(self),
        )

    @property
    def _tracer(self):
        if self.observer is not None and self.observer.enabled:
            return self.observer.tracer
        return NULL_TRACER

    # -- queries ------------------------------------------------------------------

    def check(self, request: DesignRequest) -> DesignOutcome:
        """Is the request feasible? (incremental :meth:`ReasoningEngine.check`)"""
        return self._executor.execute(Query("check", request))

    def check_many(self, requests) -> list[DesignOutcome]:
        """Answer a sweep of feasibility queries on the shared solver."""
        return self._executor.execute_many(
            [Query("check", r) for r in requests]
        )

    def synthesize(self, request: DesignRequest) -> DesignOutcome:
        """Find an optimal design (incremental
        :meth:`ReasoningEngine.synthesize`).

        Optimization bounds are frozen behind a fresh activation literal
        that is retired when the query finishes, so later queries see
        the original formula plus reusable circuits only.
        """
        return self._executor.execute(Query("synthesize", request))

    def diagnose(self, request: DesignRequest) -> Conflict | None:
        """Minimal conflicting-requirement set, or None if feasible."""
        return self._executor.execute(Query("diagnose", request))

    def compare(self, baseline: DesignRequest, alternative: DesignRequest):
        """Synthesize both requests on the shared solver (A/B what-if)."""
        from repro.core.engine import ComparisonResult

        return ComparisonResult(
            baseline=self.synthesize(baseline),
            alternative=self.synthesize(alternative),
        )

    # -- pool safety --------------------------------------------------------------

    @property
    def poisoned(self) -> bool:
        """True once a solver-stage exception may have corrupted state.

        A failure mid-``solve(assumptions)`` (or mid-optimization) can
        leave the shared solver with a partial trail, unretired
        activation literals, or a half-grounded constraint group. Such a
        session must not answer further queries until :meth:`reset`;
        pools use this flag to discard the instance instead of handing
        corrupted state to the next client.
        """
        return self._poisoned

    def mark_poisoned(self) -> None:
        """Flag this session as corrupted (see :attr:`poisoned`)."""
        self._poisoned = True

    def reset(self) -> None:
        """Drop all compiled state; the next query recompiles from the KB.

        Clears the poison flag: a recompile starts from a fresh solver,
        so nothing of the corrupted trajectory survives.
        """
        self._compiler = None
        self._compiled = None
        self._fingerprint = None
        self._shape = None
        self._kb_version = -1
        self._scope = frozenset()
        self._totalizers = {}
        self._poisoned = False

    # -- compile-once machinery --------------------------------------------------

    def view(self, request: DesignRequest) -> CompiledDesign:
        """A per-query :class:`CompiledDesign` over the shared solver.

        Compiles (or rebases) if needed, grounds the request-specific
        groups incrementally, and returns a lightweight copy of the base
        design carrying this query's request, selectors, and
        descriptions — every ``CompiledDesign`` method (solve, cores,
        extraction, objective terms) then answers for *this* query.
        """
        if self._poisoned:
            raise SolverStateError(
                "session was poisoned by an earlier solver failure; "
                "call reset() (or discard it) before issuing new queries"
            )
        validate_request_entities(self.kb, request)
        self.stats.queries += 1
        fingerprint = self.kb.fingerprint()
        shape = shape_key(request)
        needs_rebase = (
            self._compiled is None
            or shape != self._shape
            or not self._compatible(request)
        )
        if (
            not needs_rebase
            and fingerprint != self._fingerprint
            and not self._absorb_kb_delta(fingerprint)
        ):
            needs_rebase = True
        if needs_rebase:
            if self._compiled is not None:
                self.stats.rebases += 1
            self._rebase(request, fingerprint, shape)
        before = len(self._compiled.request_groups)
        selectors, descriptions = self._compiler.ground_request(request)
        encoded = len(self._compiled.request_groups) - before
        self.stats.groups_encoded += encoded
        self.stats.groups_reused += len(selectors) - len(
            self._compiler._static_selectors
        ) - encoded
        return replace(
            self._compiled,
            request=request,
            selectors=selectors,
            descriptions=descriptions,
            _guards_asserted=False,
        )

    def _absorb_kb_delta(self, fingerprint: str) -> bool:
        """Rebase in place after a KB mutation, if the delta allows it.

        Three levels, cheapest first:

        1. Every changed entity is outside the compiled base's scope
           (:func:`request_entity_scope`): the mutation provably cannot
           affect any formula this session grounds — adopt the new
           fingerprint, zero solver work.
        2. The in-scope changes are all rules/orderings and
           :meth:`_Compiler.patch_entities` can re-ground just those
           groups on the live solver.
        3. Anything else (systems or hardware changed, catalog
           membership changed under an unpinned request, journal too far
           behind) — return False, caller does a full rebase.
        """
        changed = self.kb.changed_entities(self._kb_version)
        if changed is None:
            return False
        # The session's kb may be a different *object* than the one the
        # base was compiled from (copy-on-write updates swap it, see
        # PooledSession.rebind). Re-point the compiler and the compiled
        # base before patching, or they'd ground and cost against the
        # pre-delta snapshot.
        self._compiler.kb = self.kb
        self._compiled.kb = self.kb
        touched = changed & self._scope
        if ("rules@", "") in touched:
            # The compiled scope names the rules that existed at compile
            # time; a rule added since only shows up as a membership
            # change. Widen to the concrete rule keys so patch_entities
            # grounds the new rule instead of no-opping.
            touched = touched | {k for k in changed if k[0] == "rule"}
        if touched:
            if not all(kind in PATCHABLE_KINDS for kind, _ in touched):
                return False
            if not self._compiler.patch_entities(touched):
                return False
            self.stats.rebases_patched += 1
        else:
            self.stats.rebases_avoided += 1
        self._fingerprint = fingerprint
        self._kb_version = self.kb.version
        # Scope contents can themselves change (a rule added under the
        # always-in-scope rules catalog): recompute against the new KB
        # state so the next delta is judged against fresh keys.
        self._scope = request_entity_scope(self.kb, self._compiled.request)
        return True

    def _compatible(self, request: DesignRequest) -> bool:
        """Can *request* be answered on the compiled base?"""
        compiled = self._compiled
        for name in request.required_systems:
            if name not in compiled.sys_lits:
                return False
        for model, fixed in request.fixed_hardware.items():
            count = compiled.hw_counts.get(model)
            if count is None or fixed > count.hi:
                return False
        return True

    def _rebase(
        self, request: DesignRequest, fingerprint: str, shape: tuple
    ) -> None:
        observer = self.observer
        if observer is not None and observer.enabled:
            with observer.tracer.span("compile"):
                self._compiler = _Compiler(self.kb, request, observer)
                self._compiled = self._compiler.run()
        else:
            self._compiler = _Compiler(self.kb, request)
            self._compiled = self._compiler.run()
        self._fingerprint = fingerprint
        self._shape = shape
        self._kb_version = self.kb.version
        self._scope = request_entity_scope(self.kb, request)
        self._totalizers = {}
        self.stats.compiles += 1
        with self._tracer.span("preprocess"):
            stats = preprocess_solver(
                self._compiled.solver, self._frozen_vars()
            )
        self.stats.last_preprocess = stats.as_dict()

    def _frozen_vars(self) -> set[int]:
        """Every variable a later query (or extraction) may mention.

        Named variables, structurally-cached subformula literals, IntVar
        bits, cached gates and adder trees, guard selectors, and soft-rule
        literals — only anonymous circuit internals stay eliminable.
        """
        compiled = self._compiled
        frozen = compiled.builder.referenced_vars()
        frozen |= compiled.encoder.referenced_vars()
        frozen.update(abs(lit) for lit in compiled.selectors.values())
        frozen.update(abs(t.lit) for t in compiled.soft_rule_terms)
        return frozen


def shape_key(request: DesignRequest) -> tuple:
    """The parts of a request that are compiled structurally (unguarded).

    Two requests with equal shapes share one compiled base; everything
    else (required/forbidden systems, budgets, fixed hardware, bounds,
    context values, objectives) is guard-switched per query. The serving
    layer's session pool uses the same key, so a pooled session is warm
    for exactly the requests it could answer without a rebase.

    The key is memoized on the request instance: the serving hot path
    recomputes it on every pool checkout *and* again inside
    :meth:`ReasoningSession.view`, and the tuple construction walks every
    workload. The engine already treats requests as immutable after
    submission (variations go through ``dataclasses.replace``), so the
    cached key can never go stale on a live request.
    """
    cached = getattr(request, "_shape_key_memo", None)
    if cached is not None:
        return cached
    key = _shape_key_uncached(request)
    request._shape_key_memo = key
    return key


def _shape_key_uncached(request: DesignRequest) -> tuple:
    return (
        tuple(
            (
                w.name,
                tuple(sorted(w.properties)),
                w.peak_cores,
                w.peak_gbps,
                w.peak_mem_gb,
                w.kflows,
            )
            for w in request.workloads
        ),
        tuple(sorted(request.given_properties)),
        (
            tuple(request.candidate_systems)
            if request.candidate_systems is not None
            else None
        ),
        (
            tuple(sorted(request.inventory.items()))
            if request.inventory is not None
            else None
        ),
        tuple(sorted(request.exclusive_categories)),
        request.include_common_sense,
    )
