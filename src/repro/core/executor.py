"""One executor for every reasoning verb.

A :class:`QueryExecutor` answers :class:`~repro.core.query.Query` values
through a single staged pipeline:

1. **cache** — look the query's canonical key up in the shared
   :class:`~repro.par.QueryCache` (per-verb hit/miss metrics);
2. **acquire** — obtain a :class:`~repro.core.compile.CompiledDesign`
   view, either from the persistent incremental
   :class:`~repro.core.session.ReasoningSession` (compile once per KB
   shape, guard-literal assumptions per query) or by a fresh compile;
3. **solve** — one feasibility call under the view's assumptions;
4. **verb dispatch** — extraction (``check``), lexicographic descent
   (``synthesize``), core minimization (``diagnose``), or projected
   enumeration (``equivalence`` / ``enumerate``);
5. **post-process** — observability record + cache fill.

Every stage emits one tracer span and its metrics, so ``check``,
``diagnose``, and ``equivalence`` produce the same shaped telemetry.
The engine and session front-ends are thin wrappers that build a Query
and dispatch here; no verb carries its own cache/session plumbing.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.compile import (
    CompiledDesign,
    compile_design,
    request_entity_scope,
)
from repro.core.design import (
    COST_OBJECTIVES,
    DesignOutcome,
    DesignRequest,
)
from repro.core.diagnose import conflict_from_core
from repro.core.equivalence import deployment_classes
from repro.core.query import Query
from repro.errors import KnowledgeBaseError, QueryError
from repro.kb.registry import KnowledgeBase
from repro.logic.pseudo_boolean import PBTerm
from repro.obs.observer import EngineObserver
from repro.obs.trace import NULL_TRACER
from repro.opt.enumerate import equivalence_classes as _sat_classes
from repro.opt.lexicographic import LexObjective, lexicographic_optimize
from repro.opt.linear import expr_value, minimize_linexpr
from repro.par.cache import QueryCache, request_cache_key

__all__ = ["QueryExecutor"]

#: Cache sentinel distinct from any result (``diagnose`` caches ``None``
#: for feasible requests, so ``None`` cannot signal a miss).
_MISS = object()


class QueryExecutor:
    """Uniform cache → compile/session → solve → verb → record pipeline.

    Parameters mirror :class:`~repro.core.engine.ReasoningEngine`, which
    owns exactly one executor. A :class:`ReasoningSession` also embeds
    one (bound back to itself) so both facades share this code path.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        observer: EngineObserver | None = None,
        cache: QueryCache | None = None,
        incremental: bool = True,
        session=None,
    ):
        self.kb = kb
        self.observer = observer
        self.cache = cache
        if (
            cache is not None
            and cache.metrics is None
            and observer is not None
        ):
            cache.metrics = observer.metrics
        self.incremental = incremental
        self._session = session
        # An incremental session (which also preprocesses its compiled
        # base) can return a different, equally valid model or minimal
        # conflict than a fresh compile, so the two paths must not share
        # cache entries: the configuration is part of every key.
        self._config_tag = f"inc={int(incremental)}"
        # Key suffix for option-less queries (check/synthesize/diagnose),
        # precomputed so the warm cache-hit path builds no strings.
        self._default_options_config = (
            f"{self._config_tag}|cl=None;co=None;n=None"
        )

    # -- wiring -------------------------------------------------------------------

    @property
    def _tracer(self):
        if self.observer is not None and self.observer.enabled:
            return self.observer.tracer
        return NULL_TRACER

    def session(self):
        """The shared incremental session (created lazily)."""
        if self._session is None:
            from repro.core.session import ReasoningSession

            self._session = ReasoningSession(
                self.kb,
                observer=self.observer,
                validate=False,
            )
        return self._session

    def cache_key(self, query: Query) -> str | None:
        """*query*'s key in the shared cache; None when not cacheable."""
        if self.cache is None or not query.cacheable:
            return None
        return self._query_key(query, self._scope(query.request))

    def _query_key(self, query: Query, scope: frozenset) -> str:
        """*query*'s canonical cache key, memoized on the request.

        Computing the key serializes the whole request; on a warm cache
        hit that dwarfs everything else the executor does. Requests are
        immutable after submission (the same contract the entity-scope
        memo relies on), so the key is a pure function of (verb, options,
        executor config, KB state) and can live on the request. The memo
        pins the exact KB object and version: any delta — even one
        disjoint from the scope — recomputes, and the recomputation
        lands on the same key whenever the scoped fingerprint held.
        """
        token = (
            query.verb,
            self._config_tag,
            query.class_limit,
            query.completions_limit,
            query.limit,
        )
        memo = getattr(query.request, "_query_key_memo", None)
        if memo is not None:
            hit = memo.get(token)
            if (
                hit is not None
                and hit[0] is self.kb
                and hit[1] == self.kb.version
            ):
                return hit[2]
        if token[2] is None and token[3] is None and token[4] is None:
            key = request_cache_key(
                query.verb, self.kb, query.request,
                self._default_options_config,
                scope=scope,
            )
        else:
            key = query.cache_key(self.kb, self._config_tag, scope)
        if memo is None:
            memo = {}
            try:
                query.request._query_key_memo = memo
            except AttributeError:  # request stand-ins with __slots__
                return key
        if len(memo) >= 8:  # a request rarely sees >1 (verb, config)
            memo.clear()
        memo[token] = (self.kb, self.kb.version, key)
        return key

    def _scope(self, request: DesignRequest) -> frozenset:
        """The request's KB entity footprint (memoized on the request).

        Scoped cache keys survive KB deltas disjoint from the footprint.
        """
        return request_entity_scope(self.kb, request)

    # -- pipeline -----------------------------------------------------------------

    def execute(self, query: Query, outcome: DesignOutcome | None = None):
        """Run one query through the full pipeline.

        *outcome* is only read by the ``explain`` verb (explanations
        post-process a previously computed outcome; they are not solver
        queries and are never cached).
        """
        verb = query.verb
        if verb == "explain":
            with self._tracer.span("explain"):
                text = self._explain(query.request, outcome)
            self._record(verb, None)
            return text
        key = self.cache_key(query)
        if key is not None:
            observer = self.observer
            if observer is not None and observer.enabled:
                with observer.tracer.span("cache"):
                    cached = self.cache.get(key, _MISS)
                observer.record_cache(verb, hit=cached is not _MISS)
            else:
                cached = self.cache.get(key, _MISS)
            if cached is not _MISS:
                return cached
        result = self._execute_miss(query)
        if key is not None:
            self.cache.put(key, result)
        return result

    def execute_many(self, queries: Sequence[Query]) -> list:
        """Answer every query in order through :meth:`execute`.

        A repeated query is computed once when a cache is attached: the
        first computation stores its result, and every repeat is a hit.
        """
        return [self.execute(query) for query in queries]

    def _execute_miss(self, query: Query):
        """Stages 2-5: acquire a view, solve, dispatch, record.

        On the incremental path a solver-stage failure poisons the shared
        session: the persistent solver may hold a partial trail or an
        unretired activation literal, so pools (and later direct callers)
        must not reuse it before a :meth:`ReasoningSession.reset`.
        Validation errors (:class:`QueryError` and knowledge-base errors)
        are raised *before* the shared solver is touched and leave the
        session clean.
        """
        try:
            view = self._acquire(query.request)
            result = self._dispatch(query, view)
        except (QueryError, KnowledgeBaseError):
            raise
        except Exception:
            if self.incremental and self._session is not None:
                self._session.mark_poisoned()
            raise
        self._record(query.verb, view)
        return result

    def _acquire(self, request: DesignRequest) -> CompiledDesign:
        """Session view (incremental) or fresh compile, one code path."""
        if self.incremental:
            return self.session().view(request)
        return compile_design(self.kb, request, observer=self.observer)

    def _dispatch(self, query: Query, view: CompiledDesign):
        tracer = self._tracer
        with tracer.span("solve"):
            satisfiable = view.solve()
        verb = query.verb
        if verb == "diagnose":
            if satisfiable:
                return None
            with tracer.span("diagnose"):
                return conflict_from_core(view)
        if verb == "equivalence":
            if not satisfiable:
                return []
            with tracer.span("enumerate"):
                return deployment_classes(
                    view,
                    query.class_limit,
                    query.completions_limit,
                    assumptions=(
                        view.assumptions() if self.incremental else None
                    ),
                )
        if verb == "enumerate":
            if not satisfiable:
                return []
            with tracer.span("enumerate"):
                return self._enumerate(view, query.limit)
        # check / synthesize produce DesignOutcome values.
        if not satisfiable:
            with tracer.span("diagnose"):
                conflict = conflict_from_core(view)
            return DesignOutcome(
                False,
                conflict=conflict,
                solver_stats=view.solver.stats.as_dict(),
            )
        model = view.solver.model()
        if verb == "synthesize":
            with tracer.span("optimize"):
                model = self._optimize(view, model)
        solution = view.extract_solution(model)
        return DesignOutcome(
            True,
            solution=solution,
            solver_stats=view.solver.stats.as_dict(),
        )

    # -- verb helpers -------------------------------------------------------------

    def _enumerate(
        self, view: CompiledDesign, limit: int | None
    ) -> list[tuple[str, ...]]:
        """Distinct system-level deployments (no completion counting)."""
        observed = [view.sys_lits[s] for s in sorted(view.sys_lits)]
        names_by_lit = {lit: name for name, lit in view.sys_lits.items()}
        classes = _sat_classes(
            view.solver,
            observed=observed,
            refinement=(),
            class_limit=limit,
            assumptions=view.assumptions(),
        )
        deployments = [
            tuple(
                sorted(
                    names_by_lit[lit]
                    for lit, value in cls.signature.items()
                    if value
                )
            )
            for cls in classes
        ]
        deployments.sort(key=lambda systems: (len(systems), systems))
        return deployments

    def _optimize(
        self, view: CompiledDesign, model: dict[int, bool]
    ) -> dict[int, bool]:
        """Lexicographic descent over the request's objectives.

        *model* is the feasibility model; each objective's descent starts
        from the model the previous one left, so no solve re-finds a
        model already in hand.

        On the fresh path the view's guards are asserted hard and bounds
        are added permanently (the solver is discarded afterwards). On
        the session path everything runs under the view's assumptions,
        with bounds frozen behind a per-query activation literal that is
        retired afterwards, so the shared formula is never poisoned.
        """
        if not self.incremental:
            view.assert_guards()
            return self._descend(view, model, [], None, None)
        act = view.solver.new_var()
        try:
            return self._descend(
                view,
                model,
                view.assumptions() + [act],
                act,
                self.session()._totalizers,
            )
        finally:
            # Retire this query's frozen optimization bounds.
            view.solver.add_clause([-act])

    def _descend(
        self,
        view: CompiledDesign,
        model: dict[int, bool],
        base: list[int],
        act: int | None,
        totalizers: dict | None,
    ) -> dict[int, bool]:
        """Minimize every objective in priority order, threading *model*.

        Cost objectives bisect on the bit-vector encoding (dollar/watt
        weights); every other objective descends over a totalizer.
        """
        tracer = self._tracer
        solver, encoder = view.solver, view.encoder
        for objective in _objectives(view):
            if isinstance(objective, LexObjective):
                model, _, _ = lexicographic_optimize(
                    solver,
                    objective,
                    model,
                    base,
                    tracer=tracer,
                    freeze_lit=act,
                    totalizer_cache=totalizers,
                )
                continue
            with tracer.span(objective):
                expr = view.cost_expr(objective)
                # Stop within ~2% of optimal: the probes nearest the
                # true optimum are the hardest UNSAT instances, and
                # shallow cost reasoning does not need dollar-exact
                # answers.
                tolerance = max(1, expr_value(expr, encoder, model) // 50)
                model, _, _ = minimize_linexpr(
                    solver,
                    encoder,
                    expr,
                    model,
                    base,
                    tolerance=tolerance,
                    tracer=tracer,
                    freeze_lit=act,
                )
        return model

    def _explain(
        self, request: DesignRequest, outcome: DesignOutcome | None
    ) -> str:
        if outcome is None:
            raise QueryError("explain requires the outcome to justify")
        if outcome.feasible:
            from repro.core.explain import explanation_text

            return explanation_text(self.kb, request, outcome.solution)
        if outcome.conflict is not None:
            return outcome.conflict.explanation()
        return "infeasible (no diagnosis computed)"

    # -- observability ------------------------------------------------------------

    def _record(self, verb: str, view: CompiledDesign | None) -> None:
        if self.observer is None or not self.observer.enabled:
            return
        stats = view.solver.stats.as_dict() if view is not None else None
        self.observer.record_query(verb, stats)


def _objectives(view: CompiledDesign):
    """The request's objectives, highest priority first.

    A cost objective comes as its name, anything else as a
    :class:`LexObjective`; terms are built when the descent reaches
    them. Soft rules and parsimony follow as implicit lowest-priority
    objectives: without parsimony the solver happily deploys
    harmless-but-pointless extra systems.
    """
    for name in view.request.optimize:
        if name in COST_OBJECTIVES:
            yield name
        else:
            yield LexObjective(name, view.objective_terms(name))
    if view.soft_rule_terms:
        yield LexObjective("soft_rules", list(view.soft_rule_terms))
    if view.sys_lits:
        yield LexObjective(
            "parsimony", [PBTerm(1, lit) for lit in view.sys_lits.values()]
        )
