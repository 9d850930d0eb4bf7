"""The architect-facing facade over the unified query pipeline.

Every verb on :class:`ReasoningEngine` lowers to a
:class:`~repro.core.query.Query` and dispatches to the engine's
:class:`~repro.core.executor.QueryExecutor` — caching, incremental
sessions, batching, and observability live there, once, instead of
being re-plumbed per verb.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.compile import CompiledDesign, compile_design
from repro.core.design import (
    Conflict,
    DesignOutcome,
    DesignRequest,
    DesignSolution,
)
from repro.core.equivalence import DeploymentClass
from repro.core.executor import QueryExecutor
from repro.core.query import Query
from repro.kb.registry import KnowledgeBase
from repro.obs.observer import EngineObserver
from repro.par.cache import QueryCache


@dataclass
class ComparisonResult:
    """Outcome of an A/B what-if query (e.g. 'is CXL worthwhile?')."""

    baseline: DesignOutcome
    alternative: DesignOutcome

    @property
    def both_feasible(self) -> bool:
        return self.baseline.feasible and self.alternative.feasible

    def cost_delta(self) -> int | None:
        """alternative capex minus baseline capex (negative = saves money)."""
        if not self.both_feasible:
            return None
        return (
            self.alternative.solution.cost_usd - self.baseline.solution.cost_usd
        )

    def objective_deltas(self) -> dict[str, int]:
        """Per-objective cost changes (negative = alternative is better)."""
        if not self.both_feasible:
            return {}
        base = self.baseline.solution.objective_costs
        alt = self.alternative.solution.objective_costs
        return {k: alt.get(k, 0) - base.get(k, 0) for k in base.keys() | alt.keys()}


class ReasoningEngine:
    """Lightweight automated reasoning over a knowledge base.

    The three verbs from the paper's vision (§1): *check* a candidate
    design, *synthesize* a good design, and *explain* why none exists —
    plus diagnosis, equivalence classes, comparison, and batch forms.
    All of them are thin wrappers building a Query for the executor.

    >>> engine = ReasoningEngine(default_knowledge_base())
    >>> outcome = engine.synthesize(DesignRequest(workloads=[...]))
    >>> print(outcome.solution.summary())
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        validate: bool = True,
        observer: EngineObserver | None = None,
        cache: QueryCache | None = None,
        incremental: bool = True,
    ):
        if validate:
            kb.validate_or_raise()
        self.kb = kb
        #: The unified pipeline every verb dispatches through. Result
        #: caching (keys cover the KB fingerprint, so registry mutations
        #: invalidate prior entries), the shared incremental session, and
        #: per-stage observability all live here.
        self.executor = QueryExecutor(
            kb,
            observer=observer,
            cache=cache,
            incremental=incremental,
        )

    # -- executor configuration (read-only view) ----------------------------------

    @property
    def observer(self) -> EngineObserver | None:
        return self.executor.observer

    def session(self):
        """The engine's shared :class:`~repro.core.session.ReasoningSession`.

        Created lazily; survives across queries so each one pays only for
        its request-specific constraint groups. The session checks the KB
        fingerprint per query and recompiles itself when the KB mutates.
        """
        return self.executor.session()

    # -- compilation -------------------------------------------------------------

    def compile(self, request: DesignRequest) -> CompiledDesign:
        """Ground a request; exposed for benchmarks and advanced callers."""
        return compile_design(self.kb, request, observer=self.observer)

    # -- queries ------------------------------------------------------------------

    def check(
        self, request: DesignRequest, deploy: list[str] | None = None
    ) -> DesignOutcome:
        """Is the request (optionally with an exact system set) feasible?

        With *deploy* given, the named systems are required and all other
        candidates forbidden — the "validate my whiteboard design" query.
        """
        if deploy is not None:
            request = _with_exact_systems(request, deploy, self.kb)
        return self.executor.execute(Query("check", request))

    def synthesize(self, request: DesignRequest) -> DesignOutcome:
        """Find a compliant design, lexicographically optimal per
        ``request.optimize``; on infeasibility, return a minimal conflict."""
        return self.executor.execute(Query("synthesize", request))

    def diagnose(self, request: DesignRequest) -> Conflict | None:
        """Minimal conflicting-requirement set, or None if feasible."""
        return self.executor.execute(Query("diagnose", request))

    def equivalence_classes(
        self,
        request: DesignRequest,
        class_limit: int | None = 64,
        completions_limit: int | None = 64,
    ) -> list[DeploymentClass]:
        """Distinct system-level deployments compliant with the request."""
        return self.executor.execute(
            Query(
                "equivalence",
                request,
                class_limit=class_limit,
                completions_limit=completions_limit,
            )
        )

    def enumerate_deployments(
        self, request: DesignRequest, limit: int | None = 64
    ) -> list[tuple[str, ...]]:
        """Distinct compliant system sets, smallest first (no counting)."""
        return self.executor.execute(Query("enumerate", request, limit=limit))

    def explain(self, request: DesignRequest, outcome: DesignOutcome) -> str:
        """Human-readable justification of an outcome.

        For feasible outcomes: per-system justifications (role,
        requirement providers, ranks). For infeasible ones: the conflict
        explanation.
        """
        return self.executor.execute(Query("explain", request), outcome=outcome)

    def compare(
        self, baseline: DesignRequest, alternative: DesignRequest
    ) -> ComparisonResult:
        """Synthesize both requests and report the deltas (what-if query).

        Both sides run through the executor: with ``incremental`` they
        share the session solver (the alternative pays only for its own
        constraint groups), and with a cache both outcomes are memoized.
        """
        outcomes = self.executor.execute_many(
            [Query("synthesize", baseline), Query("synthesize", alternative)]
        )
        return ComparisonResult(baseline=outcomes[0], alternative=outcomes[1])

    # -- batch queries ------------------------------------------------------------

    def check_many(
        self,
        requests: Sequence[DesignRequest],
        deploy: list[str] | None = None,
    ) -> list[DesignOutcome]:
        """Run :meth:`check` on every request (see ``execute_many``)."""
        if deploy is not None:
            requests = [
                _with_exact_systems(r, deploy, self.kb) for r in requests
            ]
        return self.executor.execute_many(
            [Query("check", r) for r in requests]
        )

    def synthesize_many(
        self, requests: Sequence[DesignRequest]
    ) -> list[DesignOutcome]:
        """Run :meth:`synthesize` on every request (see ``execute_many``)."""
        return self.executor.execute_many(
            [Query("synthesize", r) for r in requests]
        )


def _with_exact_systems(
    request: DesignRequest, deploy: list[str], kb: KnowledgeBase
) -> DesignRequest:
    """Copy of *request* pinned to exactly the systems in *deploy*."""
    from dataclasses import replace

    candidates = (
        request.candidate_systems
        if request.candidate_systems is not None
        else list(kb.systems)
    )
    return replace(
        request,
        required_systems=list(deploy),
        forbidden_systems=sorted(
            (set(candidates) - set(deploy)) | set(request.forbidden_systems)
        ),
    )


# Re-exported for convenience.
__all__ = [
    "ComparisonResult",
    "DesignOutcome",
    "DesignRequest",
    "DesignSolution",
    "ReasoningEngine",
]
