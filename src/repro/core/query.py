"""The Query IR: one value object for every reasoning verb.

The paper treats feasibility checks, what-if comparisons, conflict
diagnosis, and deployment equivalence classes (§2.3, §6) as the *same*
kind of existential query over the knowledge base. The engine mirrors
that: every architect intent lowers to a :class:`Query` — a verb, a
:class:`~repro.core.design.DesignRequest`, and the few execution options
the verb understands — and every Query is answered by one
:class:`~repro.core.executor.QueryExecutor` pipeline.

The IR carries its own canonical cache identity
(:meth:`Query.cache_key`): verb, KB fingerprint, request serialization,
executor configuration, and verb options are all folded into the hash,
so results of different verbs (or different enumeration limits) can
never collide in a shared :class:`~repro.par.QueryCache`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.design import DesignRequest
from repro.errors import QueryError
from repro.par.cache import request_cache_key

__all__ = ["CACHEABLE_VERBS", "Query", "VERBS"]

#: Every verb the executor understands.
VERBS = (
    "check",
    "synthesize",
    "diagnose",
    "equivalence",
    "enumerate",
    "explain",
)

#: Verbs whose results are pure functions of (KB, request, options,
#: executor config) and therefore safe to memoize. ``explain`` is
#: excluded: it post-processes an outcome the caller supplies.
CACHEABLE_VERBS = frozenset(
    {"check", "synthesize", "diagnose", "equivalence", "enumerate"}
)

_VERB_SET = frozenset(VERBS)


@dataclass(frozen=True, slots=True)
class Query:
    """One reasoning query: a verb applied to a design request.

    >>> query = Query("check", DesignRequest(workloads=[...]))
    >>> outcome = executor.execute(query)

    Options only apply to the verbs that read them:

    - ``class_limit`` / ``completions_limit`` — ``equivalence``;
    - ``limit`` — ``enumerate`` (max distinct system deployments).
    """

    verb: str
    request: DesignRequest
    class_limit: int | None = None
    completions_limit: int | None = None
    limit: int | None = None

    def __post_init__(self) -> None:
        if self.verb not in _VERB_SET:
            raise QueryError(
                f"unknown query verb {self.verb!r}; expected one of {VERBS}"
            )

    @property
    def cacheable(self) -> bool:
        return self.verb in CACHEABLE_VERBS

    def cache_key(
        self, kb, config: str = "", scope: frozenset | None = None
    ) -> str:
        """Canonical cache key: verb + KB state + request + options.

        *config* names the executor configuration (``inc=0|1``); see
        :func:`~repro.par.cache.request_cache_key` for why it must be
        part of the key. *scope* is the request's entity footprint; with
        it the key survives KB deltas disjoint from the footprint.
        """
        return request_cache_key(
            self.verb,
            kb,
            self.request,
            f"{config}|cl={self.class_limit};co={self.completions_limit};"
            f"n={self.limit}",
            scope=scope,
        )
