"""Fan independent reasoning queries out over a process pool.

The executor's batch path (:meth:`QueryExecutor.execute_many`, surfaced
as ``ReasoningEngine.check_many`` / ``synthesize_many``) delegates here
once cache hits have been peeled off. Each worker rebuilds a
:class:`~repro.core.executor.QueryExecutor` around the (already
validated) knowledge base it received and runs one
:class:`~repro.core.query.Query`; results come back as ordinary
picklable values in input order.

When ``jobs <= 1``, there is a single query to run, or multiprocessing is
unavailable in the host environment, the queries run sequentially in
this process — same results, no pool.
"""

from __future__ import annotations

from repro.par.cubes import _mp_context

__all__ = ["run_query_batch"]


def _query_worker(payload):
    kb, query = payload
    from repro.core.executor import QueryExecutor

    # One-shot workers compile fresh: a per-process session would pay
    # compile + preprocessing for a single query.
    executor = QueryExecutor(kb, incremental=False)
    return executor.execute(query)


def run_query_batch(kb, queries: list, jobs: int = 1) -> list:
    """Execute every :class:`Query` against *kb*; preserve input order.

    Query-level exceptions (unknown entities, bad objectives, ...)
    propagate to the caller exactly as in the sequential path. Only pool
    *infrastructure* failures (no fork/spawn support, resource limits)
    fall back to sequential execution.
    """
    if not queries:
        return []
    if jobs <= 1 or len(queries) == 1:
        return [_query_worker((kb, q)) for q in queries]
    try:
        ctx = _mp_context()
        with ctx.Pool(processes=min(jobs, len(queries))) as pool:
            return pool.map(_query_worker, [(kb, q) for q in queries])
    except (OSError, ImportError, PermissionError):
        return [_query_worker((kb, q)) for q in queries]
