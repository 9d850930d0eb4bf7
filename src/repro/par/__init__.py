"""Cube-and-conquer solving, batch query fan-out, and result caching.

The scaling layer between one-shot queries and the service the ROADMAP
aims at. Three pieces:

- :func:`solve_cubes` / :func:`make_cubes` — cube-and-conquer: split on
  top-VSIDS variables and conquer the cubes with shared lemmas
  (``repro.par.cubes``);
- :func:`run_query_batch` — fan independent
  :class:`~repro.core.query.Query` values over a process pool
  (``repro.par.batch``), surfaced as ``ReasoningEngine.check_many``
  and ``synthesize_many``;
- :class:`QueryCache` with :func:`request_cache_key` — bounded LRU
  result caching with metrics (``repro.par.cache``).
"""

from repro.par.batch import run_query_batch
from repro.par.cache import QueryCache, request_cache_key
from repro.par.cubes import CubeResult, make_cubes, solve_cubes

__all__ = [
    "CubeResult",
    "QueryCache",
    "make_cubes",
    "request_cache_key",
    "run_query_batch",
    "solve_cubes",
]
