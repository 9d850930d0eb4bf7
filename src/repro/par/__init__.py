"""Cube-and-conquer solving and result caching.

The scaling layer between one-shot queries and the service the ROADMAP
aims at. Two pieces:

- :func:`solve_cubes` / :func:`make_cubes` — cube-and-conquer: split on
  top-VSIDS variables and conquer the cubes with shared lemmas
  (``repro.par.cubes``);
- :class:`QueryCache` with :func:`request_cache_key` — bounded LRU
  result caching with metrics (``repro.par.cache``).

Parallel query serving is the daemon's worker pool
(``repro serve --workers N``, :mod:`repro.serve.workers`).
"""

from repro.par.cache import QueryCache, request_cache_key
from repro.par.cubes import CubeResult, make_cubes, solve_cubes

__all__ = [
    "CubeResult",
    "QueryCache",
    "make_cubes",
    "request_cache_key",
    "solve_cubes",
]
