"""Parallel portfolio solving, batch query fan-out, and result caching.

The scaling layer between one-shot queries and the service the ROADMAP
aims at. Three pieces:

- :func:`solve_cubes` / :func:`make_cubes` — cube-and-conquer: split on
  top-VSIDS variables and conquer the cubes with shared lemmas
  (``repro.par.cubes``);
- :func:`solve_portfolio` / :func:`default_portfolio` — race diversified
  CDCL configurations on one CNF (``repro.par.portfolio``);
- :func:`run_query_batch` — fan independent
  :class:`~repro.core.query.Query` values over a process pool
  (``repro.par.batch``), surfaced as ``ReasoningEngine.check_many``
  and ``synthesize_many``;
- :class:`QueryCache` with :func:`cnf_cache_key` /
  :func:`request_cache_key` — bounded LRU result caching with metrics
  (``repro.par.cache``).
"""

from repro.par.batch import run_query_batch
from repro.par.cache import QueryCache, cnf_cache_key, request_cache_key
from repro.par.cubes import CubeResult, make_cubes, solve_cubes
from repro.par.portfolio import (
    PortfolioConfig,
    PortfolioResult,
    default_portfolio,
    solve_portfolio,
)

__all__ = [
    "CubeResult",
    "PortfolioConfig",
    "PortfolioResult",
    "QueryCache",
    "cnf_cache_key",
    "default_portfolio",
    "make_cubes",
    "request_cache_key",
    "run_query_batch",
    "solve_cubes",
    "solve_portfolio",
]
