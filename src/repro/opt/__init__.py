"""Optimization over the SAT substrate.

The paper's architect does not just ask "is a design feasible?" — Listing 3
ends with ``Optimize(latency > Hardware cost > monitoring)``. This package
supplies that layer:

- :func:`descend` — the one bound-tightening loop every objective runs:
  bisect from a model in hand, freeze the optimum, re-solve once;
- :func:`lexicographic_optimize` — one objective over a generalized
  totalizer (ordering ranks, soft rules, parsimony);
- :func:`~repro.opt.linear.minimize_linexpr` — one cost objective, each
  probe a native linear constraint over the bit-vector encoding;
- :func:`enumerate_models` / :func:`equivalence_classes` — model
  enumeration with blocking clauses and projection, which backs the §6
  "equivalence classes of deployments" feature.
"""

from repro.opt.descent import descend
from repro.opt.enumerate import count_models, enumerate_models, equivalence_classes
from repro.opt.lexicographic import LexObjective, lexicographic_optimize

__all__ = [
    "LexObjective",
    "count_models",
    "descend",
    "enumerate_models",
    "equivalence_classes",
    "lexicographic_optimize",
]
