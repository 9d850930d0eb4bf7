"""Cardinality constraint encodings to CNF.

Three encodings of "at most k of these literals are true":

- **pairwise** — the binomial encoding; no auxiliary variables, O(n²)
  clauses; only sensible for k=1 and small n.
- **sequential counter** (Sinz 2005) — O(n·k) clauses and auxiliaries;
  the workhorse default.
- **totalizer** (Bailleux & Boudet 2003) — a unary counting tree whose
  output literals can be re-bounded later, so a bound can be tightened
  incrementally without re-encoding.

All functions take a ``new_var`` callable that allocates fresh solver
variables, and return a list of clauses over DIMACS-style int literals.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

NewVar = Callable[[], int]


def at_most_one_pairwise(lits: Sequence[int]) -> list[list[int]]:
    """Binomial at-most-one: one clause per pair."""
    clauses = []
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            clauses.append([-lits[i], -lits[j]])
    return clauses


def at_most_k_pairwise(lits: Sequence[int], k: int) -> list[list[int]]:
    """Binomial at-most-k: one clause per (k+1)-subset. Exponential; small n only."""
    from itertools import combinations

    if k >= len(lits):
        return []
    if k < 0:
        return [[]]
    return [[-lit for lit in combo] for combo in combinations(lits, k + 1)]


def at_most_k_seqcounter(
    lits: Sequence[int], k: int, new_var: NewVar
) -> list[list[int]]:
    """Sinz sequential-counter encoding of at-most-k."""
    n = len(lits)
    if k >= n:
        return []
    if k < 0:
        return [[]]
    if k == 0:
        return [[-lit] for lit in lits]
    if n == 0:
        return []
    # registers[i][j] == "at least j+1 of lits[0..i] are true", i in 0..n-2.
    registers = [[new_var() for _ in range(k)] for _ in range(n - 1)]
    clauses: list[list[int]] = []
    clauses.append([-lits[0], registers[0][0]])
    for j in range(1, k):
        clauses.append([-registers[0][j]])
    for i in range(1, n - 1):
        clauses.append([-lits[i], registers[i][0]])
        clauses.append([-registers[i - 1][0], registers[i][0]])
        for j in range(1, k):
            clauses.append([-lits[i], -registers[i - 1][j - 1], registers[i][j]])
            clauses.append([-registers[i - 1][j], registers[i][j]])
        clauses.append([-lits[i], -registers[i - 1][k - 1]])
    clauses.append([-lits[n - 1], -registers[n - 2][k - 1]])
    return clauses


class Totalizer:
    """Unary counting tree over a set of input literals.

    After construction, ``outputs[j]`` is a literal meaning "at least j+1
    inputs are true" (outputs are totally ordered: output j+1 implies
    output j). Bounds can be asserted incrementally::

        tot = Totalizer(lits, new_var, collect)
        collect.extend(tot.at_most(5))   # now
        collect.extend(tot.at_most(3))   # tightened later

    which tightens a bound without re-encoding.
    """

    def __init__(
        self,
        lits: Sequence[int],
        new_var: NewVar,
        clauses: list[list[int]] | None = None,
    ):
        self.clauses: list[list[int]] = clauses if clauses is not None else []
        self._new_var = new_var
        self.outputs = self._build(list(lits))

    def _build(self, lits: list[int]) -> list[int]:
        if len(lits) <= 1:
            return lits
        mid = len(lits) // 2
        left = self._build(lits[:mid])
        right = self._build(lits[mid:])
        return self._merge(left, right)

    def _merge(self, left: list[int], right: list[int]) -> list[int]:
        total = len(left) + len(right)
        out = [self._new_var() for _ in range(total)]
        # (left >= a) and (right >= b)  implies  (out >= a+b)
        for a in range(len(left) + 1):
            for b in range(len(right) + 1):
                sigma = a + b
                if sigma == 0:
                    continue
                clause = [out[sigma - 1]]
                if a > 0:
                    clause.insert(0, -left[a - 1])
                if b > 0:
                    clause.insert(0, -right[b - 1])
                self.clauses.append(clause)
        # Ordering: out >= j+1 implies out >= j (for model readability).
        for j in range(1, total):
            self.clauses.append([-out[j], out[j - 1]])
        return out

    def at_most(self, k: int) -> list[list[int]]:
        """Clauses asserting at most *k* inputs are true.

        Thanks to the ordering clauses between outputs, a single unit
        clause ``¬outputs[k]`` suffices: falsity cascades upward.
        """
        if k < 0:
            return [[]]
        if k >= len(self.outputs):
            return []
        return [[-self.outputs[k]]]


def at_most_k(
    lits: Sequence[int],
    k: int,
    new_var: NewVar,
    method: str = "auto",
) -> list[list[int]]:
    """Encode at-most-k with the requested *method* (auto/pairwise/seq/totalizer)."""
    lits = list(lits)
    if method == "auto":
        if k == 1 and len(lits) <= 8:
            method = "pairwise"
        else:
            method = "seq"
    if method == "pairwise":
        if k == 1:
            return at_most_one_pairwise(lits)
        return at_most_k_pairwise(lits, k)
    if method == "seq":
        return at_most_k_seqcounter(lits, k, new_var)
    if method == "totalizer":
        if k < 0:
            return [[]]
        tot = Totalizer(lits, new_var)
        return tot.clauses + tot.at_most(k)
    raise ValueError(f"unknown cardinality method {method!r}")


def at_least_k(
    lits: Sequence[int],
    k: int,
    new_var: NewVar,
    method: str = "auto",
) -> list[list[int]]:
    """Encode at-least-k as at-most-(n-k) over the negated literals."""
    lits = list(lits)
    if k <= 0:
        return []
    if k > len(lits):
        return [[]]
    if k == 1:
        return [list(lits)]
    return at_most_k([-lit for lit in lits], len(lits) - k, new_var, method)


def exactly_k(
    lits: Sequence[int],
    k: int,
    new_var: NewVar,
    method: str = "auto",
) -> list[list[int]]:
    """Encode exactly-k as the conjunction of at-most-k and at-least-k."""
    return at_most_k(lits, k, new_var, method) + at_least_k(
        lits, k, new_var, method
    )
