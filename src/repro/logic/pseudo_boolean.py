"""Pseudo-Boolean constraints: weighted sums of literals vs. a bound.

Encodes constraints of the form ``sum(w_i * lit_i) <= k`` (and friends)
to CNF using the *generalized totalizer* (GTE) with saturation: node
outputs are value-labelled "sum >= v" literals, and every partial sum
above ``k`` collapses into a single saturated value ``k+1``, keeping node
dictionaries at most ``k+1`` entries wide.

Negative weights are normalized away by the identity
``w*x == w - w*(1-x)``, and equalities split into two inequalities.

The reasoning engine uses this for resource budgets (cores, SmartNIC
capacity, power, cost) and the optimizer (``repro.opt``) for objective
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

NewVar = Callable[[], int]


@dataclass(frozen=True)
class PBTerm:
    """One ``weight * literal`` term of a pseudo-Boolean sum."""

    weight: int
    lit: int

    def __post_init__(self):
        if self.lit == 0:
            raise ValueError("literal 0 is invalid in a PB term")
        if not isinstance(self.weight, int):
            raise TypeError(f"PB weight must be int, got {self.weight!r}")


def normalize_pb(
    terms: Sequence[PBTerm], bound: int
) -> tuple[list[PBTerm], int]:
    """Rewrite so every weight is positive and duplicate literals merge.

    Returns the equivalent ``(terms, bound)`` for ``sum <= bound``.
    Opposite-polarity literal pairs are folded using ``x + (1-x) == 1``.
    """
    by_lit: dict[int, int] = {}
    for term in terms:
        if term.weight == 0:
            continue
        by_lit[term.lit] = by_lit.get(term.lit, 0) + term.weight
    # Fold w1*x + w2*(-x): move min(w1, w2) into the constant.
    for lit in list(by_lit):
        if lit > 0 and -lit in by_lit:
            w_pos, w_neg = by_lit[lit], by_lit[-lit]
            common = min(w_pos, w_neg)
            bound -= common
            by_lit[lit] = w_pos - common
            by_lit[-lit] = w_neg - common
    out: list[PBTerm] = []
    for lit, weight in by_lit.items():
        if weight == 0:
            continue
        if weight < 0:
            # w*x == w - w*(not x); move the constant to the bound.
            bound -= weight
            out.append(PBTerm(-weight, -lit))
        else:
            out.append(PBTerm(weight, lit))
    return out, bound


class GeneralizedTotalizer:
    """Value-labelled counting tree over weighted literals.

    ``geq_literal(v)`` (for achievable v) is a literal implied whenever the
    true-literal weights sum to at least ``v``. Sums above the saturation
    cap all map to the cap value, so asserting the cap's negation encodes
    ``sum <= cap - 1``. Bounds can be tightened incrementally by asserting
    negations of larger values first — the optimizer's descent relies on
    this.
    """

    def __init__(
        self,
        terms: Sequence[PBTerm],
        cap: int,
        new_var: NewVar,
        clauses: list[list[int]] | None = None,
    ):
        if cap < 1:
            raise ValueError(f"saturation cap must be >= 1, got {cap}")
        self.cap = cap
        self.clauses: list[list[int]] = clauses if clauses is not None else []
        self._new_var = new_var
        positive = [t for t in terms if t.weight > 0]
        if any(t.weight < 0 for t in terms):
            raise ValueError("normalize_pb must be applied first (negative weight)")
        if not positive:
            self.node: dict[int, int] = {}
        else:
            self.node = self._build(list(positive))

    def _build(self, terms: list[PBTerm]) -> dict[int, int]:
        if len(terms) == 1:
            term = terms[0]
            value = min(term.weight, self.cap)
            return {value: term.lit}
        mid = len(terms) // 2
        return self._merge(self._build(terms[:mid]), self._build(terms[mid:]))

    def _merge(self, left: dict[int, int], right: dict[int, int]) -> dict[int, int]:
        values: set[int] = set()
        for a in left:
            values.add(min(a, self.cap))
        for b in right:
            values.add(min(b, self.cap))
        for a in left:
            for b in right:
                values.add(min(a + b, self.cap))
        node = {v: self._new_var() for v in sorted(values)}
        # Implications: child sums force parent outputs.
        for a, alit in left.items():
            self.clauses.append([-alit, node[min(a, self.cap)]])
        for b, blit in right.items():
            self.clauses.append([-blit, node[min(b, self.cap)]])
        for a, alit in left.items():
            for b, blit in right.items():
                self.clauses.append([-alit, -blit, node[min(a + b, self.cap)]])
        # Ordering chain: sum >= v implies sum >= v' for v' < v.
        ordered = sorted(node)
        for lo, hi in zip(ordered, ordered[1:]):
            self.clauses.append([-node[hi], node[lo]])
        return node

    def values(self) -> list[int]:
        """Achievable (saturated) sum values, ascending."""
        return sorted(self.node)

    def geq_literal(self, value: int) -> int | None:
        """Literal for "sum >= value", or None if no achievable value >= it.

        Returns the literal of the smallest achievable value >= *value*
        (sound for asserting upper bounds via its negation).
        """
        candidates = [v for v in self.node if v >= value]
        if not candidates:
            return None
        return self.node[min(candidates)]

    def assert_leq(self, bound: int) -> list[list[int]]:
        """Clauses asserting ``sum <= bound``."""
        if bound < 0:
            return [[]]
        lit = self.geq_literal(bound + 1)
        if lit is None:
            return []
        return [[-lit]]


def encode_pb_leq(
    terms: Sequence[PBTerm],
    bound: int,
    new_var: NewVar,
) -> list[list[int]]:
    """Encode ``sum(w_i * lit_i) <= bound`` to clauses."""
    norm_terms, norm_bound = normalize_pb(terms, bound)
    if norm_bound < 0:
        return [[]]
    if not norm_terms:
        return []
    total = sum(t.weight for t in norm_terms)
    if total <= norm_bound:
        return []
    # Terms that individually exceed the bound must be false.
    forced = [t for t in norm_terms if t.weight > norm_bound]
    rest = [t for t in norm_terms if t.weight <= norm_bound]
    clauses: list[list[int]] = [[-t.lit] for t in forced]
    if not rest:
        return clauses
    if sum(t.weight for t in rest) <= norm_bound:
        return clauses
    gte = GeneralizedTotalizer(rest, cap=norm_bound + 1, new_var=new_var)
    clauses.extend(gte.clauses)
    clauses.extend(gte.assert_leq(norm_bound))
    return clauses


def encode_pb_geq(
    terms: Sequence[PBTerm],
    bound: int,
    new_var: NewVar,
) -> list[list[int]]:
    """Encode ``sum(w_i * lit_i) >= bound`` via the <= dual.

    ``sum(w*x) >= b`` is ``sum(-w*x) <= -b``; :func:`normalize_pb` then
    removes the negative weights.
    """
    negated = [PBTerm(-t.weight, t.lit) for t in terms]
    return encode_pb_leq(negated, -bound, new_var)


def encode_pb_eq(
    terms: Sequence[PBTerm],
    bound: int,
    new_var: NewVar,
) -> list[list[int]]:
    """Encode ``sum(w_i * lit_i) == bound`` as the two inequalities."""
    return encode_pb_leq(terms, bound, new_var) + encode_pb_geq(
        terms, bound, new_var
    )
