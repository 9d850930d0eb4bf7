"""Bit-blasting encoder: bounded integer constraints to SAT.

Each :class:`~repro.smt.terms.IntVar` with domain ``[lo, hi]`` becomes an
unsigned bit vector of ``ceil(log2(hi - lo + 1))`` fresh solver variables
holding ``value - lo``, plus a range constraint.

An asserted ``<=`` (plain or behind a guard literal) becomes one native
solver constraint ``sum(w * bit) <= bound`` over those bits
(:meth:`~repro.sat.solver.Solver.add_linear`), which propagates by slack.
A guard is one more literal, weighted so that a false guard leaves the
sum unbounded. Comparisons that must sit inside Boolean structure
(``==``, a reified ``<=`` literal such as a per-device fit, the range
check) are still reified: negative-coefficient terms move across the
inequality so both sides are sums of non-negative terms, ripple-carry
adders build each side, and a lexicographic unsigned comparator
compares them.
"""

from __future__ import annotations

from repro.errors import EncodingError
from repro.logic.pseudo_boolean import PBTerm, normalize_pb
from repro.smt.intervals import trivially
from repro.smt.terms import IntVar, LinConstraint


class IntEncoder:
    """Compiles integer variables and linear constraints into a solver.

    Parameters
    ----------
    solver:
        Anything with ``new_var()``, ``add_clause()`` and
        ``add_linear()`` (a :class:`repro.sat.Solver`).
    """

    def __init__(self, solver):
        self.solver = solver
        self._bits: dict[IntVar, list[int]] = {}
        self._true_lit: int | None = None
        self._and_cache: dict[tuple[int, int], int] = {}
        self._xor_cache: dict[tuple[int, int], int] = {}
        # Adder-tree results for repeated linear sums (bound bisection
        # re-encodes the same expression with different constants).
        self._sum_cache: dict[tuple[tuple[str, int], ...], list[int]] = {}

    # -- primitive gates ------------------------------------------------------

    def _true(self) -> int:
        if self._true_lit is None:
            self._true_lit = self.solver.new_var()
            self.solver.add_clause([self._true_lit])
        return self._true_lit

    def _false(self) -> int:
        return -self._true()

    def _and2(self, a: int, b: int) -> int:
        """Reified a AND b (with constant folding and caching)."""
        t = self._true()
        if a == t:
            return b
        if b == t:
            return a
        if a == -t or b == -t:
            return -t
        if a == b:
            return a
        if a == -b:
            return -t
        key = (min(a, b), max(a, b))
        cached = self._and_cache.get(key)
        if cached is not None:
            return cached
        out = self.solver.new_var()
        self.solver.add_clause([-out, a])
        self.solver.add_clause([-out, b])
        self.solver.add_clause([out, -a, -b])
        self._and_cache[key] = out
        return out

    def _or2(self, a: int, b: int) -> int:
        return -self._and2(-a, -b)

    def _xor2(self, a: int, b: int) -> int:
        """Reified a XOR b."""
        t = self._true()
        if a == t:
            return -b
        if b == t:
            return -a
        if a == -t:
            return b
        if b == -t:
            return a
        if a == b:
            return -t
        if a == -b:
            return t
        key = (min(a, b), max(a, b))
        cached = self._xor_cache.get(key)
        if cached is not None:
            return cached
        out = self.solver.new_var()
        self.solver.add_clause([-out, a, b])
        self.solver.add_clause([-out, -a, -b])
        self.solver.add_clause([out, -a, b])
        self.solver.add_clause([out, a, -b])
        self._xor_cache[key] = out
        return out

    def _iff2(self, a: int, b: int) -> int:
        return -self._xor2(a, b)

    def _majority(self, a: int, b: int, c: int) -> int:
        """Reified majority(a, b, c) — the full-adder carry."""
        t = self._true()
        consts = sum(1 for x in (a, b, c) if x in (t, -t))
        if consts:
            # Fold constants via the identities maj(1,b,c)=b|c, maj(0,b,c)=b&c.
            lits = [a, b, c]
            for i, x in enumerate(lits):
                if x == t:
                    rest = [y for j, y in enumerate(lits) if j != i]
                    return self._or2(rest[0], rest[1])
                if x == -t:
                    rest = [y for j, y in enumerate(lits) if j != i]
                    return self._and2(rest[0], rest[1])
        out = self.solver.new_var()
        for x, y in ((a, b), (a, c), (b, c)):
            self.solver.add_clause([-x, -y, out])
            self.solver.add_clause([x, y, -out])
        return out

    # -- bit vectors -----------------------------------------------------------

    def const_bits(self, value: int) -> list[int]:
        """Bit vector (LSB first) for a non-negative constant."""
        if value < 0:
            raise EncodingError(f"const_bits needs a non-negative value, got {value}")
        t = self._true()
        bits = []
        while value:
            bits.append(t if value & 1 else -t)
            value >>= 1
        return bits

    def bind_boolean(self, var: IntVar, lit: int) -> None:
        """Bind a 0/1 IntVar to an existing Boolean literal.

        Afterwards the variable's value equals the literal's truth value,
        letting linear constraints mix selection booleans ("system S is
        deployed") with genuine counts ("units of switch model H").
        """
        if (var.lo, var.hi) != (0, 1):
            raise EncodingError(
                f"bind_boolean needs domain [0, 1], got [{var.lo}, {var.hi}] "
                f"for {var.name}"
            )
        existing = self._bits.get(var)
        if existing is not None:
            if existing != [lit]:
                raise EncodingError(f"{var.name} already encoded differently")
            return
        self._bits[var] = [lit]

    def bits_for(self, var: IntVar) -> list[int]:
        """Allocate (or fetch) the offset-binary bit vector for *var*."""
        bits = self._bits.get(var)
        if bits is not None:
            return bits
        span = var.hi - var.lo
        width = max(1, span.bit_length())
        bits = [self.solver.new_var() for _ in range(width)]
        self._bits[var] = bits
        # Range constraint: value - lo <= span.
        le = self._leq_bits(bits, self.const_bits(span))
        self.solver.add_clause([le])
        return bits

    def _add_bits(self, a: list[int], b: list[int]) -> list[int]:
        """Ripple-carry addition of two unsigned bit vectors."""
        width = max(len(a), len(b))
        f = self._false()
        a = a + [f] * (width - len(a))
        b = b + [f] * (width - len(b))
        out: list[int] = []
        carry = f
        for ai, bi in zip(a, b):
            partial = self._xor2(ai, bi)
            out.append(self._xor2(partial, carry))
            carry = self._majority(ai, bi, carry)
        out.append(carry)
        return out

    def _mul_const(self, bits: list[int], factor: int) -> list[int]:
        """Multiply a bit vector by a non-negative constant (shift-add)."""
        if factor < 0:
            raise EncodingError("negative factors must be normalized away first")
        if factor == 0:
            return []
        f = self._false()
        result: list[int] = []
        shift = 0
        while factor:
            if factor & 1:
                shifted = [f] * shift + bits
                result = self._add_bits(result, shifted) if result else shifted
            factor >>= 1
            shift += 1
        return result

    def _sum_bits(self, vectors: list[list[int]]) -> list[int]:
        """Balanced-tree sum of many bit vectors."""
        if not vectors:
            return []
        while len(vectors) > 1:
            nxt = []
            for i in range(0, len(vectors) - 1, 2):
                nxt.append(self._add_bits(vectors[i], vectors[i + 1]))
            if len(vectors) % 2:
                nxt.append(vectors[-1])
            vectors = nxt
        return vectors[0]

    def _leq_bits(self, a: list[int], b: list[int]) -> int:
        """Reified unsigned comparison ``a <= b`` (LSB-first vectors)."""
        width = max(len(a), len(b), 1)
        f = self._false()
        a = a + [f] * (width - len(a))
        b = b + [f] * (width - len(b))
        result = self._true()  # empty prefixes are equal
        for ai, bi in zip(a, b):  # LSB to MSB; the higher bit dominates
            lt = self._and2(-ai, bi)
            eq = self._iff2(ai, bi)
            result = self._or2(lt, self._and2(eq, result))
        return result

    def _eq_bits(self, a: list[int], b: list[int]) -> int:
        """Reified bitwise equality."""
        width = max(len(a), len(b), 1)
        f = self._false()
        a = a + [f] * (width - len(a))
        b = b + [f] * (width - len(b))
        result = self._true()
        for ai, bi in zip(a, b):
            result = self._and2(result, self._iff2(ai, bi))
        return result

    # -- constraints -----------------------------------------------------------

    def reify(self, constraint: LinConstraint) -> int:
        """Return a literal equivalent to *constraint*."""
        verdict = trivially(constraint)
        if verdict is True:
            return self._true()
        if verdict is False:
            return self._false()
        # Build both sides as sums of non-negative bit vectors.
        # expr = sum(c_i * v_i) + const; each v_i = lo_i + x_i, x_i >= 0.
        # The variable parts of each side are cached so bound bisection
        # (same expression, shifting constant) reuses one adder tree.
        offset = constraint.expr.const
        pos_terms: list[tuple[IntVar, int]] = []
        neg_terms: list[tuple[IntVar, int]] = []
        for var, coeff in constraint.expr.coeffs.items():
            offset += coeff * var.lo
            if coeff > 0:
                pos_terms.append((var, coeff))
            elif coeff < 0:
                neg_terms.append((var, -coeff))
        lhs_var = self._cached_sum(pos_terms)
        rhs_var = self._cached_sum(neg_terms)
        lhs_vectors = [lhs_var] if lhs_var else []
        rhs_vectors = [rhs_var] if rhs_var else []
        if offset > 0:
            lhs_vectors.append(self.const_bits(offset))
        elif offset < 0:
            rhs_vectors.append(self.const_bits(-offset))
        lhs = self._sum_bits(lhs_vectors)
        rhs = self._sum_bits(rhs_vectors)
        if constraint.op == "<=":
            return self._leq_bits(lhs, rhs)
        return self._eq_bits(lhs, rhs)

    def _cached_sum(self, terms: list[tuple[IntVar, int]]) -> list[int]:
        """Adder tree for sum(coeff * var) with positive coeffs, cached."""
        if not terms:
            return []
        key = tuple(sorted((var.name, coeff) for var, coeff in terms))
        cached = self._sum_cache.get(key)
        if cached is not None:
            return cached
        vectors = [
            self._mul_const(self.bits_for(var), coeff) for var, coeff in terms
        ]
        result = self._sum_bits(vectors)
        self._sum_cache[key] = result
        return result

    def assert_constraint(self, constraint: LinConstraint) -> None:
        """Assert that *constraint* holds."""
        if constraint.op == "<=":
            self._assert_linear(None, constraint)
        else:
            self.solver.add_clause([self.reify(constraint)])

    def assert_implies(self, guard_lit: int, constraint: LinConstraint) -> None:
        """Assert ``guard -> constraint`` (conditional resource rule)."""
        if constraint.op == "<=":
            self._assert_linear(guard_lit, constraint)
        else:
            self.solver.add_clause([-guard_lit, self.reify(constraint)])

    def _assert_linear(self, guard: int | None, constraint: LinConstraint) -> None:
        """Assert ``guard -> expr <= 0`` as one native linear constraint.

        ``sum(w * lit) <= bound`` over the bits becomes
        ``sum(w * lit) + (total - bound) * guard <= total``: a true guard
        leaves the bound, a false one allows every sum.
        """
        verdict = trivially(constraint)
        if verdict is True:
            return
        terms, bound = self._linear_terms(constraint)
        total = sum(t.weight for t in terms)
        if bound >= total:
            return
        if bound < 0:
            self.solver.add_clause([] if guard is None else [-guard])
            return
        pairs = [(t.weight, t.lit) for t in terms]
        if guard is not None:
            pairs.append((total - bound, guard))
            bound = total
        self.solver.add_linear(pairs, bound)

    def _linear_terms(self, constraint: LinConstraint) -> tuple[list[PBTerm], int]:
        """``expr <= 0`` as ``sum(w * lit) <= bound`` over the bits.

        Weights come out positive and each variable appears once.
        """
        offset = constraint.expr.const
        terms: list[PBTerm] = []
        for var, coeff in constraint.expr.coeffs.items():
            offset += coeff * var.lo
            for j, bit in enumerate(self.bits_for(var)):
                terms.append(PBTerm(coeff << j, bit))
        return normalize_pb(terms, -offset)

    def referenced_vars(self) -> set[int]:
        """Variables that future encodings may mention again.

        IntVar bit vectors, cached gate inputs/outputs, and cached adder
        trees are all returned verbatim by later :meth:`reify` calls, so
        they must survive CNF preprocessing (frozen, never eliminated).
        """
        out: set[int] = set()
        for bits in self._bits.values():
            out.update(abs(b) for b in bits)
        for cache in (self._and_cache, self._xor_cache):
            for (a, b), lit in cache.items():
                out.add(abs(a))
                out.add(abs(b))
                out.add(abs(lit))
        for bits in self._sum_cache.values():
            out.update(abs(b) for b in bits)
        if self._true_lit is not None:
            out.add(self._true_lit)
        return out

    # -- model extraction --------------------------------------------------------

    def value_of(self, var: IntVar, model: dict[int, bool]) -> int:
        """Read an IntVar's value out of a SAT model."""
        bits = self._bits.get(var)
        if bits is None:
            # Never encoded: unconstrained; any in-range value works.
            return var.lo
        raw = 0
        for i, bit in enumerate(bits):
            positive = bit > 0
            val = model.get(abs(bit), False)
            if val == positive:
                raw |= 1 << i
        return var.lo + raw

    def values(self, model: dict[int, bool]) -> dict[IntVar, int]:
        """Values of every encoded IntVar in *model*."""
        return {var: self.value_of(var, model) for var in self._bits}
