"""Lightweight SMT layer: bounded integer linear arithmetic over SAT.

The reasoning engine needs just enough arithmetic for resource accounting —
"the cores demanded by the selected systems must not exceed the cores the
selected servers provide". This package provides bounded integer variables
(:class:`IntVar`), linear expressions and comparisons over them, and a
bit-blasting encoder (:class:`IntEncoder`) that compiles them into the
solver.

An asserted ``<=`` — plain or behind a guard literal, so conditional rules
("if Simon is deployed, SmartNIC memory use rises by X") compose with the
Boolean layer — becomes one native linear constraint over the bits.
:meth:`IntEncoder.reify` returns a literal equivalent to any constraint,
built from ripple-carry adders and lexicographic comparators, for
comparisons nested inside Boolean structure.
"""

from repro.smt.encoder import IntEncoder
from repro.smt.intervals import Interval, bounds_of
from repro.smt.terms import IntVar, LinConstraint, LinExpr

__all__ = [
    "IntEncoder",
    "Interval",
    "IntVar",
    "LinConstraint",
    "LinExpr",
    "bounds_of",
]
