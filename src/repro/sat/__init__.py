"""From-scratch CDCL SAT solver substrate.

The paper prototypes its reasoning layer as "a shim layer over SAT solvers"
(§5.1). This environment has no off-the-shelf solver, so this package
implements one: a conflict-driven clause-learning (CDCL) solver in the
MiniSat lineage with two-watched-literal propagation, first-UIP learning,
VSIDS branching with phase saving, Luby restarts, learnt-clause database
reduction, and solving under assumptions with unsat-core extraction.

Literals are nonzero Python ints: ``+v`` is variable ``v`` asserted true,
``-v`` asserted false — DIMACS convention throughout.

Example
-------
>>> from repro.sat import Solver
>>> s = Solver()
>>> a, b = s.new_var(), s.new_var()
>>> s.add_clause([a, b])
True
>>> s.add_clause([-a])
True
>>> s.solve()
True
>>> s.value(b)
True
"""

from repro.sat.clause import Clause
from repro.sat.dimacs import parse_dimacs, write_dimacs
from repro.sat.drat import Proof, check_rup_proof
from repro.sat.solver import SolveResult, Solver, SolverProgress, SolverStats

__all__ = [
    "Clause",
    "Proof",
    "SolveResult",
    "Solver",
    "SolverProgress",
    "SolverStats",
    "check_rup_proof",
    "parse_dimacs",
    "write_dimacs",
]
