"""Flat clause storage for the CDCL solver.

The solver keeps every clause — given and learnt, binary and long — in
one :class:`ClauseArena`: a single contiguous ``array('i')`` buffer of
``[size, lit, lit, ...]`` blocks. A clause is identified by its *clause
reference* (cref), the integer offset of its size word in the buffer.
Slot 0 holds a sentinel so every valid cref is positive and ``0`` can
mean "no clause" (e.g. a decision's reason).

This replaces the original object-per-clause layout (one Python object
with a ``lits`` list, ``deleted`` flag, and metadata slots per clause).
The arena wins on the hot path twice over: unit propagation indexes
straight into one flat buffer instead of chasing per-clause object and
list pointers, and garbage collection is arena *compaction* — live
clauses are copied into a fresh buffer and every watcher list is rebuilt
from scratch — instead of ``deleted`` flags that every traversal must
test (and that leak stale watcher entries in lists propagation never
happens to visit).

Learnt-clause metadata (activity, LBD) lives in small side dicts keyed
by cref, owned by the solver: only learnt clauses carry metadata, and
none of it is touched by propagation.

The legacy :class:`Clause` object is kept only as a public convenience
type (a few callers build standalone clause values); the solver itself
no longer allocates it anywhere.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence


class ClauseArena:
    """A flat ``[size, lits...]`` buffer of clauses addressed by cref.

    The ``data`` buffer is public on purpose: the solver's propagation
    loop binds it to a local and indexes it directly, because in CPython
    a method call per clause visit would dominate the loop.
    """

    __slots__ = ("data",)

    def __init__(self) -> None:
        # Slot 0 is a sentinel so cref 0 never names a clause.
        self.data = array("i", [0])

    def add(self, lits: Sequence[int]) -> int:
        """Append a clause; return its cref."""
        data = self.data
        cref = len(data)
        data.append(len(lits))
        data.extend(lits)
        return cref

    def size(self, cref: int) -> int:
        """Number of literals in the clause at *cref*."""
        return self.data[cref]

    def literals(self, cref: int) -> list[int]:
        """The literals of the clause at *cref*, as a fresh list."""
        data = self.data
        return data[cref + 1: cref + 1 + data[cref]].tolist()

    def __len__(self) -> int:
        return len(self.data)

    def compact(self, live: Iterable[int]) -> tuple["ClauseArena", dict[int, int]]:
        """Copy the *live* crefs into a fresh arena; return (arena, remap).

        *live* is an ordered iterable of crefs; duplicates are copied
        once. The returned remap sends every old live cref to its new
        one. The old arena is left untouched (callers swap it out).
        """
        data = self.data
        out = ClauseArena()
        new_data = out.data
        remap: dict[int, int] = {}
        for cref in live:
            if cref in remap:
                continue
            size = data[cref]
            remap[cref] = len(new_data)
            new_data.append(size)
            new_data.extend(data[cref + 1: cref + 1 + size])
        return out, remap


class Clause:
    """A standalone disjunction of literals (legacy convenience type).

    The solver stores its clauses in a :class:`ClauseArena`; this object
    remains for callers that want a self-describing clause value.
    """

    __slots__ = ("lits", "learnt", "activity", "lbd", "deleted")

    def __init__(self, lits: list[int], learnt: bool = False):
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0
        self.lbd = 0
        self.deleted = False

    def __len__(self) -> int:
        return len(self.lits)

    def __iter__(self):
        return iter(self.lits)

    def __getitem__(self, idx: int) -> int:
        return self.lits[idx]

    def __repr__(self) -> str:
        kind = "learnt" if self.learnt else "given"
        return f"Clause({self.lits}, {kind})"
