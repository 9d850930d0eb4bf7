"""The `FactStore` interface: an append-only log of KB mutations.

The knowledge base is, logically, a fold over a sequence of *facts*:

    (seq, op, kind, name, payload)

``op`` is one of the mutation verbs (``upsert``, ``remove``,
``add_ordering``, ``remove_ordering``, ``set_orderings``); ``kind`` names
the entity class (``system``/``hardware``/``rule``/``ordering``); ``name``
is the entity name (for orderings, the dimension); ``payload`` is the
entity's ``to_dict()`` serialization (or ``None`` for removals).

Backends only need to persist and replay that sequence — the registry
(:class:`~repro.kb.registry.KnowledgeBase`) owns the semantics. A store
attached to a KB receives one fact per mutation (write-through), and a
daemon ``PUT /kb`` appends its whole delta with one :meth:`FactStore.extend`;
:meth:`KnowledgeBase.from_store` rebuilds a KB by replaying the log.

Sequence numbers start at 1 and are assigned by the store. ``scan``
captures the log's upper bound when called, so a reader iterating a scan
never observes facts appended after the scan began (snapshot isolation).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

#: Mutation verbs a store may be asked to persist.
FACT_OPS = ("upsert", "remove", "add_ordering", "remove_ordering",
            "set_orderings")

#: Entity classes facts may reference.
FACT_KINDS = ("system", "hardware", "rule", "ordering")


@dataclass(frozen=True)
class Fact:
    """One appended KB mutation."""

    seq: int
    op: str
    kind: str
    name: str
    payload: Any = None

    def to_op(self) -> dict:
        """The wire/delta representation (see ``apply_entity_delta``)."""
        op: dict[str, Any] = {"op": self.op, "entity": self.kind,
                              "name": self.name}
        if self.payload is not None:
            op["payload"] = self.payload
        return op


class FactStore(abc.ABC):
    """Append-only persistence for KB facts."""

    def append(self, op: str, kind: str, name: str,
               payload: Any = None) -> Fact:
        """Durably append one fact; returns it with its assigned seq."""
        return self.extend([(op, kind, name, payload)])[0]

    @abc.abstractmethod
    def extend(self, facts: Iterable[tuple]) -> list[Fact]:
        """Durably append ``(op, kind, name, payload)`` records, all or
        none: on failure the log is left as it was. Returns the facts
        with their assigned seqs."""

    @abc.abstractmethod
    def scan(self, after: int = 0, upto: int | None = None) -> Iterator[Fact]:
        """Yield facts with ``after < seq <= upto`` in seq order.

        ``upto`` defaults to :attr:`latest_seq` *at call time*: facts
        appended while the scan is being consumed are not yielded.
        """

    @property
    @abc.abstractmethod
    def latest_seq(self) -> int:
        """Highest assigned sequence number (0 when empty)."""

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release any underlying resources (idempotent)."""

    def __enter__(self) -> "FactStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def validate_fact(op: str, kind: str, name: str) -> None:
    """Shared argument validation for store implementations."""
    if op not in FACT_OPS:
        raise ValueError(f"unknown fact op {op!r}; expected one of {FACT_OPS}")
    if kind not in FACT_KINDS:
        raise ValueError(
            f"unknown fact kind {kind!r}; expected one of {FACT_KINDS}"
        )
    if not isinstance(name, str) or not name:
        raise ValueError(f"fact name must be a non-empty string, got {name!r}")
