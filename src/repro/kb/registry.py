"""The knowledge base: a validating registry of encodings.

Holds systems, hardware, rules, and orderings; checks cross-references at
registration time (dangling conflicts, unknown scopes, ordering cycles);
measures its own specification length (the paper's §3.1 success metric —
"the length of specification should grow linearly with the number of
systems, hardware and workloads included"); and serializes to/from plain
dicts for the extraction pipeline and crowd-sourced contribution.

Logically the KB is a fold over an append-only *fact log* (see
:mod:`repro.kb.store`): every mutation is one fact, and attaching a
:class:`~repro.kb.store.FactStore` makes mutations write-through so the
catalog survives restarts and can be replayed elsewhere.

Invalidation is tracked per *entity*, not per KB. Each entity has a key::

    ("system", name) | ("hardware", model) | ("rule", name)
    | ("ordering", dimension)

plus three membership keys — ``("systems@", "")``, ``("hardware@", "")``,
``("rules@", "")`` — that change whenever the corresponding catalog gains
or loses a member (so a consumer that ranges over "all systems" is
invalidated by an addition even though no key it pinned changed). Every
mutation dirties its entity keys and lands in a bounded journal;
:meth:`changed_entities` answers "what changed since version v", and
:meth:`scoped_fingerprint` hashes only the entities a consumer actually
reads — the foundation for delta invalidation in sessions, caches, and
the serve layer.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.errors import DuplicateEntryError, UnknownEntityError, ValidationError
from repro.kb.dsl import PROPERTY_SCOPES
from repro.kb.hardware import Hardware
from repro.kb.ordering import Ordering, OrderingGraph
from repro.kb.properties import PROPERTY_CATALOG
from repro.kb.resources import RESOURCE_CATALOG
from repro.kb.rules import Rule
from repro.kb.serialize import formula_from_dict, formula_to_dict
from repro.kb.system import System
from repro.logic.ast import (
    And,
    AtLeast,
    AtMost,
    Const,
    Exactly,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    Xor,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kb.store.base import FactStore

#: ``(kind, name)`` — the unit of change tracking and scoped hashing.
EntityKey = tuple[str, str]

#: Kinds whose change a compiled session can absorb without a full
#: rebase (see ``ReasoningSession``): rules re-ground their one guard
#: group in place; orderings never enter the CNF at all (graphs are
#: built interpretively per query).
PATCHABLE_KINDS = frozenset({"rule", "rules@", "ordering"})

_MEMBERSHIP_KEYS: tuple[EntityKey, ...] = (
    ("systems@", ""), ("hardware@", ""), ("rules@", "")
)

#: Journal length bound. Consumers further behind than this get a
#: ``None`` ("don't know") answer and fall back to full invalidation.
_JOURNAL_LIMIT = 1024

#: Scoped-fingerprint memo bound (scopes are shared across requests of
#: the same shape, so this stays small in practice).
_SCOPE_MEMO_LIMIT = 256


def formula_size(formula: Formula) -> int:
    """Number of AST nodes — the unit of 'specification length' (§3.1)."""
    if isinstance(formula, (Const, Var)):
        return 1
    if isinstance(formula, Not):
        return 1 + formula_size(formula.child)
    if isinstance(formula, (And, Or)):
        return 1 + sum(formula_size(c) for c in formula.children)
    if isinstance(formula, Implies):
        return 1 + formula_size(formula.antecedent) + formula_size(formula.consequent)
    if isinstance(formula, (Iff, Xor)):
        return 1 + formula_size(formula.left) + formula_size(formula.right)
    if isinstance(formula, (AtMost, AtLeast, Exactly)):
        return 1 + sum(formula_size(c) for c in formula.children)
    raise ValidationError(f"unknown formula node {formula!r}")


def ordering_to_dict(ordering: Ordering) -> dict:
    """Canonical serialization of one ordering edge."""
    return {
        "better": ordering.better,
        "worse": ordering.worse,
        "dimension": ordering.dimension,
        "condition": formula_to_dict(ordering.condition),
        "source": ordering.source,
        "subjective": ordering.subjective,
    }


def ordering_from_dict(payload: dict) -> Ordering:
    return Ordering(
        better=payload["better"],
        worse=payload["worse"],
        dimension=payload["dimension"],
        condition=formula_from_dict(payload.get("condition", True)),
        source=payload.get("source", ""),
        subjective=bool(payload.get("subjective", False)),
    )


@dataclass
class ValidationIssue:
    """One problem found by :meth:`KnowledgeBase.validate`."""

    severity: str  # "error" | "warning"
    entity: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.entity}: {self.message}"


@dataclass
class KnowledgeBase:
    """Registry of all encoded facts."""

    systems: dict[str, System] = field(default_factory=dict)
    hardware: dict[str, Hardware] = field(default_factory=dict)
    rules: dict[str, Rule] = field(default_factory=dict)
    orderings: list[Ordering] = field(default_factory=list)
    #: Bumped on every registration; lets caches detect KB mutation
    #: without rehashing. Mutations must go through the mutation
    #: methods for this (and :meth:`fingerprint`) to be valid.
    _version: int = field(default=0, repr=False, compare=False)
    _fingerprint_cache: str | None = field(
        default=None, repr=False, compare=False
    )
    #: Per-entity content hashes, invalidated key-wise on mutation.
    _entity_fps: dict = field(default_factory=dict, repr=False, compare=False)
    #: Bounded mutation journal: ``[(version, entity_key), ...]``.
    _journal: list = field(default_factory=list, repr=False, compare=False)
    #: Versions ``<= _journal_floor`` are older than the journal covers.
    _journal_floor: int = field(default=0, repr=False, compare=False)
    #: ``{scope: (version, fingerprint)}`` memo for scoped hashing.
    _scope_memo: dict = field(default_factory=dict, repr=False, compare=False)
    #: Attached write-through fact store (never deep-copied).
    _store: "FactStore | None" = field(default=None, repr=False, compare=False)

    # -- change tracking ----------------------------------------------------------

    def _mutated(self, *keys: EntityKey) -> None:
        """Record a mutation touching *keys* (every mutator names at
        least one)."""
        self._version += 1
        self._fingerprint_cache = None
        for key in keys:
            self._entity_fps.pop(key, None)
            self._journal.append((self._version, key))
        if len(self._journal) > _JOURNAL_LIMIT:
            del self._journal[: len(self._journal) - _JOURNAL_LIMIT]
            self._journal_floor = self._journal[0][0] - 1

    @property
    def version(self) -> int:
        """Monotonic mutation counter (see :meth:`fingerprint`)."""
        return self._version

    def changed_entities(self, since_version: int) -> frozenset | None:
        """Entity keys touched after *since_version*.

        Returns ``None`` when the journal no longer reaches back that
        far — callers must treat that as "anything may have changed".
        Versions are only comparable within one KB's lineage (the object
        and its ``deepcopy`` forks); a KB rebuilt by :meth:`from_dict`
        starts a new one.
        """
        if since_version >= self._version:
            return frozenset()
        if since_version < self._journal_floor:
            return None
        return frozenset(
            key for version, key in self._journal if version > since_version
        )

    def entity_keys(self) -> list[EntityKey]:
        """Every tracked key, membership keys included."""
        keys: list[EntityKey] = [("system", name) for name in self.systems]
        keys.extend(("hardware", model) for model in self.hardware)
        keys.extend(("rule", name) for name in self.rules)
        keys.extend(("ordering", dim) for dim in self.dimensions())
        keys.extend(_MEMBERSHIP_KEYS)
        return keys

    def _entity_payload(self, key: EntityKey):
        kind, name = key
        if kind == "system":
            entity = self.systems.get(name)
            return entity.to_dict() if entity is not None else None
        if kind == "hardware":
            entity = self.hardware.get(name)
            return entity.to_dict() if entity is not None else None
        if kind == "rule":
            entity = self.rules.get(name)
            return entity.to_dict() if entity is not None else None
        if kind == "ordering":
            edges = [
                json.dumps(ordering_to_dict(o), sort_keys=True, default=str)
                for o in self.orderings
                if o.dimension == name
            ]
            return sorted(edges) or None
        if kind == "systems@":
            return sorted(self.systems)
        if kind == "hardware@":
            return sorted(self.hardware)
        if kind == "rules@":
            return sorted(self.rules)
        raise ValidationError(f"unknown entity kind {kind!r}")

    def entity_fingerprint(self, key: EntityKey) -> str:
        """Content hash of one entity (a stable sentinel when absent)."""
        cached = self._entity_fps.get(key)
        if cached is not None:
            return cached
        blob = json.dumps(
            [key[0], key[1], self._entity_payload(key)],
            sort_keys=True, default=str,
        )
        digest = hashlib.sha256(blob.encode()).hexdigest()
        self._entity_fps[key] = digest
        return digest

    def fingerprint(self) -> str:
        """Content hash of the whole KB.

        A roll-up over the sorted per-entity hashes, so it changes iff
        some entity (or catalog membership) changed. Query caches key on
        this: any registration changes the fingerprint, so entries
        computed against the old KB state become unreachable
        (invalidation by key, no flush needed).
        """
        if self._fingerprint_cache is None:
            hasher = hashlib.sha256()
            for key in sorted(self.entity_keys()):
                hasher.update(f"{key[0]}::{key[1]}=".encode())
                hasher.update(self.entity_fingerprint(key).encode())
                hasher.update(b"\n")
            self._fingerprint_cache = hasher.hexdigest()
        return self._fingerprint_cache

    def scoped_fingerprint(self, scope: frozenset) -> str:
        """Content hash over just the entity keys in *scope*.

        Two KB states that agree on every entity in *scope* produce the
        same scoped fingerprint even if they differ elsewhere — which is
        exactly what lets sessions, query caches, and worker pools
        survive mutations that cannot affect their answers.
        """
        memo = self._scope_memo.get(scope)
        if memo is not None:
            version, digest = memo
            if version == self._version:
                return digest
            changed = self.changed_entities(version)
            if changed is not None and not (changed & scope):
                self._scope_memo[scope] = (self._version, digest)
                return digest
        hasher = hashlib.sha256()
        for key in sorted(scope):
            hasher.update(f"{key[0]}::{key[1]}=".encode())
            hasher.update(self.entity_fingerprint(key).encode())
            hasher.update(b"\n")
        digest = hasher.hexdigest()
        if len(self._scope_memo) >= _SCOPE_MEMO_LIMIT:
            self._scope_memo.pop(next(iter(self._scope_memo)))
        self._scope_memo[scope] = (self._version, digest)
        return digest

    def __deepcopy__(self, memo):
        clone = KnowledgeBase()
        memo[id(self)] = clone
        clone.systems = copy.deepcopy(self.systems, memo)
        clone.hardware = copy.deepcopy(self.hardware, memo)
        clone.rules = copy.deepcopy(self.rules, memo)
        clone.orderings = copy.deepcopy(self.orderings, memo)
        clone._version = self._version
        clone._fingerprint_cache = self._fingerprint_cache
        clone._entity_fps = dict(self._entity_fps)
        clone._journal = list(self._journal)
        clone._journal_floor = self._journal_floor
        clone._scope_memo = dict(self._scope_memo)
        # Stores hold sockets/file handles; a copy is a detached draft
        # until someone explicitly re-attaches persistence.
        clone._store = None
        return clone

    # -- persistence ---------------------------------------------------------------

    @property
    def store(self) -> "FactStore | None":
        return self._store

    def attach_store(self, store: "FactStore", snapshot: bool = True) -> None:
        """Make mutations write-through to *store*.

        With ``snapshot=True`` (the default) the KB's current contents
        are first appended as upsert facts in one all-or-none write, so
        an empty store becomes a faithful log of this KB.
        """
        if snapshot:
            store.extend([
                *(("upsert", "system", system.name, system.to_dict())
                  for system in self.systems.values()),
                *(("upsert", "hardware", hardware.model, hardware.to_dict())
                  for hardware in self.hardware.values()),
                *(("upsert", "rule", rule.name, rule.to_dict())
                  for rule in self.rules.values()),
                *(("add_ordering", "ordering", ordering.dimension,
                   ordering_to_dict(ordering))
                  for ordering in self.orderings),
            ])
        self._store = store

    def detach_store(self) -> "FactStore | None":
        store, self._store = self._store, None
        return store

    @classmethod
    def from_store(cls, store: "FactStore") -> "KnowledgeBase":
        """Rebuild a KB by replaying *store*'s fact log, then attach it."""
        kb = cls()
        kb.apply_entity_delta(
            [fact.to_op() for fact in store.scan()], strict=False
        )
        kb._store = store
        return kb

    def _record_fact(self, op: str, kind: str, name: str, payload=None) -> None:
        if self._store is not None:
            self._store.append(op, kind, name, payload)

    # -- registration -------------------------------------------------------------

    def add_system(self, system: System) -> System:
        if system.name in self.systems:
            raise DuplicateEntryError(f"system {system.name!r} already registered")
        self.systems[system.name] = system
        self._mutated(("system", system.name), ("systems@", ""))
        self._record_fact("upsert", "system", system.name, system.to_dict())
        return system

    def add_hardware(self, hardware: Hardware) -> Hardware:
        if hardware.model in self.hardware:
            raise DuplicateEntryError(
                f"hardware {hardware.model!r} already registered"
            )
        self.hardware[hardware.model] = hardware
        self._mutated(("hardware", hardware.model), ("hardware@", ""))
        self._record_fact("upsert", "hardware", hardware.model, hardware.to_dict())
        return hardware

    def add_rule(self, rule: Rule) -> Rule:
        if rule.name in self.rules:
            raise DuplicateEntryError(f"rule {rule.name!r} already registered")
        self.rules[rule.name] = rule
        self._mutated(("rule", rule.name), ("rules@", ""))
        self._record_fact("upsert", "rule", rule.name, rule.to_dict())
        return rule

    def add_ordering(self, ordering: Ordering) -> Ordering:
        self.orderings.append(ordering)
        self._mutated(("ordering", ordering.dimension))
        self._record_fact(
            "add_ordering", "ordering", ordering.dimension,
            ordering_to_dict(ordering),
        )
        return ordering

    # -- delta mutation ------------------------------------------------------------

    def upsert_system(self, system: System) -> System:
        """Insert or replace a system (the delta-path mutator)."""
        created = system.name not in self.systems
        self.systems[system.name] = system
        keys = [("system", system.name)]
        if created:
            keys.append(("systems@", ""))
        self._mutated(*keys)
        self._record_fact("upsert", "system", system.name, system.to_dict())
        return system

    def upsert_hardware(self, hardware: Hardware) -> Hardware:
        created = hardware.model not in self.hardware
        self.hardware[hardware.model] = hardware
        keys = [("hardware", hardware.model)]
        if created:
            keys.append(("hardware@", ""))
        self._mutated(*keys)
        self._record_fact("upsert", "hardware", hardware.model, hardware.to_dict())
        return hardware

    def upsert_rule(self, rule: Rule) -> Rule:
        created = rule.name not in self.rules
        self.rules[rule.name] = rule
        keys = [("rule", rule.name)]
        if created:
            keys.append(("rules@", ""))
        self._mutated(*keys)
        self._record_fact("upsert", "rule", rule.name, rule.to_dict())
        return rule

    def remove_system(self, name: str) -> None:
        """Remove a system and retract its ordering edges."""
        if name not in self.systems:
            raise UnknownEntityError(f"unknown system {name!r}")
        del self.systems[name]
        keys: list[EntityKey] = [("system", name), ("systems@", "")]
        dirty_dims = {
            o.dimension for o in self.orderings if name in (o.better, o.worse)
        }
        if dirty_dims:
            self.orderings = [
                o for o in self.orderings if name not in (o.better, o.worse)
            ]
            keys.extend(("ordering", dim) for dim in sorted(dirty_dims))
        self._mutated(*keys)
        self._record_fact("remove", "system", name)

    def remove_hardware(self, model: str) -> None:
        if model not in self.hardware:
            raise UnknownEntityError(f"unknown hardware model {model!r}")
        del self.hardware[model]
        self._mutated(("hardware", model), ("hardware@", ""))
        self._record_fact("remove", "hardware", model)

    def remove_rule(self, name: str) -> None:
        if name not in self.rules:
            raise UnknownEntityError(f"unknown rule {name!r}")
        del self.rules[name]
        self._mutated(("rule", name), ("rules@", ""))
        self._record_fact("remove", "rule", name)

    def remove_ordering(self, better: str, worse: str, dimension: str) -> None:
        """Retract the first edge matching ``better > worse`` in *dimension*."""
        for index, ordering in enumerate(self.orderings):
            if (ordering.better, ordering.worse, ordering.dimension) == (
                better, worse, dimension
            ):
                del self.orderings[index]
                self._mutated(("ordering", dimension))
                self._record_fact(
                    "remove_ordering", "ordering", dimension,
                    {"better": better, "worse": worse, "dimension": dimension},
                )
                return
        raise UnknownEntityError(
            f"no ordering {better!r} > {worse!r} in dimension {dimension!r}"
        )

    def set_orderings(self, dimension: str, orderings: Iterable[Ordering]) -> None:
        """Replace every edge of *dimension* with the given list."""
        new_edges = list(orderings)
        for ordering in new_edges:
            if ordering.dimension != dimension:
                raise ValidationError(
                    f"set_orderings({dimension!r}) given an edge for "
                    f"dimension {ordering.dimension!r}"
                )
        self.orderings = [
            o for o in self.orderings if o.dimension != dimension
        ] + new_edges
        self._mutated(("ordering", dimension))
        self._record_fact(
            "set_orderings", "ordering", dimension,
            [ordering_to_dict(o) for o in new_edges],
        )

    def apply_entity_delta(self, ops: list[dict], strict: bool = True) -> frozenset:
        """Apply a list of wire-format delta operations.

        Each op is a dict (see :mod:`repro.kb.store.base` and the
        ``PUT /kb`` wire format in docs/kb.md)::

            {"op": "upsert", "entity": "hardware", "name": m, "payload": {...}}
            {"op": "remove", "entity": "system", "name": n}
            {"op": "add_ordering", "entity": "ordering", "name": dim,
             "payload": {...edge...}}
            {"op": "remove_ordering", ...payload names the edge...}
            {"op": "set_orderings", "entity": "ordering", "name": dim,
             "payload": [...edges...]}

        Returns the frozenset of entity keys the delta touched. With
        ``strict=False`` removals of absent entities are ignored (the
        replay path, where a log may be replayed over a partial state).
        Raises :class:`ValidationError` on malformed ops and
        :class:`UnknownEntityError` on strict removals of unknowns;
        ops before the failing one stay applied, so callers wanting
        atomicity apply deltas to a copy (the daemon does).
        """
        before = self._version
        for op in ops:
            self._apply_one_op(op, strict)
        changed = self.changed_entities(before)
        if changed is None:  # pragma: no cover - journal overflow
            changed = frozenset(self.entity_keys())
        return changed

    def _apply_one_op(self, op: dict, strict: bool) -> None:
        if not isinstance(op, dict):
            raise ValidationError(f"delta op must be an object, got {op!r}")
        verb = op.get("op")
        kind = op.get("entity")
        name = op.get("name")
        payload = op.get("payload")
        if not isinstance(name, str) or not name:
            raise ValidationError(f"delta op needs a non-empty 'name': {op!r}")
        try:
            if verb == "upsert":
                if not isinstance(payload, dict):
                    raise ValidationError(
                        f"upsert of {kind}/{name} needs an object payload"
                    )
                if kind == "system":
                    self.upsert_system(System.from_dict(payload))
                elif kind == "hardware":
                    self.upsert_hardware(Hardware.from_dict(payload))
                elif kind == "rule":
                    self.upsert_rule(Rule.from_dict(payload))
                else:
                    raise ValidationError(
                        f"cannot upsert entity kind {kind!r}"
                    )
            elif verb == "remove":
                try:
                    if kind == "system":
                        self.remove_system(name)
                    elif kind == "hardware":
                        self.remove_hardware(name)
                    elif kind == "rule":
                        self.remove_rule(name)
                    else:
                        raise ValidationError(
                            f"cannot remove entity kind {kind!r}"
                        )
                except UnknownEntityError:
                    if strict:
                        raise
            elif verb == "add_ordering":
                if not isinstance(payload, dict):
                    raise ValidationError("add_ordering needs an edge payload")
                self.add_ordering(ordering_from_dict(payload))
            elif verb == "remove_ordering":
                if not isinstance(payload, dict):
                    raise ValidationError("remove_ordering needs an edge payload")
                try:
                    self.remove_ordering(
                        payload["better"], payload["worse"],
                        payload.get("dimension", name),
                    )
                except UnknownEntityError:
                    if strict:
                        raise
            elif verb == "set_orderings":
                if not isinstance(payload, list):
                    raise ValidationError("set_orderings needs a list payload")
                self.set_orderings(
                    name, [ordering_from_dict(edge) for edge in payload]
                )
            else:
                raise ValidationError(f"unknown delta op {verb!r}")
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                f"malformed delta op for {kind}/{name}: {exc!r}"
            ) from exc

    def merge(self, other: "KnowledgeBase") -> "KnowledgeBase":
        """Fold another KB into this one (crowd-sourced contribution)."""
        for system in other.systems.values():
            self.add_system(system)
        for hardware in other.hardware.values():
            self.add_hardware(hardware)
        for rule in other.rules.values():
            self.add_rule(rule)
        for ordering in other.orderings:
            self.add_ordering(ordering)
        return self

    # -- lookup ---------------------------------------------------------------------

    def system(self, name: str) -> System:
        try:
            return self.systems[name]
        except KeyError:
            raise UnknownEntityError(f"unknown system {name!r}") from None

    def hardware_model(self, model: str) -> Hardware:
        try:
            return self.hardware[model]
        except KeyError:
            raise UnknownEntityError(f"unknown hardware model {model!r}") from None

    def systems_in_category(self, category: str) -> list[System]:
        return [s for s in self.systems.values() if s.category == category]

    def systems_solving(self, objective: str) -> list[System]:
        return [s for s in self.systems.values() if objective in s.solves]

    def categories(self) -> set[str]:
        return {s.category for s in self.systems.values()}

    def objectives(self) -> set[str]:
        return {o for s in self.systems.values() for o in s.solves}

    def dimensions(self) -> set[str]:
        return {o.dimension for o in self.orderings}

    def ordering_graph(
        self, dimension: str, context: dict[str, bool] | None = None
    ) -> OrderingGraph:
        """The active partial order of *dimension* under *context*."""
        return OrderingGraph.build(
            self.orderings,
            dimension,
            context,
            systems=list(self.systems),
        )

    # -- validation ------------------------------------------------------------------

    def validate(self) -> list[ValidationIssue]:
        """Check cross-references and consistency; return found issues."""
        issues: list[ValidationIssue] = []
        for system in self.systems.values():
            for other in system.conflicts:
                if other not in self.systems:
                    issues.append(
                        ValidationIssue(
                            "error",
                            f"system:{system.name}",
                            f"conflicts with unknown system {other!r}",
                        )
                    )
            for provided in system.provides:
                scope = provided.split("::", 1)[0]
                if scope not in PROPERTY_SCOPES:
                    issues.append(
                        ValidationIssue(
                            "error",
                            f"system:{system.name}",
                            f"provides {provided!r} with unknown scope {scope!r}",
                        )
                    )
                else:
                    prop_name = provided.split("::", 1)[1]
                    if prop_name not in PROPERTY_CATALOG:
                        issues.append(
                            ValidationIssue(
                                "warning",
                                f"system:{system.name}",
                                f"provides uncataloged property {prop_name!r}",
                            )
                        )
            for demand in system.resources:
                if demand.kind not in RESOURCE_CATALOG:
                    issues.append(
                        ValidationIssue(
                            "warning",
                            f"system:{system.name}",
                            f"demands uncataloged resource {demand.kind!r}",
                        )
                    )
        for ordering in self.orderings:
            for endpoint in (ordering.better, ordering.worse):
                if endpoint not in self.systems:
                    issues.append(
                        ValidationIssue(
                            "error",
                            f"ordering:{ordering.dimension}",
                            f"references unknown system {endpoint!r}",
                        )
                    )
        # Unconditional-edge cycle check per dimension.
        for dimension in self.dimensions():
            try:
                OrderingGraph.build(self.orderings, dimension, context={})
            except ValidationError as exc:
                issues.append(
                    ValidationIssue("error", f"ordering:{dimension}", str(exc))
                )
        return issues

    def validate_or_raise(self) -> None:
        """Raise :class:`ValidationError` listing all error-severity issues."""
        errors = [i for i in self.validate() if i.severity == "error"]
        if errors:
            raise ValidationError(
                "knowledge base invalid:\n"
                + "\n".join(str(issue) for issue in errors)
            )

    # -- metrics (§3.1) ----------------------------------------------------------------

    def spec_length(self) -> int:
        """Total specification length in fact units.

        Counts formula AST nodes plus one unit per atomic fact (a provided
        property, a conflict, a resource demand, a spec field, an ordering
        edge). The §3.1 success metric is that this grows linearly in the
        number of entities — benchmark E6 regresses it.
        """
        total = 0
        for system in self.systems.values():
            total += formula_size(system.requires)
            total += len(system.provides)
            total += len(system.conflicts)
            total += len(system.resources)
            total += len(system.solves)
            for feature in system.features:
                total += 1 + formula_size(feature.requires)
        for hardware in self.hardware.values():
            total += len(hardware.spec.__dataclass_fields__)
        for rule in self.rules.values():
            total += formula_size(rule.formula)
        total += len(self.orderings)
        return total

    def stats(self) -> dict[str, int]:
        """Headline counts (the §5.1 prototype reports these)."""
        return {
            "systems": len(self.systems),
            "categories": len(self.categories()),
            "hardware": len(self.hardware),
            "rules": len(self.rules),
            "orderings": len(self.orderings),
            "spec_length": self.spec_length(),
        }

    # -- serialization --------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "systems": [s.to_dict() for s in self.systems.values()],
            "hardware": [h.to_dict() for h in self.hardware.values()],
            "rules": [r.to_dict() for r in self.rules.values()],
            "orderings": [ordering_to_dict(o) for o in self.orderings],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "KnowledgeBase":
        kb = cls()
        for payload in data.get("systems", []):
            kb.add_system(System.from_dict(payload))
        for payload in data.get("hardware", []):
            kb.add_hardware(Hardware.from_dict(payload))
        for payload in data.get("rules", []):
            kb.add_rule(Rule.from_dict(payload))
        for payload in data.get("orderings", []):
            kb.add_ordering(ordering_from_dict(payload))
        return kb

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "KnowledgeBase":
        return cls.from_dict(json.loads(text))

