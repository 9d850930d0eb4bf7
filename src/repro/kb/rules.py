"""Free-standing rules of thumb.

Some facts belong to no single system: "PFC cannot be used together with
flooding" (§3.4's Microsoft deadlock, encoded as predicate logic), "every
deployment needs an operating system" (the common-sense question from
§3.4). A :class:`Rule` names such a fact, gives it a formula, provenance,
and a severity — hard rules become clauses, soft rules become weighted
preferences that the optimizer minimizes after the request's objectives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ValidationError
from repro.kb.serialize import formula_from_dict, formula_to_dict
from repro.logic.ast import Formula


@dataclass
class Rule:
    """A named rule of thumb over the shared vocabulary."""

    name: str
    formula: Formula
    description: str = ""
    #: "hard" rules must hold; "soft" rules are preferences with a weight.
    severity: str = "hard"
    weight: int = 1
    sources: list[str] = field(default_factory=list)
    subjective: bool = False
    #: Tag for §3.4's common-sense rules, so their cost can be measured.
    common_sense: bool = False

    def __post_init__(self):
        if not self.name:
            raise ValidationError("rule name must be non-empty")
        if self.severity not in ("hard", "soft"):
            raise ValidationError(
                f"rule {self.name!r}: severity must be 'hard' or 'soft'"
            )
        if self.severity == "soft" and self.weight <= 0:
            raise ValidationError(
                f"rule {self.name!r}: soft rules need a positive weight"
            )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "formula": formula_to_dict(self.formula),
            "description": self.description,
            "severity": self.severity,
            "weight": self.weight,
            "sources": list(self.sources),
            "subjective": self.subjective,
            "common_sense": self.common_sense,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Rule":
        try:
            return cls(
                name=data["name"],
                formula=formula_from_dict(data["formula"]),
                description=data.get("description", ""),
                severity=data.get("severity", "hard"),
                weight=data.get("weight", 1),
                sources=list(data.get("sources", [])),
                subjective=bool(data.get("subjective", False)),
                common_sense=bool(data.get("common_sense", False)),
            )
        except KeyError as exc:
            raise ValidationError(f"rule payload missing field: {exc}") from exc
