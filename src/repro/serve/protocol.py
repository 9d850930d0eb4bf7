"""The daemon's wire format: JSON envelopes around the Query IR.

One request envelope, one response envelope, and a canonical result
serialization shared by every transport (HTTP, unix NDJSON, in-process).
The serialization is *the* contract the differential parity suite pins:
a verb executed through the daemon must produce byte-identical result
JSON to direct :class:`~repro.core.executor.QueryExecutor` execution.

Request envelope::

    {
      "id": "q17",                  # echoed verbatim (optional)
      "kb": "default",              # named knowledge base
      "verb": "check",              # any repro.core.query verb
      "request": { ... },           # DesignRequest.to_dict() shape
      "options": {"class_limit": null, "completions_limit": null,
                  "limit": null},   # verb-specific, all optional
      "client": "alice",            # rate-limit identity (optional)
      "stream": false               # NDJSON item frames for
                                    # enumerate/equivalence/diagnose
    }

Success response::

    {"id": "q17", "ok": true, "verb": "check", "result": <verb JSON>}

Error response (always structured, never a traceback)::

    {"id": "q17", "ok": false,
     "error": {"code": "rate_limited", "message": "..."}}

Result payloads by verb:

- ``check`` / ``synthesize`` — a design outcome object (``feasible``,
  ``solution`` or ``conflict``). Solver statistics are deliberately
  *excluded*: they describe the answering trajectory, not the answer,
  and live on ``/stats`` instead.
- ``diagnose`` — ``null`` (feasible) or a conflict object.
- ``equivalence`` — list of ``{"systems": [...], "completions": n}``.
- ``enumerate`` — list of system-name lists.
- ``explain`` — a string (the daemon runs ``check`` internally and
  explains that outcome, making the verb a pure function of KB +
  request like every other).

All result JSON is serialized canonically (sorted keys, no whitespace)
so byte comparison is meaningful.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.design import Conflict, DesignOutcome, DesignRequest, DesignSolution
from repro.core.query import VERBS, Query
from repro.errors import QueryError

__all__ = [
    "ERROR_HTTP_STATUS",
    "KB_VERBS",
    "WireError",
    "canonical_json",
    "decode_envelope",
    "decode_kb_update",
    "envelope_to_query",
    "error_payload",
    "ok_payload",
    "result_items",
    "result_to_wire",
]

#: Error code -> HTTP status used by the HTTP transport. The NDJSON and
#: in-process transports carry the code alone.
ERROR_HTTP_STATUS = {
    "bad_request": 400,
    "not_found": 404,
    "oversized": 413,
    "rate_limited": 429,
    "internal": 500,
    "overloaded": 503,
    "draining": 503,
    # A solver worker process died (crash/OOM/kill) with this request
    # assigned to it. The request may be retried: the supervisor has
    # already respawned a replacement worker by the time the client
    # sees this.
    "worker_lost": 503,
    # A transient condition refused the request and changed nothing (the
    # fact log is locked by another writer); retry later.
    "unavailable": 503,
}

_VERB_SET = frozenset(VERBS)
_STREAMABLE_VERBS = frozenset({"diagnose", "equivalence", "enumerate"})
_OPTION_KEYS = ("class_limit", "completions_limit", "limit")

#: Mutation verbs, handled by the daemon front-end (never routed to
#: solver workers): ``put_kb`` applies a delta op list, ``delete_kb``
#: removes one named entity. Both answer with the evolved KB's version,
#: fingerprint, and changed-entity list.
KB_VERBS = frozenset({"put_kb", "delete_kb"})

#: Entity kinds a ``delete_kb`` may name. Deleting an ``ordering``
#: clears every edge of that dimension.
_DELETABLE_KINDS = frozenset({"system", "hardware", "rule", "ordering"})


class WireError(Exception):
    """A structured protocol-level failure (becomes an error payload)."""

    def __init__(self, code: str, message: str):
        if code not in ERROR_HTTP_STATUS:
            raise ValueError(f"unknown wire error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message

    @property
    def http_status(self) -> int:
        return ERROR_HTTP_STATUS[self.code]


def canonical_json(obj: Any) -> bytes:
    """Deterministic JSON bytes: sorted keys, minimal separators."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


# -- request decoding --------------------------------------------------------------


def decode_envelope(data: bytes, max_bytes: int | None = None) -> dict:
    """Parse a request envelope, enforcing the body-size bound."""
    if max_bytes is not None and len(data) > max_bytes:
        raise WireError(
            "oversized",
            f"request body is {len(data)} bytes; limit is {max_bytes}",
        )
    try:
        envelope = json.loads(data)
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireError("bad_request", f"malformed JSON: {exc}") from None
    if not isinstance(envelope, dict):
        raise WireError(
            "bad_request",
            f"envelope must be a JSON object, got {type(envelope).__name__}",
        )
    return envelope


def envelope_to_query(envelope: dict) -> tuple[str, Query, bool]:
    """Validate an envelope into ``(kb_name, Query, stream)``.

    Raises :class:`WireError` with code ``bad_request`` on any shape
    problem, so transports can answer structurally instead of leaking a
    traceback.
    """
    verb = envelope.get("verb")
    if not isinstance(verb, str) or verb not in _VERB_SET:
        raise WireError(
            "bad_request",
            f"unknown or missing verb {verb!r}; expected one of {VERBS}",
        )
    kb_name = envelope.get("kb", "default")
    if not isinstance(kb_name, str):
        raise WireError("bad_request", "'kb' must be a string")
    request_data = envelope.get("request")
    if not isinstance(request_data, dict):
        raise WireError(
            "bad_request", "'request' must be a DesignRequest JSON object"
        )
    options = envelope.get("options") or {}
    if not isinstance(options, dict):
        raise WireError("bad_request", "'options' must be an object")
    unknown = set(options) - set(_OPTION_KEYS)
    if unknown:
        raise WireError(
            "bad_request", f"unknown options: {sorted(unknown)}"
        )
    kwargs = {}
    for key in _OPTION_KEYS:
        value = options.get(key)
        if value is not None and (isinstance(value, bool)
                                  or not isinstance(value, int)):
            raise WireError("bad_request", f"option {key!r} must be an int")
        kwargs[key] = value
    stream = bool(envelope.get("stream", False))
    if stream and verb not in _STREAMABLE_VERBS:
        raise WireError(
            "bad_request",
            f"verb {verb!r} does not support streaming; streamable verbs: "
            f"{sorted(_STREAMABLE_VERBS)}",
        )
    try:
        request = DesignRequest.from_dict(request_data)
        query = Query(verb, request, **kwargs)
    except QueryError as exc:
        raise WireError("bad_request", str(exc)) from None
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise WireError(
            "bad_request", f"invalid DesignRequest: {exc!r}"
        ) from None
    return kb_name, query, stream


def decode_kb_update(envelope: dict) -> tuple[str, list[dict]]:
    """Validate a ``put_kb``/``delete_kb`` envelope into ``(kb_name, ops)``.

    ``put_kb`` carries the delta verbatim::

        {"verb": "put_kb", "kb": "default", "ops": [
            {"op": "upsert", "entity": "hardware", "name": "X",
             "payload": {...}}, ...]}

    ``delete_kb`` names one entity and normalizes to the equivalent
    single-op delta::

        {"verb": "delete_kb", "kb": "default",
         "entity": "system", "name": "StackA"}

    Only the envelope *shape* is checked here; per-op payload validation
    happens in :meth:`KnowledgeBase.apply_entity_delta` (against a copy,
    so a bad op never leaves a half-applied KB).
    """
    kb_name = envelope.get("kb", "default")
    if not isinstance(kb_name, str):
        raise WireError("bad_request", "'kb' must be a string")
    if envelope.get("verb") == "delete_kb":
        kind = envelope.get("entity")
        name = envelope.get("name")
        if kind not in _DELETABLE_KINDS:
            raise WireError(
                "bad_request",
                f"delete_kb entity must be one of "
                f"{sorted(_DELETABLE_KINDS)}, got {kind!r}",
            )
        if not isinstance(name, str) or not name:
            raise WireError(
                "bad_request", "delete_kb needs a non-empty 'name'"
            )
        if kind == "ordering":
            return kb_name, [{"op": "set_orderings", "entity": "ordering",
                              "name": name, "payload": []}]
        return kb_name, [{"op": "remove", "entity": kind, "name": name}]
    ops = envelope.get("ops")
    if not isinstance(ops, list) or not ops:
        raise WireError(
            "bad_request", "put_kb needs a non-empty 'ops' list"
        )
    if not all(isinstance(op, dict) for op in ops):
        raise WireError("bad_request", "every delta op must be an object")
    return kb_name, ops


# -- result encoding ---------------------------------------------------------------


def _solution_to_wire(solution: DesignSolution) -> dict:
    return {
        "systems": sorted(solution.systems),
        "features": {
            name: sorted(flags)
            for name, flags in sorted(solution.features.items())
        },
        "hardware": {
            model: units
            for model, units in sorted(solution.hardware.items())
            if units
        },
        "properties": sorted(solution.properties),
        "objective_costs": dict(sorted(solution.objective_costs.items())),
        "cost_usd": solution.cost_usd,
        "power_w": solution.power_w,
    }


def _conflict_to_wire(conflict: Conflict) -> dict:
    return {
        "constraints": list(conflict.constraints),
        "descriptions": dict(sorted(conflict.descriptions.items())),
    }


def _outcome_to_wire(outcome: DesignOutcome) -> dict:
    return {
        "feasible": outcome.feasible,
        "solution": (
            _solution_to_wire(outcome.solution)
            if outcome.solution is not None else None
        ),
        "conflict": (
            _conflict_to_wire(outcome.conflict)
            if outcome.conflict is not None else None
        ),
    }


def result_to_wire(verb: str, result: Any) -> Any:
    """Canonical JSON-able payload for a verb's executor result."""
    if verb in ("check", "synthesize"):
        return _outcome_to_wire(result)
    if verb == "diagnose":
        return None if result is None else _conflict_to_wire(result)
    if verb == "equivalence":
        return [
            {"systems": list(cls.systems), "completions": cls.completions}
            for cls in result
        ]
    if verb == "enumerate":
        return [list(systems) for systems in result]
    if verb == "explain":
        return result
    raise QueryError(f"unknown verb {verb!r}")  # pragma: no cover


def result_items(verb: str, result: Any) -> list:
    """Split a streamable verb's result into per-frame items.

    ``enumerate``/``equivalence`` stream one deployment (class) per
    frame; ``diagnose`` streams one conflicting constraint per frame
    (an empty stream means the request was feasible).
    """
    wire = result_to_wire(verb, result)
    if verb in ("enumerate", "equivalence"):
        return list(wire)
    if verb == "diagnose":
        if wire is None:
            return []
        return [
            {"constraint": name,
             "description": wire["descriptions"].get(name, "")}
            for name in wire["constraints"]
        ]
    raise QueryError(f"verb {verb!r} is not streamable")  # pragma: no cover


# -- response envelopes ------------------------------------------------------------


def ok_payload(request_id: Any, verb: str, result_wire: Any) -> dict:
    return {"id": request_id, "ok": True, "verb": verb,
            "result": result_wire}


def error_payload(request_id: Any, code: str, message: str) -> dict:
    return {"id": request_id, "ok": False,
            "error": {"code": code, "message": message}}
