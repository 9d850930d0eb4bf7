"""The correctness gate: every answer is checked against a reference.

References come from the fresh-compile path (``ReasoningEngine`` with
``incremental=False``): no session, no pool, no worker, so they share none
of the machinery the daemon answers through. The references of every
request any seed can send, up to each workload's covered cycles or
architects, are committed in ``golden/references.json`` (``run.py
golden`` rewrites it); any request they do not cover is computed on the
spot, after the timed window.

- check and diagnose: the verdict and the conflict set match exactly.
- synthesize: the verdict matches, ordering objectives are equal, and each
  cost objective is within ``COST_TOLERANCE`` of the reference.
- kb_ingest reads: the verdict matches the reference on the initial KB
  (no write may change it), and the KB fingerprint after the last write
  equals the fingerprint of replaying the same ops offline.
"""

from __future__ import annotations

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from common import GOLDEN
from repro.core.design import COST_OBJECTIVES, DesignRequest
from repro.core.engine import ReasoningEngine
from repro.knowledge import default_knowledge_base

#: The engine stops cost bisection once the gap is at most 2% of the first
#: design it finds, which can cost several times the optimum, so two
#: correct answers differ by more than 2% of either: the session and fresh
#: paths were measured up to 3.5% apart. The band is wider than that and
#: two-sided, since a design far cheaper than the reference is as
#: suspect as one far dearer.
COST_TOLERANCE = 0.10
#: Missing references are computed on this many processes once there are
#: at least PARALLEL_FROM of them.
REFERENCE_PROCESSES = 2
PARALLEL_FROM = 8


def reference(engine: ReasoningEngine, verb: str, request) -> dict:
    """The fresh-path answer, reduced to what the gate compares."""
    if verb == "diagnose":
        conflict = engine.diagnose(request)
        return {"conflict": conflict.constraints if conflict else None}
    if verb == "check":
        outcome = engine.check(request)
    elif verb == "synthesize":
        outcome = engine.synthesize(request)
    else:
        raise ValueError(f"no reference for verb {verb!r}")
    ref = {
        "feasible": outcome.feasible,
        "conflict": outcome.conflict.constraints if outcome.conflict else None,
    }
    if outcome.feasible and verb == "synthesize":
        ref["objective_costs"] = dict(outcome.solution.objective_costs)
    return ref


def fresh_engine() -> ReasoningEngine:
    return ReasoningEngine(default_knowledge_base(), incremental=False)


#: The engine of a reference worker process (set by its initializer).
_worker_engine: ReasoningEngine | None = None


def _start_worker() -> None:
    global _worker_engine
    _worker_engine = fresh_engine()


def _worker_reference(verb: str, wire: dict) -> dict:
    return reference(_worker_engine, verb, DesignRequest.from_dict(wire))


def mismatch(call, result, ref: dict, verdict_only: bool) -> str | None:
    """Why the daemon's *result* disagrees with *ref*, or None."""
    if call.verb == "diagnose":
        got = None if result is None else result["constraints"]
        if got != ref["conflict"]:
            return f"conflict {got} != reference {ref['conflict']}"
        return None
    if result["feasible"] != ref["feasible"]:
        return f"feasible={result['feasible']} != reference {ref['feasible']}"
    if verdict_only:
        return None
    if not ref["feasible"]:
        got = result["conflict"]["constraints"]
        if got != ref["conflict"]:
            return f"conflict {got} != reference {ref['conflict']}"
        return None
    if call.verb != "synthesize":
        return None
    costs = result["solution"]["objective_costs"]
    for name, expected in ref["objective_costs"].items():
        value = costs.get(name)
        if name in COST_OBJECTIVES:
            if value is None or abs(value - expected) > COST_TOLERANCE * expected:
                return (f"{name}={value} is more than {COST_TOLERANCE:.0%} "
                        f"from reference {expected}")
        elif value != expected:
            return f"{name}={value} != reference {expected}"
    return None


class References:
    """The committed references, plus fresh-path answers on demand."""

    def __init__(self, golden: bool = True):
        self.refs = json.loads(GOLDEN.read_text())["refs"] if golden else {}
        self._engine: ReasoningEngine | None = None

    def prefetch(self, calls) -> None:
        """Compute the missing references of *calls*, on two processes
        when there are many (the timed window is over; both cores are
        free)."""
        missing = {}
        for call in calls:
            if call.key is not None and call.key not in self.refs:
                missing.setdefault(call.key, call)
        if len(missing) < PARALLEL_FROM:
            return  # get() computes the few one by one
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(REFERENCE_PROCESSES, mp_context=context,
                                 initializer=_start_worker) as pool:
            answers = pool.map(_worker_reference,
                               [c.verb for c in missing.values()],
                               [c.wire for c in missing.values()])
            self.refs.update(zip(missing, answers))

    def get(self, call) -> dict:
        ref = self.refs.get(call.key)
        if ref is None:
            if self._engine is None:
                self._engine = fresh_engine()
            ref = reference(self._engine, call.verb, call.request)
            self.refs[call.key] = ref
        return ref


def replay_fingerprint(op_lists: list[list]) -> str:
    """Fingerprint of the default KB after applying *op_lists* in order."""
    kb = default_knowledge_base()
    for ops in op_lists:
        kb.apply_entity_delta(ops)
    return kb.fingerprint()


def check_run(run, refs: References, verdict_only: bool):
    """Gate every sample of *run*: ``(attempted, failed, problems)``.

    Transport errors, non-ok replies and wrong answers all count as
    failed; *problems* describes the first few.
    """
    attempted = failed = 0
    problems: list[str] = []

    def fail(message: str) -> None:
        nonlocal failed
        failed += 1
        if len(problems) < 10:
            problems.append(message)

    refs.prefetch(s.call for s in run.samples if s.ok)
    writes = []
    for sample in run.samples:
        attempted += 1
        if not sample.ok:
            detail = sample.error or (sample.reply or {}).get("error")
            fail(f"{sample.rid} {sample.call.verb}: {detail}")
            continue
        if sample.call.verb == "put_kb":
            writes.append(sample)
            continue
        problem = mismatch(sample.call, sample.reply["result"],
                           refs.get(sample.call), verdict_only)
        if problem is not None:
            fail(f"{sample.rid} {sample.call.verb}: {problem}")
    if writes:
        writes.sort(key=lambda s: s.start)
        expected = replay_fingerprint([s.call.ops for s in writes])
        served = writes[-1].reply["result"]["fingerprint"]
        if served != expected:
            fail(f"KB fingerprint {served[:12]} after {len(writes)} writes "
                 f"!= offline replay {expected[:12]}")
    return attempted, failed, problems
