"""The four workloads: inputs made from a seed, and the loops that send them.

A workload is one traffic mix against one daemon. Its inputs are a pure
function of ``--seed``; the daemon only ever sees the generated requests.

Worker routing hashes a request's structural shape (workloads, candidate
pool, inventory). The shapes each workload compiles are therefore fixed
per workload, and the seed varies what is asked on them and in which
order: which systems are required or forbidden, fixed hardware, walk
order, diagnose order and the KB write mix. A seed that changed the
shapes would also re-deal which of the two workers gets which shape, and
that alone moves throughput by up to 2x, hiding any change in the code
under test. Each seeded choice is made from a fixed list, so the
references of every request any seed can send are enumerable
(``reference_calls``) and committed.

Load comes from one process: at most two client threads, each owning one
keep-alive HTTP connection. Closed-loop clients (an architect waiting for
each answer) send the next request only after the previous one returns;
open-loop streams (a probe or a KB feed) send on a fixed schedule and are
timed from when each request was due, so a stall shows up in the requests
queued behind it.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field, replace
from random import Random

from common import ROOT, request_key
from repro.core.design import DesignRequest
from repro.extraction.specsheet import spec_sheet_to_delta_op
from repro.kb.workload import Workload
from repro.knowledge import default_knowledge_base
from repro.knowledge.casestudy import (
    CASE_STUDY_INVENTORY,
    inference_case_study,
    more_workloads_request,
)
from repro.serve.client import DaemonClient, make_envelope

#: Per-request client timeout; a run must finish well inside 180 s.
REQUEST_TIMEOUT_S = 60.0

#: Systems deployable on both case-study bases when required alone.
DEPLOYABLE = [
    "BBR", "Cubic", "DCTCP", "Everflow", "HPCC", "Katran", "Maglev",
    "QUIC", "RoCEv2", "SRD", "Snap", "Sonata", "Swift", "Timely",
]
#: Systems that cannot be deployed on the case-study bases: requiring one
#: yields a small conflict, so what-if walks include cheap infeasible asks.
#: All four cost about the same to diagnose, so a seed's pick does not
#: move the tail latency.
NOT_DEPLOYABLE = ["ECMP", "HULL", "Homa", "PCC"]
CONGESTION_CONTROL = ["BBR", "Cubic", "DCTCP", "HPCC", "Swift", "Timely"]


@dataclass
class Call:
    """One request a workload sends."""

    #: "primary" (the workload's measured requests), "warmup", "probe"
    #: or "write".
    stream: str
    verb: str
    request: DesignRequest | None = None
    #: Delta ops of a ``put_kb`` write.
    ops: list | None = None
    #: Cycle or architect index, for per-group makespans.
    group: int = 0
    wire: dict | None = field(init=False, default=None)
    key: str | None = field(init=False, default=None)

    def __post_init__(self):
        if self.request is not None:
            self.wire = self.request.to_dict()
            self.key = request_key(self.verb, self.wire)


@dataclass
class Sample:
    """One request as sent and answered."""

    call: Call
    rid: str
    #: When an open-loop request was due (None in a closed loop).
    due: float | None
    start: float
    end: float
    reply: dict | None
    #: Transport failure (no reply).
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.end - (self.due if self.due is not None else self.start)

    @property
    def ok(self) -> bool:
        return (self.error is None and isinstance(self.reply, dict)
                and self.reply.get("ok") is True)


@dataclass
class ClientSpec:
    """A closed-loop client: untimed warm-up calls, then groups of calls.

    Once the window has closed the client finishes the group it is in
    (an architect's diagnoses, a synthesize cycle) and stops, so a run
    always measures whole groups.
    """

    name: str
    warmup: list
    groups: object  # iterator of lists of Call


@dataclass
class OpenLoopSpec:
    """A stream sent at *rate* per second until the closed loops finish."""

    name: str
    rate: float
    calls: object  # iterator of Call


@dataclass
class Run:
    """What one drive of a workload produced."""

    t0: float
    samples: list

    def stream(self, name: str) -> list:
        return [s for s in self.samples if s.call.stream == name]

    def primary_wall(self) -> float:
        """Window start to the last primary answer."""
        ends = [s.end for s in self.stream("primary")]
        return max(ends) - self.t0 if ends else 0.0


def send(client: DaemonClient, call: Call, rid: str, name: str) -> dict:
    if call.verb == "put_kb":
        return client.put_kb(call.ops, request_id=rid)
    return client.query(
        make_envelope(call.verb, call.wire, request_id=rid, client=name)
    )


def _timed(client, call, rid, name, due=None) -> Sample:
    start = time.perf_counter()
    try:
        reply, error = send(client, call, rid, name), None
    except (OSError, ValueError) as exc:  # transport or framing failure
        reply, error = None, repr(exc)
    return Sample(call, rid, due, start, time.perf_counter(), reply, error)


class _Clock:
    """Window start and deadline, set once every client is ready."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.t0 = 0.0
        self.deadline = 0.0

    def start(self) -> None:
        self.t0 = time.perf_counter()
        self.deadline = self.t0 + self.seconds


def _closed_loop(url, spec: ClientSpec, clock, barrier, out, failures):
    client = DaemonClient(url=url, timeout=REQUEST_TIMEOUT_S)
    try:
        for i, call in enumerate(spec.warmup):
            out.append(_timed(client, call, f"{spec.name}:w{i}", spec.name))
        barrier.wait()
        counter = itertools.count()
        for group in spec.groups:
            if time.perf_counter() >= clock.deadline:
                break
            for call in group:
                rid = f"{spec.name}:{next(counter)}"
                out.append(_timed(client, call, rid, spec.name))
    except Exception as exc:  # noqa: BLE001 - drive() raises it after the join
        failures.append(exc)
        barrier.abort()
    finally:
        client.close()


def _open_loop(url, spec: OpenLoopSpec, clock, barrier, done, out, failures):
    client = DaemonClient(url=url, timeout=REQUEST_TIMEOUT_S)
    try:
        barrier.wait()
        for i, call in enumerate(spec.calls):
            due = clock.t0 + i / spec.rate
            wait = due - time.perf_counter()
            stopped = done.wait(wait) if wait > 0 else done.is_set()
            if stopped:
                break
            out.append(_timed(client, call, f"{spec.name}:{i}", spec.name,
                              due=due))
    except Exception as exc:  # noqa: BLE001 - drive() raises it after the join
        failures.append(exc)
        barrier.abort()
    finally:
        client.close()


def drive(workload, url: str, seconds: float) -> Run:
    """Run *workload*'s load against *url* for a *seconds* window."""
    clock = _Clock(seconds)
    specs = workload.clients()
    stream = workload.open_loop()
    parties = len(specs) + (stream is not None)
    barrier = threading.Barrier(parties, action=clock.start)
    done = threading.Event()
    # Daemon threads: on SIGTERM the main thread unwinds and stops the
    # daemon, and the clients must not hold the exit until the window ends.
    outs: list[list] = []
    failures: list = []
    closed = []
    for spec in specs:
        outs.append([])
        closed.append(threading.Thread(
            target=_closed_loop,
            args=(url, spec, clock, barrier, outs[-1], failures),
            name=f"e2e-{spec.name}", daemon=True,
        ))
    opener = None
    if stream is not None:
        outs.append([])
        opener = threading.Thread(
            target=_open_loop,
            args=(url, stream, clock, barrier, done, outs[-1], failures),
            name=f"e2e-{stream.name}", daemon=True,
        )
    for thread in closed + ([opener] if opener else []):
        thread.start()
    for thread in closed:
        thread.join()
    done.set()
    if opener is not None:
        opener.join()
    if failures:
        raise RuntimeError(f"load client failed: {failures[0]!r}")
    return Run(clock.t0, [s for out in outs for s in out])


# -- workloads ------------------------------------------------------------------------


def _rounds(calls: list, rng: Random):
    """Endless walk over *calls*, one seeded permutation per round, so
    every run asks each call equally often."""
    while True:
        order = list(calls)
        rng.shuffle(order)
        for call in order:
            yield [call]


def _perturbed(request: DesignRequest, cores: int, gbps: int = 0):
    """*request* with every workload's peaks shifted (a new shape)."""
    return replace(request, workloads=[
        replace(w, peak_cores=w.peak_cores + cores,
                peak_gbps=w.peak_gbps + gbps)
        for w in request.workloads
    ])


def _inventory_share(divisor: int) -> dict[str, int]:
    return {model: max(1, units // divisor)
            for model, units in CASE_STUDY_INVENTORY.items()}


def _time_slices(samples, t0: float, seconds: float, length: float):
    """*samples* by the *length*-second slice of the window they were
    answered in; answers after the last whole slice are left out."""
    slices = [[] for _ in range(max(1, int(seconds // length)))]
    for sample in samples:
        index = int((sample.end - t0) // length)
        if index < len(slices):
            slices[index].append(sample)
    return [s for s in slices if s]


class WhatifWarm:
    """Two architects walk check what-ifs on warm pooled sessions: the
    serving stack dominates and the solver does a few ms a request."""

    name = "whatif_warm"
    #: (base request, a server model of its inventory, that model's units).
    BASES = [(more_workloads_request, "SRV-G2-64C-256G", 64),
             (inference_case_study, "SRV-G3-128C-512G", 40)]

    def __init__(self, seed: int):
        self.seed = seed
        self.menus = []
        for i, base in enumerate(self.BASES):
            rng = Random(f"{seed}:menu:{i}")
            self.menus.append([Call("primary", "check", request)
                               for count, options in self._menu_slots(*base)
                               for request in rng.sample(options, count)])

    @staticmethod
    def _menu_slots(make_base, server, units) -> list[tuple[int, list]]:
        """(how many to pick, alternatives) for each part of a menu of 13:
        the base, required and forbidden systems, fixed servers, a
        context flip, and two cheap conflicts."""
        base = make_base()
        flipped = not base.context.get("network_load_ge_40g", False)
        return [
            (1, [base]),
            (4, [replace(base, required_systems=[s]) for s in DEPLOYABLE]),
            (3, [replace(base, forbidden_systems=[s]) for s in DEPLOYABLE]),
            (1, [replace(base, required_systems=[keep],
                         forbidden_systems=[drop])
                 for keep in DEPLOYABLE for drop in DEPLOYABLE
                 if keep != drop]),
            (2, [replace(base, required_systems=[s])
                 for s in NOT_DEPLOYABLE]),
            (1, [replace(base, fixed_hardware={server: n})
                 for n in range(units // 4, units // 2 + 1)]),
            (1, [replace(base, context={
                **base.context, "network_load_ge_40g": flipped})]),
        ]

    def clients(self) -> list[ClientSpec]:
        return [
            ClientSpec(f"architect{i}",
                       [Call("warmup", "check", menu[0].request)],
                       _rounds(menu, Random(f"{self.seed}:walk:{i}")))
            for i, menu in enumerate(self.menus)
        ]

    def open_loop(self):
        return None

    def slices(self, samples, t0, seconds):
        return _time_slices(samples, t0, seconds, 2.5)

    def reference_calls(self) -> list[Call]:
        return [Call("primary", "check", request) for base in self.BASES
                for _, options in self._menu_slots(*base)
                for request in options]


def _small_request(cores: int) -> DesignRequest:
    """A small capex design: one app, three SKUs."""
    return DesignRequest(
        workloads=[Workload(
            name="app", peak_cores=cores,
            objectives=["packet_processing", "bandwidth_allocation"],
        )],
        context={"datacenter_fabric": True},
        inventory={"SRV-G2-64C-256G": 16, "STD-100G-TS-IP": 64,
                   "FF-100G-32P": 4},
        optimize=["capex_usd"],
    )


class SynthesizeCold:
    """Cycles of five synthesize requests, each on a new shape, beside an
    open-loop check probe: compile, preprocess, cost bisection and
    lexicographic descent dominate, and the probe sees them block it."""

    name = "synthesize_cold"
    #: Cycles the committed references cover.
    COVERED_CYCLES = 40
    PROBE_RATE = 5.0

    def __init__(self, seed: int):
        self.seed = seed
        self.probe_request = more_workloads_request()

    @staticmethod
    def _cycle_slots(index: int) -> list[list[DesignRequest]]:
        """The alternatives for each of a cycle's five requests, in order:
        cheap capex, ordering-only (no cost bisection), power, the §2.3
        study scaled down, and the study on 1/8 of its inventory, which
        cannot host it and ends in diagnose. Alternatives of one slot cost
        the same: systems the optimal design does not need, or needs as
        much as the other choice. Every shape is one no other cycle uses,
        and the shapes grow by only a core or two a cycle, so cycles cost
        about the same."""
        study = inference_case_study()
        perturbed = _perturbed(study, index)
        return [
            [replace(_small_request(64 + 2 * index), forbidden_systems=[s])
             for s in ("DCTCP", "HPCC")],
            [replace(perturbed, optimize=["latency", "monitoring"],
                     forbidden_systems=[s])
             for s in ("AccelNet-Offload", "DCQCN")],
            [replace(_small_request(65 + 2 * index), optimize=["power_w"],
                     forbidden_systems=[s]) for s in ("DCTCP", "HPCC")],
            [replace(study, workloads=[replace(
                study.workloads[0], peak_cores=350 + index, peak_gbps=5,
                racks=1)], inventory=_inventory_share(8))],
            [replace(perturbed, inventory=_inventory_share(8),
                     required_systems=[s]) for s in DEPLOYABLE],
        ]

    def cycle(self, index: int) -> list[Call]:
        """Five synthesize requests; the seed picks each one's alternative.
        The order is fixed, so that a cycle index costs the same under
        every seed."""
        rng = Random(f"{self.seed}:cycle:{index}")
        return [Call("primary", "synthesize", rng.choice(options),
                     group=index) for options in self._cycle_slots(index)]

    def clients(self) -> list[ClientSpec]:
        groups = (self.cycle(i) for i in itertools.count())
        return [ClientSpec("synth", [], groups)]

    def open_loop(self) -> OpenLoopSpec:
        probe = Call("probe", "check", self.probe_request)
        return OpenLoopSpec("probe", self.PROBE_RATE, itertools.repeat(probe))

    def slices(self, samples, t0, seconds):
        # A cycle is five answers of five different kinds: too few for a
        # median. The whole window it is.
        return None

    def reference_calls(self) -> list[Call]:
        return [Call("probe", "check", self.probe_request)] + [
            Call("primary", "synthesize", request, group=i)
            for i in range(self.COVERED_CYCLES)
            for options in self._cycle_slots(i) for request in options]


class DiagnoseSweep:
    """Architects who each compile one new shape and ask twenty diagnoses:
    minimize_core and cold compiles dominate."""

    name = "diagnose_sweep"
    #: Architects the committed references cover.
    COVERED_ARCHITECTS = 80
    #: A capex budget the §5.1 base cannot meet, whatever its offset.
    TIGHT_CAPEX_USD = 175_000

    def __init__(self, seed: int):
        self.seed = seed

    def architect(self, number: int) -> list[Call]:
        """Twenty diagnoses on one new shape.

        The shape is the §5.1 base with one more core per architect, so
        architects cost about the same and any few of them make a fair
        sample. A feasible probe comes first and pays the shape's
        compile; a capex-budget conflict, the costliest kind to minimize,
        comes second, so what it costs does not depend on the seed. The
        small conflicts and feasible asks that follow differ between
        architects but not between seeds, so the committed references
        cover every seed; the seed orders them, which changes what the
        session has learned before each one.
        """
        rng = Random(f"architect:{number}")
        base = _perturbed(more_workloads_request(), number, number % 3)
        tight = replace(base, budgets={"capex_usd": self.TIGHT_CAPEX_USD})
        asks = [replace(base, required_systems=[s], forbidden_systems=[s])
                for s in rng.sample(DEPLOYABLE, 4)]
        asks += [replace(base, required_systems=rng.sample(
            CONGESTION_CONTROL, 2)) for _ in range(4)]
        asks += [replace(base, required_systems=[s]) for s in NOT_DEPLOYABLE]
        asks += [replace(base, required_systems=["OVS", "VFP"])]
        asks += [replace(base, required_systems=[s])
                 for s in rng.sample(DEPLOYABLE, 2)]
        asks += [
            replace(base, fixed_hardware={
                "SRV-G2-64C-256G": rng.randint(1, 4)}),
            replace(base, forbidden_systems=rng.sample(
                ["Linux", "Onload", "Snap", "TAS", "mTCP"], 3)),
            replace(base, required_systems=[rng.choice(DEPLOYABLE)],
                    forbidden_systems=[rng.choice(NOT_DEPLOYABLE)]),
        ]
        Random(f"{self.seed}:architect:{number}").shuffle(asks)
        return [Call("primary", "diagnose", r, group=number)
                for r in [base, tight] + asks]

    def clients(self) -> list[ClientSpec]:
        # One architect at a time: two concurrent architects share a
        # worker whenever their shapes hash to the same one, and how long
        # they overlap depends on timing, which swung throughput between
        # 6 and 13 req/s over runs of one seed.
        architects = (self.architect(n) for n in itertools.count(1))
        return [ClientSpec("architect", [], architects)]

    def open_loop(self):
        return None

    def slices(self, samples, t0, seconds):
        # One architect a slice: time slices would cut architects, and one
        # that misses an architect's compile and budget conflict runs
        # faster for that alone.
        architects: dict[int, list] = {}
        for sample in samples:
            architects.setdefault(sample.call.group, []).append(sample)
        return list(architects.values())

    def reference_calls(self) -> list[Call]:
        return [call for n in range(1, self.COVERED_ARCHITECTS + 1)
                for call in self.architect(n)]


#: Systems of the pinned-scope read (explicit candidate pool).
PINNED_CANDIDATES = sorted(set(DEPLOYABLE) | {
    "AccelNet-Offload", "Ananta", "Andromeda", "DCQCN", "INTCollector",
    "Linux", "OVS", "Onload", "Pingmesh", "Simon", "TCP",
})
#: Write kinds per round of ten writes: new NICs and spec-sheet upserts,
#: which both reads absorb without recompiling, and one price edit of a
#: model both reads use, which makes each of them rebase once.
WRITE_MIX = ["nic"] * 5 + ["sheet"] * 4 + ["price"]
#: Case-study models whose price the KB feed edits (in both reads' scope).
PRICED_MODELS = ["DPU-100G-16C", "FF-100G-32P", "RDMA-100G-RB",
                 "STD-100G-TS-IP"]


class KbIngest:
    """A KB feed writes beside a reader: copy-on-write apply, re-keying and
    delta absorption share the serving path with the reads."""

    name = "kb_ingest"
    WRITE_RATE = 4.0

    def __init__(self, seed: int):
        self.seed = seed
        base = more_workloads_request()
        pinned = replace(base, candidate_systems=PINNED_CANDIDATES)
        self.reads = [
            Call("primary", "check", pinned),
            Call("primary", "check", base),
            Call("primary", "check", replace(
                pinned, required_systems=["DCTCP", "Swift"])),
            Call("primary", "check", base),
        ]
        kb = default_knowledge_base()
        self._nics = sorted(m for m, h in kb.hardware.items()
                            if h.kind == "nic")
        self._priced = {m: kb.hardware[m].to_dict() for m in PRICED_MODELS}
        self._templates = {m: kb.hardware[m].to_dict() for m in self._nics}
        self._sheets = [
            spec_sheet_to_delta_op(path.read_text(), path.name.split("__")[0])
            for path in sorted((ROOT / "examples" / "specsheets").glob(
                "*__*.txt"))
        ]

    def writes(self):
        """Seeded delta ops, one per ``PUT /kb``: new NICs, spec-sheet
        upserts and price edits. None changes a read's verdict: the reads
        carry no budget, and new models sit outside their inventory."""
        rng = Random(f"{self.seed}:writes")
        kinds = _rounds(WRITE_MIX, rng)
        for i in itertools.count():
            [kind] = next(kinds)
            if kind == "nic":
                payload = _clone(self._templates[rng.choice(self._nics)])
                payload["spec"]["model"] = f"E2E-NIC-{self.seed}-{i}"
                payload["spec"]["cost_usd"] += rng.randrange(-200, 200)
                op = {"op": "upsert", "entity": "hardware",
                      "name": payload["spec"]["model"], "payload": payload}
            elif kind == "sheet":
                op = self._sheets[rng.randrange(len(self._sheets))]
            else:
                model = rng.choice(PRICED_MODELS)
                payload = _clone(self._priced[model])
                payload["spec"]["cost_usd"] += rng.randrange(1, 300)
                op = {"op": "upsert", "entity": "hardware", "name": model,
                      "payload": payload}
            yield Call("write", "put_kb", ops=[op])

    def clients(self) -> list[ClientSpec]:
        # The warm-up compiles each read's session before the window.
        warmup = [Call("warmup", "check", call.request)
                  for call in self.reads[:3]]
        groups = ([call] for call in itertools.cycle(self.reads))
        return [ClientSpec("reader", warmup, groups)]

    def open_loop(self) -> OpenLoopSpec:
        return OpenLoopSpec("writer", self.WRITE_RATE, self.writes())

    def slices(self, samples, t0, seconds):
        # One round of the write mix a slice, so every slice carries the
        # same writes.
        return _time_slices(samples, t0, seconds,
                            len(WRITE_MIX) / self.WRITE_RATE)

    def reference_calls(self) -> list[Call]:
        return self.reads[:3]


def _clone(payload: dict) -> dict:
    return {**payload, "spec": dict(payload["spec"]),
            "sources": list(payload.get("sources", []))}


WORKLOADS = {cls.name: cls for cls in
             (WhatifWarm, SynthesizeCold, DiagnoseSweep, KbIngest)}
