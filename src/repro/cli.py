"""Command-line interface for the reasoning engine.

Four subcommands covering the architect workflows the paper describes:

- ``stats``     — §5.1 knowledge-base inventory
- ``validate``  — registry cross-reference checks
- ``export``    — dump the knowledge base as JSON (the crowd-sourcing
  interchange format; Listing 1's shape)
- ``orderings`` — print one dimension's partial order under a context
  (regenerate Figure 1 from the terminal)
- ``whatif``    — answer a stream of design variations on one
  compile-once incremental session
- ``diagnose``  — explain a stream of infeasible requests with minimal
  conflict sets, sharing one incremental session
- ``solve``     — decide a DIMACS CNF file with the built-in CDCL solver
- ``serve``     — run the reasoning-as-a-service daemon (HTTP and/or
  unix-socket JSON API over a warm-session pool; see ``docs/daemon.md``)

The design subcommands (``plan``, ``whatif``, ``diagnose``) all sit on
the engine's unified query pipeline (see ``docs/architecture.md``):
each request lowers to a Query and runs through the same cache →
session → solve → verb stages.

Entry point::

    python -m repro.cli stats
    python -m repro.cli orderings throughput --ctx network_load_ge_40g
    python -m repro.cli solve problem.cnf
"""

from __future__ import annotations

import argparse
import sys

from repro.knowledge import default_knowledge_base
from repro.sat.dimacs import read_dimacs
from repro.sat.solver import Solver


def _cmd_stats(args: argparse.Namespace) -> int:
    kb = default_knowledge_base()
    if getattr(args, "json", False):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.merge_dict("kb", kb.stats())
        registry.set_gauge("kb.category_count", len(kb.categories()))
        print(registry.to_json())
        return 0
    for key, value in kb.stats().items():
        print(f"{key:>12}: {value}")
    print(f"{'categories':>12}: {', '.join(sorted(kb.categories()))}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    kb = default_knowledge_base()
    issues = kb.validate()
    for issue in issues:
        print(issue)
    errors = sum(1 for i in issues if i.severity == "error")
    print(f"{len(issues)} issue(s), {errors} error(s)")
    return 1 if errors else 0


def _cmd_export(args: argparse.Namespace) -> int:
    kb = default_knowledge_base()
    text = kb.to_json()
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {len(text)} bytes to {args.output}", file=sys.stderr)
    return 0


def _cmd_orderings(args: argparse.Namespace) -> int:
    kb = default_knowledge_base()
    context = {}
    for flag in args.ctx or []:
        context[f"ctx::{flag}"] = True
    for flag in args.feat or []:
        context[f"feat::{flag}"] = True
    if args.dimension not in kb.dimensions():
        print(f"unknown dimension {args.dimension!r}; known: "
              f"{', '.join(sorted(kb.dimensions()))}", file=sys.stderr)
        return 2
    graph = kb.ordering_graph(args.dimension, context)
    edges = sorted(graph.graph.edges(data=True))
    if not edges:
        print(f"(no active edges on {args.dimension} under this context)")
    for better, worse, data in edges:
        source = data.get("source", "")
        print(f"{better} > {worse}" + (f"    [{source}]" if source else ""))
    return 0


def _load_requests(paths: list[str]):
    """Parse DesignRequest JSON files (the CLI's request-file format)."""
    import json

    from repro.core.design import DesignRequest

    requests = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            requests.append(DesignRequest.from_dict(json.load(f)))
    return requests


def _cmd_plan(args: argparse.Namespace) -> int:
    """Synthesize designs for JSON request file(s) and print the reports.

    Several request files form one batch on one engine: repeated
    requests are answered from the cache and the rest share one warm
    session.
    """
    from repro.core.engine import ReasoningEngine
    from repro.core.report import render_report

    requests = _load_requests(args.request)
    kb = default_knowledge_base()
    observer = None
    if args.profile:
        from repro.obs import EngineObserver

        observer = EngineObserver()
    cache = None
    if not args.no_cache:
        from repro.par import QueryCache

        cache = QueryCache()
    engine = ReasoningEngine(kb, observer=observer, cache=cache)
    if len(requests) == 1:
        outcomes = [engine.synthesize(requests[0])]
    else:
        outcomes = engine.synthesize_many(requests)
    for path, request, outcome in zip(args.request, requests, outcomes):
        print(render_report(kb, request, outcome,
                            title=f"Architecture plan ({path})"))
        if args.explain and outcome.feasible:
            print("Justifications")
            print("--------------")
            print(engine.explain(request, outcome))
    if observer is not None:
        from repro.obs import render_profile

        print()
        print(render_profile(observer, outcomes[-1].solver_stats))
    return 0 if all(o.feasible for o in outcomes) else 3


def _cmd_whatif(args: argparse.Namespace) -> int:
    """Answer a stream of what-if requests on one incremental session.

    Every file is a full DesignRequest JSON; the first is the baseline
    and the rest are variations. Each request lowers to a Query on the
    engine's executor, which keeps one compile-once session: the KB
    encoding is compiled and preprocessed once, each request adds only
    its own constraint groups, and learned clauses carry across the
    whole stream.
    """
    import time

    from repro.core.engine import ReasoningEngine

    requests = _load_requests(args.request)
    kb = default_knowledge_base()
    engine = ReasoningEngine(kb)
    verb = engine.check if args.check else engine.synthesize
    all_feasible = True
    for path, request in zip(args.request, requests):
        start = time.perf_counter()
        outcome = verb(request)
        elapsed = time.perf_counter() - start
        if outcome.feasible:
            systems = ", ".join(sorted(outcome.solution.systems)) or "(none)"
            print(f"{path}: feasible [{elapsed:.3f}s] -> {systems}")
        else:
            all_feasible = False
            names = (
                ", ".join(outcome.conflict.constraints)
                if outcome.conflict is not None
                else "?"
            )
            print(f"{path}: INFEASIBLE [{elapsed:.3f}s] conflict: {names}")
    if args.stats:
        for key, value in engine.session().stats.as_dict().items():
            print(f"# {key}: {value}", file=sys.stderr)
    return 0 if all_feasible else 3


def _cmd_diagnose(args: argparse.Namespace) -> int:
    """Explain a stream of requests: minimal conflict per infeasible one.

    All requests share one incremental session, so a repeated-conflict
    sweep (the common "which of my requirements clash?" loop) pays the
    KB compilation once. Exit 0 when every request is feasible, 3 when
    at least one conflict was found.
    """
    import time

    from repro.core.engine import ReasoningEngine

    requests = _load_requests(args.request)
    kb = default_knowledge_base()
    engine = ReasoningEngine(kb)
    any_conflict = False
    for path, request in zip(args.request, requests):
        start = time.perf_counter()
        conflict = engine.diagnose(request)
        elapsed = time.perf_counter() - start
        if conflict is None:
            print(f"{path}: feasible [{elapsed:.3f}s]")
            continue
        any_conflict = True
        names = ", ".join(conflict.constraints)
        print(f"{path}: INFEASIBLE [{elapsed:.3f}s] conflict: {names}")
        if args.explain:
            for line in conflict.explanation().splitlines():
                print(f"  {line}")
    if args.stats:
        for key, value in engine.session().stats.as_dict().items():
            print(f"# {key}: {value}", file=sys.stderr)
    return 3 if any_conflict else 0


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.cubes > 0:
        return _solve_cubes_cmd(args)
    if args.jobs > 1:
        print("error: --jobs needs --cubes (the plain solve is one "
              "process)", file=sys.stderr)
        return 2
    observer = None
    if args.profile:
        from repro.obs import EngineObserver

        observer = EngineObserver(progress_interval=256)
    num_vars, clauses = read_dimacs(args.cnf)
    solver = Solver(proof_logging=bool(args.proof))
    if observer is not None:
        solver.set_progress_callback(
            observer.progress, observer.progress_interval
        )
    tracer = observer.tracer if observer is not None else None

    def _traced(name, thunk):
        if tracer is None:
            return thunk()
        with tracer.span(name):
            return thunk()

    def _load():
        solver.new_vars(num_vars)
        for clause in clauses:
            solver.add_clause(clause)

    _traced("compile", _load)
    satisfiable = _traced("solve", solver.solve)
    status = _print_verdict(
        satisfiable, solver.model() if satisfiable else None
    )
    if not satisfiable and args.proof:
        with open(args.proof, "w", encoding="utf-8") as f:
            f.write(solver.proof.to_drat())
        print(f"c DRAT proof written to {args.proof}", file=sys.stderr)
    if observer is not None:
        from repro.obs import render_profile

        print()
        print(render_profile(observer, solver.stats.as_dict()))
    return status


def _solve_cubes_cmd(args: argparse.Namespace) -> int:
    """Cube-and-conquer: split on ``--cubes K`` top-VSIDS variables."""
    from repro.par import solve_cubes

    for flag, given in (("--proof", args.proof), ("--profile", args.profile)):
        if given:
            print(f"error: {flag} is not supported with --cubes "
                  "(no single solver owns the search)", file=sys.stderr)
            return 2
    num_vars, clauses = read_dimacs(args.cnf)
    result = solve_cubes(num_vars, clauses, k=args.cubes, jobs=args.jobs)
    print(f"c cubes mode={result.mode} cubes={result.cubes} "
          f"split={result.split_vars} conflicts={result.conflicts}",
          file=sys.stderr)
    return _print_verdict(result.satisfiable, result.model)


def _print_verdict(satisfiable: bool | None, model) -> int:
    """Print the SAT-competition verdict lines; return the exit code.

    10 for SAT (with the ``v`` model line), 20 for UNSAT, and 0 with
    ``s UNKNOWN`` when no verdict was reached (a cube worker died).
    """
    if satisfiable is None:
        print("s UNKNOWN")
        return 0
    if not satisfiable:
        print("s UNSATISFIABLE")
        return 20
    print("s SATISFIABLE")
    lits = [v if model[v] else -v for v in sorted(model)]
    print("v " + " ".join(str(lit) for lit in lits) + " 0")
    return 10


def _open_kb_store(path: str):
    """A sqlite-backed KB: replay an existing log, or seed a fresh one.

    A non-empty fact log at *path* rebuilds the KB from its facts; an
    empty (or absent) one is seeded with a snapshot of the default
    knowledge base. Either way the returned KB stays attached, so every
    later mutation (a ``PUT /kb`` against the daemon, an offline
    ``ingest``) is durably appended.
    """
    from repro.kb.registry import KnowledgeBase
    from repro.kb.store import SqliteFactStore

    store = SqliteFactStore(path)
    if store.latest_seq > 0:
        return KnowledgeBase.from_store(store)
    kb = default_knowledge_base()
    kb.attach_store(store, snapshot=True)
    return kb


_SHEET_KINDS = ("switch", "nic", "server")


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Stream spec sheets into a KB: parse → check → delta → apply.

    Sheets become checker-gated ``upsert`` delta ops
    (:func:`~repro.extraction.specsheet.spec_sheet_to_delta_op`). With
    ``--url`` the batch is sent to a live daemon as one ``PUT /kb`` (the
    serving layer absorbs it as a delta — warm sessions absorb it on
    their next query, cache entries it touches stop being addressable);
    with ``--kb-store`` it is applied offline to a sqlite-backed KB.
    The hardware kind is read from the filename prefix
    (``switch__*.txt``, ``nic__*.txt``, ``server__*.txt``) unless
    ``--kind`` forces one.
    """
    import pathlib

    from repro.errors import ExtractionError
    from repro.extraction.specsheet import spec_sheet_to_delta_op

    if (args.url is None) == (args.kb_store is None):
        print("error: pass exactly one of --url or --kb-store",
              file=sys.stderr)
        return 2
    ops = []
    for sheet in args.sheet:
        path = pathlib.Path(sheet)
        kind = args.kind
        if kind is None:
            prefix = path.name.split("__", 1)[0].lower()
            if prefix not in _SHEET_KINDS:
                print(f"error: {sheet}: cannot infer hardware kind from "
                      f"filename; name it <kind>__<model>.txt or pass "
                      f"--kind", file=sys.stderr)
                return 2
            kind = prefix
        try:
            op = spec_sheet_to_delta_op(
                path.read_text(), kind, check=not args.no_check
            )
        except (OSError, ExtractionError) as exc:
            print(f"error: {sheet}: {exc}", file=sys.stderr)
            return 1
        ops.append(op)
        print(f"{sheet}: upsert hardware/{op['name']}")
    if not ops:
        print("error: no sheets given", file=sys.stderr)
        return 2
    if args.url is not None:
        from repro.serve.client import DaemonClient

        client = DaemonClient(url=args.url)
        try:
            reply = client.put_kb(ops, kb=args.kb)
        finally:
            client.close()
        if not reply.get("ok"):
            print(f"error: daemon rejected the delta: "
                  f"{reply.get('error')}", file=sys.stderr)
            return 1
        result = reply["result"]
        print(f"applied {len(ops)} ops to {result['kb']!r}: "
              f"version={result['version']} "
              f"fingerprint={result['fingerprint'][:12]}...")
        return 0
    kb = _open_kb_store(args.kb_store)
    changed = kb.apply_entity_delta(ops)
    kb.validate_or_raise()
    print(f"applied {len(ops)} ops to {args.kb_store}: "
          f"version={kb.version} changed={len(changed)} "
          f"fingerprint={kb.fingerprint()[:12]}...")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the reasoning daemon until SIGINT/SIGTERM, then drain.

    Serves the default knowledge base as ``"default"`` over HTTP
    (``--port``) and/or a unix socket (``--unix``). All pool, admission,
    and rate-limit knobs map 1:1 onto
    :class:`~repro.serve.daemon.DaemonConfig`.
    """
    import asyncio
    import signal

    from repro.serve import DaemonConfig, ReasoningDaemon

    config = DaemonConfig(
        host=args.host,
        port=None if args.port < 0 else args.port,
        unix_path=args.unix,
        pool_size=args.pool,
        workers=args.workers,
        max_inflight=args.max_inflight,
        queue_limit=args.queue,
        rate=args.rate,
        burst=args.burst,
        drain_timeout=args.drain_timeout,
        cache_size=args.cache,
    )
    if config.port is None and config.unix_path is None:
        print("error: pass --port and/or --unix", file=sys.stderr)
        return 2
    kb = _open_kb_store(args.kb_store) if args.kb_store else (
        default_knowledge_base()
    )
    daemon = ReasoningDaemon(kb, config)

    async def _serve() -> None:
        await daemon.start()
        endpoints = []
        if daemon.port is not None:
            endpoints.append(f"http://{config.host}:{daemon.port}")
        if config.unix_path is not None:
            endpoints.append(f"unix:{config.unix_path}")
        backend = (
            f"{config.workers} worker processes" if config.workers > 1
            else f"{config.max_inflight} threads"
        )
        print(f"serving on {' and '.join(endpoints)} "
              f"(pool={config.pool_size}, {backend})",
              file=sys.stderr)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        print("draining...", file=sys.stderr)
        drained = await daemon.stop(drain=True)
        print("drained" if drained else "drain timed out", file=sys.stderr)

    asyncio.run(_serve())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lightweight automated reasoning for network "
                    "architectures (HotNets '24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="knowledge-base inventory")
    stats.add_argument("--json", action="store_true",
                       help="emit the inventory as metrics-registry JSON")
    stats.set_defaults(func=_cmd_stats)
    sub.add_parser("validate", help="validate the knowledge base").set_defaults(
        func=_cmd_validate
    )
    export = sub.add_parser("export", help="dump the KB as JSON")
    export.add_argument("-o", "--output", default="-",
                        help="file path, or - for stdout")
    export.set_defaults(func=_cmd_export)

    orderings = sub.add_parser(
        "orderings", help="print a dimension's partial order"
    )
    orderings.add_argument("dimension")
    orderings.add_argument("--ctx", action="append", metavar="FLAG",
                           help="set ctx::FLAG true (repeatable)")
    orderings.add_argument("--feat", action="append", metavar="SYS::FLAG",
                           help="set feat::SYS::FLAG true (repeatable)")
    orderings.set_defaults(func=_cmd_orderings)

    plan = sub.add_parser(
        "plan", help="synthesize designs for JSON request file(s)"
    )
    plan.add_argument("request", nargs="+",
                      help="path(s) to DesignRequest JSON files; several "
                           "files form one batch")
    plan.add_argument("--explain", action="store_true",
                      help="append per-system justifications")
    plan.add_argument("--profile", action="store_true",
                      help="print a phase-time and solver-progress profile")
    plan.add_argument("--no-cache", action="store_true",
                      help="disable the query-result cache")
    plan.set_defaults(func=_cmd_plan)

    whatif = sub.add_parser(
        "whatif",
        help="answer a what-if request stream on one incremental session",
    )
    whatif.add_argument("request", nargs="+",
                        help="DesignRequest JSON files: baseline first, "
                             "then variations; all answered on one "
                             "compile-once session")
    whatif.add_argument("--check", action="store_true",
                        help="feasibility only (skip optimization)")
    whatif.add_argument("--stats", action="store_true",
                        help="print session statistics to stderr")
    whatif.set_defaults(func=_cmd_whatif)

    diagnose = sub.add_parser(
        "diagnose",
        help="explain infeasible requests with minimal conflict sets",
    )
    diagnose.add_argument("request", nargs="+",
                          help="DesignRequest JSON files; all diagnosed on "
                               "one compile-once session")
    diagnose.add_argument("--explain", action="store_true",
                          help="append the human-readable conflict "
                               "explanation under each infeasible request")
    diagnose.add_argument("--stats", action="store_true",
                          help="print session statistics to stderr")
    diagnose.set_defaults(func=_cmd_diagnose)

    solve = sub.add_parser("solve", help="solve a DIMACS CNF file")
    solve.add_argument("cnf")
    solve.add_argument("--proof", metavar="FILE", default=None,
                       help="on UNSAT, write a DRAT proof to FILE")
    solve.add_argument("--profile", action="store_true",
                       help="print a phase-time and solver-progress profile")
    solve.add_argument("--cubes", type=int, default=0, metavar="K",
                       help="cube-and-conquer: split on the K top-VSIDS "
                            "variables into 2**K cubes")
    solve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="cube worker processes; 1 = "
                            "deterministic single-process schedule "
                            "(default)")
    solve.set_defaults(func=_cmd_solve)

    serve = sub.add_parser(
        "serve",
        help="run the reasoning-as-a-service daemon (see docs/daemon.md)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="HTTP bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8421, metavar="PORT",
                       help="HTTP port (default 8421; -1 disables HTTP)")
    serve.add_argument("--unix", metavar="PATH", default=None,
                       help="also serve NDJSON on this unix socket path")
    serve.add_argument("--pool", type=int, default=8, metavar="N",
                       help="idle warm sessions retained (default 8; "
                            "0 = fresh compile per request)")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="solver worker processes (default 1 = "
                            "threaded backend; N > 1 runs the "
                            "shape-affinity process pool)")
    serve.add_argument("--max-inflight", type=int, default=8, metavar="N",
                       help="concurrent solves admitted, and solver "
                            "threads when --workers is 1 (default 8)")
    serve.add_argument("--queue", type=int, default=32, metavar="N",
                       help="requests allowed to queue for a solve slot "
                            "before shedding (default 32)")
    serve.add_argument("--rate", type=float, default=0.0, metavar="R",
                       help="per-client token-bucket rate in requests/s "
                            "(default 0 = unlimited)")
    serve.add_argument("--burst", type=int, default=20, metavar="N",
                       help="per-client token-bucket capacity (default 20)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       metavar="S",
                       help="seconds to wait for inflight solves on "
                            "shutdown (default 10)")
    serve.add_argument("--kb-store", metavar="PATH", default=None,
                       help="sqlite fact-log path: replay it if non-empty, "
                            "else seed it with the default KB; PUT /kb "
                            "deltas are appended durably")
    serve.add_argument("--cache", type=int, default=0, metavar="N",
                       help="query-result cache entries per solver slot "
                            "(default 0 = off; cached answers may legally "
                            "differ byte-wise from freshly solved ties)")
    serve.set_defaults(func=_cmd_serve)

    ingest = sub.add_parser(
        "ingest",
        help="stream vendor spec sheets into a KB (checker-gated deltas)",
    )
    ingest.add_argument("sheet", nargs="+",
                        help="spec-sheet text files, named "
                             "<kind>__<model>.txt (kind: switch/nic/"
                             "server) unless --kind is given")
    ingest.add_argument("--kind", choices=_SHEET_KINDS, default=None,
                        help="force the hardware kind for every sheet")
    ingest.add_argument("--url", metavar="URL", default=None,
                        help="live daemon base URL; the batch is applied "
                             "as one PUT /kb delta")
    ingest.add_argument("--kb-store", metavar="PATH", default=None,
                        help="offline: apply the delta to this sqlite "
                             "fact log instead of a live daemon")
    ingest.add_argument("--kb", default="default", metavar="NAME",
                        help="served KB name for --url (default "
                             "'default')")
    ingest.add_argument("--no-check", action="store_true",
                        help="skip the encoding checker gate")
    ingest.set_defaults(func=_cmd_ingest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
