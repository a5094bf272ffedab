"""Command-line interface: ``python -m repro <command> ...``.

Turns the library into the tool the paper describes — a vendor runs it
on NF source and ships the resulting model::

    python -m repro list
    python -m repro synthesize loadbalancer
    python -m repro synthesize path/to/my_nf.py --entry my_handler --json
    python -m repro batch --all -j 4
    python -m repro slice loadbalancer
    python -m repro categories snortlite
    python -m repro difftest nat -n 1000
    python -m repro testgen firewall
    python -m repro fsm loadbalancer --dot
    python -m repro workload loadbalancer out.pcap -n 200
    python -m repro profile nat
    python -m repro cache stats
    python -m repro serve --port 8000 --workers 4
    python -m repro query synthesize nat --port 8000
    python -m repro trace tail --port 8000
    python -m repro trace show req-1a2b3c4d5e6f --port 8000

Positional NF arguments accept either a corpus name (see ``list``) or a
path to an NFPy source file.

Synthesis results are memoized in a persistent artifact cache
(:mod:`repro.cache`; ``REPRO_CACHE_DIR``, default ``~/.cache/repro``),
so re-running ``synthesize``/``batch`` on unchanged sources is
near-instant.  The global ``--no-cache`` flag (before the subcommand)
disables it for one run; ``repro cache stats|clear|path`` inspects it.

Observability (see :mod:`repro.obs`) is available on every subcommand
through two global flags, given *before* the subcommand::

    python -m repro --trace out.jsonl synthesize nat   # JSONL span events
    python -m repro --profile difftest nat             # per-phase table after

``profile <nf>`` is the one-stop profiling run: it synthesizes the NF
with tracing and metrics enabled and prints the full per-phase/metric
breakdown.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Tuple

from repro import cache as artifact_cache
from repro import obs
from repro.apps.testing import generate_tests, validate_suite
from repro.equiv.differential import differential_test
from repro.model.fsm import build_fsm
from repro.model.serialize import model_to_json, render_model
from repro.nfactor.algorithm import (
    NFactor,
    NFactorConfig,
    SynthesisResult,
    synthesize_model_cached,
)
from repro.symbolic.engine import EngineConfig
from repro.nfs import get_nf, nf_names
from repro.nfs.registry import NFSpec


def _version() -> str:
    """The installed distribution version, else the source-tree one."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # not pip-installed (e.g. PYTHONPATH=src runs)
        import repro

        return repro.__version__


def load_spec(target: str, entry: Optional[str] = None) -> NFSpec:
    """Resolve a corpus name or a source-file path to an NFSpec."""
    path = Path(target)
    if path.suffix == ".py" and path.exists():
        return NFSpec(
            name=path.stem,
            source=path.read_text(),
            description=f"user NF from {path}",
            entry=entry,
        )
    try:
        return get_nf(target)
    except KeyError:
        raise SystemExit(
            f"error: {target!r} is neither a corpus NF ({', '.join(nf_names())}) "
            "nor an existing .py file"
        )


def synthesize(spec: NFSpec, entry: Optional[str] = None) -> SynthesisResult:
    return NFactor(spec.source, name=spec.name, entry=entry or spec.entry).synthesize()


# -- subcommands -------------------------------------------------------------


def cmd_list(args: argparse.Namespace) -> int:
    for name in nf_names():
        spec = get_nf(name)
        print(f"{name:14s} {spec.description}")
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    print(load_spec(args.nf).source)
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    spec = load_spec(args.nf, args.entry)
    config = None
    if args.parallel_paths > 1:
        # Perf-only knob: frontier exploration partitions path suffixes
        # across worker processes and produces the same bytes as
        # sequential DFS, so the artifact-cache key is unaffected.
        config = NFactorConfig(
            engine=EngineConfig(
                strategy="frontier", parallel_paths=args.parallel_paths
            )
        )
    ms = synthesize_model_cached(
        spec.source, name=spec.name, entry=args.entry or spec.entry, config=config
    )
    if args.json:
        print(ms.model_json)
    else:
        print(render_model(ms.model))
    if args.stats:
        stats = ms.stats
        print(
            f"LoC {stats.source_loc} -> slice {stats.slice_loc}; "
            f"slicing {stats.slicing_time_s * 1000:.1f} ms; "
            f"{stats.n_paths} paths in {stats.se_time_s * 1000:.1f} ms SE "
            f"({stats.solver_checks} solver checks, "
            f"{stats.solver_cache_hits} cache hits, "
            f"{stats.solver_unknowns} undecided); "
            f"{stats.paths_truncated} paths truncated"
            + ("; served from artifact cache" if ms.cached else "")
        )
    elif ms.stats.solver_unknowns or ms.stats.paths_truncated:
        print(
            f"note: {ms.stats.solver_unknowns} solver checks undecided "
            f"(kept as feasible), {ms.stats.paths_truncated} paths truncated",
            file=sys.stderr,
        )
    return 0


def cmd_slice(args: argparse.Namespace) -> int:
    spec = load_spec(args.nf, args.entry)
    result = synthesize(spec, args.entry)
    lines = result.slice_source_lines()
    for lineno, line in enumerate(result.program.source.splitlines(), start=1):
        marker = ">> " if lineno in lines else "   "
        print(marker + line)
    print(
        f"\n{len(lines)} of "
        f"{result.stats.source_loc} source lines in the packet+state slice"
    )
    return 0


def cmd_categories(args: argparse.Namespace) -> int:
    spec = load_spec(args.nf, args.entry)
    result = synthesize(spec, args.entry)
    for category, variables in result.categories.as_table().items():
        print(f"{category:8s}: {', '.join(sorted(variables)) or '-'}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run packets through a synthesized model locally (compiled by default)."""
    import json

    from repro.net.packet import Packet

    spec = load_spec(args.nf, args.entry)
    result = synthesize(spec, args.entry)
    packets = []
    if args.packet:
        for text in args.packet:
            fields = {}
            for assign in text.split(","):
                name, sep, value = assign.partition("=")
                if not sep:
                    raise SystemExit(
                        f"error: bad --packet field {assign!r} (want name=value)"
                    )
                fields[name.strip()] = int(value, 0)
            try:
                packets.append(Packet.from_dict(fields))
            except (AttributeError, TypeError, ValueError) as exc:
                raise SystemExit(f"error: bad packet {text!r}: {exc}")
    else:
        from repro.net.generator import TrafficGenerator, WorkloadSpec

        workload = WorkloadSpec(
            n_packets=args.packets, seed=args.seed,
            interesting=spec.interesting or {},
        )
        packets = list(TrafficGenerator(workload).packets())

    compiled = not args.no_compile
    if compiled:
        sim = result.make_compiled_simulator()
        sent_lists = sim.process_many(packets)
    else:
        sim = result.make_simulator()
        sent_lists = [sim.process(pkt) for pkt in packets]
    stats = sim.stats
    payload = {
        "name": result.model.name,
        "compiled": compiled,
        "stats": {
            "packets": stats.packets,
            "forwarded": stats.forwarded,
            "dropped_default": stats.dropped_default,
            "dropped_entry": stats.dropped_entry,
            "guard_evals": stats.guard_evals,
            "compiled_dispatches": stats.compiled_dispatches,
        },
    }
    if compiled:
        cm = result._compiled_model
        payload["compile"] = {
            "n_entries": cm.n_entries,
            "tree_depth": cm.tree_depth,
            "compile_seconds": round(cm.compile_seconds, 6),
        }
    if args.json:
        payload["outputs"] = [
            {
                "forwarded": bool(sent),
                "sent": [
                    {"packet": out.to_dict(), "port": port}
                    for out, port in sent
                ],
            }
            for sent in sent_lists
        ]
        print(json.dumps(payload, indent=2))
        return 0
    mode = "compiled" if compiled else "interpreted"
    print(f"{result.model.name}: {stats.packets} packets ({mode})")
    print(
        f"  forwarded {stats.forwarded}  dropped(default) "
        f"{stats.dropped_default}  dropped(entry) {stats.dropped_entry}"
    )
    print(f"  guard evals {stats.guard_evals}", end="")
    if compiled:
        cm = result._compiled_model
        print(
            f"  dispatches {stats.compiled_dispatches}  "
            f"[{cm.n_entries} entries, "
            f"tree depth {cm.tree_depth}, "
            f"compiled in {cm.compile_seconds * 1000:.1f} ms]"
        )
    else:
        print()
    if args.packet:
        for pkt, sent in zip(packets, sent_lists):
            verdict = (
                ", ".join(f"{out} -> port {port}" for out, port in sent)
                if sent else "drop"
            )
            print(f"  {pkt}: {verdict}")
    return 0


def cmd_difftest(args: argparse.Namespace) -> int:
    spec = load_spec(args.nf, args.entry)
    result = synthesize(spec, args.entry)
    report = differential_test(
        result, n_packets=args.packets, seed=args.seed,
        interesting=spec.interesting, compiled=args.compiled,
    )
    print(report.summary())
    for mismatch in report.mismatches[:5]:
        print(f"  packet #{mismatch.index}: {mismatch.packet}")
        print(f"    program: {mismatch.reference}")
        print(f"    model:   {mismatch.model}")
    return 0 if report.identical else 1


def cmd_testgen(args: argparse.Namespace) -> int:
    spec = load_spec(args.nf, args.entry)
    result = synthesize(spec, args.entry)
    suite = generate_tests(result)
    print(suite.summary())
    for case in suite.cases:
        pkt = case.packets[-1]
        expect = "forward" if case.expectations[-1] else "drop"
        print(f"  {case.name:24s} -> expect {expect}  ({pkt})")
    report = validate_suite(suite, result)
    print(report.summary())
    return 0 if report.all_passed else 1


def cmd_fsm(args: argparse.Namespace) -> int:
    spec = load_spec(args.nf, args.entry)
    result = synthesize(spec, args.entry)
    fsm = build_fsm(result.model)
    if args.dot:
        print(fsm.to_dot())
        return 0
    print(f"state predicates: {', '.join(fsm.atoms) or '(stateless)'}")
    for state in sorted(fsm.reachable_states(), key=sorted):
        print(f"  {fsm.render_state(state)}")
        for t in fsm.successors(state):
            action = "forward" if t.forwards else "drop"
            print(f"     --entry {t.entry_id} ({action})--> {fsm.render_state(t.dst)}")
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    from repro.net.generator import TrafficGenerator, WorkloadSpec
    from repro.net.pcap import write_pcap

    spec = load_spec(args.nf, args.entry)
    generator = TrafficGenerator(
        WorkloadSpec(n_packets=args.packets, seed=args.seed, interesting=spec.interesting)
    )
    count = write_pcap(args.output, generator.packets())
    print(f"wrote {count} packets to {args.output}")
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.parallel import BatchTarget, synthesize_many

    names = list(args.nfs)
    if args.all:
        names = nf_names()
    if not names:
        raise SystemExit("error: give NF names or --all")
    targets = []
    for name in names:
        spec = load_spec(name)
        targets.append(BatchTarget(name=spec.name, source=spec.source, entry=spec.entry))

    import time

    t0 = time.perf_counter()
    outcomes = synthesize_many(
        targets, jobs=args.jobs, max_paths=args.max_paths, model_only=True
    )
    wall = time.perf_counter() - t0

    header = (
        f"{'nf':14s} {'paths':>6s} {'entries':>8s} {'unk':>4s} {'trunc':>5s} "
        f"{'time':>9s} {'solver':>7s} {'model':>6s} {'disk':>5s} {'mem':>4s}"
    )
    print(header)
    print("-" * len(header))
    failed = 0
    for out in outcomes:
        if not out.ok:
            failed += 1
            reason = out.error.strip().splitlines()[-1] if out.error else "failed"
            print(
                f"{out.name:14s} {'-':>6s} {'-':>8s} {'-':>4s} {'-':>5s} "
                f"{out.elapsed_s * 1000:7.1f}ms {reason}"
            )
            continue
        stats = out.stats
        tiers = out.cache_tiers
        print(
            f"{out.name:14s} {stats.n_paths:6d} {stats.n_entries:8d} "
            f"{stats.solver_unknowns:4d} {stats.paths_truncated:5d} "
            f"{out.elapsed_s * 1000:7.1f}ms "
            f"{tiers.get('solver', 0):7d} {tiers.get('model', 0):6d} "
            f"{tiers.get('disk', 0):5d} {tiers.get('mem', 0):4d}"
        )
    jobs = args.jobs if args.jobs is not None else "auto"
    print(f"\n{len(outcomes) - failed}/{len(outcomes)} synthesized in {wall:.2f}s (jobs={jobs})")

    if args.json:
        import json

        payload = [
            {
                "name": out.name,
                "elapsed_s": out.elapsed_s,
                "error": out.error,
                "model": json.loads(out.model_json) if out.ok else None,
                "model_cached": out.model_cached,
                "cache_tiers": out.cache_tiers,
                "stats": (
                    {
                        "n_paths": out.stats.n_paths,
                        "n_entries": out.stats.n_entries,
                        "solver_checks": out.stats.solver_checks,
                        "solver_cache_hits": out.stats.solver_cache_hits,
                        "solver_cache_misses": out.stats.solver_cache_misses,
                        "solver_unknowns": out.stats.solver_unknowns,
                        "paths_truncated": out.stats.paths_truncated,
                    }
                    if out.ok
                    else None
                ),
            }
            for out in outcomes
        ]
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 1 if failed else 0


def _chain_models_local(names: list) -> list:
    """[(name, model)] for a chain of corpus names / .py paths (local)."""
    chain = []
    for item in names:
        spec = load_spec(item)
        ms = synthesize_model_cached(spec.source, name=spec.name, entry=spec.entry)
        chain.append((spec.name, ms.model))
    return chain


def cmd_verify(args: argparse.Namespace) -> int:
    """Local chain verification (no server needed)."""
    import json

    from repro.apps.verify import NetworkVerifier

    chain = _chain_models_local(list(args.nfs))
    verifier = NetworkVerifier(chain)
    spaces = verifier.reachable()
    payload = {
        "chain": [name for name, _ in chain],
        "can_reach": bool(spaces),
        "n_spaces": len(spaces),
        "traces": [
            [[name, entry_id] for name, entry_id in space.trace]
            for space in spaces[: args.max_traces]
        ],
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    arrow = " -> ".join(payload["chain"])
    verdict = "reachable" if payload["can_reach"] else "BLACKHOLED"
    print(f"{arrow}: {verdict} ({payload['n_spaces']} space(s))")
    for trace in payload["traces"]:
        print("  " + " -> ".join(f"{nf}#{entry}" for nf, entry in trace))
    return 0 if payload["can_reach"] else 1


def cmd_compose(args: argparse.Namespace) -> int:
    """Local chain composition analysis (no server needed)."""
    import json

    from repro.apps.compose import compose_chains

    chain_a = _chain_models_local(args.chain_a.split(","))
    chain_b = _chain_models_local(args.chain_b.split(","))
    ranked = compose_chains(chain_a, chain_b)
    if args.json:
        print(
            json.dumps(
                {
                    "recommended": list(ranked[0].order),
                    "orders": [
                        {
                            "order": list(an.order),
                            "n_conflicts": an.n_conflicts,
                            "conflicts": [
                                {
                                    "upstream": a,
                                    "downstream": b,
                                    "fields": sorted(fields),
                                }
                                for a, b, fields in an.conflicts
                            ],
                        }
                        for an in ranked
                    ],
                },
                indent=2,
            )
        )
        return 0
    print(f"recommended: {' -> '.join(ranked[0].order)}")
    for an in ranked:
        print(f"  {' -> '.join(an.order)}: {an.n_conflicts} conflict(s)")
        for a, b, fields in an.conflicts:
            print(f"    {a} rewrites {{{', '.join(sorted(fields))}}} read by {b}")
    return 0


def cmd_verify_graph(args: argparse.Namespace) -> int:
    """Verify a DAG service graph locally (edge-summary cached)."""
    import json

    from repro.netverify import (
        GraphVerifier,
        GraphVerifyConfig,
        build_graph,
        generate_graph,
    )

    if args.generate:
        graph = generate_graph(args.generate, seed=args.seed, width=args.width)
    else:
        if not args.node:
            raise SystemExit(
                "error: give --node NAME=NF (repeatable) or --generate N"
            )
        nodes = []
        for text in args.node:
            name, sep, nf = text.partition("=")
            if not sep:
                raise SystemExit(f"error: bad --node {text!r} (want NAME=NF)")
            nodes.append((name.strip(), nf.strip()))
        edges = []
        for text in args.edge or []:
            src, sep, dst = text.partition(":")
            if not sep:
                raise SystemExit(f"error: bad --edge {text!r} (want SRC:DST)")
            edges.append((src.strip(), dst.strip()))
        try:
            graph = build_graph(nodes, edges)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")

    config = GraphVerifyConfig(
        use_cache=artifact_cache.is_enabled(), jobs=args.jobs
    )
    try:
        verdict = GraphVerifier(graph, config=config).verify()
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    stats = verdict.stats
    if args.json:
        payload = json.loads(verdict.to_json())
        payload["stats"] = stats.as_dict()
        print(json.dumps(payload, indent=2))
        return 0 if verdict.can_reach else 1
    print(graph.summary())
    print(verdict.summary())
    for witness in verdict.witnesses[:3]:
        path = " -> ".join(f"{nf}#{e}" for nf, e in witness["trace"])
        print(f"  witness @ {witness['sink']}: {path}")
    if stats.truncated_spaces:
        print(f"  (truncated {stats.truncated_spaces} fan-in space(s))")
    return 0 if verdict.can_reach else 1


def cmd_cache(args: argparse.Namespace) -> int:
    store = artifact_cache.get_store()
    if args.action == "path":
        print(store.directory if store.directory else "(no cache directory)")
        return 0
    if args.action == "clear":
        removed = store.clear_disk()
        print(f"removed {removed} cache entries from {store.directory}")
        return 0
    # stats
    stats = store.disk_stats()
    if args.json:
        import json

        print(json.dumps(stats, indent=2))
        return 0
    print(f"directory: {stats['directory']}")
    print(f"enabled:   {stats['enabled']}")
    # Canonical tiers always print (zero rows included) so a watch
    # run's invalidation pattern is inspectable at a glance; any other
    # kinds on disk follow.
    tier_order = ("frontend", "prep", "slices", "model", "sim", "edge")
    kinds = stats["kinds"]
    for kind in tier_order + tuple(sorted(set(kinds) - set(tier_order))):
        entry = kinds.get(kind, {"count": 0, "bytes": 0})
        print(f"  {kind:10s} {entry['count']:6d} entries  {entry['bytes']:10d} bytes")
    for name, size in stats["blobs"].items():
        print(f"  {name + ' (blob)':25s} {size:10d} bytes")
    print(f"total:     {stats['total_bytes']} bytes on disk")
    return 0


def _watch_line(event: dict) -> str:
    """One human-readable line per watch event (non-``--json`` mode)."""
    kind = event["event"]
    if kind == "skip":
        changed = ", ".join(event.get("changed") or []) or "no reachable units"
        return f"skip     {event['name']}  (edit outside target: {changed})"
    parts = [
        f"rebuild  {event['name']}",
        "hit" if event.get("cached") else f"{event['elapsed_s']:.2f}s",
    ]
    if event.get("diff_summary"):
        parts.append(f"diff {event['diff_summary']}")
    for shard in event.get("serve") or []:
        if shard.get("error"):
            parts.append(f"{shard['shard']} ERROR {shard['error']}")
        else:
            parts.append(f"{shard['shard']} v{shard['version']}")
    return "  ".join(parts)


def cmd_watch(args: argparse.Namespace) -> int:
    import json
    import signal
    import threading

    from repro.cache.store import parse_peers
    from repro.watch import WatchDaemon, WatchOptions, parse_target

    targets = []
    for spec in args.targets:
        target = parse_target(spec)
        if not os.path.exists(target.path):
            raise SystemExit(f"error: {target.path}: no such file")
        targets.append(target)
    serve = parse_peers(args.serve) if args.serve else ()

    def emit(event: dict) -> None:
        if args.json:
            print(json.dumps(event, sort_keys=True), flush=True)
        else:
            print(_watch_line(event), flush=True)

    daemon = WatchDaemon(
        targets,
        WatchOptions(
            interval_s=args.interval,
            serve=tuple(serve),
            push_artifacts=not args.no_push,
        ),
        emit=emit,
    )
    daemon.baseline()
    if args.once:
        return 0
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, lambda *_: stop.set())
        except ValueError:  # pragma: no cover - non-main thread
            pass
    while not stop.is_set():
        stop.wait(args.interval)
        if stop.is_set():
            break
        daemon.poll_once()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.cache.store import parse_peers
    from repro.serve.server import ServeConfig, run_server

    if args.cluster > 0:
        return _cmd_serve_cluster(args)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        default_timeout_s=args.timeout,
        drain_timeout_s=args.drain_timeout,
        compile_sims=not args.no_compile,
        peers=parse_peers(args.join) if args.join else (),
        cache_dir=args.cache_dir,
        warmup=not args.no_warmup,
    )
    return run_server(config)


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    """``repro serve --cluster N``: N shards + router in one process."""
    import signal
    import threading

    from repro.serve.cluster import ClusterHandle
    from repro.serve.server import ServeConfig

    base = ServeConfig(
        default_timeout_s=args.timeout,
        drain_timeout_s=args.drain_timeout,
        compile_sims=not args.no_compile,
    )
    workers = args.workers
    if workers <= 0:
        # Split the CPUs across shards rather than oversubscribing
        # N shards × N cores worth of worker processes.
        workers = max(1, (os.cpu_count() or 1) // args.cluster)
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    with ClusterHandle(
        shards=args.cluster,
        workers_per_shard=workers,
        host=args.host,
        cache_root=args.cache_dir,
        warmup=not args.no_warmup,
        queue_size=args.queue_size,
        router_port=args.port,
        base_config=base,
    ) as cluster:
        shards = " ".join(
            f"{args.host}:{p}" for p in cluster.shard_ports
        )
        print(
            f"cluster up: router {args.host}:{cluster.router_port} -> "
            f"{args.cluster} shards ({shards}), {workers} workers each",
            flush=True,
        )
        stop.wait()
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    from repro.cache.store import parse_peers
    from repro.serve.router import RouterConfig, run_router

    shards = parse_peers(args.shards)
    if not shards:
        raise SystemExit(
            f"error: --shards needs host:port[,host:port...], got {args.shards!r}"
        )
    return run_router(
        RouterConfig(
            host=args.host,
            port=args.port,
            shards=shards,
            health_interval_s=args.health_interval,
        )
    )


def _query_spec(target: str) -> Optional[NFSpec]:
    """Resolve a query target locally, or None to send the bare name.

    A name that is neither a corpus NF nor an existing ``.py`` file may
    still be a target registered on the server by ``repro watch``
    (``POST /v1/reload``) — pass it through as ``nf`` and let the
    server's model registry resolve it.
    """
    path = Path(target)
    if path.suffix == ".py" and path.exists():
        return load_spec(target)
    try:
        return get_nf(target)
    except KeyError:
        return None


def cmd_query(args: argparse.Namespace) -> int:
    import json

    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.host, args.port, timeout=args.timeout)
    if args.wait:
        if not client.wait_until_up(args.wait):
            print(f"error: no server at {args.host}:{args.port} "
                  f"after {args.wait:.0f}s", file=sys.stderr)
            return 1

    def packet_args(pairs: list) -> list:
        packets = []
        for text in pairs:
            fields = {}
            for assign in text.split(","):
                name, sep, value = assign.partition("=")
                if not sep:
                    raise SystemExit(f"error: bad --packet field {assign!r} "
                                     "(want name=value)")
                fields[name.strip()] = int(value, 0)
            packets.append(fields)
        return packets

    try:
        if args.action == "healthz":
            response = client.healthz()
        elif args.action == "metrics":
            print(client.metrics_text(), end="")
            return 0
        elif args.action == "synthesize":
            if not args.nfs:
                raise SystemExit("error: query synthesize needs an NF")
            spec = _query_spec(args.nfs[0])
            if spec is None:
                response = client.synthesize(nf=args.nfs[0])
            else:
                response = client.synthesize(
                    source=spec.source, name=spec.name, entry=spec.entry
                )
        elif args.action == "simulate":
            if not args.nfs:
                raise SystemExit("error: query simulate needs an NF")
            spec = _query_spec(args.nfs[0])
            packets = packet_args(args.packet or []) or [{}]
            if spec is None:
                response = client.simulate(
                    nf=args.nfs[0], packets=packets,
                    compile=False if args.no_compile else None,
                )
            else:
                response = client.simulate(
                    source=spec.source, name=spec.name, entry=spec.entry,
                    packets=packets,
                    compile=False if args.no_compile else None,
                )
        elif args.action == "verify":
            if not args.nfs:
                raise SystemExit("error: query verify needs a chain of NFs")
            response = client.verify(list(args.nfs))
        elif args.action == "compose":
            if not (args.chain_a and args.chain_b):
                raise SystemExit("error: query compose needs --chain-a and --chain-b")
            response = client.compose(
                args.chain_a.split(","), args.chain_b.split(",")
            )
        elif args.action == "testgen":
            if not args.nfs:
                raise SystemExit("error: query testgen needs an NF")
            response = client.testgen(args.nfs[0])
        else:  # pragma: no cover - argparse restricts choices
            raise SystemExit(f"error: unknown query action {args.action!r}")
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(json.dumps(response.payload, indent=2))
    return 0 if response.ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Inspect a running server's flight recorder (``/debugz``)."""
    import json

    from repro.obs.recorder import render_span_tree, to_chrome_trace
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.host, args.port, timeout=args.timeout)
    try:
        if args.action in ("tail", "slow", "errors"):
            kind = "requests" if args.action == "tail" else args.action
            result = client.debugz(kind, n=args.n).raise_for_status().result or {}
            rows = result.get("requests") or []
            if args.json:
                print(json.dumps(rows, indent=2))
                return 0
            if not rows:
                print("(no requests recorded)")
                return 0
            header = (
                f"{'request id':18s} {'op':12s} {'status':>6s} "
                f"{'elapsed':>10s}  trace id"
            )
            print(header)
            print("-" * len(header))
            for row in rows:
                print(
                    f"{row.get('request_id', ''):18s} {row.get('op', ''):12s} "
                    f"{row.get('status', 0):6d} "
                    f"{row.get('elapsed_ms', 0.0):8.1f}ms  "
                    f"{row.get('trace_id', '')}"
                )
                if row.get("error"):
                    print(f"    error: {row['error']}")
            return 0

        request_id = args.request_id
        if not request_id and args.last:
            rows = (
                client.debugz("requests", n=1).raise_for_status().result or {}
            ).get("requests") or []
            if not rows:
                print("error: no requests recorded yet", file=sys.stderr)
                return 1
            request_id = rows[0]["request_id"]
        if not request_id:
            raise SystemExit(
                f"error: trace {args.action} needs a request id (or --last)"
            )
        detail = client.trace_detail(request_id)
        if args.action == "show":
            print(
                f"request {detail.get('request_id')}  "
                f"trace {detail.get('trace_id') or '(tracing off)'}  "
                f"op={detail.get('op')} status={detail.get('status')} "
                f"elapsed={detail.get('elapsed_ms', 0.0):.1f}ms"
            )
            phases = detail.get("phases_ms") or {}
            if phases:
                print(
                    "phases: "
                    + "  ".join(f"{k}={v:.1f}ms" for k, v in phases.items())
                )
            if detail.get("error"):
                print(f"error: {detail['error']}")
            print(render_span_tree(detail))
            return 0
        # export
        out = args.chrome or f"{request_id}.chrome.json"
        Path(out).write_text(
            json.dumps(to_chrome_trace(detail), indent=2) + "\n"
        )
        print(
            f"wrote chrome trace for {request_id} to {out} "
            "(open in chrome://tracing or ui.perfetto.dev)"
        )
        return 0
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cmd_profile(args: argparse.Namespace) -> int:
    spec = load_spec(args.nf, args.entry)
    result = synthesize(spec, args.entry)
    print(_render_ambient_profile(result))
    stats = result.stats
    print(
        f"\n{spec.name}: {stats.n_paths} paths -> {stats.n_entries} entries; "
        f"{stats.solver_checks} solver checks "
        f"({stats.solver_unknowns} undecided); "
        f"{stats.paths_truncated} paths truncated; "
        f"pipeline {sum(stats.phase_timings.values()) * 1000:.1f} ms"
    )
    return 0


def _render_ambient_profile(result: Optional[SynthesisResult] = None) -> str:
    """The profile table from the ambient tracer/registry (CLI view)."""
    profile = obs.collect_profile(
        obs.trace.active(),
        obs.metrics.active() if obs.metrics.active().enabled else None,
        phase_timings=result.stats.phase_timings if result is not None else None,
    )
    return obs.render_profile(profile)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NFactor: synthesize NF forwarding models by program analysis",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="stream span events of this run to FILE as JSONL",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the per-phase/metric profile after the command",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent artifact cache for this run",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def nf_command(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("nf", help="corpus NF name or path to an NFPy .py file")
        p.add_argument("--entry", help="per-packet entry function (auto-detected)")
        p.set_defaults(func=handler)
        return p

    p = sub.add_parser("list", help="list the corpus NFs")
    p.set_defaults(func=cmd_list)

    nf_command("show", cmd_show, "print an NF's source")

    p = nf_command("synthesize", cmd_synthesize, "synthesize and print the model")
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p.add_argument("--stats", action="store_true", help="print pipeline statistics")
    p.add_argument(
        "--parallel-paths",
        type=int,
        default=1,
        metavar="N",
        help="explore path suffixes across N worker processes "
        "(frontier strategy; same model bytes as sequential DFS)",
    )

    nf_command("slice", cmd_slice, "print the source with the slice highlighted")
    nf_command("categories", cmd_categories, "print the Table-1 variable categories")

    p = nf_command(
        "simulate", cmd_simulate,
        "run packets through the synthesized model (compiled dataplane)",
    )
    p.add_argument(
        "--packet", action="append", metavar="F=V[,F=V...]",
        help="one packet as field=value pairs (repeatable; default: "
        "a random workload)",
    )
    p.add_argument(
        "-n", "--packets", type=int, default=1000,
        help="random workload size when no --packet is given",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--no-compile", action="store_true",
        help="use the interpreted ModelSimulator instead of the compiler",
    )
    p.add_argument("--json", action="store_true", help="emit JSON")

    p = nf_command("difftest", cmd_difftest, "model vs. program on random packets")
    p.add_argument("-n", "--packets", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--compiled", action="store_true",
        help="run the model side through the compiled simulator",
    )

    nf_command("testgen", cmd_testgen, "generate + validate model-guided tests")

    p = nf_command("fsm", cmd_fsm, "print the model's per-flow state machine")
    p.add_argument("--dot", action="store_true", help="emit Graphviz dot")

    p = sub.add_parser(
        "batch", help="synthesize many NFs across worker processes"
    )
    p.add_argument("nfs", nargs="*", help="corpus NF names or NFPy .py paths")
    p.add_argument("--all", action="store_true", help="the whole corpus")
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: one per NF, capped by CPUs; 1 = in-process)",
    )
    p.add_argument("--max-paths", type=int, default=16384)
    p.add_argument("--json", metavar="FILE", help="also write results to FILE as JSON")
    p.set_defaults(func=cmd_batch)

    p = nf_command("workload", cmd_workload, "generate a pcap workload for an NF")
    p.add_argument("output", help="output .pcap path")
    p.add_argument("-n", "--packets", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    # reorder: nf positional already added by nf_command before output

    nf_command(
        "profile", cmd_profile, "synthesize with tracing on, print the profile"
    )

    p = sub.add_parser(
        "verify",
        help="verify a linear NF chain locally (no server needed)",
    )
    p.add_argument(
        "nfs", nargs="+",
        help="the chain, in order: corpus NF names or NFPy .py paths",
    )
    p.add_argument("--max-traces", type=int, default=10)
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "compose",
        help="rank safe interleavings of two NF chains locally",
    )
    p.add_argument("chain_a", help="comma-separated chain A")
    p.add_argument("chain_b", help="comma-separated chain B")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser(
        "verify-graph",
        help="verify a DAG service graph (per-edge summary cache)",
    )
    p.add_argument(
        "--node", action="append", metavar="NAME=NF",
        help="one node bound to a corpus NF (repeatable)",
    )
    p.add_argument(
        "--edge", action="append", metavar="SRC:DST",
        help="one directed edge between named nodes (repeatable)",
    )
    p.add_argument(
        "--generate", type=int, default=0, metavar="N",
        help="instead of --node/--edge: a seeded N-node layered DAG "
        "over the corpus",
    )
    p.add_argument("--seed", type=int, default=7, help="--generate seed")
    p.add_argument(
        "--width", type=int, default=5, help="--generate layer width"
    )
    p.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes for independent edges (same bytes as -j 1)",
    )
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_verify_graph)

    p = sub.add_parser(
        "serve",
        help="run the synthesis & model-query service (JSON over HTTP)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000, help="0 = ephemeral")
    p.add_argument(
        "--workers", type=int, default=0,
        help="worker processes (default: one per CPU)",
    )
    p.add_argument(
        "--queue-size", type=int, default=64,
        help="bounded request queue capacity (full queue -> HTTP 429)",
    )
    p.add_argument(
        "--timeout", type=float, default=60.0,
        help="default per-request deadline in seconds",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=60.0,
        help="max seconds SIGTERM drain waits for in-flight requests",
    )
    p.add_argument(
        "--no-compile", action="store_true",
        help="serve simulate requests with the interpreted simulator "
        "instead of the model compiler",
    )
    p.add_argument(
        "--cluster", type=int, default=0, metavar="N",
        help="run N shard servers behind a consistent-hash router "
        "(--port is the router; shards get ephemeral ports)",
    )
    p.add_argument(
        "--join", metavar="HOST:PORT[,HOST:PORT...]",
        help="cache peers: artifact-cache misses peer-fill from these "
        "shards, and the model registry of the first reachable one "
        "pre-warms this shard on start",
    )
    p.add_argument(
        "--cache-dir", metavar="DIR",
        help="private artifact-cache directory for this shard "
        "(--cluster: the root; each shard gets DIR/shard-<i>)",
    )
    p.add_argument(
        "--no-warmup", action="store_true",
        help="skip replica warm-up from --join peers",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "route",
        help="run the cluster router in front of running shard servers",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8100, help="0 = ephemeral")
    p.add_argument(
        "--shards", required=True, metavar="HOST:PORT[,HOST:PORT...]",
        help="the shard servers to route across",
    )
    p.add_argument(
        "--health-interval", type=float, default=1.0,
        help="seconds between shard health probes (0 disables)",
    )
    p.set_defaults(func=cmd_route)

    p = sub.add_parser(
        "query", help="query a running repro serve instance"
    )
    p.add_argument(
        "action",
        choices=[
            "synthesize", "simulate", "verify", "compose", "testgen",
            "healthz", "metrics",
        ],
    )
    p.add_argument(
        "nfs", nargs="*",
        help="NF name(s)/path(s): one for synthesize/simulate/testgen, "
        "the chain for verify",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000)
    p.add_argument("--timeout", type=float, default=120.0, help="client timeout")
    p.add_argument(
        "--wait", type=float, default=0.0, metavar="SECONDS",
        help="poll /healthz up to SECONDS for the server to come up",
    )
    p.add_argument(
        "--packet", action="append", metavar="F=V[,F=V...]",
        help="simulate: one packet as field=value pairs (repeatable)",
    )
    p.add_argument(
        "--no-compile", action="store_true",
        help="simulate: ask the server for the interpreted simulator",
    )
    p.add_argument("--chain-a", help="compose: comma-separated chain A")
    p.add_argument("--chain-b", help="compose: comma-separated chain B")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "trace",
        help="inspect a running server's request traces (/debugz)",
    )
    p.add_argument(
        "action",
        choices=["tail", "show", "slow", "errors", "export"],
        help="tail: recent requests; show: one request's span tree; "
        "slow/errors: pinned outliers; export: chrome://tracing JSON",
    )
    p.add_argument(
        "request_id", nargs="?",
        help="request id for show/export (from tail or a response envelope)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000)
    p.add_argument("--timeout", type=float, default=30.0, help="client timeout")
    p.add_argument("-n", type=int, default=16, help="list length for tail/slow/errors")
    p.add_argument(
        "--last", action="store_true",
        help="show/export the most recent request instead of naming one",
    )
    p.add_argument(
        "--chrome", metavar="FILE",
        help="export: output path (default <request-id>.chrome.json)",
    )
    p.add_argument("--json", action="store_true", help="emit raw JSON for lists")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("cache", help="inspect or clear the persistent artifact cache")
    p.add_argument(
        "action",
        choices=["stats", "clear", "path"],
        help="stats: entry counts and sizes; clear: delete entries; path: print dir",
    )
    p.add_argument("--json", action="store_true", help="emit stats as JSON")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "watch",
        help="watch NF sources, re-synthesize incrementally, hot-swap serve shards",
    )
    p.add_argument(
        "targets", nargs="+", metavar="PATH[:ENTRY]",
        help="NFPy source files to watch; PATH.py:entry pins the entry "
        "function (several entries in one file are separate targets)",
    )
    p.add_argument(
        "--serve", metavar="HOST:PORT[,...]", default=None,
        help="serve shards to peer-fill and hot-swap on every rebuild",
    )
    p.add_argument(
        "--interval", type=float, default=0.5, help="poll interval in seconds"
    )
    p.add_argument(
        "--once", action="store_true",
        help="baseline build (and push) every target, then exit",
    )
    p.add_argument(
        "--json", action="store_true", help="emit one JSON event per line"
    )
    p.add_argument(
        "--no-push", action="store_true",
        help="hot-swap shards without peer-filling artifacts first",
    )
    p.set_defaults(func=cmd_watch)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.no_cache:
            # override() restores the previous store on exit, so in-process
            # callers (tests) don't leak the disabled state across calls.
            with artifact_cache.override(enabled=False):
                return _dispatch(args)
        return _dispatch(args)
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `repro query ... | head`).
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    want_obs = bool(args.trace) or args.profile or args.command == "profile"
    if not want_obs:
        return args.func(args)

    writer = obs.JsonlWriter(args.trace) if args.trace else None
    tracer = obs.Tracer(sink=writer)
    registry = obs.MetricsRegistry()
    try:
        with obs.observed(tracer, registry):
            code = args.func(args)
            if args.profile and args.command != "profile":
                print()
                print(_render_ambient_profile())
    finally:
        if writer is not None:
            writer.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
