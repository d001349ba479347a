"""Command-line interface: ``python -m repro <command>``.

Exposes the FlipTracker pipeline for interactive exploration:

=============  =============================================================
``apps``       list the registered study programs
``trace``      fault-free run: trace length, opcode histogram, verification
``regions``    the code-region chain + dynamic instances (Table I skeleton)
``io``         input/output/internal classification of a region instance
``inject``     one traced injection: manifestation, ACL deaths, patterns
``acl``        ASCII rendering of the ACL curve for one injection (Fig. 7)
``campaign``   success-rate campaign for a region instance (Fig. 5 cell)
``patterns``   traced pattern sweep per region (Table I row; sharded
               over ``--backend`` like campaigns)
``rates``      the six pattern-rate features of a program (Table IV row)
``profiles``   per-region resilience profiles + composed whole-program
               estimate; with ``--store-dir``/``--incremental`` a
               modified program re-injects only changed regions
               (``docs/profiles.md``)
``recover``    protected runs: online detectors at region boundaries +
               checkpoint/rollback recovery policies, swept over the
               same fault population as a plain campaign
               (``docs/recovery.md``)
``store``      operate on a cross-experiment profile store
               (``store compact`` rewrites the JSONL keeping only
               live keys)
``dot``        DDDG DOT export of a region instance (Graphviz)
``sample``     Leveugle sample-size calculator (Section IV-C)
``serve``      run a TCP shard server for ``--backend socket`` clients
               (untraced, protected and traced plans alike);
               ``--registry`` joins the service tier dynamically
``run``        execute a declarative experiment spec file (JSON; see
               ``docs/experiments.md``) with batched dispatches over
               any ``--backend``; ``--json`` emits the result envelope
``registry``   run the service control plane: host registry +
               capacity-aware scheduler + persistent job queue
               (``docs/service.md``)
``submit``     queue an experiment spec on the registry's job queue;
               prints the job id
``jobs``       list the registry's jobs and their states
``watch``      stream a queued job's progress events until it finishes
``fetch``      print a finished job's result envelope
               (``--canonical`` for the cross-backend byte-stable form)
=============  =============================================================

Every command is deterministic under ``--seed``.  The engine flags
``--workers``, ``--cache-dir``, ``--resume`` and ``--shard-size``
control the unified execution engine (see :mod:`repro.engine`):
``--cache-dir`` spills every executed plan's result to a JSON-lines
file, and ``--resume`` replays it so a repeated or interrupted campaign
skips injections that already ran.  ``--backend`` picks the shard
substrate (``local``/``async``/``socket`` — see
:mod:`repro.engine.backends`) for campaigns *and* traced analyses;
with ``socket``, ``--backend-addr`` names the shard server(s) started
via ``serve``, which execute every plan kind through one ``run``
operation (wire format: ``docs/protocol.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.apps import ALL_APPS, REGISTRY
from repro.core import FlipTracker
from repro.util.tables import format_table


def _tracker(args) -> FlipTracker:
    program = REGISTRY.build(args.app)
    return FlipTracker(program, seed=args.seed, workers=args.workers,
                       cache_dir=args.cache_dir, resume=args.resume,
                       shard_size=args.shard_size, backend=args.backend,
                       backend_addr=args.backend_addr,
                       registry=args.registry)


def cmd_apps(args) -> int:
    rows = []
    for name in ALL_APPS:
        program = REGISTRY.build(name)
        rows.append([name, program.region_fn, program.main_fn,
                     ", ".join(f"{k}={v}" for k, v in
                               sorted(program.meta.items())
                               if isinstance(v, (int, float, str)))[:48]])
    print(format_table(["App", "Region fn", "Main fn", "Meta"], rows,
                       title="Registered study programs"))
    return 0


def cmd_trace(args) -> int:
    ft = _tracker(args)
    trace = ft.fault_free_trace()
    print(trace.describe())
    print(f"verification: PASS (fault-free)")
    return 0


def cmd_regions(args) -> int:
    ft = _tracker(args)
    rows = []
    for inst in ft.instances():
        if args.instance is not None and inst.index != args.instance:
            continue
        r = inst.region
        rows.append([r.name, r.kind, f"{r.line_lo}-{r.line_hi}",
                     inst.index, inst.start, inst.end, inst.n_instr])
    print(format_table(
        ["Region", "Kind", "Lines", "Inst", "Start", "End", "#instr"],
        rows, title=f"{args.app}: code-region instances"))
    return 0


def cmd_io(args) -> int:
    ft = _tracker(args)
    inst = ft.instance_of(args.region, args.instance)
    io = ft.io(inst)
    print(io.summary())
    if args.verbose:
        for kind, locs in (("inputs", io.inputs), ("outputs", io.outputs)):
            print(f"  {kind}:")
            for loc in sorted(locs)[:args.limit]:
                print(f"    loc {loc} = {locs[loc]!r}")
    return 0


def cmd_inject(args) -> int:
    from repro.faults.sites import NoFaultSitesError
    ft = _tracker(args)
    inst = ft.instance_of(args.region, args.instance)
    try:
        plans = ft.make_plans(inst, args.kind, 1, seed_offset=args.draw)
    except NoFaultSitesError:
        print(f"no {args.kind} sites in {args.region}#{args.instance}",
              file=sys.stderr)
        return 1
    analysis = ft.analyze_injection(plans[0])
    plan = plans[0]
    print(f"plan: {plan.mode} flip, bit {plan.bit}, trigger {plan.trigger}"
          + (f", loc {plan.loc}" if plan.loc is not None else ""))
    print(f"manifestation: {analysis.manifestation.value}")
    acl = analysis.acl
    print(f"ACL: peak={acl.peak} births={len(acl.births)} "
          f"deaths={acl.deaths_by_cause()} divergence={acl.divergence}")
    if analysis.patterns:
        rows = [[p.pattern, p.time, p.region or "-", p.line] for p in
                analysis.patterns[:args.limit]]
        print(format_table(["Pattern", "t", "Region", "Line"], rows,
                           title="resilience-pattern instances"))
    else:
        print("no resilience patterns observed")
    return 0


def cmd_acl(args) -> int:
    from repro.faults.sites import NoFaultSitesError
    from repro.viz import acl_chart
    ft = _tracker(args)
    inst = ft.instance_of(args.region, args.instance)
    try:
        plans = ft.make_plans(inst, args.kind, 1, seed_offset=args.draw)
    except NoFaultSitesError:
        print("no sites", file=sys.stderr)
        return 1
    analysis = ft.analyze_injection(plans[0])
    print(acl_chart(analysis.acl,
                    title=f"{args.app}/{args.region}#{args.instance} "
                          f"{args.kind} flip "
                          f"({analysis.manifestation.value})"))
    return 0


def cmd_campaign(args) -> int:
    from repro.faults.sites import NoFaultSitesError
    ft = _tracker(args)
    on_progress = None
    if args.progress:
        def on_progress(event):  # noqa: E306 - tiny local callback
            print(f"  {event}", file=sys.stderr)
    try:
        res = ft.region_campaign(args.region, args.kind, n=args.n,
                                 instance_index=args.instance,
                                 on_progress=on_progress)
    except NoFaultSitesError as exc:
        print(f"no injectable sites: {exc}", file=sys.stderr)
        ft.close()
        return 1
    print(res)
    if args.cache_dir:
        stats = ft.engine.cache.stats()
        print(f"cache: {res.executed} executed, {res.cached} reused, "
              f"{stats['entries']} entries @ {stats['path']}")
    ft.close()
    return 0


def cmd_patterns(args) -> int:
    ft = _tracker(args)
    on_progress = None
    if args.progress:
        def on_progress(event):  # noqa: E306 - tiny local callback
            print(f"  {event}", file=sys.stderr)
    found = ft.region_patterns(runs_per_kind=args.runs_per_kind,
                               instance_index=args.instance,
                               loop_only=args.loop_only,
                               probe_sites=args.probe_sites,
                               on_progress=on_progress)
    rows = [[region, ", ".join(sorted(pats)) if pats else "-"]
            for region, pats in sorted(found.items())]
    print(format_table(["Region", "Patterns"], rows,
                       title=f"{args.app}: resilience patterns by region "
                             f"(Table I, backend={args.backend})"))
    ft.close()
    return 0


def cmd_rates(args) -> int:
    ft = _tracker(args)
    r = ft.pattern_rates()
    rows = [[f, f"{getattr(r, f):.6f}"] for f in type(r).FIELDS]
    rows.append(["total_instructions", r.total_instructions])
    print(format_table(["Feature", "Value"], rows,
                       title=f"{args.app}: pattern rates (Table IV row)"))
    return 0


def cmd_dot(args) -> int:
    from repro.dddg import build_dddg, to_dot
    ft = _tracker(args)
    inst = ft.instance_of(args.region, args.instance)
    d = build_dddg(ft.fault_free_trace().records, inst,
                   max_records=args.max_records)
    dot = to_dot(d, max_nodes=args.max_nodes)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(dot)
        print(f"wrote {args.output} ({d.graph.number_of_nodes()} nodes)")
    else:
        print(dot)
    return 0


def cmd_sample(args) -> int:
    from repro.faults import sample_size
    n = sample_size(args.population, args.confidence, args.margin)
    print(f"population={args.population} confidence={args.confidence} "
          f"margin={args.margin} -> {n} injections")
    return 0


def cmd_run(args) -> int:
    from repro.api import Experiment, SpecError, run_experiment
    from repro.faults.sites import NoFaultSitesError
    try:
        with open(args.spec) as fh:
            experiment = Experiment.from_json(fh.read())
    except OSError as exc:
        print(f"cannot read spec: {exc}", file=sys.stderr)
        return 1
    except SpecError as exc:
        print(f"bad spec: {exc}", file=sys.stderr)
        return 1
    experiment = _apply_engine_overrides(experiment, args)
    unknown = sorted(set(experiment.apps) - set(ALL_APPS))
    if unknown:
        print(f"bad spec: unknown app(s) {', '.join(unknown)} "
              f"(see 'repro apps')", file=sys.stderr)
        return 1
    on_progress = None
    if args.progress:
        def on_progress(event):  # noqa: E306 - tiny local callback
            print(f"  {event}", file=sys.stderr)
    backend_factory = _registry_backend_factory(args)
    try:
        result = run_experiment(experiment, on_progress=on_progress,
                                backend_factory=backend_factory)
    except (KeyError, IndexError) as exc:
        # bad target coordinates (region name, instance, iteration)
        # surfaced by spec compilation — a spec problem, not a crash
        print(f"bad spec target: {exc}", file=sys.stderr)
        return 1
    except NoFaultSitesError as exc:
        print(f"no injectable sites: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(result.to_json(indent=2, provenance=not args.canonical))
        return 0
    rows = []
    for sr in result.spec_results():
        if sr.campaign is not None:
            summary = (f"sr={sr.campaign.success_rate:.3f} "
                       f"(ok={sr.campaign.success} "
                       f"sdc={sr.campaign.failed} "
                       f"crash={sr.campaign.crashed})")
        else:
            regions = sum(1 for pats in sr.patterns.values() if pats)
            summary = f"patterns in {regions}/{len(sr.patterns)} regions"
        rows.append([sr.app, sr.index, sr.mode, sr.label, summary])
    print(format_table(["App", "Spec", "Mode", "Label", "Result"], rows,
                       title=f"experiment {experiment.name!r}"))
    print(f"{len(result.dispatches)} dispatches, "
          f"{result.executed} executed, {result.cached} cached, "
          f"{result.elapsed:.2f}s "
          f"(backend={experiment.backend or 'local'})")
    return 0


def _registry_backend_factory(args):
    """Per-app SocketBackend factory when ``--registry`` is given.

    A substrate override, not spec state: the spec file stays the
    artifact of record and the envelope stays byte-identical.
    """
    if args.registry is None:
        return None
    from repro.engine.backends import SocketBackend
    registry = args.registry

    def backend_factory():
        return SocketBackend(registry=registry)

    return backend_factory


def cmd_profiles(args) -> int:
    from repro.api import Experiment, ProfileSpec, run_experiment
    spec = ProfileSpec(kind=args.kind, n=args.n, cap=args.cap,
                       instance_index=args.instance,
                       acl_samples=args.acl_samples)
    experiment = Experiment(
        name=f"{args.app}-profiles", apps=(args.app,), specs=(spec,),
        seed=args.seed, workers=args.workers, backend=args.backend,
        backend_addr=args.backend_addr, cache_dir=args.cache_dir,
        resume=args.resume, shard_size=args.shard_size,
        store_dir=args.store_dir, incremental=bool(args.incremental))
    on_progress = None
    if args.progress:
        def on_progress(event):  # noqa: E306 - tiny local callback
            print(f"  {event}", file=sys.stderr)
    result = run_experiment(experiment, on_progress=on_progress,
                            backend_factory=_registry_backend_factory(args))
    if args.json:
        print(result.to_json(indent=2, provenance=not args.canonical))
        return 0
    profile = result.spec_results()[0].profile
    sources = profile.get("sources", {})
    rows = []
    for entry in profile["regions"]:
        counts = entry["counts"]
        src = sources.get(entry["region"], {})
        rows.append([entry["region"], entry["fingerprint"][:12],
                     entry["n"], counts["success"], counts["failed"],
                     counts["crashed"] + counts.get("hung", 0),
                     entry["total_weight"],
                     src.get("source", "dispatch")
                     + (f":{src['tier']}" if src.get("tier") else "")])
    print(format_table(
        ["Region", "Fingerprint", "n", "OK", "SDC", "Crash", "Weight",
         "Source"], rows,
        title=f"{args.app}: per-region resilience profiles "
              f"({args.kind} flips, seed={args.seed})"))
    composed = profile.get("composed")
    if composed is not None:
        rates = composed["rates"]
        print(f"composed: success={rates['success']:.4f} "
              f"sdc={rates['failed']:.4f} crash={rates['crashed']:.4f} "
              f"+/-{composed['margin95']:.4f} (95%), "
              f"coverage={composed['coverage']:.3f} of "
              f"{composed['trace_len']} instructions, "
              f"n={composed['samples']}")
    dispatched = sum(d["plans"] for d in result.dispatches
                     if d["mode"] != "store")
    served = sum(d["plans"] for d in result.dispatches
                 if d["mode"] == "store")
    print(f"{dispatched} injections dispatched, {served} served from "
          f"store ({args.store_dir or 'no store'})")
    return 0


def cmd_recover(args) -> int:
    from repro.api import (Experiment, RecoverySpec, SpecError,
                           run_experiment)
    policies = [p.strip() for p in args.policy.split(",") if p.strip()]
    try:
        specs = tuple(
            RecoverySpec(policy=policy, detector=args.detector,
                         kind=args.kind, region=args.region,
                         instance_index=args.instance, n=args.n,
                         checkpoint_every=args.checkpoint_every,
                         max_recoveries=args.max_recoveries)
            for policy in policies)
    except SpecError as exc:
        print(f"bad recovery spec: {exc}", file=sys.stderr)
        return 1
    experiment = Experiment(
        name=f"{args.app}-recover", apps=(args.app,), specs=specs,
        seed=args.seed, workers=args.workers, backend=args.backend,
        backend_addr=args.backend_addr, cache_dir=args.cache_dir,
        resume=args.resume, shard_size=args.shard_size)
    on_progress = None
    if args.progress:
        def on_progress(event):  # noqa: E306 - tiny local callback
            print(f"  {event}", file=sys.stderr)
    result = run_experiment(experiment, on_progress=on_progress,
                            backend_factory=_registry_backend_factory(args))
    if args.json:
        print(result.to_json(indent=2, provenance=not args.canonical))
        return 0
    rows = []
    for sr in result.spec_results():
        payload = sr.recovery
        for entry in payload["regions"]:
            c = entry["counts"]
            rows.append([payload["policy"], entry["region"], entry["n"],
                         c["success"], c["failed"], c["crashed"],
                         c["aborted"], c["detected"], c["recovered"],
                         c["forwarded"], c["re_executed"],
                         c["checkpoint_words"]])
    print(format_table(
        ["Policy", "Region", "n", "OK", "SDC", "Crash", "Abort", "Det",
         "Rec", "Fwd", "ReExec", "CkptWords"], rows,
        title=f"{args.app}: protected runs "
              f"(detector={args.detector}, {args.kind} flips, "
              f"seed={args.seed})"))
    for sr in result.spec_results():
        payload = sr.recovery
        totals = {k: sum(e["counts"][k] for e in payload["regions"])
                  for k in ("success", "failed", "crashed", "aborted",
                            "detected", "recovered", "forwarded",
                            "checks", "re_executed", "checkpoint_words")}
        n = sum(e["n"] for e in payload["regions"])
        rate = totals["success"] / n if n else 0.0
        print(f"{payload['policy']}: {n} runs, success_rate={rate:.3f}, "
              f"detected={totals['detected']} "
              f"recovered={totals['recovered']} "
              f"forwarded={totals['forwarded']}; overhead: "
              f"{totals['checks']} checks, "
              f"{totals['re_executed']} re-executed instrs, "
              f"{totals['checkpoint_words']} checkpointed words")
    return 0


def cmd_store(args) -> int:
    if args.store_dir is None:
        print("store: --store-dir is required (the store to operate on)",
              file=sys.stderr)
        return 1
    from repro.profiles import ResultStore
    if args.store_command == "compact":
        store = ResultStore(args.store_dir)
        try:
            stats = store.compact()
        finally:
            store.close()
        print(f"compacted {args.store_dir}: {stats['records']} live "
              f"records, {stats['bytes']} bytes "
              f"({stats['reclaimed']} reclaimed)")
        return 0
    print(f"unknown store command {args.store_command!r}",
          file=sys.stderr)  # pragma: no cover - argparse gates this
    return 1


def _apply_engine_overrides(experiment, args):
    """Fold explicitly-set global engine flags into a spec'd experiment.

    A flag the user did not pass (parser default ``None``) defers to
    the experiment's own value — the spec is the artifact of record;
    anything set on the command line wins, even when it equals the
    built-in default (``--backend local`` forces local execution over
    a spec that says ``socket``).  One spec file thus runs on any
    ``--backend``/``--workers`` without editing.
    """
    import dataclasses
    overrides = {name: getattr(args, name)
                 for name in ENGINE_FLAG_DEFAULTS
                 if getattr(args, name) is not None}
    return dataclasses.replace(experiment, **overrides) if overrides \
        else experiment


def cmd_serve(args) -> int:
    from repro.engine.backends import ShardServer
    program = REGISTRY.build(args.app)
    server = ShardServer(program, host=args.host, port=args.port,
                         registry=args.registry, capacity=args.capacity,
                         advertise_host=args.advertise_host)
    # the "serving" line marks readiness; scripts wait for it
    print(f"serving {args.app} fp={server.fingerprint} "
          f"on {server.host}:{server.port}"
          + (f" registry={args.registry}" if args.registry else ""),
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        server.stop()
    return 0


def cmd_registry(args) -> int:
    from repro.service import ServiceDaemon
    daemon = ServiceDaemon(host=args.host, port=args.port,
                           spill_dir=args.spill_dir, ttl=args.ttl,
                           store_dir=args.store_dir)
    # the "registry" line marks readiness; scripts wait for it
    print(f"registry on {daemon.host}:{daemon.port} "
          f"ttl={daemon.registry.ttl}", flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        daemon.stop()
    return 0


def _service_client(args):
    from repro.service import DEFAULT_REGISTRY_PORT, RegistryClient
    address = args.registry or f"127.0.0.1:{DEFAULT_REGISTRY_PORT}"
    return RegistryClient(address)


def cmd_submit(args) -> int:
    import json

    from repro.service import RegistryError
    try:
        with open(args.spec) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read spec: {exc}", file=sys.stderr)
        return 1
    try:
        reply = _service_client(args).submit(payload)
    except RegistryError as exc:
        print(f"rejected ({exc.code}): {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach registry: {exc}", file=sys.stderr)
        return 1
    print(reply["id"])
    return 0


def cmd_jobs(args) -> int:
    try:
        jobs = _service_client(args).jobs()
    except OSError as exc:
        print(f"cannot reach registry: {exc}", file=sys.stderr)
        return 1
    rows = [[job["id"], job.get("name", ""), job["state"],
             job.get("error", "")] for job in jobs]
    print(format_table(["Job", "Name", "State", "Error"], rows,
                       title="service job queue"))
    return 0


def cmd_watch(args) -> int:
    from repro.service import RegistryError

    def on_event(event):
        print(f"  {event}", file=sys.stderr)

    try:
        final = _service_client(args).watch(args.id, on_event=on_event)
    except RegistryError as exc:
        print(f"watch failed ({exc.code}): {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach registry: {exc}", file=sys.stderr)
        return 1
    print(f"{final['id']}: {final['state']}"
          + (f" ({final['error']})" if final.get("error") else ""))
    return 0 if final["state"] == "done" else 1


def cmd_fetch(args) -> int:
    from repro.api import ExperimentResult
    from repro.service import RegistryError
    try:
        envelope = _service_client(args).fetch(args.id)
    except RegistryError as exc:
        print(f"fetch failed ({exc.code}): {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach registry: {exc}", file=sys.stderr)
        return 1
    result = ExperimentResult.from_dict(envelope)
    print(result.to_json(indent=2, provenance=not args.canonical))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


#: global engine-flag defaults.  The parser leaves these flags at
#: ``None`` so ``run`` can tell "explicitly set" from "defaulted"
#: (a spec file's own values win only in the latter case);
#: :func:`main` fills them in for every other command.
ENGINE_FLAG_DEFAULTS = {"seed": 20181111, "workers": 1,
                        "cache_dir": None, "resume": False,
                        "shard_size": 64, "backend": "local",
                        "backend_addr": None,
                        "store_dir": None, "incremental": False}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="FlipTracker (SC'18) reproduction toolkit")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="engine worker processes (default 1 = sequential)")
    p.add_argument("--cache-dir", default=None,
                   help="spill the engine's plan-result cache to this "
                        "directory (JSON lines; doubles as a campaign "
                        "checkpoint)")
    p.add_argument("--resume", action="store_const", const=True,
                   default=None,
                   help="reuse results already recorded in --cache-dir: "
                        "previously executed injections are skipped")
    p.add_argument("--shard-size", type=_positive_int, default=None,
                   help="campaign checkpoint/progress granularity "
                        "(default 64)")
    p.add_argument("--backend", choices=("local", "async", "socket"),
                   default=None,
                   help="shard-execution backend for campaigns and "
                        "traced analyses: in-host pool (local, the "
                        "default), asyncio worker fan-out, or remote "
                        "TCP shard servers (byte-identical results "
                        "either way)")
    p.add_argument("--backend-addr", default=None, metavar="HOST:PORT[,..]",
                   help="shard server address(es) for --backend socket "
                        "(default 127.0.0.1:7453; start one with "
                        "'repro serve <app>')")
    p.add_argument("--registry", default=None, metavar="HOST:PORT",
                   help="service registry address: execution commands "
                        "resolve shard servers through it (implies "
                        "--backend socket; see 'repro registry'), and "
                        "the service commands submit/jobs/watch/fetch "
                        "talk to it (default 127.0.0.1:7460)")
    p.add_argument("--store-dir", default=None, metavar="DIR",
                   help="cross-experiment profile store (JSONL; see "
                        "docs/profiles.md): freshly injected region "
                        "results are recorded here keyed by region "
                        "fingerprint + injection parameters")
    p.add_argument("--incremental", action="store_const", const=True,
                   default=None,
                   help="serve region results already in --store-dir "
                        "instead of re-injecting: a modified program "
                        "re-runs only regions whose fingerprint changed")
    p.add_argument("--exec-tier", choices=("interp", "compiled"),
                   default=None,
                   help="VM execution tier (sets REPRO_EXEC for this "
                        "process and its workers): the flat interpreter "
                        "loop, or per-function compiled Python — "
                        "byte-identical observables, compiled is "
                        "several times faster per faulty run")
    p.add_argument("--warm-start", choices=("on", "off"), default=None,
                   help="golden snapshot-ladder warm start (sets "
                        "REPRO_WARMSTART; default on): faulty runs "
                        "restore the highest ladder rung at or below "
                        "their trigger and execute only the suffix — "
                        "byte-identical observables, 'off' forces "
                        "cold full-prefix re-execution")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list study programs")

    def app_cmd(name, help_, **extra):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("app", choices=list(ALL_APPS))
        return sp

    app_cmd("trace", "fault-free trace summary")

    sp = app_cmd("regions", "region chain + instances")
    sp.add_argument("--instance", type=int, default=None)

    sp = app_cmd("io", "region-instance IO classification")
    sp.add_argument("region")
    sp.add_argument("--instance", type=int, default=0)
    sp.add_argument("-v", "--verbose", action="store_true")
    sp.add_argument("--limit", type=int, default=20)

    for name, help_ in (("inject", "one traced injection + analysis"),
                        ("acl", "ASCII ACL curve for one injection")):
        sp = app_cmd(name, help_)
        sp.add_argument("region")
        sp.add_argument("--instance", type=int, default=0)
        sp.add_argument("--kind", choices=("input", "internal"),
                        default="internal")
        sp.add_argument("--draw", type=int, default=0,
                        help="site-sampling offset (new random site)")
        sp.add_argument("--limit", type=int, default=20)

    sp = app_cmd("campaign", "success-rate campaign (one Fig. 5 cell)")
    sp.add_argument("region")
    sp.add_argument("--instance", type=int, default=0)
    sp.add_argument("--kind", choices=("input", "internal"),
                    default="internal")
    sp.add_argument("-n", type=int, default=40)
    sp.add_argument("--progress", action="store_true",
                    help="stream per-shard progress to stderr")

    sp = app_cmd("patterns", "traced pattern sweep per region (Table I)")
    sp.add_argument("--runs-per-kind", type=int, default=3,
                    help="uniform input+internal draws per region "
                         "instance (traced)")
    sp.add_argument("--instance", type=int, default=0)
    sp.add_argument("--loop-only", action="store_true",
                    help="inject only into loop regions (straight "
                         "regions are a few setup instructions)")
    sp.add_argument("--probe-sites", type=int, default=0,
                    help="add stratified low-bit probe injections per "
                         "region (0 = uniform draws only)")
    sp.add_argument("--progress", action="store_true",
                    help="stream per-shard analysis progress to stderr")

    app_cmd("rates", "pattern-rate features (Table IV row)")

    sp = app_cmd("profiles", "per-region resilience profiles + "
                             "composed whole-program estimate")
    sp.add_argument("--kind", choices=("input", "internal"),
                    default="internal")
    sp.add_argument("-n", type=int, default=None,
                    help="injections per region (default: Leveugle "
                         "sizing per region's site population)")
    sp.add_argument("--cap", type=int, default=None,
                    help="cap the Leveugle sample size per region")
    sp.add_argument("--instance", type=int, default=0)
    sp.add_argument("--acl-samples", type=int, default=0,
                    help="traced ACL statistics from this many plans "
                         "per region (0 = none; traced runs are slow)")
    sp.add_argument("--json", action="store_true",
                    help="emit the full ExperimentResult envelope as "
                         "JSON instead of a summary table")
    sp.add_argument("--canonical", action="store_true",
                    help="with --json: strip timings/provenance "
                         "(golden-file mode)")
    sp.add_argument("--progress", action="store_true",
                    help="stream per-shard progress to stderr")

    sp = app_cmd("recover", "protected runs: online detectors + "
                            "recovery policies (docs/recovery.md)")
    sp.add_argument("--policy", default="recompute-region",
                    metavar="POLICY[,..]",
                    help="recovery policies to sweep, comma-separated "
                         "(abort, rollback, recompute-region, "
                         "forward-correct); one spec per policy over "
                         "the identical fault population")
    sp.add_argument("--detector", choices=("range", "invariant",
                                           "checksum"),
                    default="checksum",
                    help="online check run at region exit boundaries")
    sp.add_argument("--kind", choices=("input", "internal"),
                    default="internal")
    sp.add_argument("--region", default=None,
                    help="restrict the sweep to one region "
                         "(default: every loop region of the chain)")
    sp.add_argument("--instance", type=int, default=0)
    sp.add_argument("-n", type=int, default=8,
                    help="protected runs per region (same seed streams "
                         "as an unprotected campaign)")
    sp.add_argument("--checkpoint-every", type=_positive_int, default=1,
                    help="rollback policy: snapshot every Nth region "
                         "entry")
    sp.add_argument("--max-recoveries", type=int, default=4,
                    help="restore attempts before a run stops "
                         "detecting and coasts to completion")
    sp.add_argument("--json", action="store_true",
                    help="emit the full ExperimentResult envelope as "
                         "JSON instead of a summary table")
    sp.add_argument("--canonical", action="store_true",
                    help="with --json: strip timings/provenance "
                         "(golden-file mode)")
    sp.add_argument("--progress", action="store_true",
                    help="stream per-shard progress to stderr")

    sp = sub.add_parser(
        "store", help="operate on a cross-experiment profile store "
                      "(--store-dir)")
    ssub = sp.add_subparsers(dest="store_command", required=True)
    scp = ssub.add_parser(
        "compact", help="rewrite profiles.jsonl keeping only keys live "
                        "in index.json (atomic replace; safe alongside "
                        "concurrent writers)")
    # SUPPRESS so the subcommand flag never clobbers a value given at
    # the root (`repro --store-dir ... store compact` and `repro store
    # compact --store-dir ...` are both accepted and equivalent)
    scp.add_argument("--store-dir", metavar="DIR",
                     default=argparse.SUPPRESS,
                     help="the store to compact")

    sp = app_cmd("dot", "DDDG DOT export")
    sp.add_argument("region")
    sp.add_argument("--instance", type=int, default=0)
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--max-records", type=int, default=50_000)
    sp.add_argument("--max-nodes", type=int, default=4000)

    sp = sub.add_parser("sample", help="Leveugle sample-size calculator")
    sp.add_argument("population", type=int)
    sp.add_argument("--confidence", type=float, default=0.95)
    sp.add_argument("--margin", type=float, default=0.03)

    sp = app_cmd("serve", "TCP shard server for --backend socket")
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=7453,
                    help="listen port (0 = ephemeral, printed on start)")
    # SUPPRESS so the subcommand flag never clobbers a value given at
    # the root (`repro --registry ... serve` and `repro serve
    # --registry ...` are both accepted and equivalent)
    sp.add_argument("--registry", metavar="HOST:PORT",
                    default=argparse.SUPPRESS,
                    help="registry to join (heartbeats capacity and "
                         "in-flight load; see docs/service.md)")
    sp.add_argument("--capacity", type=_positive_int, default=1,
                    help="worker slots to advertise to the registry "
                         "(scheduler opens up to this many connections)")
    sp.add_argument("--advertise-host", default=None, metavar="HOST",
                    help="address peers should dial, when it differs "
                         "from --host (0.0.0.0 binds, NAT, containers)")

    sp = sub.add_parser(
        "registry", help="service control plane: registry + scheduler "
                         "inputs + persistent job queue")
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=7460,
                    help="listen port (0 = ephemeral, printed on start)")
    sp.add_argument("--spill-dir", default=None, metavar="DIR",
                    help="persist the job queue to DIR/jobs.jsonl so a "
                         "restarted registry resumes every job")
    sp.add_argument("--ttl", type=float, default=10.0,
                    help="seconds without a heartbeat before a shard "
                         "server is expired (default 10)")
    # SUPPRESS so the subcommand flag never clobbers a value given at
    # the root (`repro --store-dir ... registry` and `repro registry
    # --store-dir ...` are both accepted and equivalent)
    sp.add_argument("--store-dir", metavar="DIR",
                    default=argparse.SUPPRESS,
                    help="cross-experiment profile store shared by "
                         "every job this daemon runs (fresh region "
                         "results land here; incremental experiments "
                         "are served from it)")

    sp = sub.add_parser(
        "submit", help="queue an experiment spec on the service; "
                       "prints the job id")
    sp.add_argument("spec", help="path to an Experiment JSON file "
                                 "(schema: docs/experiments.md)")

    sub.add_parser("jobs", help="list the service's jobs")

    sp = sub.add_parser(
        "watch", help="stream a job's progress until it finishes")
    sp.add_argument("id", help="job id from 'repro submit'")

    sp = sub.add_parser(
        "fetch", help="print a finished job's result envelope (JSON)")
    sp.add_argument("id", help="job id from 'repro submit'")
    sp.add_argument("--canonical", action="store_true",
                    help="strip timings/backend provenance so the "
                         "output is byte-identical across backends and "
                         "worker counts (golden-file mode)")

    sp = sub.add_parser(
        "run", help="execute a declarative experiment spec (JSON)")
    sp.add_argument("spec", help="path to an Experiment JSON file "
                                 "(schema: docs/experiments.md)")
    sp.add_argument("--json", action="store_true",
                    help="emit the full ExperimentResult envelope as "
                         "JSON instead of a summary table")
    sp.add_argument("--canonical", action="store_true",
                    help="with --json: strip timings/backend provenance "
                         "so the output is byte-identical across "
                         "backends and worker counts (golden-file mode)")
    sp.add_argument("--progress", action="store_true",
                    help="stream per-shard progress to stderr")

    return p


_HANDLERS = {
    "apps": cmd_apps, "trace": cmd_trace, "regions": cmd_regions,
    "io": cmd_io, "inject": cmd_inject, "acl": cmd_acl,
    "campaign": cmd_campaign, "patterns": cmd_patterns,
    "rates": cmd_rates, "dot": cmd_dot, "profiles": cmd_profiles,
    "sample": cmd_sample, "serve": cmd_serve, "run": cmd_run,
    "registry": cmd_registry, "submit": cmd_submit, "jobs": cmd_jobs,
    "watch": cmd_watch, "fetch": cmd_fetch, "recover": cmd_recover,
    "store": cmd_store,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.registry is not None and args.backend_addr is not None:
        parser.error("--registry and --backend-addr are mutually "
                     "exclusive (the registry resolves the addresses)")
    if args.registry is not None and args.backend is None:
        # naming a registry is choosing remote dispatch; an explicit
        # --backend still wins (e.g. force local for a quick check)
        args.backend = "socket"
    if args.exec_tier is not None:
        # the environment variable is the tier's cross-process channel:
        # pool workers and spec-runner engines all inherit it (workers
        # additionally receive the resolved tier in task payloads)
        os.environ["REPRO_EXEC"] = args.exec_tier
    if args.warm_start is not None:
        # same cross-process channel as --exec-tier: engines, pool
        # workers and shard servers all resolve REPRO_WARMSTART
        os.environ["REPRO_WARMSTART"] = args.warm_start
    if args.command != "run":
        # every other command takes the engine flags directly; "run"
        # resolves them against the spec file (_apply_engine_overrides)
        for name, default in ENGINE_FLAG_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
