"""Traced mode: spans around the calls into each layer, from outside.

The benchmark records spans without touching the program: it swaps the
functions each layer exposes *at the binding the caller actually
uses* (``repro.core.fliptracker`` imports ``build_acl``,
``detect_all`` and ``split_instances`` by name, ``repro.faults.
campaign`` imports ``warm_start_interp`` by name, lazily imported
helpers are looked up on their home module at call time, methods on
their class) and restores every binding afterwards.

A span is ``(id, name, start, end, parent, run, attrs)``; spans live in
memory and are written out once, when the benchmark ends.  Per-layer
metrics are derived per repetition (``run``) from the spans plus a few
counters recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter

#: every per-layer metric, in report order, with its unit
LAYER_METRICS = {
    "apps.build_s": "s",
    "vm.golden_s": "s",
    "vm.faulty_self_s": "s",
    "vm.instr": "count",
    "vm.instr_per_s": "1/s",
    "vm.run_p50_ms": "ms",
    "vm.run_p99_ms": "ms",
    "warmstart.ladder_s": "s",
    "warmstart.ladder_words": "count",
    "warmstart.hits": "count",
    "warmstart.misses": "count",
    "warmstart.saved_instr": "count",
    "warmstart.saved_instr_frac": "ratio",
    "trace.index_s": "s",
    "regions.instances_s": "s",
    "regions.io_s": "s",
    "regions.split_s": "s",
    "regions.fingerprint_s": "s",
    "faults.sample_s": "s",
    "faults.draw_accept_ratio": "ratio",
    "faults.check_s": "s",
    "faults.plans": "count",
    "api.compile_s": "s",
    "engine.dispatch_s": "s",
    "engine.overhead_s": "s",
    "engine.executed": "count",
    "engine.cache_hits": "count",
    "engine.plan_p50_ms": "ms",
    "engine.plan_p99_ms": "ms",
    "acl.build_s": "s",
    "acl.online_ctx_s": "s",
    "patterns.detect_s": "s",
    "patterns.instances": "count",
    "patterns.useful_ratio": "ratio",
    "recovery.session_self_s": "s",
    "recovery.checks": "count",
    "recovery.detections": "count",
    "recovery.restores": "count",
    "recovery.reexec_instr": "count",
    "recovery.ckpt_words": "count",
    "recovery.recovered_ratio": "ratio",
    "profiles.get_s": "s",
    "profiles.put_s": "s",
    "profiles.flush_s": "s",
    "profiles.compose_s": "s",
    "profiles.served_plans": "count",
    "profiles.dispatched_plans": "count",
    "profiles.reuse_ratio": "ratio",
    "bench.trace_overhead_s": "s",
}

#: metrics that must repeat exactly across runs at one seed
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS.items()
                      if unit == "count")


class Tracer:
    """In-memory span recorder plus per-run counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[int, Counter] = {}
        self.run = None
        self._stack: list[dict] = []
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ spans
    def begin(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "run": self.run, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def inside(self, name: str) -> bool:
        """Whether an open span named ``name`` encloses the caller."""
        return any(s["name"] == name for s in self._stack)

    def count(self, key: str, value: int = 1) -> None:
        self.counters.setdefault(self.run, Counter())[key] += value

    # ------------------------------------------------------------ bindings
    def patch(self, owner, attr: str, name, on_exit=None, on_enter=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a callable choosing one per call;
        ``on_enter(args, kwargs)`` returns state handed to
        ``on_exit(span, args, kwargs, result, state)``, which may add
        attributes and counters (``result`` is ``None`` if the call
        raised).
        """
        original = getattr(owner, attr)

        @functools.wraps(original, updated=())
        def wrapper(*args, **kwargs):
            span = self.begin(name() if callable(name) else name)
            state = on_enter(args, kwargs) if on_enter else None
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                if on_exit is not None:
                    on_exit(span, args, kwargs, result, state)
                self.end(span)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def patch_counter(self, owner, attr: str, on_call) -> None:
        """Replace ``owner.attr`` with a counting (span-free) wrapper."""
        original = getattr(owner, attr)

        @functools.wraps(original, updated=())
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            on_call(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    import repro.acl.online as acl_online
    import repro.api.runner as runner
    import repro.core.fliptracker as ft
    import repro.faults.campaign as campaign
    import repro.profiles as profiles
    import repro.recovery.run as recovery_run
    import repro.regions as regions
    import repro.warmstart as warmstart
    from repro.apps.base import AppRegistry, Program
    from repro.engine.core import ExecutionEngine
    from repro.profiles.store import ResultStore
    from repro.recovery.outcome import RecoveryOutcome
    from repro.vm.interp import Interpreter

    t = tracer

    # apps / frontend / ir: building a program compiles its source
    t.patch(AppRegistry, "build", "apps.build")

    # vm: the golden run, and every call that executes instructions
    t.patch(Program, "run_fault_free", "vm.golden")

    def dyn_before(args, kwargs):
        return args[0].dyn_count

    def dyn_after(span, args, kwargs, result, before):
        span["attrs"]["instr"] = args[0].dyn_count - before

    for method in ("run", "resume_run", "run_to"):
        t.patch(Interpreter, method, "vm.exec", on_enter=dyn_before,
                on_exit=dyn_after)

    # warm start: ladder build + per-run engagement at campaign's binding
    def ladder_words(span, args, kwargs, ladder, _state):
        if ladder is not None:
            span["attrs"]["words"] = ladder.words

    t.patch(warmstart, "build_warm_ladder", "warmstart.ladder",
            on_exit=ladder_words)

    def warm_engaged(args, kwargs, hit):
        interp, ladder, plan = args[:3]
        if ladder is None or plan is None:
            return
        t.count("warm.prefix", max(0, plan.trigger))
        if hit:
            t.count("warm.hits")
            t.count("warm.saved", interp.dyn_count)
        else:
            t.count("warm.misses")

    t.patch_counter(campaign, "warm_start_interp", warm_engaged)

    # trace / regions
    t.patch(ft, "TraceIndex", "trace.index")
    t.patch(ft, "split_instances",
            lambda: "regions.split" if t.inside("engine.plan")
            else "regions.instances")
    t.patch(ft, "classify_io", "regions.io")
    t.patch(regions, "region_fingerprints", "regions.fingerprint")
    t.patch(regions, "region_fingerprint", "regions.fingerprint")

    # faults: site sampling, draw acceptance, verification
    def plans_made(span, args, kwargs, plans, _state):
        if plans is not None:
            t.count("faults.plans", len(plans))

    t.patch(ft.FlipTracker, "make_plans", "faults.sample",
            on_exit=plans_made)
    t.patch(ft.FlipTracker, "probe_plans", "faults.sample",
            on_exit=plans_made)

    def drawn(args, kwargs, result):
        t.count("faults.draws")
        if result is not None:
            t.count("faults.accepted")

    t.patch_counter(ft, "sample_input_plan", drawn)
    t.patch_counter(ft, "sample_internal_plan", drawn)
    for module in (campaign, ft, recovery_run):
        t.patch(module, "classify_check", "faults.check")

    # api: spec compilation at the runner's bindings
    for attr in ("compile_campaign", "compile_analysis", "compile_profile",
                 "compile_recovery"):
        t.patch(runner, attr, "api.compile")

    # engine: whole dispatches and single plans
    def engine_before(args, kwargs):
        return args[0].executed

    def engine_after(span, args, kwargs, result, before):
        engine, groups = args[0], args[1]
        span["attrs"]["plans"] = sum(len(plans) for _label, plans
                                     in groups)
        span["attrs"]["executed"] = engine.executed - before

    for method in ("run_plan_groups", "analyze_plan_groups"):
        t.patch(ExecutionEngine, method, "engine.dispatch",
                on_enter=engine_before, on_exit=engine_after)
    t.patch(campaign, "execute_plan", "engine.plan")

    # acl / patterns (traced faulty runs)
    t.patch(ft, "build_acl", "acl.build")
    t.patch(acl_online, "build_recovery_context", "acl.online_ctx")

    def patterns_found(span, args, kwargs, found, _state):
        if found is not None:
            t.count("patterns.instances", len(found))
            t.count("patterns.runs")
            t.count("patterns.useful", 1 if found else 0)

    t.patch(ft, "detect_all", "patterns.detect", on_exit=patterns_found)
    t.patch(ft.FlipTracker, "analyze_injection", "engine.plan")

    # recovery sessions: outcome counters from the encoded result
    def session_done(span, args, kwargs, encoded, _state):
        if encoded is None:
            return
        outcome = RecoveryOutcome.decode(encoded)
        t.count("recovery.checks", outcome.checks)
        t.count("recovery.detections", outcome.detected)
        t.count("recovery.restores", outcome.recovered)
        t.count("recovery.reexec_instr", outcome.re_executed)
        t.count("recovery.ckpt_words", outcome.checkpoint_words)

    t.patch(recovery_run, "run_recovery_plan", "recovery.session",
            on_exit=session_done)

    # profiles: store traffic and composition
    t.patch(ResultStore, "get", "profiles.get")
    t.patch(ResultStore, "put", "profiles.put")
    t.patch(ResultStore, "flush", "profiles.flush")
    t.patch(profiles, "compose_profiles", "profiles.compose")


# ---------------------------------------------------------------- metrics
def _self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    self_time = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in self_time:
            self_time[s["parent"]] -= s["end"] - s["start"]
    return self_time


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_metrics(tracer: Tracer, run, result_info: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    spans = [s for s in tracer.spans if s["run"] == run]
    by_id = {s["id"]: s for s in spans}
    self_time = _self_times(spans)
    counts = tracer.counters.get(run, Counter())

    def total(name):
        return sum(s["end"] - s["start"] for s in spans
                   if s["name"] == name)

    def own(name):
        return sum(self_time[s["id"]] for s in spans if s["name"] == name)

    def plan_of(span):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            if span["name"] == "engine.plan":
                return span["id"]
        return None

    faulty_s = 0.0
    instr = 0
    per_plan: dict[int, float] = {}
    for s in spans:
        if s["name"] != "vm.exec":
            continue
        plan = plan_of(s)
        if plan is None:
            continue
        faulty_s += self_time[s["id"]]
        instr += s["attrs"].get("instr", 0)
        per_plan[plan] = per_plan.get(plan, 0.0) + s["end"] - s["start"]
    plan_ms = [(s["end"] - s["start"]) * 1e3 for s in spans
               if s["name"] == "engine.plan"]
    dispatches = [s for s in spans if s["name"] == "engine.dispatch"]
    executed = sum(s["attrs"]["executed"] for s in dispatches)
    dispatched_plans = sum(s["attrs"]["plans"] for s in dispatches)
    served = result_info.get("served_plans", 0)
    profiled = result_info.get("profile_dispatched_plans", 0)

    m = {
        "apps.build_s": total("apps.build"),
        "vm.golden_s": total("vm.golden"),
        "vm.faulty_self_s": faulty_s,
        "vm.instr": instr,
        "vm.instr_per_s": _ratio(instr, faulty_s),
        "vm.run_p50_ms": _pct([v * 1e3 for v in per_plan.values()], 0.5),
        "vm.run_p99_ms": _pct([v * 1e3 for v in per_plan.values()], 0.99),
        "warmstart.ladder_s": total("warmstart.ladder"),
        "warmstart.ladder_words": sum(
            s["attrs"].get("words", 0) for s in spans
            if s["name"] == "warmstart.ladder"),
        "warmstart.hits": counts["warm.hits"],
        "warmstart.misses": counts["warm.misses"],
        "warmstart.saved_instr": counts["warm.saved"],
        "warmstart.saved_instr_frac": _ratio(counts["warm.saved"],
                                             counts["warm.prefix"]),
        "trace.index_s": total("trace.index"),
        "regions.instances_s": total("regions.instances"),
        "regions.io_s": total("regions.io"),
        "regions.split_s": total("regions.split"),
        "regions.fingerprint_s": total("regions.fingerprint"),
        "faults.sample_s": own("faults.sample"),
        "faults.draw_accept_ratio": _ratio(counts["faults.accepted"],
                                           counts["faults.draws"]),
        "faults.check_s": total("faults.check"),
        "faults.plans": counts["faults.plans"],
        "api.compile_s": own("api.compile"),
        "engine.dispatch_s": total("engine.dispatch"),
        "engine.overhead_s": own("engine.dispatch"),
        "engine.executed": executed,
        "engine.cache_hits": dispatched_plans - executed,
        "engine.plan_p50_ms": _pct(plan_ms, 0.5),
        "engine.plan_p99_ms": _pct(plan_ms, 0.99),
        "acl.build_s": total("acl.build"),
        "acl.online_ctx_s": total("acl.online_ctx"),
        "patterns.detect_s": own("patterns.detect"),
        "patterns.instances": counts["patterns.instances"],
        "patterns.useful_ratio": _ratio(counts["patterns.useful"],
                                        counts["patterns.runs"]),
        "recovery.session_self_s": own("recovery.session"),
        "recovery.checks": counts["recovery.checks"],
        "recovery.detections": counts["recovery.detections"],
        "recovery.restores": counts["recovery.restores"],
        "recovery.reexec_instr": counts["recovery.reexec_instr"],
        "recovery.ckpt_words": counts["recovery.ckpt_words"],
        "recovery.recovered_ratio": _ratio(counts["recovery.restores"],
                                           counts["recovery.detections"]),
        "profiles.get_s": total("profiles.get"),
        "profiles.put_s": total("profiles.put"),
        "profiles.flush_s": total("profiles.flush"),
        "profiles.compose_s": total("profiles.compose"),
        "profiles.served_plans": served,
        "profiles.dispatched_plans": profiled,
        "profiles.reuse_ratio": _ratio(served, served + profiled),
    }
    return m


def summarize(per_run: list[dict]) -> dict:
    """Median of each metric over the traced repetitions."""
    return {name: statistics.median(m[name] for m in per_run)
            for name in per_run[0]}
