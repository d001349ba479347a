"""Repository benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 50

Runs the named workload (see ``perfbench/workloads.py``) in this
process with ``workers=1`` and the library defaults (the
``REPRO_EXEC``/``REPRO_WARMSTART``/``REPRO_BENCH_*`` variables are
cleared, which selects the interp tier with warm start on).  A workload
is a list of parts, each one experiment on its own fresh trackers.
After an untimed warm-up of every part it cycles through the parts,
repeating *setup + experiment* of one part at a time, until
``--seconds`` of repetitions are spent (and every part has run at least
``MIN_SAMPLES`` times), checks every repetition's outputs, and prints
human-readable lines followed by one JSON object on the last line:

* ``--trace 0``: ``setup_s`` and ``experiment_s`` (sums over the parts
  of each part's median) and ``peak_rss_mb``;
* ``--trace 1``: cycles alternate untraced and traced; the per-layer
  metrics of ``perfbench/tracing.py`` are medians over the traced
  cycles, and ``bench.trace_overhead_s`` is the traced minus the
  untraced ``experiment_s``.  Spans are written to
  ``.perfbench/spans-<workload>-<seed>.jsonl``.

Exits non-zero, without a result line, when an output check fails or
when the checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
CLEARED_ENV = ("REPRO_EXEC", "REPRO_WARMSTART", "REPRO_BENCH_SCALE",
               "REPRO_BENCH_WORKERS")
#: untraced repetitions of every part before an untraced run may stop
MIN_SAMPLES = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's reduced sizes")
    return parser.parse_args(argv)


def load_repro():
    """Import the checkout's ``src`` tree with the library defaults."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/repro under {ROOT}; "
                         f"nothing to benchmark")
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    return workloads


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical(results: list) -> str:
    return "\n".join(r.to_json(provenance=False) for r in results)


def run_rep(part, draw: int, tracer, run: int) -> dict:
    """One repetition of a part on one input draw: timed setup + timed
    experiment, then the cheap checks."""
    if tracer is not None:
        from tracing import install
        tracer.run = run
        install(tracer)
    try:
        start = time.perf_counter()
        state = part.setup(draw)
        setup_s = time.perf_counter() - start
        try:
            start = time.perf_counter()
            results = part.experiment(state)
            experiment_s = time.perf_counter() - start
        except Exception:  # the benchmark's boundary: count and report
            traceback.print_exc()
            results = None
    finally:
        if tracer is not None:
            tracer.uninstall()
    rep = {"part": part.name, "draw": draw, "run": run,
           "traced": tracer is not None,
           "setup_s": setup_s, "state": state, "results": results}
    if results is None:
        # the plan count is unknown: the caller charges the part's
        # previous count as failed
        rep.update(experiment_s=0.0, attempted=None, canonical=None,
                   served_profiled=(0, 0),
                   errors=[f"{part.name}: run_experiment raised"])
        return rep
    rep.update(experiment_s=experiment_s, failed=0,
               attempted=sum(d["plans"] for r in results
                             for d in r.dispatches),
               canonical=canonical(results),
               served_profiled=served_and_profiled(results),
               errors=part.check(state, results))
    return rep


def served_and_profiled(results: list) -> tuple[int, int]:
    """(store-served plans, plans dispatched for profile specs)."""
    served = profiled = 0
    for result in results:
        for d in result.dispatches:
            if d["mode"] == "store":
                served += d["plans"]
            elif d["mode"] == "profile":
                profiled += d["plans"]
    return served, profiled


def measure(args, workloads) -> dict:
    """Warm up, then cycle through the parts until ``args.seconds`` of
    repetitions are spent."""
    WORKDIR.mkdir(exist_ok=True)
    workdir = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    parts = workloads.WORKLOADS[args.workload](
        args.seed, workloads.SIZES[args.size], str(workdir))
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    reps: list[dict] = []
    errors: list[str] = []
    try:
        prime_s = sum(part.prepare() for part in parts)
        spent = 0.0
        last = {}       # part name -> duration of its latest repetition
        cycle = 0
        while True:
            # traced runs alternate untraced and traced cycles, so the
            # tracing overhead is measured under the same conditions
            traced = tracer is not None and cycle % 2 == 1
            for i, part in enumerate(parts):
                # untraced runs alternate input draws; traced runs keep
                # draw 0 so traced and untraced cycles run the same plans
                draw = cycle % part.draws if tracer is None else 0
                start = time.perf_counter()
                rep = run_rep(part, draw, tracer if traced else None, cycle)
                state, results = rep.pop("state"), rep.pop("results")
                if rep["attempted"] is None:
                    before = [r for r in reps if r["part"] == part.name]
                    rep["attempted"] = rep["failed"] = \
                        before[-1]["attempted"] if before else 1
                errors.extend(rep.pop("errors"))
                first = next((r for r in reps if r["part"] == part.name
                              and r["draw"] == draw), None)
                if first is not None and \
                        rep["canonical"] != first["canonical"]:
                    errors.append(f"{part.name}: canonical result of cycle "
                                  f"{cycle} differs from cycle "
                                  f"{first['run']} (draw {draw}) at seed "
                                  f"{args.seed}")
                reps.append(rep)
                last[part.name] = time.perf_counter() - start
                spent += last[part.name]
                if cycle == 0 and results is not None:
                    # once per run, outside the window
                    errors.extend(part.final_check(state, results))
                part.teardown(state)
                del state, results
                gc.collect()
                if cycle_done(tracer, cycle, i == len(parts) - 1) \
                        and window_spent(args, spent, last,
                                         parts[(i + 1) % len(parts)]):
                    break
            else:
                cycle += 1
                continue
            break
        rss = peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"parts": parts, "reps": reps, "errors": errors,
            "prime_s": prime_s, "peak_rss_mb": rss, "tracer": tracer}


def cycle_done(tracer, cycle: int, cycle_end: bool) -> bool:
    """Whether the run may stop here: every part has MIN_SAMPLES
    untraced repetitions, and a traced run has a complete traced
    cycle and may stop only between cycles."""
    if tracer is not None:
        return cycle >= 1 and cycle_end
    return cycle + cycle_end >= MIN_SAMPLES


def window_spent(args, spent: float, last: dict, following) -> bool:
    """Stop when one more repetition would end farther past
    ``--seconds`` than stopping now falls short of it."""
    return spent + last.get(following.name, 0.0) / 2 >= args.seconds


def medians(reps: list[dict], name: str) -> dict[str, float]:
    """Part name -> ``name`` per part: the median over each input
    draw's repetitions, averaged over the draws."""
    by_draw: dict[tuple, list[float]] = {}
    for rep in reps:
        by_draw.setdefault((rep["part"], rep["draw"]), []).append(rep[name])
    by_part: dict[str, list[float]] = {}
    for (part, _draw), values in by_draw.items():
        by_part.setdefault(part, []).append(statistics.median(values))
    return {part: statistics.fmean(v) for part, v in by_part.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_repro()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {sorted(workloads.WORKLOADS)}")
    from repro.vm.exec_tier import resolve_exec_tier
    from repro.warmstart import resolve_warmstart
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"exec_tier {resolve_exec_tier()} warm_start "
          f"{'on' if resolve_warmstart() else 'off'} workers 1")

    out = measure(args, workloads)
    reps, errors = out["reps"], out["errors"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    plain = [r for r in reps if not r["traced"]]
    setup = medians(plain, "setup_s")
    experiment = medians(plain, "experiment_s")
    setup_s = sum(setup.values()) + out["prime_s"]
    experiment_s = sum(experiment.values())
    for part in out["parts"]:
        samples = [r for r in plain if r["part"] == part.name]
        print(f"  {part.name}: setup_s {setup[part.name]:.3f} "
              f"experiment_s {experiment[part.name]:.3f} ("
              f"{len(samples)} samples, draw:seconds " + " ".join(
                  f"{r['draw']}:{r['experiment_s']:.3f}" for r in samples)
              + ")")
    print(f"setup_s {setup_s:.4f} s (sum of part medians + "
          f"{out['prime_s']:.3f} s store priming)")
    print(f"experiment_s {experiment_s:.4f} s (sum of part medians)")
    print(f"peak_rss_mb {out['peak_rss_mb']:.1f} MB")
    print(f"failed_ops_ratio {failed / max(1, attempted):.4f} "
          f"({failed} of {attempted} plans)")

    if errors:
        metrics = None
    elif args.trace:
        metrics = trace_metrics(out, experiment_s, args, errors)
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "experiment_s": {"value": experiment_s, "unit": "s"},
                   "peak_rss_mb": {"value": out["peak_rss_mb"],
                                   "unit": "MB"}}
    for message in errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    if errors:
        return 1
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def trace_metrics(out: dict, experiment_s: float, args,
                  errors: list[str]) -> dict:
    from tracing import COUNT_METRICS, LAYER_METRICS, run_metrics, summarize
    tracer = out["tracer"]
    traced = [r for r in out["reps"] if r["traced"]]
    per_run = []
    for run in sorted({r["run"] for r in traced}):
        cycle = [r for r in traced if r["run"] == run]
        per_run.append(run_metrics(tracer, run, {
            "served_plans": sum(r["served_profiled"][0] for r in cycle),
            "profile_dispatched_plans": sum(r["served_profiled"][1]
                                            for r in cycle)}))
    for name in COUNT_METRICS:
        values = {m[name] for m in per_run}
        if len(values) > 1:
            errors.append(f"{args.workload}: count {name} differs between "
                          f"traced cycles: {sorted(values)}")
    summary = summarize(per_run)
    traced_s = sum(medians(traced, "experiment_s").values())
    summary["bench.trace_overhead_s"] = traced_s - experiment_s
    path = WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.dump(str(path))
    print(f"spans {len(tracer.spans)} written to "
          f"{path.relative_to(ROOT)}")
    for name, value in summary.items():
        print(f"  {name} {value:.6g} {LAYER_METRICS[name]}")
    return {name: {"value": summary[name], "unit": LAYER_METRICS[name]}
            for name in LAYER_METRICS}


if __name__ == "__main__":
    sys.exit(main())
