"""Self-test of the benchmark at tiny sizes (about three minutes).

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload at ``--size tiny`` untraced and traced, as the
benchmark's own command, and checks:

* the last output line is the result object with exactly the keys and
  metric names (with units) that ``BENCHMARK.json`` declares, all
  checks passed and no plan failed;
* the layers each workload bypasses read zero in the traced run;
* count metrics repeat exactly when a traced run is repeated at one
  seed;
* without ``src/repro`` (only ``BENCHMARK.json`` and ``perfbench/``)
  the command exits non-zero and prints no result.

Named ``selftest.py`` rather than ``test_*.py`` so the repository's
pytest run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from tracing import COUNT_METRICS

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

#: per-layer metrics that must read zero on a workload that bypasses them
BYPASSED = {
    "campaign": ("patterns.", "acl.build_s", "regions.split_s"),
    "analysis": ("warmstart.hits", "warmstart.saved_instr", "profiles.",
                 "recovery.", "regions.fingerprint_s"),
}
#: per-layer metrics that must be non-zero where the workload does the work
EXERCISED = {
    "campaign": ("vm.instr", "warmstart.hits", "faults.plans",
                 "engine.executed", "recovery.checks",
                 "recovery.ckpt_words", "profiles.served_plans",
                 "profiles.dispatched_plans", "regions.fingerprint_s",
                 "profiles.put_s"),
    "analysis": ("patterns.instances", "acl.build_s", "regions.split_s",
                 "vm.instr"),
}


def bench(cwd: Path, workload: str, seed: int, trace: int):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", "0", "--trace", str(trace),
                              "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n"
                             f"{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        (what, sorted(result))
    assert result["correct"] is True, what
    assert result["failed"] == 0 and result["attempted"] >= 1, \
        (what, result["attempted"], result["failed"])
    return result


def check_metrics(result: dict, declared: list, what: str) -> dict:
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, (what, sorted(set(got) ^ set(expected)))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    names = [w["name"] for w in BENCH["workloads"]]
    for workload in names:
        plain = result_of(bench(ROOT, workload, 1, 0), f"{workload} trace 0")
        values = check_metrics(plain, BENCH["end_to_end"], workload)
        assert all(v > 0 for v in values.values()), (workload, values)

        runs = [check_metrics(result_of(bench(ROOT, workload, 1, 1),
                                        f"{workload} trace 1"),
                              BENCH["per_layer"], workload)
                for _ in range(2)]
        layers = runs[0]
        for name, value in layers.items():
            if name.startswith(BYPASSED[workload]):
                assert value == 0, (workload, name, value)
        for name in EXERCISED[workload]:
            assert layers[name] > 0, (workload, name)
        # counts repeat exactly at one seed
        for name in COUNT_METRICS:
            assert runs[0][name] == runs[1][name], \
                (workload, name, runs[0][name], runs[1][name])
        print(f"ok {workload}: {plain['attempted']} plans, "
              f"experiment_s {values['experiment_s']:.3f}, "
              f"counts repeat")

    # without the program the benchmark must fail, and say nothing
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, names[0], 1, 0)
        assert proc.returncode != 0, "ran without src/repro"
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok fails without src/repro")
    return 0


if __name__ == "__main__":
    sys.exit(main())
