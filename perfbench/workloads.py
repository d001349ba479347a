"""The two benchmark workloads and the experiments ("parts") they run.

A workload is a fixed list of parts.  A part is one experiment a user
runs through the public ``repro.api.run_experiment`` path on freshly
built trackers: its timed *setup* builds the trackers (program build,
golden trace, trace index, region instances, recovery context, warm
ladder) and its timed *experiment* is the ``run_experiment`` call(s)
on them.  Fresh trackers per repetition matter: a reused engine serves
repetition 2 and later entirely from its plan cache.

Parts are small (one app, or one re-profile), so a run measures each
of them several times, interleaved, over the whole measuring window.
A seeded part has ``draws`` input draws (tracker seeds derived from the
run's seed) and alternates between them from one repetition to the
next: the run then times twice as many fault plans as one repetition
executes, which halves the variance the choice of seed adds.

Why each workload exists, and what it bypasses: ``perfbench/README.md``.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import time

from repro.api import (AnalysisSpec, CampaignSpec, Experiment, ProfileSpec,
                       RecoverySpec, run_experiment)
from repro.api.compile import compile_campaign, compile_recovery
from repro.apps import REGISTRY
from repro.core import FlipTracker
from repro.engine.keys import plan_key
from repro.faults.campaign import run_plan
from repro.recovery.run import run_recovery_plan

#: per-part sizes; ``tiny`` is what the self-test runs
SIZES = {
    "full": {"campaign_n": 4, "iteration_n": 4, "probe_bits": (0,),
             "recovery_n": 4, "profile_n": 4, "subsample": 4},
    "tiny": {"campaign_n": 1, "iteration_n": 1, "probe_bits": (20,),
             "recovery_n": 1, "profile_n": 1, "subsample": 1},
}

RECOVERY_POLICIES = ("abort", "rollback", "recompute-region",
                     "forward-correct")
PROFILE_VARIANTS = (("kmeans", {"variant": "tuned"}),
                    ("cg", {"variant": "truncation"}),
                    ("cg", {"variant": "dcl_overwrite"}))
#: tracker seed of draw ``d`` is ``seed + d * DRAW_STRIDE``
DRAW_STRIDE = 1_000_003


def build_tracker(app: str, seed: int, **params) -> FlipTracker:
    """A fresh tracker with everything a user pays before the first plan."""
    tracker = FlipTracker(REGISTRY.build(app, **params), seed=seed,
                          workers=1)
    tracker.fault_free_trace()
    tracker.trace_index()
    tracker.instances()
    tracker.recovery_context()
    tracker.warm_ladder()
    return tracker


def served_value(tracker: FlipTracker, plan):
    """The value the tracker's engine cached for ``plan``."""
    engine = tracker.engine
    return engine.cache.get(plan_key(engine.program_fp, plan,
                                     tracker.faulty_budget))


class Part:
    """One experiment of a workload: setup, timed experiment, checks."""

    kind = ""
    #: input draws the repetitions alternate between
    draws = 1

    def __init__(self, apps: tuple, seed: int, size: dict, workdir: str):
        self.apps = apps
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.name = f"{self.kind}:" + "+".join(app for app, _ in apps)

    # ------------------------------------------------------------ phases
    def prepare(self) -> float:
        """Untimed warm-up: set up once and discard it (module-level
        caches such as cg's reference value make only the first build
        expensive) after building the experiment from its trackers.
        Returns set-up time that is paid once per run and belongs in
        ``setup_s``."""
        state = self.setup(0)
        try:
            self.spec = self.build_spec(state["trackers"])
        finally:
            self.teardown(state)
        return 0.0

    def build_spec(self, trackers: dict) -> Experiment:
        raise NotImplementedError

    def draw_seed(self, draw: int) -> int:
        return self.seed + draw * DRAW_STRIDE

    def setup(self, draw: int) -> dict:
        seed = self.draw_seed(draw)
        return {"seed": seed,
                "trackers": {app: build_tracker(app, seed, **params)
                             for app, params in self.apps}}

    def experiment(self, state: dict) -> list:
        trackers = state["trackers"]
        return [run_experiment(self.spec, tracker_factory=trackers.get)]

    def check(self, state: dict, results: list) -> list[str]:
        """Per-repetition output checks (cheap); returns error strings."""
        return []

    def final_check(self, state: dict, results: list) -> list[str]:
        """Once-per-run checks that run more plans (outside timing)."""
        return []

    def teardown(self, state: dict) -> None:
        for tracker in state["trackers"].values():
            tracker.close()


class GridPart(Part):
    """Fig. 5 loop-region grid plus the Fig. 6 iteration sweep."""

    kind = "grid"
    draws = 2

    def build_spec(self, trackers):
        specs = []
        for app, tracker in trackers.items():
            for inst in tracker.instances():
                if inst.index != 0 or inst.region.kind != "loop":
                    continue
                for kind in ("input", "internal"):
                    specs.append(CampaignSpec(
                        app=app, region=inst.region.name, kind=kind,
                        n=self.size["campaign_n"]))
            for i in range(len(tracker.main_loop_iterations())):
                specs.append(CampaignSpec(
                    app=app, target="iteration", iteration=i,
                    kind="internal", n=self.size["iteration_n"]))
        return Experiment(name="bench-grid", apps=tuple(trackers),
                          specs=tuple(specs), seed=self.seed)

    def final_check(self, state, results):
        """Re-run a deterministic plan subsample cold on the compiled
        tier and compare manifestations with the engine's results."""
        errors = []
        rng = random.Random(state["seed"])
        for app, tracker in state["trackers"].items():
            plans = [plan for spec in self.spec.specs if spec.app == app
                     for plan in compile_campaign(tracker, spec)[1]]
            for plan in rng.sample(plans, min(len(plans),
                                              self.size["subsample"])):
                served = served_value(tracker, plan)
                cold = run_plan(tracker.program, plan,
                                max_instr=tracker.faulty_budget,
                                exec_tier="compiled").value
                if served != cold:
                    errors.append(f"grid {app}: plan {plan} gave "
                                  f"{served!r} warm/interp but {cold!r} "
                                  f"cold/compiled")
        return errors


class ProbePart(Part):
    """Table I's traced probe analyses."""

    kind = "probe"

    def build_spec(self, trackers):
        # Table I's directed probes: bit 0 exercises shift, integer
        # truncation and conditional masking, bit 20 float truncation
        # (the tiny size's cheaper stratum)
        return Experiment(
            name="bench-analysis", apps=tuple(trackers),
            specs=(AnalysisSpec(runs_per_kind=0, loop_only=True,
                                probe_sites=1,
                                probe_bits=self.size["probe_bits"]),),
            seed=self.seed)

    def check(self, state, results):
        if "cg" not in state["trackers"]:
            return []
        table = results[0].patterns("cg", 0)
        if not any(table.values()):
            return ["probe: the cg pattern table is empty"]
        return []


class RecoveryPart(Part):
    """A recovery sweep: four policies plus a checkpointing variant."""

    kind = "recovery"
    draws = 2

    def build_spec(self, trackers):
        n = self.size["recovery_n"]
        specs = tuple(RecoverySpec(policy=policy, detector="checksum",
                                   kind="internal", n=n)
                      for policy in RECOVERY_POLICIES)
        specs += (RecoverySpec(policy="rollback", detector="invariant",
                               kind="internal", n=n, checkpoint_every=2),)
        return Experiment(name="bench-recovery", apps=tuple(trackers),
                          specs=specs, seed=self.seed)

    def check(self, state, results):
        """The four final states partition each region's protected runs
        (as many as the spec compiles to)."""
        errors = []
        for sr in results[0].spec_results():
            tracker = state["trackers"][sr.app]
            spec = self.spec.specs[sr.index]
            expected = {region: len(plans) for region, _label, plans
                        in compile_recovery(tracker, spec)}
            got = {}
            for region in sr.recovery["regions"]:
                c = region["counts"]
                got[region["region"]] = (c["success"] + c["failed"]
                                         + c["crashed"] + c["aborted"])
            if got != expected:
                errors.append(f"recovery {sr.label}: final states per "
                              f"region {got}, protected runs {expected}")
        return errors

    def final_check(self, state, results):
        """Re-run a deterministic subsample of protected runs cold on
        the compiled tier and compare outcomes with the engine's."""
        errors = []
        rng = random.Random(state["seed"])
        for app, tracker in state["trackers"].items():
            plans = [plan for spec in self.spec.specs
                     for _region, _label, group in
                     compile_recovery(tracker, spec) for plan in group]
            for plan in rng.sample(plans, min(len(plans),
                                              self.size["subsample"])):
                served = served_value(tracker, plan)
                cold = run_recovery_plan(tracker, plan,
                                         exec_tier="compiled",
                                         warm_start=False)
                if served != cold:
                    errors.append(f"recovery {app}: plan {plan} gave "
                                  f"{served!r} warm/interp but {cold!r} "
                                  f"cold/compiled")
        return errors


class ReprofilePart(Part):
    """Incremental re-profiles of edited variants against a primed
    profile store."""

    kind = "reprofile"

    def __init__(self, seed: int, size: dict, workdir: str):
        super().__init__(PROFILE_VARIANTS, seed, size, workdir)

    def _specs(self):
        n = self.size["profile_n"]
        return (ProfileSpec(kind="internal", n=n),
                ProfileSpec(kind="input", n=n))

    def prepare(self) -> float:
        for app in ("kmeans", "cg"):
            REGISTRY.build(app)     # warm module-level caches
        self.primed = os.path.join(self.workdir, "primed-store")
        start = time.perf_counter()
        trackers = {app: build_tracker(app, self.seed)
                    for app in ("kmeans", "cg")}
        try:
            run_experiment(Experiment(
                name="bench-prime", apps=("kmeans", "cg"),
                specs=self._specs(), seed=self.seed,
                store_dir=self.primed), tracker_factory=trackers.get)
        finally:
            for tracker in trackers.values():
                tracker.close()
        prime_s = time.perf_counter() - start
        # priming already warmed the process; the variants' first
        # builds still fill their module-level caches
        for app, params in self.apps:
            REGISTRY.build(app, **params)
        self.spec = [Experiment(name=f"bench-reprofile-{i}", apps=(app,),
                                specs=self._specs(), seed=self.seed,
                                incremental=True)
                     for i, (app, _params) in enumerate(self.apps)]
        return prime_s

    def setup(self, draw: int):
        # one draw (the primed store holds the run seed's profiles);
        # each repetition writes to its own copy of the primed store
        store = os.path.join(self.workdir, "rep-store")
        shutil.rmtree(store, ignore_errors=True)
        shutil.copytree(self.primed, store)
        trackers = [build_tracker(app, self.seed, **params)
                    for app, params in self.apps]
        return {"seed": self.seed, "trackers": dict(enumerate(trackers)),
                "store": store}

    def experiment(self, state):
        results = []
        for i, spec in enumerate(self.spec):
            tracker = state["trackers"][i]
            spec = dataclasses.replace(spec, store_dir=state["store"])
            results.append(run_experiment(
                spec, tracker_factory=lambda _app, t=tracker: t))
        return results

    def final_check(self, state, results):
        """Re-injected regions match a store-less run of the variant."""
        errors = []
        n = self.size["profile_n"]
        for i, ((app, params), result) in enumerate(zip(self.apps,
                                                        results)):
            redone = []
            for sr in result.spec_results():
                for region in sr.profile["regions"]:
                    if sr.profile["sources"][region["region"]]["source"] \
                            == "dispatch":
                        redone.append((sr.profile["kind"], region))
            if not redone:
                continue
            tracker = build_tracker(app, self.seed, **params)
            try:
                scratch = run_experiment(Experiment(
                    name="bench-storeless", apps=(app,), seed=self.seed,
                    specs=tuple(CampaignSpec(region=r["region"], kind=kind,
                                             n=n)
                                for kind, r in redone)),
                    tracker_factory=lambda _app: tracker)
            finally:
                tracker.close()
            for (kind, region), sr in zip(redone, scratch.spec_results()):
                c = sr.campaign
                got = {"success": c.success, "failed": c.failed,
                       "crashed": c.crashed, "hung": 0}
                if region["counts"] != got:
                    errors.append(
                        f"reprofile {app}{params}: {region['region']}/"
                        f"{kind} counts {region['counts']} differ from "
                        f"store-less {got}")
        return errors

    def teardown(self, state):
        super().teardown(state)
        shutil.rmtree(state["store"], ignore_errors=True)


def campaign_parts(seed: int, size: dict, workdir: str) -> list[Part]:
    """Untraced work: the Fig. 5/6 grid on cg and lulesh, a recovery
    sweep on kmeans and incremental re-profiles."""
    return [GridPart((("cg", {}),), seed, size, workdir),
            RecoveryPart((("kmeans", {}),), seed, size, workdir),
            GridPart((("lulesh", {}),), seed, size, workdir),
            ReprofilePart(seed, size, workdir)]


def analysis_parts(seed: int, size: dict, workdir: str) -> list[Part]:
    """Traced work: Table I probe analyses on cg and lulesh."""
    return [ProbePart((("cg", {}),), seed, size, workdir),
            ProbePart((("lulesh", {}),), seed, size, workdir)]


WORKLOADS = {"campaign": campaign_parts, "analysis": analysis_parts}
