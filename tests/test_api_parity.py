"""Spec path == legacy path, byte for byte; batches are one dispatch.

The acceptance contract of the declarative layer (docs/experiments.md):

* an ``Experiment`` covering a multi-region Fig. 5-style grid executes
  as a **single** batched ``run_shards`` dispatch per injection kind
  (counted at the backend seam), and
* its per-spec ``CampaignResult``s / pattern tables are byte-identical
  to the equivalent sequence of legacy one-target calls
  (``region_campaign`` / ``iteration_campaign`` /
  ``whole_program_campaign`` / ``region_patterns``) on a fresh
  tracker — on cg *and* kmeans.
"""

import pytest

from helpers import assert_canonical_match

from repro.api import (AnalysisSpec, CampaignSpec, Experiment,
                       ExperimentResult, run_experiment)
from repro.apps import REGISTRY
from repro.core import FlipTracker
from repro.engine.backends import LocalPoolBackend
from repro.faults.sites import NoFaultSitesError

SEED = 424242
N = 4


class CountingBackend(LocalPoolBackend):
    """Local backend that counts dispatches (= backend fan-outs)."""

    def __init__(self):
        super().__init__()
        self.dispatches = 0

    def run_shards(self, shards, max_instr):
        self.dispatches += 1
        return super().run_shards(shards, max_instr)


def fresh_tracker(app: str, backend=None) -> FlipTracker:
    return FlipTracker(REGISTRY.build(app), seed=SEED, backend=backend)


def grid_targets(ft: FlipTracker, limit: int = 3):
    """(region, kind) cells with drawable sites, like a Fig. 5 grid."""
    targets = []
    regions = [i for i in ft.instances()
               if i.index == 0 and i.region.kind == "loop"][:limit]
    for inst in regions:
        for kind in ("internal", "input"):
            try:
                ft.make_plans(inst, kind, 1)
            except NoFaultSitesError:
                continue
            targets.append((inst.region.name, kind))
    return targets


@pytest.mark.parametrize("app", ("cg", "kmeans"))
class TestSpecLegacyParity:
    def test_grid_parity_and_single_dispatch_per_kind(self, app):
        legacy_ft = fresh_tracker(app)
        targets = grid_targets(legacy_ft)
        assert len(targets) >= 3, f"{app}: grid too small to be a sweep"
        kinds = []
        for _region, kind in targets:
            if kind not in kinds:
                kinds.append(kind)

        specs = tuple(CampaignSpec(region=region, kind=kind, n=N)
                      for region, kind in targets) \
            + (AnalysisSpec(runs_per_kind=1),)
        experiment = Experiment(name=f"{app}-grid", apps=(app,),
                                specs=specs, seed=SEED)
        backend = CountingBackend()
        spec_ft = fresh_tracker(app, backend=backend)
        result = run_experiment(experiment,
                                tracker_factory=lambda _app: spec_ft)
        spec_ft.close()

        # --- single batched dispatch per kind (the whole grid), plus
        # one for the analysis spec ---------------------------------
        assert backend.dispatches == len(kinds) + 1

        # --- byte-identical to the equivalent legacy sequence --------
        # (grouped by kind in first-appearance order, spec order within
        # a kind — the documented dispatch order)
        legacy = {}
        for kind in kinds:
            for index, spec in enumerate(specs[:-1]):
                if spec.kind == kind:
                    legacy[index] = legacy_ft.region_campaign(
                        spec.region, spec.kind, n=N)
        legacy_patterns = legacy_ft.region_patterns(runs_per_kind=1)
        legacy_ft.close()

        for index, want in legacy.items():
            got = result.campaign(app, index)
            assert got == want, f"spec {index} diverged from legacy"
        assert result.patterns(app, len(specs) - 1) == legacy_patterns

        # the envelope round-trips with the parity-checked payload inside
        back = ExperimentResult.from_json(result.to_json())
        assert back.results == result.results
        assert_canonical_match(result, back, context=f"{app} round-trip")

    def test_iteration_and_whole_program_parity(self, app):
        specs = (CampaignSpec(target="iteration", iteration=0,
                              kind="internal", n=N),
                 CampaignSpec(target="whole_program", kind="internal",
                              n=N))
        experiment = Experiment(name=f"{app}-extra", apps=(app,),
                                specs=specs, seed=SEED)
        spec_ft = fresh_tracker(app)
        result = run_experiment(experiment,
                                tracker_factory=lambda _app: spec_ft)
        spec_ft.close()

        legacy_ft = fresh_tracker(app)
        want_iter = legacy_ft.iteration_campaign(0, "internal", n=N)
        want_whole = legacy_ft.whole_program_campaign("internal", n=N)
        legacy_ft.close()

        assert result.campaign(app, 0) == want_iter
        assert result.campaign(app, 1) == want_whole


class TestRunnerBehaviour:
    def test_app_pinned_specs_only_run_on_their_app(self):
        experiment = Experiment(
            name="pinned", apps=("kmeans",),
            specs=(CampaignSpec(region="k_d", kind="internal", n=2,
                                app="kmeans"),))
        result = run_experiment(experiment)
        assert [r.app for r in result.results] == ["kmeans"]
        assert result.campaign("kmeans", 0).total == 2

    def test_owned_trackers_are_closed(self):
        captured = []
        import repro.api.runner as runner_mod
        original = runner_mod._default_tracker

        def capturing(experiment, app):
            tracker = original(experiment, app)
            captured.append(tracker)
            return tracker

        runner_mod._default_tracker = capturing
        try:
            experiment = Experiment(
                name="owned", apps=("kmeans",),
                specs=(CampaignSpec(region="k_d", kind="internal", n=2),))
            run_experiment(experiment)
        finally:
            runner_mod._default_tracker = original
        assert len(captured) == 1
        assert captured[0]._engine is None  # closed after its dispatches

    def test_duplicate_specs_alias_not_reexecute(self):
        spec = CampaignSpec(region="k_d", kind="internal", n=3)
        experiment = Experiment(name="dup", apps=("kmeans",),
                                specs=(spec, spec), seed=SEED)
        result = run_experiment(experiment)
        first = result.campaign("kmeans", 0)
        second = result.campaign("kmeans", 1)
        # identical outcome counts; the second spec is served by
        # aliasing, exactly like a sequential caller hitting the cache
        assert (first.success, first.failed, first.crashed) == \
            (second.success, second.failed, second.crashed)
        assert first.executed == 3 and second.executed == 0
        assert second.cached == 3
        assert result.executed == 3 and result.cached == 3
