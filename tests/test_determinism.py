"""Engine determinism suite (the tentpole's shipping contract).

Identical plans must yield identical campaign results regardless of
worker count **and regardless of execution backend**, and a
cache-resumed campaign must reproduce the fresh run byte-for-byte
while performing **zero** new faulty runs.  Checked across three
studied apps (cg, kmeans, lulesh) for ``region_campaign`` and on
kmeans for the traced ``region_patterns`` sweep (cg/lulesh pattern
sweeps take minutes; the campaign path exercises the identical
pool/shard machinery for them).  Traced analyses are plans on the same
``run`` path as campaigns, so ``TestAnalysisBackendParity`` locks their
byte-parity across backends too, and the kmeans cache-resume tests
check that spilled pattern tables resume like any outcome.

The backend-parity classes run for every backend named in
``REPRO_PARITY_BACKENDS`` (comma-separated; default
``local,async,socket``) — CI's ``backend-parity`` matrix sets it to
one backend per job.

"Byte-identical" is enforced by comparing a canonical JSON
serialization of the outcome payload — not object equality, which
could mask ordering differences.
"""

import json
import os

import pytest

from repro.apps import REGISTRY
from repro.core import FlipTracker
from repro.engine.backends import AsyncBackend, ShardServer, SocketBackend
from repro.recovery import RecoveryPlan

APPS = ("cg", "kmeans", "lulesh")
#: apps whose cache-resume case also spills and resumes pattern tables
TRACED_APPS = ("kmeans",)
SEED = 20181111
N = 8

PARITY_BACKENDS = tuple(
    name.strip()
    for name in os.environ.get("REPRO_PARITY_BACKENDS",
                               "local,async,socket").split(",")
    if name.strip())

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="worker pools need fork here")


def outcome_bytes(result) -> bytes:
    """Canonical serialization of what a campaign *measured* (counts,
    label), excluding provenance fields like executed/cached that
    legitimately differ between a fresh and a resumed run."""
    return json.dumps({
        "label": result.label, "success": result.success,
        "failed": result.failed, "crashed": result.crashed,
        "total": result.total,
    }, sort_keys=True).encode()


def patterns_bytes(found: dict) -> bytes:
    return json.dumps({region: sorted(pats)
                       for region, pats in sorted(found.items())},
                      sort_keys=True).encode()


def first_loop_region(ft) -> str:
    return next(i for i in ft.instances()
                if i.region.kind == "loop" and i.index == 0).region.name


@pytest.mark.parametrize("app", APPS)
class TestWorkerCountInvariance:
    def test_region_campaign_w1_equals_w4(self, app):
        with FlipTracker(REGISTRY.build(app), seed=SEED, workers=1) as w1, \
                FlipTracker(REGISTRY.build(app), seed=SEED,
                            workers=4) as w4:
            region = first_loop_region(w1)
            r1 = w1.region_campaign(region, "internal", n=N)
            r4 = w4.region_campaign(region, "internal", n=N)
            assert outcome_bytes(r1) == outcome_bytes(r4)

    def test_fresh_vs_cache_resumed(self, app, tmp_path):
        cache_dir = str(tmp_path / app)
        with FlipTracker(REGISTRY.build(app), seed=SEED, workers=1,
                         cache_dir=cache_dir) as fresh:
            region = first_loop_region(fresh)
            r_fresh = fresh.region_campaign(region, "internal", n=N)
        with FlipTracker(REGISTRY.build(app), seed=SEED, workers=1,
                         cache_dir=cache_dir) as resumed:
            r_resumed = resumed.region_campaign(region, "internal", n=N)
        assert outcome_bytes(r_fresh) == outcome_bytes(r_resumed)
        assert r_fresh.executed > 0
        assert r_resumed.executed == 0  # zero new faulty runs
        assert r_resumed.cached == N


#: per-app sequential (workers=1, local) baseline, computed once:
#: {app: (region, outcome_bytes)}
_SEQ_BASELINE: dict = {}


def sequential_baseline(app):
    if app not in _SEQ_BASELINE:
        with FlipTracker(REGISTRY.build(app), seed=SEED, workers=1) as ft:
            region = first_loop_region(ft)
            result = ft.region_campaign(region, "internal", n=N)
            _SEQ_BASELINE[app] = (region, outcome_bytes(result))
    return _SEQ_BASELINE[app]


def make_backend(backend_name, app):
    """Backend instance (+ server to stop, for socket) for one app."""
    if backend_name == "socket":
        server = ShardServer(REGISTRY.build(app), port=0).start()
        return SocketBackend([("127.0.0.1", server.port)],
                             fallback=False), server
    if backend_name == "async":
        return AsyncBackend(), None
    if backend_name == "local":
        return "local", None
    raise ValueError(f"unknown parity backend {backend_name!r}")


@pytest.mark.parametrize("backend_name", PARITY_BACKENDS)
@pytest.mark.parametrize("app", APPS)
class TestBackendParity:
    """Every backend is byte-identical to the sequential engine.

    ``shard_size=2`` forces several shards per campaign so the async
    and socket backends exercise out-of-order completion + in-order
    reassembly, not just a single round-trip.
    """

    def test_campaign_matches_sequential(self, app, backend_name):
        region, baseline = sequential_baseline(app)
        backend, server = make_backend(backend_name, app)
        try:
            with FlipTracker(REGISTRY.build(app), seed=SEED, workers=4,
                             shard_size=2, backend=backend) as ft:
                result = ft.region_campaign(region, "internal", n=N)
        finally:
            if server is not None:
                server.stop()
        assert outcome_bytes(result) == baseline
        assert result.details["backend"] == backend_name

    def test_fresh_vs_cache_resumed(self, app, backend_name, tmp_path):
        cache_dir = str(tmp_path / app)
        backend, server = make_backend(backend_name, app)
        try:
            with FlipTracker(REGISTRY.build(app), seed=SEED, workers=2,
                             shard_size=2, backend=backend,
                             cache_dir=cache_dir) as fresh:
                region = first_loop_region(fresh)
                r_fresh = fresh.region_campaign(region, "internal", n=N)
                # traced runs on kmeans only: on cg/lulesh each takes
                # seconds and pins a server-side tracker for the session
                traced = (fresh.make_plans(fresh.instance_of(region),
                                           "input", 2)
                          if app in TRACED_APPS else [])
                t_fresh = fresh._analyze_many(traced)
                t_executed = fresh.engine.executed
        finally:
            if server is not None:
                server.stop()
        # resume on the plain local engine: the spill written by any
        # backend must serve any other backend — pattern tables too
        with FlipTracker(REGISTRY.build(app), seed=SEED, workers=1,
                         cache_dir=cache_dir) as resumed:
            r_resumed = resumed.region_campaign(region, "internal", n=N)
            t_resumed = resumed._analyze_many(traced)
            assert resumed.engine.executed == 0  # zero new faulty runs
        assert outcome_bytes(r_fresh) == outcome_bytes(r_resumed)
        assert r_fresh.executed > 0
        assert r_resumed.executed == 0
        assert r_resumed.cached == N
        if traced:
            assert t_executed > r_fresh.executed  # the traced runs happened
        assert [patterns_bytes(t) for t in t_fresh] == \
            [patterns_bytes(t) for t in t_resumed]


#: sequential (workers=1, local) kmeans traced-sweep baseline bytes
_PATTERNS_BASELINE: dict = {}


def patterns_baseline() -> bytes:
    if "kmeans" not in _PATTERNS_BASELINE:
        with FlipTracker(REGISTRY.build("kmeans"), seed=SEED,
                         workers=1) as ft:
            _PATTERNS_BASELINE["kmeans"] = patterns_bytes(
                ft.region_patterns(runs_per_kind=1, loop_only=True))
    return _PATTERNS_BASELINE["kmeans"]


@pytest.mark.parametrize("backend_name", PARITY_BACKENDS)
class TestAnalysisBackendParity:
    """Traced analyses are byte-identical across every backend.

    ``region_patterns`` dispatches analysis plans through the engine's
    backend (pattern tables travel as sorted lists — see
    ``docs/protocol.md``); ``shard_size=2`` forces several analysis
    shards so out-of-order completion + in-order reassembly is
    exercised, exactly as in the campaign parity class.
    """

    def test_region_patterns_matches_sequential(self, backend_name):
        baseline = patterns_baseline()
        backend, server = make_backend(backend_name, "kmeans")
        try:
            with FlipTracker(REGISTRY.build("kmeans"), seed=SEED,
                             workers=4, shard_size=2,
                             backend=backend) as ft:
                found = ft.region_patterns(runs_per_kind=1,
                                           loop_only=True)
        finally:
            if server is not None:
                server.stop()
        assert patterns_bytes(found) == baseline
        assert any(found.values())  # the sweep saw at least one pattern

    def test_analysis_by_product_warms_campaign_cache(self, backend_name):
        """Traced shards cache manifestations: an untraced campaign over
        the same plans afterwards performs zero new faulty runs, on
        every backend."""
        backend, server = make_backend(backend_name, "kmeans")
        try:
            with FlipTracker(REGISTRY.build("kmeans"), seed=SEED,
                             workers=2, shard_size=2,
                             backend=backend) as ft:
                region = first_loop_region(ft)
                inst = ft.instance_of(region)
                plans = ft.make_plans(inst, "internal", 4)
                ft._analyze_many(plans)
                result = ft.engine.run_plans(plans,
                                             max_instr=ft.faulty_budget)
        finally:
            if server is not None:
                server.stop()
        assert result.details["executed"] == 0
        assert result.details["cached"] == 4


#: per-app explicitly-interpreted baseline for the tier-parity class:
#: {app: (region, outcome_bytes)}.  Pinned to ``exec_tier="interp"`` so
#: the comparison stays interp-vs-compiled even when the CI tier matrix
#: sets ``REPRO_EXEC=compiled`` for the whole process.
_TIER_BASELINE: dict = {}


def interp_baseline(app):
    if app not in _TIER_BASELINE:
        with FlipTracker(REGISTRY.build(app), seed=SEED, workers=1,
                         exec_tier="interp") as ft:
            region = first_loop_region(ft)
            result = ft.region_campaign(region, "internal", n=N)
            _TIER_BASELINE[app] = (region, outcome_bytes(result))
    return _TIER_BASELINE[app]


@pytest.mark.parametrize("app", APPS)
class TestExecTierParity:
    """The compiled execution tier is byte-identical to the interpreter
    through the whole engine stack (the ``exec_tier`` / ``REPRO_EXEC``
    axis): same campaign outcomes, and a spill written under one tier
    resumes under the other with zero new faulty runs — plan keys are
    tier-independent precisely because the tiers are observably
    identical."""

    def test_campaign_matches_interp(self, app):
        region, baseline = interp_baseline(app)
        with FlipTracker(REGISTRY.build(app), seed=SEED, workers=2,
                         shard_size=2, exec_tier="compiled") as ft:
            result = ft.region_campaign(region, "internal", n=N)
            assert ft.engine.stats()["exec_tier"] == "compiled"
        assert outcome_bytes(result) == baseline

    def test_compiled_cache_resumes_on_interp(self, app, tmp_path):
        cache_dir = str(tmp_path / app)
        region, baseline = interp_baseline(app)
        with FlipTracker(REGISTRY.build(app), seed=SEED, workers=1,
                         cache_dir=cache_dir,
                         exec_tier="compiled") as fresh:
            r_fresh = fresh.region_campaign(region, "internal", n=N)
        with FlipTracker(REGISTRY.build(app), seed=SEED, workers=1,
                         cache_dir=cache_dir,
                         exec_tier="interp") as resumed:
            r_resumed = resumed.region_campaign(region, "internal", n=N)
        assert outcome_bytes(r_fresh) == baseline
        assert outcome_bytes(r_resumed) == baseline
        assert r_fresh.executed > 0
        assert r_resumed.executed == 0  # zero new faulty runs
        assert r_resumed.cached == N


class TestExecTierAnalysisParity:
    def test_kmeans_patterns_match_interp(self):
        with FlipTracker(REGISTRY.build("kmeans"), seed=SEED, workers=1,
                         exec_tier="interp") as ft:
            baseline = patterns_bytes(
                ft.region_patterns(runs_per_kind=1, loop_only=True))
        with FlipTracker(REGISTRY.build("kmeans"), seed=SEED, workers=1,
                         exec_tier="compiled") as ft:
            found = ft.region_patterns(runs_per_kind=1, loop_only=True)
        assert patterns_bytes(found) == baseline
        assert any(found.values())  # the sweep saw at least one pattern


class TestRegionPatternsInvariance:
    def test_kmeans_patterns_w1_equals_w4(self):
        with FlipTracker(REGISTRY.build("kmeans"), seed=SEED,
                         workers=1) as w1, \
                FlipTracker(REGISTRY.build("kmeans"), seed=SEED,
                            workers=4) as w4:
            p1 = w1.region_patterns(runs_per_kind=1, loop_only=True)
            p4 = w4.region_patterns(runs_per_kind=1, loop_only=True)
            assert patterns_bytes(p1) == patterns_bytes(p4)
            assert any(p1.values())  # the sweep saw at least one pattern

    def test_shard_size_does_not_change_outcomes(self):
        with FlipTracker(REGISTRY.build("kmeans"), seed=SEED, workers=1,
                         shard_size=3) as small, \
                FlipTracker(REGISTRY.build("kmeans"), seed=SEED,
                            workers=1, shard_size=64) as big:
            region = first_loop_region(small)
            r_small = small.region_campaign(region, "internal", n=10)
            r_big = big.region_campaign(region, "internal", n=10)
            assert outcome_bytes(r_small) == outcome_bytes(r_big)
            assert r_small.details["shards"] > r_big.details["shards"]


# ---------------------------------------------------------------- recovery
def recovery_bytes(result) -> bytes:
    """Canonical serialization of a RecoveryResult's measured counts."""
    return json.dumps({"label": result.label, **result.counts()},
                      sort_keys=True).encode()


def run_recovery_group(ft, n=N):
    """One protected plan group through the engine's batch seam."""
    region = first_loop_region(ft)
    plans = [RecoveryPlan(fault=fault) for fault
             in ft.make_plans(ft.instance_of(region), "internal", n)]
    (result,) = ft.engine.run_plan_groups(
        [(f"recover/{region}", plans)], max_instr=ft.faulty_budget)
    return result


#: per-app sequential (workers=1, local) recovery baseline bytes
_RECOVERY_SEQ: dict = {}


def recovery_sequential_baseline(app) -> bytes:
    if app not in _RECOVERY_SEQ:
        with FlipTracker(REGISTRY.build(app), seed=SEED,
                         workers=1) as ft:
            _RECOVERY_SEQ[app] = recovery_bytes(run_recovery_group(ft))
    return _RECOVERY_SEQ[app]


@pytest.mark.parametrize("app", APPS)
class TestRecoveryWorkerInvariance:
    """Protected runs inherit every campaign determinism guarantee: the
    RecoveryContext is a pure function of the program (each worker
    derives the identical one) and outcomes travel as canonical encoded
    strings, so counts are byte-identical whatever the worker count."""

    def test_recovery_w1_equals_w4(self, app):
        baseline = recovery_sequential_baseline(app)
        with FlipTracker(REGISTRY.build(app), seed=SEED,
                         workers=4, shard_size=2) as w4:
            assert recovery_bytes(run_recovery_group(w4)) == baseline


@pytest.mark.parametrize("backend_name", PARITY_BACKENDS)
@pytest.mark.parametrize("app", APPS)
class TestRecoveryBackendParity:
    """Every backend substrate (fork pool, async protocol workers, TCP
    shard servers) yields byte-identical recovery counts — each remote
    end rebuilds the same RecoveryContext from the same program."""

    def test_recovery_matches_sequential(self, app, backend_name):
        baseline = recovery_sequential_baseline(app)
        backend, server = make_backend(backend_name, app)
        try:
            with FlipTracker(REGISTRY.build(app), seed=SEED, workers=4,
                             shard_size=2, backend=backend) as ft:
                result = run_recovery_group(ft)
        finally:
            if server is not None:
                server.stop()
        assert recovery_bytes(result) == baseline
        assert result.details["backend"] == backend_name


class TestRecoveryCacheResume:
    def test_fresh_vs_cache_resumed(self, tmp_path):
        cache_dir = str(tmp_path / "kmeans")
        with FlipTracker(REGISTRY.build("kmeans"), seed=SEED, workers=1,
                         cache_dir=cache_dir) as fresh:
            r_fresh = run_recovery_group(fresh)
        with FlipTracker(REGISTRY.build("kmeans"), seed=SEED, workers=1,
                         cache_dir=cache_dir) as resumed:
            r_resumed = run_recovery_group(resumed)
        assert recovery_bytes(r_fresh) == recovery_bytes(r_resumed)
        assert r_fresh.executed > 0
        assert r_resumed.executed == 0  # zero new protected runs
        assert r_resumed.cached == N


#: per-app explicitly-interpreted recovery baseline bytes
_RECOVERY_TIER: dict = {}


def recovery_interp_baseline(app) -> bytes:
    if app not in _RECOVERY_TIER:
        with FlipTracker(REGISTRY.build(app), seed=SEED, workers=1,
                         exec_tier="interp") as ft:
            _RECOVERY_TIER[app] = recovery_bytes(run_recovery_group(ft))
    return _RECOVERY_TIER[app]


@pytest.mark.parametrize("app", APPS)
class TestRecoveryExecTierParity:
    """Recovery outcomes are byte-identical across exec tiers — the
    strongest tier-parity claim in the repo, since protected runs
    exercise run_to stops, snapshot/restore rewinds and mid-block
    resume on the compiled tier (its interpreter-window fallback)."""

    def test_recovery_matches_interp(self, app):
        baseline = recovery_interp_baseline(app)
        with FlipTracker(REGISTRY.build(app), seed=SEED, workers=2,
                         shard_size=2, exec_tier="compiled") as ft:
            result = run_recovery_group(ft)
            assert ft.engine.stats()["exec_tier"] == "compiled"
        assert recovery_bytes(result) == baseline


# --------------------------------------------------------------- warm-start
#: per-app explicitly-cold baseline for the warm-start parity class:
#: {app: (region, outcome_bytes)}.  Pinned to ``warm_start="off"`` so
#: the comparison stays warm-vs-cold even when the CI matrix sets
#: ``REPRO_WARMSTART=on`` for the whole process.
_WARM_BASELINE: dict = {}


def cold_baseline(app):
    if app not in _WARM_BASELINE:
        with FlipTracker(REGISTRY.build(app), seed=SEED, workers=1,
                         warm_start="off") as ft:
            region = first_loop_region(ft)
            result = ft.region_campaign(region, "internal", n=N)
            _WARM_BASELINE[app] = (region, outcome_bytes(result))
    return _WARM_BASELINE[app]


@pytest.mark.parametrize("app", APPS)
class TestWarmStartParity:
    """The snapshot-ladder warm start is byte-identical to cold
    full-prefix re-execution through the whole engine stack (the
    ``warm_start`` / ``REPRO_WARMSTART`` axis): same campaign
    outcomes, and a spill written under one setting resumes under the
    other with zero new faulty runs — plan keys are warm-start
    independent precisely because the settings are observably
    identical."""

    def test_campaign_matches_cold(self, app):
        region, baseline = cold_baseline(app)
        with FlipTracker(REGISTRY.build(app), seed=SEED, workers=2,
                         shard_size=2, warm_start="on") as ft:
            result = ft.region_campaign(region, "internal", n=N)
            assert ft.engine.stats()["warm_start"] is True
        assert outcome_bytes(result) == baseline

    def test_compiled_warm_matches_cold(self, app):
        region, baseline = cold_baseline(app)
        with FlipTracker(REGISTRY.build(app), seed=SEED, workers=2,
                         shard_size=2, exec_tier="compiled",
                         warm_start="on") as ft:
            result = ft.region_campaign(region, "internal", n=N)
        assert outcome_bytes(result) == baseline

    def test_warm_cache_resumes_cold(self, app, tmp_path):
        cache_dir = str(tmp_path / app)
        region, baseline = cold_baseline(app)
        with FlipTracker(REGISTRY.build(app), seed=SEED, workers=1,
                         cache_dir=cache_dir, warm_start="on") as fresh:
            r_fresh = fresh.region_campaign(region, "internal", n=N)
        with FlipTracker(REGISTRY.build(app), seed=SEED, workers=1,
                         cache_dir=cache_dir, warm_start="off") as resumed:
            r_resumed = resumed.region_campaign(region, "internal", n=N)
        assert outcome_bytes(r_fresh) == baseline
        assert outcome_bytes(r_resumed) == baseline
        assert r_fresh.executed > 0
        assert r_resumed.executed == 0  # zero new faulty runs
        assert r_resumed.cached == N


class TestRecoveryWarmStartParity:
    """Rung-sourced periodic checkpoints never change a recovery
    outcome byte — counters (checkpoint_words, re_executed) included,
    because a ladder rung at a boundary carries the identical golden
    state a fresh snapshot would copy."""

    @pytest.mark.parametrize("app", APPS)
    def test_recovery_matches_cold(self, app):
        with FlipTracker(REGISTRY.build(app), seed=SEED, workers=1,
                         warm_start="off") as cold:
            baseline = recovery_bytes(run_recovery_group(cold))
        with FlipTracker(REGISTRY.build(app), seed=SEED, workers=2,
                         shard_size=2, warm_start="on") as warm:
            result = run_recovery_group(warm)
        assert recovery_bytes(result) == baseline
