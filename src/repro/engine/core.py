"""The :class:`ExecutionEngine`: cache + shards + pluggable backends.

See the package docstring for the architecture.  The engine is the one
place faulty runs happen; :func:`repro.faults.campaign.run_campaign`
and every :class:`~repro.core.FlipTracker` campaign/analysis method
delegate here.

Where a shard *executes* is a :class:`~repro.engine.backends.Backend`
(``local`` process pool, ``async`` event-loop fan-out, ``socket``
remote shard servers — see :mod:`repro.engine.backends`) behind its one
shard operation, :meth:`~repro.engine.backends.Backend.run_shards`.
Every plan kind rides it: untraced campaign plans
(:meth:`ExecutionEngine.run_plans`), protected recovery plans, and
traced pattern analyses (:meth:`ExecutionEngine.analyze_plans`, which
dispatches :class:`~repro.patterns.plan.AnalysisPlan` wrappers).  The
engine keeps sole ownership of the :class:`PlanCache`, shard boundaries
and plan-order assembly, so every backend inherits the determinism
contract for free.

Determinism: plan order — never worker arrival order — decides how
results are assembled, shard boundaries depend only on the pending
count and ``shard_size``, and cache keys are content-addressed
(:mod:`repro.engine.keys`), so a campaign's result is a pure function
of (program, plans, budget) regardless of ``workers`` *or* backend.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Sequence

from repro.engine.cache import PlanCache
from repro.engine.errors import EngineError
from repro.engine.keys import encode_plan, plan_key, program_fingerprint
from repro.engine.progress import ProgressCallback, ProgressEvent
from repro.patterns.plan import AnalysisPlan, decode_analysis
from repro.vm.fault import FaultPlan

__all__ = ["ExecutionEngine", "EngineError"]


class ExecutionEngine:
    """Runs fault plans for one program, with caching and sharding.

    Parameters
    ----------
    program:
        The built program every plan executes against.
    workers:
        Process count; ``None`` auto-selects ``min(4, cores)``; ``<=1``
        runs sequentially in-process (local backend).
    cache / cache_dir / resume:
        Either pass a shared :class:`PlanCache` or let the engine own
        one (optionally disk-backed at ``cache_dir``; ``resume=False``
        ignores pre-existing spill entries but still appends).
    shard_size:
        Pending plans are executed in shards of this size; each
        finished shard is durable in the cache (checkpoint granularity)
        and emits one :class:`ProgressEvent`.
    min_parallel:
        Smallest pending batch worth fanning out to the pool
        (local backend only).
    backend:
        Shard-execution substrate: a name (``"local"``, ``"async"``,
        ``"socket"``), a pre-built
        :class:`~repro.engine.backends.Backend` instance, or ``None``
        for local.  See :mod:`repro.engine.backends`.
    backend_addr:
        Shard-server address(es) for ``backend="socket"``
        (``"host:port"`` or ``"h1:p1,h2:p2"``; ignored otherwise).
    registry:
        Service-registry address (``"host:port"``) or resolver object
        for registry-resolved shard placement; implies
        ``backend="socket"`` when ``backend`` is ``None``.  Mutually
        exclusive with ``backend_addr``.  See :mod:`repro.service`.
    exec_tier:
        VM execution tier for faulty runs (``"interp"``/``"compiled"``);
        ``None`` defers to the ``REPRO_EXEC`` environment variable.
        Both tiers are byte-identical across all observables, so the
        choice never affects results.  The resolved tier rides the
        local backend's task payloads; protocol workers (async children,
        shard servers) resolve ``REPRO_EXEC`` in their own process —
        inherited from the parent for in-host backends.
    warm_start:
        Warm-start faulty runs from the golden snapshot ladder
        (:mod:`repro.warmstart`); ``None`` defers to ``REPRO_WARMSTART``
        (default on).  Byte-identical to cold starts on every
        observable — cache keys are unchanged, so spills and stores
        written either way stay valid.  Resolved like ``exec_tier``:
        rides local-pool task payloads, env-resolved by protocol
        workers and shard servers.
    """

    def __init__(self, program, *, workers: Optional[int] = 1,
                 cache: Optional[PlanCache] = None,
                 cache_dir: Optional[str] = None, resume: bool = True,
                 shard_size: int = 64, min_parallel: int = 4,
                 backend=None, backend_addr=None, registry=None,
                 exec_tier: Optional[str] = None,
                 warm_start=None):
        from repro.engine.backends import (LocalPoolBackend,
                                           resolve_backend)
        from repro.vm.exec_tier import resolve_exec_tier
        from repro.warmstart import resolve_warmstart
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.program = program
        self.workers = max(1, int(workers))
        self.exec_tier = resolve_exec_tier(exec_tier)
        self.warm_start = resolve_warmstart(warm_start)
        self.shard_size = shard_size
        self.min_parallel = min_parallel
        self._owns_cache = cache is None
        self.cache = cache if cache is not None else \
            PlanCache(cache_dir, resume=resume)
        self.program_fp = program_fingerprint(program)
        self._tracker = None
        self._closed = False
        self.executed = 0      # faulty runs actually performed (parent view)
        self.pool_starts = 0   # pools/worker fleets created over the lifetime
        self.backend = resolve_backend(backend, addresses=backend_addr,
                                       registry=registry)
        self.backend.bind(self)
        # the local pool is the socket backend's no-server fallback,
        # shared so its pool starts at most once per engine
        if isinstance(self.backend, LocalPoolBackend):
            self._local = self.backend
        else:
            self._local = LocalPoolBackend()
            self._local.bind(self)

    # ------------------------------------------------------------ lifecycle
    @property
    def local_backend(self):
        """The engine's :class:`LocalPoolBackend` (the default backend
        itself, or the socket backend's no-server fallback)."""
        return self._local

    def bind_tracker(self, tracker) -> None:
        """Attach the owning FlipTracker (enables traced analyses and
        lets fork children inherit its warmed golden trace)."""
        self._tracker = tracker

    def close(self) -> None:
        """Shut down the backend(s) and flush/close an owned cache.

        If a shard died mid-flight (worker ``os._exit``, lost shard
        server) this raises :class:`EngineError` naming the failed
        shard *after* tearing everything down — it never hangs on a
        broken pool join, and the cache still holds every shard that
        completed before the failure.
        """
        failed = self.backend.failed_shard
        if failed is None and self._local is not self.backend:
            failed = self._local.failed_shard
        self.backend.close()
        if self._local is not self.backend:
            self._local.close()
        if self._owns_cache:
            self.cache.close()
        else:
            self.cache.flush()
        self._closed = True
        if failed is not None:
            raise EngineError(
                f"engine closed after shard {failed} failed "
                f"(backend {self.backend.name!r}); completed shards "
                f"are preserved in the cache")

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.close()
        except EngineError:
            # the failed-shard re-raise must not mask an exception that
            # is already propagating out of the with-body (the original
            # error names the root cause; this one only the shard)
            if exc_type is None:
                raise

    def _check_open(self) -> None:
        if self._closed:
            raise EngineError("engine is closed")

    def _warm_tracker(self) -> None:
        """Materialize everything fork children should COW-share."""
        tracker = self._tracker
        tracker.fault_free_trace()
        tracker.trace_index()
        tracker.region_model()
        tracker.instances()

    # ------------------------------------------------------------ campaigns
    def run_plans(self, plans: Iterable[FaultPlan], *,
                  max_instr: Optional[int] = None, label: str = "",
                  on_progress: Optional[ProgressCallback] = None,
                  use_cache: bool = True):
        """Execute ``plans`` (cache-aware, sharded) -> CampaignResult.

        ``result.details`` records ``executed`` (new faulty runs this
        call), ``cached`` (plans served without execution: cache hits
        plus within-call duplicates of an executed plan), ``shards``
        and ``backend``; ``executed + cached == total`` always.

        One-group wrapper around :meth:`run_plan_groups`, which is the
        batching seam the declarative :mod:`repro.api` layer dispatches
        whole figure sweeps through.
        """
        return self.run_plan_groups([(label, plans)], max_instr=max_instr,
                                    on_progress=on_progress,
                                    use_cache=use_cache)[0]

    def run_plan_groups(self, groups, *,
                        max_instr: Optional[int] = None,
                        on_progress: Optional[ProgressCallback] = None,
                        use_cache: bool = True):
        """Execute many labeled plan groups in **one** backend dispatch.

        ``groups`` is a sequence of ``(label, plans)`` pairs; the return
        value is one result per group, in group order, by plan kind: a
        :class:`~repro.faults.campaign.CampaignResult` for plain fault
        plans, a :class:`~repro.recovery.outcome.RecoveryResult` for
        recovery plans (protected runs), and a list of per-plan pattern
        tables for :class:`~repro.patterns.plan.AnalysisPlan` groups
        (traced analyses, exactly what :meth:`analyze_plan_groups`
        returns).  Every kind is cached and shipped as one opaque
        outcome string, so the cache, demux and alias machinery below
        are plan-kind agnostic.  The whole batch fans out through a
        single :meth:`Backend.run_shards` call, so the async/socket
        substrates overlap shards *across* groups instead of placing a
        barrier between consecutive campaigns.

        Demux contract (what makes the batch path byte-identical to
        calling :meth:`run_plans` once per group, in group order, on
        this same engine): each group is sharded separately in plan
        order, a key already pending in an *earlier* group is served to
        later groups as an alias — exactly the cache hit a sequential
        caller would have observed — and each group's ``details``
        record the accounting of its equivalent standalone call
        (``executed``/``cached``/``shards``/``total``/``backend``).
        With ``use_cache=False`` cross-group aliasing is disabled
        (sequential calls would re-execute), matching legacy semantics.
        """
        return self._dispatch_groups(groups, max_instr, on_progress,
                                     use_cache)

    # ------------------------------------------------------------ analyses
    def analyze_plans(self, plans: Sequence[FaultPlan], *,
                      max_instr: Optional[int] = None,
                      on_progress: Optional[ProgressCallback] = None
                      ) -> list[dict[str, set[str]]]:
        """Patterns-by-region for many traced injections, in plan order.

        One-group wrapper around :meth:`analyze_plan_groups` (the
        batching seam used by :mod:`repro.api`).
        """
        return self.analyze_plan_groups(
            [("analysis", plans)], max_instr=max_instr,
            on_progress=on_progress)[0]

    def analyze_plan_groups(self, groups, *,
                            max_instr: Optional[int] = None,
                            on_progress: Optional[ProgressCallback] = None
                            ) -> list[list[dict[str, set[str]]]]:
        """Traced analyses for many labeled plan groups, one dispatch.

        ``groups`` is a sequence of ``(label, plans)`` pairs of plain
        fault plans; returns one list of per-plan pattern tables per
        group, in group order.  Each plan runs as an
        :class:`~repro.patterns.plan.AnalysisPlan` through the same
        demux loop, backend call and wire frames as campaigns, so a
        pattern table — a pure function of the plan (determinism
        contract) — is cache-served, spilled and resumable like any
        outcome, and duplicates are analyzed once and aliased across
        the whole batch.  Each traced run's manifestation is also
        cached under the plain plan key when ``max_instr`` is given,
        so a later untraced campaign over the same plans is free.
        Progress events carry ``phase="analysis"``.
        """
        return self._dispatch_groups(
            [(label, [AnalysisPlan(p) for p in plans])
             for label, plans in groups],
            max_instr, on_progress, use_cache=True, analysis=True)

    # ------------------------------------------------------------ demux
    def _dispatch_groups(self, groups, max_instr: Optional[int],
                         on_progress: Optional[ProgressCallback],
                         use_cache: bool, analysis: bool = False):
        """The one demux loop behind every plan kind (see
        :meth:`run_plan_groups`).  ``analysis`` marks every group as an
        analysis group, so even an empty one reports
        ``phase="analysis"`` and returns an empty table list."""
        from repro.faults.campaign import CampaignResult, Manifestation
        from repro.recovery.outcome import RecoveryOutcome, RecoveryResult
        from repro.recovery.plan import RecoveryPlan
        self._check_open()
        groups = [(label, list(plans)) for label, plans in groups]
        traced = [analysis or (bool(plans)
                               and isinstance(plans[0], AnalysisPlan))
                  for _label, plans in groups]
        phases = ["analysis" if t else "campaign" for t in traced]
        group_keys: list[list[str]] = []
        outcomes: list[list[Optional[str]]] = []
        # alias map: one execution per unique pending key serves every
        # position waiting on it (across groups when the cache is on)
        waiting: dict = {}
        owner: dict = {}
        for g_i, (_label, plans) in enumerate(groups):
            keys = [plan_key(self.program_fp, p, max_instr) for p in plans]
            group_keys.append(keys)
            values = [self.cache.get(k) if use_cache else None
                      for k in keys]
            outcomes.append(values)
            for i, value in enumerate(values):
                if value is not None:
                    continue
                akey = keys[i] if use_cache else (g_i, keys[i])
                waiting.setdefault(akey, []).append((g_i, i))
                owner.setdefault(akey, (g_i, i))

        unique, shards, group_shard_base, group_shards, shard_plans = \
            self._shard_groups(groups, owner)

        # materialize the tracker state pending runs draw on before the
        # backend (lazily) forks its workers, so children inherit it
        # copy-on-write; late-started substrates derive identical state
        # themselves (pure functions of the program)
        kinds = {type(p) for plans in shard_plans for p in plans}
        if AnalysisPlan in kinds:
            self._tracker_for_analysis()
        if RecoveryPlan in kinds:
            self._tracker_for_analysis().recovery_context()
        if self.warm_start and kinds - {AnalysisPlan}:
            # traced runs always start cold: only untraced kinds use the
            # golden snapshot ladder
            self._tracker_for_analysis().warm_ladder()

        totals = [len(plans) for _label, plans in groups]
        cached = [totals[g_i] - len(unique[g_i])
                  for g_i in range(len(groups))]
        done = [sum(1 for v in values if v is not None)
                for values in outcomes]
        for s_i, values in self.backend.run_shards(shard_plans, max_instr):
            g_i, indices = shards[s_i]
            label, plans = groups[g_i]
            for i, value in zip(indices, values):
                akey = group_keys[g_i][i] if use_cache \
                    else (g_i, group_keys[g_i][i])
                for a_g, a_i in waiting[akey]:
                    outcomes[a_g][a_i] = value
                    done[a_g] += 1
                plan = plans[i]
                self.cache.put(group_keys[g_i][i], value,
                               meta={"plan": encode_plan(plan),
                                     "label": label})
                if isinstance(plan, AnalysisPlan) and max_instr is not None:
                    # by-product: the traced run's manifestation under
                    # the plain key warms a later untraced campaign
                    self.cache.put(
                        plan_key(self.program_fp, plan.fault, max_instr),
                        decode_analysis(value)[0],
                        meta={"plan": encode_plan(plan.fault),
                              "label": "analysis"})
            self.executed += len(indices)
            if on_progress is not None:
                on_progress(ProgressEvent(
                    label=label, phase=phases[g_i], done=done[g_i],
                    total=totals[g_i], cached=cached[g_i],
                    shard=s_i - group_shard_base[g_i] + 1,
                    shards=group_shards[g_i]))
        if on_progress is not None:
            for g_i, (label, _plans) in enumerate(groups):
                if group_shards[g_i] == 0:
                    on_progress(ProgressEvent(
                        label=label, phase=phases[g_i], done=totals[g_i],
                        total=totals[g_i], cached=cached[g_i],
                        shard=0, shards=0))
        self.cache.flush()

        results = []
        for g_i, (label, plans) in enumerate(groups):
            if traced[g_i]:
                # decoded per position: every alias gets fresh sets
                results.append([decode_analysis(value)[1]
                                for value in outcomes[g_i]])
                continue
            if plans and isinstance(plans[0], RecoveryPlan):
                result = RecoveryResult(label=label)
                for value in outcomes[g_i]:
                    result.add(RecoveryOutcome.decode(value))
            else:
                result = CampaignResult(label=label)
                for value in outcomes[g_i]:
                    result.add(Manifestation(value))
            result.details.update(executed=len(unique[g_i]),
                                  cached=cached[g_i],
                                  shards=group_shards[g_i],
                                  total=totals[g_i],
                                  backend=self.backend.name)
            results.append(result)
        return results

    def _shard_groups(self, groups, owner):
        """Batch layout for :meth:`_dispatch_groups`.

        ``owner`` maps each alias key to its first pending position
        ``(group, index)``.  Each group's owned positions are sharded
        *separately* in plan order (legacy shard boundaries — per-group
        accounting stays byte-identical to standalone calls), then the
        shard lists are flattened for one backend dispatch.  Returns
        ``(unique, shards, group_shard_base, group_shards,
        shard_plans)``.
        """
        unique: list[list[int]] = [[] for _ in groups]
        for g_i, i in owner.values():
            unique[g_i].append(i)
        for indices in unique:
            indices.sort()
        shards: list[tuple[int, list[int]]] = []
        group_shard_base: list[int] = []
        group_shards: list[int] = []
        for g_i, indices in enumerate(unique):
            group_shard_base.append(len(shards))
            for s in range(0, len(indices), self.shard_size):
                shards.append((g_i, indices[s:s + self.shard_size]))
            group_shards.append(len(shards) - group_shard_base[g_i])
        shard_plans = [[groups[g_i][1][i] for i in indices]
                       for g_i, indices in shards]
        return unique, shards, group_shard_base, group_shards, shard_plans

    def _tracker_for_analysis(self):
        if self._tracker is None:
            from repro.core.fliptracker import FlipTracker
            self._tracker = FlipTracker(self.program, workers=1)
        return self._tracker

    # ------------------------------------------------------------ stats
    def stats(self) -> dict:
        return {"workers": self.workers, "executed": self.executed,
                "backend": self.backend.name,
                "exec_tier": self.exec_tier,
                "warm_start": self.warm_start,
                "pool_starts": self.pool_starts,
                "pool_alive": self._local.pool_alive,
                "shard_size": self.shard_size,
                "cache": self.cache.stats()}
