"""The serializable result envelope of one executed experiment.

An :class:`ExperimentResult` demultiplexes a batched dispatch back
into per-spec results: one :class:`SpecResult` per (app, spec) pair —
carrying either a :class:`~repro.faults.campaign.CampaignResult` or a
pattern table in the canonical sorted-list wire image — plus dispatch
provenance (per-dispatch timings, executed/cached counts, backend).

Two JSON forms:

* ``to_json()`` (default, ``provenance=True``) — the full envelope,
  round-trippable: ``ExperimentResult.from_json(r.to_json())`` equals
  ``r``.
* ``to_json(provenance=False)`` — the *canonical result image*: only
  what the experiment's outcome determines (spec identity,
  success/failed/crashed counts, pattern tables).  Timings, dispatch
  accounting (``details``: executed/cached/shards/backend) and
  substrate config are stripped, so the canonical image is
  byte-identical across backends, worker counts, shard sizes and
  cache states — this is what CI diffs against a golden file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.api.specs import SCHEMA_VERSION, Experiment, SpecError
from repro.faults.campaign import CampaignResult

__all__ = ["SpecResult", "ExperimentResult"]


@dataclass
class SpecResult:
    """Outcome of one spec applied to one app.

    Exactly one of ``campaign`` / ``patterns`` / ``profile`` /
    ``recovery`` is set, matching ``mode``.  ``recovery`` is the
    payload documented in ``docs/recovery.md``: per-region protected
    outcome counts for one (policy, detector) cell.  ``patterns`` uses the canonical wire image —
    region name to *sorted* pattern-mnemonic list — identical to what
    an analysis plan's outcome string carries (see ``docs/protocol.md``).
    ``profile`` is the payload documented in ``docs/profiles.md``:
    per-region outcome distributions plus the composed whole-program
    estimate; its ``sources`` map (where each region came from —
    dispatch or store, and at which reuse tier) is provenance and is
    stripped from the canonical image.
    """

    index: int                      #: position in ``Experiment.specs``
    app: str
    label: str
    #: ``"campaign"`` | ``"analysis"`` | ``"profile"`` | ``"recovery"``
    mode: str
    campaign: Optional[CampaignResult] = None
    patterns: Optional[dict[str, list[str]]] = None
    profile: Optional[dict] = None
    recovery: Optional[dict] = None

    def pattern_sets(self) -> dict[str, set[str]]:
        """``patterns`` as mutable sets (the legacy in-memory shape)."""
        if self.patterns is None:
            raise ValueError(f"spec {self.index} ({self.label}) is not "
                             f"an analysis result")
        return {region: set(pats) for region, pats in self.patterns.items()}

    def to_dict(self, provenance: bool = True) -> dict:
        payload: dict = {"index": self.index, "app": self.app,
                         "label": self.label, "mode": self.mode}
        if self.campaign is not None:
            payload["campaign"] = {"success": self.campaign.success,
                                   "failed": self.campaign.failed,
                                   "crashed": self.campaign.crashed,
                                   "label": self.campaign.label}
            if provenance:
                # executed/cached/shards/backend depend on shard size,
                # cache warmth and substrate — provenance, not outcome
                payload["campaign"]["details"] = \
                    dict(self.campaign.details)
        if self.patterns is not None:
            payload["patterns"] = {region: list(pats) for region, pats
                                   in sorted(self.patterns.items())}
        if self.profile is not None:
            profile = dict(self.profile)
            if not provenance:
                # where each region's numbers came from (dispatch vs
                # store, reuse tier) is substrate, not outcome
                profile.pop("sources", None)
            payload["profile"] = profile
        if self.recovery is not None:
            # every recovery field is tier/backend-invariant by the
            # outcome contract (docs/recovery.md) — nothing to strip
            payload["recovery"] = dict(self.recovery)
        return payload

    @staticmethod
    def from_dict(payload: dict) -> "SpecResult":
        campaign = None
        if payload.get("campaign") is not None:
            c = payload["campaign"]
            campaign = CampaignResult(success=c["success"],
                                      failed=c["failed"],
                                      crashed=c["crashed"],
                                      label=c["label"],
                                      details=dict(c.get("details", {})))
        patterns = None
        if payload.get("patterns") is not None:
            patterns = {region: list(pats) for region, pats
                        in payload["patterns"].items()}
        return SpecResult(index=payload["index"], app=payload["app"],
                          label=payload["label"], mode=payload["mode"],
                          campaign=campaign, patterns=patterns,
                          profile=payload.get("profile"),
                          recovery=payload.get("recovery"))


@dataclass
class ExperimentResult:
    """Everything one :func:`~repro.api.runner.run_experiment` produced.

    ``dispatches`` is the batching provenance: one entry per engine
    dispatch — ``{app, mode, kind, specs, plans, executed, cached,
    backend, seconds}`` — so a result records not only *what* came
    out but *how few* fan-outs produced it.  (Per-spec shard counts
    live in each campaign's ``details``.)
    """

    experiment: Experiment
    results: list[SpecResult] = field(default_factory=list)
    dispatches: list[dict] = field(default_factory=list)
    elapsed: float = 0.0

    # ------------------------------------------------------------ lookup
    def spec_results(self, app: Optional[str] = None) -> list[SpecResult]:
        return [r for r in self.results if app is None or r.app == app]

    def _one(self, app: str, index: int) -> SpecResult:
        for r in self.results:
            if r.app == app and r.index == index:
                return r
        raise KeyError(f"no result for spec {index} on app {app!r}")

    def campaign(self, app: str, index: int) -> CampaignResult:
        """The CampaignResult of spec ``index`` on ``app``."""
        r = self._one(app, index)
        if r.campaign is None:
            raise ValueError(f"spec {index} on {app!r} is not a campaign")
        return r.campaign

    def patterns(self, app: str, index: int) -> dict[str, set[str]]:
        """The pattern table of spec ``index`` on ``app`` (as sets)."""
        return self._one(app, index).pattern_sets()

    @property
    def executed(self) -> int:
        """Faulty runs actually performed across all dispatches."""
        return sum(d.get("executed", 0) for d in self.dispatches)

    @property
    def cached(self) -> int:
        """Plans served without execution across all dispatches."""
        return sum(d.get("cached", 0) for d in self.dispatches)

    # ------------------------------------------------------------ JSON
    def to_dict(self, provenance: bool = True) -> dict:
        experiment = self.experiment
        if not provenance:
            # canonical image: strip the execution substrate, keep the
            # experiment's identity (name, apps, seed, specs)
            experiment = replace(experiment, workers=1, backend=None,
                                 backend_addr=None, cache_dir=None,
                                 resume=True, shard_size=64,
                                 store_dir=None, incremental=False)
        payload = {"schema_version": SCHEMA_VERSION,
                   "experiment": experiment.to_dict(),
                   "results": [r.to_dict(provenance=provenance)
                               for r in self.results]}
        if provenance:
            payload["dispatches"] = self.dispatches
            payload["elapsed"] = self.elapsed
        return payload

    def to_json(self, indent: Optional[int] = 2,
                provenance: bool = True) -> str:
        return json.dumps(self.to_dict(provenance=provenance),
                          indent=indent, sort_keys=True)

    @staticmethod
    def from_dict(payload: dict) -> "ExperimentResult":
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SpecError(f"unsupported result schema_version "
                            f"{version!r} (this build speaks "
                            f"{SCHEMA_VERSION})")
        return ExperimentResult(
            experiment=Experiment.from_dict(payload["experiment"]),
            results=[SpecResult.from_dict(r)
                     for r in payload.get("results", ())],
            dispatches=list(payload.get("dispatches", ())),
            elapsed=payload.get("elapsed", 0.0))

    @staticmethod
    def from_json(text: str) -> "ExperimentResult":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"result is not valid JSON: {exc}") from None
        return ExperimentResult.from_dict(payload)
