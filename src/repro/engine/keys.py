"""Content-addressed cache keys for plan results.

A cached manifestation is only reusable if *everything* that determines
the outcome of a faulty run is folded into its key:

* the program — named by a fingerprint of its printed IR (not just the
  registry name: two ad-hoc programs may share a name, and a rebuilt
  app with different params is a different program);
* the :class:`~repro.vm.fault.FaultPlan` (all five fields) plus the
  plan kind: a recovery plan's protection configuration, or an
  analysis plan's ``analysis`` marker;
* the instruction budget (``max_instr``), which decides whether a
  looping run is classified as a hang/crash.

Keys are SHA-256 hex digests of a canonical JSON encoding, so they are
stable across processes, platforms and ``PYTHONHASHSEED`` values —
``hash()`` must never leak into a key.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Optional

from repro.patterns.plan import AnalysisPlan
from repro.vm.fault import FaultPlan

#: bump when the key encoding changes; stale spill files are ignored
KEY_VERSION = 1

_PLAN_FIELDS = ("trigger", "mode", "bit", "loc", "width")

_RECOVERY_FIELDS = ("detector", "policy", "checkpoint_every",
                    "max_recoveries")


def encode_plan(plan) -> dict:
    """Canonical JSON-safe dict image of a plan (cache/spill encoding).

    Recovery plans (:class:`~repro.recovery.plan.RecoveryPlan`) encode
    as their wrapped fault plus a ``recovery`` sub-dict, analysis plans
    (:class:`~repro.patterns.plan.AnalysisPlan`) as their wrapped fault
    plus the marker ``"analysis": true`` — the extra field makes each
    kind's keys disjoint from plain campaign keys without a KEY_VERSION
    bump (plain plans never carry either).
    """
    if isinstance(plan, FaultPlan):
        return {f: getattr(plan, f) for f in _PLAN_FIELDS}
    payload = {f: getattr(plan.fault, f) for f in _PLAN_FIELDS}
    if isinstance(plan, AnalysisPlan):
        payload["analysis"] = True
    else:
        payload["recovery"] = {f: getattr(plan, f)
                               for f in _RECOVERY_FIELDS}
    return payload


def decode_plan(payload: Mapping):
    """Inverse of :func:`encode_plan` (validates via ``__post_init__``)."""
    fault = FaultPlan(trigger=payload["trigger"], mode=payload["mode"],
                      bit=payload["bit"], loc=payload.get("loc"),
                      width=payload.get("width", 64))
    if payload.get("analysis") is True:
        return AnalysisPlan(fault)
    recovery = payload.get("recovery")
    if recovery is None:
        return fault
    from repro.recovery.plan import RecoveryPlan
    return RecoveryPlan(fault=fault, **recovery)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def module_fingerprint(module) -> str:
    """Digest of the module's printed IR (content, not identity)."""
    from repro.ir.printer import format_module
    text = format_module(module)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def program_fingerprint(program) -> str:
    """Stable identity of a built program: name, params, module IR."""
    payload = _canonical({
        "name": program.name,
        "params": {k: repr(v) for k, v in sorted(program.params.items())},
        "module": module_fingerprint(program.module),
    })
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def plans_fingerprint(plans) -> str:
    """Digest of an ordered plan list (profile reuse-tier evidence).

    Two campaigns whose plan lists share this fingerprint injected the
    identical fault sequence — same triggers, modes, bits, locations,
    widths, in the same order — regardless of which program build drew
    them (see ``docs/profiles.md``, reuse tier ``plans``).
    """
    payload = _canonical([encode_plan(p) for p in plans])
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def plan_key(program_fp: str, plan,
             max_instr: Optional[int]) -> str:
    """Content address of one (program, plan, budget) execution."""
    payload = _canonical({
        "v": KEY_VERSION,
        "prog": program_fp,
        "plan": encode_plan(plan),
        "max_instr": max_instr,
    })
    return hashlib.sha256(payload.encode()).hexdigest()
