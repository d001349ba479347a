"""Analysis plans: one faulty run executed with tracing turned on.

An :class:`AnalysisPlan` wraps an ordinary single-bit-flip
:class:`~repro.vm.fault.FaultPlan`.  Executing it traces the faulty
run, builds its ACL and detects the Table I resilience patterns per
code region (:meth:`repro.core.FlipTracker.analyze_injection`) — in
the paper's terms, a pattern analysis *is* a Fig. 5/6 faulty run with
tracing on.  It is the third plan kind the engine dispatches, next to
plain and recovery plans, so traced analyses share the one ``run``
path: cache, shards, backends and wire frames.

Its outcome travels as one opaque string like every plan's
(:func:`encode_analysis`): compact sorted-key JSON of the manifestation
and the pattern table, pattern sets as sorted lists, so the value is a
pure function of the plan and byte-stable across substrates.

This module is a leaf (it imports only :mod:`repro.vm.fault`) so the
engine's key/wire codecs can encode analysis plans without import
cycles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.vm.fault import FaultPlan


@dataclass(frozen=True)
class AnalysisPlan:
    """One traced faulty run whose result is its pattern table.

    Attributes
    ----------
    fault:
        The single-bit flip the traced run suffers (same plan
        population as a plain campaign).  The traced run uses the
        tracker's own faulty-run budget, a pure function of the
        program.
    """

    fault: FaultPlan


def encode_analysis(analysis) -> str:
    """Outcome string of one traced analysis (cache and wire value).

    Compact sorted-key JSON of ``{"m": manifestation, "patterns":
    {region: [pattern, ...]}}``.  Pattern sets become **sorted lists**
    so two workers analyzing the same plan produce identical bytes.
    """
    image = {"m": analysis.manifestation.value,
             "patterns": {region: sorted(pats) for region, pats
                          in analysis.patterns_by_region().items()}}
    return json.dumps(image, sort_keys=True, separators=(",", ":"))


def decode_analysis(value: str) -> tuple[str, dict[str, set[str]]]:
    """Inverse of :func:`encode_analysis` -> ``(manifestation, table)``.

    Every call builds fresh sets, so callers may mutate the table.
    """
    image = json.loads(value)
    return image["m"], {region: set(pats)
                        for region, pats in image["patterns"].items()}
