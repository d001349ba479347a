"""Unified campaign execution engine.

Every fault-injection workload in the reproduction — success-rate
campaigns (Figs. 5/6, Tables III/IV) and traced pattern analyses
(Table I, Fig. 7) — funnels through one :class:`ExecutionEngine`:

* a **persistent worker pool** that lives for the lifetime of its
  owning :class:`~repro.core.FlipTracker`, amortizing pool start-up and
  the copy-on-write inheritance of the golden trace across all
  campaigns and analyses instead of re-forking per call;
* a **content-addressed plan→result cache** (:class:`PlanCache`):
  identical ``(program, FaultPlan, budget)`` triples are executed once,
  in memory always and optionally spilled to a JSON-lines file so
  repeated or resumed campaigns skip already-executed injections;
* **sharded, checkpointable campaign execution** with streaming
  :class:`ProgressEvent` callbacks — each finished shard is durable in
  the cache, so an interrupted campaign resumes where it stopped;
* **pluggable shard backends** (:mod:`repro.engine.backends`): the
  same shard loop runs on the in-host process pool (``local``), on
  asyncio-coordinated forked workers (``async``) or on remote TCP
  shard servers (``socket``) — all feeding the one cache and all
  byte-identical to ``workers=1``, for untraced campaigns, protected
  runs and traced pattern analyses alike (one ``run`` operation
  carries every plan kind); the wire protocol is specified in
  ``docs/protocol.md``.

Determinism contract: identical plans yield identical results
regardless of worker count, shard size, or arrival order; the
determinism suite (``tests/test_determinism.py``) locks this in.
"""

from repro.engine.backends import (BACKENDS, AsyncBackend, Backend,
                                   LocalPoolBackend, ShardServer,
                                   SocketBackend, resolve_backend)
from repro.engine.cache import PlanCache
from repro.engine.core import EngineError, ExecutionEngine
from repro.engine.keys import (KEY_VERSION, decode_plan, encode_plan,
                               module_fingerprint, plan_key,
                               program_fingerprint)
from repro.engine.progress import ProgressEvent

__all__ = [
    "ExecutionEngine", "EngineError", "PlanCache", "ProgressEvent",
    "KEY_VERSION", "encode_plan", "decode_plan", "plan_key",
    "module_fingerprint", "program_fingerprint",
    "Backend", "BACKENDS", "resolve_backend", "LocalPoolBackend",
    "AsyncBackend", "SocketBackend", "ShardServer",
]
