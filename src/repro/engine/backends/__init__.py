"""Pluggable shard-execution backends for the :class:`ExecutionEngine`.

The engine's demux loop decides *what* to execute (cache filtering,
shard boundaries, plan-order assembly); a backend decides *where* (see
:mod:`.base` for the contract).  A backend implements one shard
operation, ``run_shards``, which carries every plan kind — untraced
campaign plans, protected recovery plans and traced pattern analyses
alike, each answered by one outcome string.  Three substrates ship:

``local``  :class:`LocalPoolBackend`
    The seed engine's persistent fork/spawn process pool,
    behavior-preserving (plus worker-death detection instead of a
    silent hang).

``async``  :class:`AsyncBackend`
    Asyncio dispatch to forked subprocess workers over socketpairs —
    bounded in-flight shards, out-of-order completion, in-order
    reassembly.

``socket`` :class:`SocketBackend`
    TCP client for one or more :class:`ShardServer` processes
    (``python -m repro serve <app>``), with program-fingerprint
    handshake, single retry per shard, worker failover, and local
    fallback when no server is reachable.

All three feed the same content-addressed
:class:`~repro.engine.cache.PlanCache` through the engine and are
byte-identical to ``workers=1`` for every plan kind
(``tests/test_determinism.py``).  The wire protocol the async and
socket substrates share is specified normatively in
``docs/protocol.md`` (:mod:`.protocol` implements it).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.engine.backends.aio import AsyncBackend
from repro.engine.backends.base import Backend
from repro.engine.backends.local import LocalPoolBackend
from repro.engine.backends.remote import (DEFAULT_PORT, SocketBackend,
                                          parse_addresses)
from repro.engine.backends.server import ShardServer

#: CLI / config names -> backend classes
BACKENDS = {
    "local": LocalPoolBackend,
    "async": AsyncBackend,
    "socket": SocketBackend,
}

BackendSpec = Union[None, str, Backend]


def resolve_backend(spec: BackendSpec = None, *,
                    addresses=None, registry=None) -> Backend:
    """Turn a backend spec (name, instance or ``None``) into an instance.

    ``addresses`` and ``registry`` only apply to the ``socket``
    backend (ignored with a pre-built instance, which already carries
    its own address source).  ``registry`` alone implies ``socket``:
    naming a registry *is* choosing remote dispatch.
    """
    if spec is None:
        spec = "socket" if registry is not None else "local"
    if isinstance(spec, Backend):
        return spec
    try:
        cls = BACKENDS[spec]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown backend {spec!r}; expected one of "
            f"{sorted(BACKENDS)} or a Backend instance") from None
    if cls is SocketBackend:
        return SocketBackend(addresses, registry=registry)
    return cls()


__all__ = [
    "Backend", "BACKENDS", "resolve_backend", "LocalPoolBackend",
    "AsyncBackend", "SocketBackend", "ShardServer", "DEFAULT_PORT",
    "parse_addresses",
]
