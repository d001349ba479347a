"""Asyncio backend: forked subprocess workers over socketpairs.

Each worker is a forked child process (the built program — and any
warmed tracker state — arrives copy-on-write, exactly like the local
pool) that speaks the shard protocol (:mod:`.protocol`) over one end
of a ``socket.socketpair()``.  The parent side drives an asyncio event
loop:

* at most ``max_inflight`` shards are admitted concurrently (bounded
  in-flight), each dispatched to the next idle worker;
* completions arrive **out of order** and are pushed onto a thread-safe
  queue; the synchronous :meth:`run_shards` generator reassembles them
  into shard order (:func:`~repro.engine.backends.base.reassemble`),
  so the engine checkpoints shards in order exactly as with the local
  backend.

Every plan kind rides ``run`` frames; recovery and analysis plans use
the tracker the worker inherited at fork, or one it builds lazily.

The event loop runs on a helper thread per dispatch call so the
engine's synchronous shard loop (cache writes, progress events) stays
untouched; the worker processes themselves persist across calls.
On fork-less platforms the backend degrades to in-process sequential
execution with a warning (still deterministic).
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import os
import queue
import socket
import threading
import warnings
from typing import Iterator, Optional, Sequence

from repro.engine.backends import protocol
from repro.engine.backends.base import Backend, reassemble
from repro.engine.errors import EngineError
from repro.vm.fault import FaultPlan

_SENTINEL = object()


def _worker_main(sock: socket.socket, program, tracker=None) -> None:
    """Forked child: serve shard requests over the socketpair end."""

    def get_tracker():
        # for recovery and analysis plans: reuse the tracker inherited
        # at fork, or lazily build one private to this worker
        # (amortized over the fleet's lifetime)
        nonlocal tracker
        if tracker is None:
            from repro.core.fliptracker import FlipTracker
            tracker = FlipTracker(program, workers=1)
        return tracker

    try:
        while True:
            msg = protocol.recv_msg(sock)
            if msg is None or msg.get("op") == protocol.OP_BYE:
                return
            op = msg.get("op")
            if op == protocol.OP_HELLO:
                protocol.send_msg(sock, {"op": protocol.OP_HELLO,
                                         "ok": True, "fp": msg.get("fp")})
                continue
            protocol.send_msg(
                sock, protocol.execute_request(program, msg,
                                               tracker_factory=get_tracker))
    except (OSError, protocol.ProtocolError):  # parent went away
        pass
    finally:
        sock.close()


class AsyncBackend(Backend):
    """Bounded-concurrency asyncio dispatch over forked workers."""

    name = "async"

    def __init__(self, max_inflight: Optional[int] = None) -> None:
        super().__init__()
        self._requested_inflight = max_inflight
        self._workers: list = []        # mp fork Process handles
        self._socks: list[socket.socket] = []  # parent socketpair ends
        self._started = False

    # ------------------------------------------------------------ lifecycle
    @property
    def max_inflight(self) -> int:
        if self._requested_inflight is not None:
            return max(1, self._requested_inflight)
        return max(1, self.engine.workers)

    def _ensure_workers(self) -> bool:
        """Fork the worker fleet once; ``False`` -> no fork, run inline."""
        if self._started:
            return bool(self._socks)
        self._started = True
        if not hasattr(os, "fork"):  # pragma: no cover - fork-less OS
            warnings.warn(
                "AsyncBackend needs fork to spawn protocol workers; "
                "running shards in-process sequentially",
                RuntimeWarning, stacklevel=3)
            return False
        if self.engine._tracker is not None:
            # materialize the golden trace &c. *before* forking so
            # traced plans in the children reuse it copy-on-write
            self.engine._warm_tracker()
        ctx = mp.get_context("fork")
        for _ in range(max(1, self.engine.workers)):
            parent_sock, child_sock = socket.socketpair()
            # fork-context args are inherited in memory, never pickled,
            # so the raw socket, program and tracker pass through as-is
            proc = ctx.Process(target=_worker_main,
                               args=(child_sock, self.engine.program,
                                     self.engine._tracker),
                               daemon=True)
            proc.start()
            child_sock.close()
            parent_sock.setblocking(False)
            self._socks.append(parent_sock)
            self._workers.append(proc)
        self.engine.pool_starts += 1
        return True

    def close(self) -> None:
        for sock in self._socks:
            try:
                sock.setblocking(True)
                protocol.send_msg(sock, {"op": protocol.OP_BYE})
            except OSError:
                pass
            sock.close()
        self._socks.clear()
        for proc in self._workers:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        self._workers.clear()

    # ------------------------------------------------------------ shards
    def run_shards(self, shards: Sequence[Sequence[FaultPlan]],
                   max_instr: Optional[int]
                   ) -> Iterator[tuple[int, list[str]]]:
        if not shards:
            return
        if not self._ensure_workers():
            for index, plans in enumerate(shards):
                yield index, self.run_sequential(plans, max_instr)
            return
        results: queue.Queue = queue.Queue()
        driver = threading.Thread(
            target=self._drive, args=(shards, max_instr, results),
            daemon=True)
        driver.start()
        yield from reassemble(self._completions(results, len(shards)),
                              len(shards))
        driver.join()

    @staticmethod
    def _completions(results: queue.Queue, n_shards: int):
        seen = 0
        while seen < n_shards:
            item = results.get()
            if item is _SENTINEL:
                raise EngineError("async driver finished with shards "
                                  "missing")
            if isinstance(item, BaseException):
                raise item
            yield item
            seen += 1

    def _drive(self, shards, max_instr, results: queue.Queue) -> None:
        """Helper-thread body: run the event loop to completion."""
        loop = asyncio.new_event_loop()
        try:
            loop.run_until_complete(
                self._run_async(loop, shards, max_instr, results))
        except BaseException as exc:  # surface in the caller thread
            results.put(exc if isinstance(exc, EngineError) else
                        EngineError(f"async backend failed: "
                                    f"{type(exc).__name__}: {exc}"))
        finally:
            loop.close()
            results.put(_SENTINEL)

    async def _run_async(self, loop, shards, max_instr,
                         results: queue.Queue) -> None:
        idle: asyncio.Queue = asyncio.Queue()
        for index, sock in enumerate(self._socks):
            idle.put_nowait((index, sock))
        inflight = asyncio.Semaphore(self.max_inflight)

        async def run_one(shard_index: int,
                          plans: Sequence[FaultPlan]) -> None:
            async with inflight:
                worker_index, sock = await idle.get()
                try:
                    await protocol.async_send(
                        loop, sock,
                        protocol.run_request(shard_index, plans,
                                             max_instr))
                    reply = await protocol.async_recv(loop, sock)
                finally:
                    idle.put_nowait((worker_index, sock))
                if reply.get("op") != protocol.OP_RESULT:
                    raise EngineError(
                        f"shard {shard_index}: worker {worker_index} "
                        f"replied {reply.get('error', reply)!r}")
                results.put((shard_index,
                             protocol.decode_run_values(reply,
                                                        len(plans))))

        try:
            await asyncio.gather(*(run_one(i, plans)
                                   for i, plans in enumerate(shards)))
        except protocol.ProtocolError as exc:
            raise EngineError(f"async worker protocol failure: {exc}") \
                from exc
