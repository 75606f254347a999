"""Traced-run instrumentation of the serving stack, from outside it.

Nothing here edits the library: the traced run wraps the calls the
load process makes into each layer and records a span per call, in
memory, written out as JSON lines when the run ends.

* :class:`TracedBackend` — the router proxy the frontend dispatches
  into (one span per backend call). It keeps ``deadline=`` on the read
  methods, because the frontend inspects backend signatures for it.
* :meth:`Recorder.wrap_client` — one span per ``RemoteShardClient.call``
  (a wire RPC), tagged with the router call it belongs to through a
  context variable that ``asyncio.gather`` copies into its tasks.
* :meth:`Recorder.install` — timing wrappers around the router's
  ``group_by_shard`` and the codec's frame encode/decode calls.
"""

from __future__ import annotations

import contextvars
import json
import time
from collections import defaultdict

from repro.serving.transport import protocol
from repro.serving.transport import router as router_module

#: The router call the running task is part of (None outside one).
_ROUTER_CALL: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_router_call", default=None
)

_PRELUDE_BYTES = protocol.PRELUDE.size


class Recorder:
    """Spans and counters of one traced phase."""

    def __init__(self):
        #: ``(op, call_id, start, end)`` per router call.
        self.router_calls: list[tuple] = []
        #: ``(op, address, call_id, start, end, ok)`` per wire RPC.
        self.rpcs: list[tuple] = []
        self.group_seconds = 0.0
        self.group_ids = 0
        self.codec = defaultdict(float)
        self._next_call = 0
        self._restore: list = []

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #

    def wrap_client(self, client) -> None:
        """Record every RPC ``client`` sends."""
        original = client.call
        rpcs = self.rpcs
        address = client.address

        async def call(op, fields=None, arrays=None, deadline=None):
            started = time.perf_counter()
            ok = False
            try:
                if deadline is None:
                    response = await original(op, fields, arrays)
                else:
                    response = await original(op, fields, arrays, deadline=deadline)
                ok = True
                return response
            finally:
                rpcs.append(
                    (op, address, _ROUTER_CALL.get(), started, time.perf_counter(), ok)
                )

        client.call = call
        self._restore.append(lambda: delattr(client, "call"))

    def install(self) -> None:
        """Wrap ``group_by_shard`` and the codec in this process."""
        group_by_shard = router_module.group_by_shard
        encode = protocol.encode_frame_parts
        decode = protocol._decode_payload
        codec = self.codec

        def timed_group_by_shard(host_ids, n_shards):
            started = time.perf_counter()
            groups = group_by_shard(host_ids, n_shards)
            self.group_seconds += time.perf_counter() - started
            self.group_ids += len(host_ids)
            return groups

        def timed_encode(*args, **kwargs):
            started = time.perf_counter()
            parts = encode(*args, **kwargs)
            codec["encode_s"] += time.perf_counter() - started
            codec["encoded"] += 1
            codec["header_bytes"] += len(parts[0]) - _PRELUDE_BYTES
            codec["payload_bytes"] += sum(memoryview(p).nbytes for p in parts[1:])
            return parts

        def timed_decode(header_bytes, body, *args, **kwargs):
            started = time.perf_counter()
            message = decode(header_bytes, body, *args, **kwargs)
            codec["decode_s"] += time.perf_counter() - started
            codec["decoded"] += 1
            codec["header_bytes"] += len(header_bytes)
            codec["payload_bytes"] += len(body)
            return message

        router_module.group_by_shard = timed_group_by_shard
        protocol.encode_frame_parts = timed_encode
        protocol._decode_payload = timed_decode

        def restore():
            router_module.group_by_shard = group_by_shard
            protocol.encode_frame_parts = encode
            protocol._decode_payload = decode

        self._restore.append(restore)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def new_call(self) -> int:
        self._next_call += 1
        return self._next_call

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #

    def rpcs_by_call(self) -> dict:
        grouped = defaultdict(list)
        for rpc in self.rpcs:
            if rpc[2] is not None:
                grouped[rpc[2]].append(rpc)
        return grouped

    def write(self, path: str) -> None:
        """All spans as JSON lines."""
        with open(path, "w") as handle:
            for op, call, start, end in self.router_calls:
                handle.write(json.dumps(
                    {"layer": "router", "op": op, "call": call,
                     "start": start, "end": end}
                ) + "\n")
            for op, address, call, start, end, ok in self.rpcs:
                handle.write(json.dumps(
                    {"layer": "client", "op": op, "address": address,
                     "call": call, "start": start, "end": end, "ok": ok}
                ) + "\n")


class TracedBackend:
    """The router, as the frontend sees it, with a span per call."""

    def __init__(self, router, recorder: Recorder):
        self.router = router
        self.recorder = recorder

    @property
    def cache(self):
        return self.router.cache

    @property
    def write_epoch(self) -> int:
        return self.router.write_epoch

    def cache_put_if_current(self, epoch, source_id, destination_id, value):
        return self.router.cache_put_if_current(epoch, source_id, destination_id, value)

    def cache_put_many_if_current(self, epoch, entries):
        return self.router.cache_put_many_if_current(epoch, entries)

    async def _traced(self, op: str, method, *args, **kwargs):
        call = self.recorder.new_call()
        token = _ROUTER_CALL.set(call)
        started = time.perf_counter()
        try:
            return await method(*args, **kwargs)
        finally:
            self.recorder.router_calls.append((op, call, started, time.perf_counter()))
            _ROUTER_CALL.reset(token)

    async def point(self, source_id, destination_id, deadline=None):
        return await self._traced(
            "point", self.router.point, source_id, destination_id, deadline=deadline
        )

    async def pairs(self, source_ids, destination_ids, deadline=None):
        return await self._traced(
            "pairs", self.router.pairs, source_ids, destination_ids, deadline=deadline
        )

    async def one_to_many(self, source_id, destination_ids):
        return await self._traced(
            "one_to_many", self.router.one_to_many, source_id, destination_ids
        )

    async def k_nearest(self, source_id, k, candidate_ids=None):
        return await self._traced(
            "k_nearest", self.router.k_nearest, source_id, k, candidate_ids=candidate_ids
        )

    async def apply_vector_updates(self, host_ids, outgoing, incoming):
        return await self._traced(
            "apply_vector_updates", self.router.apply_vector_updates,
            host_ids, outgoing, incoming,
        )


def call_breakdown(recorder: Recorder, ops: tuple) -> dict:
    """Per router call of the given ops: duration, slowest RPC, RPCs."""
    by_call = recorder.rpcs_by_call()
    rows = {}
    for op, call, start, end in recorder.router_calls:
        if op not in ops:
            continue
        rpcs = by_call.get(call, [])
        slowest = max((r[4] - r[3] for r in rpcs), default=0.0)
        rows[call] = (start, end, end - start, slowest, len(rpcs))
    return rows
