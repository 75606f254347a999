"""Pipelining measurement shared by the transport benchmarks.

Against a single shard-server *process* with a fixed per-request
service time (``work_delay``, modeling real network + gather latency
deterministically), compare

* the **one-in-flight baseline** — a client with ``pool_size=1`` and
  ``max_in_flight=1``: one RPC at a time on one socket, every RPC
  waiting for the previous response; and
* the **pipelined** form — a client on one socket keeping ``depth``
  requests in flight, whose service times overlap on the server.

Both sides issue the identical ``gather`` plan over the identical ids,
so the gap is purely the conversation discipline.
``bench_transport.py`` and ``bench_observability.py`` gate it; both
import this module from their own directory.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.serving.observability import MetricsRegistry, configure_tracing
from repro.serving.transport import RemoteShardClient, spawn_shard_process

__all__ = ["PipelineReport", "measure_pipelined_speedup"]


@dataclass(frozen=True)
class PipelineReport:
    """Outcome of one pipelining comparison run.

    Attributes:
        requests: RPCs issued per strategy.
        depth: pipeline depth of the pipelined client.
        batch: ids gathered per RPC (payload size knob).
        work_delay: per-request service time configured on the shard.
        sequential_seconds: wall time of the one-in-flight baseline.
        pipelined_seconds: wall time of the pipelined client.
    """

    requests: int
    depth: int
    batch: int
    work_delay: float
    sequential_seconds: float
    pipelined_seconds: float

    @property
    def speedup(self) -> float:
        """Baseline time over pipelined time."""
        if self.pipelined_seconds <= 0:
            return 0.0
        return self.sequential_seconds / self.pipelined_seconds

    def __str__(self) -> str:
        return (
            f"{self.requests} gathers of {self.batch} ids, depth "
            f"{self.depth}: one-in-flight "
            f"{self.sequential_seconds * 1000:.0f} ms, pipelined "
            f"{self.pipelined_seconds * 1000:.0f} ms -> "
            f"{self.speedup:.1f}x"
        )


async def _measure_once(
    address: tuple[str, int],
    ids: list,
    requests: int,
    depth: int,
    batch: int,
    registry=None,
) -> tuple[float, float]:
    """(sequential_seconds, pipelined_seconds) over identical plans."""
    picks = [
        [ids[(r * 7 + i) % len(ids)] for i in range(batch)]
        for r in range(requests)
    ]

    baseline = RemoteShardClient(
        *address, pool_size=1, max_in_flight=1, timeout=30.0
    )
    pipelined = RemoteShardClient(
        *address, pool_size=1, max_in_flight=depth, timeout=30.0
    )
    if registry is not None:
        baseline.bind_metrics(registry)
        pipelined.bind_metrics(registry)
    try:
        # Warm both connections before timing.
        await baseline.call("ping")
        await pipelined.call("ping")

        started = time.perf_counter()
        for plan in picks:
            await baseline.call("gather", {"ids": plan, "which": "out"})
        sequential = time.perf_counter() - started

        window = asyncio.Semaphore(depth)

        async def one(plan: list) -> None:
            async with window:
                await pipelined.call("gather", {"ids": plan, "which": "out"})

        started = time.perf_counter()
        await asyncio.gather(*(one(plan) for plan in picks))
        elapsed = time.perf_counter() - started

        for client in (baseline, pipelined):
            if client.open_connections != 1:
                raise ValidationError(
                    "measurement leaked onto "
                    f"{client.open_connections} sockets"
                )
        return sequential, elapsed
    finally:
        await baseline.close()
        await pipelined.close()


def measure_pipelined_speedup(
    depth: int = 16,
    requests: int = 96,
    batch: int = 32,
    work_delay: float = 0.002,
    dimension: int = 10,
    n_hosts: int = 256,
    attempts: int = 3,
    instrument: bool = False,
) -> PipelineReport:
    """Spawn one shard process and compare the two disciplines.

    Best-of-``attempts`` to absorb scheduler noise on loaded CI
    runners; the gap is architectural (requests/depth versus requests
    sequential service times), so one clean run suffices.

    ``instrument=True`` runs the identical measurement with the full
    telemetry plane live on both sides — client RPC histograms bound
    to a fresh registry, tracing enabled in this process, and the
    shard process running its own registry and tracer — so
    ``bench_observability.py`` can gate the overhead of observability
    against the plain run.
    """
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    rng = np.random.default_rng(3)
    ids = [f"h{i}" for i in range(n_hosts)]
    outgoing = rng.random((n_hosts, dimension)) + 0.5
    incoming = rng.random((n_hosts, dimension)) + 0.5

    process = spawn_shard_process(
        0, 1, dimension=dimension, work_delay=work_delay, telemetry=instrument
    )
    registry = None
    if instrument:
        registry = MetricsRegistry()
        configure_tracing(enabled=True, service="bench-client")

    async def seed() -> None:
        client = RemoteShardClient(*process.address, timeout=30.0)
        try:
            await client.call(
                "put_many",
                {"ids": ids},
                {"outgoing": outgoing, "incoming": incoming},
            )
        finally:
            await client.close()

    try:
        asyncio.run(seed())
        best: tuple[float, float] | None = None
        for _ in range(attempts):
            sequential, pipelined = asyncio.run(
                _measure_once(
                    process.address, ids, requests, depth, batch, registry
                )
            )
            if best is None or sequential / pipelined > best[0] / best[1]:
                best = (sequential, pipelined)
        return PipelineReport(
            requests=requests,
            depth=depth,
            batch=batch,
            work_delay=work_delay,
            sequential_seconds=best[0],
            pipelined_seconds=best[1],
        )
    finally:
        if instrument:
            configure_tracing(enabled=False)
        process.stop()
