"""The serving workloads, against real shard server processes.

``point-uniform``: closed loop, :data:`CALLERS` asyncio callers, each
awaiting one uniform-random point query at a time through
:class:`AsyncDistanceFrontend` into a :class:`ShardedQueryRouter` over
:data:`N_SHARDS` shard processes (one pooled connection per shard).
The cache is never populated, so every query crosses the wire.

``mixed-zipf-rw``: closed loop, :data:`MIXED_CALLERS` callers, over
one hash slice served by two replica processes. The mix is
Zipf-skewed cached point queries, 1:N fan-outs, k-NN scans and 64-host
refresh writes through a single sequential writer (as a refresh worker
flushes).

Every answer is kept and checked afterwards against
``outgoing @ incoming.T`` of the vectors the benchmark seeded and
wrote (see :mod:`perfbench.checks`).
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import relative_errors
from repro.exceptions import ReproError
from repro.serving import AsyncDistanceFrontend
from repro.serving.observability import parse_prometheus_text
from repro.serving.observability.httpd import scrape
from repro.serving.transport import (
    RemoteShardClient,
    connect_replica_router,
    connect_router,
    spawn_shard_process,
)

from . import checks, common, models
from .tracing import Recorder, TracedBackend, call_breakdown

CALLERS = 128
N_SHARDS = 2
N_REPLICAS = 2
MIXED_CALLERS = 16
ZIPF_EXPONENT = 1.2
FANOUT_CANDIDATES = 256
K_NEAREST = 10
WRITE_HOSTS = 64
#: Op mix of mixed-zipf-rw: point, 1:N, k-NN, refresh write.
MIX = (0.85, 0.05, 0.05, 0.05)
READ_KINDS = ("point", "fanout", "nearest")
#: Share of a refresh write's vector perturbation (relative noise).
WRITE_DRIFT = 0.05
WARMUP_SECONDS = {"point-uniform": 1.0, "mixed-zipf-rw": 2.0}
#: Wire operations the per-layer client metrics report.
WIRE_OPS = ("gather", "fanout", "nearest", "update_many")
ROUTER_OPS = ("pairs", "one_to_many", "k_nearest", "apply_vector_updates")


# ---------------------------------------------------------------------- #
# the cluster
# ---------------------------------------------------------------------- #


class Cluster:
    """Shard processes plus the router connected to them."""

    def __init__(self, processes, router):
        self.processes = processes
        self.router = router

    @classmethod
    async def boot(cls, replicated: bool, telemetry: bool) -> "Cluster":
        """Spawn the shard processes, connect the router."""
        telemetry_options = {"telemetry": True, "metrics_port": 0} if telemetry else {}
        if replicated:
            processes = [
                spawn_shard_process(0, 1, dimension=models.DIMENSION, **telemetry_options)
                for _ in range(N_REPLICAS)
            ]
            addresses = [[p.address for p in processes]]
            router = await connect_replica_router(addresses, pool_size=2)
        else:
            processes = [
                spawn_shard_process(i, N_SHARDS, dimension=models.DIMENSION, **telemetry_options)
                for i in range(N_SHARDS)
            ]
            router = await connect_router([p.address for p in processes], pool_size=1)
        return cls(processes, router)

    @property
    def pids(self) -> list[int]:
        return [p.process.pid for p in self.processes]

    @property
    def members(self) -> list:
        """One wire client per shard process."""
        return [
            member
            for client in self.router.clients
            for member in getattr(client, "clients", [client])
        ]

    async def seed(self, outgoing: np.ndarray, incoming: np.ndarray) -> None:
        """``put_many`` every host, in 64-host writes."""
        for first in range(0, outgoing.shape[0], WRITE_HOSTS):
            ids = list(range(first, min(first + WRITE_HOSTS, outgoing.shape[0])))
            await self.router.put_many(ids, outgoing[ids], incoming[ids])

    async def health(self) -> list[dict]:
        """The health RPC of every shard process."""
        return [(await member.call("health")).fields for member in self.members]

    def scrape(self) -> dict:
        """Summed ``/metrics`` series of every shard process."""
        totals: dict = {}
        for process in self.processes:
            host, port = process.metrics_address
            series = parse_prometheus_text(scrape(f"{host}:{port}"))
            for name, samples in series.items():
                for labels, value in samples.items():
                    key = (name, tuple(item for item in labels if item[0] != "shard"))
                    totals[key] = totals.get(key, 0.0) + value
        return totals

    async def close(self) -> None:
        await self.router.close()
        for process in self.processes:
            client = RemoteShardClient(process.host, process.port, retries=0, timeout=2.0)
            try:
                await client.call("shutdown")
            except (ReproError, OSError):
                pass  # already gone: the join below still reaps it
            finally:
                await client.close()
        for process in self.processes:
            process.process.join(timeout=5.0)
            if process.process.is_alive():
                process.process.terminate()
                process.process.join(timeout=5.0)


# ---------------------------------------------------------------------- #
# load generation
# ---------------------------------------------------------------------- #


@dataclass
class Phase:
    """Everything one measured window produced."""

    start: float
    end: float
    #: ``(kind, request, answer, submitted, done, cache_hit)`` per read,
    #: where ``request`` is the query's arguments.
    reads: list = field(default_factory=list)
    #: ``(ids, outgoing, incoming, issued, acked, queued)`` per write:
    #: ``queued`` is when its caller asked for it, ``issued`` when it
    #: went out (one write is in flight at a time).
    writes: list = field(default_factory=list)
    #: ``(time, load process, shard processes)`` CPU seconds at the
    #: start of every second of the measured window and at its end.
    cpu_marks: list = field(default_factory=list)
    #: Ops that succeeded in the measured window (set by ``end_to_end``).
    ops: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def in_window(self, timestamp: float) -> bool:
        return self.start <= timestamp < self.end


async def _window_cpu(phase: Phase, pids: list[int]) -> None:
    """Read CPU counters every second of the measured window."""
    for edge in np.linspace(phase.start, phase.end, max(round(phase.seconds), 1) + 1):
        await asyncio.sleep(max(edge - time.perf_counter(), 0.0))
        phase.cpu_marks.append((
            time.perf_counter(),
            common.cpu_seconds(),
            sum(common.cpu_seconds(pid) for pid in pids),
        ))


async def closed_loop(frontend, seed: int, warmup: float, seconds: float, pids) -> Phase:
    """point-uniform: CALLERS callers, one point query in flight each."""
    start = time.perf_counter() + warmup
    phase = Phase(start, start + seconds)
    reads = phase.reads

    async def caller(index: int) -> None:
        rng = np.random.default_rng([seed, 10, index])
        while True:
            for source, destination in rng.integers(0, models.N_SERVING_HOSTS, (1024, 2)).tolist():
                submitted = time.perf_counter()
                if submitted >= phase.end:
                    return
                try:
                    answer = await frontend.query(source, destination)
                except ReproError as error:
                    answer = error
                reads.append(
                    ("point", (source, destination), answer, submitted,
                     time.perf_counter(), False)
                )

    await asyncio.gather(_window_cpu(phase, pids), *(caller(i) for i in range(CALLERS)))
    return phase


async def mixed_loop(
    frontend, writer_backend, vectors, seed: int, warmup: float, seconds: float, pids
) -> Phase:
    """mixed-zipf-rw: :data:`MIXED_CALLERS` callers, each issuing the
    next op of its own seeded stream once its previous op completed.
    One write is in flight at a time (as a refresh worker flushes), so
    writes are totally ordered."""
    start = time.perf_counter() + warmup
    phase = Phase(start, start + seconds)
    reads, writes = phase.reads, phase.writes
    outgoing, incoming = vectors
    n_hosts = outgoing.shape[0]
    ranks = np.arange(1, n_hosts + 1, dtype=float) ** -ZIPF_EXPONENT
    zipf = ranks / ranks.sum()
    # Which hosts are popular is a property of the fixed network, like
    # its layout; the seed draws the query streams over them.
    popular = np.random.default_rng(models.NETWORK_SEED).permutation(n_hosts)
    write_lock = asyncio.Lock()

    async def write(ids, new_out, new_in, queued) -> None:
        async with write_lock:
            issued = time.perf_counter()
            try:
                await writer_backend.apply_vector_updates(ids, new_out, new_in)
                acked = time.perf_counter()
            except ReproError as error:
                acked = error
            writes.append((ids, new_out, new_in, issued, acked, queued))

    async def caller(index: int) -> None:
        rng = np.random.default_rng([seed, 20, index])
        while True:
            kinds = rng.choice(4, 256, p=MIX).tolist()
            sources = popular[rng.choice(n_hosts, 256, p=zipf)].tolist()
            destinations = popular[rng.choice(n_hosts, 256, p=zipf)].tolist()
            for kind, source, destination in zip(kinds, sources, destinations):
                submitted = time.perf_counter()
                if submitted >= phase.end:
                    return
                if kind == 3:
                    ids = np.sort(rng.choice(n_hosts, WRITE_HOSTS, replace=False))
                    drift = 1.0 + WRITE_DRIFT * rng.standard_normal((2, WRITE_HOSTS, 1))
                    await write(ids.tolist(), outgoing[ids] * drift[0],
                                incoming[ids] * drift[1], submitted)
                    continue
                hit = False
                try:
                    if kind == 0:
                        request = (source, destination)
                        future = frontend.submit(source, destination)
                        hit = future.done()
                        answer = await future
                    elif kind == 1:
                        request = (source, rng.choice(n_hosts, FANOUT_CANDIDATES,
                                                      replace=False).tolist())
                        answer = await frontend.query_one_to_many(*request)
                    else:
                        request = (source, K_NEAREST)
                        answer = await frontend.k_nearest(*request)
                except ReproError as error:
                    answer = error
                reads.append((READ_KINDS[kind], request, answer, submitted,
                              time.perf_counter(), hit))

    await asyncio.gather(_window_cpu(phase, pids), *(caller(i) for i in range(MIXED_CALLERS)))
    return phase


# ---------------------------------------------------------------------- #
# the workloads
# ---------------------------------------------------------------------- #


class ServingWorkload:
    """One serving workload run: set-up, measured phase(s), checks."""

    def __init__(self, name: str, seed: int, seconds: float, out_dir: str,
                 catalog: list):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.catalog = catalog
        self.replicated = name == "mixed-zipf-rw"
        self.tally = common.OpTally()

    # --- set-up ---------------------------------------------------------

    def _build(self, network, reference) -> tuple[models.Build, models.Accuracy]:
        build = models.build_serving_models(network)
        accuracy, problems = reference.check(build)
        self.tally.attempt("fit")
        for problem in problems:
            self.tally.fail("fit", problem)
        return build, accuracy

    async def set_up(self) -> Cluster:
        """Build the served model, then boot the cluster several times;
        the last cluster is kept for the measured phase.

        The model is fitted once per landmark measurement campaign
        (:data:`models.CAMPAIGNS` of them, after one untimed build
        that pays the first-call costs); the last campaign's model is
        served.
        """
        builds, accuracies, setups = [], [], []
        for draw in range(models.CAMPAIGNS):
            network = models.ServingNetwork(self.seed, draw)
            reference = models.ServingReference(network)
            common.freeze_heap()  # no gen-2 pause inside a timed build
            if draw == 0:
                self._build(network, reference)
            build, accuracy = self._build(network, reference)
            builds.append(build)
            accuracies.append(accuracy)
            served = models.ServingReference.served_vectors(build)
            build.systems = build.services = {}  # keep the timings, free the models
        self.network = network
        self.accuracy = models.Accuracy.median(accuracies)
        self.outgoing, self.incoming = served
        self.builds = builds
        cluster = None
        for _ in range(common.SETUP_REPEATS):
            if cluster is not None:
                await cluster.close()
            started = time.perf_counter()
            cluster = await Cluster.boot(self.replicated, False)
            await cluster.seed(self.outgoing, self.incoming)
            setups.append(time.perf_counter() - started)
        self.setups = setups
        return cluster

    # --- one measured phase ---------------------------------------------

    async def measure(self, cluster: Cluster, recorder: Recorder | None) -> Phase:
        self.health_before = await cluster.health()
        self.cache_before = cluster.router.cache.stats()
        backend = cluster.router
        if recorder is not None:
            for member in cluster.members:
                recorder.wrap_client(member)
            recorder.install()
            backend = TracedBackend(cluster.router, recorder)
        warmup = WARMUP_SECONDS[self.name]
        try:
            if self.replicated:
                common.freeze_heap()
                frontend = AsyncDistanceFrontend(backend, populate_cache=True)
                async with frontend:
                    phase = await mixed_loop(
                        frontend, backend, (self.outgoing, self.incoming),
                        self.seed, warmup, self.seconds, cluster.pids,
                    )
            else:
                common.freeze_heap()
                frontend = AsyncDistanceFrontend(backend)
                async with frontend:
                    phase = await closed_loop(
                        frontend, self.seed, warmup, self.seconds, cluster.pids
                    )
        finally:
            if recorder is not None:
                recorder.uninstall()
        self.frontend_stats = frontend.stats()
        self.health_after = await cluster.health()
        self.cache_after = cluster.router.cache.stats()
        checks.check_phase(phase, self.outgoing, self.incoming, self.tally)
        return phase

    # --- metrics ----------------------------------------------------------

    def end_to_end(self, phase: Phase) -> dict:
        """End-to-end metrics of a phase's measured window, plus the
        untraced figures the per-layer set reports."""
        reads = [r for r in phase.reads if phase.in_window(r[3])]
        latency = [
            np.inf if isinstance(r[2], Exception) else (r[4] - r[3]) * 1000.0
            for r in reads
        ]
        acked = [w for w in phase.writes
                 if not isinstance(w[4], Exception) and phase.in_window(w[5])]
        # Ops issued in the window that succeeded.
        phase.ops = float(sum(1 for r in reads if not isinstance(r[2], Exception)) + len(acked))
        write_ms = [(w[4] - w[5]) * 1000.0 for w in acked]
        # Throughput and CPU per op are medians over the window's seconds,
        # so that a few seconds of a slowed-down VM do not move them.
        marks = np.array(phase.cpu_marks)
        issued = [r[3] for r in reads if not isinstance(r[2], Exception)]
        issued += [w[5] for w in acked]
        per_second = np.histogram(issued, bins=marks[:, 0])[0]
        cpu = np.diff(marks[:, 1]) + np.diff(marks[:, 2])
        durations = np.diff(marks[:, 0])
        # Each distinct pair answered counts once: under Zipf skew a few
        # popular pairs would otherwise make the error a draw of the seed.
        answered = {
            r[1]: float(r[2]) for r in reads
            if r[0] == "point" and not isinstance(r[2], Exception) and r[1][0] != r[1][1]
        }
        sources, destinations = np.array(list(answered)).T
        served = np.array(list(answered.values()))
        truth = self.network.truth(sources, destinations)
        served_relerr = relative_errors(truth[None, :], served[None, :])
        builds = self.builds
        values = {
            "setup_s": common.median(self.setups),
            "ops_per_s": common.median(per_second / durations),
            "latency_p50_ms": common.percentile(latency, 50),
            "latency_p99_ms": common.percentile(latency, 99),
            "cpu_us_per_op": common.median(cpu / np.maximum(per_second, 1)) * 1e6,
            "write_p50_ms": common.median(write_ms),
            "model_fit_s": common.median([b.model_fit_s for b in builds]),
            "ides_fit_s": common.median([b.ides_fit_s for b in builds]),
            "model_relerr_p50": float(np.median(served_relerr)),
            "ides_svd_relerr_p50": self.accuracy.ides_svd[0],
            "ides_svd_relerr_p90": self.accuracy.ides_svd[1],
            "ides_nmf_relerr_p50": self.accuracy.ides_nmf[0],
            "ides_nmf_relerr_p90": self.accuracy.ides_nmf[1],
        }
        return values

    def per_layer(self, phase: Phase, recorder: Recorder, cluster: Cluster,
                  untraced: Phase, untraced_values: dict) -> dict:
        """The traced ``phase``'s per-layer budget; CPU split, p99 and the
        tracing overhead against the ``untraced`` phase."""
        # Layers this workload's traffic never reaches (e.g. replicas on
        # point-uniform, full-matrix fits on either) did no work: 0.
        values = dict.fromkeys((entry["name"] for entry in self.catalog), 0.0)
        traced_p50 = self.end_to_end(phase)["latency_p50_ms"]  # also counts phase.ops
        window_reads = [r for r in phase.reads if phase.in_window(r[3])]
        ops = max(phase.ops, 1)
        stats = self.frontend_stats
        values["frontend.batch_size_mean"] = stats.mean_batch
        values["frontend.cache_hit_ratio"] = stats.cache_hits / max(stats.submitted, 1)

        # Point requests against the backend call each rode: the point
        # path's calls never overlap (one dispatcher), so a request
        # rode the last such call that ended before it resumed.
        calls = call_breakdown(recorder, ("pairs", "point"))
        ordered = sorted(calls.values(), key=lambda row: row[1])
        ends = np.array([row[1] for row in ordered])
        waits, pre_call, selves, slowest, latencies = [], [], [], [], []
        for kind, _request, answer, submitted, done, hit in window_reads:
            if kind != "point" or hit or isinstance(answer, Exception):
                continue
            position = int(np.searchsorted(ends, done, side="right")) - 1
            if position < 0:
                continue
            start, end, duration, slow, _rpcs = ordered[position]
            if start < submitted - 1e-6:
                continue  # resolved without a backend call of its own
            latencies.append(done - submitted)
            waits.append(done - submitted - duration)
            pre_call.append(start - submitted)
            selves.append(duration - slow)
            slowest.append(slow)
        values["frontend.queue_wait_ms_p50"] = common.median(waits) * 1000.0
        values["router.self_ms_p50"] = common.median(
            [duration - slow for _s, _e, duration, slow, _r in calls.values()]
        ) * 1000.0
        values["unattributed_ms"] = (
            np.mean(latencies) - np.mean(pre_call) - np.mean(selves) - np.mean(slowest)
        ) * 1000.0 if latencies else 0.0
        values["router.rpcs_per_call"] = (
            float(np.mean([row[4] for row in calls.values()])) if calls else 0.0
        )

        for op in ROUTER_OPS:
            durations = [end - start for name, _c, start, end in recorder.router_calls if name == op]
            values[f"router.call_ms_p50.{op}"] = common.percentile(durations, 50) * 1000.0
            values[f"router.call_ms_p99.{op}"] = common.percentile(durations, 99) * 1000.0
        values["router.group_by_shard_us_per_id"] = (
            recorder.group_seconds / max(recorder.group_ids, 1) * 1e6
        )

        server = cluster.scrape()
        server_ms = {}
        for op in WIRE_OPS:
            total = server.get(("ides_server_request_seconds_sum", (("op", op),)), 0.0)
            count = server.get(("ides_server_request_seconds_count", (("op", op),)), 0.0)
            server_ms[op] = total / count * 1000.0 if count else 0.0
            values[f"server.request_ms_mean.{op}"] = server_ms[op]
            durations = [r[4] - r[3] for r in recorder.rpcs if r[0] == op and r[5]]
            values[f"client.rpc_ms_p50.{op}"] = common.percentile(durations, 50) * 1000.0
            values[f"client.rpc_ms_p99.{op}"] = common.percentile(durations, 99) * 1000.0
        wire = [
            (r[4] - r[3]) * 1000.0 - server_ms[r[0]]
            for r in recorder.rpcs if r[0] in server_ms and r[5]
        ]
        values["transport.wire_ms_p50"] = common.median(wire)
        values["server.shed_total"] = sum(
            value for (name, _labels), value in server.items()
            if name == "ides_server_shed_total"
        )
        values["client.errors"] = sum(1 for r in recorder.rpcs if not r[5])
        values["client.retries"] = sum(m.retries_used for m in cluster.members)

        codec = recorder.codec
        rpc_count = max(len(recorder.rpcs), 1)
        values["codec.encode_us_per_frame"] = codec["encode_s"] / max(codec["encoded"], 1) * 1e6
        values["codec.decode_us_per_frame"] = codec["decode_s"] / max(codec["decoded"], 1) * 1e6
        values["codec.header_bytes_per_rpc"] = codec["header_bytes"] / rpc_count
        values["codec.payload_bytes_per_rpc"] = codec["payload_bytes"] / rpc_count

        _time, client, shards = np.subtract(untraced.cpu_marks[-1], untraced.cpu_marks[0])
        values["cpu.client_us_per_op"] = client / max(untraced.ops, 1) * 1e6
        values["cpu.shards_us_per_op"] = shards / max(untraced.ops, 1) * 1e6

        pairs_delta = sum(a["pairs_evaluated"] for a in self.health_after) - sum(
            b["pairs_evaluated"] for b in self.health_before
        )
        values["engine.pairs_evaluated_per_op"] = pairs_delta / ops

        cache_before, cache_after = self.cache_before, self.cache_after
        lookups = (cache_after.hits + cache_after.misses) - (
            cache_before.hits + cache_before.misses
        )
        values["cache.hit_ratio"] = (cache_after.hits - cache_before.hits) / max(lookups, 1)
        writes = len(phase.writes)
        if writes:
            values["cache.invalidations_per_write"] = (
                cache_after.invalidations - cache_before.invalidations
            ) / writes
            appended = sum(a["journal_seq"] for a in self.health_after) - sum(
                b["journal_seq"] for b in self.health_before
            )
            values["journal.appends_per_write"] = appended / writes

        if self.replicated:
            group = cluster.router.clients[0]
            replicas = group.replica_health()
            read_counts = {}
            for op, address, _call, _s, _e, _ok in recorder.rpcs:
                if op not in ("update_many", "put_many"):
                    read_counts[address] = read_counts.get(address, 0) + 1
            values["replica.read_share_max"] = max(read_counts.values()) / max(
                sum(read_counts.values()), 1
            )
            values["replica.failures"] = sum(r.failures for r in replicas)
            values["replica.seq_lag_max"] = max((r.seq_lag or 0) for r in replicas)

        for name in ("ides.landmark_fit_s", "ides.place_hosts_s.ls",
                     "ides.place_hosts_s.nnls", "service.export_s"):
            values[name] = common.median([b.stages[name] for b in self.builds])
        values["ides.mask_groups"] = 1.0  # every host observes every landmark

        values["trace.overhead_ratio"] = traced_p50 / untraced_values["latency_p50_ms"]
        for name in ("latency_p99_ms", "write_p50_ms", "model_fit_s", "ides_fit_s"):
            values[name] = untraced_values[name]
        return values

    # --- run --------------------------------------------------------------

    async def run(self, trace: bool) -> tuple[dict, dict | None]:
        cluster = await self.set_up()
        try:
            phase = await self.measure(cluster, recorder=None)
            values = self.end_to_end(phase)
        finally:
            await cluster.close()
        if not trace:
            return values, None
        cluster = await Cluster.boot(self.replicated, True)
        try:
            await cluster.seed(self.outgoing, self.incoming)
            recorder = Recorder()
            traced = await self.measure(cluster, recorder)
            layers = self.per_layer(traced, recorder, cluster, phase, values)
        finally:
            await cluster.close()
        recorder.write(os.path.join(self.out_dir, f"spans-{self.name}-{self.seed}.jsonl"))
        return values, layers


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: str,
        catalog: list):
    """One run; a traced run splits ``seconds`` between an untraced and
    a traced phase."""
    workload = ServingWorkload(
        name, seed, seconds / 2 if trace else seconds, out_dir, catalog
    )
    values, layers = asyncio.run(workload.run(trace))
    return workload.tally, values, layers
