"""Shared helpers: statistics, CPU accounting, op tallies, result lines."""

from __future__ import annotations

import gc
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

#: How many times a run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 9

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int | None = None) -> float:
    """User + system CPU time of one process, from ``/proc/<pid>/stat``.

    The load process itself (``pid=None``) reads the same counter at
    nanosecond resolution through ``time.process_time``.
    """
    if pid is None:
        return time.process_time()
    with open(f"/proc/{pid}/stat") as handle:
        # Fields after the parenthesised command name; utime and stime
        # are fields 14 and 15 of the record (indices 11 and 12 here).
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def pin_to_one_cpu() -> None:
    """Run the load process, and so the shard processes it spawns (they
    inherit its affinity), on one CPU.

    With the load process and the shards on different vCPUs of a small
    shared VM, every RPC woke an idle vCPU, and how long that took
    swung with the host's other tenants (mixed-zipf-rw p50 1.4 or
    2.4 ms from run to run at equal CPU per op). On one CPU a reply
    runs as soon as its sender blocks, so the serving figures follow
    the stack's own CPU cost. The price: overlap between the load
    process and the shards cannot show.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def freeze_heap() -> None:
    """Move everything allocated so far out of the garbage collector's
    view, so full collections during a measured phase scan only what the
    phase allocates. Without it, the benchmark's own inputs (schedules,
    data sets, answer logs) cost 70-80 ms gen-2 pauses that show up as
    latency of whatever request was in flight."""
    gc.collect()
    gc.freeze()


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    return float(np.percentile(values, q))


def median(values) -> float:
    return percentile(values, 50)


@dataclass
class OpTally:
    """Ops attempted and failed, per op kind."""

    attempted: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    #: First few failure descriptions, for the stderr report.
    examples: list = field(default_factory=list)

    def attempt(self, kind: str) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1

    def fail(self, kind: str, reason: str) -> None:
        self.failed[kind] = self.failed.get(kind, 0) + 1
        if len(self.examples) < 10:
            self.examples.append(f"{kind}: {reason}")

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    def report(self) -> str:
        kinds = sorted(set(self.attempted) | set(self.failed))
        return ", ".join(
            f"{kind} {self.attempted.get(kind, 0)} attempted / "
            f"{self.failed.get(kind, 0)} failed"
            for kind in kinds
        )


def load_catalog(root: str) -> dict:
    """The benchmark definition (metric names and units)."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)


def result_line(tally: OpTally, values: dict, catalog: list[dict]) -> str:
    """The final JSON line: every catalog metric with its unit.

    A metric the workload did not produce is a programming error of
    the benchmark, so it raises rather than printing a partial line.
    """
    missing = [entry["name"] for entry in catalog if entry["name"] not in values]
    if missing:
        raise KeyError(f"workload produced no value for {missing}")
    metrics = {
        entry["name"]: {"value": float(values[entry["name"]]), "unit": entry["unit"]}
        for entry in catalog
    }
    return json.dumps(
        {
            "correct": tally.total_failed == 0,
            "attempted": int(tally.total_attempted),
            "failed": int(tally.total_failed),
            "metrics": metrics,
        }
    )
