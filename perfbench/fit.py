"""The fit-p2psim workload: repeated in-process model builds.

Each build is the Table-1 full-matrix models (``SVDFactorizer(10)`` on
P2PSim-1143, ``NMFFactorizer(10)`` on NLANR-110) followed by IDES/SVD
and IDES/NMF with 20 landmarks under one of the Figure-7 masks, both exported
into a 2-shard :class:`DistanceService`. No sockets. A build is one op.
"""

from __future__ import annotations

import json
import os
import time

from . import common, models


def _measure(inputs, reference, seconds: float, tally: common.OpTally) -> dict:
    """Build repeatedly for ``seconds`` of build time; check each build."""
    durations, cpu, builds, accuracies = [], [], [], []
    spent = 0.0
    while spent < seconds or not builds:
        cpu_before = common.cpu_seconds()
        started = time.perf_counter()
        build = models.build_p2psim_models(inputs, len(builds) % models.MASK_DRAWS)
        elapsed = time.perf_counter() - started
        cpu.append(common.cpu_seconds() - cpu_before)
        spent += elapsed
        durations.append(elapsed)
        builds.append(build)
        tally.attempt("build")
        accuracy, problems = reference.check(build)
        accuracies.append(accuracy)
        # Keep the timings, free the fitted models: every object kept
        # alive makes the collector's full passes in later builds slower.
        build.systems = build.services = build.models = {}
        if problems:
            tally.fail("build", "; ".join(problems))
    return {"durations": durations, "cpu": cpu, "builds": builds,
            "accuracy": models.Accuracy.median(accuracies)}


def _end_to_end(setups, run) -> dict:
    builds, durations, accuracy = run["builds"], run["durations"], run["accuracy"]
    return {
        "setup_s": common.median(setups),
        # Medians over the run's builds, so that a few seconds of a
        # slowed-down VM do not move them.
        "ops_per_s": 1.0 / common.median(durations),
        "latency_p50_ms": common.percentile(durations, 50) * 1000.0,
        "latency_p99_ms": common.percentile(durations, 99) * 1000.0,
        "cpu_us_per_op": common.median(run["cpu"]) * 1e6,
        "model_fit_s": common.median([b.model_fit_s for b in builds]),
        "ides_fit_s": common.median([b.ides_fit_s for b in builds]),
        "model_relerr_p50": accuracy.model_p50,
        "ides_svd_relerr_p50": accuracy.ides_svd[0],
        "ides_svd_relerr_p90": accuracy.ides_svd[1],
        "ides_nmf_relerr_p50": accuracy.ides_nmf[0],
        "ides_nmf_relerr_p90": accuracy.ides_nmf[1],
    }


def _per_layer(inputs, traced, untraced, untraced_values, catalog) -> dict:
    values = dict.fromkeys((entry["name"] for entry in catalog), 0.0)
    builds = traced["builds"]
    for name in ("linalg.svd_s", "linalg.nmf_s", "ides.landmark_fit_s",
                 "ides.place_hosts_s.ls", "ides.place_hosts_s.nnls", "service.export_s"):
        values[name] = common.median([b.stages[name] for b in builds])
    values["linalg.nmf_iterations"] = common.median([b.nmf_iterations for b in builds])
    values["ides.mask_groups"] = common.median([models.mask_groups(m) for m in inputs.masks])
    values["unattributed_ms"] = common.median([
        duration - sum(build.stages.values())
        for duration, build in zip(traced["durations"], builds)
    ]) * 1000.0
    values["cpu.client_us_per_op"] = sum(untraced["cpu"]) / len(untraced["cpu"]) * 1e6
    for name in ("latency_p99_ms", "model_fit_s", "ides_fit_s"):
        values[name] = untraced_values[name]
    values["trace.overhead_ratio"] = (
        common.median(traced["durations"]) / common.median(untraced["durations"])
    )
    return values


def _write_spans(path: str, builds) -> None:
    with open(path, "w") as handle:
        for index, build in enumerate(builds):
            for stage, start, end in build.spans:
                handle.write(json.dumps(
                    {"layer": stage.split(".")[0], "stage": stage, "build": index,
                     "start": start, "end": end}
                ) + "\n")


def run(seed: int, seconds: float, trace: bool, out_dir: str, catalog: list):
    tally = common.OpTally()
    setups = []
    for _ in range(common.SETUP_REPEATS):
        started = time.perf_counter()
        inputs = models.P2PSimInputs.generate(seed)
        setups.append(time.perf_counter() - started)
    reference = models.P2PSimReference(inputs)
    _measure(inputs, reference, 0.0, tally)  # one untimed build pays first-call costs
    common.freeze_heap()
    if not trace:
        return tally, _end_to_end(setups, _measure(inputs, reference, seconds, tally)), None
    untraced = _measure(inputs, reference, seconds / 2, tally)
    traced = _measure(inputs, reference, seconds / 2, tally)
    _write_spans(os.path.join(out_dir, f"spans-fit-p2psim-{seed}.jsonl"), traced["builds"])
    values = _end_to_end(setups, untraced)
    return tally, values, _per_layer(inputs, traced, untraced, values, catalog)
