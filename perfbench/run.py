"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mixed-zipf-rw --seed 1 --seconds 45 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs an untraced and a traced phase (half the seconds
each) and prints every per-layer metric. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when every answer checked out, 1 when
any op failed or returned a wrong answer, 2 when the benchmark could
not run at all.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# One BLAS thread: the load process and the shard processes share two
# cores, and competing BLAS threads only add run-to-run noise.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

WORKLOADS = ("point-uniform", "mixed-zipf-rw", "fit-p2psim")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still stops its shard processes: SystemExit runs
    # the interpreter's exit hooks, which end daemonic children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {source}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [source, ROOT]
    from perfbench import common, fit, serving

    common.pin_to_one_cpu()
    catalog = common.load_catalog(ROOT)
    metrics = catalog["per_layer" if args.trace else "end_to_end"]
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    if args.workload == "fit-p2psim":
        tally, values, layers = fit.run(
            args.seed, args.seconds, bool(args.trace), out_dir, metrics
        )
    else:
        tally, values, layers = serving.run(
            args.workload, args.seed, args.seconds, bool(args.trace), out_dir, metrics
        )
    for entry in catalog["end_to_end"]:
        print(f"{entry['name']:<24} {values[entry['name']]:14.6g} {entry['unit']}")
    if layers is not None:
        for entry in catalog["per_layer"]:
            print(f"{entry['name']:<40} {layers[entry['name']]:14.6g} {entry['unit']}")
    print(f"ops: {tally.report()}", file=sys.stderr)
    for example in tally.examples:
        print(f"failed: {example}", file=sys.stderr)
    print(common.result_line(tally, layers if args.trace else values, metrics))
    return 0 if tally.total_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
