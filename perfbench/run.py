#!/usr/bin/env python3
"""The tailormatch benchmark: four workloads against the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tailormatch source tree. The first run builds the
`tailormatch` CLI and the benchmark's helper `pbtool` under .bench_build/.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a separate traced run. The
line before it is the shared header (host, build, seed, checkpoint hash).
perfbench/README.md describes the workloads and every metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from benchlib import common, traced, workloads  # noqa: E402
from benchlib.common import BenchError, log  # noqa: E402

WORKLOADS = tuple(workloads.METRICS)


def measure(run, workload, trace):
    if trace:
        return traced.measure(run, workload)
    if workload in ("finetune-wdc", "dedup-100k"):
        return workloads.batch_workload(run, workload)
    return workloads.serve_workload(run, workload)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return [m["name"] for m in declared["per_layer" if trace else
                                        "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int,
                        default=common.CONFIG["default_seed"])
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        tools = common.build()
    except (BenchError, subprocess.CalledProcessError, OSError) as error:
        log(f"build failed: {error}")
        return 1
    work = os.path.join(common.ROOT, ".bench_build", "work",
                        f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    run = common.Run(tools, work, args.seed, args.seconds)
    try:
        metrics = measure(run, args.workload, args.trace)
        head = common.header(args.seed, run.checkpoint)
        missing = set(declared_metrics(args.trace)) - set(metrics)
        if missing:
            raise BenchError(f"no value for {sorted(missing)}")
    except BenchError as error:
        log(f"run failed: {error}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = declared_metrics(args.trace)
    # The serving workloads' p50_ms and max_rate_at_slo, when not declared.
    run.details["undeclared_metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items() if name not in declared}
    metrics = {name: metrics[name] for name in declared}

    result = {
        "correct": all(check["ok"] for check in run.checks),
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"header": head, "workload": args.workload,
                      "checks": run.checks, "details": run.details},
                     default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
