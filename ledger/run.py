#!/usr/bin/env python3
"""dalut benchmark ledger: one command per workload run.

    python3 ledger/run.py --workload table2-w12 --seed 1 --seconds 20 --trace 0

Builds the dalut_ledger harness from this checkout's sources (CMake, Release,
into $CARGO_TARGET_DIR or .bench_build), runs one workload at the given
seed, checks every output, and prints the metrics. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics. Earlier stdout lines carry the
host fingerprint, the thread budget and a readable copy of the metrics.
README.md in this directory describes workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ledger_metrics  # noqa: E402

WORKLOADS = ("table2-w12", "nd-w14", "serve-w12")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out_dir):
    """Configures and builds the harness (both no-ops when up to date);
    build output goes to stderr. Returns the harness's path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(out_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out_dir), "--target", "dalut_ledger",
              "-j", jobs]]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=max(1.0, deadline - time.monotonic()))
    return out_dir / "dalut_ledger"


def run_harness(binary, args, scratch, extra=()):
    """Runs one workload; returns (raw measurements, trace or None)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch), *extra]
    proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S)
    raw = json.loads(proc.stdout)
    trace = None
    if args.trace:
        with open(scratch / "trace.json", encoding="utf-8") as f:
            trace = json.load(f)
    return raw, trace


def report(raw, trace):
    """The result object, after printing the fingerprint and a readable
    copy of the metrics."""
    if trace is None:
        metrics, units = ledger_metrics.end_to_end(raw), ledger_metrics.END_TO_END
    else:
        metrics, units = ledger_metrics.per_layer(raw, trace), ledger_metrics.PER_LAYER
    print("host " + json.dumps(raw["host"], sort_keys=True))
    print("threads " + json.dumps(raw["threads"], sort_keys=True))
    for reason in raw["failures"]:
        print("FAILED " + reason)
    for name, value in metrics.items():
        if name == "layer.unattributed.share":
            print(f"{'unattributed (no span covers it)':<32} {value:.6g} share of traced wall")
        else:
            print(f"{name:<32} {value:.6g} {units[name]}")
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.SubprocessError, OSError) as error:
        print(f"ledger: build failed: {error}", file=sys.stderr)
        return 1
    scratch = out_dir / "scratch" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        raw, trace = run_harness(binary, args, scratch)
    except (subprocess.SubprocessError, OSError, ValueError) as error:
        print(f"ledger: run failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(report(raw, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
