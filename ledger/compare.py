#!/usr/bin/env python3
"""Compares two sets of ledger results, e.g. a parent commit and a change.

    python3 ledger/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds the saved stdout of ledger/run.py runs, one file per
run, named <workload>.<anything> (e.g. `nd-w14.seed3.txt`); files whose
last line is not a result are skipped. For every
workload x end-to-end metric it prints each set's median and quartiles in
the metric's own unit, and flags a difference only when the new median is
worse than the base median by more than the metric's bound in
BENCHMARK.json. A metric whose spread (IQR / median) exceeds its bound in
either set is reported as unresolved unless every new run beats every base
run. Exits 1 when any metric is flagged worse, else 0.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ledger_metrics import iqr_share  # noqa: E402


def load_set(directory):
    """{workload: {metric: [values]}} plus the host lines seen."""
    values = defaultdict(lambda: defaultdict(list))
    hosts = set()
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        try:
            result = json.loads(lines[-1])
            metrics = result["metrics"]
        except (IndexError, ValueError, KeyError, TypeError):
            continue  # not a run.py result (e.g. a saved stderr log)
        workload = path.name.split(".")[0]
        for name, metric in metrics.items():
            values[workload][name].append(metric["value"])
        hosts.update(line for line in lines if line.startswith("host "))
    return values, hosts


def verdict(spec, base, new):
    """'worse', 'better', 'unresolved' or 'same' for one metric."""
    bound = spec["bound"]
    lower = spec["better"] == "lower"
    b, n = statistics.median(base), statistics.median(new)
    worse = n > b * (1 + bound) if lower else n < b * (1 - bound)
    better = n < b * (1 - bound) if lower else n > b * (1 + bound)
    beats_all = (max(new) < min(base)) if lower else (min(new) > max(base))
    noisy = any(len(v) >= 2 and iqr_share(v) > bound for v in (base, new))
    if worse:
        return "worse"
    if better or (beats_all and noisy):
        return "better"
    if noisy:
        return "unresolved"
    return "same"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def compare(benchmark, base, new):
    """Prints the comparison table; returns the number of worse metrics."""
    worse = 0
    header = (f"{'workload':<12} {'metric':<18} {'unit':<6} {'base median':>13} "
              f"{'base q1..q3':>25} {'new median':>13} {'new q1..q3':>25} "
              f"{'change':>8} {'bound':>6}  verdict")
    print(header)
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            b = base.get(workload, {}).get(name, [])
            n = new.get(workload, {}).get(name, [])
            if not b or not n:
                print(f"{workload:<12} {name:<18} missing in "
                      f"{'base' if not b else 'new'} set")
                continue
            result = verdict(spec, b, n)
            worse += result == "worse"
            bq1, _, bq3 = quartiles(b)
            nq1, _, nq3 = quartiles(n)
            bm, nm = statistics.median(b), statistics.median(n)
            print(f"{workload:<12} {name:<18} {spec['unit']:<6} {bm:>13.6g} "
                  f"{bq1:>12.6g}..{bq3:<12.6g} {nm:>13.6g} "
                  f"{nq1:>12.6g}..{nq3:<12.6g} {100 * (nm / bm - 1):>+7.1f}% "
                  f"{100 * spec['bound']:>5.0f}%  "
                  f"{result.upper() if result == 'worse' else result}")
    return worse


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as f:
        benchmark = json.load(f)
    base, base_hosts = load_set(args.base)
    new, new_hosts = load_set(args.new)
    for label, hosts in (("base", base_hosts), ("new", new_hosts)):
        for host in sorted(hosts):
            print(f"{label} {host}")
    return 1 if compare(benchmark, base, new) else 0


if __name__ == "__main__":
    sys.exit(main())
