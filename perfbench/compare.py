#!/usr/bin/env python3
"""Compares two sets of benchmark records, workload by workload.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are record files or directories of them, as perfbench/run.py
writes under <build dir>/records/. For every workload and end-to-end
metric it prints each side's median and quartiles and a verdict against
the metric's bound in BENCHMARK.json:

  worse       NEW's median is worse than BASE's by more than the bound
  better      NEW's median is better by more than BASE's own spread
  unresolved  BASE's spread is wider than the bound and the sides overlap
  same        otherwise

Records taken with a different nproc or build type, or in smoke mode,
are refused (exit 2): numbers from a 1-core and a 4-core host, or from a
debug and a release build, do not measure the same thing. Exit 1 when
any metric is worse, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())


def load(arg):
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text()) for f in files]
    return [r for r in records if not r["context"]["trace"]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not base or not new:
        print("error: no untraced records found", file=sys.stderr)
        return 2
    contexts = {(r["context"]["nproc"], r["context"]["build_type"],
                 r["context"]["smoke"]) for r in base + new}
    if len(contexts) != 1:
        print("error: refusing to compare records taken under different "
              "(nproc, build type, smoke) contexts: "
              f"{sorted(contexts, key=str)}", file=sys.stderr)
        return 2
    if next(iter(contexts))[2]:
        print("error: smoke-mode records are not measurements",
              file=sys.stderr)
        return 2

    worse = False
    for workload in sorted({r["context"]["workload"] for r in base + new}):
        print(f"== {workload}")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in base
                 if r["context"]["workload"] == workload
                 and name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in new
                 if r["context"]["workload"] == workload
                 and name in r["metrics"]]
            if not a or not b:
                continue
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            sign = 1 if metric["better"] == "lower" else -1
            change = sign * (bm - am) / am if am else 0.0
            spread = (a3 - a1) / am if am else 0.0
            if change > bound:
                verdict, worse = "worse", True
            elif change < -spread and spread <= bound:
                verdict = "better"
            elif spread > bound and not (b3 < a1 or b1 > a3):
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"  {name:22s} base {am:.6g} [{a1:.4g}, {a3:.4g}] n={len(a)}"
                  f"  new {bm:.6g} [{b1:.4g}, {b3:.4g}] n={len(b)}"
                  f"  {change:+.1%} (bound {bound:.0%})  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
