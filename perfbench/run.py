#!/usr/bin/env python3
"""The analyzer benchmark: one command for every workload.

    python3 perfbench/run.py --workload suite|module|serve --seed N \
        --seconds S --trace 0|1 [--smoke]

Builds the analyzer and the vrpbench harness from the sources in this
checkout (into $CARGO_TARGET_DIR, default .bench_build), then runs the
three phases -- module, serve, suite -- each in its own process (the
module parts repeated over the run). Every metric in BENCHMARK.json is
reported on every workload; the workload decides whose set-up time and
memory high-water are setup_s and peak_rss_mb. The module and serve phases have fixed sizes; the suite
phase then repeats its cold/warm pass for what is left of --seconds (at
least 10 passes). With --trace 1 the phases run their traced variants
and the result carries the per-layer metrics instead.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Every line before it is a human-readable report. Each run also writes a
record with its context (seed, nproc, build type, compiler, revision)
under <build dir>/records/ for perfbench/compare.py. The exit code is 0
only when every output check passed; a build or set-up failure exits
nonzero without printing a result. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Phase processes, in run order: (phase, module part).
PHASES = (("module", "small"), ("module", "large"), ("serve", ""),
          ("suite", ""))
# Whose set-up and memory each workload reports: the one-shot analyzer
# (the suite phase's store; the largest of the suite and module
# processes) or the resident daemon.
OWN = {
    "suite": ("suite", ("suite", "module-small", "module-large")),
    "serve": ("serve", ("serve",)),
}
# Per-phase wall-clock limit; the whole run must end within 180 s.
PHASE_TIMEOUT_S = 120


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base


def build(out):
    """Configures (once) and builds; returns the binary directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (
        ROOT / "examples" / "predictord.cpp"
    ).is_file():
        log("error: analyzer sources (src/, examples/) not found next to",
            HERE)
        return None
    tree = out / "perfbench"
    if not (tree / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(tree),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(tree, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(tree), "--target", "vrpbench",
           "predictord", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return tree


def context(tree, args):
    """What a result may only be compared under."""
    cache = {}
    for line in (tree / "CMakeCache.txt").read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith(("#", "//")):
            key, _, value = line.partition("=")
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    revision = None
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        revision = rev.stdout.strip() or None
    digest = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "compiler": version,
        "git_revision": revision,
        "source_digest": digest.hexdigest()[:16],
    }


def run_phase(tree, phase, part, args, workdir, trace, seconds, verify):
    cmd = [str(tree / "vrpbench"), phase, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--smoke", "1" if args.smoke else "0", "--workdir", ".",
           "--daemon", str(tree / "predictord"), "--part", part,
           "--verify", "1" if verify else "0"]
    log(f"== phase {phase} {part}{' traced' if trace else ''}")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=workdir, stdout=subprocess.PIPE,
                              text=True, timeout=PHASE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: phase {phase} exceeded {PHASE_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"error: phase {phase} exited {proc.returncode} without a report")
        return None
    report = json.loads(lines[-1])
    report["exit_code"] = proc.returncode
    report["wall_s"] = time.monotonic() - start
    return report


def describe(name, metric, spec):
    better = spec.get("better", "")
    line = (f"metric {name} = {metric['value']:.6g} {metric['unit']} "
            f"({better} is better)")
    if metric.get("n", 1) > 1:
        line += f" n={metric['n']}"
    if metric.get("p_high_q"):
        line += f" p{metric['p_high_q'] * 100:g}={metric['p_high']:.6g}"
    return line


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OWN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the smoke test")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        log("error: BENCHMARK.json not found at", ROOT)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wanted = {m["name"]: m for m in wanted}

    out = build_dir()
    tree = build(out)
    if tree is None:
        log("error: build failed")
        return 3
    ctx = context(tree, args)

    workdir = out / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # The module parts are repeated across the run and report the median
    # (the short small part three times, the large part twice): their
    # single analyses vary the most from run to run. A traced run instead
    # runs them untraced once as the baseline for their tracing overhead
    # (the module layers get slower as one process analyzes more, so the
    # baseline must be fresh processes too).
    small, large = [(p, part) for p, part in PHASES if p == "module"]
    if args.trace:
        plan = [small + (0,), large + (0,)] + [
            (p, part, 1) for p, part in PHASES]
    else:
        order = PHASES[:3] + (small, large, small) + PHASES[3:]
        plan = [(p, part, 0) for p, part in order]
    reports, baseline = {}, {}
    start = time.monotonic()
    for phase, part, trace in plan:
        seconds = 0
        if phase == "suite" and not trace:
            seconds = max(0.0, args.seconds - (time.monotonic() - start))
        # The repeated module parts skip the (unchanged) output check.
        key = f"{phase}-{part}" if part else phase
        target = reports if trace == args.trace else baseline
        verify = key not in target
        report = run_phase(tree, phase, part, args, workdir, trace, seconds,
                           verify)
        if report is None:
            shutil.rmtree(workdir, ignore_errors=True)
            return 4
        target.setdefault(key, []).append(report)

    # Every metric but setup_s and peak_rss_mb comes from the one phase
    # that measures it; repeated phases report the median.
    detail = {}
    for runs in reports.values():
        for kind in ("metrics", "layers"):
            for name in runs[0][kind]:
                if name in ("setup_s", "peak_rss_mb"):
                    continue
                values = [r[kind][name]["value"] for r in runs]
                detail[name] = dict(runs[0][kind][name],
                                    value=statistics.median(values))
                if len(runs) > 1:
                    detail[name]["n"] = len(runs)
    setup_phase, rss_phases = OWN[args.workload]
    detail["setup_s"] = reports[setup_phase][0]["metrics"]["setup_s"]
    detail["peak_rss_mb"] = max(
        (r["metrics"]["peak_rss_mb"] for p in rss_phases for r in reports[p]),
        key=lambda m: m["value"])
    detail["module_scaling_exp"] = {
        "value": math.log2(detail["module_cold_s"]["value"]
                           / detail["module_cold_small_s"]["value"]),
        "unit": "unitless"}
    if args.trace:
        # Coverage: layer self time over traced wall time. Overhead: traced
        # wall time, less the probes the untraced pass does not make, minus
        # the untraced wall time of the same work.
        for phase in ("suite", "module"):
            traced = [r["walls"] for k, runs in reports.items()
                      for r in runs if k.split("-")[0] == phase]
            base = [r["walls"] for k, runs in baseline.items()
                    for r in runs if k.split("-")[0] == phase] or traced
            total = sum(w["traced_s"] for w in traced)
            detail[f"trace.{phase}_coverage"] = {
                "value": sum(w["covered_s"] for w in traced) / total,
                "unit": "ratio"}
            detail[f"trace.{phase}_overhead_s"] = {
                "value": total - sum(w["extra_s"] for w in traced)
                - sum(w["pass_s"] for w in base),
                "unit": "s"}
    metrics = {name: {"value": detail[name]["value"],
                      "unit": detail[name]["unit"]}
               for name in wanted if name in detail}
    missing = sorted(set(wanted) - set(metrics))
    everything = [r for group in (reports, baseline)
                  for runs in group.values() for r in runs]
    checks = [c for r in everything for c in r["checks"]]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    correct = (not missing and failed == 0 and all(c["ok"] for c in checks)
               and all(r["exit_code"] == 0 for r in everything))

    print(f"context {json.dumps(ctx, sort_keys=True)}")
    for c in checks:
        print(f"check {'ok' if c['ok'] else 'FAILED'} {c['name']}: "
              f"{c['detail']}")
    for name in missing:
        print(f"check FAILED metric {name} not reported")
    print(f"fail_frac = {failed / max(1, attempted):.6g} ratio "
          f"({failed} of {attempted} units failed; lower is better)")
    # Every metric named in BENCHMARK.json that this run measured; those
    # of the other mode are reported too but are not in the result.
    known = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for name in list(wanted) + sorted(set(known) - set(wanted)):
        if name in detail:
            print(describe(name, detail[name], known[name]))
    if args.trace:
        for key, runs in reports.items():
            if runs[0].get("self_ms"):
                parts = ", ".join(f"{layer} {ms:.1f}" for layer, ms
                                  in sorted(runs[0]["self_ms"].items()))
                print(f"self_ms {key}: {parts}")

    records = out / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = {"context": ctx, "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics, "phases": reports,
              "baseline": baseline}
    (records / f"{stamp}-{args.workload}-{args.seed}-t{args.trace}"
     f"-{os.getpid()}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        for path in workdir.glob("trace-*.jsonl"):
            shutil.move(str(path), traces / f"{args.workload}-{args.seed}-"
                        f"{path.name}")
    shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
