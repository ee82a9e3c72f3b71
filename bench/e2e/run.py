#!/usr/bin/env python3
"""End-to-end benchmark driver (bench/e2e/README.md).

Builds bench_e2e from the checkout's sources into .bench_build/e2e, runs each
workload in its own process (so peak RSS belongs to that workload), prints
every metric by name with its unit, and checks the outputs.

  python3 bench/e2e/run.py                  all workloads, end-to-end metrics
  python3 bench/e2e/run.py --traced         plus one traced run per workload
  python3 bench/e2e/run.py --repeat 5       noise band per (metric, workload)
  python3 bench/e2e/run.py --smoke          20k-request checks of every workload
  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
      one run of one workload. The last stdout line is
      {"correct", "attempted", "failed", "metrics"} carrying the metrics
      BENCHMARK.json names: end_to_end with --trace 0, per_layer with 1.

The full mode writes every result, with the host record, to one JSON file
(--out, default .bench_build/bench_e2e_results.json).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD_DIR = ROOT / ".bench_build" / "e2e"
BINARY = BUILD_DIR / "bench_e2e"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"bench/e2e: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")


def build():
    """Configure once, then build bench_e2e (a no-op when up to date)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "bench_e2e", "-j", jobs])
    for step in steps:
        try:
            # Build chatter goes to stderr: stdout's last line is the result.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        except OSError as err:
            fail(f"cannot run {step[0]}: {err}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def run_workload(workload, seed, seconds, traced):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if traced:
        cmd.append("--traced")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: bench_e2e exited {done.returncode} without a result")
    result["host"]["git_commit"] = git_commit()
    return result


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def warn_if_unoptimized(result):
    host = result["host"]
    if not host["optimized"]:
        print("!" * 72 + f"\n!! WARNING: bench_e2e is an unoptimized build "
              f"(build type '{host['build_type']}'); timings are meaningless\n" + "!" * 72,
              file=sys.stderr)


def print_result(result, names):
    print(f"== {result['workload']}  seed {result['seed']}  reps {result['reps']}"
          f"{' + traced ' + str(result['traced_reps']) if result['traced'] else ''}"
          f"  digest {result['output_digest']}  "
          f"{'checks ok' if result['correct'] else 'CHECKS FAILED'}")
    for failure in result["checks_failed"]:
        print(f"   ! {failure}")
    for name in names:
        m = result["metrics"][name]
        print(f"   {name:34s} {m['value']:16.6g} {m['unit']:6s}"
              f"  [{m['min']:.6g} .. {m['max']:.6g}] n={m['n']}")


def contract_run(args, spec):
    """One run in the benchmark contract's format."""
    build()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
    warn_if_unoptimized(result)
    wanted = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    correct = result["correct"]
    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            print(f"bench/e2e: {metric['name']} missing or in another unit", file=sys.stderr)
            correct = False
            continue
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    print_result(result, [m["name"] for m in wanted if m["name"] in metrics])
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def noise_band(values):
    """Median, IQR and max-min spread (both as shares of the median)."""
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    scale = abs(med) if med else 1.0
    return med, (q[2] - q[0]) / scale, (max(values) - min(values)) / scale


def full_run(args, spec):
    build()
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = [m["name"] for m in spec["end_to_end"]] + ["failed_pct"]
    layers = [m["name"] for m in spec["per_layer"]]
    runs = []
    for rep in range(args.repeat):
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, traced=False)
            warn_if_unoptimized(result)
            print_result(result, e2e)
            runs.append(result)
            if args.traced:
                traced = run_workload(workload, args.seed, args.seconds, traced=True)
                print_result(traced, layers)
                runs.append(traced)
        print(f"-- pass {rep + 1}/{args.repeat} done", flush=True)

    ok = all(r["correct"] and r["failed"] == 0 for r in runs)
    for workload in workloads:
        digests = {r["output_digest"] for r in runs if r["workload"] == workload}
        if len(digests) != 1:
            print(f"!! {workload}: output digest differs between runs: {sorted(digests)}")
            ok = False

    host = runs[0]["host"]
    print(f"\nhost: nproc {host['nproc']}, {host['build_type']}, {host['compiler']}, "
          f"NDNP_TRACING={host['NDNP_TRACING']} NDNP_INVARIANT={host['NDNP_INVARIANT']} "
          f"NDNP_TELEMETRY={host['NDNP_TELEMETRY']} "
          f"NDNP_SCHEDULER_REFERENCE={host['NDNP_SCHEDULER_REFERENCE']}, "
          f"commit {host['git_commit']}, seed {args.seed}, {args.seconds} s per run")

    bands = {}
    if args.repeat > 1:
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        print(f"\nnoise band over {args.repeat} runs "
              "(IQR and max-min spread as a share of the median)")
        print(f"   {'metric':16s} {'workload':18s} {'median':>14s} {'IQR':>8s} "
              f"{'spread':>8s} {'bound':>7s}")
        for name in bounds:
            for workload in workloads:
                values = [r["metrics"][name]["value"] for r in runs
                          if r["workload"] == workload and not r["traced"]]
                med, iqr, spread = noise_band(values)
                bands[f"{name}/{workload}"] = {"median": med, "iqr": iqr, "spread": spread}
                print(f"   {name:16s} {workload:18s} {med:14.6g} {iqr:8.2%} {spread:8.2%} "
                      f"{bounds[name]:7.0%}")

    out = Path(args.out) if args.out else ROOT / ".bench_build" / "bench_e2e_results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                               "repeat": args.repeat, "runs": runs, "noise_band": bands},
                              indent=1) + "\n")
    print(f"\nwrote {out}; {'all checks ok' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (benchmark contract mode)")
    parser.add_argument("--seed", type=int, default=2013, help="trace seed")
    parser.add_argument("--seconds", type=int, help="timed seconds per run "
                        "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 1 reports the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="full mode: add one traced run per workload")
    parser.add_argument("--repeat", type=int, default=1, help="full mode: passes to run")
    parser.add_argument("--out", help="full mode: results JSON path")
    parser.add_argument("--smoke", action="store_true", help="run bench_e2e --smoke")
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.smoke:
        build()
        return subprocess.run([str(BINARY), "--smoke"], check=False).returncode
    if args.workload is not None:
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            fail(f"unknown workload {args.workload!r}")
        return contract_run(args, spec)
    if args.repeat < 1:
        fail("--repeat must be at least 1")
    return full_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
