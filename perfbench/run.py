#!/usr/bin/env python3
"""End-to-end benchmark of PrivateClean: build, run, self-test, compare.

Run from the repository root:

  python3 perfbench/run.py --workload publish --seed 1 --seconds 15 --trace 0
      Builds perfbench/ (the library sources in src/ plus the benchmark
      program pcbench) as a Release build under $CARGO_TARGET_DIR/perfbench
      (default .bench_build/perfbench), runs one workload, prints its
      metrics and, last, one JSON result line. The run is also saved,
      with its host and build stamp, under <build>/results.
  python3 perfbench/run.py selftest
      The benchmark's self-tests: the percentile helper, seeded inputs,
      span arithmetic, every workload emitting exactly the metrics
      BENCHMARK.json names (on a small relation), and every per-layer
      metric measured by some workload.
  python3 perfbench/run.py compare RESULTS [RESULTS_B]
      Per workload and end-to-end metric: the median and quartile spread
      of the saved runs and, given a second set, the change of the median
      against the metric's bound. Refuses runs whose stamps differ.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources in src/; run from a full "
                 "checkout of the repository")
    out = build_dir()
    try:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        jobs = str(min(os.cpu_count() or 1, 4))
        subprocess.run(["cmake", "--build", out, "-j", jobs,
                        "--target", "pcbench"],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    return os.path.join(out, "pcbench")


def invoke(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload in its own process and returns it, finished."""
    run_dir = os.path.join(build_dir(), "work", f"{workload}-{os.getpid()}")
    trace_out = os.path.join(build_dir(), "traces",
                             f"{workload}-seed{seed}.tsv")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", run_dir, "--trace-out", trace_out, *extra]
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} ran past {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def parse_run(stdout):
    """The (stamp, result) of one run's output."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    stamp = next((json.loads(line[len("stamp: "):]) for line in lines
                  if line.startswith("stamp: ")), None)
    return stamp, result


def run(argv):
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", default=None)
    args = parser.parse_args(argv)
    binary = build()
    proc = invoke(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    stamp, result = parse_run(proc.stdout)
    out = args.results_dir or os.path.join(build_dir(), "results")
    os.makedirs(out, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out, name), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "stamp": stamp, "result": result}, f, indent=1,
                  sort_keys=True)
    return 0


def selftest():
    spec = load_spec()
    binary = build()
    failures = []
    if subprocess.run([binary, "--selftest"]).returncode != 0:
        failures.append("pcbench --selftest")
    # Per-layer metrics some workload's traced run measured (not 0). A
    # layer no workload measures reads 0 everywhere; only a count that
    # may truly be 0 on every run is let off.
    measured = {"privacy.grr_regenerations"}
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload['name']} --trace {trace}"
            proc = invoke(binary, workload["name"], 3, 1, trace,
                          ["--rows", "20000", "--setups", "1"])
            if proc.returncode != 0:
                failures.append(f"{label}: exit code {proc.returncode}")
                continue
            try:
                _, result = parse_run(proc.stdout)
            except (ValueError, IndexError) as e:
                failures.append(f"{label}: no result line ({e})")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
                continue
            if (result["correct"] is not True or result["failed"] != 0
                    or result["attempted"] < 1):
                failures.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']} "
                                f"failed={result['failed']}")
            want = {(m["name"], m["unit"]) for m in spec[key]}
            got = {(n, v["unit"]) for n, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{label}: missing {sorted(want - got)}, "
                                f"extra {sorted(got - want)}")
            for name, value in result["metrics"].items():
                v = value["value"]
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    failures.append(f"{label}: {name} = {v!r}")
                elif key == "end_to_end" and v == 0:
                    failures.append(f"{label}: end-to-end {name} is 0")
                elif v != 0:
                    measured.add(name)
    never = [m["name"] for m in spec["per_layer"] if m["name"] not in measured]
    if never:
        failures.append(f"per-layer metrics no workload measured: {never}")
    for failure in failures:
        print("selftest FAILED: " + failure)
    print("selftest: " + ("ok" if not failures
                          else f"{len(failures)} failures"))
    return 1 if failures else 0


def load_runs(directory):
    runs = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                runs.append(json.load(f))
    return runs


def median_and_spread(values):
    """The median and (q3 - q1) / median, with the quartiles from
    statistics.quantiles(values, n=4)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def compare(dirs):
    if not 1 <= len(dirs) <= 2:
        sys.exit("usage: perfbench/run.py compare RESULTS [RESULTS_B]")
    spec = load_spec()
    sets = [load_runs(d) for d in dirs]
    stamps = {json.dumps(r["stamp"], sort_keys=True) for s in sets for r in s}
    if len(stamps) > 1:
        print("perfbench: refusing to compare runs with different host or "
              "build stamps:", file=sys.stderr)
        for stamp in sorted(stamps):
            print("  " + stamp, file=sys.stderr)
        return 1
    ok = True
    for s in sets:
        for r in s:
            if r["result"]["correct"] is not True or r["result"]["failed"]:
                ok = False
                print(f"incorrect run: {r['workload']} seed {r['seed']}")
    header = f"{'workload':12} {'metric':22} {'n':>3} {'median':>13} " \
             f"{'spread':>7} {'bound':>6}"
    if len(sets) == 2:
        header += f" {'median_b':>13} {'spread_b':>8} {'change':>7}"
    print(header)
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            columns = [[r["result"]["metrics"][metric["name"]]["value"]
                        for r in s if r["workload"] == workload["name"]
                        and r["trace"] == 0] for s in sets]
            if not columns[0]:
                continue
            med, spread = median_and_spread(columns[0])
            line = (f"{workload['name']:12} {metric['name']:22} "
                    f"{len(columns[0]):3d} {med:13.5g} {spread:7.4f} "
                    f"{metric['bound']:6.3f}")
            notes = []
            if not spread <= metric["bound"]:
                ok = False
                notes.append("SPREAD ABOVE BOUND")
            elif spread >= metric["bound"] / 3:
                notes.append("spread above bound/3")
            if len(sets) == 2 and columns[1]:
                med_b, spread_b = median_and_spread(columns[1])
                change = (med_b - med) / med
                worse = change if metric["better"] == "lower" else -change
                line += f" {med_b:13.5g} {spread_b:8.4f} {change:+7.3f}"
                if worse > metric["bound"]:
                    ok = False
                    notes.append("WORSE BY MORE THAN BOUND")
            print(line + ("  " + "; ".join(notes) if notes else ""))
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["selftest"]:
        return selftest()
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
