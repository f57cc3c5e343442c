#!/usr/bin/env python3
"""The repository benchmark: builds sknn_perfbench and runs its workloads.

One run (the form BENCHMARK.json's "command" names), from the repo root:

    python3 perfbench/run.py --workload toy-packed --seed 1 --seconds 20 \
        --trace 0

  prints the run's log on stderr and, as the last line of stdout, one JSON
  object {"correct", "attempted", "failed", "metrics"}: every end-to-end
  metric of BENCHMARK.json with --trace 0, every per-layer metric with
  --trace 1. Exits non-zero if any answer differs from plaintext brute
  force or a metric is missing.

Every workload, every metric printed by name with its unit:

    python3 perfbench/run.py --all --seeds 1,2,3 [--traced] --out DIR

  writes DIR/results.json (never into the repo root).

Compare two --all result files against the bounds in BENCHMARK.json:

    python3 perfbench/run.py --compare RUN_A.json RUN_B.json

  one row per (workload, end-to-end metric), exit 1 on any breach.

Smoke check (also the bench_e2e_smoke ctest of perfbench/CMakeLists.txt):

    python3 perfbench/run.py --smoke --out DIR [--bin PATH]

  runs all workloads at smoke size, untraced and traced, and fails unless
  every metric name in BENCHMARK.json is emitted and every answer verified.

The build goes to $CARGO_TARGET_DIR if set, else .bench_build, relative to
the repo root; the library sources under src/ must be present.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds sknn_perfbench; returns the binary."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found under %s/src" % ROOT)
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j4", "--target",
                    "sknn_perfbench"], check=True, stdout=sys.stderr)
    return os.path.join(out, "sknn_perfbench")


def run_once(binary, workload, seed, seconds, trace, out_dir, smoke=False):
    """Runs one workload; returns the binary's result object."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d-trace%d%s.json" %
                        (workload, seed, int(trace), "-smoke" if smoke else ""))
    if os.path.exists(path):
        os.remove(path)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--json=" + path]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=sys.stderr, cwd=ROOT)
    try:
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("%s timed out after %d s" %
                           (workload, RUN_TIMEOUT_S))
    if not os.path.exists(path):
        raise RuntimeError("%s exited %d without a result" %
                           (workload, proc.returncode))
    with open(path) as f:
        result = json.load(f)
    if proc.returncode != 0 and result.get("correct"):
        raise RuntimeError("%s exited %d" % (workload, proc.returncode))
    return result


def check_metrics(spec, result, trace):
    """Returns the result's metrics in BENCHMARK.json order; raises when a
    name is missing or its unit differs."""
    got = result["metrics"]
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] not in got:
            raise RuntimeError("metric %s not emitted" % m["name"])
        if got[m["name"]]["unit"] != m["unit"]:
            raise RuntimeError("metric %s has unit %s, BENCHMARK.json says %s"
                               % (m["name"], got[m["name"]]["unit"], m["unit"]))
        metrics[m["name"]] = got[m["name"]]
    return metrics


def print_metrics(workload, seed, trace, result, metrics, stream):
    print("%s seed %d%s: correct=%s attempted=%d failed=%d samples=%d" %
          (workload, seed, " traced" if trace else "", result["correct"],
           result["attempted"], result["failed"], result["samples"]),
          file=stream)
    for name, m in metrics.items():
        print("  %-32s %16.4f %s" % (name, m["value"], m["unit"]), file=stream)


def cmd_single(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise RuntimeError("unknown workload %s (have %s)" %
                           (args.workload, ", ".join(names)))
    binary = build()
    trace = bool(args.trace)
    result = run_once(binary, args.workload, args.seed, args.seconds, trace,
                      os.path.join(build_dir(), "results"))
    metrics = check_metrics(spec, result, trace)
    print_metrics(args.workload, args.seed, trace, result, metrics, sys.stderr)
    if not trace and result["samples_beyond_p90"] < 10:
        log("warning: only %d samples beyond p90" %
            result["samples_beyond_p90"])
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def cmd_all(args, spec):
    binary = args.bin or build()
    seeds = [int(s) for s in args.seeds.split(",")]
    traces = [False, True] if args.traced else [False]
    runs = []
    ok = True
    for w in spec["workloads"]:
        for seed in seeds:
            for trace in traces:
                result = run_once(binary, w["name"], seed, args.seconds, trace,
                                  args.out, smoke=args.smoke)
                metrics = check_metrics(spec, result, trace)
                print_metrics(w["name"], seed, trace, result, metrics,
                              sys.stdout)
                ok = ok and result["correct"] and result["failed"] == 0
                runs.append({"workload": w["name"], "seed": seed,
                             "trace": trace, "correct": result["correct"],
                             "attempted": result["attempted"],
                             "failed": result["failed"], "metrics": metrics})
    path = os.path.join(args.out, "results.json")
    with open(path, "w") as f:
        json.dump({"seconds": args.seconds, "smoke": args.smoke, "runs": runs},
                  f, indent=1)
    print("wrote %s; every answer %s" %
          (path, "verified" if ok else "NOT verified"))
    return 0 if ok else 1


def medians(results, workload):
    by_metric = {}
    for run in results["runs"]:
        if run["workload"] == workload and not run["trace"]:
            for name, m in run["metrics"].items():
                by_metric.setdefault(name, []).append(m["value"])
    return {name: statistics.median(v) for name, v in by_metric.items()}


def cmd_compare(args, spec):
    with open(args.compare[0]) as f:
        a = json.load(f)
    with open(args.compare[1]) as f:
        b = json.load(f)
    breaches = 0
    print("%-15s %-18s %-5s %12s %12s %8s %6s" %
          ("workload", "metric", "unit", "A median", "B median", "worse",
           "bound"))
    for w in spec["workloads"]:
        ma, mb = medians(a, w["name"]), medians(b, w["name"])
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in ma or name not in mb:
                print("%-15s %-18s missing" % (w["name"], name))
                breaches += 1
                continue
            va, vb = ma[name], mb[name]
            worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            breach = worse > m["bound"]
            breaches += breach
            print("%-15s %-18s %-5s %12.4f %12.4f %7.2f%% %5.1f%% %s" %
                  (w["name"], name, m["unit"], va, vb, 100 * worse,
                   100 * m["bound"], "BREACH" if breach else "ok"))
    return 1 if breaches else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--seeds", default="1")
    p.add_argument("--traced", action="store_true",
                   help="with --all: also run the traced per-layer pass")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--bin", help="use this sknn_perfbench instead of building")
    p.add_argument("--out", help="directory for --all/--smoke result files")
    p.add_argument("--compare", nargs=2, metavar=("RUN_A", "RUN_B"))
    args = p.parse_args()
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = 1 if args.smoke else spec["run_seconds"]
        if args.compare:
            return cmd_compare(args, spec)
        if args.all or args.smoke:
            if not args.out:
                raise RuntimeError("--all/--smoke need --out DIR")
            if os.path.abspath(args.out) == ROOT:
                raise RuntimeError("--out must not be the repo root")
            if args.smoke:
                args.traced = True
            return cmd_all(args, spec)
        if not args.workload:
            raise RuntimeError("give --workload, --all, --smoke or --compare")
        return cmd_single(args, spec)
    except (RuntimeError, OSError, KeyError, ValueError,
            subprocess.CalledProcessError) as e:
        log("perfbench: error: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
