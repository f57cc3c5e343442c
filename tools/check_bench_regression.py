#!/usr/bin/env python3
"""Kernel-timing regression gate for bench_microops.

Compares a candidate google-benchmark JSON result (either an existing file
via --candidate, or fresh runs of the binary via --bin) against the
committed baseline (BENCH_microops.json at the repo root). A filtered
candidate run against a full baseline works, but every kernel the
candidate ran must be in the baseline: a kernel the baseline lacks (a new
benchmark, or a baseline overwritten by a partial run) fails the gate
instead of silently shrinking the comparison.

Measurement: on a shared VM one kernel's time can shift by 2x for seconds
at a time (a neighbour's burst) or for a whole process (where its buffers
happen to land), so a kernel's time is the minimum over samples spread
across time and processes. --bin runs the binary in PROCESSES separate
processes, each taking --repetitions samples per kernel in random
interleaved order, so one kernel's samples are scattered over the whole
run rather than bunched into one noisy window. The baseline has to be
taken the same way: every --bin run writes each process's fastest sample
per kernel to BENCH_microops.candidate.json in the working directory, and
that file is what gets committed as the new baseline.

Machines differ in absolute speed, so raw ns/op cannot be compared
directly. Instead every shared benchmark gets a ratio
candidate/baseline, the median ratio is taken as the machine-speed factor,
and each benchmark's ratio is divided by it. A benchmark whose normalized
ratio exceeds 1 + tolerance regressed relative to its peers. Offenders
are re-measured in PROCESSES fresh processes and the new samples merged
in; only a kernel that still exceeds the tolerance fails the gate.

Usage:
  check_bench_regression.py --baseline=BENCH_microops.json \
      (--candidate=fresh.json | --bin=path/to/bench_microops) \
      [--filter=/1024$] [--tolerance=0.25] [--min-time=0.02] \
      [--repetitions=10]
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

# Separate processes per --bin measurement (see the module docstring).
PROCESSES = 3
CANDIDATE_OUT = "BENCH_microops.candidate.json"


def iteration_rows(doc):
    """The per-repetition rows of a google-benchmark JSON document."""
    # Aggregate rows (mean/median/stddev of repetitions) are skipped.
    return [row for row in doc.get("benchmarks", [])
            if row.get("run_type", "iteration") == "iteration"]


def fastest_rows(rows):
    """name -> (fastest real_time in ns, its row) over rows with that name."""
    out = {}
    for row in rows:
        name = row.get("name")
        t = row.get("real_time")
        if name is None or t is None:
            continue
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(
            row.get("time_unit", "ns"))
        if scale is None:
            continue
        ns = float(t) * scale
        if name not in out or ns < out[name][0]:
            out[name] = (ns, row)
    return out


def fastest(rows):
    """name -> fastest real_time in ns over all rows with that name."""
    return {name: ns for name, (ns, _) in fastest_rows(rows).items()}


def load_benchmarks(path):
    """name -> fastest real_time in ns from a google-benchmark JSON file."""
    with open(path, "r", encoding="utf-8") as f:
        return fastest(iteration_rows(json.load(f)))


def run_candidate(binary, bench_filter, min_time, repetitions):
    """Runs the bench binary in PROCESSES processes; returns a
    google-benchmark document holding each process's fastest row per
    benchmark."""
    merged = {"context": None, "benchmarks": []}
    for _ in range(PROCESSES):
        fd, path = tempfile.mkstemp(suffix=".json",
                                    prefix="bench_candidate_")
        os.close(fd)
        cmd = [
            binary,
            f"--benchmark_out={path}",
            "--benchmark_out_format=json",
            f"--benchmark_min_time={min_time}",
            f"--benchmark_repetitions={repetitions}",
            "--benchmark_enable_random_interleaving=true",
        ]
        if bench_filter:
            cmd.append(f"--benchmark_filter={bench_filter}")
        try:
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        finally:
            os.unlink(path)
        if merged["context"] is None:
            merged["context"] = doc.get("context")
        merged["benchmarks"].extend(
            row for _, row in fastest_rows(iteration_rows(doc)).values())
    return merged


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed google-benchmark JSON baseline")
    parser.add_argument("--candidate",
                        help="candidate google-benchmark JSON result")
    parser.add_argument("--bin",
                        help="bench binary to run for a fresh candidate")
    parser.add_argument("--filter", default="",
                        help="--benchmark_filter for --bin runs")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative regression after "
                             "median-ratio normalization (default 0.25)")
    parser.add_argument("--min-time", default="0.02",
                        help="--benchmark_min_time for --bin runs")
    parser.add_argument("--repetitions", type=int, default=10,
                        help="--benchmark_repetitions per process for "
                             "--bin runs; the fastest sample is compared")
    args = parser.parse_args()
    if bool(args.candidate) == bool(args.bin):
        parser.error("exactly one of --candidate or --bin is required")

    baseline = load_benchmarks(args.baseline)
    if args.candidate:
        candidate = load_benchmarks(args.candidate)
    else:
        doc = run_candidate(args.bin, args.filter, args.min_time,
                            args.repetitions)
        candidate = fastest(doc["benchmarks"])
        with open(CANDIDATE_OUT, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")

    missing = sorted(set(candidate) - set(baseline))
    if missing:
        print(f"bench_regression: {len(missing)} candidate benchmark(s) "
              f"missing from {args.baseline}: {', '.join(missing)}; "
              "regenerate the baseline (see bench/CMakeLists.txt)",
              file=sys.stderr)
        return 1
    shared = sorted(candidate)
    if not shared:
        print("bench_regression: the candidate ran no benchmarks — "
              "nothing to compare", file=sys.stderr)
        return 1

    ratios = {name: candidate[name] / baseline[name] for name in shared
              if baseline[name] > 0}
    if not ratios:
        print("bench_regression: baseline has no positive timings",
              file=sys.stderr)
        return 1
    speed_factor = statistics.median(ratios.values())
    if speed_factor <= 0:
        print("bench_regression: degenerate median ratio", file=sys.stderr)
        return 1

    failures = []
    print(f"bench_regression: {len(ratios)} shared benchmarks, "
          f"machine-speed factor {speed_factor:.3f}, "
          f"tolerance {args.tolerance:.0%}")
    for name in shared:
        if name not in ratios:
            continue
        normalized = ratios[name] / speed_factor
        status = "ok"
        if normalized > 1.0 + args.tolerance:
            status = "REGRESSED"
            failures.append(name)
        print(f"  {name:50s} baseline {baseline[name]:12.1f} ns  "
              f"candidate {candidate[name]:12.1f} ns  "
              f"normalized x{normalized:.3f}  {status}")

    if failures and args.bin:
        # A real regression reproduces in fresh processes; a noisy window
        # or an unlucky process does not. Re-measure only the offenders
        # and keep the ones whose merged minimum still regresses.
        print(f"bench_regression: re-measuring {len(failures)} "
              f"candidate regression(s): {', '.join(failures)}")
        refilter = "^(" + "|".join(re.escape(n) for n in failures) + ")$"
        rerun = fastest(run_candidate(args.bin, refilter, args.min_time,
                                      args.repetitions)["benchmarks"])
        confirmed = []
        for name in failures:
            best = min(candidate[name], rerun.get(name, candidate[name]))
            normalized = best / baseline[name] / speed_factor
            verdict = "REGRESSED" if normalized > 1.0 + args.tolerance \
                else "noise"
            print(f"  {name:50s} re-run    {best:12.1f} ns  "
                  f"normalized x{normalized:.3f}  {verdict}")
            if normalized > 1.0 + args.tolerance:
                confirmed.append(name)
        failures = confirmed

    if failures:
        print(f"bench_regression: {len(failures)} benchmark(s) regressed "
              f"more than {args.tolerance:.0%}: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("bench_regression: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
