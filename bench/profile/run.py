#!/usr/bin/env python3
"""The repo benchmark: builds bench_profile, runs one workload (or all of
them, one process at a time), checks every output for exactness and
prints each metric as `workload metric value unit`, then one JSON line.

  python3 bench/profile/run.py --workload address-pen --seed 7 \\
      --seconds 15 --trace 0
  python3 bench/profile/run.py --all --runs 10 --out results/set.jsonl
  python3 bench/profile/run.py --all --trace 1        # per-layer ledger
  python3 bench/profile/run.py --oracle               # 10% size, vs PF
  python3 bench/profile/run.py --smoke                # 1% size, vs PF

An untraced run starts PROCESSES driver processes one after another;
each sets up three times (three setup_s samples), joins once untimed at
1 thread as the checked reference, warms up at 4 threads, then alternates
timed 4-thread and 1-thread legs for its share of --seconds. A traced run
(and an --oracle or --smoke pass) is one process; a traced one reports
the per-layer metrics instead (README.md).
Exit status: 0 when every check passed, 1 on a failed check or leg, 2 on
a usage or build error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_DIR = ROOT / "build" / "bench-profile"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
PINS_JSON = HERE / "pins.json"

WORKLOADS = ("address-pen", "dblp-wen", "synthetic-pen", "address-pen-spill")
DEFAULT_SEED = 7
THREADS = 4
# Driver processes per untraced run. Each process lands on the machine a
# little faster or slower than the last, so the medians pool several.
PROCESSES = 3
# Driver processes still running this long after a run started are
# killed and counted as failed, so that one run always ends within three
# minutes.
RUN_TIMEOUT_S = 150


def fail(message: str, code: int = 2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(jobs: int) -> Path:
    """Configures (once) and builds bench_profile; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no ssjoin sources at {ROOT}; run from a full checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "bench_profile", "-j", str(jobs)])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (full log in build/bench-profile/"
                     "build.log)")
    return BUILD_DIR / "bench_profile"


def build_info() -> dict:
    """nproc, compiler and build type of the benchmark's build tree."""
    info = {"nproc": os.cpu_count()}
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file():
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(),
                      re.M)
        info["build_type"] = m.group(1) if m else ""
    for cmake_file in sorted(BUILD_DIR.glob("CMakeFiles/*/CMakeCXXCompiler.cmake")):
        text = cmake_file.read_text()
        cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if cid and ver:
            info["compiler"] = f"{cid.group(1)} {ver.group(1)}"
    return info


def run_process(binary: Path, args: list[str],
                deadline: float) -> dict | None:
    """Runs one driver process; returns its JSON result line or None."""
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"run.py: driver timed out: {' '.join(args)}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"run.py: driver exited {proc.returncode} without a result",
              file=sys.stderr)
        return None
    result["returncode"] = proc.returncode
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load_pins() -> dict:
    return json.loads(PINS_JSON.read_text()) if PINS_JSON.is_file() else {}


def pin_key(workload: str) -> str:
    # The spill variant joins the same input with the same scheme, so it
    # must reproduce address-pen's pairs exactly: one pin for both.
    return workload.removesuffix("-spill")


def check_results(workload: str, results: list[dict | None], seed: int,
                  scale: float, oracle: bool) -> list[str]:
    """Every exactness check; returns the failures (empty = correct)."""
    problems = []
    ok = [r for r in results if r is not None]
    if len(ok) != len(results):
        problems.append("a driver process produced no result")
    for r in ok:
        checks = r["checks"]
        if r["returncode"] != 0 or r["failed"] != 0:
            problems.append(f"{r['failed']} failed leg(s)")
        if not checks["sound"]:
            problems.append("output unsound: a pair fails the predicate, "
                            "is out of order, or the count is off")
        if checks["probe_missing"] != 0:
            problems.append(f"{checks['probe_missing']} pair(s) missing "
                            "against the prefix-probe check")
        if checks["wtenum_overflow"]:
            problems.append("WtEnum exhausted its enumeration budget")
        # The driver skips the oracle once its own checks failed.
        if oracle and "oracle" in r and not r["oracle"]["agree"]:
            problems.append("pairs differ from the prefix-filter oracle")
    counts = {json.dumps(r["counts"], sort_keys=True) for r in ok}
    if len(counts) > 1:
        problems.append("processes disagree on the output or its counts")
    pin = load_pins().get(pin_key(workload))
    if ok and pin and seed == DEFAULT_SEED and scale == 1:
        got = ok[0]["counts"]
        if (got["results"], got["pair_digest"]) != (pin["results"],
                                                    pin["pair_digest"]):
            problems.append(f"pinned output differs: results "
                            f"{got['results']} digest {got['pair_digest']}, "
                            f"pinned {pin['results']} {pin['pair_digest']}")
    return problems


def run_workload(binary: Path, workload: str, args) -> dict:
    """One benchmark run of one workload; returns the run record."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    spill_dir = BUILD_DIR / "spill"
    spill_dir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(args.seed),
              "--scale", repr(args.scale), "--spill-dir", str(spill_dir)]
    if args.oracle:
        common.append("--oracle")
    if args.trace:
        trace_out = BUILD_DIR / f"trace-{workload}.json"
        results = [run_process(binary, common + [
            "--seconds", repr(args.seconds), "--trace",
            "--trace-out", str(trace_out)], deadline)]
    else:
        processes = 1 if args.oracle else PROCESSES
        share = args.seconds / processes
        results = [run_process(binary, common + ["--seconds", repr(share)],
                               deadline)
                   for _ in range(processes)]
    problems = check_results(workload, results, args.seed, args.scale,
                             args.oracle)
    ok = [r for r in results if r is not None]
    record = {
        "workload": workload, "seed": args.seed, "scale": args.scale,
        "trace": int(args.trace), "correct": not problems,
        "attempted": max(1, sum(r["attempted"] for r in ok)
                         + len(results) - len(ok)),
        "failed": sum(r["failed"] for r in ok) + len(results) - len(ok),
        "problems": problems, "metrics": {}, "spread": {},
        "counts": ok[0]["counts"] if ok else {}, "build": build_info(),
        "oracle": ok[0].get("oracle") if ok else None,
    }
    if not ok:
        return record
    if args.trace:
        record["metrics"] = ok[0].get("per_layer", {})
        record["trace_file"] = str(trace_out.relative_to(ROOT))
        return record
    samples = {
        "setup_s": [s for r in ok for s in r["setup_s"]],
        "join_s": [l["s"] for r in ok for l in r["legs"]
                   if l["threads"] == THREADS],
        "join_serial_s": [l["s"] for r in ok for l in r["legs"]
                          if l["threads"] == 1],
    }
    if not samples["join_s"] or not samples["join_serial_s"]:
        return record
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        record["metrics"][name] = med
        record["spread"][name] = {"q1": q1, "q3": q3, "n": len(values)}
    record["metrics"]["e2e_s"] = (record["metrics"]["setup_s"]
                                  + record["metrics"]["join_s"])
    record["metrics"]["peak_rss_mb"] = max(r["peak_rss_mb"] for r in ok)
    record["metrics"]["failed_frac"] = record["failed"] / record["attempted"]
    record["samples"] = samples
    return record


def declared_metrics(spec: dict, trace: bool) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for the mode."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def report(record: dict, units: dict[str, str]) -> dict:
    """Prints the human lines; returns the run's summary JSON object
    (correct, attempted, failed and the declared metrics)."""
    metrics = {}
    for name, value in record["metrics"].items():
        unit = units.get(name, "ratio" if name == "failed_frac" else "")
        line = f"{record['workload']} {name} {value:.6g} {unit}"
        spread = record["spread"].get(name)
        if spread:
            line += (f"  (IQR {spread['q1']:.6g}..{spread['q3']:.6g}, "
                     f"n={spread['n']})")
        print(line)
        if name in units:
            metrics[name] = {"value": value, "unit": units[name]}
    if record["oracle"]:
        print(f"{record['workload']} oracle_pairs "
              f"{record['oracle']['pairs']} count  (agree: "
              f"{record['oracle']['agree']})")
    for problem in record["problems"]:
        print(f"{record['workload']} CHECK FAILED: {problem}")
    missing = set(units) - set(metrics)
    if missing and record["correct"]:
        record["correct"] = False
        print(f"{record['workload']} missing metrics: {sorted(missing)}")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main() -> int:
    # subprocess.run kills and reaps its child when an exception unwinds
    # through it; turning SIGTERM into one stops the driver process too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--runs", type=int, default=1,
                        help="with --all: runs per workload, seeds "
                             "--seed, --seed+1, ...")
    parser.add_argument("--seconds", type=float,
                        help="timed-leg budget of one run (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="input size multiplier (default 1; 0.1 with "
                             "--oracle, 0.01 with --smoke)")
    parser.add_argument("--oracle", action="store_true",
                        help="compare every workload's pairs with an "
                             "independent prefix-filter join")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at 1%% size with --oracle")
    parser.add_argument("--out", type=Path,
                        help="append each run record to this JSONL file")
    parser.add_argument("--bench-binary", type=Path,
                        help="use this bench_profile instead of building")
    args = parser.parse_args()
    if args.smoke:
        args.all, args.oracle = True, True
    if args.oracle and args.workload is None:
        args.all = True
    if args.scale is None:
        args.scale = 0.01 if args.smoke else 0.1 if args.oracle else 1.0
    if not (args.workload or args.all) or (args.workload and args.all):
        parser.error("give exactly one of --workload and --all")
    if not BENCHMARK_JSON.is_file():
        fail("BENCHMARK.json is missing from the checkout root")
    spec = json.loads(BENCHMARK_JSON.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.oracle:
        # A correctness pass: one process, a token timed-leg budget.
        args.seconds = min(args.seconds, 0.5)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")

    binary = args.bench_binary or build(min(THREADS, os.cpu_count() or 1))
    units = declared_metrics(spec, bool(args.trace))
    workloads = WORKLOADS if args.all else (args.workload,)
    seeds = [args.seed + i for i in range(args.runs if args.all else 1)]
    finals = []
    for seed in seeds:
        for workload in workloads:
            args.seed = seed
            record = run_workload(binary, workload, args)
            finals.append(report(record, units))
            if args.out:
                args.out.parent.mkdir(parents=True, exist_ok=True)
                with open(args.out, "a") as out:
                    out.write(json.dumps(record, sort_keys=True) + "\n")
    # One run reports its own metrics; --all reports only the totals.
    final = finals[0] if len(finals) == 1 else {
        "correct": all(f["correct"] for f in finals),
        "attempted": sum(f["attempted"] for f in finals),
        "failed": sum(f["failed"] for f in finals), "metrics": {}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
