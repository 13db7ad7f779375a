#!/usr/bin/env python3
"""Compares two result sets of the repo benchmark.

  python3 bench/profile/compare.py PARENT.jsonl CHANGE.jsonl
  python3 bench/profile/compare.py --self-test

Each file holds run records written by `run.py --out` (one JSON object
per line). Runs are paired in file order per workload: the i-th parent
run with the i-th change run, as taken alternately. For every (workload,
end-to-end metric) it prints both medians and quartiles and a verdict,
with the bounds read from BENCHMARK.json:

  regression  the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  the spread (IQR / median) of either side exceeds
              RESOLUTION, and not every change run beats every parent run
  better      every change run beats every parent run despite a spread
              wider than RESOLUTION
  gain        the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              own IQR
  slower      the same, the other way round: worse, but within the bound
  unchanged   none of the above

The bounds are wide enough for the machine's drift between runs
(README.md, "Noise floor"); RESOLUTION is the 10% a comparison must
resolve, so a change that is slower by less than its bound still shows
as `slower` or `unresolved`, never as `unchanged`.

Runs of one workload and seed must also agree exactly on `results` and
`pair_digest`, and the change may not fail more legs than the parent.
Exit status: 1 on any regression or exactness/failure finding, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent.parent / \
    "BENCHMARK.json"
WIN_SHARE = 0.9
RESOLUTION = 0.10


def load_runs(path: Path) -> list[dict]:
    runs = []
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record.get("trace"):
                runs.append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], bound: float,
            lower_is_better: bool) -> tuple[str, dict]:
    sign = 1 if lower_is_better else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / pm if pm else 0, (c3 - c1) / cm if cm else 0)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    detail = {"parent": (p1, pm, p3), "change": (c1, cm, c3),
              "spread": spread, "wins": wins, "pairs": len(pairs)}
    worse_by = sign * (cm - pm) / pm if pm else 0
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if worse_by > bound:
        return "regression", detail
    if spread > RESOLUTION:
        return ("better" if all_better else "unresolved"), detail
    if pairs and abs(cm - pm) > p3 - p1:
        if wins >= WIN_SHARE * len(pairs) and sign * (pm - cm) > 0:
            return "gain", detail
        if losses >= WIN_SHARE * len(pairs) and sign * (cm - pm) > 0:
            return "slower", detail
    return "unchanged", detail


def compare(parent_runs: list[dict], change_runs: list[dict],
            spec: dict) -> tuple[list[str], bool]:
    """Returns the report lines and whether the comparison passes."""
    lines, ok = [], True
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        parent = [r for r in parent_runs if r["workload"] == workload]
        change = [r for r in change_runs if r["workload"] == workload]
        if not parent or not change:
            lines.append(f"{workload}: no runs on "
                         f"{'parent' if not parent else 'change'} side")
            ok = False
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name] for r in parent if name in r["metrics"]]
            cv = [r["metrics"][name] for r in change if name in r["metrics"]]
            if not pv or not cv:
                lines.append(f"{workload} {name}: missing")
                ok = False
                continue
            result, d = verdict(pv, cv, metric["bound"],
                                metric["better"] == "lower")
            ok = ok and result != "regression"
            lines.append(
                f"{workload:<18} {name:<14} parent {d['parent'][1]:.4g} "
                f"[{d['parent'][0]:.4g}, {d['parent'][2]:.4g}]  change "
                f"{d['change'][1]:.4g} [{d['change'][0]:.4g}, "
                f"{d['change'][2]:.4g}]  spread {d['spread']:.3f}  "
                f"bound {metric['bound']}  wins {d['wins']}/{d['pairs']}  "
                f"{result}")
        if sum(r["failed"] for r in change) > sum(r["failed"] for r in parent):
            lines.append(f"{workload}: change fails more legs than parent")
            ok = False
        if not all(r["correct"] for r in change):
            lines.append(f"{workload}: a change run failed its checks")
            ok = False
        pins = {(r["seed"], r["scale"]): (r["counts"].get("results"),
                                          r["counts"].get("pair_digest"))
                for r in parent}
        for r in change:
            want = pins.get((r["seed"], r["scale"]))
            got = (r["counts"].get("results"), r["counts"].get("pair_digest"))
            if want is not None and want != got:
                lines.append(f"{workload} seed {r['seed']}: output differs "
                             f"from parent ({got} vs {want})")
                ok = False
    return lines, ok


def self_test() -> int:
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "t", "better": "lower", "bound": 0.24}]}

    def runs(values, digest="d"):
        return [{"workload": "w", "seed": i, "scale": 1, "correct": True,
                 "failed": 0, "metrics": {"t": v},
                 "counts": {"results": 5, "pair_digest": digest}}
                for i, v in enumerate(values)]

    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]
    cases = [
        ("identical", base, base, "unchanged", True),
        ("reordered", base, base[::-1], "unchanged", True),
        ("slower by 30%", base, [v * 1.3 for v in base], "regression",
         False),
        ("faster by 20%", base, [v * 0.8 for v in base], "gain", True),
        ("slower by 20%, within the bound", base, [v * 1.2 for v in base],
         "slower", True),
        ("noisy", base, [0.7, 1.3, 0.8, 1.2, 0.75, 1.25, 1.0, 0.9, 1.1,
                         1.0], "unresolved", True),
        ("noisy and slower by 20%", base,
         [v * 1.2 for v in [0.8, 1.2, 0.85, 1.15, 0.9, 1.1, 1.0, 0.95, 1.05,
                            1.0]], "unresolved", True),
        ("noisy but all better", [1.0, 1.5, 1.2, 0.9, 1.4],
         [0.5, 0.7, 0.6, 0.8, 0.55], "better", True),
    ]
    failures = 0
    for label, parent, change, want, want_ok in cases:
        lines, ok = compare(runs(parent), runs(change), spec)
        got = lines[0].rsplit(" ", 1)[-1]
        if got != want or ok != want_ok:
            print(f"FAIL {label}: got {got}/{ok}, want {want}/{want_ok}")
            failures += 1
    _, ok = compare(runs(base), runs(base, digest="other"), spec)
    if ok:
        print("FAIL changed output digest was not reported")
        failures += 1
    failed_change = runs(base)
    failed_change[0]["failed"] = 1
    _, ok = compare(runs(base), failed_change, spec)
    if ok:
        print("FAIL a failed leg on the change side was not reported")
        failures += 1
    print("compare.py self-test:", "FAILED" if failures else "OK")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK_JSON)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.parent is None or args.change is None:
        parser.error("give PARENT and CHANGE result files")
    spec = json.loads(args.benchmark.read_text())
    lines, ok = compare(load_runs(args.parent), load_runs(args.change), spec)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
