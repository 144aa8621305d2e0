"""Alternating parent/change pairs of the torsite benchmark.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT CHANGE --workload classify-d3 \
        --workload selftest --pairs 10 --seconds 30 --seed 6001 --out BENCH_label.json

PARENT and CHANGE are two checkouts of the repository.  Pair k runs
``perfbench/run.py --workload W --seed S0+k --seconds S --trace 0`` once
in each, one after the other: the parent first on odd seeds, the change
first on even ones.  Each run is a fresh interpreter with
PYTHONDONTWRITEBYTECODE=1, started in its own checkout, so each side
imports its own sources.

--workload may be given more than once; the workloads run in turn, each
written to the --out file as soon as its pairs are done.  The result of
W goes under ``workloads[W]`` of the --out file, which is created or
updated; other workloads in it are kept.  It holds every pair (the seed,
which side ran first, and the last line of each run's standard output),
``all_correct``, and a summary per end-to-end metric of BENCHMARK.json:
[lower quartile, median, upper quartile] per side (inclusive quartiles),
the relative change of the medians, the number of pairs in which the
change was better (ties count for neither side), and three flags.  Two
read the metric's bound as a fraction of the parent median:
``beyond_bound`` when the change median is worse than the parent median
by more than the bound, and ``unresolved`` when the parent's quartile
spread exceeds the bound and not every change run beats every parent
run, so that the pairs cannot tell a move within the bound from noise.
``gain`` is the rule for claiming a gain: the change was better in at
least nine tenths of the pairs, and its median is better than the
parent's by more than the parent's quartile spread.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def quartiles(values: list) -> list:
    """[lower quartile, median, upper quartile], inclusive method."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list, metrics: list) -> dict:
    """The summary of a workload's pairs.

    pairs holds {"seed", "first", "parent", "change"}, each side being the
    parsed last line of a run.py run; metrics holds the end-to-end rows
    of BENCHMARK.json ({"name", "better", ...})."""
    summary = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1 if metric["better"] == "higher" else -1
        better = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        q = {side: quartiles(values[side]) for side in SIDES}
        parent_median = q["parent"][1]
        rel = (q["change"][1] - parent_median) / parent_median if parent_median else 0.0
        allowed = metric["bound"] * abs(parent_median)
        # worst change run against best parent run, signed so that > 0 is better
        clear = min(sign * (c - p) for p in values["parent"] for c in values["change"]) > 0
        spread = q["parent"][2] - q["parent"][0]
        gain = 10 * better >= 9 * len(pairs) and sign * (q["change"][1] - parent_median) > spread
        summary[name] = {
            "parent": [round(v, 4) for v in q["parent"]],
            "change": [round(v, 4) for v in q["change"]],
            "rel": round(rel, 4),
            "change_better": better,
            "pairs": len(pairs),
            "beyond_bound": sign * (parent_median - q["change"][1]) > allowed,
            "unresolved": spread > allowed and not clear,
            "gain": gain,
        }
    return summary


def workload_result(pairs: list, metrics: list) -> dict:
    return {
        "summary": summarize(pairs, metrics),
        "all_correct": all(p[side]["correct"] for p in pairs for side in SIDES),
        "pairs": pairs,
    }


def run_side(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One run.py run in the checkout; its last line of standard output."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=seconds * 10 + 300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py in {checkout} exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(checkouts: dict, workload: str, pairs: int, seconds: float, seed: int, say=print) -> list:
    out = []
    for seed_k in range(seed, seed + pairs):
        order = SIDES if seed_k % 2 else SIDES[::-1]
        pair = {"seed": seed_k, "first": order[0]}
        for side in order:
            pair[side] = run_side(checkouts[side], workload, seed_k, seconds)
        say(f"seed {seed_k}: wall_s parent {pair['parent']['metrics']['wall_s']['value']:.4f}"
            f" change {pair['change']['metrics']['wall_s']['value']:.4f}")
        out.append(pair)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True, help="may be given more than once")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for workload in args.workload:
        pairs = run_pairs(checkouts, workload, args.pairs, args.seconds, args.seed)
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc.setdefault("workloads", {})[workload] = result = workload_result(pairs, metrics)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        wall = result["summary"]["wall_s"]
        flagged = [f"{name} {flag}" for name, row in result["summary"].items()
                   for flag in ("beyond_bound", "unresolved", "gain") if row[flag]]
        print(f"{workload} wall_s {wall['parent'][1]} -> {wall['change'][1]} ({wall['rel']:+.1%}),"
              f" change better in {wall['change_better']}/{wall['pairs']}"
              + (f"; {', '.join(flagged)}" if flagged else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
