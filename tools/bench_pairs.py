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

With --setup-only each run is ``perfbench/run.py --workload W
--setup-only``, one timed set-up (import and input validation) in a
fresh interpreter, in the same alternating order.  The pairs of
set-up seconds and the setup_s summary of them go under
``setup_pairs[W]`` instead; --seconds is not used.

With --trace each workload gets, in place of the pairs, one
``perfbench/run.py --workload W --seed S0 --seconds S --trace 1`` run
per side, in the same order as pair S0 (parent first on an odd seed).
The last line of each, with its per-layer metrics, goes under
``traced[W]`` as {"seed", "first", "parent", "change"}; --pairs is not
used.
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


def compare(values: dict, metric: dict) -> dict:
    """The summary row of one metric: values holds one list per side, in pair
    order; metric is its end-to-end row of BENCHMARK.json ({"name", "better", ...})."""
    sign = 1 if metric["better"] == "higher" else -1
    better = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
    q = {side: quartiles(values[side]) for side in SIDES}
    parent_median = q["parent"][1]
    rel = (q["change"][1] - parent_median) / parent_median if parent_median else 0.0
    allowed = metric["bound"] * abs(parent_median)
    # worst change run against best parent run, signed so that > 0 is better
    clear = min(sign * (c - p) for p in values["parent"] for c in values["change"]) > 0
    spread = q["parent"][2] - q["parent"][0]
    pairs = len(values["parent"])
    return {
        "parent": [round(v, 4) for v in q["parent"]],
        "change": [round(v, 4) for v in q["change"]],
        "rel": round(rel, 4),
        "change_better": better,
        "pairs": pairs,
        "beyond_bound": sign * (parent_median - q["change"][1]) > allowed,
        "unresolved": spread > allowed and not clear,
        "gain": 10 * better >= 9 * pairs and sign * (q["change"][1] - parent_median) > spread,
    }


def summarize(pairs: list, metrics: list) -> dict:
    """The summary of a workload's pairs.

    pairs holds {"seed", "first", "parent", "change"}, each side being the
    parsed last line of a run.py run; metrics holds the end-to-end rows
    of BENCHMARK.json."""
    return {
        metric["name"]: compare(
            {side: [p[side]["metrics"][metric["name"]]["value"] for p in pairs] for side in SIDES}, metric
        )
        for metric in metrics
    }


def workload_result(pairs: list, metrics: list) -> dict:
    return {
        "summary": summarize(pairs, metrics),
        "all_correct": all(p[side]["correct"] for p in pairs for side in SIDES),
        "pairs": pairs,
    }


def run_side(checkout: str, workload: str, seed: int, seconds: float | None, trace: int = 0):
    """One run.py run in the checkout; its last line of standard output, parsed.

    That is the result object (with trace 1, of a traced run), or with
    seconds None (a --setup-only run) the seconds of one timed set-up."""
    mode = ["--setup-only"] if seconds is None else ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, *mode],
        cwd=checkout,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=(seconds or 0) * 10 + 300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py in {checkout} exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pair(checkouts: dict, workload: str, seconds: float | None, seed: int, **trace) -> dict:
    """One run per side, the parent first on odd seeds; trace=1, if given, goes on to run_side."""
    order = SIDES if seed % 2 else SIDES[::-1]
    pair = {"seed": seed, "first": order[0]}
    for side in order:
        pair[side] = run_side(checkouts[side], workload, seed, seconds, **trace)
    return pair


def run_pairs(checkouts: dict, workload: str, pairs: int, seconds: float | None, seed: int, say=print) -> list:
    out = []
    for seed_k in range(seed, seed + pairs):
        pair = run_pair(checkouts, workload, seconds, seed_k)
        if seconds is None:
            say(f"seed {seed_k}: setup_s parent {pair['parent']:.4f} change {pair['change']:.4f}")
        else:
            say(f"seed {seed_k}: wall_s parent {pair['parent']['metrics']['wall_s']['value']:.4f}"
                f" change {pair['change']['metrics']['wall_s']['value']:.4f}")
        out.append(pair)
    return out


def write_result(path: str, section: str, workload: str, result: dict):
    """Put result under doc[section][workload] of the JSON file at path, keeping the rest."""
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc.setdefault(section, {})[workload] = result
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True, help="may be given more than once")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true", help="time set-ups only, into setup_pairs")
    parser.add_argument("--trace", action="store_true", help="one traced run per side, into traced")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for workload in args.workload:
        if args.trace:
            pair = run_pair(checkouts, workload, args.seconds, args.seed, trace=1)
            write_result(args.out, "traced", workload, pair)
            print(f"{workload} traced: seed {args.seed}, {len(pair['parent']['metrics'])} per-layer metrics per side")
            continue
        if args.setup_only:
            pairs = run_pairs(checkouts, workload, args.pairs, None, args.seed)
            setup = next(m for m in metrics if m["name"] == "setup_s")
            row = compare({side: [p[side] for p in pairs] for side in SIDES}, setup)
            write_result(args.out, "setup_pairs", workload, {"summary": row, "pairs": pairs})
            print(f"{workload} setup_s {row['parent'][1]} -> {row['change'][1]} ({row['rel']:+.1%}),"
                  f" change better in {row['change_better']}/{row['pairs']}")
            continue
        pairs = run_pairs(checkouts, workload, args.pairs, args.seconds, args.seed)
        result = workload_result(pairs, metrics)
        write_result(args.out, "workloads", workload, result)
        wall = result["summary"]["wall_s"]
        flagged = [f"{name} {flag}" for name, row in result["summary"].items()
                   for flag in ("beyond_bound", "unresolved", "gain") if row[flag]]
        print(f"{workload} wall_s {wall['parent'][1]} -> {wall['change'][1]} ({wall['rel']:+.1%}),"
              f" change better in {wall['change_better']}/{wall['pairs']}"
              + (f"; {', '.join(flagged)}" if flagged else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
