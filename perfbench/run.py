"""The torsite benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload classify-d3 --seed 1 --seconds 25 --trace 0

Drives the real entry point ``torsite.cli.main(argv)`` in this one
process (no worker threads, BLAS pools pinned to one thread) on the job
lists of ``perfbench/workloads.json``.  Jobs run in a closed loop: each
starts when the previous one has finished.  ``--seed`` fixes the job
order; the program sees only the site files in ``perfbench/sites``.
Every job's answer is checked against the frozen values.

A pass runs each job ``REPEAT_S / nominal_s`` times (at least once, at
most MAX_REPEATS), in a fresh seeded order; ``nominal_s`` is frozen in
``workloads.json``, so a pass holds the same samples on every commit.
Passes go on until the run is out of ``--seconds``.  Each job's time is
the mean of its samples; ``wall_s`` sums them over the job list, so it
does not depend on how many samples fit into the run.

Job times are scaled to a reference host.  On a shared host a core
switches between a fast and a slow state (1.8x apart) as neighbours load
its sibling, and the share of time in each drifts over tens of seconds,
so every time in a run moves together: raw ``wall_s`` of the same code
spread 0.13-0.22 of its median over five runs.  After each job the run
spends REFERENCE_SHARE of the job's time on a fixed reference loop that
calls nothing of torsite, and multiplies job times by (REFERENCE_S over
the loop's mean time in the run) to the power HOST_SENSITIVITY.  That
roughly halved those spreads.  The factor and the unscaled ``wall_s`` are
printed on the line before the result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
whole untraced passes with passes traced by spans around each layer's public
functions (``tracing.py``), and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Detail (per-job
times, the span summary and call tree) goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SITES = os.path.join(HERE, "sites")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
# A pass repeats short jobs so that each collects about REPEAT_S seconds
# of samples spread over the run, but a job of a few milliseconds no more
# than MAX_REPEATS times: its time matters to no metric.
REPEAT_S = 1.0
MAX_REPEATS = 8
# After each job the run spends REFERENCE_SHARE of the job's time on the
# reference loop; job times are reported on a host where one loop takes
# REFERENCE_S (about its mean on the 2-core x86 VM the benchmark was
# defined on).  Job times move less than the loop's when the host speeds
# up or slows down: regressing log job time on the log time of the loops
# next to it gave slopes of 0.5 (3 s recollement jobs) to 0.8 (0.25 s
# classify jobs), hence HOST_SENSITIVITY.
REFERENCE_SHARE = 0.12
REFERENCE_S = 0.016
HOST_SENSITIVITY = 0.7
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad spec, bad input file)."""


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def job_argv(job: dict) -> list:
    presheaf = os.path.join(SITES, f"{job['presheaf']}.json")
    if job["command"] == "classify":
        category = job["presheaf"].split("_")[0]
        topology = os.path.join(SITES, f"{category}_{job['topology']}_topology.json")
        return ["classify", presheaf, topology, "--dim-bound", str(job["dim_bound"])]
    return ["recollement", presheaf, "--idempotent", job["idempotent"], "--dim-bound", str(job["dim_bound"])]


def detail_numbers(detail: str) -> list:
    return [int(t) for t in re.findall(r"\b\d+\b", detail)]


def call_cli(cli, argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# set-up


def import_torsite():
    if not os.path.isfile(os.path.join(SRC, "torsite", "cli.py")):
        raise BenchError(f"no torsite sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import torsite
    from torsite import acceptance, cli, files

    if not os.path.abspath(torsite.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported torsite from {torsite.__file__}, not from {SRC}")
    return cli, files, acceptance


def check_spec(spec: dict, acceptance) -> None:
    """Cross-check frozen values against torsite.acceptance before any job runs."""
    frozen = {
        j["criterion"]: j["expect"]["numbers"] for j in spec["workloads"]["selftest"]["jobs"]
    }
    for c in spec["cross_checks"]["checks"]:
        job = next(j for j in spec["workloads"][c["workload"]]["jobs"] if j["id"] == c["job"])
        if job["expect"]["counts"][c["count"]] != frozen[c["criterion"]][c["index"]]:
            raise BenchError(f"frozen {c['workload']} {c['job']} {c['count']} disagrees with criterion {c['criterion']}")
    for job in spec["workloads"]["recollement"]["jobs"]:
        rank = acceptance.SKEW_DIMENSIONS.get(job["presheaf"])
        if rank is not None and rank != len(job["idempotent"].split(",")):
            raise BenchError(f"recollement job {job['id']}: idempotent length differs from skew dimension {rank}")


def setup(spec: dict, workload: str):
    """Import, cross-check, and validate plus load every input file of the workload."""
    cli, files, acceptance = import_torsite()
    check_spec(spec, acceptance)
    jobs = spec["workloads"][workload]["jobs"]
    paths = sorted({p for j in jobs if "command" in j for p in job_argv(j) if p.endswith(".json")})
    for path in paths:
        code, text = call_cli(cli, ["validate", path])
        if code != 0:
            raise BenchError(f"torsite validate {path} exited with {code}")
        if json.loads(text)["kind"] == "presheaf":
            files.load_presheaf(path)
        else:
            files.load_topology(path)
    return cli, acceptance


def setup_in_child(workload: str) -> float:
    """Time one whole set-up, import included, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up in a child process failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# jobs


def run_job(job: dict, cli, criteria: dict, wrap=None) -> tuple:
    """Run one job; returns (seconds, answer correct, note)."""
    if "criterion" in job:
        fn = criteria[job["criterion"]]
    else:
        argv = job_argv(job)

        def fn():
            return call_cli(cli, argv)

    call = fn if wrap is None else (lambda: wrap(fn))
    start = perf_counter()
    try:
        result = call()
    except AssertionError as exc:
        return perf_counter() - start, False, f"assertion: {exc}"
    except Exception:  # a crash is a failed job; the loop keeps going
        seconds = perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return seconds, False, "exception"
    seconds = perf_counter() - start
    expect = job["expect"]
    if "criterion" in job:
        got = detail_numbers(result)
        return seconds, got == expect["numbers"], "" if got == expect["numbers"] else f"numbers {got}"
    code, text = result
    if code != 0:
        return seconds, False, f"exit code {code}"
    doc = json.loads(text)
    wrong = sorted(k for k in expect if doc.get(k) != expect[k])
    return seconds, not wrong, f"differs in {wrong}" if wrong else ""


def record(index: int, job: dict, outcome: tuple) -> dict:
    seconds, ok, note = outcome
    if not ok:
        print(f"job {job['id']} failed: {note}", file=sys.stderr)
    return {"pass": index, "job": job["id"], "seconds": seconds, "ok": ok, "note": note}


def run_pass(jobs: list, index: int, rng: random.Random, cli, criteria: dict, wrap=None) -> list:
    """One closed-loop pass over the job list, in a fresh seeded order."""
    order = list(jobs)
    rng.shuffle(order)
    records = []
    for job in order:
        gc.collect()
        records.append(record(index, job, run_job(job, cli, criteria, wrap)))
    return records


def reference_loop() -> None:
    """Fixed work of the kind torsite does (small int64 matrices mod p,
    tuple keys, dict updates) that calls nothing of torsite."""
    import numpy as np  # only after import_torsite has pinned BLAS threads

    a = np.arange(16, dtype=np.int64).reshape(4, 4)
    seen = {}
    for i in range(1500):
        b = (a @ a + i) % 3
        key = tuple(b.ravel().tolist())
        seen[key] = seen.get(key, 0) + len(np.flatnonzero(b[0])) + hash(frozenset(key[:4])) % 7


class Reference:
    """Runs the reference loop for REFERENCE_SHARE of the job time, right
    after each job, so that it sees the host the jobs saw."""

    def __init__(self):
        self.times = []
        self.owed = 0.0

    def after(self, job_seconds: float) -> None:
        self.owed += REFERENCE_SHARE * job_seconds
        while self.owed > 0:
            start = perf_counter()
            reference_loop()
            self.times.append(perf_counter() - start)
            self.owed -= self.times[-1]

    def scale(self) -> float:
        """Factor from this run's seconds to seconds on the reference host."""
        return (REFERENCE_S / statistics.fmean(self.times)) ** HOST_SENSITIVITY


def repeats(job: dict) -> int:
    """How often a job runs in one pass, from its frozen nominal time."""
    return min(MAX_REPEATS, max(1, round(REPEAT_S / job["nominal_s"])))


def run_timed(jobs: list, seconds: float, rng: random.Random, cli, criteria: dict, reference: Reference) -> list:
    """Closed-loop passes until the run is out of time.

    A pass runs each job ``repeats(job)`` times in a fresh seeded order,
    each followed by its share of the reference loop.  The first pass
    always runs whole; after it, a job that would end after ``seconds`` at
    its last time is skipped, and the run ends when no job fits."""
    records = []
    last = {}
    start = perf_counter()
    order = [job for job in jobs for _ in range(repeats(job))]
    for index in itertools.count():
        rng.shuffle(order)
        for job in order:
            if index and perf_counter() - start + last[job["id"]] > seconds:
                continue
            gc.collect()
            r = record(index, job, run_job(job, cli, criteria))
            reference.after(r["seconds"])
            last[job["id"]] = r["seconds"] * (1 + REFERENCE_SHARE)
            records.append(r)
        if perf_counter() - start + min(last.values()) > seconds:
            return records


def by_pass(records: list) -> list:
    passes = {}
    for r in records:
        passes.setdefault(r["pass"], []).append(r["seconds"])
    return [passes[p] for p in sorted(passes)]


def pass_times(records: list) -> list:
    return [sum(times) for times in by_pass(records)]


def tail(values: list) -> tuple:
    """Value at the highest rank with at least ten samples above it.

    A tail sits at or above the median; with fewer than twenty-one
    samples no such rank exists and the tail is the maximum.  Returns
    (value, rank from the top, sample count)."""
    xs = sorted(values)
    n = len(xs)
    if n >= 21:
        return xs[n - 11], 11, n
    return xs[-1], 1, n


# ---------------------------------------------------------------------------
# metrics


def job_means(records: list) -> list:
    """Mean of each job's times, one value per job, in ascending order.

    A mean, not a median: a job of under a second runs wholly in the
    host's fast or slow state (1.8x apart), and the median of a few such
    samples jumps between the two."""
    jobs = {}
    for r in records:
        jobs.setdefault(r["job"], []).append(r["seconds"])
    return sorted(statistics.fmean(xs) for xs in jobs.values())


def end_to_end(records: list, setups: list, scale: float) -> tuple:
    """Each job's time is the mean of its samples; the workload's metrics
    are taken over those per-job times, so they do not depend on how many
    samples fit into the run.  Job times are multiplied by ``scale``, the
    run's factor to the reference host; set-up runs before the reference
    loop has seen the host and is not scaled."""
    times = [t * scale for t in job_means(records)]
    tail_s, rank, samples = tail(times)
    failed = sum(not r["ok"] for r in records)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (len(records) - failed) / len(records),
    }
    info = {
        "host_scale": scale,
        "unscaled_wall_s": values["wall_s"] / scale,
        "job_tail": {"rank_from_top": rank, "jobs": samples},
        "samples_per_job": len(records) / len(times),
        "setup_samples_s": setups,
    }
    return values, info


def per_layer(tracer, tracing, passes: int, traced: list, untraced: list) -> tuple:
    summary = tracer.summary()
    traced_s = sum(pass_times(traced))

    values = {}
    for name in {t[2] for t in tracing.TARGETS}:
        row = summary.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for key in ("calls", "self_s", "total_s"):
            values[f"{name}.{key}"] = row[key] / passes
    counts = tracer.counts
    members = counts["torsion.universe.members"]
    verifies = summary.get("recollement.verify", {"calls": 0})["calls"]
    values.update(
        {
            "torsion.universe.builds": values["torsion.universe.calls"],
            "torsion.universe.members": members / passes,
            "torsion.universe.structures_per_member": counts["torsion.universe.structures"] / members if members else 0.0,
            "modules.enumerate_skew_module_structures.structures": counts["modules.enumerate_skew_module_structures.structures"] / passes,
            "recollement.universes_per_verify": counts["recollement.universes"] / verifies if verifies else 0.0,
            "trace.overhead_ratio": traced_s / sum(pass_times(untraced)),
        }
    )
    for layer in tracing.LAYERS:
        busy = sum(row["self_s"] for name, row in summary.items() if name.startswith(layer + "."))
        values[f"share.{layer}"] = busy / traced_s
    values["share.unattributed"] = summary.get(tracing.ROOT, {"self_s": 0.0})["self_s"] / traced_s
    return values, {"spans": len(tracer.names), "summary": summary, "call_tree": tracer.edges()}


def declared(section: str, values: dict) -> dict:
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[section]}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = load_json(os.path.join(HERE, "workloads.json"))
    if args.workload not in spec["workloads"]:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(spec['workloads'])}")
    work = spec["workloads"][args.workload]

    start = perf_counter()
    cli, acceptance = setup(spec, args.workload)
    first_setup = perf_counter() - start
    if args.setup_only:
        print(repr(first_setup))
        return 0

    criteria = {number: fn for number, _, fn, _ in acceptance.CRITERIA}
    rng = random.Random(args.seed)
    detail = {"workload": args.workload, "seed": args.seed}

    if args.trace:
        import tracing

        # Whole untraced and traced passes alternate, so that drift in
        # machine speed does not read as tracing overhead.  Pairs of passes
        # go on while the next pair is expected to end within --seconds.
        tracer = tracing.Tracer()
        records, traced = [], []
        start = perf_counter()
        for p in itertools.count():
            pair_start = perf_counter()
            records += run_pass(work["jobs"], p, rng, cli, criteria)
            tracer.install()
            try:
                traced += run_pass(work["jobs"], p, rng, cli, criteria, wrap=tracer.run_root)
            finally:
                tracer.uninstall()
            now = perf_counter()
            if now - start + (now - pair_start) > args.seconds:
                break
        passes = p + 1
        values, extra = per_layer(tracer, tracing, passes, traced, records)
        detail.update(extra, passes=passes, jobs=records, traced_jobs=traced)
        records = records + traced
        metrics = declared("per_layer", values)
    else:
        setups = [first_setup] + [setup_in_child(args.workload) for _ in range(SETUP_REPEATS - 1)]
        reference = Reference()
        records = run_timed(work["jobs"], args.seconds, rng, cli, criteria, reference)
        values, extra = end_to_end(records, setups, reference.scale())
        detail.update(extra, jobs=records)
        metrics = declared("end_to_end", values)

    failed = sum(not r["ok"] for r in records)
    detail["metrics"] = values
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps({"info": {k: detail[k] for k in ("passes", "host_scale", "unscaled_wall_s", "samples_per_job", "job_tail", "setup_samples_s", "spans") if k in detail}}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
