"""tools/bench_pairs.py: the summary of alternating benchmark pairs, on
canned run.py result lines (no benchmark is run)."""
import importlib.util
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.01},
]


def line(wall, ok=1.0, correct=True):
    """A last line of run.py --trace 0 standard output."""
    return {
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "metrics": {
            "setup_s": {"value": 0.15, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "job_p50_s": {"value": wall / 4, "unit": "s"},
            "job_tail_s": {"value": wall / 2, "unit": "s"},
            "peak_rss_mb": {"value": 34.0, "unit": "MB"},
            "ok_ratio": {"value": ok, "unit": "ratio"},
        },
    }


def canned_pairs():
    walls = [(0.10, 0.09), (0.12, 0.13), (0.11, 0.10), (0.13, 0.12)]
    return [
        {"seed": 7 + k, "first": "parent" if (7 + k) % 2 else "change", "parent": line(p), "change": line(c)}
        for k, (p, c) in enumerate(walls)
    ]


def test_summary_gives_quartiles_medians_and_wins(bench_pairs):
    result = bench_pairs.workload_result(canned_pairs(), METRICS)
    wall = result["summary"]["wall_s"]
    # parent sorted 0.10 0.11 0.12 0.13, change sorted 0.09 0.10 0.12 0.13
    assert wall["parent"] == [0.1075, 0.115, 0.1225]
    assert wall["change"] == [0.0975, 0.11, 0.1225]
    assert wall["rel"] == round((0.11 - 0.115) / 0.115, 4) == -0.0435
    assert (wall["change_better"], wall["pairs"]) == (3, 4)
    # equal values are a tie, which counts for neither side
    assert result["summary"]["ok_ratio"] == {
        "parent": [1.0, 1.0, 1.0], "change": [1.0, 1.0, 1.0], "rel": 0.0, "change_better": 0, "pairs": 4,
    }
    assert result["all_correct"] is True and result["pairs"] == canned_pairs()


def test_higher_is_better_and_incorrect_runs_are_reported(bench_pairs):
    pairs = canned_pairs()
    pairs[1]["change"] = line(0.13, ok=0.5, correct=False)
    pairs[2]["change"] = line(0.10, ok=1.0)
    pairs[2]["parent"] = line(0.11, ok=0.9)
    result = bench_pairs.workload_result(pairs, METRICS)
    assert result["all_correct"] is False
    assert result["summary"]["ok_ratio"]["change_better"] == 1


def test_pairs_alternate_and_merge_into_the_output(bench_pairs, monkeypatch, tmp_path):
    calls = []

    def fake_run_side(checkout, workload, seed, seconds):
        calls.append((os.path.basename(checkout), seed))
        return line(0.2 if checkout.endswith("parent") else 0.1)

    monkeypatch.setattr(bench_pairs, "run_side", fake_run_side)
    out = tmp_path / "BENCH_x.json"
    out.write_text(json.dumps({"about": "kept", "workloads": {"selftest": {"kept": True}}}))
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "classify-d3",
            "--pairs", "3", "--seconds", "1", "--seed", "5", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    # the parent runs first on odd seeds
    assert calls == [("parent", 5), ("change", 5), ("change", 6), ("parent", 6), ("parent", 7), ("change", 7)]
    doc = json.loads(out.read_text())
    assert doc["about"] == "kept" and doc["workloads"]["selftest"] == {"kept": True}
    result = doc["workloads"]["classify-d3"]
    assert [p["first"] for p in result["pairs"]] == ["parent", "change", "parent"]
    assert result["summary"]["wall_s"]["change_better"] == 3
    assert result["summary"]["wall_s"]["rel"] == -0.5
    # every end-to-end metric of BENCHMARK.json is summarised
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    assert list(result["summary"]) == names
