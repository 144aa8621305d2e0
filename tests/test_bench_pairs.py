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
        "beyond_bound": False, "unresolved": False, "gain": False,
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


def walls_pairs(walls, ok=None):
    """Pairs of canned lines with the given (parent, change) wall_s, and ok_ratio pairs if given."""
    oks = ok or [(1.0, 1.0)] * len(walls)
    return [
        {"seed": k, "first": "parent" if k % 2 else "change",
         "parent": line(p, ok=po), "change": line(c, ok=co)}
        for k, ((p, c), (po, co)) in enumerate(zip(walls, oks))
    ]


def test_beyond_bound_reads_the_bound_as_a_fraction_of_the_parent_median(bench_pairs):
    # parent median 0.10: a change median above 0.125 is beyond a bound of 0.25
    summary = bench_pairs.summarize(walls_pairs([(0.10, 0.126)] * 3), METRICS)
    assert summary["wall_s"]["beyond_bound"] is True
    summary = bench_pairs.summarize(walls_pairs([(0.10, 0.124)] * 3), METRICS)
    assert summary["wall_s"]["beyond_bound"] is False
    # a better change median is never beyond
    assert bench_pairs.summarize(walls_pairs([(0.10, 0.05)] * 3), METRICS)["wall_s"]["beyond_bound"] is False
    # higher is better: ok_ratio falling from 1.0 to 0.98 is beyond 0.01, to 0.995 it is not
    for change, beyond in ((0.98, True), (0.995, False)):
        summary = bench_pairs.summarize(walls_pairs([(0.1, 0.1)] * 3, ok=[(1.0, change)] * 3), METRICS)
        assert summary["ok_ratio"]["beyond_bound"] is beyond


def test_unresolved_when_the_parent_spread_exceeds_the_bound(bench_pairs):
    # parent 0.06 0.10 0.14: quartiles 0.08 and 0.12, a spread of 0.04 > 0.25 * 0.10
    wide = [0.06, 0.10, 0.14]
    summary = bench_pairs.summarize(walls_pairs(list(zip(wide, [0.09, 0.10, 0.11]))), METRICS)
    assert summary["wall_s"]["unresolved"] is True
    assert summary["wall_s"]["beyond_bound"] is False
    # every change run below every parent run resolves it, whatever the spread
    summary = bench_pairs.summarize(walls_pairs(list(zip(wide, [0.03, 0.04, 0.05]))), METRICS)
    assert summary["wall_s"]["unresolved"] is False
    # a tie between one change run and one parent run is not a win
    summary = bench_pairs.summarize(walls_pairs(list(zip(wide, [0.04, 0.05, 0.06]))), METRICS)
    assert summary["wall_s"]["unresolved"] is True
    # parent 0.099 0.10 0.101: spread 0.001, inside the bound
    summary = bench_pairs.summarize(walls_pairs(list(zip([0.099, 0.10, 0.101], [0.09, 0.11, 0.10]))), METRICS)
    assert summary["wall_s"]["unresolved"] is False


def test_each_workload_runs_in_turn_into_one_output(bench_pairs, monkeypatch, tmp_path):
    calls = []

    def fake_run_side(checkout, workload, seed, seconds):
        calls.append((workload, os.path.basename(checkout), seed))
        return line(0.2 if checkout.endswith("parent") else 0.1)

    monkeypatch.setattr(bench_pairs, "run_side", fake_run_side)
    out = tmp_path / "BENCH_x.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "classify-d3",
            "--workload", "selftest", "--pairs", "2", "--seconds", "1", "--seed", "5", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert calls == [
        ("classify-d3", "parent", 5), ("classify-d3", "change", 5),
        ("classify-d3", "change", 6), ("classify-d3", "parent", 6),
        ("selftest", "parent", 5), ("selftest", "change", 5),
        ("selftest", "change", 6), ("selftest", "parent", 6),
    ]
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == ["classify-d3", "selftest"]
    for result in doc["workloads"].values():
        assert [p["seed"] for p in result["pairs"]] == [5, 6]
        assert result["summary"]["wall_s"]["change_better"] == 2
        assert not result["summary"]["wall_s"]["beyond_bound"]


def test_gain_needs_nine_tenths_of_the_pairs_and_a_median_move_beyond_the_parent_spread(bench_pairs):
    parent = [0.100, 0.101, 0.102, 0.103, 0.104, 0.105, 0.106, 0.107, 0.108, 0.109]
    # parent quartiles 0.10225 and 0.10675: a spread of 0.0045 around the median 0.1045
    faster = [p - 0.01 for p in parent]
    summary = bench_pairs.summarize(walls_pairs(list(zip(parent, faster))), METRICS)
    assert summary["wall_s"]["change_better"] == 10 and summary["wall_s"]["gain"] is True
    # one pair lost still leaves 9 of 10
    one_lost = faster[:9] + [0.2]
    assert bench_pairs.summarize(walls_pairs(list(zip(parent, one_lost))), METRICS)["wall_s"]["gain"] is True
    # two pairs lost, or one lost and one tied (a tie counts for neither side), is 8 of 10
    for last_two in ([0.2, 0.2], [0.2, parent[9]]):
        walls = list(zip(parent, faster[:8] + last_two))
        summary = bench_pairs.summarize(walls_pairs(walls), METRICS)
        assert summary["wall_s"]["change_better"] == 8 and summary["wall_s"]["gain"] is False
    # every pair won, but the medians differ by 0.004, inside the parent spread
    close = [p - 0.004 for p in parent]
    summary = bench_pairs.summarize(walls_pairs(list(zip(parent, close))), METRICS)
    assert summary["wall_s"]["change_better"] == 10 and summary["wall_s"]["gain"] is False
    # a change that is worse is never a gain
    assert bench_pairs.summarize(walls_pairs(list(zip(parent, [p + 0.01 for p in parent]))), METRICS)[
        "wall_s"]["gain"] is False
    # higher is better: ok_ratio rising from 0.9 to 1.0 in every pair
    summary = bench_pairs.summarize(walls_pairs(list(zip(parent, parent)), ok=[(0.9, 1.0)] * 10), METRICS)
    assert summary["ok_ratio"]["gain"] is True and summary["wall_s"]["gain"] is False


def test_closing_line_names_the_gain(bench_pairs, monkeypatch, tmp_path, capsys):
    def fake_run_side(checkout, workload, seed, seconds):
        return line((0.2 if checkout.endswith("parent") else 0.1) + seed / 1000)

    monkeypatch.setattr(bench_pairs, "run_side", fake_run_side)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "recollement",
            "--pairs", "10", "--seconds", "1", "--seed", "1", "--out", str(tmp_path / "BENCH_x.json")]
    assert bench_pairs.main(argv) == 0
    closing = capsys.readouterr().out.strip().splitlines()[-1]
    assert closing.startswith("recollement wall_s") and "change better in 10/10" in closing
    # job_p50_s and job_tail_s are fractions of wall_s in the canned lines, so they gain too
    assert closing.endswith("; wall_s gain, job_p50_s gain, job_tail_s gain")
    doc = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert doc["workloads"]["recollement"]["summary"]["setup_s"]["gain"] is False
