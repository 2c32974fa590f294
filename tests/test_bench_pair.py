"""tools/bench_pair.py: the verdict rule and the record, on synthetic runs
and fake checkouts."""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import bench_pair

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# ten parent runs with quartiles 102.25 and 106.75 around a median of 104.5
PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


@pytest.mark.parametrize("change, better, bound, expected", [
    # lower is better: 12 ms less in every pair, against a 4.5 ms spread
    ([p - 12 for p in PARENT], "lower", 0.2, "gain"),
    # the same runs when higher is better: 11.5 % worse, within 20 %
    ([p - 12 for p in PARENT], "higher", 0.2, "within bound"),
    ([p - 12 for p in PARENT], "higher", 0.1, "worse"),
    # won 8 of 10 pairs: no gain, however large the difference
    ([p - 12 for p in PARENT[:8]] + [p + 1 for p in PARENT[8:]], "lower", 0.2,
     "within bound"),
    # won every pair, by less than the parent's quartile distance
    ([p - 1 for p in PARENT], "lower", 0.2, "within bound"),
    # a parent spread (4.3 %) wider than the bound (1 %): unresolved
    ([p + 0.5 for p in PARENT], "lower", 0.01, "unresolved"),
    # worse by more than the bound, however wide the spread
    ([p - 10 for p in PARENT], "higher", 0.01, "worse"),
], ids=["gain", "higher-is-better-within", "higher-is-better-worse",
        "too-few-wins", "inside-the-spread", "unresolved", "worse-beats-unresolved"])
def test_verdict(change, better, bound, expected):
    assert bench_pair.verdict(PARENT, change, better, bound) == expected


def test_every_change_run_better_resolves_a_wide_spread():
    parent, change = PARENT[:5], [110.0, 111.0, 112.0, 113.0, 114.0]
    assert bench_pair.verdict(parent, change, "higher", 0.01) == "within bound"
    assert bench_pair.verdict(parent, change[:4] + [101.0], "higher", 0.01) \
        == "unresolved"


def test_fewer_than_ten_pairs_never_show_a_gain():
    change = [p - 50 for p in PARENT]
    assert bench_pair.verdict(PARENT, change, "lower", 0.2) == "gain"
    assert bench_pair.verdict(PARENT[:9], change[:9], "lower", 0.2) \
        == "within bound"


def test_a_larger_failed_share_shows_no_gain():
    change = [p - 12 for p in PARENT]
    assert bench_pair.verdict(PARENT, change, "lower", 0.2, (0.01, 0.01)) == "gain"
    assert bench_pair.verdict(PARENT, change, "lower", 0.2, (0.01, 0.02)) \
        == "within bound"
    results = [{"failed": 1, "attempted": 40}, {"failed": 0, "attempted": 60}]
    assert bench_pair.failed_share(results) == 0.01


def test_ratio_interval_of_constant_ratios_is_that_ratio():
    ratio, lo, hi = bench_pair.ratio_interval(PARENT, [0.9 * p for p in PARENT])
    assert ratio == pytest.approx(0.9) and lo == pytest.approx(0.9) \
        and hi == pytest.approx(0.9)
    ratio, lo, hi = bench_pair.ratio_interval(PARENT, PARENT[::-1])
    assert lo <= ratio <= hi and lo < 1 < hi


def result_line(value):
    """A perfbench result line with every end-to-end metric at value."""
    return {"correct": True, "attempted": 4, "failed": 0,
            "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                        for m in SPEC["end_to_end"]}}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")),
                         ids=lambda path: path.name)
def test_the_record_keeps_every_key_of_a_committed_record(path):
    committed = json.loads(path.read_text())
    # run_once adds each run's median raw ms per kind
    results = {side: [dict(result_line(v), kinds={"roots": v, "sakai": 2 * v})
                      for v in values]
               for side, values in (("parent", (10.0, 11.0, 12.0)),
                                    ("change", (9.0, 11.5, 12.5)))}
    args = argparse.Namespace(workload=committed["workload"], seed=committed["seed"])
    rec = json.loads(json.dumps(
        bench_pair.record(SPEC, args, results, ("abc", "def"), "test host")))
    assert committed.keys() <= rec.keys()
    assert committed["metrics"].keys() == rec["metrics"].keys()
    for name, metric in committed["metrics"].items():
        assert metric.keys() <= rec["metrics"][name].keys()
        for side in ("parent", "change"):
            assert metric[side].keys() <= rec["metrics"][name][side].keys()
    assert rec["kinds"]["roots"]["change_wins"] == 1
    assert rec["kinds"]["sakai"]["parent"]["runs"] == [20.0, 22.0, 24.0]
    assert rec["operations"]["change"] == {"failed": 0, "attempted": 12}
    assert (rec["parent_commit"], rec["change_commit"], rec["host"]) \
        == ("abc", "def", "test host")


@pytest.mark.parametrize("label, expected", [
    ("roots E8", "roots"), ("sakai r=9", "sakai"), ("E8/11/0#3", "E8"),
    ("E6/5", "E6")])
def test_kind_is_the_first_word_cut_at_a_slash(label, expected):
    assert bench_pair.kind(label) == expected


def test_commit_is_head_marked_when_a_tracked_file_differs(tmp_path):
    def git(*argv):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
             "-c", "commit.gpgsign=false", *argv],
            cwd=tmp_path, check=True, capture_output=True, text=True).stdout.strip()
    git("init", "-q")
    (tmp_path / "tracked.txt").write_text("one\n")
    git("add", "tracked.txt")
    git("commit", "-q", "-m", "one")
    head = git("rev-parse", "HEAD")
    (tmp_path / "untracked.txt").write_text("not tracked\n")
    assert bench_pair.commit(tmp_path) == head
    (tmp_path / "tracked.txt").write_text("two\n")
    assert bench_pair.commit(tmp_path) == head + " + uncommitted changes"


def fake_checkout(path, run_py):
    """A directory whose perfbench/run.py is run_py."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(run_py)
    return str(path)


# a cli run of two operations: its trace file, then its result line
FAKE_RUN = f"""
import json, os
os.makedirs("perfbench/out", exist_ok=True)
with open("perfbench/out/cli-seed1-trace0.json", "w") as fh:
    json.dump({{"raw": {{"labels": ["roots E8", "sakai r=9"],
                        "latencies_s": [0.05, 0.07]}}}}, fh)
print({json.dumps(result_line(1.0))!r})
"""


@pytest.mark.parametrize("last_line", ["oops", "[1, 2]"])
def test_a_run_without_a_json_object_fails_cleanly(tmp_path, capsys, last_line):
    bad = fake_checkout(tmp_path, f"print({last_line!r})\n")
    assert bench_pair.main([bad, bad, "--workload", "cli", "--pairs", "1"]) == 1
    assert "pair 0: the parent run failed" in capsys.readouterr().err


def test_a_record_is_written_only_after_min_pairs_without_smoke(tmp_path, monkeypatch):
    root = tmp_path / "root"
    root.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", root)
    monkeypatch.setattr(bench_pair, "ROOT", str(root))
    monkeypatch.setattr(bench_pair, "commit", lambda checkout: "abc")
    monkeypatch.setattr(bench_pair, "this_host", lambda: "test host")
    good = fake_checkout(tmp_path / "checkout", FAKE_RUN)
    n = bench_pair.MIN_PAIRS
    for extra in (["--pairs", str(n - 1)], ["--pairs", str(n), "--smoke"]):
        assert bench_pair.main([good, good, "--workload", "cli", *extra]) == 0
        assert not (root / "BENCH_cli.json").exists()
    assert bench_pair.main([good, good, "--workload", "cli", "--pairs", str(n)]) == 0
    rec = json.loads((root / "BENCH_cli.json").read_text())
    assert rec["pairs"] == n and rec["parent_commit"] == "abc"
    assert rec["kinds"]["sakai"]["parent"]["median"] == pytest.approx(70.0)
