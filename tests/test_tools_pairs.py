import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_seed_ranges_and_lists():
    assert pairs.parse_seeds("190-193") == [190, 191, 192, 193]
    assert pairs.parse_seeds("1,2,5-6") == [1, 2, 5, 6]


def test_gain_needs_nine_tenths_of_wins_and_a_median_gap_past_the_parent_iqr():
    parent = [100.0 + i for i in range(10)]  # IQR 4.5
    res = pairs.compare(parent, [p - 10.0 for p in parent], "lower", 0.2)
    assert (res["change_better"], res["meets_gain_rule"], res["verdict"]) == (10, True, "within bound")
    res = pairs.compare(parent, [p - 4.0 for p in parent], "lower", 0.2)  # wins every pair, gap under the IQR
    assert (res["change_better"], res["meets_gain_rule"]) == (10, False)
    higher = pairs.compare(parent, [p + 10.0 for p in parent], "higher", 0.2)
    assert (higher["change_better"], higher["meets_gain_rule"]) == (10, True)


@pytest.mark.parametrize(
    "parent,change,verdict",
    [
        ([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], "worse than bound"),
        ([1.0, 1.0, 1.0, 1.0], [1.1, 1.1, 1.1, 1.1], "within bound"),
        ([0.5, 0.8, 1.2, 1.5], [1.1, 1.1, 1.1, 1.1], "unresolved (parent spread wider than bound)"),
        ([0.5, 0.8, 1.2, 1.5], [0.4, 0.4, 0.4, 0.4], "within bound"),  # every change run beats every parent run
    ],
)
def test_verdict_against_bound(parent, change, verdict):
    assert pairs.compare(parent, change, "lower", 0.25)["verdict"] == verdict


@pytest.mark.parametrize("workloads", [["a", "b"], ["a", "b", "c"], ["a", "b", "c", "d"]])
def test_each_workloads_pairs_alternate_which_side_runs_first(workloads):
    plan = pairs.build_plan(workloads, [7, 8, 9, 10], traced_seed=3)
    for w in workloads:
        firsts = [order[0] for wl, _, trace, order in plan if wl == w and not trace]
        assert firsts == ["parent", "change", "parent", "change"] or firsts == ["change", "parent", "change", "parent"]
    untraced = [order[0] for _, _, trace, order in plan if not trace]
    assert untraced.count("parent") == untraced.count("change")
    assert [(wl, s, order) for wl, s, trace, order in plan if trace] == [(w, 3, pairs.SIDES) for w in workloads]


def test_tool_line_records_the_work_directory_as_dir(monkeypatch):
    monkeypatch.chdir(pairs.REPO)
    argv = ["p1", "c2", "--seeds", "1-2", "--out", "BENCH_x.json", "--work", "/abs/scratch", "--traced-seed", "3"]
    assert pairs.tool_line(argv) == (
        "python tools/pairs.py p1 c2 --seeds 1-2 --out BENCH_x.json --work DIR --traced-seed 3"
    )
    assert pairs.tool_line(["p1", "c2", "--work=/abs/scratch"]) == "python tools/pairs.py p1 c2 --work=DIR"
    assert pairs.tool_line(["p1", "c2", "--wor", "/abs/scratch"]) == "python tools/pairs.py p1 c2 --wor DIR"
    plain = ["p1", "c2", "--seeds", "1,5", "--out", "BENCH_x.json", "--what", "a change"]
    assert pairs.tool_line(plain) == "python tools/pairs.py " + " ".join(plain)
    # --out: relative to the repository root inside it, else OUT/<file name>
    inside = str(pairs.REPO / "perfbench" / ".." / "BENCH_x.json")
    assert pairs.tool_line(["p1", "c2", "--out", inside]) == "python tools/pairs.py p1 c2 --out BENCH_x.json"
    outside = str(pairs.REPO.parent / "elsewhere" / "BENCH_x.json")
    assert pairs.tool_line(["p1", "c2", f"--out={outside}"]) == "python tools/pairs.py p1 c2 --out=OUT/BENCH_x.json"
    assert pairs.tool_line(["p1", "c2", "--ou", outside]) == "python tools/pairs.py p1 c2 --ou OUT/BENCH_x.json"
    assert pairs.tool_line(["p1", "c2", "--ou=perfbench/x.json"]) == "python tools/pairs.py p1 c2 --ou=perfbench/x.json"


def _run(side, seed, value, failed=0, returncode=0):
    result = {"attempted": 4, "failed": failed, "metrics": {"m": {"value": value}}} if returncode == 0 else None
    return {"side": side, "workload": "w", "seed": seed, "trace": 0, "result": result}


def test_a_change_that_fails_more_meets_no_gain_rule():
    bench = {"workloads": [{"name": "w"}], "end_to_end": [{"name": "m", "better": "lower", "bound": 0.2}]}
    runs = [_run(s, seed, 100.0 + seed if s == "parent" else 80.0 + seed) for seed in range(10) for s in pairs.SIDES]
    assert pairs.summarize(runs, bench)["w"]["m"]["meets_gain_rule"]
    for extra in (_run("change", 10, 0.0, returncode=1), _run("change", 10, 80.0, failed=1)):
        res = pairs.summarize(runs + [_run("parent", 10, 110.0), extra], bench)["w"]
        assert res["m"]["change_better"] == 10 and not res["m"]["meets_gain_rule"]


def test_export_extracts_the_committed_tree(tmp_path):
    try:
        head = pairs.git("rev-parse", "--short", "HEAD").decode().strip()
    except (OSError, pairs.subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    assert pairs.export("HEAD", tmp_path / "tree") == head
    assert (tmp_path / "tree" / "tools" / "pairs.py").is_file()
