"""tools/ab.py's summary of paired benchmark runs: medians, IQRs and pairs won."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_summary_of_fixed_runs():
    # four pairs; the change wins op/s in pairs 1, 3 and 4, and peak RSS in
    # pair 2 alone, as a tie (pair 3) is not a win
    ops = {"parent": [100, 110, 120, 130], "change": [150, 105, 160, 170]}
    rss = {"parent": [20, 20, 20, 20], "change": [21, 19, 20, 22]}
    runs = [
        {"pair": pair, "side": side, "ops_per_s": ops[side][pair - 1], "peak_rss_mb": rss[side][pair - 1]}
        for pair in range(1, 5)
        for side in ("parent", "change")
    ]
    summary = ab.summarise(runs, {"ops_per_s": "higher", "peak_rss_mb": "lower"})
    assert summary["ops_per_s"] == {
        "parent_median": 115, "parent_q1": 107.5, "parent_q3": 122.5, "parent_iqr": 15,
        "change_median": 155, "change_q1": 138.75, "change_q3": 162.5, "change_iqr": 23.75,
        "change_over_parent": 1.3478, "pairs_change_better": 3,
    }
    assert summary["peak_rss_mb"]["change_median"] == 20.5
    assert summary["peak_rss_mb"]["change_over_parent"] == 1.025
    assert summary["peak_rss_mb"]["pairs_change_better"] == 1


@pytest.mark.parametrize("workload", ["certify_verify", "exact_sweep", "large_lambda"])
def test_summary_reproduces_a_recorded_bench_file(workload):
    # BENCH_30.json was written by hand from its runs; the script gives its
    # every median, quartile, IQR, ratio and count of pairs from those runs
    entry = json.loads((ROOT / "BENCH_30.json").read_text())["workloads"][workload]["end_to_end"][0]
    assert ab.summarise(entry["runs"], METRICS) == entry["metrics"]


def _fixed_runs(monkeypatch, outcomes):
    """Make ab.run_once return outcomes[(pair, side)], or a correct run with the values {"ops_per_s": 100, "peak_rss_mb": 20}."""

    def run_once(tree, workload, seed, out):
        pair, side = int(out.name.split("-")[-2]), out.name.split("-")[-1]
        default = {"values": {"ops_per_s": 100, "peak_rss_mb": 20}, "correct": True, "attempted": 10, "failed": 0}
        return outcomes.get((pair, side), default)

    monkeypatch.setattr(ab, "run_once", run_once)


SPECS = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
         if m["name"] in ("ops_per_s", "peak_rss_mb")}


def test_peak_rss_past_its_bound_is_recorded_outside_the_metrics(monkeypatch, tmp_path, capsys):
    # every change run reads 5.6 % more peak RSS than the parent, past the 5 % bound
    outcome = {"values": {"ops_per_s": 101, "peak_rss_mb": 21.12}, "correct": True, "attempted": 10, "failed": 0}
    _fixed_runs(monkeypatch, {(pair, "change"): outcome for pair in range(1, 5)})
    faulty = []
    entry = ab.compare(Path("parent"), Path("change"), "large_lambda", 4, 0, SPECS, tmp_path, faulty)
    assert entry["over_bound"] == {"peak_rss_mb": 1.056}
    assert entry["metrics"]["peak_rss_mb"]["change_over_parent"] == 1.056
    assert "over_bound" not in entry["metrics"]
    assert faulty == []
    assert "large_lambda: peak_rss_mb change median is 1.056x the parent's" in capsys.readouterr().out


def test_a_run_that_is_not_correct_makes_the_script_exit_1_and_is_named(monkeypatch, tmp_path, capsys):
    # pair 2's change run is not correct, and pair 3's parent run failed an
    # operation; the BENCH file is still written, within bounds
    bad = {"values": {"ops_per_s": 100, "peak_rss_mb": 20}, "correct": False, "attempted": 10, "failed": 0}
    failing = {"values": {"ops_per_s": 100, "peak_rss_mb": 20}, "correct": True, "attempted": 10, "failed": 1}
    _fixed_runs(monkeypatch, {(2, "change"): bad, (3, "parent"): failing})
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": list(SPECS.values())}))
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    monkeypatch.setattr(ab, "export_tree", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(ab, "same_perfbench", lambda commit: True)
    assert ab.main(["--number", "0", "--what", "fixed runs", "--pairs", "4", "--workload", "large_lambda"]) == 1
    err = capsys.readouterr().err
    assert "large_lambda pair 2 change (correct=False, failed operations=0)" in err
    assert "large_lambda pair 3 parent (correct=True, failed operations=1)" in err
    entry = json.loads((tmp_path / "BENCH_0.json").read_text())["workloads"]["large_lambda"]["end_to_end"][0]
    assert entry["all_correct"] is False
    assert entry["failed_operations"] == {"parent": 1, "change": 0}
    assert entry["over_bound"] == {}


def test_a_clean_run_exits_0(monkeypatch, tmp_path):
    _fixed_runs(monkeypatch, {})
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": list(SPECS.values())}))
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    monkeypatch.setattr(ab, "export_tree", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(ab, "same_perfbench", lambda commit: True)
    assert ab.main(["--number", "0", "--what", "fixed runs", "--pairs", "2", "--workload", "large_lambda"]) == 0


def test_worst_pair_of_fixed_runs(monkeypatch, tmp_path, capsys):
    # op/s: the change reads 1.2x, 0.98x, 1.1x and 1.05x the parent's, so its
    # worst pair is pair 2; peak RSS: 1.01x, 1.0x, 1.044x and 0.99x, worst in
    # pair 3, within the 5 % bound
    ops = {"parent": [100, 100, 100, 100], "change": [120, 98, 110, 105]}
    rss = {"parent": [20, 20, 25, 20], "change": [20.2, 20, 26.1, 19.8]}
    _fixed_runs(monkeypatch, {
        (pair, side): {"values": {"ops_per_s": ops[side][pair - 1], "peak_rss_mb": rss[side][pair - 1]},
                       "correct": True, "attempted": 10, "failed": 0}
        for pair in range(1, 5) for side in ("parent", "change")
    })
    entry = ab.compare(Path("parent"), Path("change"), "large_lambda", 4, 0, SPECS, tmp_path, [])
    assert entry["worst_pair"] == {"ops_per_s": 0.98, "peak_rss_mb": 1.044}
    assert entry["over_bound"] == {}
    assert "worst_pair" not in entry["metrics"]
    assert "large_lambda: peak_rss_mb is 1.044x the parent's in the change's worst pair" in capsys.readouterr().out


def test_each_seed_writes_its_own_entry(monkeypatch, tmp_path):
    # two seeds of two pairs each: the change reads 110 op/s at seed 0 and
    # 130 at seed 1 against the parent's 100, so each entry summarises the
    # runs of its own seed alone
    def run_once(tree, workload, seed, out):
        ops = 100 if out.name.endswith("parent") else 110 + 20 * seed
        return {"values": {"ops_per_s": ops, "peak_rss_mb": 20}, "correct": True, "attempted": 10, "failed": 0}

    monkeypatch.setattr(ab, "run_once", run_once)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": list(SPECS.values())}))
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    monkeypatch.setattr(ab, "export_tree", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(ab, "same_perfbench", lambda commit: True)
    argv = ["--number", "0", "--what", "fixed runs", "--pairs", "2", "--seed", "0", "--seed", "1"]
    assert ab.main(argv + ["--workload", "large_lambda", "--workload", "exact_sweep"]) == 0
    workloads = json.loads((tmp_path / "BENCH_0.json").read_text())["workloads"]
    assert list(workloads) == ["large_lambda", "exact_sweep"]
    for entries in workloads.values():
        assert [(entry["seed"], entry["pairs"], len(entry["runs"])) for entry in entries["end_to_end"]] == [
            (0, 2, 4), (1, 2, 4)]
        assert [entry["metrics"]["ops_per_s"]["change_over_parent"] for entry in entries["end_to_end"]] == [1.1, 1.3]


def test_a_run_without_a_result_file_is_recorded_and_named(monkeypatch, tmp_path, capsys):
    # the change tree's run.py exits 1 before writing its result file, as a
    # tree that fails to import does; the parent tree's writes a correct
    # result.  Every pair is still run, the file is written without metrics,
    # as no pair has both runs measured, and the script exits 1
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": list(SPECS.values())}))
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("import sys\nsys.exit(1)\n")
    result = {"metrics": {"ops_per_s": {"value": 100}, "peak_rss_mb": {"value": 20}},
              "correct": True, "attempted": 10, "failed": 0}
    writer = (
        "import json, pathlib, sys\n"
        "args = dict(zip(sys.argv[1::2], sys.argv[2::2]))\n"
        "out = pathlib.Path(args['--out'])\n"
        "out.mkdir(parents=True)\n"
        "name = f\"{args['--workload']}-seed{args['--seed']}-trace0.json\"\n"
        f"(out / name).write_text(json.dumps({result!r}))\n"
    )

    def export_tree(rev, dest):
        (dest / "perfbench").mkdir()
        (dest / "perfbench" / "run.py").write_text(writer)
        return "0" * 40

    monkeypatch.setattr(ab, "ROOT", tmp_path)
    monkeypatch.setattr(ab, "export_tree", export_tree)
    monkeypatch.setattr(ab, "same_perfbench", lambda commit: False)
    assert ab.main(["--number", "0", "--what", "a failing tree", "--pairs", "2", "--workload", "large_lambda"]) == 1
    err = capsys.readouterr().err
    for pair in (1, 2):
        assert (f"large_lambda pair {pair} change (correct=False, failed operations=0) at seed 0, "
                "no result file, exit code 1") in err
    entry = json.loads((tmp_path / "BENCH_0.json").read_text())["workloads"]["large_lambda"]["end_to_end"][0]
    assert entry["all_correct"] is False
    assert entry["metrics"] == entry["worst_pair"] == entry["over_bound"] == {}
    assert entry["runs"] == [
        {"pair": 1, "side": "parent", "ops_per_s": 100, "peak_rss_mb": 20},
        {"pair": 1, "side": "change", "exit_code": 1},
        {"pair": 2, "side": "change", "exit_code": 1},
        {"pair": 2, "side": "parent", "ops_per_s": 100, "peak_rss_mb": 20},
    ]
