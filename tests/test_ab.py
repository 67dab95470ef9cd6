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
