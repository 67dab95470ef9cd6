"""A/B benchmark of the working tree against a parent commit, written as ``BENCH_<n>.json``.

Runs ``perfbench/run.py``, unchanged, on two trees: the parent commit,
exported with ``git archive`` into a temporary directory, and the working
tree.  Each workload runs in alternating pairs of untraced runs at each
seed: odd pairs run the parent first, even pairs the change first, so
that a slow drift of the host's speed falls on both sides alike.  The
result has the layout of the earlier ``BENCH_*.json`` files, with one
``end_to_end`` entry per workload and seed: every run, and per end-to-end
metric of ``BENCHMARK.json`` the median, quartiles and IQR of each side,
the ratio of the medians and the pairs the change won.
Each entry also records, under ``over_bound``, every metric whose
change median is worse than the parent's by more than its bound, and the
script prints them; and under ``worst_pair``, each metric's change/parent
ratio in the pair where the change did worst, of which the script prints
peak_rss_mb's.  Op/s of one tree move between sessions on a shared
host, so a file compares its two sides only with each other.

    python3 tools/ab.py --number 33 --parent HEAD --what "what the change does"

takes about 40 minutes at the defaults (three workloads, ten 35 s pairs
at seed 0).  ``--seed`` is repeatable, and each seed runs ``--pairs``
pairs of its own: ``--seed 0 --seed 1`` writes each workload's seed-0
entry and then its seed-1 entry.
The parent tree and the runs' result files live in a temporary directory
that is removed at the end.  The file is written either way, but the
script exits 1, naming the runs, if any run is not correct, has failed
operations or wrote no result file (recorded with its exit code).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify_verify", "exact_sweep", "large_lambda")
SECONDS = 35  # the length of every run, as BENCHMARK.json's run_seconds
ORDER = "alternating: odd pairs ran the parent first, even pairs the change first"


def export_tree(rev: str, dest: Path) -> str:
    """Write the committed files of ``rev`` under ``dest``; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def same_perfbench(commit: str) -> bool:
    """Whether the working tree's tracked perfbench files are those of ``commit``."""
    return subprocess.run(["git", "diff", "--quiet", commit, "--", "perfbench"], cwd=ROOT).returncode == 0


def run_once(tree: Path, workload: str, seed: int, out: Path) -> dict:
    """One untraced perfbench run of ``tree``: its metric values, correctness and operation counts.

    A run that writes no result file, such as one whose tree fails to
    import, is not correct, has no values and keeps its exit code.
    """
    code = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(SECONDS), "--out", str(out)], cwd=tree, check=False,
                          stdout=subprocess.DEVNULL).returncode
    path = out / f"{workload}-seed{seed}-trace0.json"
    if not path.exists():
        return {"values": {}, "correct": False, "attempted": 0, "failed": 0, "exit_code": code}
    with open(path) as handle:
        result = json.load(handle)
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    return {"values": values, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), by statistics.quantiles's inclusive method."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def by_side(runs: list[dict]) -> dict[str, dict[int, dict]]:
    """The runs of each side, "parent" and "change", by pair."""
    return {side: {run["pair"]: run for run in runs if run["side"] == side} for side in ("parent", "change")}


def summarise(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Per metric: each side's median, q1, q3 and IQR, the ratio of the medians and the pairs the change won.

    ``runs`` are records {"pair", "side", <metric>: value}, one per side and
    pair; ``metrics`` maps each metric to its better direction, "higher" or
    "lower".  A pair is won when the change's value is strictly better.
    """
    sides = by_side(runs)
    summary = {}
    for name, better in metrics.items():
        entry = {}
        for side, by_pair in sides.items():
            q1, median, q3 = quartiles([run[name] for run in by_pair.values()])
            entry.update({f"{side}_median": round(median, 4), f"{side}_q1": round(q1, 4),
                          f"{side}_q3": round(q3, 4), f"{side}_iqr": round(q3 - q1, 4)})
        parent, change = sides["parent"], sides["change"]
        won = [(change[p][name] > parent[p][name]) if better == "higher" else (change[p][name] < parent[p][name])
               for p in parent]
        medians = [statistics.median(run[name] for run in sides[side].values()) for side in ("parent", "change")]
        entry["change_over_parent"] = round(medians[1] / medians[0], 4)
        entry["pairs_change_better"] = sum(won)
        summary[name] = entry
    return summary


def over_bound(summary: dict, metrics: dict[str, dict]) -> dict[str, float]:
    """The metrics of ``summary`` whose change median is worse than the parent's by more than their bound.

    ``metrics`` maps each metric to its BENCHMARK.json entry ("better" and
    "bound"); the result maps each such metric to its ratio of medians.
    """
    worse = {}
    for name, entry in summary.items():
        ratio, spec = entry["change_over_parent"], metrics[name]
        if (ratio < 1 - spec["bound"]) if spec["better"] == "higher" else (ratio > 1 + spec["bound"]):
            worse[name] = ratio
    return worse


def worst_pair(runs: list[dict], metrics: dict[str, str]) -> dict[str, float]:
    """Per metric, the change/parent ratio in the pair where the change did worst.

    ``runs`` and ``metrics`` are as for :func:`summarise`: the worst pair
    has the least ratio of a metric better "higher" and the greatest of one
    better "lower".
    """
    sides = by_side(runs)
    worst = {}
    for name, better in metrics.items():
        ratios = [sides["change"][p][name] / sides["parent"][p][name] for p in sides["parent"]]
        worst[name] = round(min(ratios) if better == "higher" else max(ratios), 4)
    return worst


def compare(parent: Path, change: Path, workload: str, pairs: int, seed: int, metrics: dict[str, dict],
            scratch: Path, faulty: list[str]) -> dict:
    """The workload's entry in the BENCH file at one seed.

    Appends to ``faulty`` each run that is not correct or failed operations.
    A run without a result file is recorded with its exit code, and the
    metrics summarise only the pairs whose two runs both have values, so
    they are empty below two such pairs.
    """
    runs, correct, unmeasured = [], True, set()
    failed, attempted = {"parent": 0, "change": 0}, {"parent": 0, "change": 0}
    for pair in range(1, pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            tree = parent if side == "parent" else change
            outcome = run_once(tree, workload, seed, scratch / "results" / f"{workload}-seed{seed}-{pair}-{side}")
            print(f"{workload} seed {seed} pair {pair} {side}: {outcome['values']} correct={outcome['correct']}",
                  flush=True)
            run = {"pair": pair, "side": side, **{k: round(v, 4) for k, v in outcome["values"].items()}}
            missing = ""
            if "exit_code" in outcome:
                run["exit_code"] = outcome["exit_code"]
                unmeasured.add(pair)
                missing = f", no result file, exit code {outcome['exit_code']}"
            runs.append(run)
            failed[side] += outcome["failed"]
            attempted[side] += outcome["attempted"]
            correct &= outcome["correct"]
            if not outcome["correct"] or outcome["failed"]:
                faulty.append(f"{workload} pair {pair} {side} (correct={outcome['correct']}, "
                              f"failed operations={outcome['failed']}) at seed {seed}{missing}")
    better = {name: spec["better"] for name, spec in metrics.items()}
    measured = [run for run in runs if run["pair"] not in unmeasured]
    summary, worst = {}, {}
    if pairs - len(unmeasured) >= 2:  # for quartiles
        summary, worst = summarise(measured, better), worst_pair(measured, better)
    worse = over_bound(summary, metrics)
    for name, ratio in worse.items():
        print(f"{workload}: {name} change median is {ratio}x the parent's, past its bound "
              f"{metrics[name]['bound']}, at seed {seed}", flush=True)
    if "peak_rss_mb" in worst:
        print(f"{workload}: peak_rss_mb is {worst['peak_rss_mb']}x the parent's in the change's worst pair "
              f"at seed {seed}", flush=True)
    entry = {"seed": seed, "pairs": pairs, "seconds": SECONDS, "order": ORDER,
             "failed_operations": failed, "attempted_operations": attempted,
             "all_correct": correct, "over_bound": worse, "worst_pair": worst, "metrics": summary, "runs": runs}
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, required=True, help="write BENCH_<number>.json at the repo root")
    parser.add_argument("--parent", default="HEAD", help="the parent commit (default HEAD)")
    parser.add_argument("--what", required=True, help="the file's description of the comparison and the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, action="append",
                        help="a seed to run --pairs pairs at, each with its own entry (repeatable; default 0)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to run (repeatable; default all three)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    with open(ROOT / "BENCHMARK.json") as handle:
        metrics = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    faulty = []
    with tempfile.TemporaryDirectory(prefix="polyacert-ab-") as scratch:
        parent = Path(scratch) / "parent"
        parent.mkdir()
        commit = export_tree(args.parent, parent)
        workloads = {}
        for workload in args.workload or WORKLOADS:
            for seed in args.seed or [0]:
                entry = compare(parent, ROOT, workload, args.pairs, seed, metrics, Path(scratch), faulty)
                workloads.setdefault(workload, {"end_to_end": []})["end_to_end"].append(entry)
    bench = {
        "what": args.what,
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "machine": platform.machine(), "rational_type": "fractions.Fraction"},
        "revisions": {"parent_commit": commit,
                      "note": "the change side is the working tree's src tree; the perfbench trees of both sides "
                              + ("are identical" if same_perfbench(commit) else "differ")},
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.number}.json"
    with open(out, "w") as handle:
        json.dump(bench, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out}")
    for run in faulty:
        print(f"not correct or with failed operations: {run}", file=sys.stderr)
    return 1 if faulty else 0


if __name__ == "__main__":
    sys.exit(main())
