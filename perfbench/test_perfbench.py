"""Tests of the benchmark itself: its output format, its gates, and its tracer."""
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from polyacert import lattice  # noqa: E402
from polyacert.lattice import CountResult  # noqa: E402

BENCH = Path(run.__file__).resolve().parent


def _bench(tmp_path, *args, cwd=run.ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args, "--out", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, units", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_short_run_prints_every_metric_with_its_unit(tmp_path, trace, units):
    proc = _bench(tmp_path, "--workload", "exact_sweep", "--seed", "0",
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines), name
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    saved = json.loads((tmp_path / f"exact_sweep-seed0-trace{trace}.json").read_text())
    assert saved["context"]["digest_ok"] is True
    assert saved["environment"]["rational_backend"] == "fractions"


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _default_seed_records(workload):
    ctx, stream = run.setup(workload, workloads.DEFAULT_SEED, Path("unused"))
    specs = [next(stream) for _ in range(workload.digest_ops)]
    records, _, _ = run.run_ops(workload, specs, ctx, seconds=0, min_ops=len(specs))
    return records


def test_perturbed_count_trips_the_digest_gate(monkeypatch):
    workload = workloads.WORKLOADS["exact_sweep"]
    assert run.digest_gate(workload, _default_seed_records(workload), 0, ["fractions"])["digest_ok"]

    original = lattice.count_weighted

    def off_by_one(*args, **kwargs):
        result = original(*args, **kwargs)
        return CountResult(result.value + 1, result.rigor)

    monkeypatch.setattr(lattice, "count_weighted", off_by_one)
    gate = run.digest_gate(workload, _default_seed_records(workload), 0, ["fractions"])
    assert not gate["digest_ok"]
    assert gate["digest"] != gate["digest_expected"]


def test_a_failed_operation_is_counted_and_a_wrong_output_fails_the_run():
    workload = workloads.WORKLOADS["exact_sweep"]
    ctx = workloads.Context("unused")
    spec = ("count_weighted", 2, "D", "10")
    records = [
        (spec, workload.run_op(spec, ctx)[0], {}),
        (spec, ("raised", "GuessFailedError: arccos bracket failed to verify"), {}),
        (spec, 10**6, {}),
    ]
    checks = run.check_records(workload, records, ctx)
    assert (checks["failed"], checks["wrong"], checks["oracle_compared"]) == (2, 1, 1)


def test_large_lambda_leaves_out_inputs_that_hit_the_known_defect():
    workload = workloads.WORKLOADS["large_lambda"]
    assert workloads.needs_unverifiable_bracket("N", Fraction(11393, 11))
    stream = workload.inputs(workloads.DEFAULT_SEED)
    specs = [next(stream) for _ in range(200)]
    assert workload.skipped > 0
    assert workload.KNOWN_DEFECT not in specs
    assert not any(workloads.needs_unverifiable_bracket(kind, Fraction(lam))
                   for _, _, kind, lam in specs)


def _polyacert_bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "polyacert" or name.startswith("polyacert.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_traced_run_restores_every_binding(tmp_path):
    before = _polyacert_bindings()
    workload = workloads.WORKLOADS["certify_verify"]
    ctx, stream = run.setup(workload, 3, tmp_path)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            curve = sys.modules["polyacert.curve"]
            assert curve.sqrt_bounds is not before[("polyacert.curve", "sqrt_bounds")]
            run.run_ops(workload, [next(stream)], ctx, seconds=0, min_ops=1, tracer=tracer)
            raise RuntimeError("leave the traced block early")
    after = _polyacert_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["cli.main.self_ms_per_call"] > 0
    assert metrics["lattice.certified_floor_term.calls"] == 0
    assert metrics["curve.g_lower.calls"] > 0


def test_each_installed_backend_reproduces_the_recorded_digest():
    digests = run.backend_digests("exact_sweep", run.installed_backends())
    assert set(digests) >= {"fractions"}
    assert set(digests.values()) == {workloads.RECORDED_DIGESTS["exact_sweep"]}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path / "out", "--workload", "exact_sweep", "--seed", "0",
                  "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
