#!/usr/bin/env python3
"""Layered benchmark for polyacert.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  One process, one thread, one client in a closed
loop: the next operation starts when the previous one has finished.

``--trace 0`` measures for ``--seconds`` seconds (and at least the
workload's digest prefix and eleven operations) with tracing off, and
reports the end-to-end metrics.  ``--trace 1`` runs the workload's fixed
number of operations three times, untraced, traced and untraced again,
and reports the per-layer metrics and the tracing overhead.  Both check every output,
compare the output digest with the recorded one at the default seed, and
count disagreements with the double-precision oracle.  An operation the
program cannot do (an exception, a non-zero exit) is counted in ``failed``;
a wrong output or a digest mismatch makes the run incorrect.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, environment included, goes to
``perfbench/results/`` (spans of a traced run too).  The exit code is 0
only when the run is correct.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import drift

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
TAIL_BEYOND = 10  # the tail percentile keeps this many operations above it

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "verified.arccos_bounds.calls": "count",
    "verified.arccos_bounds.self_us_per_call": "us",
    "verified.arccos_bounds.attempts_per_call": "1/call",
    "verified.arccos_bounds.hi_denom_bits_mean": "bits",
    "verified.sqrt_bounds.calls": "count",
    "verified.sqrt_bounds.self_us_per_call": "us",
    "verified.sqrt_bounds.attempts_per_call": "1/call",
    "verified.pi_bounds.calls": "count",
    "verified.pi_bounds.self_us_per_call": "us",
    "verified.guess_failed": "count",
    "rational.simplest_in.calls": "count",
    "rational.simplest_in.us_per_call": "us",
    "curve.g_lower.calls": "count",
    "curve.g_lower.self_us_per_call": "us",
    "lattice.certified_floor_term.calls": "count",
    "lattice.certified_floor_term.self_us_per_call": "us",
    "lattice.certified_floor_term.brackets_per_call": "1/call",
    "lattice.certified_floor_term.unresolved": "count",
    "lattice.count_weighted.calls": "count",
    "lattice.count_weighted.ms_per_call": "ms",
    "lattice.count_neumann2_certified_lower.calls": "count",
    "lattice.count_neumann2_certified_lower.ms_per_call": "ms",
    "lattice.count_dirichlet_dim_reduction.calls": "count",
    "lattice.count_dirichlet_dim_reduction.ms_per_call": "ms",
    "lattice.sector_lattice_bound.calls": "count",
    "lattice.sector_lattice_bound.ms_per_call": "ms",
    "lattice.terms": "count",
    "certify.certify.steps_per_call": "1/call",
    "certify.certify.delta_attempts_per_step": "1/step",
    "certify.certify.self_ms_per_call": "ms",
    "certify.verify_certificate.fresh_counts_per_step": "1/step",
    "certify.verify_certificate.self_ms_per_call": "ms",
    "cli.main.self_ms_per_call": "ms",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def import_program():
    """Import polyacert from this checkout's src/, or stop with an error."""
    if not (SRC / "polyacert" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no polyacert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polyacert

    if Path(polyacert.__file__).resolve().parent != SRC / "polyacert":
        raise SystemExit(f"perfbench: polyacert imported from {polyacert.__file__}, not {SRC}")
    return polyacert


def environment() -> dict:
    import scipy

    from polyacert.rational import RATIONAL_BACKEND

    return {
        "python": platform.python_version(),
        "rational_backend": RATIONAL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def installed_backends() -> list[str]:
    return ["fractions"] + (["gmpy2"] if importlib.util.find_spec("gmpy2") else [])


def _child(args: list[str], env=None) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env,
    )


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES):
    """Seconds from process start to ready-to-time, in ``probes`` fresh processes.

    Returns the drift-corrected and the raw times; the reference is timed
    just before and just after each probe.
    """
    corrected, raw = [], []
    for _ in range(probes):
        ref_before = drift.reference_time()
        t0 = perf_counter()
        proc = _child(["--workload", workload, "--seed", str(seed), "--setup-probe"])
        try:
            line = proc.stdout.readline().strip()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
        ref = (ref_before + drift.reference_time()) / 2
        raw.append(elapsed)
        corrected.append(elapsed * drift.REFERENCE_S / ref)
    return corrected, raw


def backend_digests(workload: str, backends: list[str]) -> dict[str, str]:
    """The default-seed digest computed under each rational backend, one process each."""
    digests = {}
    for backend in backends:
        proc = _child(["--workload", workload, "--digest-only"],
                      env=dict(os.environ, POLYACERT_BACKEND=backend))
        out, _ = proc.communicate(timeout=170)
        digests[backend] = out.strip().splitlines()[-1] if proc.returncode == 0 and out.strip() else None
    return digests


def setup(workload, seed: int, out_dir: Path):
    """Everything before the first timed operation: inputs, context, warm caches."""
    import workloads

    ctx = workloads.Context(str(out_dir))
    stream = workload.inputs(seed)
    workloads.warm_up(workload)
    return ctx, stream


def run_ops(workload, specs, ctx, *, seconds: float, min_ops: int, tracer=None):
    """Closed loop over ``specs``; returns (records, wall seconds, drift meter).

    Stops once ``min_ops`` operations are done and they took ``seconds`` of
    drift-corrected time, so that how many operations a run makes does not
    depend on the host's speed; or, on a host slower than nominal, after
    ``seconds`` of wall time; or when ``specs`` runs out.  A record is (input, output, latencies
    in seconds).  The reference computation is timed between operations,
    off their clock.
    """
    records = []
    meter = drift.DriftMeter()
    meter.sample(0)
    busy = 0.0
    t_start = perf_counter()
    for spec in specs:
        span = tracer.op() if tracer is not None else contextlib.nullcontext()
        t0 = perf_counter()
        try:
            with span:
                out, parts = workload.run_op(spec, ctx)
        except Exception as exc:  # a failed operation is counted, and the loop goes on
            out, parts = ("raised", f"{type(exc).__name__}: {exc}"), {}
        t1 = perf_counter()
        records.append((spec, out, {"op": t1 - t0, **parts}))
        busy += (t1 - t0) * meter.current_factor()
        if len(records) >= min_ops and (busy >= seconds or t1 - t_start >= seconds):
            break
        meter.after_op(len(records), t1 - t0)
    wall = perf_counter() - t_start
    meter.finish(len(records))
    return records, wall, meter


def corrected(records, meter, part: str = "op") -> list[float]:
    """Latencies of ``part`` in the records that have it, corrected for host-speed drift."""
    return [r[2][part] * f for r, f in zip(records, meter.factors(len(records))) if part in r[2]]


def check_records(workload, records, ctx) -> dict:
    """Output checks and the oracle cross-check over every record.

    An operation the program could not do (an exception, a non-zero exit)
    is failed; one whose output fails a check is failed and wrong.
    """
    failed, wrong, problems, disagree, compared = 0, 0, [], 0, 0
    for spec, out, _ in records:
        if isinstance(out, tuple) and out[:1] == ("raised",):
            failed += 1
            problems.append(f"{spec!r}: {out[1]}")
            continue
        try:
            found = workload.check(spec, out, ctx)
        except Exception as exc:  # a check that cannot run is a failed check
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            failed += 1
            wrong += 1
            problems.extend(f"{spec!r}: WRONG {p}" for p in found)
            continue
        agrees = workload.oracle_agrees(spec, out)
        if agrees is not None:
            compared += 1
            disagree += not agrees
    return {"failed": failed, "wrong": wrong, "problems": problems[:20],
            "oracle_disagreements": disagree, "oracle_compared": compared}


def digest_gate(workload, records, seed: int, backends: list[str]) -> dict:
    """Digest of the run, and its comparison with the recorded default-seed digest."""
    import workloads

    got = workloads.digest(workload, records)
    gate = {"digest": got, "digest_expected": None, "digest_ok": True}
    if seed == workloads.DEFAULT_SEED:
        gate["digest_expected"] = workloads.RECORDED_DIGESTS[workload.name]
        gate["digest_ok"] = got == gate["digest_expected"]
    if len(backends) > 1:
        per_backend = backend_digests(workload.name, backends)
        gate["backend_digests"] = per_backend
        expected = workloads.RECORDED_DIGESTS[workload.name]
        gate["digest_ok"] &= all(d == expected for d in per_backend.values())
    return gate


def latency_summary(seconds: list[float], prefix: str) -> dict:
    """Median and tail in ms: the tail is the value with TAIL_BEYOND operations above it."""
    ordered = sorted(seconds)
    n = len(ordered)
    return {
        f"{prefix}_p50": statistics.median(ordered) * 1e3,
        f"{prefix}_tail": ordered[n - TAIL_BEYOND - 1] * 1e3,
        f"{prefix}_tail_pct": 100 * (n - TAIL_BEYOND) / n,
        f"{prefix}_samples": n,
    }


def known_defect(workload, ctx) -> dict:
    """Inputs left out for a known program defect, and that defect's input run once, untimed."""
    if not hasattr(workload, "probe_known_defect"):
        return {}
    return {"defect_inputs_skipped": workload.skipped,
            "known_defect": workload.probe_known_defect(ctx)}


def run_untraced(workload, seed: int, seconds: float, out_dir: Path) -> dict:
    setup_corrected, setup_raw = measure_setup(workload.name, seed)
    ctx, stream = setup(workload, seed, out_dir)
    min_ops = max(workload.digest_ops, TAIL_BEYOND + 1)
    records, wall, meter = run_ops(workload, stream, ctx, seconds=seconds, min_ops=min_ops)
    defect = known_defect(workload, ctx)
    ctx.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = check_records(workload, records, ctx)
    op_s = corrected(records, meter)
    ops = latency_summary(op_s, "op_ms")
    raw = latency_summary([r[2]["op"] for r in records], "op_ms")
    metrics = {
        "setup_s": statistics.median(setup_corrected),
        "ops_per_s": len(records) / sum(op_s),
        "op_ms_p50": ops["op_ms_p50"],
        "op_ms_tail": ops["op_ms_tail"],
        "peak_rss_mb": peak_rss_mb,
    }
    context = {
        "op_ms_tail_pct": ops["op_ms_tail_pct"],
        "op_ms_samples": ops["op_ms_samples"],
        "host_slowdown": meter.slowdown(),
        "raw_setup_s": statistics.median(setup_raw),
        "raw_ops_per_s": len(records) / wall,
        "raw_op_ms_p50": raw["op_ms_p50"],
        "raw_op_ms_tail": raw["op_ms_tail"],
        "timed_wall_s": wall,
        "error_rate": checks["failed"] / len(records),
        **defect,
    }
    for part in ("certify", "verify"):
        if any(part in r[2] for r in records):
            context.update(latency_summary(corrected(records, meter, part), f"{part}_ms"))
    return {"records": records, "checks": checks, "metrics": metrics, "context": context}


def run_traced(workload, seed: int, out_dir: Path) -> dict:
    import tracing

    ctx, stream = setup(workload, seed, out_dir)
    specs = list(itertools.islice(stream, workload.trace_ops))
    n = len(specs)
    tracer = tracing.Tracer()
    # untraced passes before and after the traced one, so that drift in
    # the machine's speed does not show up as tracing overhead
    before, _, before_meter = run_ops(workload, specs, ctx, seconds=0, min_ops=n)
    with tracer:
        records, _, traced_meter = run_ops(workload, specs, ctx, seconds=0, min_ops=n, tracer=tracer)
    after, _, after_meter = run_ops(workload, specs, ctx, seconds=0, min_ops=n)
    defect = known_defect(workload, ctx)
    ctx.close()
    traced_s = sum(corrected(records, traced_meter))
    plain_s = (sum(corrected(before, before_meter)) + sum(corrected(after, after_meter))) / 2
    checks = check_records(workload, records, ctx)
    if not [r[1] for r in before] == [r[1] for r in records] == [r[1] for r in after]:
        checks["wrong"] += 1
        checks["problems"].append("traced and untraced passes gave different outputs")
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_pct"] = 100 * (traced_s - plain_s) / plain_s
    tracer.write(out_dir / f"{workload.name}-seed{seed}-spans.csv.gz")
    context = {"traced_s": traced_s, "untraced_s": plain_s,
               "error_rate": checks["failed"] / n, **defect}
    return {"records": records, "checks": checks, "metrics": metrics, "context": context}


def run(workload_name: str, seed: int, seconds: float, trace: int, out_dir: Path) -> dict:
    """One benchmark run; returns the full result, also written to ``out_dir``."""
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        outcome, units = run_traced(workload, seed, out_dir), PER_LAYER
    else:
        outcome, units = run_untraced(workload, seed, seconds, out_dir), END_TO_END
    records, checks = outcome["records"], outcome["checks"]
    gate = digest_gate(workload, records, seed, installed_backends())
    result = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "correct": checks["wrong"] == 0 and gate["digest_ok"],
        "attempted": len(records),
        "failed": checks["failed"],
        "metrics": {name: {"value": outcome["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
        "context": {**outcome["context"], **gate,
                    **{k: v for k, v in checks.items() if k != "failed"}},
    }
    with open(out_dir / f"{workload_name}-seed{seed}-trace{trace}.json", "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    return result


def report(result: dict) -> None:
    """Every metric by name and unit, then the context, then the JSON result line."""
    for name, metric in result["metrics"].items():
        print(f"{name:<52} {metric['value']:>14.6g} {metric['unit']}")
    for key, value in result["context"].items():
        if key != "problems":
            print(f"  {key}: {value}")
    for problem in result["context"]["problems"]:
        print(f"  failed: {problem}")
    env = " ".join(f"{k}={v}" for k, v in result["environment"].items())
    print(f"  environment: {env}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "results",
                        help="directory for the result files (default perfbench/results)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--digest-only", action="store_true",
                        help="print the digest of the default seed's first operations and exit")
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        setup(workload, args.seed, args.out)
        print("ready", flush=True)
        return 0
    if args.digest_only:
        args.out.mkdir(parents=True, exist_ok=True)
        ctx, stream = setup(workload, workloads.DEFAULT_SEED, args.out)
        specs = itertools.islice(stream, workload.digest_ops)
        records, _, _ = run_ops(workload, specs, ctx, seconds=0, min_ops=workload.digest_ops)
        ctx.close()
        print(workloads.digest(workload, records))
        return 0
    result = run(args.workload, args.seed, args.seconds, args.trace, args.out)
    report(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
