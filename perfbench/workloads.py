"""The three benchmark workloads: seeded inputs, one operation, output checks.

Every workload is a closed loop with one client: ``run_op`` returns only
when the program has finished, and the next input is drawn after that.
Inputs come from ``inputs(seed)``, an endless stream; the program sees
only the generated arguments.

Spectral parameters are drawn from low-discrepancy sequences (a golden-
ratio or silver-ratio walk started at a seeded offset), so that any prefix
of a run covers its range almost evenly.  Per-operation cost grows steeply
with lambda, and plain random draws would make the mean cost of a run
depend on the seed far more than on the code.  The denominators of
``large_lambda`` are spread the same way, and ``exact_sweep`` visits each
point of its grids once per pass, in a seeded order.  Offsets and the
other free choices are random.

The program is always reached through module attributes looked up at call
time (``lattice.count_weighted``, ``cli.main``), so that the traced run's
wrappers see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
from fractions import Fraction
from time import perf_counter

from polyacert import cli, curve, lattice
from polyacert.certify import gap_endpoints
from polyacert.rational import format_rational, parse_rational
from polyacert.verified import pi_bounds

DEFAULT_SEED = 0

# Digest of the first ``digest_ops`` records of each workload at the
# default seed.  A change that alters any output changes its digest.
RECORDED_DIGESTS = {
    "certify_verify": "eb2f3c14357ee225",
    "exact_sweep": "0f71cd91dfafba8e",
    "large_lambda": "6daf63387d141cb0",
}

# Acceptance 01: the 13-step run over [3, 14] at eps = 1/1000.
PAPER_TABLE = [
    ("3", "3/4", "6/13"),
    ("45/13", "1355/676", "223/221"),
    ("76/17", "868/289", "584/493"),
    ("164/29", "3368/841", "995/783"),
    ("187/27", "11687/2916", "29/27"),
    ("8", "3", "43/60"),
    ("523/60", "57671/14400", "227/260"),
    ("374/39", "6098/1521", "719/897"),
    ("239/23", "10591/2116", "339/368"),
    ("181/16", "4103/1024", "11/16"),
    ("12", "6", "24/25"),
    ("324/25", "2506/625", "241/400"),
    ("217/16", "7183/1024", "271/272"),
]
PAPER_REACH = "495/34"

_GOLDEN = (math.sqrt(5) - 1) / 2
_SILVER = math.sqrt(2) - 1
_EPS_COUNTS = "1/1000"


def _walk(rng: random.Random, step: float):
    """Endless low-discrepancy stream in [0, 1) from a seeded offset."""
    u = rng.random()
    n = 0
    while True:
        yield (u + n * step) % 1.0
        n += 1


def _rational_at_least(value: float, q: int) -> Fraction:
    return Fraction(math.ceil(value * q), q)


class OperationFailed(Exception):
    """The program reported that it could not do an operation (a non-zero exit)."""


class CertifyVerify:
    """``polyacert certify`` then ``polyacert verify`` on the same certificate.

    The product's main user path: a producer and an independent consumer
    of one certificate.  It runs only the one-sided ``g_lower`` path, so
    floor refinement (``certified_floor_term``) is never called.  Targets
    stop at 32: an operation's cost grows about as t^2.5, and with targets
    up to 60 a run held too few operations for a steady median.
    """

    name = "certify_verify"
    eps_values = ("1/1000", "1/10000", "1/100000")
    digest_ops = 12
    trace_ops = 20

    def inputs(self, seed: int):
        rng = random.Random(seed)
        starts = _walk(rng, _SILVER)
        targets = _walk(rng, _GOLDEN)
        eps_offset = rng.randrange(3)
        low = 2 * math.sqrt(3)
        n = 0
        for i in itertools.count():
            if i % 10 == 0:
                yield ("paper", "3", "14", "1/1000")
                continue
            if i % 10 == 5:
                yield ("gap", None, None, None)
                continue
            q = rng.randint(1, 60)
            s = _rational_at_least(low + (6 - low) * next(starts), q)
            while s * s <= 12:  # keep s strictly above 2*sqrt(3), exactly
                s += Fraction(1, q)
            s = min(s, Fraction(6))
            t = _rational_at_least(14 + 18 * next(targets), rng.randint(1, 60))
            eps = ("1/1000", "1/10000", "1/100000")[(n + eps_offset) % 3]
            n += 1
            yield ("seeded", str(s), str(t), eps)

    def run_op(self, spec, ctx):
        job, start, target, eps = spec
        path = ctx.cert_path
        if os.path.exists(path):
            os.remove(path)
        argv = ["certify"]
        if start is not None:
            argv += ["--start", start, "--target", target, "--eps", eps]
        argv += ["-o", path]
        t0 = perf_counter()
        rc_certify, _ = _run_cli(argv)
        t1 = perf_counter()
        if rc_certify != 0:
            raise OperationFailed(f"certify exited {rc_certify}")
        rc_verify, out = _run_cli(["verify", path])
        t2 = perf_counter()
        text = None
        if os.path.exists(path):
            with open(path) as handle:
                text = handle.read()
        verdict = out.strip().splitlines()[-1] if out.strip() else ""
        return (rc_certify, rc_verify, verdict, text), {"certify": t1 - t0, "verify": t2 - t1}

    def digest_view(self, out):
        rc_certify, rc_verify, verdict, text = out
        cert = hashlib.sha256(text.encode()).hexdigest()[:16] if text is not None else None
        return (rc_certify, rc_verify, verdict, cert)

    def check(self, spec, out, ctx) -> list[str]:
        job, start, target, eps = spec
        rc_certify, rc_verify, verdict, text = out
        if rc_verify != 0:
            return [f"verify exited {rc_verify} on a certificate that certify produced"]
        if verdict != "certificate verified: all steps pass":
            return [f"verify printed {verdict!r}"]
        cert = json.loads(text)
        if not cert["success"]:
            return ["certificate not marked successful"]
        if job == "gap":
            want_start, want_target = ctx.gap_default
        else:
            want_start, want_target = start, target
        got = (cert["lambda_start"], cert["lambda_target"])
        if tuple(map(Fraction, got)) != (Fraction(want_start), Fraction(want_target)):
            return [f"certificate covers {got}, asked for {(want_start, want_target)}"]
        if job == "paper":
            rows = [(s["lambda"], s["e_lower"], s["delta_lower"]) for s in cert["steps"]]
            last = cert["steps"][-1]
            reach = format_rational(parse_rational(last["lambda"]) + parse_rational(last["delta_lower"]))
            if rows != PAPER_TABLE or reach != PAPER_REACH:
                return ["[3, 14] run differs from the acceptance-01 table"]
        return []

    def oracle_agrees(self, spec, out):
        return None  # no float route for certificates


class _CountWorkload:
    """Shared checks for the workloads whose operations return one count."""

    eps_values = (_EPS_COUNTS,)

    def run_op(self, spec, ctx):
        fn, args = spec[0], spec[1:]
        eps = parse_rational(_EPS_COUNTS)
        if fn == "count_weighted":
            d, kind, lam = args
            result = lattice.count_weighted(d, _kind(kind), parse_rational(lam), eps)
        elif fn == "count_dirichlet_dim_reduction":
            d, lam = args
            result = lattice.count_dirichlet_dim_reduction(d, parse_rational(lam), eps)
        else:
            kind, alpha, lam = args
            result = lattice.sector_lattice_bound(
                _kind(kind), parse_rational(alpha), parse_rational(lam), eps
            )
        return result.value, {}

    def digest_view(self, out):
        return out

    def check(self, spec, value, ctx) -> list[str]:
        """The count against its inequality, and dimension reduction against the direct count."""
        d, kind, alpha, lam = _count_shape(spec)
        lam_q = parse_rational(lam)
        eps = parse_rational(_EPS_COUNTS)
        if spec[0] == "count_dirichlet_dim_reduction":
            direct = lattice.count_weighted(d, _kind("D"), lam_q, eps).value
            if value != direct:
                return [f"dimension reduction gave {value}, count_weighted gave {direct}"]
        if d == 2:
            # aperture alpha*pi: leading term alpha * lam^2 / 8, lam^2 / 4 for the disk
            leading_lo = leading_hi = parse_rational(alpha) * lam_q * lam_q / 8
        else:
            bracket = curve.weyl_leading_bounds(d, lam_q, eps)
            leading_lo, leading_hi = bracket.lo, bracket.hi
        if kind == "D" and not value < leading_lo:
            return [f"Dirichlet count {value} not below the leading term"]
        if kind == "N" and lam_q >= ctx.gap_target and not value > leading_hi:
            return [f"Neumann count {value} not above the leading term past the gap"]
        return []

    def oracle_agrees(self, spec, value) -> bool:
        """Compare with the double-precision route, which shares no bracket code."""
        d, kind, alpha, lam = _count_shape(spec)
        if spec[0] == "sector_lattice_bound":
            oracle = lattice.sector_lattice_bound_oracle(
                _kind(kind), math.pi * float(Fraction(alpha)), float(Fraction(lam))
            )
        else:
            oracle = lattice.count_weighted_oracle(d, _kind(kind), float(Fraction(lam)))
        return oracle.value == value


def _count_shape(spec) -> tuple[int, str, str, str]:
    """Dimension, boundary letter, aperture over pi and lambda of a count operation."""
    if spec[0] == "count_weighted":
        _, d, kind, lam = spec
        return d, kind, "2", lam
    if spec[0] == "count_dirichlet_dim_reduction":
        _, d, lam = spec
        return d, "D", "2", lam
    _, kind, alpha, lam = spec
    return 2, kind, alpha, lam


class ExactSweep(_CountWorkload):
    """Certified-exact counts on the grids of acceptance 03, 04 and 08, plus sectors.

    The two-sided path at small to moderate lambda, where a minority of
    floor terms refine.  Grid points repeat across operations (a run makes
    about 450 operations of each kind), so the ratios z/lambda do too: a
    bracket cache would hit here.
    """

    name = "exact_sweep"
    digest_ops = 48
    trace_ops = 400
    _APERTURES = ("1/3", "1/2", "1", "3/2", "2")

    def inputs(self, seed: int):
        rng = random.Random(seed)
        sizes = (400, 400, 60, 60, 60, 60, 60, 60)
        passes = [_passes(random.Random(rng.getrandbits(64)), n) for n in sizes]
        dims = _cycle((3, 4, 5), rng)
        sector_d = _cycle(self._APERTURES, rng)
        sector_n = _cycle(self._APERTURES, rng)

        def grid(slot, den):
            return str(Fraction(1 + next(passes[slot]), den))

        for i in itertools.count():
            slot = i % 8
            if slot == 0:
                yield ("count_weighted", 2, "D", grid(0, 4))
            elif slot == 1:
                yield ("count_weighted", 2, "N", grid(1, 4))
            elif slot in (2, 3, 4):
                yield ("count_weighted", slot + 1, "D", grid(slot, 2))
            elif slot == 5:
                yield ("count_dirichlet_dim_reduction", next(dims), grid(5, 2))
            elif slot == 6:
                yield ("sector_lattice_bound", "D", next(sector_d), grid(6, 2))
            else:
                yield ("sector_lattice_bound", "N", next(sector_n), grid(7, 2))


class LargeLambda(_CountWorkload):
    """Planar counts at lambda in [400, 1200] with denominators up to 100.

    Nearly every floor term refines here and operands are larger.  Random
    denominators leave little shared work between operations, so a cache
    would miss and only its memory cost would show.
    """

    name = "large_lambda"
    digest_ops = 12
    trace_ops = 16
    skipped = 0  # inputs left out of the last stream because they hit the known defect
    KNOWN_DEFECT = ("count_weighted", 2, "N", "11393/11")

    def inputs(self, seed: int):
        self.skipped = 0
        rng = random.Random(seed)
        walk = _walk(rng, _GOLDEN)
        # larger denominators make slower operations, so they are spread evenly too
        denominators = _walk(rng, _SILVER)
        first_kind = rng.randrange(2)
        for i in itertools.count():
            q = 1 + math.floor(100 * next(denominators))
            lam = _rational_at_least(400 + 800 * next(walk), q)
            kind = "DN"[(i + first_kind) % 2]
            if needs_unverifiable_bracket(kind, lam):
                self.skipped += 1
                continue
            yield ("count_weighted", 2, kind, str(lam))

    def probe_known_defect(self, ctx) -> str:
        """Run the known failing input once, untimed, and say what it gave."""
        try:
            value, _ = self.run_op(self.KNOWN_DEFECT, ctx)
        except Exception as exc:  # the defect: reported, not counted as a benchmark operation
            return f"{self.KNOWN_DEFECT!r} raises {type(exc).__name__}: {exc}"
        return f"{self.KNOWN_DEFECT!r} gives {value}: the defect is gone"


# Accuracies at which the program can no longer verify a bracket and raises
# GuessFailedError: arccos_bounds(x, eps) fails from eps = 1e-9 for x below
# about 0.15 and from 1e-10 for x below about 0.4, and pi_bounds from 1e-11.
# The first entry whose bound exceeds z/lambda applies.
_UNVERIFIABLE_EPS = ((0.16, 1e-9), (0.42, 1e-10), (math.inf, 1e-11))
# A bracket of G(lambda, z) at accuracy eps is at most about 1.5 * lambda * eps
# wide; the 60 below is that, times the ten of the last refinement step that
# can still verify, times a margin of four.
_BRACKET_WIDTH = 60


def needs_unverifiable_bracket(kind: str, lam: Fraction) -> bool:
    """Whether ``count_weighted(2, kind, lam)`` would refine a floor term too far.

    ``certified_floor_term`` refines while the bracket of G + shift straddles
    an integer, so a term whose value lies very near an integer drives the
    accuracy below what ``arccos_bounds`` or ``pi_bounds`` can verify, and the
    count raises GuessFailedError (for example ``KNOWN_DEFECT``).  That is a
    defect of the program; the workload leaves such inputs out, counts them,
    and runs ``KNOWN_DEFECT`` once per run outside the timed loop.
    """
    shift = 0.75 if kind == "N" else 0.0
    big = float(lam)
    for z in range(math.ceil(big)):
        x = z / big
        value = (math.sqrt(big * big - z * z) - z * math.acos(x)) / math.pi + shift
        limit = next(eps for bound, eps in _UNVERIFIABLE_EPS if x < bound)
        if abs(value - round(value)) < _BRACKET_WIDTH * big * limit:
            return True
    return False


WORKLOADS = {w.name: w for w in (CertifyVerify(), ExactSweep(), LargeLambda())}


class Context:
    """Per-run state the operations and checks need: scratch path and reference values."""

    def __init__(self, out_dir):
        self.cert_path = os.path.join(out_dir, f"certificate-{os.getpid()}.json")
        start, target = gap_endpoints(parse_rational(_EPS_COUNTS))
        self.gap_target = target
        self.gap_default = (format_rational(start), format_rational(target))

    def close(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.cert_path)


def warm_up(workload) -> None:
    """Fill the pi-bracket cache at the workload's accuracies before timing."""
    for eps in workload.eps_values:
        pi_bounds(parse_rational(eps))


def digest(workload, records) -> str:
    """sha256 over the inputs and outputs of the first ``digest_ops`` records."""
    h = hashlib.sha256()
    for spec, out, _ in records[: workload.digest_ops]:
        h.update(f"{spec!r} -> {workload.digest_view(out)!r}\n".encode())
    return h.hexdigest()[:16]


def _passes(rng: random.Random, size: int):
    """Endless grid indices below ``size``: each once per pass, passes shuffled.

    Every run then covers its grids evenly, and the costliest points, which
    set the tail latency, are in every run.
    """
    while True:
        order = list(range(size))
        rng.shuffle(order)
        for index in order:
            yield index


def _cycle(values, rng):
    i = rng.randrange(len(values))
    while True:
        yield values[i % len(values)]
        i += 1


def _kind(letter: str):
    return curve.BoundKind.from_letter(letter)


def _run_cli(argv) -> tuple[int, str]:
    """``polyacert.cli.main`` in-process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()
