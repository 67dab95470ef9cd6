"""Command-line interface.

Subcommands
-----------
certify   run the certification loop and write a certificate (JSON)
verify    independently re-check a certificate file
count     certified lattice counts (ball/disk or sector)
oracle    compare certified counts against true eigenvalue counts
plotdata  CSV of counts along a grid (double precision, non-certified)

Exit codes: 0 success; 2 a certified computation or comparison failed, or
a usage error, which a handler raises and :func:`main` prints as one
``error: ...`` line (handlers print only verdicts); 3 I/O or certificate
parse failure, or a ``p/q`` argument with more than 100 digits in a part
(rejected before any work).  :func:`main` returns the exit code and may be
called any number of times in one process; it builds its parser once.
Certificate-related output is exact rational text, with no floats.  Only
oracle and plotdata load the float layer (``analysis``, ``bessel`` and
through it scipy, the ``oracle`` extra), after :func:`_grid`, so the
certified commands run on the standard library alone.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .certify import Certificate, certify, check_digits, gap_endpoints, verify_certificate
from .curve import BoundKind
from .errors import DomainError, PolyacertError, StallError, StepFailedError, UnresolvedFloorError
from .lattice import CountResult, _validate_count_args, count_weighted, sector_lattice_bound
from .rational import (
    format_rational,
    parse_rational,
    rat_floor,
    rational,
    to_float,
)
from .verified import DEFAULT_EPS


class _TooManyDigits(Exception):
    """A p/q argument over the certificates' digit cap; main exits 3 on it.

    Not a ValueError, which argparse would turn into a usage error (exit 2).
    """


def _rational_arg(text: str):
    try:
        check_digits(text, "a p/q argument")
    except ValueError as exc:
        raise _TooManyDigits(str(exc)) from None
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call to main, not at import.

    Parsing keeps no state between calls: each returns a fresh namespace, and
    the handlers look up the module's names when they run.
    """
    parser = argparse.ArgumentParser(
        prog="polyacert",
        description="Certified lattice-point counting for eigenvalue inequalities "
        "on disks, balls, and circular sectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="run the certification loop")
    p_cert.add_argument("--eps", type=_rational_arg, default=DEFAULT_EPS, metavar="p/q")
    p_cert.add_argument("--start", type=_rational_arg, metavar="p/q")
    p_cert.add_argument("--target", type=_rational_arg, metavar="p/q")
    p_cert.add_argument(
        "--paper-range",
        action="store_true",
        help="certify the literal range [3, 14] instead of the computed gap",
    )
    p_cert.add_argument("-o", "--output", metavar="PATH", help="write certificate JSON here")
    p_cert.set_defaults(handler=cmd_certify)

    p_ver = sub.add_parser("verify", help="re-check a certificate file")
    p_ver.add_argument("certificate", metavar="PATH")
    p_ver.set_defaults(handler=cmd_verify)

    p_count = sub.add_parser("count", help="certified weighted count at one lambda")
    p_count.add_argument("--d", type=int, default=2)
    p_count.add_argument("--kind", choices=("D", "N"), default="D")
    p_count.add_argument("--lambda", dest="lam", type=_rational_arg, required=True, metavar="p/q")
    p_count.add_argument("--alpha", type=_rational_arg, default=None, metavar="p/q",
                         help="sector aperture as a multiple of pi; switches to sector counting")
    p_count.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_count.set_defaults(handler=cmd_count)

    p_oracle = sub.add_parser("oracle", help="eigenvalue counts vs certified counts on a grid")
    p_oracle.add_argument("--d", type=int, default=2)
    p_oracle.add_argument("--lambda-max", dest="lambda_max", type=_rational_arg,
                          default=rational(20), metavar="p/q")
    p_oracle.add_argument("--step", type=_rational_arg, default=rational(1, 2), metavar="p/q")
    p_oracle.set_defaults(handler=cmd_oracle)

    p_plot = sub.add_parser("plotdata", help="CSV of counts along a lambda grid")
    p_plot.add_argument("--stop", type=_rational_arg, default=rational(15), metavar="p/q")
    p_plot.add_argument("--step", type=_rational_arg, default=rational(1, 20), metavar="p/q")
    p_plot.add_argument("-o", "--output", metavar="PATH", help="default: stdout")
    p_plot.set_defaults(handler=cmd_plotdata)

    return parser


_MAX_GRID_POINTS = 10_000


def _grid(stop, step) -> list:
    """The exact grid step, 2*step, ... <= stop of oracle and plotdata, checked before any output.

    Raises PolyacertError, which main reports, checking in this order:
    scipy (the oracle extra) is importable; 0 < step and
    0 < stop <= EIGENCOUNT_LAMBDA_MAX; at most _MAX_GRID_POINTS points.
    """
    try:
        import scipy  # bessel imports it only at its first evaluation, after oracle's header
    except ImportError:
        raise PolyacertError("oracle and plotdata need scipy: pip install 'polyacert[oracle]', the oracle extra")
    from .bessel import EIGENCOUNT_LAMBDA_MAX as limit  # where the eigenvalue counts stop

    if not (step > 0 and 0 < stop <= limit):
        raise DomainError(f"the grid needs 0 < step and 0 < stop <= {limit} (oracle's stop is --lambda-max)")
    points = rat_floor(stop / step)
    if points > _MAX_GRID_POINTS:
        raise DomainError(f"the grid has {points} points; at most {_MAX_GRID_POINTS} are allowed")
    return [k * step for k in range(1, points + 1)]


def cmd_certify(args) -> int:
    eps = args.eps
    if args.paper_range:
        if args.start is not None or args.target is not None:
            raise DomainError("--paper-range certifies [3, 14]; it takes no --start or --target")
        start, target = rational(3), rational(14)
    else:
        start, target = args.start, args.target
        if start is None or target is None:
            default_start, default_target = gap_endpoints(eps)
            start = default_start if start is None else start
            target = default_target if target is None else target
    cert = certify(start, target, eps)
    print(f"certifying count > lambda^2/4 on [{format_rational(start)}, {format_rational(target)}]")
    print(f"{'step':>4}  {'lambda':>12}  {'margin':>16}  {'advance':>12}")
    for step in cert.steps:
        print(
            f"{step.index:>4}  {format_rational(step.lam):>12}  "
            f"{format_rational(step.e_lower):>16}  {format_rational(step.delta_lower):>12}"
        )
    final = cert.steps[-1].lam + cert.steps[-1].delta_lower
    print(f"success in {len(cert.steps)} steps; covered up to {format_rational(final)}")
    if args.output:
        cert.dump(args.output)
        print(f"certificate written to {args.output}")
    return 0


def cmd_verify(args) -> int:
    try:
        cert = Certificate.load(args.certificate)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        print(f"cannot read certificate: {exc}", file=sys.stderr)
        return 3
    report = verify_certificate(cert)
    for line in report.lines():
        print(line)
    if report.all_passed:
        print(report.statement)
        print("certificate verified: all steps pass")
        return 0
    print("certificate NOT verified", file=sys.stderr)
    return 2


def _print_count(lam, result: CountResult, fmt: str) -> None:
    if fmt == "json":
        payload = result.to_json()
        payload["lambda"] = format_rational(lam)
        print(json.dumps(payload))
    elif fmt == "csv":
        print("lambda_num,lambda_den,value,rigor")
        print(f"{lam.numerator},{lam.denominator},{result.value},{result.rigor.value}")
    else:
        print(f"lambda={format_rational(lam)} value={result.value} rigor={result.rigor.value}")


def cmd_count(args) -> int:
    kind = BoundKind.from_letter(args.kind)
    if args.alpha is not None:
        if args.d != 2:
            raise DomainError(f"--alpha counts a planar sector; it needs --d 2, got --d {args.d}")
        result = sector_lattice_bound(kind, args.alpha, args.lam)
    else:
        result = count_weighted(args.d, kind, args.lam)
    _print_count(args.lam, result, args.format)
    return 0


def cmd_oracle(args) -> int:
    grid = _grid(args.lambda_max, args.step)
    d = args.d
    _validate_count_args(d, BoundKind.DIRICHLET)
    from .bessel import eigencount_ball_dirichlet, eigencount_disk_neumann

    violations = 0
    print(f"{'lambda':>10}  {'eigen_D':>8}  {'count_D':>8}  ok   extra")
    for lam in grid:
        lam_f = to_float(lam)
        eig_d = eigencount_ball_dirichlet(d, lam_f)
        cnt_d = count_weighted(d, BoundKind.DIRICHLET, lam).value
        ok = eig_d <= cnt_d
        extra = ""
        if d == 2:
            eig_n = eigencount_disk_neumann(lam_f)
            cnt_n = count_weighted(2, BoundKind.NEUMANN, lam).value
            ok_n = eig_n >= cnt_n
            extra = f"eigen_N={eig_n} count_N={cnt_n} {'ok' if ok_n else 'VIOLATION'}"
            ok = ok and ok_n
        if not ok:
            violations += 1
        print(f"{format_rational(lam):>10}  {eig_d:>8}  {cnt_d:>8}  {'ok ' if ok else 'BAD'}  {extra}")
    if violations:
        print(f"{violations} of {len(grid)} grid points violated the comparison", file=sys.stderr)
        return 2
    print(f"all {len(grid)} grid points consistent")
    return 0


def cmd_plotdata(args) -> int:
    grid = _grid(args.stop, args.step)
    from .analysis import count_weighted_oracle, weyl_leading
    from .bessel import eigencount_ball_dirichlet, eigencount_disk_neumann

    lines = [
        "# non-certified data: double-precision oracle evaluations",
        "lambda,count_dirichlet_2,count_neumann_2,weyl_2,eigen_dirichlet_2,eigen_neumann_2,neumann_excess",
    ]
    # the grid is exact, so its last point is stop itself, not a double just past it
    for lam in map(to_float, grid):
        p_d = count_weighted_oracle(2, BoundKind.DIRICHLET, lam).value
        p_n = count_weighted_oracle(2, BoundKind.NEUMANN, lam).value
        w = weyl_leading(2, lam)
        eig_d = eigencount_ball_dirichlet(2, lam)
        eig_n = eigencount_disk_neumann(lam)
        excess = p_n / w - 1.0 if w > 0 else math.nan
        lines.append(f"{lam:.6g},{p_d},{p_n},{w:.12g},{eig_d},{eig_n},{excess:.12g}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _TooManyDigits as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        return args.handler(args)
    except UnresolvedFloorError as exc:
        print(f"unresolved floor term: {exc}", file=sys.stderr)
        return 2
    except (StepFailedError, StallError) as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 2
    except PolyacertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
