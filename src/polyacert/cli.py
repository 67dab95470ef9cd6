"""Command-line interface.

Subcommands
-----------
certify   run the certification loop and write a certificate (JSON)
verify    independently re-check a certificate file
count     certified lattice counts (ball/disk or sector)
oracle    compare certified counts against true eigenvalue counts
plotdata  CSV of counts along a grid (double precision, non-certified)

Exit codes: 0 success; 2 a certified computation or comparison failed;
3 I/O or certificate parse failure.  All certificate-related output is
exact rational text; no floats appear in it.  Only oracle and plotdata
load the float layer (``analysis``, ``bessel`` and through it scipy), so
the certified commands run on the standard library alone.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .certify import Certificate, certify, gap_endpoints, verify_certificate
from .curve import BoundKind
from .errors import PolyacertError, StallError, StepFailedError, UnresolvedFloorError
from .lattice import CountResult, count_weighted, sector_lattice_bound
from .rational import (
    format_rational,
    parse_rational,
    rat_floor,
    rational,
    to_float,
)
from .verified import DEFAULT_EPS


def _rational_arg(text: str):
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
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


def _too_many_points(stop, step) -> bool:
    """Whether the grid step, 2*step, ... <= stop (both positive) has more than _MAX_GRID_POINTS points.

    A grid that is too large is reported on stderr here, so its command exits before any work.
    """
    points = rat_floor(stop / step)
    if points <= _MAX_GRID_POINTS:
        return False
    print(f"the grid has {points} points; at most {_MAX_GRID_POINTS} are allowed", file=sys.stderr)
    return True


def cmd_certify(args) -> int:
    eps = args.eps
    if args.paper_range:
        if args.start is not None or args.target is not None:
            print("error: --paper-range certifies [3, 14]; it takes no --start or --target", file=sys.stderr)
            return 2
        start, target = rational(3), rational(14)
    else:
        default_start, default_target = gap_endpoints(eps)
        start = args.start if args.start is not None else default_start
        target = args.target if args.target is not None else default_target
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
            print(f"error: --alpha counts a planar sector; it needs --d 2, got --d {args.d}", file=sys.stderr)
            return 2
        result = sector_lattice_bound(kind, args.alpha, args.lam)
    else:
        result = count_weighted(args.d, kind, args.lam)
    _print_count(args.lam, result, args.format)
    return 0


def cmd_oracle(args) -> int:
    from .bessel import EIGENCOUNT_LAMBDA_MAX, eigencount_ball_dirichlet, eigencount_disk_neumann

    d = args.d
    lam_max = args.lambda_max
    step = args.step
    if d < 2:
        print(f"dimension must be >= 2, got --d {d}", file=sys.stderr)
        return 2
    if step <= 0 or lam_max <= 0:
        print("grid step and lambda-max must be positive", file=sys.stderr)
        return 2
    if _too_many_points(lam_max, step):
        return 2
    if lam_max > EIGENCOUNT_LAMBDA_MAX:
        print(f"the eigenvalue counts need lambda-max <= {EIGENCOUNT_LAMBDA_MAX}", file=sys.stderr)
        return 2
    violations = 0
    rows = 0
    k = 1
    print(f"{'lambda':>10}  {'eigen_D':>8}  {'count_D':>8}  ok   extra")
    while k * step <= lam_max:
        lam = k * step
        k += 1
        rows += 1
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
        print(f"{violations} of {rows} grid points violated the comparison", file=sys.stderr)
        return 2
    print(f"all {rows} grid points consistent")
    return 0


def cmd_plotdata(args) -> int:
    from .analysis import count_weighted_oracle, weyl_leading
    from .bessel import EIGENCOUNT_LAMBDA_MAX, eigencount_ball_dirichlet, eigencount_disk_neumann

    stop, step = args.stop, args.step
    if step <= 0 or stop <= 0 or stop > EIGENCOUNT_LAMBDA_MAX:
        print(f"need 0 < step and 0 < stop <= {EIGENCOUNT_LAMBDA_MAX}", file=sys.stderr)
        return 2
    if _too_many_points(stop, step):
        return 2
    lines = [
        "# non-certified data: double-precision oracle evaluations",
        "lambda,count_dirichlet_2,count_neumann_2,weyl_2,eigen_dirichlet_2,eigen_neumann_2,neumann_excess",
    ]
    n = 1
    while n * step <= stop:
        # the grid is exact, so its last point is stop itself, not a double just past it
        lam = to_float(n * step)
        n += 1
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
    args = _build_parser().parse_args(argv)
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
