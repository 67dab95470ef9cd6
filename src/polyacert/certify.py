"""Certification loop for the planar Neumann counting inequality, and its verifier.

The inequality being certified is ``count(lam) > lam^2/4`` on an interval of
spectral parameters.  One step at ``lam`` computes the certified lower count
``p``, the margin ``e = p - lam^2/4``, and, because the count is
non-decreasing in ``lam``, the inequality then persists up to the positive
root of ``x^2/4 = lam^2/4 + e``.  Advancing ``lam`` to a verified rational
lower bound of ``sqrt(lam^2 + 4e)`` therefore chains the steps into a cover
of the whole interval, provided every margin stays positive.

A :class:`Certificate` records each step as exact rationals, together with
the accuracy parameter and the pi bracket in force, so that an independent
party can replay every inequality without floating point.
:func:`verify_certificate` is that independent replay: it re-checks the
step numbers, the margin identity and positivity, re-derives a fresh
certified count, checks the squared step inequality by cross multiplication,
checks the chaining and final coverage, and checks the recorded pi bracket
and success flag.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, EpsTooCoarseError, StallError, StepFailedError
from .lattice import count_neumann2_certified_lower
from .rational import as_rational, format_rational, parse_rational, rational
from .verified import DEFAULT_EPS, pi_bounds, sqrt_bounds

_DELTA_RETRIES = 6
_MAX_STEPS = 100_000
# Caps on untrusted certificates, checked before any count: the count at
# lambda has O(lambda) terms, and the gap ends near 13.4.
LAMBDA_MAX = 10**4
_MAX_DIGITS = 100


class CertificateStep(NamedTuple):
    """One certification step: all fields exact rationals (and one integer)."""

    index: int
    lam: Fraction
    p_lower: int
    e_lower: Fraction
    delta_lower: Fraction


class Certificate:
    """Replayable proof object for the counting inequality on [start, target].

    Mutable: certify appends the steps and sets the success flag.  Equal
    certificates have equal fields; like any mutable record it is unhashable.
    """

    __slots__ = (
        "eps", "lambda_start", "lambda_target", "pi_lower", "pi_upper", "steps", "success"
    )

    def __init__(self, eps: Fraction, lambda_start: Fraction, lambda_target: Fraction,
                 pi_lower: Fraction, pi_upper: Fraction,
                 steps: list[CertificateStep] | None = None, success: bool = False):
        self.eps = eps
        self.lambda_start = lambda_start
        self.lambda_target = lambda_target
        self.pi_lower = pi_lower
        self.pi_upper = pi_upper
        self.steps = [] if steps is None else steps
        self.success = success

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not Certificate:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"Certificate({fields})"

    def to_json_dict(self) -> dict:
        return {
            "eps": format_rational(self.eps),
            "lambda_start": format_rational(self.lambda_start),
            "lambda_target": format_rational(self.lambda_target),
            "pi_lower": format_rational(self.pi_lower),
            "pi_upper": format_rational(self.pi_upper),
            "steps": [
                {
                    "index": step.index,
                    "lambda": format_rational(step.lam),
                    "p_lower": step.p_lower,
                    "e_lower": format_rational(step.e_lower),
                    "delta_lower": format_rational(step.delta_lower),
                }
                for step in self.steps
            ],
            "success": self.success,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Certificate":
        """Parse a certificate; a field of the wrong JSON type raises TypeError.

        Rationals must be JSON strings, ``index`` and ``p_lower`` JSON
        integers and ``success`` a JSON bool: coercing them would let ``3.9``
        read as 3 and ``"false"`` as true.  Hostile input is bounded before
        any count: more than _MAX_STEPS steps, a numerator or denominator of
        more than _MAX_DIGITS digits, a negative lambda or one above
        LAMBDA_MAX, or a non-positive ``eps`` raises ValueError.
        """
        raw_steps = _json_field(data, "steps", list)
        if len(raw_steps) > _MAX_STEPS:
            raise ValueError(f"more than {_MAX_STEPS} steps")
        steps = [
            CertificateStep(
                index=_json_field(raw, "index", int),
                lam=_lambda_field(raw, "lambda"),
                p_lower=_json_field(raw, "p_lower", int),
                e_lower=_rational_field(raw, "e_lower"),
                delta_lower=_rational_field(raw, "delta_lower"),
            )
            for raw in raw_steps
        ]
        eps = _rational_field(data, "eps")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {format_rational(eps)}")
        return cls(
            eps=eps,
            lambda_start=_lambda_field(data, "lambda_start"),
            lambda_target=_lambda_field(data, "lambda_target"),
            pi_lower=_rational_field(data, "pi_lower"),
            pi_upper=_rational_field(data, "pi_upper"),
            steps=steps,
            success=_json_field(data, "success", bool),
        )

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json_dict(), handle, indent=2)
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "Certificate":
        with open(path) as handle:
            return cls.from_json_dict(json.load(handle))


def _json_field(data: dict, name: str, kind: type):
    """data[name] if its type is exactly ``kind`` (so a bool is not an int)."""
    value = data[name]
    if type(value) is not kind:
        raise TypeError(f"{name} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _rational_field(data: dict, name: str) -> Fraction:
    """data[name] parsed as a rational, with at most _MAX_DIGITS digits in each part."""
    text = _json_field(data, name, str)
    if any(len(part.strip().lstrip("+-")) > _MAX_DIGITS for part in text.split("/")):
        raise ValueError(f"{name} has a numerator or denominator of more than {_MAX_DIGITS} digits")
    return parse_rational(text)


def _lambda_field(data: dict, name: str) -> Fraction:
    """A rational field in [0, LAMBDA_MAX]."""
    value = _rational_field(data, name)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {format_rational(value)}")
    if value > LAMBDA_MAX:
        raise ValueError(f"{name} must be at most {LAMBDA_MAX}, got {format_rational(value)}")
    return value


def gap_endpoints(eps=DEFAULT_EPS) -> tuple[Fraction, Fraction]:
    """Verified rational cover of the interval not settled analytically.

    The analytic results leave open exactly the spectral parameters between
    2*sqrt(3) and 6*pi/(3*pi - 8).  Returns (start, target) with
    start <= 2*sqrt(3) (a verified lower bound of sqrt(12)) and
    target >= 6*pi/(3*pi - 8) (monotone in pi: the upper pi bound in the
    numerator and the lower in the denominator overshoot the true value).
    """
    eps = as_rational(eps)
    start = sqrt_bounds(rational(12), eps).lo
    pi = pi_bounds(eps)
    denominator = 3 * pi.lo - 8
    if denominator <= 0:
        raise EpsTooCoarseError(
            f"pi lower bound {pi.lo} too coarse to separate 3*pi from 8; shrink eps"
        )
    return start, 6 * pi.hi / denominator


def certify(lambda_start, lambda_target, eps=DEFAULT_EPS) -> Certificate:
    """Run the certification loop from lambda_start until past lambda_target.

    Raises StepFailedError (margin not positive) or StallError (step size not
    positive even after shrinking eps) instead of returning an unsound
    certificate; the exception carries the partial certificate for
    inspection.  A target above LAMBDA_MAX, which verify would reject, is a
    DomainError.
    """
    lam = as_rational(lambda_start)
    target = as_rational(lambda_target)
    eps = as_rational(eps)
    if not 0 < lam < target:
        raise DomainError(f"need 0 < start < target, got start={lam}, target={target}")
    if target > LAMBDA_MAX:
        raise DomainError(f"target must be at most {LAMBDA_MAX}, got {target}")
    if eps <= 0:
        raise DomainError("eps must be positive")
    pi = pi_bounds(eps)
    cert = Certificate(
        eps=eps,
        lambda_start=lam,
        lambda_target=target,
        pi_lower=pi.lo,
        pi_upper=pi.hi,
    )
    index = 0
    while lam <= target:
        index += 1
        if index > _MAX_STEPS:
            raise StallError(lam, eps, cert, reason=f"no convergence after {_MAX_STEPS} steps")
        p = count_neumann2_certified_lower(lam, eps).value
        e = p - lam * lam / 4
        if e <= 0:
            raise StepFailedError(lam, e, cert)
        next_lam = None
        for retry in range(_DELTA_RETRIES + 1):
            attempt = eps / 10**retry
            candidate = sqrt_bounds(lam * lam + 4 * e, attempt).lo
            if candidate > lam:
                next_lam = candidate
                break
        if next_lam is None:
            raise StallError(lam, attempt, cert)
        cert.steps.append(
            CertificateStep(index=index, lam=lam, p_lower=p, e_lower=e, delta_lower=next_lam - lam)
        )
        lam = next_lam
    cert.success = True
    return cert


PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


class StepVerification(NamedTuple):
    index: int
    checks: dict[str, str]

    @property
    def status(self) -> str:
        results = self.checks.values()
        if FAIL in results:
            return FAIL
        if INCONCLUSIVE in results:
            return INCONCLUSIVE
        return PASS


class VerificationReport(NamedTuple):
    steps: list[StepVerification]
    start_covered: bool
    target_covered: bool
    certificate_checks: dict[str, str]

    @property
    def all_passed(self) -> bool:
        return (
            self.start_covered
            and self.target_covered
            and all(result == PASS for result in self.certificate_checks.values())
            and all(step.status == PASS for step in self.steps)
        )

    @property
    def sound(self) -> bool:
        """No outright failures (inconclusive fresh counts tolerated)."""
        return (
            self.start_covered
            and self.target_covered
            and FAIL not in self.certificate_checks.values()
            and all(step.status != FAIL for step in self.steps)
        )

    def lines(self) -> list[str]:
        out = []
        for step in self.steps:
            detail = ", ".join(f"{name}={result}" for name, result in step.checks.items())
            out.append(f"step {step.index}: {step.status} ({detail})")
        detail = ", ".join(f"{name}={result}" for name, result in self.certificate_checks.items())
        out.append(f"certificate: {detail}")
        out.append(f"coverage: start={'pass' if self.start_covered else 'fail'}, "
                   f"target={'pass' if self.target_covered else 'fail'}")
        return out


def verify_certificate(cert: Certificate, eps_fresh=None) -> VerificationReport:
    """Independently re-check every step of a certificate.

    Per step: (a) the step number is its position, counting from 1, and
    the margin identity e = p - lam^2/4 and e > 0 hold; (b) a fresh
    certified count at eps_fresh confirms the recorded p (a fresh count below
    p is inconclusive, not a failure -- lower bounds are not unique -- and is
    retried once at eps_fresh/10; a negative lam, where no count exists,
    fails); (c) the step inequality
    (lam + delta)^2 <= lam^2 + 4e by exact cross multiplication, with
    delta > 0; (d) chaining: the next step starts no later than lam + delta.
    For the whole certificate, the recorded pi bracket must be the one
    pi_bounds gives at the certificate's eps, and the success flag must be
    set.  The report additionally records whether the chain covers
    [lambda_start, lambda_target].

    A defect of the certificate is a report entry, never an exception.  A
    bad argument raises before any step is checked: DomainError when the
    fresh-count eps (eps_fresh, or the certificate's eps when eps_fresh is
    None) is not positive.
    """
    eps_fresh = as_rational(eps_fresh) if eps_fresh is not None else cert.eps
    if eps_fresh <= 0:
        raise DomainError("eps must be positive")
    pi = pi_bounds(cert.eps) if cert.eps > 0 else None
    pi_recorded = pi is not None and (pi.lo, pi.hi) == (cert.pi_lower, cert.pi_upper)
    certificate_checks = {
        "pi_bracket": PASS if pi_recorded else FAIL,
        "success_flag": PASS if cert.success else FAIL,
    }
    reports: list[StepVerification] = []
    for pos, step in enumerate(cert.steps):
        checks: dict[str, str] = {}
        lam = step.lam
        checks["index"] = PASS if step.index == pos + 1 else FAIL
        checks["margin_identity"] = PASS if step.e_lower == step.p_lower - lam * lam / 4 else FAIL
        checks["margin_positive"] = PASS if step.e_lower > 0 else FAIL
        if lam < 0:  # no count exists there, so none confirms p
            checks["count_confirmed"] = FAIL
        elif count_neumann2_certified_lower(lam, eps_fresh).value >= step.p_lower:
            checks["count_confirmed"] = PASS
        else:
            fresh = count_neumann2_certified_lower(lam, eps_fresh / 10).value
            checks["count_confirmed"] = PASS if fresh >= step.p_lower else INCONCLUSIVE
        checks["delta_positive"] = PASS if step.delta_lower > 0 else FAIL
        reach = lam + step.delta_lower
        checks["delta_sound"] = (
            PASS if reach * reach <= lam * lam + 4 * step.e_lower else FAIL
        )
        if pos + 1 < len(cert.steps):
            nxt = cert.steps[pos + 1].lam
            checks["chaining"] = PASS if lam < nxt <= reach else FAIL
        reports.append(StepVerification(index=step.index, checks=checks))
    start_covered = bool(cert.steps) and cert.steps[0].lam <= cert.lambda_start
    target_covered = (
        bool(cert.steps)
        and cert.steps[-1].lam + cert.steps[-1].delta_lower > cert.lambda_target
    )
    return VerificationReport(
        steps=reports,
        start_covered=start_covered,
        target_covered=target_covered,
        certificate_checks=certificate_checks,
    )
