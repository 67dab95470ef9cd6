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
:func:`verify_certificate` is that independent replay, at the certificate's
own eps: it re-checks the step numbers, the margin identity and positivity,
the squared step inequality by cross multiplication and the chaining, then
re-derives a fresh certified count for each step that passed those, and
checks the final coverage, the recorded pi bracket and the success flag.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, EpsTooCoarseError, GuessFailedError, StallError, StepFailedError
from .lattice import count_neumann2_certified_lower
from .rational import as_rational, format_rational, parse_rational, rat_floor, rational
from .verified import DEFAULT_EPS, pi_bounds, sqrt_lower

_DELTA_RETRIES = 6
# Caps on untrusted certificates, checked before any count: the count at
# lambda has floor(lambda) + 1 terms, and the gap ends near 13.4.  The work
# bound caps those terms summed over the steps (the default gap certificate
# needs 99), so it also caps the steps, each of which adds at least one.
# The byte cap is checked before parsing.  The largest certificates inside
# the work bound, partial ones of certify runs that stall at it, have 81,708
# bytes (561 steps) at eps 1/1000 and 70,003 (448 steps) at eps 1/100000.
LAMBDA_MAX = 10**4
_MAX_BYTES = 2**20
_MAX_DIGITS = 100
_MAX_TERMS = 100_000
_STEP_KEYS = ("index", "lambda", "p_lower", "e_lower", "delta_lower")


class CertificateStep(NamedTuple):
    """One certification step: all fields exact rationals (and one integer)."""

    index: int
    lam: Fraction
    p_lower: int
    e_lower: Fraction
    delta_lower: Fraction


class Certificate(NamedTuple):
    """Replayable proof object for the counting inequality on [start, target].

    A record compared by value.  certify appends the steps to its list and
    returns a copy with the success flag set; the list makes it unhashable.
    A certificate file holds exactly these seven fields, and each step
    exactly its five (``lam`` is written as ``lambda``).
    """

    eps: Fraction
    lambda_start: Fraction
    lambda_target: Fraction
    pi_lower: Fraction
    pi_upper: Fraction
    steps: list[CertificateStep]
    success: bool = False

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
        read as 3 and ``"false"`` as true.  A key outside the certificate's
        seven or a step's five raises ValueError, so every field of an
        accepted file is checked.  Hostile input is bounded before any
        count: steps whose counts need more than _MAX_TERMS floor terms in
        all, an integer, numerator or denominator of more than _MAX_DIGITS
        digits, a negative lambda or one above LAMBDA_MAX, or a
        non-positive ``eps`` raises ValueError.
        """
        _check_keys(data, cls._fields)
        steps = []
        terms = 0
        for raw in _json_field(data, "steps", list):
            _check_keys(raw, _STEP_KEYS)
            step = CertificateStep(
                index=_json_field(raw, "index", int),
                lam=_lambda_field(raw, "lambda"),
                p_lower=_json_field(raw, "p_lower", int),
                e_lower=_rational_field(raw, "e_lower"),
                delta_lower=_rational_field(raw, "delta_lower"),
            )
            terms += rat_floor(step.lam) + 1
            if terms > _MAX_TERMS:
                raise ValueError(f"the steps' counts need more than {_MAX_TERMS} floor terms")
            steps.append(step)
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
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json_dict(), handle, indent=2)
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "Certificate":
        """Parse a UTF-8 file; one of more than _MAX_BYTES bytes raises ValueError unparsed."""
        with open(path, "rb") as handle:
            data = handle.read(_MAX_BYTES + 1)
        if len(data) > _MAX_BYTES:
            raise ValueError(f"the file is larger than {_MAX_BYTES} bytes")
        return cls.from_json_dict(json.loads(data.decode("utf-8")))


def _check_keys(data: dict, known: tuple[str, ...]) -> None:
    """Reject a JSON object with a key outside ``known``."""
    if type(data) is not dict:
        raise TypeError(f"expected a JSON object, got a JSON {type(data).__name__}")
    unknown = data.keys() - known
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")


def _json_field(data: dict, name: str, kind: type):
    """data[name] if its type is exactly ``kind`` (so a bool is not an int), ints capped by _MAX_DIGITS."""
    value = data[name]
    if type(value) is not kind:
        raise TypeError(f"{name} must be a JSON {kind.__name__}, got {value!r}")
    if kind is int and abs(value) >= 10**_MAX_DIGITS:
        raise ValueError(f"{name} has more than {_MAX_DIGITS} digits")
    return value


def check_digits(text: str, name: str) -> None:
    """Raise ValueError if the literal ``text`` has a part of more than _MAX_DIGITS digits.

    Checked before ``parse_rational`` converts any digit, so an oversized
    literal costs no big-int work.  Certificate fields and the command line's
    ``p/q`` arguments share this cap.
    """
    if any(len(part.strip().lstrip("+-")) > _MAX_DIGITS for part in text.split("/")):
        raise ValueError(f"{name} has a numerator or denominator of more than {_MAX_DIGITS} digits")


def _rational_field(data: dict, name: str) -> Fraction:
    """data[name] parsed as a rational, with at most _MAX_DIGITS digits in each part."""
    text = _json_field(data, name, str)
    check_digits(text, name)
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
    start = sqrt_lower(rational(12), eps)
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
    positive even after shrinking eps, or a next step that would take the
    counts past _MAX_TERMS floor terms in all) instead of returning an
    unsound certificate or one that verify would reject; the exception
    carries the partial certificate for inspection.  A target above
    LAMBDA_MAX, which verify would also reject, is a DomainError.
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
        steps=[],
    )
    index = 0
    terms = 0
    while lam <= target:
        index += 1
        terms += rat_floor(lam) + 1
        if terms > _MAX_TERMS:
            raise StallError(lam, eps, cert, reason=f"more than {_MAX_TERMS} floor terms in the counts")
        p = count_neumann2_certified_lower(lam, eps).value
        e = p - lam * lam / 4
        if e <= 0:
            raise StepFailedError(lam, e, cert)
        next_lam = None
        for retry in range(_DELTA_RETRIES + 1):
            attempt = eps / 10**retry
            candidate = sqrt_lower(lam * lam + 4 * e, attempt)
            if candidate > lam:
                next_lam = candidate
                break
        if next_lam is None:
            raise StallError(lam, attempt, cert)
        cert.steps.append(
            CertificateStep(index=index, lam=lam, p_lower=p, e_lower=e, delta_lower=next_lam - lam)
        )
        lam = next_lam
    return cert._replace(success=True)


PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
NOT_RUN = "not run"


def _status(results) -> str:
    """FAIL if any result failed, else PASS if every one passed, else INCONCLUSIVE."""
    results = set(results)
    if FAIL in results:
        return FAIL
    return PASS if results <= {PASS} else INCONCLUSIVE


class StepVerification(NamedTuple):
    index: int
    checks: dict[str, str]

    @property
    def status(self) -> str:
        return _status(self.checks.values())


class VerificationReport(NamedTuple):
    steps: list[StepVerification]
    certificate_checks: dict[str, str]

    @property
    def status(self) -> str:
        return _status([*self.certificate_checks.values(), *(step.status for step in self.steps)])

    @property
    def all_passed(self) -> bool:
        return self.status == PASS

    @property
    def sound(self) -> bool:
        """No outright failures (inconclusive fresh counts tolerated)."""
        return self.status != FAIL

    def lines(self) -> list[str]:
        out = []
        for step in self.steps:
            detail = ", ".join(f"{name}={result}" for name, result in step.checks.items())
            out.append(f"step {step.index}: {step.status} ({detail})")
        detail = ", ".join(f"{name}={result}" for name, result in self.certificate_checks.items())
        out.append(f"certificate: {detail}")
        return out


def verify_certificate(cert: Certificate) -> VerificationReport:
    """Independently re-check every step of a certificate, at its own eps.

    Per step, first the exact checks: (a) the step number is its position,
    counting from 1, lam >= 0, and the margin identity e = p - lam^2/4 and
    e > 0 hold; (b) the step inequality (lam + delta)^2 <= lam^2 + 4e by
    exact cross multiplication, with delta > 0; (c) chaining: the next step
    starts after lam and no later than lam + delta.  For the whole
    certificate, the recorded pi bracket must be the one pi_bounds gives at
    the certificate's eps (an eps too fine for pi_bounds fails it), the
    success flag must be set, and the chain must cover [lambda_start,
    lambda_target].  Then (d), only if the pi bracket and the step's exact
    checks pass, a fresh certified count at the certificate's eps, which
    uses that pi, confirms the recorded p; a fresh count below p, or one
    whose brackets cannot be verified at that eps, is inconclusive, not a
    failure, since lower bounds are not unique.  A count that does not run
    is reported as ``not run``.

    A defect of the certificate is a report entry, never an exception, but
    a non-positive eps, which parsing rejects, raises DomainError before any
    step is checked.
    """
    if cert.eps <= 0:
        raise DomainError("eps must be positive")
    try:
        pi = pi_bounds(cert.eps)
        pi_bracket = PASS if (pi.lo, pi.hi) == (cert.pi_lower, cert.pi_upper) else FAIL
    except GuessFailedError:
        pi_bracket = FAIL
    steps = cert.steps
    certificate_checks = {
        "pi_bracket": pi_bracket,
        "success_flag": PASS if cert.success else FAIL,
        "start_covered": PASS if steps and steps[0].lam <= cert.lambda_start else FAIL,
        "target_covered": (
            PASS if steps and steps[-1].lam + steps[-1].delta_lower > cert.lambda_target else FAIL
        ),
    }
    reports: list[StepVerification] = []
    for pos, step in enumerate(cert.steps):
        checks: dict[str, str] = {}
        lam = step.lam
        checks["index"] = PASS if step.index == pos + 1 else FAIL
        checks["lambda_non_negative"] = PASS if lam >= 0 else FAIL
        checks["margin_identity"] = PASS if step.e_lower == step.p_lower - lam * lam / 4 else FAIL
        checks["margin_positive"] = PASS if step.e_lower > 0 else FAIL
        checks["delta_positive"] = PASS if step.delta_lower > 0 else FAIL
        reach = lam + step.delta_lower
        checks["delta_sound"] = (
            PASS if reach * reach <= lam * lam + 4 * step.e_lower else FAIL
        )
        if pos + 1 < len(cert.steps):
            nxt = cert.steps[pos + 1].lam
            checks["chaining"] = PASS if lam < nxt <= reach else FAIL
        if FAIL in checks.values() or pi_bracket != PASS:
            checks["count_confirmed"] = NOT_RUN
        else:
            try:
                confirmed = count_neumann2_certified_lower(lam, cert.eps).value >= step.p_lower
            except GuessFailedError:
                confirmed = False
            checks["count_confirmed"] = PASS if confirmed else INCONCLUSIVE
        reports.append(StepVerification(index=step.index, checks=checks))
    return VerificationReport(steps=reports, certificate_checks=certificate_checks)
