"""Tests for the certification loop, certificate files, and the verifier."""
import importlib
import json
import math

import mpmath
import pytest

from polyacert.certify import (
    FAIL,
    INCONCLUSIVE,
    NOT_RUN,
    PASS,
    Certificate,
    CertificateStep,
    certify,
    gap_endpoints,
    verify_certificate,
)
from polyacert.cli import main
from polyacert.curve import g_lower
from polyacert.errors import DomainError, EpsTooCoarseError, GuessFailedError, StallError, StepFailedError
from polyacert.rational import format_rational, parse_rational, rational, to_float
from polyacert.verified import arccos_bounds, pi_bounds, sqrt_bounds

# the package exports the function certify under the submodule's name
certify_module = importlib.import_module("polyacert.certify")

# the thirteen frozen steps of the default run over [3, 14] at eps = 1/1000
TABLE = [
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


@pytest.fixture(scope="module")
def paper_range_certificate():
    return certify(3, 14, rational(1, 1000))


class TestGapEndpoints:
    def test_start_bounds_two_root_three(self):
        start, _ = gap_endpoints(rational(1, 1000))
        assert 3 < to_float(start)
        assert start * start <= 12  # start <= 2*sqrt(3), verified by squaring

    def test_target_dominates_true_endpoint(self):
        _, target = gap_endpoints(rational(1, 1000))
        assert to_float(target) < 14
        with mpmath.workdps(60):
            true_endpoint = 6 * mpmath.pi / (3 * mpmath.pi - 8)
            assert mpmath.mpf(int(target.numerator)) / int(target.denominator) > true_endpoint

    def test_coarse_eps_rejected(self):
        with pytest.raises(EpsTooCoarseError):
            gap_endpoints(rational(1))

    # Why the gap ends at 6*pi/(3*pi - 8) (arXiv 2203.07696), on certified
    # brackets.  With cos(sigma) = 5/6, G(lam, 5*lam/6) =
    # lam*(sqrt(11) - 5*sigma)/(6*pi) is linear in lam, and it reaches 1/4 at
    # lam = 3*pi/(2*(sqrt(11) - 5*sigma)).  The first test proves that this
    # threshold is at most 6*pi/(3*pi - 8), so for every lam from there on the
    # quarter-level abscissa z, where G(lam, z) = 1/4, is at least 5*lam/6, as
    # G falls in z.  The analytic route's margin 3*z - lam*(1 + 4/pi) - 3 is
    # then at least lam*(3/2 - 4/pi) - 3, which is >= 0 for those lam.  The
    # second test checks the quarter level directly at the gap's target, and
    # the third that the target clears the margin's root despite the pi
    # bracket.
    EPS_CASES = [rational(1, 1000), rational(1, 10**6)]

    @pytest.mark.parametrize("eps", EPS_CASES)
    def test_special_angle_threshold_is_below_the_target(self, eps):
        # (3*pi - 8)/4 < sqrt(11) - 5*arccos(5/6), both sides bracketed outwards
        pi = pi_bounds(eps)
        assert (3 * pi.hi - 8) / 4 < sqrt_bounds(11, eps).lo - 5 * arccos_bounds(rational(5, 6), eps).hi

    @pytest.mark.parametrize("eps", EPS_CASES)
    def test_target_reaches_the_quarter_level_at_five_sixths(self, eps):
        _, target = gap_endpoints(eps)
        assert g_lower(target, 5 * target / 6, eps) >= rational(1, 4)

    @pytest.mark.parametrize("eps", EPS_CASES)
    def test_margin_at_the_target_is_non_negative(self, eps):
        _, target = gap_endpoints(eps)
        pi = pi_bounds(eps)
        margin = target * (rational(3, 2) - 4 / pi.lo) - 3
        assert margin == 3 * (pi.hi / pi.lo - 1)
        assert margin >= 0


class TestCertify:
    def test_reproduces_frozen_table(self, paper_range_certificate):
        cert = paper_range_certificate
        got = [
            (format_rational(s.lam), format_rational(s.e_lower), format_rational(s.delta_lower))
            for s in cert.steps
        ]
        assert got == TABLE
        final = cert.steps[-1].lam + cert.steps[-1].delta_lower
        assert format_rational(final) == "495/34"
        assert cert.success

    def test_terminates_quickly(self, paper_range_certificate):
        assert len(paper_range_certificate.steps) <= 50

    def test_short_range(self):
        cert = certify(3, 4, rational(1, 1000))
        assert len(cert.steps) <= 3
        assert cert.steps[0].e_lower == rational(3, 4)
        assert cert.steps[0].delta_lower == rational(6, 13)

    def test_precondition(self):
        with pytest.raises(ValueError):
            certify(5, 5, rational(1, 1000))

    def test_coarse_eps_fails_loudly(self):
        with pytest.raises(StepFailedError) as info:
            certify(3, 14, rational(1, 2))
        assert info.value.e_lower <= 0

    def test_vanishing_step_retries_finer_eps_then_stalls(self, monkeypatch):
        # at eps = 1/20 the chain reaches 8733/2521, just below 2*sqrt(3), where
        # the margin is so small that no eps on the retry ladder gives a step
        calls, real = [], certify_module.sqrt_lower

        def recording(x, eps):
            calls.append(eps)
            return real(x, eps)

        monkeypatch.setattr(certify_module, "sqrt_lower", recording)
        eps = rational(1, 20)
        with pytest.raises(StallError) as info:
            certify(3, 14, eps)
        stall = info.value
        assert stall.lam == rational(8733, 2521)
        assert stall.lam ** 2 < 12
        assert stall.eps == eps / 10**6
        assert calls[-7:] == [eps / 10**k for k in range(7)]
        last = stall.partial.steps[-1]
        assert last.lam + last.delta_lower == stall.lam
        assert not stall.partial.success

    def test_step_cap_stalls_with_the_partial_certificate(self, monkeypatch):
        # the counts at 3 and 45/13 take 4 terms each, the one at 76/17 five
        monkeypatch.setattr(certify_module, "_MAX_TERMS", 8)
        eps = rational(1, 1000)
        with pytest.raises(StallError) as info:
            certify(3, 14, eps)
        stall = info.value
        assert [format_rational(s.lam) for s in stall.partial.steps] == ["3", "45/13"]
        assert stall.lam == rational(76, 17)
        assert stall.eps == eps
        assert "more than 8 floor terms" in str(stall)

    def test_target_above_the_lambda_cap_is_rejected(self):
        with pytest.raises(DomainError, match="at most 10000"):
            certify(3, certify_module.LAMBDA_MAX + 1)

    def test_deterministic(self, paper_range_certificate):
        again = certify(3, 14, rational(1, 1000))
        assert again.to_json_dict() == paper_range_certificate.to_json_dict()

    def test_step_invariants(self, paper_range_certificate):
        cert = paper_range_certificate
        for step in cert.steps:
            lam = step.lam
            assert step.e_lower == step.p_lower - lam * lam / 4
            assert step.e_lower > 0
            assert step.delta_lower > 0
            reach = lam + step.delta_lower
            assert reach * reach <= lam * lam + 4 * step.e_lower
        for here, there in zip(cert.steps, cert.steps[1:]):
            assert there.lam == here.lam + here.delta_lower

    def test_chain_covers_requested_interval(self, paper_range_certificate):
        cert = paper_range_certificate
        assert cert.steps[0].lam <= cert.lambda_start
        assert cert.steps[-1].lam + cert.steps[-1].delta_lower > cert.lambda_target


class TestSerialization:
    def test_json_round_trip(self, paper_range_certificate, tmp_path):
        path = tmp_path / "cert.json"
        paper_range_certificate.dump(path)
        loaded = Certificate.load(path)
        assert loaded.to_json_dict() == paper_range_certificate.to_json_dict()

    def test_the_largest_certificate_loads_under_the_byte_cap(self, tmp_path):
        # a run to target 300 at eps 1/1000 stalls at the work bound after 561
        # steps; its partial certificate is the largest measured inside that bound
        with pytest.raises(StallError, match="floor terms") as info:
            certify(3, 300, rational(1, 1000))
        partial = info.value.partial
        path = tmp_path / "cert.json"
        partial.dump(path)
        assert len(partial.steps) == 561
        assert 80_000 < path.stat().st_size < certify_module._MAX_BYTES // 12
        assert Certificate.load(path) == partial

    def test_no_floats_in_payload(self, paper_range_certificate):
        payload = paper_range_certificate.to_json_dict()

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
            else:
                assert not isinstance(node, float), node

        walk(payload)

    def test_verifier_sees_parsed_certificate_identically(
        self, paper_range_certificate, tmp_path
    ):
        path = tmp_path / "cert.json"
        paper_range_certificate.dump(path)
        fresh = verify_certificate(Certificate.load(path))
        direct = verify_certificate(paper_range_certificate)
        assert fresh.all_passed and direct.all_passed
        assert [s.checks for s in fresh.steps] == [s.checks for s in direct.steps]

    def test_records_compare_by_value(self, paper_range_certificate):
        loaded = Certificate.from_json_dict(paper_range_certificate.to_json_dict())
        assert loaded == paper_range_certificate
        assert repr(loaded) == repr(paper_range_certificate)
        assert repr(loaded).startswith("Certificate(eps=Fraction(1, 1000), lambda_start=")
        loaded.steps.pop()
        assert loaded != paper_range_certificate
        with pytest.raises(TypeError):
            hash(loaded)
        step = paper_range_certificate.steps[0]
        assert step == CertificateStep(1, rational(3), 3, rational(3, 4), rational(6, 13))
        assert hash(step) == hash(CertificateStep(**step._asdict()))
        with pytest.raises(AttributeError):
            step.lam = rational(4)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda c: c["steps"][0].update({"lambda": "10001"}), id="step-lambda"),
            pytest.param(lambda c: c.update(lambda_start="20001/2"), id="lambda_start"),
            pytest.param(lambda c: c.update(lambda_target="100000"), id="lambda_target"),
            pytest.param(lambda c: c.update(pi_upper="3/" + "1" * 101), id="denominator-digits"),
            pytest.param(lambda c: c["steps"][2].update(e_lower="-" + "7" * 101), id="numerator-digits"),
            pytest.param(lambda c: c["steps"][1].update(index=10**100), id="index-digits"),
            pytest.param(lambda c: c["steps"][1].update(p_lower=-(10**100)), id="p_lower-digits"),
            pytest.param(lambda c: c.update(steps=c["steps"] * 2), id="too-many-steps"),
        ],
    )
    def test_oversized_input_is_rejected_on_parsing(self, paper_range_certificate, monkeypatch, edit):
        monkeypatch.setattr(certify_module, "_MAX_TERMS", 200)  # the certificate needs 117
        payload = paper_range_certificate.to_json_dict()
        edit(payload)
        with pytest.raises(ValueError):
            Certificate.from_json_dict(payload)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda c: c["steps"][0].update({"lambda": "-1"}), id="step-lambda"),
            pytest.param(lambda c: c.update(lambda_start="-1/2"), id="lambda_start"),
            pytest.param(lambda c: c.update(lambda_target="-14"), id="lambda_target"),
        ],
    )
    def test_negative_lambda_is_rejected_on_parsing(self, paper_range_certificate, edit):
        payload = paper_range_certificate.to_json_dict()
        edit(payload)
        with pytest.raises(ValueError, match="must be non-negative"):
            Certificate.from_json_dict(payload)

    @pytest.mark.parametrize(
        "edit, named",
        [
            pytest.param(lambda c: c["steps"][0].update({"k" * 500_000: 1}), "k" * 40, id="unknown-key"),
            pytest.param(lambda c: c["steps"][1].update(index="9" * 500_000), "index", id="string-index"),
        ],
    )
    def test_hostile_input_gets_a_short_error(self, paper_range_certificate, tmp_path, capsys, edit, named):
        # the error names the field, or the first unknown key cut to 40
        # characters, and echoes no more of the input than that
        payload = paper_range_certificate.to_json_dict()
        edit(payload)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(payload))
        assert main(["verify", str(path)]) == 3
        err = capsys.readouterr().err
        assert len(err.encode()) < 300 and named in err, err[:300]

    def test_input_at_the_caps_is_accepted(self, paper_range_certificate):
        payload = paper_range_certificate.to_json_dict()
        payload["lambda_target"] = "10000"
        payload["pi_lower"] = "3" + "0" * 99 + "/" + "1" + "0" * 99
        payload["steps"][0].update(index=10**100 - 1, p_lower=-(10**100 - 1))
        cert = Certificate.from_json_dict(payload)
        assert cert.lambda_target == certify_module.LAMBDA_MAX
        assert cert.pi_lower == 3
        assert cert.steps[0].index == -cert.steps[0].p_lower == 10**100 - 1


def _replace_step(cert: Certificate, position: int, **changes) -> Certificate:
    clone = Certificate.from_json_dict(cert.to_json_dict())
    old = clone.steps[position]
    fields = {
        "index": old.index,
        "lam": old.lam,
        "p_lower": old.p_lower,
        "e_lower": old.e_lower,
        "delta_lower": old.delta_lower,
    }
    fields.update(changes)
    clone.steps[position] = CertificateStep(**fields)
    return clone


class TestVerifier:
    def test_fresh_certificate_passes(self, paper_range_certificate):
        report = verify_certificate(paper_range_certificate)
        assert report.all_passed
        assert report.sound
        assert all(step.status == PASS for step in report.steps)

    def test_negative_margin_detected(self, paper_range_certificate):
        bad = _replace_step(paper_range_certificate, 4, e_lower=rational(-1, 4))
        report = verify_certificate(bad)
        assert not report.sound
        checks = report.steps[4].checks
        assert checks["margin_positive"] == FAIL
        assert checks["margin_identity"] == FAIL

    def test_inflated_delta_detected(self, paper_range_certificate):
        old = paper_range_certificate.steps[2]
        bad = _replace_step(
            paper_range_certificate, 2, delta_lower=old.delta_lower + rational(1, 2)
        )
        report = verify_certificate(bad)
        assert not report.sound
        assert report.steps[2].checks["delta_sound"] == FAIL

    def test_broken_chaining_detected(self, paper_range_certificate):
        old = paper_range_certificate.steps[7]
        bad = _replace_step(paper_range_certificate, 7, lam=old.lam + rational(1, 5))
        report = verify_certificate(bad)
        assert not report.sound
        statuses = [s.checks.get("chaining") for s in report.steps]
        assert FAIL in statuses

    def test_missing_coverage_detected(self, paper_range_certificate):
        clone = Certificate.from_json_dict(paper_range_certificate.to_json_dict())
        clone.steps.pop()
        report = verify_certificate(clone)
        assert report.certificate_checks["target_covered"] == FAIL
        assert not report.all_passed

    def test_overstated_count_is_inconclusive_not_failed(self, paper_range_certificate):
        old = paper_range_certificate.steps[0]
        bad = _replace_step(
            paper_range_certificate,
            0,
            p_lower=old.p_lower + 1,
            e_lower=old.e_lower + 1,
        )
        report = verify_certificate(bad)
        checks = report.steps[0].checks
        assert checks["count_confirmed"] == "inconclusive"
        assert not report.all_passed

    def test_negative_step_lambda_fails_its_count_check(self, paper_range_certificate):
        # parsing rejects this; an in-memory certificate reaches the verifier
        # as is.  Step 3 fails lambda >= 0, step 2 chaining, so neither counts
        bad = _replace_step(paper_range_certificate, 3, lam=rational(-1))
        report = verify_certificate(bad)
        assert report.steps[3].checks["lambda_non_negative"] == FAIL
        assert report.steps[2].checks["chaining"] == FAIL
        for step in report.steps[2:4]:
            assert step.checks["count_confirmed"] == NOT_RUN
            assert step.status == FAIL
        assert not report.sound
        others = report.steps[:2] + report.steps[4:]
        assert all(step.checks["count_confirmed"] == PASS for step in others)

    def test_no_count_runs_for_a_step_that_fails_an_exact_check(self, paper_range_certificate, monkeypatch):
        calls, real = [], certify_module.count_neumann2_certified_lower

        def recording(lam, eps):
            calls.append(lam)
            return real(lam, eps)

        monkeypatch.setattr(certify_module, "count_neumann2_certified_lower", recording)
        bad = _replace_step(paper_range_certificate, 4, e_lower=rational(-1, 4))
        report = verify_certificate(bad)
        assert report.steps[4].checks["count_confirmed"] == NOT_RUN
        assert report.steps[4].status == FAIL
        assert "count_confirmed=not run" in report.lines()[4]
        assert calls == [step.lam for pos, step in enumerate(bad.steps) if pos != 4]

    def test_report_lines_render(self, paper_range_certificate):
        report = verify_certificate(paper_range_certificate)
        lines = report.lines()
        assert len(lines) == len(report.steps) + 1
        assert lines[-1] == (
            "certificate: pi_bracket=pass, success_flag=pass, start_covered=pass, target_covered=pass"
        )

    @pytest.mark.parametrize("eps", [0, "-1/1000"])
    def test_non_positive_fresh_eps_raises_before_any_step(
        self, paper_range_certificate, monkeypatch, eps
    ):
        # parsing rejects this eps; an in-memory certificate reaches the verifier as is
        def no_count(*args):
            raise AssertionError("a fresh count ran before the eps was checked")

        bad = paper_range_certificate._replace(eps=rational(eps))
        monkeypatch.setattr(certify_module, "count_neumann2_certified_lower", no_count)
        with pytest.raises(DomainError):
            verify_certificate(bad)

    def test_count_whose_brackets_fail_is_inconclusive(self, paper_range_certificate, monkeypatch):
        # at eps = 10**-16 the count at 29/4 raises GuessFailedError; the
        # certificate's recorded p may still hold, so this is no failure
        real = certify_module.count_neumann2_certified_lower

        def failing_at_step_six(lam, eps):
            if lam == paper_range_certificate.steps[5].lam:
                raise GuessFailedError("arccos bracket failed to verify")
            return real(lam, eps)

        monkeypatch.setattr(certify_module, "count_neumann2_certified_lower", failing_at_step_six)
        report = verify_certificate(paper_range_certificate)
        assert report.steps[5].checks["count_confirmed"] == INCONCLUSIVE
        assert report.steps[5].status == INCONCLUSIVE
        assert all(step.status == PASS for pos, step in enumerate(report.steps) if pos != 5)
        assert report.sound and not report.all_passed


_STATEMENT = (
    "proved: the planar Neumann lattice count exceeds lambda^2/4 for every lambda in [{}, {}); "
    "the gap [2*sqrt(3), 6*pi/(3*pi-8)] is {}"
)


class TestGapStatement:
    """The interval a chain covers, [first lambda, last lambda + delta), and whether it contains the gap."""

    @pytest.mark.parametrize(
        "start, target, eps, covered, gap",
        [
            (None, None, "1/1000", ("45/13", "217/16"), "covered"),
            ("3", "14", "1/1000", ("3", "495/34"), "covered"),
            ("3", "7/2", "1/1000", ("3", "76/17"), "not covered"),
            ("4", "20", "1/100000", ("4", "6103/295"), "not covered"),
            # past 6*pi/(3*pi - 8) = 13.23, which the verifier bounds at its
            # own fine accuracy, not at this eps, where the bound is 189/13 = 14.54
            ("3", "14", "1/100", ("3", "113/8"), "covered"),
        ],
        ids=["gap", "paper-range", "3-to-7/2", "4-to-20", "coarse-pi"],
    )
    def test_a_passing_report_states_its_interval_and_the_gap(self, start, target, eps, covered, gap):
        eps = parse_rational(eps)
        start, target = gap_endpoints(eps) if start is None else (parse_rational(start), parse_rational(target))
        report = verify_certificate(certify(start, target, eps))
        assert report.all_passed
        assert report.covered == tuple(map(parse_rational, covered))
        assert report.gap_covered is (gap == "covered")
        assert report.statement == _STATEMENT.format(*covered, gap)

    @pytest.mark.parametrize("start, covers", [("3464/1000", True), ("3465/1000", False)])
    def test_the_first_lambda_is_compared_with_two_root_three_exactly(self, start, covers):
        # 3.464 < 2*sqrt(3) = 3.46410... < 3.465: lambda^2 <= 12 decides it
        report = verify_certificate(certify(parse_rational(start), 14, rational(1, 1000)))
        assert report.all_passed
        assert report.covered[1] > 14
        assert report.gap_covered is covers

    def test_an_eps_too_coarse_for_the_gap_ends_still_covers_the_gap(self, paper_range_certificate):
        # at eps 1/10 pi's lower end, 9/4, cannot separate 3*pi from 8, so no
        # upper end of the gap exists at that eps; the verifier bounds it at
        # its own fine accuracy, so the chain, which reaches 495/34, covers it
        eps = rational(1, 10)
        with pytest.raises(EpsTooCoarseError):
            gap_endpoints(eps)
        pi = pi_bounds(eps)
        coarse = paper_range_certificate._replace(eps=eps, pi_lower=pi.lo, pi_upper=pi.hi)
        report = verify_certificate(coarse)
        assert report.certificate_checks["pi_bracket"] == PASS
        assert report.covered == (3, rational(495, 34))
        assert report.gap_covered is True

    @pytest.mark.parametrize("reach, covers", [("1323/100", True), ("132298/10000", False)])
    def test_the_reach_is_compared_with_the_gap_end_at_a_fine_accuracy(self, paper_range_certificate, reach, covers):
        # 6*pi/(3*pi - 8) = 13.229819...: 13.23 lies past it, although not past
        # its bound at the certificate's eps 1/1000, 2079/155 = 13.41, and
        # 13.2298 does not; the chain's last step is cut to reach there
        reach = parse_rational(reach)
        steps = [step for step in paper_range_certificate.steps if step.lam < reach]
        steps[-1] = steps[-1]._replace(delta_lower=reach - steps[-1].lam)
        report = verify_certificate(paper_range_certificate._replace(steps=steps))
        assert report.covered == (3, reach)
        assert report.gap_covered is covers

    def test_a_report_without_steps_covers_nothing(self, paper_range_certificate):
        report = verify_certificate(paper_range_certificate._replace(steps=[]))
        assert (report.covered, report.gap_covered) == (None, False)
