"""End-to-end tests of the command-line interface via its main() entry point."""
import contextlib
import copy
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import polyacert
from polyacert import analysis, cli
from polyacert.certify import certify
from polyacert.cli import main
from polyacert.curve import BoundKind
from polyacert.lattice import count_weighted


# Arabic-Indic digits, which \d and int() accept but certify never writes
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCertifyCommand:
    def test_paper_range_writes_certificate(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, out, _ = run(capsys, "certify", "--paper-range", "-o", str(out_path))
        assert code == 0
        assert "success in 13 steps" in out
        assert "495/34" in out
        payload = json.loads(out_path.read_text())
        assert payload["success"] is True
        assert len(payload["steps"]) == 13
        assert payload["steps"][0] == {
            "index": 1,
            "lambda": "3",
            "p_lower": 3,
            "e_lower": "3/4",
            "delta_lower": "6/13",
        }

    def test_explicit_short_range(self, capsys):
        code, out, _ = run(capsys, "certify", "--start", "3", "--target", "4")
        assert code == 0
        assert "6/13" in out

    def test_an_explicit_range_does_not_compute_the_gap(self, capsys):
        # eps 1/10 is too coarse for the gap's pi bracket, which this range
        # does not need: the run fails in the loop itself, not over the gap
        code, out, err = run(capsys, "certify", "--start", "3", "--target", "4", "--eps", "1/10")
        assert code == 2
        assert err.startswith("certification failed: ")
        assert out == ""

    def test_default_range_is_computed_gap(self, capsys):
        code, out, _ = run(capsys, "certify")
        assert code == 0
        assert "[45/13, 2079/155]" in out

    def test_coarse_eps_exits_two(self, capsys):
        code, _, err = run(capsys, "certify", "--paper-range", "--eps", "1/2")
        assert code == 2
        assert "failed" in err or "error" in err

    def test_an_eps_past_pis_limit_names_pi(self, capsys):
        # no double guess verifies pi = 3*arccos(1/2) below eps of about 1e-16;
        # the error names pi and keeps the arccos bracket's own message
        code, out, err = run(capsys, "certify", "--eps", "1/100000000000000000")
        assert code == 2
        assert out == ""
        assert err.startswith("error: pi bracket at eps 1/100000000000000000 failed to verify ")
        assert "(arccos bracket for 1/2 failed to verify)" in err
        assert "about 1e-16" in err

    def test_stalled_step_exits_two(self, capsys):
        code, _, err = run(capsys, "certify", "--paper-range", "--eps", "1/20")
        assert code == 2
        assert err.startswith("certification failed: ")

    def test_unwritable_output_exits_three(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "certify", "--paper-range", "-o", str(tmp_path / "missing" / "cert.json")
        )
        assert code == 3


class TestVerifyCommand:
    @pytest.fixture()
    def certificate_path(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "certify", "--paper-range", "-o", str(path))
        return path

    def test_fresh_certificate_verifies(self, capsys, certificate_path):
        code, out, _ = run(capsys, "verify", str(certificate_path))
        assert code == 0
        assert "all steps pass" in out

    def test_tampered_certificate_fails(self, capsys, certificate_path):
        payload = json.loads(certificate_path.read_text())
        payload["steps"][4]["e_lower"] = "-1/4"
        certificate_path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", str(certificate_path))
        assert code == 2
        assert "step 5: fail" in out
        assert "NOT verified" in err

    @pytest.mark.parametrize(
        "edit, code",
        [
            pytest.param(lambda c: c.update(pi_lower="1", pi_upper="100"), 2, id="pi-bracket"),
            pytest.param(lambda c: [s.update(index=99) for s in c["steps"]], 2, id="index-99"),
            pytest.param(lambda c: c.update(success=False), 2, id="success-false"),
            pytest.param(lambda c: c.update(success="false"), 3, id="success-string"),
            pytest.param(lambda c: c["steps"][0].update(p_lower=3.9), 3, id="p_lower-float"),
            pytest.param(lambda c: [s.update(index=True) for s in c["steps"]], 3, id="index-bool"),
            pytest.param(lambda c: [s.update(index="1") for s in c["steps"]], 3, id="index-string"),
            pytest.param(lambda c: c.update(eps=1), 3, id="eps-number"),
            pytest.param(lambda c: c.update(eps=None), 3, id="eps-null"),
            pytest.param(lambda c: c["steps"][0].update({"lambda": 3}), 3, id="lambda-number"),
            pytest.param(lambda c: c.update(lambda_target=[14]), 3, id="lambda_target-list"),
            pytest.param(lambda c: c.update(eps="0"), 3, id="eps-zero"),
            pytest.param(lambda c: c.update(eps="-1/1000"), 3, id="eps-negative"),
            pytest.param(lambda c: c.update(gap_covered=True), 3, id="unknown-key"),
            pytest.param(lambda c: c["steps"][0].update(note="checked"), 3, id="unknown-step-key"),
            pytest.param(lambda c: c.update(eps=c["eps"].translate(ARABIC_INDIC)), 3, id="eps-non-ascii-digits"),
        ],
    )
    def test_unchecked_field_edit_is_rejected(self, capsys, certificate_path, edit, code):
        payload = json.loads(certificate_path.read_text())
        edit(payload)
        certificate_path.write_text(json.dumps(payload))
        assert run(capsys, "verify", str(certificate_path))[0] == code

    def test_empty_step_list_exits_two(self, capsys, certificate_path):
        payload = json.loads(certificate_path.read_text())
        payload["steps"] = []
        certificate_path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", str(certificate_path))
        assert code == 2
        assert "start_covered=fail, target_covered=fail" in out
        assert "NOT verified" in err

    def test_huge_lambda_exits_three_before_any_count(self, certificate_path):
        # the count at lambda has O(lambda) terms: at 10**9 it would run for hours
        payload = json.loads(certificate_path.read_text())
        payload["steps"][0]["lambda"] = str(10**9)
        certificate_path.write_text(json.dumps(payload))
        stderr = _verify_exits_three_within_two_seconds(certificate_path)
        assert "lambda must be at most 10000" in stderr

    def test_too_much_work_exits_three_before_any_count(self, certificate_path):
        # 2,000 steps at lambda = 10**4 would take about 0.2 s of count each
        payload = json.loads(certificate_path.read_text())
        payload["steps"] = [dict(payload["steps"][0], **{"lambda": "10000"}) for _ in range(2000)]
        certificate_path.write_text(json.dumps(payload))
        stderr = _verify_exits_three_within_two_seconds(certificate_path)
        assert "more than 100000 floor terms" in stderr

    def test_negative_lambda_exits_three(self, capsys, certificate_path):
        payload = json.loads(certificate_path.read_text())
        payload["steps"][0]["lambda"] = "-1"
        certificate_path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", str(certificate_path))
        assert code == 3
        assert out == ""
        assert "lambda must be non-negative, got -1" in err

    @pytest.mark.parametrize("where", ["file", "steps"])
    def test_over_deep_file_exits_three(self, certificate_path, where):
        # 100,000 nested lists exhaust the JSON parser's recursion limit
        nested = "[" * 100_000 + "]" * 100_000
        if where == "steps":
            payload = json.loads(certificate_path.read_text())
            payload["steps"] = "NESTED"
            nested = json.dumps(payload).replace('"NESTED"', nested)
        certificate_path.write_text(nested)
        stderr = _verify_exits_three_within_two_seconds(certificate_path)
        assert stderr.startswith("cannot read certificate:")

    @pytest.mark.parametrize("field", ["index", "p_lower"])
    def test_an_integer_of_more_than_a_hundred_digits_exits_three(self, capsys, certificate_path, field):
        payload = json.loads(certificate_path.read_text())
        payload["steps"][0][field] = 10**100
        certificate_path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", str(certificate_path))
        assert (code, out) == (3, "")
        assert f"{field} has more than 100 digits" in err

    def test_a_file_over_the_byte_cap_exits_three_before_parsing(self, capsys, monkeypatch, certificate_path):
        certify_module = importlib.import_module("polyacert.certify")
        parsed, real_loads = [], json.loads
        monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or real_loads(text))
        size = certificate_path.stat().st_size
        monkeypatch.setattr(certify_module, "_MAX_BYTES", size - 1)
        code, out, err = run(capsys, "verify", str(certificate_path))
        assert (code, out, parsed) == (3, "", [])
        assert f"larger than {size - 1} bytes" in err
        monkeypatch.setattr(certify_module, "_MAX_BYTES", size)
        assert run(capsys, "verify", str(certificate_path))[0] == 0
        assert len(parsed) == 1

    def test_invalid_utf8_exits_three(self, capsys, certificate_path):
        certificate_path.write_bytes(certificate_path.read_bytes().replace(b'"3"', b'"3\xff"', 1))
        code, _, err = run(capsys, "verify", str(certificate_path))
        assert code == 3
        assert "utf-8" in err

    def test_truncated_file_exits_three(self, capsys, certificate_path):
        certificate_path.write_text(certificate_path.read_text()[:40])
        code, _, err = run(capsys, "verify", str(certificate_path))
        assert code == 3

    def test_missing_file_exits_three(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 3


def _verify_exits_three_within_two_seconds(path) -> str:
    """Run verify on path in a fresh interpreter; assert it exits 3 in under 2 s, return its stderr."""
    script = """
import sys, time
from polyacert.cli import main
t0 = time.perf_counter()
code = main(["verify", sys.argv[1]])
print(code, time.perf_counter() - t0)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        capture_output=True, text=True, env=_package_env(), timeout=60,
    )
    code, seconds = proc.stdout.split()
    assert code == "3", proc.stderr
    assert float(seconds) < 2
    return proc.stderr


@pytest.fixture(scope="module")
def gap_certificate(tmp_path_factory):
    """The default gap certificate as a JSON dict, and a scratch path for edited copies."""
    path = tmp_path_factory.mktemp("fuzz") / "cert.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["certify", "-o", str(path)]) == 0
    return json.loads(path.read_text()), path


_DELETE = object()  # the edit that removes the field
_TOP_RATIONALS = ("eps", "lambda_start", "lambda_target", "pi_lower", "pi_upper")
_STEP_RATIONALS = ("lambda", "e_lower", "delta_lower")
_GAP_STEPS = 11

_not_a_string = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 50), st.floats(-20, 20), st.lists(st.integers(), max_size=2)
)
_rational_text = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=3000).map(str),
    st.sampled_from(["0", "-1", "10000", "10001", "1/0", "1/3/4", " 7/2", "abc", "", "1" * 101, "1/" + "1" * 101]),
)


@st.composite
def _single_field_edits(draw):
    """(path, value): one field of the gap certificate and what replaces it."""
    paths = [(name,) for name in _TOP_RATIONALS + ("success", "steps")]
    paths += [(i, name) for i in range(_GAP_STEPS) for name in _STEP_RATIONALS + ("index", "p_lower")]
    path = draw(st.sampled_from(paths))
    name = path[-1]
    if name in _TOP_RATIONALS + _STEP_RATIONALS:
        nudge = st.fractions(min_value=-1, max_value=1, max_denominator=10**6).map(lambda q: ("nudge", q))
        kind = st.one_of(_rational_text, nudge)
    elif name in ("index", "p_lower"):
        kind = st.one_of(st.integers(-3, 3).map(lambda k: ("nudge", k)), st.integers(-10, 10**6))
    elif name == "success":
        kind = st.sampled_from([False, "true", 1, None])
    else:
        kind = st.sampled_from([[], {}, "steps"])
    return path, draw(st.one_of(kind, _not_a_string, st.just(_DELETE)))


def _apply(payload: dict, path: tuple, value) -> dict:
    edited = copy.deepcopy(payload)
    holder = edited if len(path) == 1 else edited["steps"][path[0]]
    name = path[-1]
    if value is _DELETE:
        del holder[name]
    elif isinstance(value, tuple):  # a nudge of the recorded value
        old = holder[name]
        holder[name] = old + value[1] if isinstance(old, int) else str(Fraction(old) + value[1])
    else:
        holder[name] = value
    return edited


def _assert_independently_sound(payload: dict) -> None:
    """What exit 0 claims, re-derived with Fraction and the exact count only."""
    steps = payload["steps"]
    lams = [Fraction(step["lambda"]) for step in steps]
    assert payload["success"] is True
    assert [step["index"] for step in steps] == list(range(1, len(steps) + 1))
    for lam, step in zip(lams, steps):
        p, e, delta = step["p_lower"], Fraction(step["e_lower"]), Fraction(step["delta_lower"])
        assert count_weighted(2, BoundKind.NEUMANN, lam).value >= p
        assert e == p - lam * lam / 4 and e > 0
        assert delta > 0 and (lam + delta) ** 2 <= lam * lam + 4 * e
    reaches = [lam + Fraction(step["delta_lower"]) for lam, step in zip(lams, steps)]
    assert all(a < b <= reach for a, b, reach in zip(lams, lams[1:], reaches))
    assert lams[0] <= Fraction(payload["lambda_start"])
    assert reaches[-1] > Fraction(payload["lambda_target"])


@given(edit=_single_field_edits())
@example(edit=(("lambda_start",), "7/2"))  # above 2*sqrt(3), but the chain still covers it
@example(edit=(("lambda_target",), "13"))
@example(edit=(("eps",), "1/1001"))  # the same pi bracket and the same counts
@example(edit=((0, "lambda"), "10000"))
@example(edit=((10, "p_lower"), ("nudge", 1)))
@example(edit=((3, "delta_lower"), ("nudge", Fraction(1, 10**6))))
@settings(max_examples=300, deadline=None)
def test_single_field_edit_is_rejected_or_sound(gap_certificate, edit):
    # an edited certificate is refused (2: not verified, 3: unreadable) or,
    # when verify accepts it, every step holds on its own; never exit 1 or
    # an exception
    payload, path = gap_certificate
    edited = _apply(payload, *edit)
    path.write_text(json.dumps(edited))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", str(path)])
    event(f"exit {code}")
    assert code in (0, 2, 3)
    if code == 0:
        _assert_independently_sound(edited)


@pytest.mark.parametrize("pad", ["\u3000", "\u2007"])
def test_eps_padded_by_non_ascii_whitespace_is_unreadable(capsys, gap_certificate, tmp_path, pad):
    payload, _ = gap_certificate
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(dict(payload, eps=payload["eps"] + pad)))
    assert run(capsys, "verify", str(path))[0] == 3


def test_eps_too_fine_for_pi_gives_a_full_report(capsys, gap_certificate, tmp_path):
    # pi_bounds cannot verify a bracket at eps = 10**-17: the pi bracket
    # fails, and no count, which would use that pi, runs
    payload, _ = gap_certificate
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(dict(payload, eps="1/" + str(10**17))))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == _GAP_STEPS + 1
    for index, line in enumerate(lines[:-1], 1):
        assert line.startswith(f"step {index}: inconclusive (index=pass")
        assert line.endswith(", count_confirmed=not run)")
    assert lines[-1] == (
        "certificate: pi_bracket=fail, success_flag=pass, start_covered=pass, target_covered=pass"
    )
    assert err == "certificate NOT verified\n"


class TestCountCommand:
    def test_neumann_disk(self, capsys):
        code, out, _ = run(capsys, "count", "--d", "2", "--kind", "N", "--lambda", "3")
        assert code == 0
        assert "value=3" in out
        assert "certified-exact" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "count", "--d", "2", "--kind", "D", "--lambda", "3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"value": 1, "rigor": "certified-exact", "lambda": "3"}

    def test_sector_mode(self, capsys):
        code, out, _ = run(
            capsys, "count", "--kind", "N", "--lambda", "3", "--alpha", "1", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[1] == "3,1,2,certified-exact"

    def test_bad_rational_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["count", "--lambda", "1.5"])

    def test_non_ascii_digits_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["count", "--lambda", "400".translate(ARABIC_INDIC)])
        assert info.value.code == 2
        assert "not a rational literal" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["400\u3000", "\u2007400"])
    def test_non_ascii_whitespace_rejected(self, capsys, text):
        with pytest.raises(SystemExit) as info:
            main(["count", "--lambda", text])
        assert info.value.code == 2
        assert "not a rational literal" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("certify", "--eps", "0"),
    ("certify", "--start", "5", "--target", "4"),
], ids=["certify-eps", "certify-range"])
def test_out_of_domain_arguments_exit_two_with_a_message(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "{cert}"), ("count", "--lambda", "5"), ("oracle", "--lambda-max", "1"),
], ids=["verify", "count", "oracle"])
def test_only_certify_takes_an_eps(capsys, tmp_path, argv):
    # verify replays the certificate's own eps, and an exact count does not depend on it
    cert = tmp_path / "cert.json"
    certify(3, 4).dump(cert)
    with pytest.raises(SystemExit) as info:
        main([arg.format(cert=cert) for arg in argv] + ["--eps", "1/1000"])
    assert info.value.code == 2
    assert "unrecognized arguments: --eps" in capsys.readouterr().err


def _package_env() -> dict:
    src = str(Path(polyacert.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


_PAPER_RANGE_SHA256 = "8e95354af793fb6c714f8871ce736b1c290fdfb5e5ca0b5d98614d3cbb654b81"
_GAP_SHA256 = "2b19b82e238fe8078eae0aff1867a48e48ab13d739816c6f352f3806a4e2fd8d"


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("argv, digest", [
    (("--paper-range",), _PAPER_RANGE_SHA256),
    ((), _GAP_SHA256),
], ids=["paper-range", "gap"])
def test_default_certificates_keep_their_bytes(capsys, tmp_path, argv, digest):
    path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", *argv, "-o", str(path))
    assert code == 0
    assert _sha256(path) == digest


@pytest.mark.parametrize("extra", [
    ("--start", "5", "--target", "6"), ("--start", "5"), ("--target", "6"),
], ids=["both", "start", "target"])
def test_paper_range_rejects_start_and_target(capsys, tmp_path, extra):
    path = tmp_path / "cert.json"
    code, out, err = run(capsys, "certify", "--paper-range", *extra, "-o", str(path))
    assert code == 2
    assert err.startswith("error: --paper-range")
    assert out == "" and not path.exists()


@pytest.mark.parametrize("d, code", [("2", 0), ("3", 2), ("4", 2)])
def test_sector_count_needs_the_plane(capsys, d, code):
    got, out, err = run(capsys, "count", "--d", d, "--alpha", "1/2", "--lambda", "10")
    assert got == code
    if code == 0:
        assert out == "lambda=10 value=4 rigor=certified-exact\n"
    else:
        assert err.startswith("error: --alpha") and out == ""


def test_certify_target_above_the_lambda_cap_exits_two(capsys):
    code, _, err = run(capsys, "certify", "--start", "3", "--target", "10001")
    assert code == 2
    assert err.startswith("error: target must be at most 10000")


_TOO_LONG = "1" + "0" * 100  # 10^100, one digit over the cap


@pytest.mark.parametrize("argv", [
    ("count", "--lambda", f"1/{_TOO_LONG}"),
    ("count", "--lambda", "1/" + "7" * 5000),  # past CPython's own int-string limit
    ("count", "--alpha", f"1/{_TOO_LONG}", "--lambda", "3"),
    ("certify", "--eps", f"1/{_TOO_LONG}"),
    ("certify", "--start", f"1/{_TOO_LONG}", "--target", "4"),
    ("certify", "--start", "3", "--target", f"1/{_TOO_LONG}"),
    ("oracle", "--step", f"1/{_TOO_LONG}"),
    ("plotdata", "--stop", f"1/{_TOO_LONG}"),
], ids=["count-lambda", "count-lambda-5000", "count-alpha", "certify-eps", "certify-start",
        "certify-target", "oracle-step", "plotdata-stop"])
def test_a_literal_of_more_than_a_hundred_digits_exits_three_before_any_work(capsys, monkeypatch, argv):
    # the cap of certificate fields; the literals sit in denominators, since a
    # huge lambda that got through would run without bound
    for name in ("count_weighted", "sector_lattice_bound", "certify", "gap_endpoints"):
        monkeypatch.setattr(cli, name, None)  # any work would raise
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "error: a p/q argument has a numerator or denominator of more than 100 digits\n"


def test_a_hundred_digit_denominator_is_accepted(capsys):
    lam = "1/1" + "0" * 99
    code, out, _ = run(capsys, "count", "--lambda", lam)
    assert (code, out) == (0, f"lambda={lam} value=0 rigor=certified-exact\n")


def test_main_called_repeatedly_matches_fresh_processes(capsys, monkeypatch, tmp_path):
    # one parser serves every call in a process: outputs, exit codes and
    # certificate bytes are those of a fresh `python -m polyacert.cli` each
    sequence = [
        ("count", "--lambda"),  # usage error
        ("--help",),
        ("certify", "-o", "c.json"),
        ("verify", "c.json"),
        ("count", "--kind", "N", "--lambda", "400"),
        ("certify", "--paper-range", "-o", "p.json"),
        ("verify", "p.json"),
    ]
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal width
    here, fresh = tmp_path / "in-process", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    cli._build_parser.cache_clear()
    results = []
    for argv in sequence:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in results] == [2, 0, 0, 0, 0, 0, 0]
    for argv, got in zip(sequence, results):
        proc = subprocess.run(
            [sys.executable, "-m", "polyacert.cli", *argv], cwd=fresh, capture_output=True, text=True,
            env=dict(_package_env(), COLUMNS="80"), timeout=120,
        )
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
    for name, digest in (("c.json", _GAP_SHA256), ("p.json", _PAPER_RANGE_SHA256)):
        assert _sha256(here / name) == _sha256(fresh / name) == digest


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # nor, after a small count, any process-pool machinery, which would
    # cost start-up time and memory; importing the package loads no submodule,
    # and importing the CLI builds no parser
    script = """
import sys, polyacert
print(sorted(name for name in sys.modules if name.startswith("polyacert.")))
import polyacert.cli
print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))
assert polyacert.cli._build_parser.cache_info().currsize == 0
assert polyacert.cli.main(["count", "--lambda", "20"]) == 0
print(sorted({'multiprocessing', 'concurrent.futures', 'concurrent'} & set(sys.modules)))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_package_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["[]", "[]"]
    assert lines[2].startswith("lambda=20 value=")
    assert lines[3] == "[]"


def test_certified_commands_do_not_import_scipy(tmp_path):
    # nor any other part of the float layer, or a process pool: the certified
    # results must not depend on it, and a stand-alone checker must run
    # without scipy
    script = """
import contextlib, io, sys, polyacert.cli
cert = sys.argv[1]
for argv in (["certify", "-o", cert], ["verify", cert], ["count", "--lambda", "400"],
             ["count", "--alpha", "1/2", "--lambda", "400"], ["count", "--d", "3", "--lambda", "50"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert polyacert.cli.main(argv) == 0, argv
print(sorted({'multiprocessing', 'concurrent.futures', 'concurrent'} & set(sys.modules)))
print(sorted({'polyacert.analysis', 'polyacert.bessel', 'scipy', 'numpy'} & set(sys.modules)))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "cert.json")],
        capture_output=True, text=True, env=_package_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"] * 2


class TestOracleCommand:
    def test_comparisons_hold(self, capsys):
        code, out, _ = run(capsys, "oracle", "--d", "2", "--lambda-max", "6")
        assert code == 0
        assert "consistent" in out

    def test_higher_dimension(self, capsys):
        code, out, _ = run(capsys, "oracle", "--d", "3", "--lambda-max", "5")
        assert code == 0

    def test_a_grid_of_more_than_ten_thousand_points_is_rejected_before_any_work(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "count_weighted", None)  # any count would raise
        code, out, err = run(capsys, "oracle", "--lambda-max", "1", "--step", "1/1000000000")
        assert code == 2
        assert out == ""
        assert err == "the grid has 1000000000 points; at most 10000 are allowed\n"
        code, out, err = run(capsys, "oracle", "--lambda-max", "10001", "--step", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("the grid has 10001 points")

    @pytest.mark.parametrize("argv, message", [
        (("--lambda-max", "250", "--step", "50"), "the eigenvalue counts need lambda-max <= 100\n"),
        (("--lambda-max", "1001/10", "--step", "1/10"), "the eigenvalue counts need lambda-max <= 100\n"),
        (("--d", "1"), "dimension must be >= 2, got --d 1\n"),
    ], ids=["past-range", "just-past-range", "d=1"])
    def test_an_unsupported_grid_is_rejected_before_any_output(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(cli, "count_weighted", None)  # any count would raise
        code, out, err = run(capsys, "oracle", *argv)
        assert (code, out, err) == (2, "", message)


class TestPlotdataCommand:
    def test_csv_shape_and_sign_pattern(self, capsys, tmp_path):
        path = tmp_path / "plot.csv"
        code, _, _ = run(capsys, "plotdata", "--stop", "15", "--step", "1/4", "-o", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("# non-certified")
        header = lines[1].split(",")
        assert header[0] == "lambda"
        excess = [float(row.split(",")[-1]) for row in lines[2:]]
        assert excess[0] < 0  # tiny lambda: count is zero, ratio below -0
        assert excess[-1] > 0  # large lambda: count exceeds the leading term

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "plotdata", "--stop", "2", "--step", "1/2")
        assert code == 0
        assert out.startswith("# non-certified")

    def test_a_grid_of_more_than_ten_thousand_points_is_rejected_before_any_work(self, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "count_weighted_oracle", None)  # any count would raise
        code, out, err = run(capsys, "plotdata", "--step", "1/1000000000", "--stop", "1")
        assert code == 2
        assert out == ""
        assert err == "the grid has 1000000000 points; at most 10000 are allowed\n"
        code, out, err = run(capsys, "plotdata", "--step", "100/10001", "--stop", "100")
        assert code == 2
        assert out == ""
        assert err.startswith("the grid has 10001 points")

    def test_a_grid_past_the_eigencount_range_is_rejected_before_any_output(self, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "count_weighted_oracle", None)  # any count would raise
        code, out, err = run(capsys, "plotdata", "--stop", "1001/10", "--step", "1/10")
        assert (code, out, err) == (2, "", "need 0 < step and 0 < stop <= 100\n")

    def test_the_last_grid_point_is_stop_itself(self, capsys):
        # 11 times the double nearest 100/11 is a double just above 100
        code, out, _ = run(capsys, "plotdata", "--stop", "100", "--step", "100/11")
        assert code == 0
        assert out.splitlines()[-1].startswith("100,")
