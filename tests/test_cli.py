"""End-to-end tests of the command-line interface via its main() entry point."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyacert
from polyacert.certify import certify
from polyacert.cli import main


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

    def test_default_range_is_computed_gap(self, capsys):
        code, out, _ = run(capsys, "certify")
        assert code == 0
        assert "[45/13, 2079/155]" in out

    def test_coarse_eps_exits_two(self, capsys):
        code, _, err = run(capsys, "certify", "--paper-range", "--eps", "1/2")
        assert code == 2
        assert "failed" in err or "error" in err

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
        assert "coverage: start=fail, target=fail" in out
        assert "NOT verified" in err

    def test_huge_lambda_exits_three_before_any_count(self, certificate_path):
        # the count at lambda has O(lambda) terms: at 10**9 it would run for hours
        payload = json.loads(certificate_path.read_text())
        payload["steps"][0]["lambda"] = str(10**9)
        certificate_path.write_text(json.dumps(payload))
        script = """
import sys, time
from polyacert.cli import main
t0 = time.perf_counter()
code = main(["verify", sys.argv[1]])
print(code, time.perf_counter() - t0)
"""
        proc = subprocess.run(
            [sys.executable, "-c", script, str(certificate_path)],
            capture_output=True, text=True, env=_package_env(), timeout=60,
        )
        code, seconds = proc.stdout.split()
        assert code == "3", proc.stderr
        assert float(seconds) < 2
        assert "lambda must be at most 10000" in proc.stderr

    def test_negative_lambda_exits_three(self, capsys, certificate_path):
        payload = json.loads(certificate_path.read_text())
        payload["steps"][0]["lambda"] = "-1"
        certificate_path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", str(certificate_path))
        assert code == 3
        assert out == ""
        assert "lambda must be non-negative, got -1" in err

    def test_truncated_file_exits_three(self, capsys, certificate_path):
        certificate_path.write_text(certificate_path.read_text()[:40])
        code, _, err = run(capsys, "verify", str(certificate_path))
        assert code == 3

    def test_missing_file_exits_three(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 3


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


@pytest.mark.parametrize("argv", [
    ("count", "--lambda", "5", "--eps", "0"),
    ("certify", "--eps", "0"),
    ("verify", "{cert}", "--eps", "0"),
    ("certify", "--start", "5", "--target", "4"),
], ids=["count-eps", "certify-eps", "verify-eps", "certify-range"])
def test_out_of_domain_arguments_exit_two_with_a_message(capsys, tmp_path, argv):
    cert = tmp_path / "cert.json"
    certify(3, 4).dump(cert)
    code, _, err = run(capsys, *(arg.format(cert=cert) for arg in argv))
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _package_env() -> dict:
    src = str(Path(polyacert.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize("argv, digest", [
    (("--paper-range",), "8e95354af793fb6c714f8871ce736b1c290fdfb5e5ca0b5d98614d3cbb654b81"),
    ((), "2b19b82e238fe8078eae0aff1867a48e48ab13d739816c6f352f3806a4e2fd8d"),
], ids=["paper-range", "gap"])
def test_default_certificates_keep_their_bytes(capsys, tmp_path, argv, digest):
    path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", *argv, "-o", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_certify_target_above_the_lambda_cap_exits_two(capsys):
    code, _, err = run(capsys, "certify", "--start", "3", "--target", "10001")
    assert code == 2
    assert err.startswith("error: target must be at most 10000")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # nor, after a small count, any process-pool machinery, which would
    # cost start-up time and memory
    script = """
import sys, polyacert.cli
print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))
assert polyacert.cli.main(["count", "--lambda", "20"]) == 0
print(sorted({'multiprocessing', 'concurrent.futures', 'concurrent'} & set(sys.modules)))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_package_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[1].startswith("lambda=20 value=")
    assert lines[2] == "[]"


def test_certified_commands_do_not_import_scipy(tmp_path):
    script = """
import sys
from polyacert import cli
cert = sys.argv[1]
assert cli.main(["count", "--lambda", "20"]) == 0
assert cli.main(["count", "--lambda", "9", "--alpha", "1/2"]) == 0
assert cli.main(["certify", "--start", "3", "--target", "4", "-o", cert]) == 0
assert cli.main(["verify", cert]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "cert.json")],
        capture_output=True, text=True, env=_package_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


class TestOracleCommand:
    def test_comparisons_hold(self, capsys):
        code, out, _ = run(capsys, "oracle", "--d", "2", "--lambda-max", "6")
        assert code == 0
        assert "consistent" in out

    def test_higher_dimension(self, capsys):
        code, out, _ = run(capsys, "oracle", "--d", "3", "--lambda-max", "5")
        assert code == 0


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
