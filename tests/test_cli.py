"""Command-line interface: dispatch, formats, exit codes, byte stability."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qproduct import asymptotics, characters, partitions, poly
from qproduct.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "cli_golden.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_csv(capsys):
    code, out, _ = run(capsys, "expand", "--s", "1", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "exponent,coefficient"
    assert len(lines) == 8
    assert lines[1] == "0,1" and lines[-1] == "6,-1"


def test_expand_json_decimal_strings(capsys):
    code, out, _ = run(capsys, "expand", "--s", "2", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "-2", "-1", "4", "-1", "-2", "1"]
    assert payload["degree"] == 6


def test_progsum_methods_agree(capsys):
    records = {}
    for method in ("oracle", "character", "trig"):
        code, out, _ = run(
            capsys, "progsum", "--s", "1", "--n", "4", "--N", "5", "--j", "0",
            "--method", method,
        )
        assert code == 0
        records[method] = json.loads(out)
    assert {r["value"] for r in records.values()} == {"4"}
    assert records["oracle"]["precision_bits"] == 0
    assert records["character"]["precision_bits"] >= 53
    assert set(records["oracle"]) >= {"s", "n", "N", "j", "value", "method", "precision_bits"}


def test_progsum_csv(capsys):
    code, out, _ = run(
        capsys, "progsum", "--s", "1", "--n", "4", "--N", "5", "--j", "1",
        "--format", "csv",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[:5] == ["s", "n", "N", "j", "value"]
    assert row.split(",")[4] == "-1"


def test_coeff(capsys):
    code, out, _ = run(capsys, "coeff", "--s", "1", "--n", "3", "--j", "6")
    assert code == 0
    assert json.loads(out)["value"] == "-1"


def test_coeff_character_method(capsys):
    code, out, _ = run(
        capsys, "coeff", "--s", "2", "--n", "3", "--j", "6", "--method", "character"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "character"
    assert payload["value"] == "-6"


def test_verify_main1_passes(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "main1", "--smax", "1", "--nmax", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["checks"][0]["label"] == "main1"
    assert payload["checks"][0]["cases"] == 2 + 3 + 4 + 5


def test_verify_jacobi_conventions(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorem", "jacobi", "--convention", "as-printed", "--max", "0"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["checks"][0]["failures"][0]["exponent"] == 0
    assert payload["checks"][0]["failures"] == [
        {"exponent": 0, "product": "1", "series": "-2"}
    ]
    assert payload["checks"][0]["failure_count"] == 1
    code, _, _ = run(
        capsys, "verify", "--theorem", "jacobi", "--convention", "standard", "--max", "12"
    )
    assert code == 0


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--smax", "1", "--nmax", "4")
    assert code == 0
    payload = json.loads(out)
    labels = [c["label"] for c in payload["checks"]]
    assert labels == [
        "main00", "main0000", "main000", "main0", "main1", "main00cor",
        "div1", "peak1", "tau", "maxpeak", "pentagonal", "jacobi", "hecke-rogers",
    ]
    assert [c["cases"] for c in payload["checks"]] == [
        107, 107, 11, 24, 14, 6, 2, 1, 14, 5, 5, 5, 5,
    ]
    assert payload["passed"] is True


def test_verify_maxpeak_fails_on_nan(capsys, monkeypatch):
    nan = asymptotics.SudlerConstant(value=math.nan, argmax_w=0.79, quadrature_error=0.0)
    monkeypatch.setattr(asymptotics, "sudler_constant", lambda: nan)
    code, out, _ = run(capsys, "verify", "--theorem", "maxpeak", "--smax", "1", "--nmax", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["checks"][0]["failures"][0]["check"] == "K"


def test_verify_reports_a_wrong_tau_value(capsys, monkeypatch):
    # a wrong closed form is one failed check in a full report, not exit 3
    closed_form = characters.closed_form_main1
    monkeypatch.setattr(
        characters, "closed_form_main1", lambda spec, j: closed_form(spec, j) + (spec.s == 24)
    )
    code, out, _ = run(capsys, "verify", "--all", "--smax", "2", "--nmax", "4")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert len(payload["checks"]) == 13 and [c["label"] for c in failed] == ["tau"]
    assert failed[0]["failure_count"] == failed[0]["cases"] == 14
    assert failed[0]["failures"][0] == {
        "n": 1, "j": 0, "expected": str(2**23), "got": str(2**23 + 1)
    }


@pytest.mark.parametrize(
    "label,expected,got", [("div1", "(-1, 1)", "(1, 1)"), ("peak1", "0", "1")]
)
def test_verify_corollaries_report_expected_and_got(capsys, monkeypatch, label, expected, got):
    # the table holds the readers themselves, so corrupt the expansion they read
    monkeypatch.setattr(
        characters,
        "expand_restricted_product",
        lambda spec: poly.IntPolynomial([1] * (spec.degree + 1)),
    )
    code, out, _ = run(capsys, "verify", "--theorem", label)
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["failure_count"] == check["cases"] > 0
    assert {k: check["failures"][0][k] for k in ("expected", "got")} == {
        "expected": expected, "got": got
    }


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: " ".join(e["argv"]))
def test_golden_reports(capsys, entry):
    # Reports recorded by perfbench/record_golden.py; every byte is pinned.
    code, out, _ = run(capsys, *entry["argv"])
    assert (code, out) == (entry["exit"], entry["stdout"])


def test_series_csv(capsys):
    code, out, _ = run(capsys, "series", "--name", "pentagonal", "--max", "5",
                       "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == [
        "exponent,coefficient", "0,1", "1,-1", "2,-1", "5,1",
    ]


def test_series_json_jacobi(capsys):
    code, out, _ = run(capsys, "series", "--name", "jacobi", "--max", "3",
                       "--convention", "standard")
    assert code == 0
    payload = json.loads(out)
    assert payload["convention"] == "standard"
    assert payload["terms"][-1] == {"exponent": 3, "coefficient": "5"}


def test_tau_rows(capsys):
    code, out, _ = run(capsys, "tau", "--n", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["value"] == str(2 * 3**23)
    assert rows[1]["value"] == str(-(3**23))


def test_kconst(capsys):
    code, out, _ = run(capsys, "kconst")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - payload["K_ref"]) < 5e-5


def test_maxfit(capsys):
    code, out, _ = run(capsys, "maxfit", "--s", "1", "--nmin", "40", "--nmax", "60",
                       "--step", "10")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["slope_over_s"] - payload["K_ref"]) < 0.05


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "verify", "--theorem", "nonsense")[0] == 2
    assert run(capsys, "expand", "--s", "1")[0] == 2
    assert run(capsys, "nosuchcommand")[0] == 2
    # domain errors surface as usage errors too
    code, _, err = run(capsys, "progsum", "--s", "1", "--n", "3", "--N", "4", "--j", "9")
    assert code == 2 and "residue" in err
    code, _, _ = run(capsys, "verify", "--smax", "1", "--nmax", "2")  # no theorem, no --all
    assert code == 2
    # empty bounds would report a vacuous pass
    code, _, err = run(capsys, "verify", "--theorem", "main00", "--smax", "2", "--nmax", "0")
    assert code == 2 and "--nmax" in err
    assert run(capsys, "verify", "--all", "--smax", "0")[0] == 2
    assert run(capsys, "series", "--name", "bogus", "--max", "5")[0] == 2


def test_resource_error_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("QPRODUCT_COEFF_CAP", "16")
    code, _, err = run(capsys, "expand", "--s", "1", "--n", "10")
    assert code == 3
    assert "cap" in err


def test_verify_series_checks_the_cap_before_densifying(capsys, monkeypatch):
    # a --max above the cap exits 3 without building the dense series vector
    monkeypatch.setenv("QPRODUCT_COEFF_CAP", "1000")
    densified = []
    monkeypatch.setattr(
        partitions, "series_to_coeffs", lambda terms, limit: densified.append(limit) or []
    )
    for name, message in [
        ("pentagonal", "expansion needs"),
        ("jacobi", "expansion needs"),
        ("hecke-rogers", "series needs 30000001 coefficients, cap is 1000"),
    ]:
        code, _, err = run(capsys, "verify", "--theorem", name, "--max", "30000000")
        assert code == 3 and message in err
    assert densified == []


def test_precision_error_exit_3(capsys):
    code, _, err = run(
        capsys, "progsum", "--s", "4000", "--n", "1", "--N", "3", "--j", "0",
        "--method", "character",
    )
    assert code == 3
    assert "certified" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "expand", "--s", "1", "--n", "2", "--format", "json",
                       "-o", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["coefficients"] == ["1", "-1", "-1", "1"]


def test_output_is_byte_stable(capsys):
    first = run(capsys, "verify", "--theorem", "main00", "--smax", "1", "--nmax", "3")
    second = run(capsys, "verify", "--theorem", "main00", "--smax", "1", "--nmax", "3")
    assert first == second
    a = run(capsys, "kconst")[1]
    b = run(capsys, "kconst")[1]
    assert a == b


@pytest.mark.parametrize(
    "argv,loads_scipy",
    [
        (None, False),
        (["expand", "--s", "2", "--n", "12"], False),
        (["progsum", "--s", "5", "--n", "20", "--N", "31", "--j", "7",
          "--method", "character"], False),
        (["verify", "--theorem", "jacobi"], False),
        (["kconst"], True),
    ],
)
def test_scipy_loads_only_for_k(argv, loads_scipy):
    # A fresh interpreter: this process may already hold scipy from other tests.
    script = "import sys, qproduct\ncode = 0\n"
    if argv is not None:
        script += f"from qproduct.cli import main\ncode = main({argv!r})\n"
    script += 'print(code, "scipy" in sys.modules)\n'
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == f"0 {loads_scipy}"
