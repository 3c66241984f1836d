import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fockdict.fock import FockVector
from fockdict.report import SuiteConfig, run_suite
from fockdict.serialize import (
    matrix_from_csv,
    matrix_to_csv,
    vector_from_csv,
    vector_from_json,
    vector_to_csv,
    vector_to_json,
)


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "fockdict.cli", *args],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}")
    return proc


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def test_vector_json_round_trip():
    rng = np.random.default_rng(0)
    v = FockVector(rng.standard_normal(7) + 1j * rng.standard_normal(7))
    back = vector_from_json(vector_to_json(v), "fock")
    assert np.array_equal(back.coeffs, v.coeffs)


def test_vector_csv_round_trip_bit_exact():
    rng = np.random.default_rng(1)
    v = FockVector(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    back = vector_from_csv(vector_to_csv(v), "fock")
    assert np.array_equal(back.coeffs, v.coeffs)


def test_basis_vector_csv_rows():
    rows = vector_to_csv(FockVector.basis(2, 2)).strip().splitlines()
    assert rows == ["0,0,0", "1,0,0", "2,1,0"]


def test_matrix_csv_round_trip_bit_exact():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(matrix_from_csv(matrix_to_csv(m)), m)


# ----------------------------------------------------------------------
# Report contract
# ----------------------------------------------------------------------

def test_report_schema():
    rep = run_suite("fourier", SuiteConfig(degree=16))
    doc = json.loads(rep.to_json())
    assert set(doc) == {"suite", "config", "cases", "pass"}
    assert set(doc["config"]) == {"degree", "nodes", "seed"}
    for case in doc["cases"]:
        assert set(case) == {"id", "ref", "residual", "tolerance", "pass"}
        assert isinstance(case["residual"], float)
        assert case["pass"] == (case["residual"] <= case["tolerance"])
    ids = [c["id"] for c in doc["cases"]]
    assert ids == sorted(ids)


def test_report_determinism():
    a = run_suite("uncertainty", SuiteConfig(degree=32, seed=5)).to_json()
    b = run_suite("uncertainty", SuiteConfig(degree=32, seed=5)).to_json()
    assert a == b


def test_report_env_degree(monkeypatch):
    monkeypatch.setenv("FOCKDICT_DEGREE", "9")
    rep = run_suite("fourier", SuiteConfig())
    assert (rep.config.degree, rep.config.nodes) == (9, 64)


@pytest.mark.parametrize("degree", [1, 4, 8, 16, 24, 32])
def test_dilation_suite_passes_at_low_degree(degree):
    # the suite keeps output degree min(N, 32) but always the 128-node line rule
    assert run_suite("dilation", SuiteConfig(degree=degree)).passed


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------

def test_cli_bargmann_modes(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text(vector_to_json(FockVector.basis(1, 4)))
    out = run_cli("bargmann", "--input", str(path), "--mode", "coeff", "--degree", "6")
    coeffs = json.loads(out.stdout)
    assert coeffs[1] == [1.0, 0.0]
    out = run_cli("bargmann", "--input", str(path), "--mode", "quad", "--degree", "6")
    coeffs = json.loads(out.stdout)
    assert abs(complex(*coeffs[1]) - 1.0) < 1e-10


def test_cli_op_apply_and_verify(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text(vector_to_json(FockVector.basis(1, 4)))
    out = run_cli("op", "apply", "--op", "fourier", "--in", str(path), "--degree", "4")
    coeffs = json.loads(out.stdout)
    assert coeffs[1] == [0.0, 1.0]  # i * e_1
    out = run_cli("op", "verify", "--op", "commutator", "--degree", "16")
    doc = json.loads(out.stdout)
    assert all(entry["residual"] < 1e-12 for entry in doc)
    assert {entry["name"] for entry in doc} == {
        "derivative-multiplication", "line-pair-transport", "uncertainty-pair"
    }


def test_cli_gabor_density():
    out = run_cli("gabor", "density", "--lattice", "1,1", "--R", "10,30")
    doc = json.loads(out.stdout)
    assert abs(doc["lower_extrapolated"] - doc["cell_density"]) < 0.05 * doc["cell_density"]


def test_cli_uncertainty_chain(tmp_path):
    ext = tmp_path / "ext.json"
    run_cli("uncertainty", "extremal", "--c", "2.0", "--a", "0.5", "--b", "0.3",
            "--degree", "80", "--out", str(ext))
    out = run_cli("uncertainty", "--f", str(ext), "--a", "0.5", "--b", "0.3")
    doc = json.loads(out.stdout)
    assert abs(doc["gap"]) < 1e-9 * doc["rhs"]


def test_cli_quantize(tmp_path):
    out = run_cli("quantize", "toeplitz", "--m", "1", "--n", "1", "--degree", "3",
                  "--format", "csv")
    assert out.stdout.splitlines()[0] == "0,0,1,0"
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps({"terms": [[1, 1, 1.0, 0.0]]}))
    out = run_cli("quantize", "verify-weyl", "--symbol", str(sym), "--degree", "16")
    assert json.loads(out.stdout)["residual"] < 1e-8


def test_cli_singular_hilbert():
    out = run_cli("singular", "hilbert", "--degree", "24", "--check", "berezin")
    doc = json.loads(out.stdout)
    assert doc["difference"] < 1e-8


def test_cli_verify_exit_codes():
    ok = run_cli("verify", "fourier", "--degree", "16", check=False)
    assert ok.returncode == 0
    assert "PASS" in ok.stderr
    doc = json.loads(ok.stdout)
    assert doc["pass"] is True


def test_cli_write_failure_carries_path(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text(vector_to_json(FockVector.basis(1, 4)))
    proc = run_cli(
        "bargmann", "--input", str(path), "--mode", "coeff",
        "--out", "/nonexistent-dir/out.json", check=False,
    )
    assert proc.returncode != 0
    assert "/nonexistent-dir/out.json" in proc.stderr


def test_cli_env_degree(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text(vector_to_json(FockVector.basis(1, 2)))
    proc = subprocess.run(
        [sys.executable, "-m", "fockdict.cli", "bargmann", "--input", str(path),
         "--mode", "coeff"],
        capture_output=True,
        text=True,
        env={**os.environ, "FOCKDICT_DEGREE": "9"},
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)) == 10


@pytest.mark.parametrize("args", [
    ("op", "apply", "--op", "fourier", "--in", "{tmp}/bad.json"),
    ("quantize", "verify-weyl", "--symbol", "{tmp}/missing.json"),
    ("op", "apply", "--op", "weyl", "--params", "x,y", "--in", "{tmp}/e1.json"),
    ("bargmann", "--input", "{tmp}/e1.json", "--degree", "-3"),
    ("bargmann", "--input", "{tmp}/e1.json", "--nodes", "-1"),
    ("uncertainty", "extremal", "--c", "2", "--a", "0.3", "--b", "-0.2", "--degree", "40"),
    ("gabor", "density", "--lattice", "1,1", "--R", "0"),
    ("op", "apply", "--op", "fourier", "--in", "{tmp}/shape.json"),
    ("quantize", "verify-weyl", "--symbol", "{tmp}/noterms.json"),
    ("op", "apply", "--op", "fourier", "--in", "{tmp}/nan.json"),
], ids=["malformed-json", "missing-symbol", "bad-params", "negative-degree",
        "negative-nodes", "tail-certificate", "zero-radius", "wrong-shape-vector",
        "symbol-without-terms", "non-finite-vector"])
def test_cli_errors_are_one_line(tmp_path, args):
    (tmp_path / "bad.json").write_text("[[1.0, 0.0], ")
    (tmp_path / "shape.json").write_text("[1, 2]")
    (tmp_path / "noterms.json").write_text('{"x": 1}')
    (tmp_path / "nan.json").write_text("[[NaN, 0], [1, 0]]")
    (tmp_path / "e1.json").write_text(vector_to_json(FockVector.basis(1, 4)))
    proc = run_cli(*(a.format(tmp=tmp_path) for a in args), check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert ": error: " in proc.stderr.strip().splitlines()[-1]


@pytest.mark.parametrize("text, match", [
    ("0,1,0\n1,nan,0\n", "non-finite"),
    ("0,1,0\n1,0,-inf\n", "non-finite"),
    ("0,1,0\n1,2\n", "line 2 is not index,re,im"),
    ("0,1,0,5\n", "line 1 is not index,re,im"),
    ("0,1,x\n", "line 1 is not index,re,im"),
    ("0,1,0\n-1,0,0\n", "line 2 is not index,re,im with indices >= 0"),
    ("0,1,0\n2,0,0\n", "indices must be 0..1"),
    ("0,1,0\n0,2,0\n", "index twice"),
    ("\n\n", "no rows"),
])
def test_vector_csv_rejects_bad_rows(text, match):
    with pytest.raises(ValueError, match=match):
        vector_from_csv(text, "fock")


@pytest.mark.parametrize("text, match", [
    ("0,0,1,0\n0,1,inf,0\n", "non-finite"),
    ("0,0,1,0\n0,1,1\n", "line 2 is not row,col,re,im"),
    ("0,0,1,0,0\n", "line 1 is not row,col,re,im"),
    ("0,-1,1,0\n", "line 1 is not row,col,re,im with indices >= 0"),
    ("0,0,1,0\n0,0,2,0\n", "index twice"),
])
def test_matrix_csv_rejects_bad_rows(text, match):
    with pytest.raises(ValueError, match=match):
        matrix_from_csv(text)


def test_csv_readers_accept_any_row_order():
    v = vector_from_csv("1,2,0\n0,1,-1\n", "line")
    assert np.array_equal(v.coeffs, [1 - 1j, 2])
    m = matrix_from_csv("1,0,3,0\n0,1,0,1\n")
    assert np.array_equal(m, [[0, 1j], [3, 0]])
