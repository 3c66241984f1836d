import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from fockdict import cli
from fockdict import gabor as gb
from fockdict import operators as op
from fockdict.bargmann import bargmann_coeff
from fockdict.errors import AccuracyWarning
from fockdict.fock import FockVector, resolved_radius
from fockdict.hermite import LineVector
from fockdict.report import SUITE_NAMES, SuiteConfig, run_suite
from fockdict.serialize import (
    matrix_to_csv,
    matrix_to_json,
    vector_from_json,
    vector_to_csv,
    vector_to_json,
)
from fockdict.singular import fock_norm_A

README = Path(__file__).resolve().parents[1] / "README.md"
# the CLI subprocesses import the package from this checkout, as the tests do
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(README.parent / "src"), os.environ.get("PYTHONPATH")]))}


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "fockdict.cli", *args],
        capture_output=True,
        text=True,
        env=ENV,
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


@pytest.mark.parametrize("text", ["[[true, false]]", "[[true, 0.0]]", "[[1.0, false]]"])
def test_vector_json_refuses_boolean_coefficients(text):
    # complex() reads true as 1, so [[true, false]] was e_0
    with pytest.raises(ValueError, match="number pairs"):
        vector_from_json(text, "fock")


def test_vector_csv_round_trip_bit_exact():
    rng = np.random.default_rng(1)
    v = FockVector(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    rows = [line.split(",") for line in vector_to_csv(v).splitlines()]
    assert [int(i) for i, _, _ in rows] == list(range(9))
    assert np.array_equal([complex(float(re), float(im)) for _, re, im in rows], v.coeffs)


def test_basis_vector_csv_rows():
    rows = vector_to_csv(FockVector.basis(2, 2)).strip().splitlines()
    assert rows == ["0,0,0", "1,0,0", "2,1,0"]


def test_matrix_csv_round_trip_bit_exact():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rows = [line.split(",") for line in matrix_to_csv(m).splitlines()]
    assert [(int(r), int(c)) for r, c, _, _ in rows] == [(r, c) for r in range(4) for c in range(4)]
    back = np.array([complex(float(re), float(im)) for _, _, re, im in rows]).reshape(4, 4)
    assert np.array_equal(back, m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("writer", [vector_to_json, vector_to_csv, matrix_to_json, matrix_to_csv])
def test_writers_refuse_non_finite(writer, bad):
    values = np.ones((3, 3), dtype=complex)
    values[1, 2] = bad
    if writer in (vector_to_json, vector_to_csv):
        values = values[1]
    # one rule and one text for all four writers, which the CLI prints as its error line
    with pytest.raises(ValueError, match="^output has a non-finite coefficient$"):
        writer(values)


# ----------------------------------------------------------------------
# Report contract
# ----------------------------------------------------------------------

def test_report_schema():
    rep = run_suite("fourier", SuiteConfig(degree=16))
    doc = json.loads(rep.to_json())
    assert set(doc) == {"suite", "config", "cases", "pass"}
    assert set(doc["config"]) == {"degree", "seed"}
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
    config = json.loads(run_suite("fourier", SuiteConfig()).to_json())["config"]
    assert config["degree"] == 9


@pytest.mark.parametrize("degree", [1, 4, 8, 16, 24, 32, 64, 512, 2000])
def test_dilation_suite_passes_at_low_degree(degree):
    assert run_suite("dilation", SuiteConfig(degree=degree)).passed


def test_dilation_suite_checks_the_requested_degree(monkeypatch):
    # a block wrong only in rows or columns above 32 fails every case at degree 64
    exact = op.dilation_matrix

    def corrupted(r, degree, input_degree=None):
        entries = exact(r, degree, input_degree).entries.copy()
        entries[33:, :] += 1e-6
        entries[:, 33:] += 1e-6
        return op.OperatorMatrix(entries)

    monkeypatch.setattr(op, "dilation_matrix", corrupted)
    rep = run_suite("dilation", SuiteConfig(64))
    assert not rep.passed
    assert not any(c.passed for c in rep.cases)


def test_hilbert_suite_passes_at_degree_256():
    # h5 integrates on the suite's own 512-node rule for exp(-2x^2); a
    # 192-node rule for exp(-x^2) missed the 1e-10 contract from about degree 210
    assert run_suite("hilbert", SuiteConfig(degree=256)).passed


@pytest.mark.parametrize("degree", [31, 32, 33, 64, 128, 256, 320, 512])
def test_line_rule_cases_hold_across_degrees(degree):
    # h5 sums on product_rule(max(2N, N + 48)), w5 on product_rule(max(N + 1, 64)),
    # both at most 728 nodes; on 2N nodes alone h5 read 1.4e-10 at degree 31,
    # and on the 256-node cap of the exp(-x^2) rule both failed at degree 512
    cases = {c.id: c for suite in ("hilbert", "weyl") for c in run_suite(suite, SuiteConfig(degree)).cases}
    for cid in ("h5-principal-value-oracle", "w5-shift-modulation-dictionary"):
        assert cases[cid].passed and cases[cid].residual <= 1e-13, (cid, cases[cid].residual)


@pytest.mark.parametrize("degree", [178, 180, 200, 256])
def test_weyl_suite_passes_at_high_degree(degree):
    assert run_suite("weyl", SuiteConfig(degree=degree)).passed


def test_weyl_suite_fails_honestly_without_an_interior_block():
    # at degree 8 column 0 of W_{0.5} already loses 1e-11 > 1e-12 of its
    # mass, so no block keeps the contracts: w3/w4 fail with residual 1
    proc = run_cli("verify", "weyl", "--degree", "8", check=False)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    cases = {c["id"]: c for c in json.loads(proc.stdout)["cases"]}
    for cid in ("w3-unitarity-interior", "w4-composition"):
        assert not cases[cid]["pass"] and cases[cid]["residual"] == 1.0


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------

def test_cli_bargmann_modes(tmp_path):
    # one path, the exact map h_n -> e_n of the padded or cut input; --mode is
    # a usage error (test_cli_errors_are_one_line)
    path = tmp_path / "e1.json"
    path.write_text(vector_to_json(FockVector.basis(1, 4)))
    out = run_cli("bargmann", "--input", str(path), "--degree", "6")
    coeffs = json.loads(out.stdout)
    assert coeffs[1] == [1.0, 0.0]
    assert out.stdout == vector_to_json(bargmann_coeff(LineVector.basis(1, 6))) + "\n"
    out = run_cli("bargmann", "--input", str(path), "--degree", "2", "--format", "csv")
    assert out.stdout == vector_to_csv(bargmann_coeff(LineVector.basis(1, 2)))


def test_cli_op_apply(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text(vector_to_json(FockVector.basis(1, 4)))
    out = run_cli("op", "apply", "--op", "fourier", "--in", str(path), "--degree", "4")
    coeffs = json.loads(out.stdout)
    assert coeffs[1] == [0.0, 1.0]  # i * e_1


def test_cli_gabor_density():
    out = run_cli("gabor", "density", "--lattice", "1,1", "--R", "10,30")
    doc = json.loads(out.stdout)
    assert abs(doc["lower_extrapolated"] - doc["cell_density"]) < 0.05 * doc["cell_density"]


def test_cli_uncertainty_chain(tmp_path):
    ext = tmp_path / "ext.json"
    run_cli("uncertainty", "extremal", "--c", "2.0", "--a", "0.5", "--b", "0.3",
            "--degree", "80", "--out", str(ext))
    out = run_cli("uncertainty", "product", "--f", str(ext), "--a", "0.5", "--b", "0.3")
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
    # a cubic symbol: the Weyl check has no degree cap
    sym.write_text(json.dumps({"terms": [[1, 1, 1.0, 0.0], [2, 1, 0.5, -0.5]]}))
    out = run_cli("quantize", "verify-weyl", "--symbol", str(sym), "--degree", "32")
    assert json.loads(out.stdout)["residual"] < 1e-8


def test_cli_quantize_verify_exits_1_on_a_miss(tmp_path, monkeypatch, capsys):
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps({"terms": [[1, 1, 1.0, 0.0]]}))
    monkeypatch.setattr(cli.qz, "anti_wick_toeplitz_residual", lambda sigma, degree: 1.0)
    assert cli.main(["quantize", "verify-anti-wick", "--symbol", str(sym), "--degree", "16"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False and doc["tolerance"] == 1e-12


def test_cli_quantize_verify_residual_is_relative(tmp_path):
    # 1 + 3|z|^4 at degree 128: entries reach 4.7e4, so the absolute residual
    # (1.1e-11) would miss 1e-12 while the relative one is at rounding level
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps({"terms": [[0, 0, 1.0, 0.0], [2, 2, 3.0, 0.0]]}))
    doc = json.loads(run_cli("quantize", "verify-anti-wick", "--symbol", str(sym),
                             "--degree", "128").stdout)
    assert doc["pass"] is True and doc["residual"] <= 1e-15
    doc = json.loads(run_cli("quantize", "verify-weyl", "--symbol", str(sym),
                             "--degree", "128").stdout)
    assert doc["pass"] is True and doc["tolerance"] == 1e-8


@pytest.mark.parametrize("lattice", ["0.8,0.8", "0.5,0.5", "0.9,0.9", "1.1,1.1", "0.7,0.3", "2,0.4"])
def test_cli_frame_bounds_clip_is_resolved(lattice, capsys):
    # the clip keeps exactly the points whose kernels are resolved at N
    for degree in (16, 32, 64):
        assert cli.main(["gabor", "frame-bounds", "--lattice", lattice, "--degree", str(degree)]) == 0
        assert json.loads(capsys.readouterr().out)["points"] >= 1


def test_cli_singular_hilbert():
    out = run_cli("singular", "hilbert", "--degree", "24", "--check", "berezin")
    doc = json.loads(out.stdout)
    assert doc["difference"] < 1e-8


def test_cli_hilbert_norm_tail_is_what_the_series_misses():
    doc = json.loads(run_cli("singular", "hilbert", "--degree", "24", "--check", "norm").stdout)
    assert doc["antiderivative_norm_sq_series"] == fock_norm_A(200)
    assert doc["series_tail_estimate"] == math.pi / 4.0 - fock_norm_A(200)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_cli_frame_bounds_default_core_at_low_degree(degree, capsys):
    # the core, degree/8 but at least 2, is clamped to the largest valid
    # core, degree/2; degree 1 has no valid core and stays a usage error
    argv = ["gabor", "frame-bounds", "--lattice", "1,1", "--degree", str(degree)]
    if degree == 1:
        assert cli.main(argv) == 2
        assert (capsys.readouterr().err == "fockdict: error: frame bounds need degree >= 2, "
                "because degree 1 has no core in 1..degree/2\n")
        return
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["core"] == min(2, degree // 2) == gb.frame_core(degree)
    Z = gb.PointSet.rectangular(1.0, 1.0).clip_to_disk(resolved_radius(degree))
    assert (doc["lower"], doc["upper"]) == gb.frame_bounds_finite(Z, degree)


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
        "bargmann", "--input", str(path),
        "--out", "/nonexistent-dir/out.json", check=False,
    )
    assert proc.returncode != 0
    assert "/nonexistent-dir/out.json" in proc.stderr


def test_cli_env_degree(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text(vector_to_json(FockVector.basis(1, 2)))
    proc = subprocess.run(
        [sys.executable, "-m", "fockdict.cli", "bargmann", "--input", str(path)],
        capture_output=True,
        text=True,
        env={**ENV, "FOCKDICT_DEGREE": "9"},
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)) == 10


@pytest.mark.parametrize("args", [
    ("op", "apply", "--op", "fourier", "--in", "{tmp}/bad.json"),
    ("quantize", "verify-weyl", "--symbol", "{tmp}/missing.json"),
    ("op", "apply", "--op", "weyl", "--params", "x,y", "--in", "{tmp}/e1.json"),
    ("bargmann", "--input", "{tmp}/e1.json", "--degree", "-3"),
    ("bargmann", "--input", "{tmp}/e1.json", "--degree", "0"),
    ("uncertainty", "extremal", "--c", "2", "--a", "0.3", "--b", "-0.2", "--degree", "40"),
    ("gabor", "density", "--lattice", "1,1", "--R", "0"),
    ("op", "apply", "--op", "fourier", "--in", "{tmp}/shape.json"),
    ("quantize", "verify-weyl", "--symbol", "{tmp}/noterms.json"),
    ("op", "apply", "--op", "fourier", "--in", "{tmp}/nan.json"),
    ("op", "apply", "--op", "weyl", "--params", "nan,0", "--in", "{tmp}/e1.json",
     "--degree", "4"),
    ("op", "apply", "--op", "rotate", "--params", "inf", "--in", "{tmp}/e1.json",
     "--degree", "4"),
    ("op", "apply", "--op", "dilate", "--params", "nan", "--in", "{tmp}/e1.json",
     "--degree", "4"),
    ("gabor", "predicate", "--lattice", "0.001,0.001"),
    ("op", "verify", "--op", "commutator"),
    ("singular", "hilbert", "--format", "csv"),
    ("uncertainty", "product", "--f", "{tmp}/e1.json", "--format", "csv"),
    ("verify", "all", "--nodes", "128"),
    ("gabor", "predicate", "--lattice", "1,1", "--seed", "7"),
    ("gabor", "frame-bounds", "--lattice", "0.8,0.8", "--degree", "80", "--core", "10"),
    ("uncertainty", "extremal", "--c", "nan"),
    ("uncertainty", "extremal", "--a", "nan"),
    ("uncertainty", "product", "--f", "{tmp}/e1.json", "--a", "inf"),
    ("gabor", "predicate", "--lattice", "inf,1"),
    ("gabor", "predicate", "--lattice", "1e200,1e200"),
    ("gabor", "density", "--lattice", "1,1", "--R", "1e300"),
    ("uncertainty", "product", "--f", "{tmp}/e1.json", "--a", "1e308"),
    ("uncertainty", "extremal", "--b", "1e308"),
    ("singular", "hilbert", "--phi", "{tmp}/e1.json"),
    ("singular", "hilbert", "--format", "json"),
    ("singular", "apply", "--phi", "{tmp}/e1.json", "--in", "{tmp}/e1.json", "--check", "norm"),
    ("uncertainty", "extremal", "--c", "2", "--f", "{tmp}/e1.json"),
    ("uncertainty", "product", "--f", "{tmp}/e1.json", "--c", "2"),
    ("op", "apply", "--op", "fourier", "--params", "1", "--in", "{tmp}/e1.json"),
    ("bargmann", "--input", "{tmp}/e1.json", "--mode", "quad"),
    ("bargmann", "--input", "{tmp}/e1.json", "--mode", "coeff"),
    ("op", "apply", "--op", "weyl", "--params", "1e300,0", "--in", "{tmp}/e1.json",
     "--degree", "8"),
    ("singular", "apply", "--phi", "{tmp}/huge.json", "--in", "{tmp}/e1.json", "--degree", "4"),
    ("quantize", "verify-anti-wick", "--symbol", "{tmp}/fraction-power.json", "--degree", "8"),
    ("quantize", "verify-anti-wick", "--symbol", "{tmp}/boolean-power.json", "--degree", "8"),
    ("quantize", "verify-weyl", "--symbol", "{tmp}/boolean-coefficient.json", "--degree", "8"),
    ("op", "apply", "--op", "fourier", "--in", "{tmp}/boolean.json"),
], ids=["malformed-json", "missing-symbol", "bad-params", "negative-degree",
        "zero-degree", "tail-certificate", "zero-radius", "wrong-shape-vector",
        "symbol-without-terms", "non-finite-vector",
        "non-finite-weyl-params", "non-finite-rotate-params",
        "non-finite-dilate-params", "huge-lattice-disk", "removed-op-verify", "hilbert-object-as-csv",
        "uncertainty-object-as-csv", "removed-nodes", "option-the-command-does-not-read",
        "removed-core", "nan-extremal-c", "nan-extremal-a", "infinite-product-a",
        "infinite-lattice-step", "overflowing-cell-area", "overflowing-disk-area",
        "overflowing-product", "overflowing-extremal", "hilbert-takes-no-phi",
        "hilbert-takes-no-format", "apply-takes-no-check", "extremal-takes-no-f",
        "product-takes-no-c", "fourier-takes-no-params", "bargmann-takes-no-mode-quad",
        "bargmann-takes-no-mode-coeff", "weyl-beyond-double-range", "symbol-beyond-double-range",
        "fractional-symbol-power", "boolean-symbol-power", "boolean-symbol-coefficient",
        "boolean-vector-coefficient"])
def test_cli_errors_are_one_line(tmp_path, args, request):
    (tmp_path / "bad.json").write_text("[[1.0, 0.0], ")
    (tmp_path / "shape.json").write_text("[1, 2]")
    (tmp_path / "noterms.json").write_text('{"x": 1}')
    (tmp_path / "nan.json").write_text("[[NaN, 0], [1, 0]]")
    (tmp_path / "e1.json").write_text(vector_to_json(FockVector.basis(1, 4)))
    (tmp_path / "huge.json").write_text(json.dumps([[1e307, 0.0]] * 9))
    (tmp_path / "fraction-power.json").write_text('{"terms": [[1.7, 1, 1, 0]]}')
    (tmp_path / "boolean-power.json").write_text('{"terms": [[true, 1, 1, 0]]}')
    (tmp_path / "boolean-coefficient.json").write_text('{"terms": [[1, 1, true, 0]]}')
    (tmp_path / "boolean.json").write_text("[[true, false]]")
    proc = run_cli(*(a.format(tmp=tmp_path) for a in args), check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert ": error: " in proc.stderr.strip().splitlines()[-1]
    assert sum("error:" in line for line in proc.stderr.splitlines()) == 1
    assert "Warning" not in proc.stderr
    option = _REFUSED_OPTION.get(request.node.callspec.id)
    if option:
        assert f"argument {option}: " in proc.stderr.splitlines()[-1]


# the cases above refused up front, by the option whose value is out of range
_REFUSED_OPTION = {"nan-extremal-c": "--c", "nan-extremal-a": "--a", "infinite-product-a": "--a",
                   "infinite-lattice-step": "--lattice", "overflowing-cell-area": "--lattice",
                   "overflowing-disk-area": "--R", "bad-params": "--params",
                   "non-finite-weyl-params": "--params", "non-finite-rotate-params": "--params",
                   "non-finite-dilate-params": "--params"}


@pytest.mark.parametrize("value", ["0", "-3", "abc"])
def test_cli_degree_error_names_the_check(value):
    proc = run_cli("verify", "all", "--degree", value, check=False)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].endswith(
        f"argument --degree: degree must be an integer >= 1, got {value!r}")


def test_cli_uncertainty_product_reads_the_degree(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "f.json"
    path.write_text(vector_to_json(rng.standard_normal(21) + 1j * rng.standard_normal(21)))
    docs = {deg: json.loads(run_cli("uncertainty", "product", "--f", str(path), "--a", "0.5",
                                    "--b", "0.3", "--degree", deg).stdout)
            for deg in ("1", "20", "40")}
    assert docs["1"]["rhs"] != docs["20"]["rhs"]
    assert docs["20"] == docs["40"]  # padding with zeros changes nothing


@pytest.mark.parametrize("value", ["0", "-3", "abc"])
def test_cli_env_degree_must_be_a_positive_integer(value):
    proc = subprocess.run(
        [sys.executable, "-m", "fockdict.cli", "verify", "all"],
        capture_output=True,
        text=True,
        env={**ENV, "FOCKDICT_DEGREE": value},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"fockdict: error: FOCKDICT_DEGREE must be an integer >= 1, got {value!r}"]


@pytest.mark.parametrize("theta", ["1e308", "12345.678", repr(math.pi * 1e15), "-3.3e7"])
def test_cli_rotate_by_a_large_angle_is_accurate(tmp_path, theta):
    # the angle is reduced before it multiplies the index, so every phase
    # e^{i n theta} (theta taken exactly) is right to about n units of pi's
    # rounding, against 60-digit mpmath
    rng = np.random.default_rng(64)
    c = rng.standard_normal(65) + 1j * rng.standard_normal(65)
    path = tmp_path / "f.json"
    path.write_text(vector_to_json(c))
    proc = run_cli("op", "apply", "--op", "rotate", f"--params={theta}", "--in", str(path))
    assert proc.stderr == ""
    got = np.array([complex(re, im) for re, im in json.loads(proc.stdout)])
    with mpmath.workdps(60):
        t = mpmath.mpf(float(theta))
        want = np.array([complex(mpmath.expj(n * t) * mpmath.mpc(z.real, z.imag)) for n, z in enumerate(c)])
    assert np.max(np.abs(got - want) / np.abs(c)) <= 1e-13


def test_cli_warning_is_one_line(tmp_path):
    # an AccuracyWarning that is only shown is one stderr line, without the
    # file, line number and source line of the default format, and the call
    # still writes its output and exits 0
    path = tmp_path / "f.json"
    path.write_text(vector_to_json(FockVector([1.0, 0.5])))
    args = ("op", "apply", "--op", "weyl", "--params", "0.5,0", "--degree", "2", "--in", str(path))
    proc = run_cli(*args)
    assert proc.stderr.splitlines() == [
        "fockdict: warning: weyl displacement |a|=0.5 poorly resolved at degree 2"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        want = vector_to_json(op.weyl_matrix(0.5, 2, 1).apply(FockVector([1.0, 0.5, 0.0])))
    assert proc.stdout == want + "\n"


def test_cli_warning_raised_as_error_is_one_line():
    # at degree 8 the Weyl builder warns; under -W error the warning is an
    # exception, which the CLI reports as one error line instead of a traceback
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "fockdict.cli", "verify", "all", "--degree", "8",
         "--seed", "0"],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "fockdict: error: weyl displacement |a|=1.07 poorly resolved at degree 8"]


def test_cli_dilate_keeps_the_input_and_the_output_degree(tmp_path, capsys, exact_dilation):
    # a degree-20 input, output at --degree 64, against the exact line dilation
    rng = np.random.default_rng(21)
    c = rng.standard_normal(21) + 1j * rng.standard_normal(21)
    path = tmp_path / "f.json"
    path.write_text(vector_to_json(c))
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        code = cli.main(["op", "apply", "--op", "dilate", "--params", "2.0",
                         "--degree", "64", "--in", str(path)])
    out, err = capsys.readouterr()
    assert code == 0
    assert err == ""
    got = np.array([complex(re, im) for re, im in json.loads(out)])
    assert got.shape == (65,)
    want = sum(c[n] * exact_dilation(2.0, n, 64) for n in range(21))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_cli_dilate_takes_inputs_past_the_plane_rule(tmp_path, capsys, exact_dilation):
    # 66 coefficients at --degree 128: past the 64 x 64 plane rule, well inside
    # the 256-node line rule (65 + 128 < 512)
    path = tmp_path / "wide.json"
    path.write_text(vector_to_json(np.ones(66)))
    code = cli.main(["op", "apply", "--op", "dilate", "--params", "2.0",
                     "--degree", "128", "--in", str(path)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    got = np.array([complex(re, im) for re, im in json.loads(out)])
    want = sum(exact_dilation(2.0, n, 128) for n in range(66))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_cli_dilate_runs_at_degree_512(tmp_path, capsys):
    # input plus output degree 513: refused while dilation used a 256-node line rule
    path = tmp_path / "e1.json"
    path.write_text(vector_to_json(FockVector.basis(1, 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["op", "apply", "--op", "dilate", "--params", "2.0",
                         "--degree", "512", "--in", str(path)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    got = np.array([complex(re, im) for re, im in json.loads(out)])
    want = op.dilation_matrix(2.0, 512, 1).apply(FockVector.basis(1, 512)).coeffs
    assert np.array_equal(got, want)


def test_cli_dilate_ignores_trailing_zeros(tmp_path, capsys, exact_dilation):
    # e_0 as every fockdict command writes it at --degree 100: 101 coefficients,
    # of degree 0 in content, so within the 64-node plane rule
    path = tmp_path / "e0.json"
    path.write_text(vector_to_json(FockVector.basis(0, 100)))
    code = cli.main(["op", "apply", "--op", "dilate", "--params", "2.0",
                     "--degree", "100", "--in", str(path)])
    out, _ = capsys.readouterr()
    assert code == 0
    got = np.array([complex(re, im) for re, im in json.loads(out)])
    assert np.max(np.abs(got - exact_dilation(2.0, 0, 100))) <= 1e-12


def test_cli_weyl_takes_the_input_at_its_own_degree(tmp_path, capsys):
    # e_20 written at degree 60 and applied at --degree 200: trailing zeros are
    # dropped, and the output is the full matrix's, bit for bit
    path = tmp_path / "e20.json"
    path.write_text(vector_to_json(FockVector.basis(20, 60)))
    code = cli.main(["op", "apply", "--op", "weyl", "--params", "0.7,-0.4",
                     "--degree", "200", "--in", str(path)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    got = np.array([complex(re, im) for re, im in json.loads(out)])
    want = cli.op.weyl_matrix(0.7 - 0.4j, 200).entries[:, 20]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name, dense", [("a1", op.a1_matrix), ("a2", op.a2_matrix)])
@pytest.mark.parametrize("N", [1, 2, 8, 200])
def test_cli_a1_a2_match_the_dense_matrices(tmp_path, capsys, name, dense, N):
    # a1 and a2 are applied by index shifts, never as a matrix: the dense
    # matrix's product on a degree-N/2 input, padded to N, is the reference,
    # within 2 ulp of the largest output entry
    rng = np.random.default_rng(N)
    c = rng.standard_normal(N // 2 + 1) + 1j * rng.standard_normal(N // 2 + 1)
    path = tmp_path / "f.json"
    path.write_text(vector_to_json(c))
    code = cli.main(["op", "apply", "--op", name, "--degree", str(N), "--in", str(path)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    got = np.array([complex(re, im) for re, im in json.loads(out)])
    want = dense(N).apply(FockVector(c).pad(N)).coeffs
    assert got.shape == want.shape == (N + 1,)
    assert np.max(np.abs(got - want)) <= 2 * np.spacing(np.max(np.abs(want)))


def test_cli_negative_params_take_the_equals_form(tmp_path, capsys):
    # argparse reads "--params -0.5,0.25" as an option with no value; the
    # "--params=-0.5,0.25" form passes the leading minus through
    path = tmp_path / "e1.json"
    path.write_text(vector_to_json(FockVector.basis(1, 4)))
    code = cli.main(["op", "apply", "--op", "weyl", "--params=-0.5,0.25",
                     "--degree", "24", "--in", str(path)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    got = np.array([complex(re, im) for re, im in json.loads(out)])
    assert np.array_equal(got, cli.op.weyl_matrix(-0.5 + 0.25j, 24).entries[:, 1])
    proc = run_cli("op", "apply", "--op", "weyl", "--params", "-0.5,0.25", "--in", str(path),
                   check=False)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].endswith("argument --params: expected one argument")


@pytest.mark.parametrize("degree", range(1, 17))
def test_cli_verify_low_degree_never_crashes(degree, capsys):
    # honest FAILs (exit 1) are fine here; every suite runs at every degree
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        for suite in SUITE_NAMES:
            assert cli.main(["verify", suite, "--degree", str(degree)]) in (0, 1)
            assert "Traceback" not in capsys.readouterr().err


def test_cli_extremal_high_degree_is_finite():
    proc = run_cli("uncertainty", "extremal", "--c", "2.0", "--a", "0.5", "--b", "0.3",
                   "--degree", "400")
    coeffs = json.loads(proc.stdout, parse_constant=lambda name: pytest.fail(name))
    assert len(coeffs) == 401
    assert np.all(np.isfinite(coeffs))


def _readme_commands() -> list[list[str]]:
    """Every ``fockdict ...`` line of README's fenced sh blocks, in order."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [shlex.split(line, comments=True)[1:]
            for block in blocks for line in block.splitlines()
            if line.startswith("fockdict ")]


def _subcommands(parser) -> dict[str, argparse.ArgumentParser]:
    """The subcommand parsers of an argparse parser by name; empty for a leaf."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(subs[0].choices) if subs else {}


def _leaves(parser, prefix) -> dict[tuple[str, ...], argparse.ArgumentParser]:
    children = _subcommands(parser)
    if not children:
        return {prefix: parser}
    return {path: leaf for name, child in children.items()
            for path, leaf in _leaves(child, prefix + (name,)).items()}


def _leaf_parsers() -> dict[tuple[str, ...], argparse.ArgumentParser]:
    """Every leaf subcommand by its path, e.g. ("op", "apply"), each from the
    parser that a call of its own command builds."""
    return {path: leaf for name in cli._COMMANDS
            for path, leaf in _leaves(_subcommands(cli.build_parser([name]))[name], (name,)).items()}


def _readme_inputs(tmp_path, monkeypatch) -> None:
    """The files the README examples read, in a fresh working directory."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FOCKDICT_DEGREE", raising=False)
    (tmp_path / "line.json").write_text(vector_to_json([0.6, 0.0, 0.8]))
    (tmp_path / "f.json").write_text(vector_to_json([1.0, 0.5j, 0.0, -0.25]))
    (tmp_path / "taylor.json").write_text(vector_to_json([0.0, 1.0]))
    (tmp_path / "sym.json").write_text(json.dumps({"terms": [[1, 1, 1.0, 0.0], [1, 2, 0.5, 0.0]]}))


def test_readme_shows_every_subcommand():
    commands = _readme_commands()
    paths = _leaf_parsers()
    assert ("op", "apply") in paths and ("verify",) in paths
    missing = [p for p in paths if not any(tuple(argv[:len(p)]) == p for argv in commands)]
    assert not missing


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    _readme_inputs(tmp_path, monkeypatch)
    commands = _readme_commands()
    assert len(commands) >= 17
    for argv in commands:
        assert cli.main(argv) == 0, argv
        assert "error" not in capsys.readouterr().err


def test_every_declared_option_is_read(tmp_path, monkeypatch, capsys):
    # each README example runs its handler on a namespace that records every
    # attribute read; an option no example of its command reads does nothing
    _readme_inputs(tmp_path, monkeypatch)
    leaves = _leaf_parsers()
    read = {path: set() for path in leaves}
    for argv in _readme_commands():
        args = cli.build_parser(argv).parse_args(argv)
        seen = read[next(p for p in leaves if tuple(argv[:len(p)]) == p)]

        class Recorder(argparse.Namespace):
            def __getattribute__(self, name):
                seen.add(name)
                return super().__getattribute__(name)

        assert args.fn(Recorder(**vars(args))) == 0, argv
    capsys.readouterr()
    for path, leaf in leaves.items():
        declared = {a.dest for a in leaf._actions if not isinstance(a, argparse._HelpAction)}
        assert declared <= read[path], (path, sorted(declared - read[path]))


def test_every_leaf_help_exits_zero(capsys):
    leaves = _leaf_parsers()
    assert len(leaves) == 13
    for path in leaves:
        with pytest.raises(SystemExit) as exit_:
            cli.main([*path, "--help"])
        assert exit_.value.code == 0, path
        assert capsys.readouterr().out.startswith(f"usage: fockdict {' '.join(path)} [-h]")


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    for name, (help_line, _declare) in cli._COMMANDS.items():
        assert re.search(rf"^    {name} +{re.escape(help_line)}$", out, re.M), name


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["bogus"])
    assert exit_.value.code == 2
    assert "argument command: invalid choice: 'bogus'" in capsys.readouterr().err


def test_a_call_declares_only_its_own_command():
    commands = _subcommands(cli.build_parser(["verify", "all"]))
    assert set(commands) == set(cli._COMMANDS)
    for name, parser in commands.items():
        declared = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        assert bool(declared) == (name == "verify"), name


def test_verify_loads_neither_numpy_random_nor_numpy_polynomial():
    # the seeded draws use the standard library and the Legendre rule is built
    # in place, so a verify call imports neither numpy subpackage
    code = (
        "import contextlib, io, json, sys\n"
        "import numpy\n"
        "names = ('numpy.random', 'numpy.polynomial')\n"
        "before = [n for n in names if n in sys.modules]\n"
        "from fockdict import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    status = cli.main(['verify', 'all', '--degree', '24'])\n"
        "print(json.dumps([status, before, [n for n in names if n in sys.modules]]))\n"
    )
    env = {key: value for key, value in ENV.items() if key != "FOCKDICT_DEGREE"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    status, before, after = json.loads(proc.stdout)
    if before:
        pytest.skip(f"importing numpy alone loads {before}")
    assert status == 0
    assert after == []


@pytest.mark.parametrize("suite", ["weyl", "fourier"])
def test_cli_seed_must_be_a_non_negative_integer(suite, capsys):
    # weyl draws nothing and fourier draws, and both refuse the seed up front
    with pytest.raises(SystemExit) as exit_:
        cli.main(["verify", suite, "--degree", "8", "--seed", "-1"])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "argument --seed: seed must be an integer >= 0, got '-1'")


def test_suite_config_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
        run_suite("all", SuiteConfig(seed=-1))
