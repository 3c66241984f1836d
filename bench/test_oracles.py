"""Pin the benchmark oracles against fockdict's exact engines and closed forms.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench/test_oracles.py

The exact-engine points are the ones whose errors the benchmark baseline
cites; the float-path cases pin known misses of the 1e-10 Weyl contract, so
an oracle cannot be loosened until they disappear.
"""
import warnings

import numpy as np
import pytest

import oracles
from fockdict import bargmann, fock, gabor, operators, quantize, singular, uncertainty
from fockdict.errors import AccuracyWarning

WEYL_CONTRACT = 1e-10


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        yield


def test_weyl_recurrence_matches_mpmath_laguerre():
    a, N = 1.1 - 0.7j, 20
    W = oracles.weyl_matrix(a, N)
    for p, n in [(0, 0), (N, N), (N, 0), (0, N), (13, 5), (5, 13), (19, 20)]:
        assert abs(W[p, n] - oracles.weyl_entry(a, p, n)) <= 1e-15 * max(1.0, abs(W[p, n]))


@pytest.mark.parametrize("a, N", [(1 - np.pi * 1j, 120), (3.0, 64)])
def test_weyl_oracle_matches_exact_engine(a, N):
    err = np.max(np.abs(operators.weyl_matrix(a, N).entries - oracles.weyl_matrix(a, N)))
    assert err <= 1e-12


@pytest.mark.parametrize("a, N, low", [(-1.7, 32, 1e-9), (0.9 + 0.3j, 120, 1e-8), (1.8 + 0.666j, 64, 1e-5)])
def test_weyl_float_path_misses_stay_visible(a, N, low):
    err = np.max(np.abs(operators.weyl_matrix(a, N).entries - oracles.weyl_matrix(a, N)))
    assert err > WEYL_CONTRACT
    assert err > low


def test_weyl_depth_exceeds_library_switch_estimate_where_it_misses():
    # at r = 3.7, N = 64 the library predicts < 10 lost digits and sums in
    # floats; the true depth at (N, N) is deeper, which is why it misses
    assert oracles.weyl_depth(3.7, 64) > 11.0
    assert 5.5 < oracles.weyl_depth(2.89, 32) < 7.0


def test_hilbert_oracle_matches_exact_engine():
    N = 128
    T = singular.hilbert_fock_matrix(N).entries
    rows = oracles.hilbert_rows(N, [0, 1, 2, 63, 64, 127, 128])
    scale = max(np.max(np.abs(r)) for r in rows.values())
    assert max(np.max(np.abs(T[p] - row)) for p, row in rows.items()) <= 1e-12 * scale


@pytest.mark.parametrize("a, N", [(1.7, 32), (-2.0, 24)])
def test_exp_linear_oracle_matches_exact_engine(a, N):
    S = singular.s_phi_matrix(singular.exp_linear_symbol(a, 2 * N), N).entries
    ref = oracles.exp_linear_s_phi(a, N)
    assert np.max(np.abs(S - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_packet_closed_forms():
    a, b, N = 0.7, -0.3, 64
    coeffs = oracles.packet_coeffs(a, b, N)
    column = operators.translation_modulation_fock(a, b, N).entries[:, 0]
    assert np.max(np.abs(column - coeffs)) <= 1e-12
    z = np.array([0.3 + 1.0j, -1.2 + 0.5j, 2.0 - 2.0j])
    F = fock.FockVector(coeffs)
    assert np.max(np.abs(fock.evaluate(F, z) - oracles.packet_bargmann(a, b, z))) <= 1e-12
    assert abs(bargmann.fock_sup_norm(F, 11.4, 0.2) - oracles.packet_sup_norm(a, b, 11.4, 0.2)) <= 1e-12


@pytest.mark.parametrize("r", [0.5, 1.37, 2.0])
def test_dilated_gaussian(r):
    pipe = bargmann.BargmannPipeline.default(32)
    res = operators.dilation_fock(r, fock.FockVector.basis(0, 8), pipe)
    assert np.max(np.abs(res.primary.coeffs - oracles.dilated_gaussian_coeffs(r, 32))) <= 1e-11


def test_extremal_gap():
    p = uncertainty.ExtremalParams(1.0, 1.8, 0.7, -0.4)
    lhs, rhs = uncertainty.uncertainty_product(uncertainty.extremal_coeffs(p, 300), p.a, p.b)
    norm_sq = oracles.extremal_norm_sq(p.C, p.alpha, p.beta)
    assert abs(rhs / norm_sq - 1.0) <= 1e-12
    assert abs(lhs / norm_sq - 1.0) <= 1e-12


def test_toeplitz_and_kernel_gram():
    terms = {(1, 2): 1 + 1j, (0, 0): 0.5, (3, 1): -2.0}
    T = quantize.toeplitz_poly_matrix(quantize.PolySymbol(terms), 20).entries
    ref = oracles.toeplitz_matrix(terms, 20)
    assert np.max(np.abs(T - ref)) <= 1e-12 * np.max(np.abs(ref))
    pts = [0.4 + 0.2j, -0.3 + 0.9j, 1.0 - 0.5j]
    assert np.max(np.abs(gabor.kernel_gram(pts, 60) - oracles.kernel_gram(pts))) <= 1e-12


def test_box_window_coeffs():
    ref = oracles.box_window_coeffs(48)
    assert np.max(np.abs(gabor.box_window_coeffs(48).coeffs - ref)) <= 1e-13
