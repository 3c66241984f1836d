import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fockdict.fock import (
    FockVector,
    evaluate,
    exp_quadratic_coeffs,
    inner,
    kernel_rows,
    kernel_truncation_defect,
    kernel_vector,
    resolved_radius,
)


def test_basis_orthonormality():
    e2 = FockVector.basis(2, 6)
    e1 = FockVector.basis(1, 6)
    e3 = FockVector.basis(3, 6)
    assert inner(e2, e2) == 1.0
    assert inner(e1, e3) == 0.0


@pytest.mark.parametrize("N", [1, 16, 32, 64, 200])
def test_resolved_radius_is_the_defect_boundary(N, resolution_boundary):
    # agrees with a bisection on the term-by-term tail of e^{-r} sum r^n/n!
    assert abs(resolved_radius(N) - resolution_boundary(N)) <= 1e-6 * resolution_boundary(N)


def test_kernel_unit_norm():
    # tail of sum 1/n! beyond 40 terms is far below 1e-12
    k = kernel_vector(1.0, 40, normalized=True)
    assert abs(k.norm() ** 2 - 1.0) < 1e-12
    assert kernel_truncation_defect(1.0, 40) < 1e-12


@pytest.mark.parametrize("a", [complex("nan"), complex("inf"), complex(0.5, -math.inf), complex(math.nan, 1.0)])
def test_kernel_truncation_defect_of_a_non_finite_point_is_total(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert kernel_truncation_defect(a, 40) == 1.0
        got = kernel_truncation_defect(np.array([a, 1.0]), 40)
        assert np.array_equal(got, [1.0, kernel_truncation_defect(1.0, 40)])


@pytest.mark.parametrize("N", [8, 64, 300])
def test_kernel_vector_matches_log_space_closed_form(N):
    # conj(a)^n e^{-|a|^2/2} / sqrt(n!) at 30 digits; the running product and
    # e^{-|a|^2/2} each carry rounding that grows with n and with |a|^2, so
    # the relative bound is (n + 1 + |a|^2) units of 2^-52
    n = np.arange(N + 1)
    for r2 in (N / 8, N / 2):
        for theta in (0.3, 2.5, -1.9):
            a = complex(math.sqrt(r2) * np.exp(1j * theta))
            with mpmath.workdps(30):
                ab = mpmath.mpc(a.real, -a.imag)
                half = abs(ab) ** 2 / 2
                want = np.array([complex(mpmath.exp(k * mpmath.log(ab) - half - mpmath.loggamma(k + 1) / 2))
                                 for k in n])
            got = kernel_vector(a, N).coeffs
            assert np.all(np.abs(got - want) <= (n + 1 + r2) * 2.0**-52 * np.abs(want)), (r2, theta)


@pytest.mark.parametrize("normalized", [True, False])
def test_kernel_rows_round_as_one_kernel_at_a_time(normalized):
    # each row repeats the scalar recipe: a running product of conj(a)/sqrt(n),
    # scaled by np.exp(-abs(a) ** 2 / 2) with Python's abs and power
    rng = np.random.default_rng(7)
    pts = (rng.standard_normal(3000) + 1j * rng.standard_normal(3000)) * rng.uniform(0.0, 12.0, 3000)
    rows = kernel_rows(pts, 40, normalized)
    for a, row in zip(pts, rows):
        want = np.ones(41, dtype=np.complex128)
        want[1:] = np.cumprod(np.conj(complex(a)) / np.sqrt(np.arange(1, 41)))
        if normalized:
            want *= np.exp(-abs(complex(a)) ** 2 / 2.0)
        assert np.array_equal(row, want)
    assert np.array_equal(kernel_vector(pts[5], 40, normalized).coeffs, rows[5])


def test_kernel_at_zero_is_vacuum():
    k = kernel_vector(0.0, 5)
    assert np.array_equal(k.coeffs, FockVector.basis(0, 5).coeffs)


def test_eval_constant():
    assert evaluate(FockVector.basis(0, 4), 5 + 2j) == 1.0


def test_eval_kernel_reproduces_exponential():
    k = kernel_vector(1.0, 40, normalized=True)
    assert abs(evaluate(k, 1.0) - np.exp(0.5)) < 1e-10


def test_eval_monomial():
    assert abs(evaluate(FockVector.basis(3, 5), 2.0) - 8 / np.sqrt(6)) < 1e-14


def test_eval_range_guard():
    with pytest.raises(OverflowError):
        evaluate(FockVector.basis(0, 2), 60.0)


def test_reproducing_identity_on_basis():
    # finite-sum identity: <e_n, K(., a)> = e_n(a), exact up to rounding
    a = 0.7 - 0.4j
    K = kernel_vector(a, 12, normalized=False)
    for n in range(6):
        en = FockVector.basis(n, 12)
        assert abs(inner(en, K) - evaluate(en, a)) < 4e-16


def test_reproducing_identity_general_vector():
    rng = np.random.default_rng(0)
    f = FockVector(rng.standard_normal(13) + 1j * rng.standard_normal(13))
    for a in (0.5, -0.3 + 0.8j, 1.2j):
        K = kernel_vector(a, 12, normalized=False)
        assert abs(inner(f, K) - evaluate(f, a)) < 1e-13 * f.norm()


def test_inner_product_axioms():
    rng = np.random.default_rng(1)
    f = FockVector(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    g = FockVector(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    h = FockVector(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    assert inner(f, g) == np.conj(inner(g, f))
    lin = inner(FockVector(2.0 * f.coeffs + h.coeffs), g)
    assert abs(lin - (2.0 * inner(f, g) + inner(h, g))) < 1e-13
    assert inner(f, f).imag == 0.0
    assert inner(f, f).real >= 0.0
    zero = FockVector(np.zeros(4, dtype=complex))
    assert inner(zero, zero) == 0.0


def test_unequal_degrees_zero_pad():
    f = FockVector(np.array([1.0, 2.0]))
    g = FockVector(np.array([3.0, 0.0, 5.0]))
    assert inner(f, g) == 3.0


def test_kernel_norm_monotone_in_degree():
    a = 1.5 + 0.5j
    norms = [kernel_vector(a, N).norm() for N in (4, 8, 16, 32)]
    assert all(n1 < n2 for n1, n2 in zip(norms, norms[1:]))
    assert norms[-1] <= 1.0 + 1e-14


def test_eval_vectorized_matches_scalar():
    rng = np.random.default_rng(2)
    f = FockVector(rng.standard_normal(10) + 1j * rng.standard_normal(10))
    zs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    vec = evaluate(f, zs)
    for z, v in zip(zs, vec):
        assert v == evaluate(f, complex(z))


def _loop_reference(coeffs, zs):
    """Sum c_n z^n/sqrt(n!) by the term recurrence, one degree at a time."""
    term = np.ones_like(zs)
    acc = coeffs[0] * term
    for n in range(1, len(coeffs)):
        term = term * zs / np.sqrt(n)
        acc = acc + coeffs[n] * term
    return acc


@pytest.mark.parametrize("degree", [0, 1, 8, 64, 200])
@pytest.mark.parametrize("count", [1, 300, 4096])
def test_horner_evaluation_matches_the_loop(degree, count):
    rng = np.random.default_rng(degree * 1000 + count)
    f = FockVector(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    radius = np.sqrt(2.0 * max(degree, 1)) * 1.5
    zs = radius * np.sqrt(rng.uniform(size=count)) * np.exp(2j * np.pi * rng.uniform(size=count))
    weight = np.exp(-np.abs(zs) ** 2 / 2.0)
    got = evaluate(f, zs) * weight
    want = _loop_reference(f.coeffs, zs) * weight
    assert got.shape == zs.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _allocating_horner(coeffs, zs):
    """Horner's rule as acc = acc * z * inv_root[n] + c_n, one new array per step."""
    inv_root = 1.0 / np.sqrt(np.arange(1, len(coeffs)))
    acc = np.full(zs.shape, coeffs[-1])
    for n in range(len(coeffs) - 2, -1, -1):
        acc = acc * zs * inv_root[n] + coeffs[n]
    return acc


@pytest.mark.parametrize("degree", [0, 8, 64, 200])
@pytest.mark.parametrize("count", [1, 300, 4096])
def test_buffered_horner_is_bit_identical(degree, count):
    rng = np.random.default_rng(degree * 7 + count)
    f = FockVector(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    zs = 3.0 * (rng.standard_normal(count) + 1j * rng.standard_normal(count))
    assert np.array_equal(evaluate(f, zs), _allocating_horner(f.coeffs, zs))


def test_evaluation_keeps_the_shape_of_z():
    f = FockVector([1.0, 2.0, 3.0])
    zs = np.arange(6.0).reshape(2, 3) + 0.5j
    assert np.array_equal(evaluate(f, zs), np.vectorize(lambda z: evaluate(f, complex(z)))(zs))


@pytest.mark.parametrize("alpha, beta", [
    (Fraction(1, 5), Fraction(3, 4)),
    (Fraction(-3, 10), Fraction(1, 2)),
    (Fraction(2, 5), Fraction(-7, 4)),
    (Fraction(0), Fraction(5, 2)),
])
def test_exp_quadratic_coeffs_against_exact_series(alpha, beta):
    # t_n sqrt(n!) with t_n the exact Taylor coefficients of 3 exp(alpha z^2 + beta z)
    N = 40
    t = [Fraction(3), 3 * beta]
    for n in range(1, N):
        t.append((beta * t[n] + 2 * alpha * t[n - 1]) / (n + 1))
    want = np.array([float(t[n]) * math.sqrt(math.factorial(n)) for n in range(N + 1)])
    got = exp_quadratic_coeffs(float(alpha), float(beta), N, c0=3.0)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_exp_quadratic_coeffs_finite_at_high_degree():
    # the factor sqrt(N!) of the Taylor form overflows past N = 303
    beta = np.array([1.0 + 1.0j, -2.0, 0.5j])
    u = exp_quadratic_coeffs(0.3, beta, 400)
    assert u.shape == (401, 3)
    assert np.all(np.isfinite(u))
    assert np.all(np.abs(u[-1]) < 1e-10 * np.max(np.abs(u), axis=0))
