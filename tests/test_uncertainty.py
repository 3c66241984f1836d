import math
import warnings

import numpy as np
import pytest

from fockdict.fock import FockVector
from fockdict.operators import ladder_word, md_matrices
from fockdict.uncertainty import (
    ExtremalParams,
    extremal_coeffs,
    uncertainty_product,
)


def _gap(f, a, b):
    """lhs - rhs of the product inequality; zero exactly on the extremal family."""
    lhs, rhs = uncertainty_product(f, a, b)
    return lhs - rhs


def _generators(N):
    """S1 = D + M and S2 = i(D - M) as the dense matrices of their ladder words."""
    eye = np.eye(N + 1)
    return ladder_word(("S1",), eye), ladder_word(("S2",), eye)


def test_generator_actions_on_vacuum():
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(ladder_word(("S1",), e0), [0, 1, 0, 0])
    assert np.allclose(ladder_word(("S2",), e0), [0, -1j, 0, 0])


def test_generators_self_adjoint_exactly():
    for mat in _generators(32):
        assert np.max(np.abs(mat - mat.conj().T)) == 0.0


@pytest.mark.parametrize("N", [1, 8, 64])
def test_generators_equal_the_md_sums_bit_for_bit(N):
    # each letter is two scaled index shifts, and scaling by i is exact, so
    # the words' matrices equal D + M and i(D - M) to the bit; only the sign
    # of a zero may differ (a shift by -1 leaves -0.0), which adding 0.0 clears
    M, D = md_matrices(N)
    S1, S2 = _generators(N)
    assert (S1 + 0.0).astype(np.complex128).tobytes() == (D.entries + M.entries + 0.0).tobytes()
    assert (S2 + 0.0).tobytes() == (1j * (D.entries - M.entries) + 0.0).tobytes()


def test_commutator_is_minus_two_i():
    N = 64
    S1, S2 = _generators(N)
    C = S1 @ S2 - S2 @ S1
    assert np.max(np.abs(C[: N - 1, : N - 1] + 2j * np.eye(N - 1))) < 1e-12


def _shifted_product(f, a, b):
    # M f and D f formed on their own zero-padded arrays, one degree up
    c = f.coeffs
    m = np.zeros(len(c) + 1, dtype=np.complex128)
    m[1:] = np.sqrt(np.arange(1, len(c) + 1)) * c
    d = np.zeros(len(c) + 1, dtype=np.complex128)
    d[: len(c) - 1] = np.sqrt(np.arange(1, len(c))) * c[1:]
    ce = np.concatenate([c, [0.0]])
    u, w = d + m - a * ce, d - m - 1j * b * ce
    return float(np.linalg.norm(u) * np.linalg.norm(w)), float(np.linalg.norm(c) ** 2)


def test_uncertainty_product_equals_the_padded_shifts_bit_for_bit():
    rng = np.random.default_rng(5)
    for degree in (0, 1, 7, 64, 300):
        for _ in range(5):
            f = FockVector(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
            a, b = rng.standard_normal(2) * 3
            assert uncertainty_product(f, a, b) == _shifted_product(f, a, b)
    f = extremal_coeffs(ExtremalParams(1.0, 2.0, 0.5, -1.0), 300)
    assert uncertainty_product(f, 0.5, -1.0) == _shifted_product(f, 0.5, -1.0)


def test_vacuum_attains_equality():
    lhs, rhs = uncertainty_product(FockVector.basis(0, 8), 0.0, 0.0)
    assert lhs == 1.0
    assert rhs == 1.0


def test_two_mode_vector_is_strict():
    c = np.zeros(11, dtype=complex)
    c[0] = c[4] = 1 / math.sqrt(2)
    lhs, rhs = uncertainty_product(FockVector(c), 0.0, 0.0)
    assert lhs > rhs + 0.5


def test_inequality_on_random_vectors():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        f = FockVector(np.concatenate([c, np.zeros(4)]))
        a, b = 2.0 * rng.standard_normal(2)
        lhs, rhs = uncertainty_product(f, a, b)
        assert lhs >= rhs - 1e-9


def test_gap_homogeneity():
    rng = np.random.default_rng(8)
    f = FockVector(np.concatenate([rng.standard_normal(6) + 0j, np.zeros(3)]))
    g1 = _gap(f, 0.3, -0.2)
    g5 = _gap(FockVector(5.0 * f.coeffs), 0.3, -0.2)
    assert abs(g5 - 25.0 * g1) < 1e-9 * max(1.0, abs(g5))


def test_extremal_parameters_validate():
    for bad in (dict(c=-1.0), dict(c=math.nan), dict(c=math.inf), dict(a=math.nan), dict(b=-math.inf)):
        with pytest.raises(ValueError):
            ExtremalParams(**bad)
    p = ExtremalParams(C=1.0, c=3.0, a=0.5, b=0.2)
    assert abs(p.alpha) < 0.5


def test_extremal_collapses_to_constant():
    f = extremal_coeffs(ExtremalParams(C=1.0, c=1.0, a=0.0, b=0.0), 10)
    assert np.array_equal(f.coeffs, FockVector.basis(0, 10).coeffs)


def test_extremal_exponential_series():
    # c=1, a=1, b=0 gives e^{z/2}: coefficients (1/2)^n sqrt(n!)/n!
    f = extremal_coeffs(ExtremalParams(C=1.0, c=1.0, a=1.0, b=0.0), 60)
    want = np.array(
        [0.5**n * math.sqrt(math.factorial(n)) / math.factorial(n) for n in range(61)]
    )
    assert np.max(np.abs(f.coeffs - want)) < 1e-15


def test_extremal_family_attains_equality():
    lhs, rhs = uncertainty_product(
        extremal_coeffs(ExtremalParams(C=1.0, c=2.0, a=0.5, b=0.3), 120), 0.5, 0.3
    )
    assert abs(lhs - rhs) < 1e-7 * rhs


def test_equality_family_parameter_sweep():
    rng = np.random.default_rng(11)
    for _ in range(10):
        alpha = rng.uniform(-0.4, 0.4)
        c = (1 + 2 * alpha) / (1 - 2 * alpha)
        a, b = rng.standard_normal(2)
        f = extremal_coeffs(ExtremalParams(C=1.0, c=c, a=a, b=b), 300)
        assert abs(_gap(f, a, b)) < 1e-6


def test_second_ode_branch_lands_in_same_family():
    # the other proportionality branch solves the same ODE with c -> -1/c,
    # so every negative-branch parameter is already covered
    for c2 in (-0.5, -2.0, -1.3):
        c = -1.0 / c2
        a, b = 0.7, -0.3
        f = extremal_coeffs(ExtremalParams(C=1.0, c=c, a=a, b=b), 300)
        assert abs(_gap(f, a, b)) < 1e-9


def test_tail_certificate_failure():
    # alpha close to 1/2 needs a much larger degree than 40
    with pytest.raises(ValueError):
        extremal_coeffs(ExtremalParams(C=1.0, c=30.0, a=0.0, b=0.0), 40)


@pytest.mark.parametrize("a, b", [(1e308, 0.0), (0.0, -1e308), (1e200, 1e200)])
def test_product_out_of_double_range_is_refused_quietly(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            uncertainty_product(FockVector.basis(1, 4), a, b)


@pytest.mark.parametrize("a, b, degree", [(0.0, 1e308, 64), (1e150, 0.0, 4), (2e100, 0.0, 2)])
def test_extremal_out_of_double_range_is_refused_quietly(a, b, degree):
    # beta = a/2 at c = 1: 5e149 overflows a coefficient by degree 3, while
    # 1e100 keeps every coefficient finite (up to 7e199) but not the norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            extremal_coeffs(ExtremalParams(C=1.0, c=1.0, a=a, b=b), degree)


def test_nonextremal_gap_examples():
    c = np.zeros(9, dtype=complex)
    c[0] = c[2] = 1 / math.sqrt(2)
    assert _gap(FockVector(c), 0.0, 0.0) > 0.1
    f = extremal_coeffs(ExtremalParams(C=2.0, c=1.5, a=0.1, b=-0.4), 200)
    assert abs(_gap(f, 0.1, -0.4)) < 1e-7 * f.norm() ** 2
