import math
import warnings

import numpy as np
import pytest

from fockdict.fock import FockVector
from fockdict.operators import commutator, md_matrices
from fockdict.uncertainty import (
    ExtremalParams,
    extremal_coeffs,
    s1_matrix,
    s2_matrix,
    uncertainty_gap,
    uncertainty_product,
)


def test_generator_actions_on_vacuum():
    assert np.allclose(s1_matrix(3).entries[:, 0], [0, 1, 0, 0])
    assert np.allclose(s2_matrix(3).entries[:, 0], [0, -1j, 0, 0])


def test_generators_self_adjoint_exactly():
    for mat in (s1_matrix(32), s2_matrix(32)):
        assert np.max(np.abs(mat.entries - mat.entries.conj().T)) == 0.0


@pytest.mark.parametrize("N", [1, 8, 64])
def test_generators_equal_the_md_sums_bit_for_bit(N):
    # S1 = 2 A1 and S2 = i A2 are built from the line pair; scaling by 2 and
    # by i is exact, so the entries equal D + M and i(D - M) to the bit
    M, D = md_matrices(N)
    assert s1_matrix(N).entries.tobytes() == (D.entries + M.entries).tobytes()
    assert s2_matrix(N).entries.tobytes() == (1j * (D.entries - M.entries)).tobytes()


def test_commutator_is_minus_two_i():
    N = 64
    C = commutator(s1_matrix(N), s2_matrix(N))
    assert np.max(np.abs(C[: N - 1, : N - 1] + 2j * np.eye(N - 1))) < 1e-12


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
    g1 = uncertainty_gap(f, 0.3, -0.2)
    g5 = uncertainty_gap(FockVector(5.0 * f.coeffs), 0.3, -0.2)
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
        assert abs(uncertainty_gap(f, a, b)) < 1e-6


def test_second_ode_branch_lands_in_same_family():
    # the other proportionality branch solves the same ODE with c -> -1/c,
    # so every negative-branch parameter is already covered
    for c2 in (-0.5, -2.0, -1.3):
        c = -1.0 / c2
        a, b = 0.7, -0.3
        f = extremal_coeffs(ExtremalParams(C=1.0, c=c, a=a, b=b), 300)
        assert abs(uncertainty_gap(f, a, b)) < 1e-9


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
    assert uncertainty_gap(FockVector(c), 0.0, 0.0) > 0.1
    f = extremal_coeffs(ExtremalParams(C=2.0, c=1.5, a=0.1, b=-0.4), 200)
    assert abs(uncertainty_gap(f, 0.1, -0.4)) < 1e-7 * f.norm() ** 2
