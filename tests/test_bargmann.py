import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fockdict.bargmann import (
    _BLOCK,
    BargmannPipeline,
    _pbound_grid,
    _stft_blocks,
    bargmann_coeff,
    bargmann_quadrature,
    fock_sup_norm,
    inverse_bargmann_quadrature,
    verify_pbound,
)
from fockdict.errors import AccuracyWarning
from fockdict.fock import FockVector, evaluate
from fockdict.hermite import (
    GAUSS_CONST,
    LineVector,
    QuadratureRule,
    gauss_hermite,
    gauss_hermite_plane,
    hermite_function,
    hermite_functions,
)

RULE = gauss_hermite(128)
PLANE = gauss_hermite_plane(64)


def gauss(x):
    return GAUSS_CONST * np.exp(-(x**2))


def test_coefficient_path_is_identity():
    v = LineVector(np.array([0, 0, 0, 1.0], dtype=complex))
    F = bargmann_coeff(v)
    assert np.array_equal(F.coeffs, v.coeffs)


def test_coefficient_path_is_isometric():
    rng = np.random.default_rng(0)
    v = LineVector(rng.standard_normal(30) + 1j * rng.standard_normal(30))
    assert bargmann_coeff(v).norm() == v.norm()


def test_quadrature_gauss_is_constant_one():
    assert abs(bargmann_quadrature(gauss, 0.7 + 0.3j, RULE) - 1.0) < 1e-8


def test_quadrature_of_constant():
    z = 1 + 1j
    want = GAUSS_CONST * math.sqrt(math.pi) * np.exp(z**2 / 2)
    assert abs(bargmann_quadrature(lambda x: np.ones_like(x), z, RULE) - want) < 1e-8


def test_quadrature_sends_h1_to_monomial():
    got = bargmann_quadrature(lambda x: hermite_function(1, x), 2.0, RULE)
    assert abs(got - 2.0) < 1e-8


def test_oscillation_budget_warning():
    with pytest.warns(AccuracyWarning):
        bargmann_quadrature(gauss, 20j, gauss_hermite(64))


def _accuracy_warnings(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    return [w for w in caught if issubclass(w.category, AccuracyWarning)]


def test_oscillation_budget_boundary():
    # |Im z| may reach n_nodes / 8 = 8 on a 64-node rule, and no further
    rule = gauss_hermite(64)
    assert not _accuracy_warnings(lambda: bargmann_quadrature(gauss, 0.5 + 8j, rule))
    assert _accuracy_warnings(lambda: bargmann_quadrature(gauss, 0.5 + (8 + 1e-9) * 1j, rule))


def _dense_forward(f, z, rule):
    """The defining integral summed against one dense (points x nodes) kernel.

    Returns the values and, per point, the sum of the moduli of its terms.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    fx = rule.weights * np.asarray(f(rule.nodes), dtype=np.complex128)
    kernel = np.exp(2.0 * np.outer(zs, rule.nodes) - (zs**2 / 2.0)[:, None])
    return GAUSS_CONST * (kernel @ fx), GAUSS_CONST * (np.abs(kernel) @ np.abs(fx))


def _packet(a, b):
    return lambda x: np.exp(2j * math.pi * b * x) * gauss(x - a)


_WINDOW_INPUTS = (
    [_packet(a, b) for a, b in ((0.0, 0.0), (1.3, -0.4), (-1.5, 0.35))]
    + [lambda x: np.ones_like(x)]
    + [lambda x, n=n: hermite_function(n, x) for n in range(7)]
)


@pytest.mark.parametrize("n_nodes", [64, 256])
@pytest.mark.parametrize("k", range(len(_WINDOW_INPUTS)))
def test_node_window_stays_within_rounding(n_nodes, k):
    # |Im z| scanned up to the oscillation budget n_nodes / 8; |Re z| <= 4
    # keeps the dense reference's kernel below overflow at |Im z| = 32
    rule = gauss_hermite(n_nodes)
    rng = np.random.default_rng(n_nodes + k)
    budget = n_nodes / 8.0
    zs = rng.uniform(-4.0, 4.0, 300) + 1j * rng.permutation(np.linspace(-budget, budget, 300))
    got = bargmann_quadrature(_WINDOW_INPUTS[k], zs, rule)
    want, terms = _dense_forward(_WINDOW_INPUTS[k], zs, rule)
    assert np.all(np.abs(got - want) <= 4.0 * np.finfo(float).eps * terms)


@pytest.mark.parametrize("count", [1, _BLOCK, _BLOCK + 1])
def test_point_blocks_keep_the_order_of_z(count):
    rng = np.random.default_rng(count)
    zs = 3.0 * (rng.standard_normal(count) + 1j * rng.standard_normal(count))
    f = _packet(0.4, 0.2)
    got = bargmann_quadrature(f, zs, RULE)
    want, terms = _dense_forward(f, zs, RULE)
    assert got.shape == (count,)
    assert np.all(np.abs(got - want) <= 4.0 * np.finfo(float).eps * terms)
    one = bargmann_quadrature(f, complex(zs[0]), RULE)
    assert isinstance(one, complex)
    assert abs(one - want[0]) <= 4.0 * np.finfo(float).eps * terms[0]


def test_quadrature_of_zero_is_zero():
    zs = np.linspace(-5.0, 5.0, 2 * _BLOCK + 3) + 1j
    got = bargmann_quadrature(np.zeros_like, zs, RULE)
    assert np.array_equal(got, np.zeros_like(zs))


def test_nan_at_one_node_propagates_as_in_the_dense_sum():
    def f(x):
        out = gauss(x)
        out[40] = np.nan
        return out

    zs = np.linspace(-5.0, 5.0, _BLOCK + 7) + 0.5j
    want, _ = _dense_forward(f, zs, RULE)
    got = bargmann_quadrature(f, zs, RULE)
    assert np.isnan(want).any()
    assert np.array_equal(np.isnan(got), np.isnan(want))


def test_pbound_memory_stays_in_point_blocks():
    # a dense kernel over the radius-6 grid would take 11,289 x 256 complex numbers
    rule = gauss_hermite(256)
    for radius in (6.0, 30.0):
        verify_pbound(lambda x: np.ones_like(x), rule, grid_radius=radius)
        tracemalloc.start()
        try:
            verify_pbound(lambda x: np.ones_like(x), rule, grid_radius=radius)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, radius


_PBOUND_FUNCTIONS = {
    "one": lambda x: np.ones_like(x),
    "sign": np.sign,
    "packet": lambda x: np.exp(-((x - 1.5) ** 2) / 2.0 + 2.5j * x),
    **{f"h{k}": (lambda k: lambda x: hermite_functions(k, x)[k])(k) for k in range(7)},
}


@pytest.mark.parametrize("n_nodes", [64, 128, 256])
@pytest.mark.parametrize("name", list(_PBOUND_FUNCTIONS))
def test_pbound_stft_matches_quadrature_pointwise(name, n_nodes):
    f, rule = _PBOUND_FUNCTIONS[name], gauss_hermite(n_nodes)
    u, inside = _pbound_grid(8.0)
    vals = np.empty((u.size, u.size), dtype=np.complex128)
    for rows, cols, block in _stft_blocks(f, rule, u):
        vals[rows, cols] = block
    s, t = np.meshgrid(u, u, indexing="ij")
    z = (s + 1j * t)[inside]
    want = np.abs(bargmann_quadrature(f, z, rule)) * np.exp(-np.abs(z) ** 2 / 2.0)
    got = GAUSS_CONST * np.abs(vals[inside])
    # sum_k |terms| at z = s + it depends on s alone
    terms = np.exp(-((u[:, None] - rule.nodes[None, :]) ** 2)) @ np.abs(
        rule.flat_weights() * f(rule.nodes))
    scale = GAUSS_CONST * np.broadcast_to(terms[:, None], vals.shape)[inside]
    assert np.max(np.abs(got - want) / scale) <= 5e-14


@pytest.mark.parametrize("radius, m", [(0.0, 0), (0.7, 7), (6.0, 60), (8.0, 80), (8.05, 80)])
def test_pbound_grid_is_symmetric_and_holds_the_real_axis(radius, m):
    u, inside = _pbound_grid(radius)
    assert u.size == 2 * m + 1 and u[m] == 0.0
    assert np.array_equal(u, -u[::-1])
    assert np.array_equal(inside, inside.T)
    assert np.array_equal(inside, inside[::-1]) and np.array_equal(inside, inside[:, ::-1])
    assert inside[:, m].all()  # the real axis, ends included
    s, t = np.meshgrid(u, u, indexing="ij")
    assert np.all(np.abs(s + 1j * t)[inside] <= radius * (1 + 1e-12))


def test_plane_rule_too_coarse_boundary():
    # the 64 x 64 plane rule takes F up to degree sqrt(4096) = 64, read from
    # F's last nonzero coefficient: trailing zeros do not count
    rng = np.random.default_rng(5)
    cases = [(FockVector(rng.standard_normal(65)), False), (FockVector(rng.standard_normal(66)), True),
             (FockVector.basis(64, 200), False), (FockVector.basis(65, 65), True)]
    for F, warns in cases:
        got = _accuracy_warnings(lambda: inverse_bargmann_quadrature(F, 0.3, PLANE))
        assert bool(got) == warns


def _dense_inverse(F, x, plane):
    """The inverse integral summed against one dense (points x plane nodes) kernel."""
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    zb = np.conj(plane.nodes)
    fz = plane.weights * evaluate(F, plane.nodes) * np.exp(-(zb**2) / 2.0)
    kernel = np.exp(2.0 * np.outer(xs, zb) - (xs**2)[:, None])
    return GAUSS_CONST * kernel @ fz


@pytest.mark.parametrize("m", [8, 16, 32, 64])
def test_contracted_inverse_matches_dense_sum(m):
    plane = gauss_hermite_plane(m)
    xs = np.linspace(-6.0, 6.0, 41)
    rng = np.random.default_rng(m)
    vectors = [FockVector.basis(n, m) for n in (0, 1, m // 2, m)]
    vectors.append(FockVector(rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)))
    for F in vectors:
        want = _dense_inverse(F, xs, plane)
        got = inverse_bargmann_quadrature(F, xs, plane)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        one = inverse_bargmann_quadrature(F, 0.7, plane)
        assert isinstance(one, complex)
        assert abs(one - _dense_inverse(F, 0.7, plane)[0]) <= 1e-13 * np.max(np.abs(want))


def test_inverse_needs_the_line_factor():
    bare = QuadratureRule(PLANE.nodes, PLANE.weights, "plane")
    with pytest.raises(ValueError):
        inverse_bargmann_quadrature(FockVector.basis(0, 4), 0.0, bare)


def test_inverse_integral_values():
    assert abs(inverse_bargmann_quadrature(FockVector.basis(0, 4), 0.4, PLANE)
               - hermite_function(0, 0.4)) < 1e-8
    assert abs(inverse_bargmann_quadrature(FockVector.basis(2, 4), 0.0, PLANE)
               - hermite_function(2, 0.0)) < 1e-8


def test_round_trip_through_both_integrals():
    # B applied to the inverse integral of e_1, evaluated at z = 1
    f = lambda x: inverse_bargmann_quadrature(FockVector.basis(1, 4), x, PLANE)
    got = bargmann_quadrature(f, 1.0, RULE)
    assert abs(got - evaluate(FockVector.basis(1, 4), 1.0)) < 1e-6


def test_inverse_of_coefficients_reproduces_hermite_functions():
    # inverse integral after the exact coefficient map, for indices <= 8
    xs = np.linspace(-2.5, 2.5, 11)
    for n in range(9):
        F = bargmann_coeff(LineVector.basis(n, 10))
        got = inverse_bargmann_quadrature(F, xs, PLANE)
        assert np.max(np.abs(got - hermite_function(n, xs))) < 1e-6


def test_pipeline_cross_validation():
    # quadrature path vs exact coefficient path on a smooth span
    pipe = BargmannPipeline.default(32)
    rng = np.random.default_rng(3)
    coeffs = np.zeros(33, dtype=complex)
    coeffs[:9] = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    f = LineVector(coeffs)
    zs = (rng.standard_normal(20) + 1j * rng.standard_normal(20)) * (2.0 / math.sqrt(2))
    zs = zs[np.abs(zs) <= 2.0]
    quad_vals = bargmann_quadrature(f, zs, pipe.line_rule)
    assert np.max(np.abs(quad_vals - evaluate(bargmann_coeff(f), zs))) < 1e-7


def test_sup_norm_vacuum():
    assert abs(fock_sup_norm(FockVector.basis(0, 4), 4.0, 0.05) - 1.0) < 1e-12


def test_sup_norm_first_excited():
    # |z| e^{-|z|^2/2} maximized at |z| = 1
    got = fock_sup_norm(FockVector.basis(1, 4), 4.0, 0.02)
    assert abs(got - math.exp(-0.5)) < 1e-4


def test_sup_norm_of_truncated_squared_exponential():
    # coefficients of c sqrt(pi) e^{z^2/2}: weighted modulus constant on R
    N = 64
    c = np.zeros(N + 1, dtype=complex)
    c[0] = 1.0
    for k in range(1, N // 2 + 1):
        # c_{2k} = (1/2)^k sqrt((2k)!) / k!
        c[2 * k] = c[2 * k - 2] * 0.5 * math.sqrt(2 * k * (2 * k - 1)) / k
    F = FockVector(GAUSS_CONST * math.sqrt(math.pi) * c)
    want = GAUSS_CONST * math.sqrt(math.pi)
    got = fock_sup_norm(F, math.sqrt(2 * N), 0.05)
    assert abs(got - want) / want < 0.02


def test_pbound_constant_attains_equality():
    # |B1(s + it)| exp(-|z|^2/2) = c sqrt(pi) exp(-t^2), attained on the real axis
    for n_nodes in (64, 128, 256):
        for radius in (6.0, 8.0):
            lhs, rhs = verify_pbound(lambda x: np.ones_like(x), gauss_hermite(n_nodes), grid_radius=radius)
            assert abs(lhs / rhs - 1.0) <= 1e-14, (n_nodes, radius)


def test_pbound_sign_respects_bound():
    lhs, rhs = verify_pbound(np.sign, RULE, grid_radius=8.0)
    assert lhs <= rhs * (1 + 1e-3)


def test_pbound_gauss():
    lhs, rhs = verify_pbound(gauss, RULE, grid_radius=8.0)
    assert abs(lhs - 1.0) < 1e-6
    assert abs(rhs - math.sqrt(2.0)) < 1e-12
    assert lhs <= rhs

