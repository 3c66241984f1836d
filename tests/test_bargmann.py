import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fockdict.bargmann import (
    _BLOCK,
    _pbound_grid,
    _polar_grid,
    _stft_blocks,
    bargmann_coeff,
    bargmann_quadrature,
    fock_sup_norm,
    inverse_bargmann_quadrature,
    verify_pbound,
)
from fockdict.errors import AccuracyWarning
from fockdict.fock import FockVector, evaluate
from fockdict.gabor import box_window_fock
from fockdict.hermite import (
    GAUSS_CONST,
    LineVector,
    QuadratureRule,
    gauss_hermite,
    gauss_hermite_plane,
    hermite_function,
    hermite_functions,
    product_rule,
    project_line,
)
from fockdict.operators import fourier_line_quadrature
from fockdict.singular import hilbert_symbol

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


@pytest.mark.parametrize("N", [64, 128, 512])
def test_pipeline_line_rule_reads_h_n_back_as_e_n(N):
    # bargmann_coeff sends h_n to e_n exactly; a projection on a line rule
    # adds only that rule's error. h_n h_m carries exp(-2x^2), so
    # product_rule(N + 1) is exact for every n, m <= N; gauss_hermite(256),
    # a rule for exp(-x^2), misses by 0.131 at N = 128 and 0.504 at N = 512
    rule = product_rule(N + 1)
    err = 0.0
    for n in range(N + 1):
        F = bargmann_coeff(project_line(lambda x, n=n: hermite_functions(n, x)[n], N, rule))
        err = max(err, np.max(np.abs(F.coeffs - np.eye(N + 1)[n])))
    assert err <= 2e-12, err


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
    fx = rule.weights * np.exp(-rule.nodes**2) * np.asarray(f(rule.nodes), dtype=np.complex128)
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


def _looped_quadrature(f, z, rule):
    """``bargmann_quadrature`` with each block's node window certified on its own.

    The reference for the one-pass certification: per block, the end values
    g_k(s0), g_k(s1) of g_k(s) = log|w_k e^{-x_k^2} f(x_k)| + 2 s x_k, the
    floor max_k min(...) + log(eps / n_nodes), every node kept without finite
    data or finite ends, and the kernel exp(2 z x - z^2/2) formed out of place.
    """
    zs = np.asarray(z, dtype=np.complex128).ravel()
    x = rule.nodes
    fx = rule.weights * np.exp(-(x**2)) * np.asarray(f(x), dtype=np.complex128)
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(fx)) if np.all(np.isfinite(fx)) else None
    order = np.argsort(zs.real)
    vals = np.empty(zs.shape, dtype=np.complex128)
    for start in range(0, zs.size, _BLOCK):
        idx = order[start : start + _BLOCK]
        zb = zs[idx]
        s0, s1 = zb.real[0], zb.real[-1]
        lo, hi = 0, x.size
        if log_mag is not None and np.isfinite(s0) and np.isfinite(s1):
            ends = log_mag + 2.0 * np.outer((s0, s1), x)
            floor = ends.min(axis=0).max() + np.log(np.finfo(np.float64).eps / x.size)
            keep = np.flatnonzero(ends.max(axis=0) >= floor)
            lo, hi = keep[0], keep[-1] + 1
        kernel = np.exp(2.0 * np.outer(zb, x[lo:hi]) - (zb**2 / 2.0)[:, None])
        vals[idx] = GAUSS_CONST * (kernel @ fx[lo:hi])
    return vals


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_nodes", [64, 256])
@pytest.mark.parametrize("count", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 300])
def test_block_windows_equal_the_per_block_loop(count, n_nodes):
    rule = gauss_hermite(n_nodes)
    rng = np.random.default_rng(count + n_nodes)
    zs = rng.uniform(-5.0, 5.0, count) + 1j * rng.uniform(-1.0, 1.0, count) * n_nodes / 8.0
    for f in _WINDOW_INPUTS + [np.zeros_like]:
        assert _same_bits(bargmann_quadrature(f, zs, rule), _looped_quadrature(f, zs, rule))


def test_block_windows_with_nonfinite_points_or_data_equal_the_per_block_loop():
    # sorted by Re z, the first block starts at -inf and the last ends at +inf
    # and NaN, so both keep every node; the middle block has finite ends (one
    # of its points has a NaN imaginary part) and keeps a narrow window
    zs = np.linspace(-4.0, 4.0, 2 * _BLOCK + 44) + 0.5j
    zs[[3, 200, 290, 291]] = [-np.inf + 0j, 1.0 + np.nan * 1j, np.nan + 0j, np.inf + 1j]
    with np.errstate(all="ignore"):
        for f in (gauss, _packet(1.3, -0.4), lambda x: np.where(np.abs(x) < 1.0, np.inf, gauss(x))):
            got, want = bargmann_quadrature(f, zs, RULE), _looped_quadrature(f, zs, RULE)
            assert np.isnan(want).any() and _same_bits(got, want)


def test_block_windows_past_the_oscillation_budget_equal_the_per_block_loop():
    rule = gauss_hermite(64)
    zs = np.linspace(-3.0, 3.0, _BLOCK + 9) + 1j * np.linspace(-12.0, 12.0, _BLOCK + 9)
    with pytest.warns(AccuracyWarning, match="oscillation budget"):
        got = bargmann_quadrature(gauss, zs, rule)
    assert _same_bits(got, _looped_quadrature(gauss, zs, rule))


def _looped_polar_grid(radius, step):
    """``_polar_grid`` ring by ring, each ring's angles from ``np.linspace``."""
    radii = np.arange(0.0, radius + step / 2.0, step)
    pts = [np.array([0.0 + 0.0j])]
    for r in radii[1:]:
        n_theta = max(16, int(np.ceil(2.0 * np.pi * r / step)))
        theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
        pts.append(r * np.exp(1j * theta))
    return np.concatenate(pts)


@pytest.mark.parametrize("radius, step", [(0.0, 0.2), (0.09, 0.2), (0.11, 0.2), (math.sqrt(128), 0.15),
                                          (math.sqrt(128), 0.2137), (math.sqrt(128), 0.3)])
def test_polar_grid_equals_the_per_ring_loop(radius, step):
    got = _polar_grid(radius, step)
    assert _same_bits(got, _looped_polar_grid(radius, step))
    assert got[0] == 0.0 and (got.size == 1) == (radius < step / 2.0)


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
        rule.weights * f(rule.nodes))
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


_POINT_EVALUATORS = {
    "evaluate": lambda z: evaluate(FockVector([1.0, 0.5j, -0.25]), z),
    "bargmann_quadrature": lambda z: bargmann_quadrature(gauss, z, RULE),
    "inverse_bargmann_quadrature": lambda z: inverse_bargmann_quadrature(FockVector.basis(2, 8), z.real, PLANE),
    "fourier_line_quadrature": lambda z: fourier_line_quadrature(gauss, z.real, RULE),
    "box_window_fock": box_window_fock,
    "LineVector": lambda z: LineVector([1.0, 0.5j, -0.25])(z.real),
    "EntireSymbol": lambda z: hilbert_symbol(9)(z),
}


@pytest.mark.parametrize("shape", [(), (0,), (5,), (2, 3)])
@pytest.mark.parametrize("name", list(_POINT_EVALUATORS))
def test_point_evaluators_return_the_shape_of_their_points(name, shape):
    # each value is the one the flattened points give, bit for bit
    evaluator = _POINT_EVALUATORS[name]
    z = np.asarray(0.3 * np.arange(math.prod(shape)) + 0.1j).reshape(shape)
    got = evaluator(z)
    assert np.shape(got) == shape
    assert isinstance(got, complex) if shape == () else got.dtype == np.complex128
    assert np.array_equal(np.ravel(got), evaluator(z.ravel()))


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
    rng = np.random.default_rng(3)
    coeffs = np.zeros(33, dtype=complex)
    coeffs[:9] = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    f = LineVector(coeffs)
    zs = (rng.standard_normal(20) + 1j * rng.standard_normal(20)) * (2.0 / math.sqrt(2))
    zs = zs[np.abs(zs) <= 2.0]
    quad_vals = bargmann_quadrature(f, zs, gauss_hermite(256))
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

