import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from fockdict.bargmann import bargmann_quadrature, verify_pbound
from fockdict.hermite import (
    GAUSS_CONST,
    LineVector,
    QuadratureRule,
    composite_legendre,
    gauss_hermite,
    gauss_hermite_plane,
    hermite_function,
    hermite_functions,
    interval_coeffs,
    product_rule,
    project_line,
)
from fockdict.operators import fourier_line_quadrature


def test_hermite_function_values():
    assert abs(hermite_function(0, 0.0) - GAUSS_CONST) < 1e-15
    assert hermite_function(1, 0.0) == 0.0


def test_hermite_function_parity():
    x = np.linspace(0.2, 3.0, 7)
    for n in range(6):
        assert np.allclose(hermite_function(n, -x), (-1) ** n * hermite_function(n, x))


@pytest.mark.parametrize("x", [0.7, np.array(0.7), np.zeros(0), np.linspace(-2.0, 2.0, 5),
                               np.linspace(-2.0, 2.0, 6).reshape(2, 3)],
                         ids=["()", "0-d", "(0,)", "(5,)", "(2, 3)"])
def test_hermite_functions_keep_the_shape_of_the_points(x):
    table = hermite_functions(4, x)
    assert table.shape == (5,) + np.shape(x)
    assert np.shape(hermite_function(3, x)) == np.shape(x)
    flat = hermite_functions(4, np.ravel(x))
    assert np.array_equal(table.reshape(5, -1), flat)


def test_hermite_function_large_argument_underflows_quietly():
    vals = hermite_function(10, np.array([35.0]))
    assert np.isfinite(vals).all()


def _recurrence_reference(n_max, x):
    """The three-term recurrence with every factor formed inside the loop."""
    out = np.zeros((n_max + 1, x.size))
    out[0] = GAUSS_CONST * np.exp(-(x**2))
    if n_max >= 1:
        out[1] = 2.0 * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = 2.0 * x / np.sqrt(n + 1) * out[n] - np.sqrt(n / (n + 1)) * out[n - 1]
    return out


@pytest.mark.parametrize("n_max", [0, 1, 2, 64, 128, 200])
def test_hoisted_recurrence_is_bit_identical(n_max):
    x = np.concatenate([gauss_hermite(256).nodes, np.linspace(-30.0, 30.0, 61)])
    assert np.array_equal(hermite_functions(n_max, x), _recurrence_reference(n_max, x))


def test_gauss_hermite_one_node():
    rule = gauss_hermite(1)
    assert rule.nodes[0] == 0.0
    assert abs(rule.weights[0] - math.sqrt(math.pi)) < 1e-15


def test_gauss_hermite_two_nodes():
    rule = gauss_hermite(2)
    assert np.allclose(np.sort(rule.nodes), [-1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert np.allclose(rule.weights * np.exp(-rule.nodes**2), math.sqrt(math.pi) / 2)


@pytest.mark.parametrize("n_nodes", [1, 2, 7, 64, 128, 256])
def test_weights_sum_to_sqrt_pi(n_nodes):
    # the weights are against dx; against exp(-x^2) they read w_k exp(-x_k^2)
    rule = gauss_hermite(n_nodes)
    assert abs(np.sum(rule.weights * np.exp(-rule.nodes**2)) - math.sqrt(math.pi)) < 1e-14


def _mp_christoffel_weight(n_nodes: int, x: float) -> float:
    """1 / sum_j psi_j(x)^2 over j < n_nodes to 40 digits, psi_j the weight-one Hermite functions."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        prev, psi = mpmath.mpf(0), mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-x * x / 2)
        total = psi**2
        for j in range(n_nodes - 1):
            step = x * mpmath.sqrt(mpmath.mpf(2) / (j + 1)) * psi
            prev, psi = psi, step - mpmath.sqrt(mpmath.mpf(j) / (j + 1)) * prev
            total += psi**2
        return float(1 / total)


@pytest.mark.parametrize("n_nodes", [64, 256])
def test_weights_match_the_christoffel_sum_to_40_digits(n_nodes):
    # sampled nodes and both extremes, where the weights against exp(-x^2)
    # fall to 5e-211 on 256 nodes while the weights against dx stay above 0.13
    rule = gauss_hermite(n_nodes)
    for k in sorted({0, 1, 2, n_nodes // 4, n_nodes // 2, 3 * n_nodes // 4, n_nodes - 2, n_nodes - 1}):
        want = _mp_christoffel_weight(n_nodes, rule.nodes[k])
        assert abs(rule.weights[k] - want) <= 1e-13 * want, k


@pytest.mark.parametrize("n_nodes", [1, 2, 9, 64, 128, 256])
def test_gauss_hermite_is_cached_and_unchanged(n_nodes):
    rule = gauss_hermite(n_nodes)
    assert gauss_hermite(n_nodes) is rule
    fresh = gauss_hermite.__wrapped__(n_nodes)
    for name in ("nodes", "weights"):
        assert np.array_equal(getattr(rule, name), getattr(fresh, name))


def test_plane_rule_is_cached_and_keeps_its_line_factor():
    plane = gauss_hermite_plane(16)
    assert gauss_hermite_plane(16) is plane
    assert plane.line is gauss_hermite(16)
    fresh = gauss_hermite_plane.__wrapped__(16)
    assert np.array_equal(plane.nodes, fresh.nodes)
    assert np.array_equal(plane.weights, fresh.weights)
    u, v = np.meshgrid(plane.line.nodes, plane.line.nodes, indexing="ij")
    assert np.array_equal(plane.nodes, (u + 1j * v).ravel())


@pytest.mark.parametrize("name", ["nodes", "weights"])
def test_cached_rule_is_read_only(name):
    rule = gauss_hermite(8)
    with pytest.raises(ValueError):
        getattr(rule, name)[0] = 99.0
    assert np.array_equal(gauss_hermite(8).nodes, gauss_hermite.__wrapped__(8).nodes)


def test_rule_copies_its_arrays():
    nodes = np.array([-1.0, 1.0])
    rule = QuadratureRule(nodes, np.ones(2), "legendre")
    nodes[0] = 5.0
    assert rule.nodes[0] == -1.0


def test_gauss_hermite_bounds():
    with pytest.raises(ValueError):
        gauss_hermite(0)
    with pytest.raises(ValueError):
        gauss_hermite(729)


def test_gauss_hermite_at_the_node_cap():
    # 728 nodes is the largest rule whose outermost node x keeps
    # psi_0(x) = pi^{-1/4} exp(-x^2/2) a normal double
    rule = gauss_hermite(728)
    x, w = rule.nodes, rule.weights
    assert np.all(np.isfinite(w)) and np.all(w > 0.0)
    assert abs(np.sum(w * np.exp(-(x**2))) / math.sqrt(math.pi) - 1.0) <= 1e-14
    assert np.max(np.abs(x + x[::-1])) <= 1e-13 * x[-1]
    for k in (0, 1, 726, 727):
        want = _mp_christoffel_weight(728, x[k])
        assert abs(w[k] - want) <= 1e-13 * want, k
    tiny = np.finfo(np.float64).tiny
    assert np.pi**-0.25 * np.exp(-x[-1] ** 2 / 2.0) >= tiny
    # one node more and psi_0 at the outermost node is subnormal
    off = np.sqrt(np.arange(1, 729) / 2.0)
    x_next = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))[-1]
    assert np.pi**-0.25 * np.exp(-x_next**2 / 2.0) < tiny


def test_product_rule_is_the_hermite_rule_rescaled():
    rule, line = product_rule(40), gauss_hermite(40)
    assert product_rule(40) is rule and rule.weight == "product"
    assert np.array_equal(rule.nodes, line.nodes / math.sqrt(2.0))
    assert np.array_equal(rule.weights, line.weights / math.sqrt(2.0))
    with pytest.raises(ValueError):
        product_rule(729)


def test_product_rule_integrates_hermite_products_exactly():
    # h_p h_q is a polynomial of degree p + q times exp(-2x^2): 40 nodes
    # are exact for p + q <= 79, so the Gram matrix of h_0..h_39 is I
    rule = product_rule(40)
    H = rule.hermite_table(39)
    assert np.max(np.abs((H * rule.weights) @ H.T - np.eye(40))) <= 1e-13
    v = project_line(lambda x: hermite_functions(5, x)[5], 20, product_rule(21))
    assert np.max(np.abs(v.coeffs - np.eye(21)[5])) <= 1e-14


def test_even_moment_exactness():
    # int x^{2k} e^{-x^2} = (2k-1)!! sqrt(pi) / 2^k for 2k <= 2n-1
    rule = gauss_hermite(40)
    for k in (0, 1, 5, 17, 39):
        got = float(np.sum(rule.weights * np.exp(-rule.nodes**2) * rule.nodes ** (2 * k)))
        dfact = float(np.prod(np.arange(2 * k - 1, 0, -2, dtype=float))) if k else 1.0
        want = dfact * math.sqrt(math.pi) / 2**k
        assert abs(got - want) / want < 1e-12


def test_norm_of_h2_by_quadrature():
    rule = gauss_hermite(64)
    vals = hermite_function(2, rule.nodes)
    got = float(np.sum(rule.weights * vals**2))
    assert abs(got - 1.0) < 1e-12


def test_orthonormality_matrix():
    rule = gauss_hermite(128)
    basis = hermite_functions(20, rule.nodes)
    gram = (basis * rule.weights) @ basis.T
    assert np.max(np.abs(gram - np.eye(21))) < 1e-10


def test_project_line_picks_out_basis():
    rule = gauss_hermite(128)
    v = project_line(lambda x: hermite_function(3, x), 16, rule)
    assert abs(v.coeffs[3] - 1.0) < 1e-10
    rest = np.delete(v.coeffs, 3)
    assert np.max(np.abs(rest)) < 1e-10


def test_project_line_gauss():
    rule = gauss_hermite(128)
    v = project_line(lambda x: GAUSS_CONST * np.exp(-(x**2)), 12, rule)
    assert abs(v.coeffs[0] - 1.0) < 1e-12
    assert np.max(np.abs(v.coeffs[1:])) < 1e-12


def _packet(x):
    return np.exp(2j * np.pi * 0.3 * x) * GAUSS_CONST * np.exp(-((x - 0.7) ** 2))


def test_project_line_is_bit_identical_to_a_fresh_table():
    # one rule, degrees asked for out of order: the table grows, shrinks to
    # slices and grows again, and every projection equals the uncached sum
    rule = gauss_hermite.__wrapped__(256)
    fw = rule.weights * _packet(rule.nodes)
    for N in (200, 64, 255, 0, 128):
        got = project_line(_packet, N, rule).coeffs
        assert np.array_equal(got, hermite_functions(N, rule.nodes) @ fw), N
        assert np.array_equal(rule.hermite_table(N), hermite_functions(N, rule.nodes)), N


def test_rule_tables_are_read_only_and_shared():
    rule = gauss_hermite(8)
    table = rule.hermite_table(5)
    assert table.shape == (6, 8)
    with pytest.raises(ValueError):
        table[0, 0] = 99.0
    assert np.shares_memory(rule.hermite_table(2), rule.hermite_table(5))
    with pytest.raises(ValueError):
        rule.hermite_table(-1)
    with pytest.raises(ValueError):
        gauss_hermite_plane(4).hermite_table(2)


def test_projection_keeps_one_small_table_per_rule():
    # 256 x 256 doubles are 0.5 MiB; a table per degree would hold 1.7 MiB
    rule = gauss_hermite.__wrapped__(256)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for N in (64, 128, 200, 255):
            project_line(_packet, N, rule)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rule.hermite_table(255).base.shape == (256, 256)
    assert kept <= 0.6 * 2**20


def test_project_box_first_coefficient():
    v = interval_coeffs(0.0, 1.0, 16)
    rule = composite_legendre(0.0, 1.0, 4)
    assert abs(v.coeffs[0] - rule.weights @ hermite_function(0, rule.nodes)) < 1e-15
    assert v.coeffs[0] == GAUSS_CONST * math.sqrt(math.pi) / 2 * math.erf(1.0)


@pytest.mark.parametrize("N", [16, 64])
def test_projection_tail_ratio_warning_boundary(N):
    # f = h_0 + t h_N has tail ratio t / sqrt(1 + t^2): just under and just
    # over 1e-6, the figure of resolution, and neither side warns
    rule = gauss_hermite(256)
    for scale in (1.0 - 1e-6, 1.0 + 1e-6):
        t = 1e-6 * scale
        f = lambda x: hermite_function(0, x) + t * hermite_function(N, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = project_line(f, N, rule)
        assert abs(v.tail_ratio - t / math.sqrt(1.0 + t * t)) < 1e-15
        assert (v.tail_ratio > 1e-6) == (scale > 1.0)


def test_tail_ratio_recorded():
    # the box window is discontinuous, so its projection is under-resolved at
    # every degree; the closed-form coefficients carry no ratio
    v = project_line(lambda x: ((0.0 <= x) & (x < 1.0)).astype(float), 24, gauss_hermite(96))
    assert v.tail_ratio is not None and v.tail_ratio > 1e-6
    assert interval_coeffs(0.0, 1.0, 24).tail_ratio is None


def _mp_interval(n: int, a: float, b: float):
    """int_a^b h_n dx to 40 digits: Gauss-Legendre on panels of a few oscillations each."""
    with mpmath.workdps(40):
        c = (2 / mpmath.pi) ** mpmath.mpf(0.25) / mpmath.sqrt(mpmath.mpf(2) ** n * mpmath.factorial(n))
        h = lambda x: c * mpmath.exp(-x * x) * mpmath.hermite(n, mpmath.sqrt(2) * x)
        panels = int((b - a) * math.sqrt(2 * n + 1) / 16) + 2
        return mpmath.quad(h, mpmath.linspace(a, b, panels), method="gauss-legendre")


@pytest.mark.parametrize("a, b, N", [(0.0, 1.0, 32), (0.0, 1.0, 120), (0.0, 1.0, 512), (0.0, 1.0, 2000),
                                     (-1.5, 2.0, 128), (0.3, 0.9, 200), (3.0, 7.0, 128)])
def test_interval_coeffs_match_mpmath(a, b, N):
    v = interval_coeffs(a, b, N).coeffs
    assert not np.any(v.imag)
    for n in sorted({0, 1, 2, 3, N // 2 + 1, N}):
        assert abs(v[n].real - float(_mp_interval(n, a, b))) <= 5e-16, n


def test_interval_coeffs_are_prefix_stable():
    full = interval_coeffs(-0.4, 1.3, 300).coeffs
    for M in (0, 1, 2, 17, 299):
        assert interval_coeffs(-0.4, 1.3, M).coeffs.tobytes() == full[: M + 1].tobytes()


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
                                  (0.0, math.nan)])
def test_interval_coeffs_need_finite_ordered_ends(a, b):
    with pytest.raises(ValueError, match="finite ends"):
        interval_coeffs(a, b, 8)


_LINE_CONSUMERS = {
    "project_line": lambda rule: project_line(np.ones_like, 4, rule),
    "bargmann_quadrature": lambda rule: bargmann_quadrature(np.ones_like, 0.5, rule),
    "fourier_line_quadrature": lambda rule: fourier_line_quadrature(np.ones_like, 0.5, rule),
    "verify_pbound": lambda rule: verify_pbound(np.ones_like, rule, grid_radius=1.0),
}


@pytest.mark.parametrize("kind", ["plane", "legendre"])
@pytest.mark.parametrize("consumer", list(_LINE_CONSUMERS))
def test_line_consumers_refuse_other_rules(consumer, kind):
    # every line consumer sums against dx on Gauss-Hermite nodes; a plane or
    # Legendre rule would be summed silently, so each refuses it by name
    rule = gauss_hermite_plane(8) if kind == "plane" else composite_legendre(0.0, 1.0, 1)
    with pytest.raises(ValueError, match=f"{consumer} needs a Gauss-Hermite rule"):
        _LINE_CONSUMERS[consumer](rule)


@pytest.mark.parametrize("consumer", list(_LINE_CONSUMERS))
def test_line_consumers_accept_the_product_rule(consumer):
    _LINE_CONSUMERS[consumer](product_rule(8))


def test_legendre_rule_matches_leggauss():
    # numpy.polynomial is loaded here only as the reference
    xg, wg = np.polynomial.legendre.leggauss(32)
    rule = composite_legendre(-1.0, 1.0, 1)
    assert np.max(np.abs(rule.nodes - xg)) <= 1e-15
    assert np.max(np.abs(rule.weights - wg)) <= 1e-15


def test_legendre_rule_integrates_monomials_exactly():
    rule = composite_legendre(0.0, 1.0, 1)
    for k in range(64):
        assert abs(rule.weights @ rule.nodes**k * (k + 1) - 1.0) <= 2e-15, k


@pytest.mark.parametrize("a, b", [(5.0, 6.0), (6.0, 7.0), (-7.0, -6.0), (3.0, 7.0)])
def test_interval_coeffs_keep_relative_accuracy_in_the_tail(a, b):
    # erf b - erf a cancels here (on [6, 7] it is 0); erfc differences do not
    want = _mp_interval(0, a, b)
    assert abs(interval_coeffs(a, b, 4).coeffs[0].real - float(want)) <= 1e-15 * float(want)


def test_composite_legendre_integrates_polynomial():
    rule = composite_legendre(0.0, 1.0, 4)
    got = float(np.sum(rule.weights * rule.nodes**5))
    assert abs(got - 1.0 / 6.0) < 1e-14


def test_plane_rule_normalization():
    plane = gauss_hermite_plane(16)
    assert abs(np.sum(plane.weights) - 1.0) < 1e-13
    # first nontrivial radial moment of the Gaussian measure
    assert abs(np.sum(plane.weights * np.abs(plane.nodes) ** 2) - 1.0) < 1e-12


def test_line_vector_checks_its_coefficients_as_a_fock_vector_does():
    for bad in ([], np.zeros((2, 3)), 1.0):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            LineVector(bad)
    real = np.array([1.0, -2.0])
    v = LineVector(real)
    assert v.coeffs.dtype == np.complex128 and not v.coeffs.flags.writeable
    real[0] = 5.0  # the vector holds its own copy
    assert v.coeffs[0] == 1.0


def test_line_vector_eval():
    v = LineVector(np.array([0.0, 1.0], dtype=complex))
    xs = np.array([0.3, -0.7])
    assert np.allclose(v(xs), hermite_function(1, xs))
