import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fockdict.hermite import (
    GAUSS_CONST,
    LineVector,
    QuadratureRule,
    composite_legendre,
    default_nodes,
    gauss_hermite,
    gauss_hermite_plane,
    hermite_function,
    hermite_functions,
    project_line,
    project_line_interval,
)


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
    assert np.allclose(rule.weights, math.sqrt(math.pi) / 2)


@pytest.mark.parametrize("n_nodes", [1, 2, 7, 64, 128, 256])
def test_weights_sum_to_sqrt_pi(n_nodes):
    rule = gauss_hermite(n_nodes)
    assert abs(rule.weights.sum() - math.sqrt(math.pi)) < 1e-14


@pytest.mark.parametrize("n_nodes", [1, 2, 9, 64, 128, 256])
def test_gauss_hermite_is_cached_and_unchanged(n_nodes):
    rule = gauss_hermite(n_nodes)
    assert gauss_hermite(n_nodes) is rule
    fresh = gauss_hermite.__wrapped__(n_nodes)
    for name in ("nodes", "weights", "log_weights"):
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


@pytest.mark.parametrize("name", ["nodes", "weights", "log_weights"])
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
        gauss_hermite(257)


def test_even_moment_exactness():
    # int x^{2k} e^{-x^2} = (2k-1)!! sqrt(pi) / 2^k for 2k <= 2n-1
    rule = gauss_hermite(40)
    for k in (0, 1, 5, 17, 39):
        got = float(np.sum(rule.weights * rule.nodes ** (2 * k)))
        dfact = float(np.prod(np.arange(2 * k - 1, 0, -2, dtype=float))) if k else 1.0
        want = dfact * math.sqrt(math.pi) / 2**k
        assert abs(got - want) / want < 1e-12


def test_norm_of_h2_by_quadrature():
    rule = gauss_hermite(64)
    vals = hermite_function(2, rule.nodes)
    got = float(np.sum(rule.flat_weights() * vals**2))
    assert abs(got - 1.0) < 1e-12


def test_orthonormality_matrix():
    rule = gauss_hermite(128)
    basis = hermite_functions(20, rule.nodes)
    gram = (basis * rule.flat_weights()) @ basis.T
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
    fw = np.exp(rule.log_weights + rule.nodes**2) * _packet(rule.nodes)
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
    with pytest.raises(ValueError):
        rule.flat_weights()[0] = 99.0
    assert rule.flat_weights() is rule.flat_weights()
    assert np.array_equal(rule.flat_weights(), np.exp(rule.log_weights + rule.nodes**2))
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
    v = project_line_interval(lambda x: np.ones_like(x), 16, (0.0, 1.0))
    want = GAUSS_CONST * math.sqrt(math.pi) / 2 * math.erf(1.0)
    assert abs(v.coeffs[0] - want) < 1e-8


@pytest.mark.parametrize("N", [16, 64])
def test_projection_tail_ratio_warning_boundary(N):
    # f = h_0 + t h_N has tail ratio t / sqrt(1 + t^2): just under and just
    # over 1e-6, the figure of resolution, and neither side warns
    rule = gauss_hermite(default_nodes(N))
    for scale in (1.0 - 1e-6, 1.0 + 1e-6):
        t = 1e-6 * scale
        f = lambda x: hermite_function(0, x) + t * hermite_function(N, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = project_line(f, N, rule)
        assert abs(v.tail_ratio - t / math.sqrt(1.0 + t * t)) < 1e-15
        assert (v.tail_ratio > 1e-6) == (scale > 1.0)


def test_tail_ratio_recorded():
    v = project_line_interval(lambda x: np.ones_like(x), 24, (0.0, 1.0))
    assert v.tail_ratio is not None and v.tail_ratio > 1e-6


def test_composite_legendre_integrates_polynomial():
    rule = composite_legendre(0.0, 1.0, 4)
    got = float(np.sum(rule.weights * rule.nodes**5))
    assert abs(got - 1.0 / 6.0) < 1e-14


def test_plane_rule_normalization():
    plane = gauss_hermite_plane(16)
    assert abs(np.sum(plane.weights) - 1.0) < 1e-13
    # first nontrivial radial moment of the Gaussian measure
    assert abs(np.sum(plane.weights * np.abs(plane.nodes) ** 2) - 1.0) < 1e-12


def test_line_vector_eval():
    v = LineVector(np.array([0.0, 1.0], dtype=complex))
    xs = np.array([0.3, -0.7])
    assert np.allclose(v(xs), hermite_function(1, xs))
