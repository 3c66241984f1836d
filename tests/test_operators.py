import cmath
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from fockdict.bargmann import BargmannPipeline, inverse_bargmann_quadrature
from fockdict.errors import AccuracyWarning
from fockdict.fock import FockVector, kernel_vector, log_factorials
from fockdict.gabor import box_frame_gram
from fockdict.hermite import gauss_hermite, gauss_hermite_plane, hermite_function, hermite_functions
from fockdict.operators import (
    OperatorMatrix,
    _weyl_float_digit_loss,
    _weyl_phases,
    _weyl_real,
    _weyl_real_float,
    _weyl_real_laguerre,
    a1_matrix,
    a2_matrix,
    dilation_fock,
    dilation_matrix,
    fourier_fock,
    fourier_line_quadrature,
    ladder_word,
    md_matrices,
    rotation,
    spectral_projection,
    translation_modulation_fock,
    unitarity_residual,
    weyl_interior_block,
    weyl_matrix,
)
from fockdict.singular import exp_linear_symbol, s_phi_matrix


# ----------------------------------------------------------------------
# Fourier as rotation
# ----------------------------------------------------------------------

def test_fourier_eigenvalue_on_basis():
    e3 = FockVector.basis(3, 6)
    assert np.array_equal(fourier_fock(e3).coeffs, (-1j) * e3.coeffs)


def test_fourier_fixed_points_mod_four():
    c = np.zeros(13, dtype=complex)
    c[[0, 4, 8, 12]] = [1.0, -2.0, 0.5j, 1.5]
    f = FockVector(c)
    assert np.array_equal(fourier_fock(f).coeffs, f.coeffs)


def test_fourier_fourth_power_identity():
    rng = np.random.default_rng(0)
    f = FockVector(rng.standard_normal(20) + 1j * rng.standard_normal(20))
    g = f
    for _ in range(4):
        g = fourier_fock(g)
    assert np.array_equal(g.coeffs, f.coeffs)


def test_fourier_inverse():
    rng = np.random.default_rng(1)
    f = FockVector(rng.standard_normal(10) + 1j * rng.standard_normal(10))
    assert np.array_equal(fourier_fock(fourier_fock(f), inverse=True).coeffs, f.coeffs)


def test_rotation_at_quarter_turn_matches_fourier():
    rng = np.random.default_rng(2)
    f = FockVector(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    assert np.max(np.abs(rotation(np.pi / 2, f).coeffs - fourier_fock(f).coeffs)) < 1e-13


def test_rotation_identity_and_isometry():
    rng = np.random.default_rng(3)
    f = FockVector(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    assert np.array_equal(rotation(0.0, f).coeffs, f.coeffs)
    assert abs(rotation(1.234, f).norm() - f.norm()) < 1e-13


def test_spectral_projections():
    e5 = FockVector.basis(5, 8)
    assert np.array_equal(spectral_projection(1, e5).coeffs, e5.coeffs)
    assert spectral_projection(0, e5).norm() == 0.0
    rng = np.random.default_rng(4)
    f = FockVector(rng.standard_normal(21) + 1j * rng.standard_normal(21))
    total = sum(spectral_projection(k, f).coeffs for k in range(4))
    assert np.array_equal(total, f.coeffs)
    recombo = (
        spectral_projection(0, f).coeffs
        + 1j * spectral_projection(1, f).coeffs
        - spectral_projection(2, f).coeffs
        - 1j * spectral_projection(3, f).coeffs
    )
    assert np.array_equal(recombo, fourier_fock(f).coeffs)
    for j in range(4):
        for k in range(4):
            if j != k:
                assert spectral_projection(j, spectral_projection(k, f)).norm() == 0.0


def test_line_fourier_eigenrelation():
    rule = gauss_hermite(128)
    xs = np.linspace(-4.0, 4.0, 33)
    for n in range(7):
        got = fourier_line_quadrature(lambda t: hermite_function(n, t), xs, rule)
        want = (1j**n) * hermite_function(n, xs)
        assert np.max(np.abs(got - want)) < 1e-6


# ----------------------------------------------------------------------
# Weyl operators
# ----------------------------------------------------------------------

def test_weyl_zero_is_identity():
    W = weyl_matrix(0.0, 12)
    assert np.array_equal(W.entries, np.eye(13, dtype=complex))


@pytest.mark.parametrize("a", [complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0)])
def test_weyl_matrix_refuses_a_non_finite_displacement(a):
    # a NaN displacement used to give an all-zero matrix
    with pytest.raises(ValueError, match="finite"):
        weyl_matrix(a, 4)


def test_weyl_first_column_is_kernel():
    a = 0.8 - 0.3j
    W = weyl_matrix(a, 48)
    assert np.max(np.abs(W.entries[:, 0] - kernel_vector(a, 48).coeffs)) < 1e-13


def test_weyl_corner_entry():
    a = 1.1 + 0.2j
    W = weyl_matrix(a, 24)
    assert abs(W.entries[0, 0] - np.exp(-abs(a) ** 2 / 2)) < 1e-14


def test_weyl_entries_against_plane_quadrature():
    a = 1.0 + 0.5j
    W = weyl_matrix(a, 24)
    plane = gauss_hermite_plane(64)
    w = plane.nodes
    for n, p in [(0, 0), (1, 2), (3, 1), (4, 4), (2, 5)]:
        f_disp = (w - a) ** n / math.sqrt(math.factorial(n)) * np.exp(
            w * np.conj(a) - abs(a) ** 2 / 2
        )
        e_p = np.conj(w) ** p / math.sqrt(math.factorial(p))
        got = np.sum(plane.weights * f_disp * e_p)
        assert abs(got - W.entries[p, n]) < 1e-12


def _exact_series_reference(a: complex, N: int) -> np.ndarray:
    """<W_a e_n, e_p> from the double series, summed exactly in integers.

    The phase e^{i theta (n-p)} of a factors out of the alternating j-sum
    e^{-r/2} sqrt(p!/n!) sum_j C(n,j) (-1)^{n-j} r^{(n+p)/2-j} / (p-j)!,
    which ``_exact_series_moduli`` evaluates for r = |a|^2 exactly.
    """
    p, n = np.indices((N + 1, N + 1))
    return _exact_series_moduli(abs(a) ** 2, N) * np.exp(1j * np.angle(a) * (n - p))


@lru_cache(maxsize=None)
def _exact_series_moduli(r: float, N: int) -> np.ndarray:
    """The j-sum over the common denominator Q^T p! as one integer.

    A float r = R/Q is a binary rational, so only the final scaling is
    floated.  Independent of the Laguerre recurrence and slow (O(N^3)
    bigint terms), so kept to N <= 64 and cached per r.
    """
    R, Q = Fraction(r).as_integer_ratio()
    R_pows, Q_pows = [1], [1]
    for _ in range(N):
        R_pows.append(R_pows[-1] * R)
        Q_pows.append(Q_pows[-1] * Q)
    gl = log_factorials(N)
    out = np.zeros((N + 1, N + 1))
    for n in range(N + 1):
        for p in range(N + 1):
            T, odd = divmod(n + p, 2)
            binom, falling, total = 1, 1, 0  # C(n, j), p!/(p-j)!
            for j in range(min(n, p) + 1):
                term = binom * R_pows[T - j] * Q_pows[j] * falling
                total += -term if (n - j) % 2 else term
                binom = binom * (n - j) // (j + 1)
                falling *= p - j
            if total == 0:
                continue
            log_mag = (math.log(abs(total)) - r / 2.0 + 0.5 * odd * math.log(r)
                       - 0.5 * (gl[p] + gl[n]) - T * math.log(Q))
            out[p, n] = math.exp(log_mag) if total > 0 else -math.exp(log_mag)
    return out


def _switch_point(N: int) -> float | None:
    """Smallest r <= N/2 at which weyl_matrix leaves the float path, or None."""
    lo, hi = 0.0, N / 2.0
    if _weyl_float_digit_loss(hi, N) <= 10.0:
        return None
    for _ in range(60):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if _weyl_float_digit_loss(mid, N) <= 10.0 else (lo, mid)
    return hi


def _weyl_by(build, a: complex, N: int, K: int) -> np.ndarray:
    """W_a P_K from one real-stage builder, whichever engine weyl_matrix would pick."""
    return build(abs(a), N, K) * _weyl_phases(a, N, K)


def test_weyl_recurrence_and_float_paths_agree():
    for a, N in [(0.5, 32), (1 + 0.5j, 24)]:
        lag = _weyl_by(_weyl_real_laguerre, complex(a), N, N)
        fl = _weyl_by(_weyl_real_float, complex(a), N, N)
        assert np.max(np.abs(lag - fl)) < 5e-12


@pytest.mark.parametrize("N", [16, 32, 64])
def test_weyl_recurrence_scan_from_switch_boundary(N):
    # From the switch point up to r = N/2 at three angles; a = t (3+4i),
    # t (-4+3i), t (-3-4i) with dyadic t share |a| = 5t exactly, so one
    # exact series per r serves all three.  At N = 16 the float path covers
    # all of r <= N/2, so the scan checks the recurrence engine on its own.
    r0 = _switch_point(N)
    assert (r0 is None) == (N == 16)
    for r in np.linspace(1.0 if r0 is None else r0, N / 2.0, 3):
        t = math.ceil(math.sqrt(r) / 5 * 1024) / 1024
        for unit in (3 + 4j, -4 + 3j, -3 - 4j):
            a = t * unit
            deep = _weyl_float_digit_loss(abs(a) ** 2, N) > 10.0
            assert deep == (r0 is not None)
            with warnings.catch_warnings():  # the scan reaches r = N/2, past resolution
                warnings.simplefilter("ignore", AccuracyWarning)
                W = weyl_matrix(a, N).entries if deep else _weyl_by(_weyl_real_laguerre, a, N, N)
            assert np.max(np.abs(W - _exact_series_reference(a, N))) <= 1e-12, a
            assert np.max(np.abs(W[:, 0] - kernel_vector(a, N).coeffs)) <= 1e-13, a


def test_weyl_recurrence_contracts_at_degree_200():
    a, N = 1 - np.pi * 1j, 200
    W, Wm = weyl_matrix(a, N), weyl_matrix(-a, N)
    P = W.entries @ Wm.entries
    blk = weyl_interior_block(W, Wm)
    assert blk == 99
    assert unitarity_residual(W, blk) <= 1e-10
    assert np.max(np.abs(P[:blk, :blk] - np.eye(blk))) <= 1e-10


def test_weyl_recurrence_survives_underflowing_starts():
    # r ~ 1481: e^{-r/2} underflows double precision, yet the diagonal
    # entries near n ~ r are of order 1e-2; reference values from the
    # Laguerre closed form at 60 digits (mpmath).
    a, N = 38.47 + 1.0j, 1500
    W = _weyl_by(_weyl_real_laguerre, a, N, N)
    ref = {(1480, 1480): -0.00035924653328819255,
           (1500, 1400): -0.012966431290507318 - 0.00782100917988292j,
           (1300, 1499): 0.002595869650290537 - 0.005248553386743745j}
    for (p, n), v in ref.items():
        assert abs(W[p, n] - v) <= 1e-12


@pytest.mark.parametrize("N", [16, 32, 64, 128, 200])
def test_weyl_input_degree_keeps_columns_bit_for_bit(N):
    # one displacement on each side of the engine switch (only the float
    # side at N = 16); the (N+1) x (K+1) block is the full matrix's columns 0..K
    r0 = _switch_point(N)
    radii = [0.5 * (N / 2.0 if r0 is None else r0)] + ([] if r0 is None else [min(1.5 * r0, N / 2.0)])
    for r in radii:
        a = cmath.rect(math.sqrt(r), 2.1)
        with warnings.catch_warnings():  # (32, r = 16) is past resolution
            warnings.simplefilter("ignore", AccuracyWarning)
            full = weyl_matrix(a, N).entries
            for K in (0, 1, N // 2, N):
                W = weyl_matrix(a, N, K).entries
                assert W.shape == (N + 1, K + 1), (a, K)
                assert np.array_equal(W, full[:, : K + 1]), (a, K)
    assert np.array_equal(weyl_matrix(0.0, N, N // 2).entries, np.eye(N + 1, N // 2 + 1))


@pytest.mark.parametrize("K", [-1, 13])
def test_weyl_input_degree_outside_the_matrix_is_refused(K):
    with pytest.raises(ValueError, match="input_degree"):
        weyl_matrix(0.3, 12, K)


@pytest.mark.parametrize("layout", ["C", "F"])
def test_operator_matrix_copies_a_real_block_once(layout):
    # the complex row-major block is the only copy: 2001 x 1001 complex
    # doubles, 30.6 MiB, also from a column-major input (a transposed ladder)
    real = np.asarray(np.random.default_rng(0).standard_normal((2001, 1001)), order=layout)
    tracemalloc.start()
    try:
        A = OperatorMatrix(real)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert A.entries.dtype == np.complex128 and A.entries.flags.c_contiguous
    assert not A.entries.flags.writeable and np.array_equal(A.entries, real)
    assert peak <= 1.05 * A.entries.nbytes, peak / 2**20


def test_one_weyl_column_at_degree_2000_holds_that_column_only():
    # the (2001, 1) block is 32 KiB; the (2001, 2001) matrix would be 61 MiB
    weyl_matrix(40, 2000, input_degree=0)
    tracemalloc.start()
    try:
        W = weyl_matrix(40, 2000, input_degree=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert W.entries.shape == (2001, 1) and (W.degree, W.input_degree) == (2000, 0)
    assert peak < 4 * 2**20
    assert np.max(np.abs(W.entries[:, 0] - kernel_vector(40, 2000).coeffs)) <= 1e-15


@pytest.mark.parametrize("a, N", [(0.8 - 0.3j, 32), (cmath.rect(3.0, 1.1), 64),
                                  (cmath.rect(7.0, 0.3), 128), (1 - np.pi * 1j, 200)])
def test_apply_of_a_column_block_is_the_full_matrix_apply(a, N):
    # both engines; inputs that reach at most K give the full matrix's product
    # bit for bit, and those that reach past K give W_a P_K f
    rng = np.random.default_rng(N)
    full = weyl_matrix(a, N)
    for K in (0, 1, N // 3, N):
        blk = weyl_matrix(a, N, K)
        for reach in sorted({0, K // 2, K, min(K + 3, N)}):
            c = np.zeros(N + 1, dtype=complex)
            c[: reach + 1] = rng.standard_normal(reach + 1) + 1j * rng.standard_normal(reach + 1)
            want = full.apply(FockVector(c[: K + 1]) if reach > K else FockVector(c)).coeffs
            assert np.array_equal(blk.apply(FockVector(c)).coeffs, want), (K, reach)
            assert np.array_equal(blk.apply(FockVector(c[: reach + 1])).coeffs, want), (K, reach)
        assert not blk.apply(FockVector(np.zeros(N + 1))).coeffs.any()


@pytest.mark.parametrize("a, N", [
    (0.5, 32), (1 + 0.5j, 24), (cmath.rect(1.3, -2.0), 64), (1 - np.pi * 1j, 200),
    (cmath.rect(7.0, 0.3), 128), (-3.0, 1), (cmath.rect(44.8, 1.0), 400),
])
def test_weyl_recurrence_matches_its_looped_form(a, N, looped_weyl_laguerre):
    # r = 2007 at N = 400 starts below e^{-600} and shrinks rows from m = 313 on
    want = looped_weyl_laguerre(complex(a), N)
    assert np.array_equal(_weyl_by(_weyl_real_laguerre, complex(a), N, N), want)
    K = N // 3
    W = _weyl_by(_weyl_real_laguerre, complex(a), N, K)
    assert W.shape == (N + 1, K + 1) and np.array_equal(W, want[:, : K + 1])


@pytest.mark.parametrize("N", [16, 24, 32, 40, 64])
def test_weyl_recurrence_is_the_exp_linear_s_phi(N):
    # for real a, S_phi with phi(u) = e^{a u} is e^{a^2/2} W_a: the exact
    # rational engine checks the recurrence on both sides of the engine
    # switch, in the series regime too, where weyl_matrix does not use it
    n = np.arange(N + 1)
    for a in (0.5, -1.0, 1.7, -2.0, 2.5, 3.0, -0.3):
        S = s_phi_matrix(exp_linear_symbol(a, 2 * N), N).entries
        sign = (-1.0) ** ((a < 0) * (n - n[:, None]))
        want = math.exp(a * a / 2.0) * sign * _weyl_real_laguerre(abs(a), N, N)
        assert np.max(np.abs(S - want)) <= 1e-13 * np.max(np.abs(S)), a


def test_weyl_matrix_at_the_edge_of_double_range():
    # |a|^2 = 1e308 is a double: the kernel has left the block, which is zero
    # and warns; from about 1.34e154 on |a|^2 overflows and a is refused
    with pytest.warns(AccuracyWarning, match="poorly resolved"):
        W = weyl_matrix(1e154, 8)
    assert W.entries.shape == (9, 9) and not W.entries.any()
    for a in (1e155, -1e155j, complex(1e300, -1e300), complex(1.7e308, 1.7e308)):
        with pytest.raises(ValueError, match="past double range"):
            weyl_matrix(a, 8)


@pytest.mark.parametrize("a", [1e50, 1e100, 1e150, 1e154])
def test_weyl_recurrence_far_past_the_block_is_zero(a):
    # one step multiplies a row by about |a|^2, which a 1e-100 shrink per step
    # made up for only to |a|^2 = 1e100: at 1e100 the product overflowed.
    # The weyl_matrix float path serves these points; the recurrence reads
    # the zero block too, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        G = _weyl_real_laguerre(a, 8, 8)
    assert G.shape == (9, 9) and not G.any()


# ----------------------------------------------------------------------
# The real stages against their per-column and per-row forms, bit for bit
# ----------------------------------------------------------------------

def _per_column_weyl_real_float(mod_a: float, N: int, K: int) -> np.ndarray:
    """The series of ``operators._weyl_real_float`` with every column formed on
    its own: index arithmetic per column, log (p - j)! gathered, the terms
    p < j masked by np.where and fresh temporaries for every column."""
    r = mod_a ** 2
    log_mod_a = np.log(mod_a)
    gl = log_factorials(N)
    p = np.arange(N + 1)
    out = np.zeros((N + 1, K + 1))
    for n in range(K + 1):
        j = np.arange(n + 1)
        log_binom = gl[n] - gl[j] - gl[n - j]
        L = (
            log_binom[None, :]
            + (n + p[:, None] - 2 * j[None, :]) * log_mod_a
            + 0.5 * (gl[p][:, None] - gl[n])
            - gl[np.maximum(p[:, None] - j[None, :], 0)]
        )
        L = np.where(p[:, None] >= j[None, :], L, -np.inf)
        signs = np.where((n - j) % 2 == 0, 1.0, -1.0)
        m = np.max(L, axis=1)
        m_safe = np.where(np.isfinite(m), m, 0.0)
        s = np.sum(signs[None, :] * np.exp(L - m_safe[:, None]), axis=1)
        out[:, n] = np.where(np.isfinite(m), np.exp(m_safe - r / 2.0) * s, 0.0)
    return out


def _always_scaled_weyl_real_laguerre(mod_a: float, N: int, K: int) -> np.ndarray:
    """The recurrence of ``operators._weyl_real_laguerre`` with the growth check
    and the log scales on every row, also where no start is scaled."""
    r = mod_a ** 2
    alpha = np.arange(N + 1)
    log_g0 = 0.5 * alpha * np.log(r) - r / 2.0 - 0.5 * log_factorials(N)
    log_scale = np.minimum(log_g0 + 600.0, 0.0)
    m = np.arange(K + 1)[:, None]
    diag = (2 * m + 1 + alpha) - r
    back = np.sqrt(m * (m + alpha))
    step = np.sqrt((m + 1) * (m + 1 + alpha))
    prev, cur = np.zeros(N + 1), np.exp(log_g0 - log_scale)
    rows = np.empty((K + 1, N + 1))
    scales = np.empty((K + 1, N + 1))
    for i in range(K + 1):
        rows[i], scales[i] = cur, log_scale
        nxt = (diag[i] * cur - back[i] * prev) / step[i]
        big = np.abs(nxt) > 1e100
        if big.any():
            shrink = np.where(big, 1e-100, 1.0)
            log_scale = log_scale - np.log(shrink)
            prev, cur = cur * shrink, nxt * shrink
        else:
            prev, cur = cur, nxt
    g = rows * np.exp(scales)
    below_m, below_d = np.nonzero(m + alpha <= N)
    above_m, above_d = np.nonzero(m + alpha <= K)
    G = np.zeros((N + 1, K + 1))
    G[below_m + below_d, below_m] = g[below_m, below_d]
    G[above_m, above_m + above_d] = g[above_m, above_d] * (-1.0) ** above_d
    return G


def _assert_real_stages_match_their_references(mod_a: float, N: int, K: int):
    for build, ref in ((_weyl_real_float, _per_column_weyl_real_float),
                       (_weyl_real_laguerre, _always_scaled_weyl_real_laguerre)):
        got, want = build(mod_a, N, K), ref(mod_a, N, K)
        assert got.shape == want.shape == (N + 1, K + 1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (build.__name__, mod_a, N, K)


@pytest.mark.parametrize("N", [0, 1, 2, 7, 8, 9, 16, 31, 32, 33, 64, 128, 200])
def test_weyl_real_stages_equal_their_reference_forms_bit_for_bit(N):
    # both engines at every point, on either side of the switch: r spread
    # over (0, N/2] (over (0, 1/2] at N = 0) and |a| = 1e-150, K = 0, 1, N/2, N
    radii = [math.sqrt(t * max(N, 1) / 2.0) for t in (0.02, 0.3, 0.65, 1.0)] + [1e-150]
    for K in sorted({0, min(1, N), N // 2, N}):
        for mod_a in radii:
            _assert_real_stages_match_their_references(mod_a, N, K)


@pytest.mark.parametrize("a, N, K", [(-1.7, 32, 32), (0.9 + 0.3j, 120, 120), (1.8 + 0.666j, 64, 64),
                                     (38.47 + 1.0j, 1500, 20)],
                         ids=["pinned-1", "pinned-2", "pinned-3", "scaled-starts"])
def test_weyl_real_stages_equal_their_reference_forms_at_marked_points(a, N, K):
    # the three float-path misses pinned by the benchmark's oracle tests, and
    # r ~ 1481, whose starts fall below e^{-600} and carry log scales
    _assert_real_stages_match_their_references(abs(a), N, K)


def test_weyl_series_peaks_below_its_per_column_form():
    # tracemalloc peak of _weyl_real_float(0.5, 200, 200): 1,628,955 bytes in
    # the per-column form above (5.04 times the 323 KB result), 799,621 bytes
    # (2.47 times) with one reused (N+1) x (K+1) buffer next to the result
    _weyl_real_float(0.5, 200, 200)
    tracemalloc.start()
    try:
        _weyl_real_float(0.5, 200, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_628_955, peak


def _weyl_cache_counts():
    """(hits, misses) of the real-stage cache since its last clear."""
    info = _weyl_real.cache_info()
    return info.hits, info.misses


@pytest.mark.parametrize("a, N, build", [(0.5 + 0.2j, 64, _weyl_real_float),
                                         (cmath.rect(7.0, 0.3), 128, _weyl_real_laguerre)])
def test_weyl_minus_a_reuses_the_real_stage_of_a(a, N, build):
    # one modulus on each side of the engine switch
    assert (_weyl_float_digit_loss(abs(a) ** 2, N) > 10.0) == (build is _weyl_real_laguerre)
    _weyl_real.cache_clear()
    weyl_matrix(a, N)
    weyl_matrix(-a, N)
    assert _weyl_cache_counts() == (1, 1)


def _one_modulus(z):
    """z, -z, conj(z) and iz, whose moduli are equal bit for bit."""
    return [z, -z, z.conjugate(), 1j * z]


@pytest.mark.parametrize("build, points", [
    (lambda z: weyl_matrix(z, 64), _one_modulus(0.5 + 0.2j)),
    (lambda z: weyl_matrix(z, 128), _one_modulus(cmath.rect(7.0, 0.3))),
    (lambda z: weyl_matrix(z, 120, 7), _one_modulus(1 - np.pi * 1j)),
    (lambda ab: translation_modulation_fock(*ab, 64), [(1.0, 0.5), (-1.0, -0.5), (1.0, -0.5), (-1.0, 0.5)]),
], ids=["float-series", "laguerre", "column-block", "translation-modulation"])
def test_cached_weyl_outputs_equal_fresh_builds(build, points):
    # four points of one modulus: one miss, then three hits whose matrices
    # equal the ones built with the cache cleared
    fresh = []
    for z in points:
        _weyl_real.cache_clear()
        fresh.append(build(z).entries.view(np.int64).copy())
    _weyl_real.cache_clear()
    warm = [build(z).entries.view(np.int64) for z in points]
    assert _weyl_cache_counts() == (3, 1)
    for k, (want, got) in enumerate(zip(fresh, warm)):
        assert np.array_equal(got, want), points[k]


def test_weyl_real_stages_are_read_only():
    # one series key and one recurrence key
    for mod_a, N, K in ((0.5, 8, 3), (7.0, 128, 5)):
        assert (_weyl_float_digit_loss(mod_a ** 2, N) > 10.0) == (N == 128)
        G = _weyl_real(mod_a, N, K)
        assert G.shape == (N + 1, K + 1) and G.dtype == np.float64 and not G.flags.writeable
        with pytest.raises(ValueError):
            G[0, 0] = 1.0


def test_weyl_modulus_at_another_degree_is_another_key():
    a = 0.5 + 0.2j
    _weyl_real.cache_clear()
    weyl_matrix(a, 32)
    weyl_matrix(-a, 33)
    weyl_matrix(1j * a, 32, 5)
    weyl_matrix(a.conjugate(), 32, 5)
    assert _weyl_cache_counts() == (1, 3)


def test_box_frame_gram_builds_one_real_stage_per_modulus():
    # the 8 nonzero points of the 3 x 3 lattice have the moduli 1, pi and sqrt(1 + pi^2)
    _weyl_real.cache_clear()
    box_frame_gram(range(-1, 2), range(-1, 2), 48)
    assert _weyl_cache_counts() == (5, 3)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "float log-scale path loses ~1e-4 below the digit-loss switch at degree 64 "
    "(ROADMAP item 3; pinned in bench/test_oracles.py::"
    "test_weyl_float_path_misses_stay_visible until a benchmark change retires it)"))
def test_weyl_float_path_meets_contract_below_switch():
    a, N = 1.8 + 0.666j, 64  # digit loss 9.9: the float path is chosen
    assert np.max(np.abs(weyl_matrix(a, N).entries - _exact_series_reference(a, N))) <= 1e-10


def test_weyl_truncation_warning_boundary(resolution_boundary):
    # a tail mass of exactly 1e-8 at N = 32 (|a| = 3.18...)
    N = 32
    lo = resolution_boundary(N)
    for scale, warns in ((1.0 - 1e-6, False), (1.0 + 1e-6, True)):
        a = lo * scale * np.exp(0.7j)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            weyl_matrix(a, N)
        assert any(issubclass(w.category, AccuracyWarning) for w in caught) == warns


def test_weyl_unitary_on_interior():
    # interior shrinks with the displaced spread ~ |a| sqrt(N)
    for a, N, blk in [(0.5, 64, 40), (1.0, 64, 30), (-np.pi * 1j, 120, 40)]:
        W = weyl_matrix(a, N)
        assert unitarity_residual(W, blk) < 1e-10


def test_weyl_composition_cancels():
    a = 0.6 + 0.4j
    N = 64
    P = weyl_matrix(a, N).entries @ weyl_matrix(-a, N).entries
    blk = 30
    assert np.max(np.abs(P[:blk, :blk] - np.eye(blk))) < 1e-10


def test_weyl_resolution_warning():
    with pytest.warns(Warning):
        weyl_matrix(4.0, 16)


@pytest.mark.parametrize("a, N, want", [
    (0.5, 64, 47), (0.5, 128, 107), (0.5, 180, 135), (3.0, 128, 53),
    (cmath.rect(math.sqrt(24.3), 0.7), 64, 0), (4.0, 32, 0),
])
def test_weyl_interior_block_is_measured(a, N, want):
    # the leading columns of W_a and W_{-a} that keep all but 1e-12 of their
    # mass ((1 - pi i, 200) is in the degree-200 test above); (4, 32) is
    # unresolved, and at (sqrt(24.3) e^{0.7i}, 64) column 0 already loses
    # 6e-12.  On the block both contracts hold to 1e-10.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        W, Wm = weyl_matrix(a, N), weyl_matrix(-a, N)
    blk = weyl_interior_block(W, Wm)
    assert blk == want
    if blk:
        assert unitarity_residual(W, blk) <= 1e-10
        assert np.max(np.abs((W.entries @ Wm.entries)[:blk, :blk] - np.eye(blk))) <= 1e-10


def test_translation_modulation_reductions():
    N = 40
    assert np.array_equal(
        translation_modulation_fock(0.0, 0.0, N).entries, np.eye(N + 1, dtype=complex)
    )
    # pure translation
    a = 0.7
    assert np.max(np.abs(
        translation_modulation_fock(a, 0.0, N).entries - weyl_matrix(a, N).entries
    )) < 1e-14
    # pure modulation
    b = 0.4
    assert np.max(np.abs(
        translation_modulation_fock(0.0, b, N).entries
        - weyl_matrix(-np.pi * b * 1j, N).entries
    )) < 1e-14


@pytest.mark.parametrize("N", [40, 64, 128])
def test_translation_modulation_column_block_is_the_full_matrix(N):
    # |a - pi b i| = 1.07 takes the float series, 3.22 the Laguerre recurrence
    for a, b in ((0.5, 0.3), (-1.2, 0.95)):
        full = translation_modulation_fock(a, b, N).entries
        for K in (0, 1, N):
            blk = translation_modulation_fock(a, b, N, input_degree=K).entries
            assert blk.shape == (N + 1, K + 1), (a, b, K)
            assert np.array_equal(blk, full[:, : K + 1]), (a, b, K)
    for K in (-1, N + 1):
        with pytest.raises(ValueError, match="input_degree"):
            translation_modulation_fock(0.5, 0.3, N, input_degree=K)


def test_dictionary_consistency_through_quadrature():
    # shift-then-modulate pipeline on the line vs the displacement matrix
    N = 64
    a, b = 0.5, 0.3
    line, plane = gauss_hermite(256), gauss_hermite_plane(64)
    Wm = translation_modulation_fock(a, b, N)
    x = line.nodes
    for n in (0, 1):
        g = inverse_bargmann_quadrature(FockVector.basis(n, N), x - a, plane)
        vals = np.exp(2j * np.pi * b * x) * g
        col = hermite_functions(N, x) @ (line.weights * vals)
        assert np.max(np.abs(col - Wm.entries[:, n])) < 1e-6


# ----------------------------------------------------------------------
# Dilation
# ----------------------------------------------------------------------

def _dilation_closed_form(r: float, p: int, n: int) -> float:
    """D[p, n] = sqrt(beta p! n!) sum_k gamma^i beta^k (-gamma)^j / (i! k! j!), 2i + k = p,
    2j + k = n, with beta = 2r/(1+r^2) and gamma = (1-r^2)/(2(1+r^2)): the
    coefficients of the kernel sqrt(beta) exp(gamma z^2 + beta z conj(w) - gamma conj(w)^2).
    The sum runs down from k = min(p, n), each term from the last by the ratio
    -(gamma/beta)^2 k (k-1) / ((i+1)(j+1)).  It alternates and cancels more
    digits as p + n grows (a 120-digit sum reads -3.4e26 at p = n = 1024,
    r = 0.5), so the precision is 60 + p + n digits."""
    if (p - n) % 2:
        return 0.0
    with mpmath.workdps(60 + p + n):
        r = mpmath.mpf(r)
        beta, gamma = 2 * r / (1 + r * r), (1 - r * r) / (2 * (1 + r * r))
        f = mpmath.factorial
        k = min(p, n)
        i, j = (p - k) // 2, (n - k) // 2
        term = gamma**i * beta**k * (-gamma) ** j / (f(i) * f(k) * f(j))
        total, ratio = term, -((gamma / beta) ** 2)
        while k >= 2:
            term *= ratio * k * (k - 1) / ((i + 1) * (j + 1))
            k, i, j = k - 2, i + 1, j + 1
            total += term
        return float(mpmath.sqrt(beta * f(p) * f(n)) * total)


@pytest.mark.parametrize("r", [0.25, 0.5, 2.0, 4.0])
@pytest.mark.parametrize("N", [32, 128, 255])
def test_dilation_matrix_against_closed_form(r, N):
    D = dilation_matrix(r, N).entries
    assert D.shape == (N + 1, N + 1) and not D.imag.any()
    rng = np.random.default_rng(N)
    picks = [(0, 0), (0, N), (N, 0), (N, N), (N, N - 2), (1, 1)] + [
        tuple(int(v) for v in rng.integers(0, N + 1, 2)) for _ in range(10)]
    for p, n in picks:
        assert abs(D[p, n] - _dilation_closed_form(r, p, n)) <= 1e-13, (p, n)


@pytest.mark.parametrize("r", [0.1, 10.0])
def test_dilation_matrix_outside_the_old_ratio_range(r):
    # no ratio limit: the ladder runs at min(r, 1/r) for every r > 0
    D = dilation_matrix(r, 64).entries
    for p, n in ((0, 0), (64, 64), (64, 0), (0, 64), (31, 17), (50, 6)):
        assert abs(D[p, n] - _dilation_closed_form(r, p, n)) <= 1e-13, (p, n)


@pytest.mark.parametrize("r", [0.5, 2.0])
def test_dilation_matrix_exactness_boundary(r):
    # N + K = 512 was the bound of the old 256-node line rule; the ladder
    # has none, and K = 212 is exact like K = 211
    D = dilation_matrix(r, 300, 212).entries
    assert D.shape == (301, 213)
    for p, n in ((300, 212), (299, 211), (300, 0), (0, 212), (212, 212), (150, 100), (17, 3)):
        assert abs(D[p, n] - _dilation_closed_form(r, p, n)) <= 1e-13, (p, n)


@pytest.mark.parametrize("r", [0.01, 0.5, 0.999, 1.001, 2.0, 100.0])
@pytest.mark.parametrize("N", [512, 1024])
def test_dilation_matrix_at_high_degree(r, N):
    # the ladder is least accurate near r = 1 (1.3e-14 at 0.999, N = 1024)
    D = dilation_matrix(r, N).entries
    for p, n in ((0, 0), (N, 0), (0, N), (N, N), (N, N - 2), (N - 1, N - 3), (N // 2, N // 2 + 2), (N // 3, 1)):
        assert abs(D[p, n] - _dilation_closed_form(r, p, n)) <= 1e-13, (p, n)


@pytest.mark.parametrize("r", [0.3, 0.999, 1.37, 2.0, 10.0])
def test_dilation_matrix_blocks_are_leading_parts(r):
    # the ladder builds entry (p, n) from entries (p', n') with n' < n alone
    big = dilation_matrix(r, 200, 150).entries
    for N, K in ((0, 0), (17, 3), (3, 17), (120, 150), (200, 40)):
        assert np.array_equal(dilation_matrix(r, N, K).entries, big[:N + 1, :K + 1]), (N, K)


@pytest.mark.parametrize("r", [1.37, 2.0, 10.0, 1e6])
def test_dilation_matrix_is_its_inverse_transposed(r):
    # D_r real and unitary, so D_r = D_{1/r}^T; for r > 1 the ladder runs at 1/r
    assert np.array_equal(dilation_matrix(r, 90, 40).entries, dilation_matrix(1 / r, 40, 90).entries.T)


def test_dilation_matrix_at_unit_ratio_is_the_identity():
    for N, K in ((0, 0), (64, 64), (300, 100), (100, 300)):
        assert np.array_equal(dilation_matrix(1.0, N, K).entries, np.eye(N + 1, K + 1))


@pytest.mark.parametrize("r", [0.0, -1.0, math.inf, math.nan])
def test_dilation_matrix_refuses_a_bad_ratio(r):
    with pytest.raises(ValueError, match="finite positive"):
        dilation_matrix(r, 8)


@pytest.mark.parametrize("r", [0.5, 2.0])
@pytest.mark.parametrize("degrees", [(-1, None), (-1, 0), (4, -1), (-2, -2)])
def test_dilation_matrix_refuses_a_negative_degree(r, degrees):
    with pytest.raises(ValueError, match=">= 0"):
        dilation_matrix(r, *degrees)


def test_dilation_identity():
    pipe = BargmannPipeline.default(24)
    res = dilation_fock(1.0, FockVector.basis(1, 8), pipe)
    assert np.max(np.abs(res.primary.coeffs - FockVector.basis(1, 24).coeffs)) < 1e-9


@pytest.mark.parametrize("r", [0.5, 2.0])
def test_dilation_gauss_closed_form(r, dilation_plane_kernels):
    # dilating the Gaussian scales it: image has coefficients of e^{g z^2}
    pipe = BargmannPipeline.default(24)
    f = FockVector.basis(0, 8)
    res = dilation_fock(r, f, pipe)
    gamma = (1 - r * r) / (2 * (1 + r * r))
    want = np.zeros(25, dtype=complex)
    for k in range(13):
        want[2 * k] = (
            math.sqrt(2 * r / (1 + r * r))
            * gamma**k
            * math.sqrt(math.factorial(2 * k))
            / math.factorial(k)
        )
    assert np.max(np.abs(res.primary.coeffs - want)) < 1e-7
    assert np.max(np.abs(dilation_plane_kernels(r, [f], 24, gauss_hermite_plane(64))[0] - want)) < 1e-9


@pytest.mark.parametrize("r", [0.5, 2.0])
@pytest.mark.parametrize("n", [0, 1])
def test_dilation_dual_path_agreement(r, n, dilation_plane_kernels, inverse_integral_dilation):
    # the matrix against both plane-quadrature routes it replaced
    line, plane = gauss_hermite(256), gauss_hermite_plane(64)
    f = FockVector.basis(n, 8)
    got = dilation_fock(r, f, BargmannPipeline.default(24)).primary.coeffs
    assert np.linalg.norm(got - dilation_plane_kernels(r, [f], 24, plane)[0]) < 1e-5
    assert np.linalg.norm(got - inverse_integral_dilation(r, f, 24, line, plane)) < 1e-5


def test_dilation_preconditions():
    # the ratio is checked; no plane-rule input cap and no bound on input
    # plus output degree
    pipe = BargmannPipeline.default(24)
    with pytest.raises(ValueError):
        dilation_fock(0.0, FockVector.basis(0, 4), pipe)
    dilation_fock(2.0, FockVector.basis(0, 65), pipe)
    wide = BargmannPipeline.default(300)
    for r in (0.5, 2.0):
        got = dilation_fock(r, FockVector.basis(212, 212), wide).primary.coeffs
        for p in (0, 2, 150, 298, 300):
            assert abs(got[p] - _dilation_closed_form(r, p, 212)) <= 1e-13, (r, p)


@pytest.mark.parametrize("r", [0.25, 0.5, 2.0, 4.0])
@pytest.mark.parametrize("n", [0, 8, 24, 48, 64])
def test_dilation_boundary_scan(r, n, exact_dilation, inverse_integral_dilation, dilation_plane_kernels):
    # output degree up to the 256-node line rule; the plane-rule oracles are
    # checked up to their limit, input degree 64 (the 64 x 64 plane rule)
    tol = 1e-9 if n == 64 else 1e-12
    f = FockVector.basis(n, n)
    line, plane = gauss_hermite(256), gauss_hermite_plane(64)
    for N in (0, 1, 32, 64, 128, 256):
        want = exact_dilation(r, n, N)
        assert np.max(np.abs(dilation_fock(r, f, BargmannPipeline.default(N)).primary.coeffs - want)) <= 1e-12, N
        assert np.max(np.abs(inverse_integral_dilation(r, f, N, line, plane) - want)) <= tol, N
        assert np.max(np.abs(dilation_plane_kernels(r, [f], N, plane)[0] - want)) <= tol, N


# ----------------------------------------------------------------------
# Multiplication / differentiation pair
# ----------------------------------------------------------------------

def test_md_action_on_basis():
    M, D = md_matrices(8)
    assert abs(M.apply(FockVector.basis(2, 8)).coeffs[3] - math.sqrt(3)) < 1e-15
    assert abs(D.apply(FockVector.basis(3, 8)).coeffs[2] - math.sqrt(3)) < 1e-15


def test_md_commutator_interior():
    N = 64
    M, D = md_matrices(N)
    C = D.entries @ M.entries - M.entries @ D.entries
    assert np.max(np.abs(C[:N, :N] - np.eye(N))) < 1e-12
    # truncation corner
    assert abs(C[N, N] + N) < 1e-9


@pytest.mark.parametrize("N", [0, 1, 2, 8, 40])
def test_ladder_words_equal_the_dense_truncated_products(N):
    # every word of length <= 4 in M, D, X, Z, S1, S2, applied to the identity
    # and to a block of columns, against the product of the dense matrices
    M, D = (A.entries for A in md_matrices(N))
    dense = {"M": M, "D": D, "X": a1_matrix(N).entries, "Z": a2_matrix(N).entries / 2j,
             "S1": 2.0 * a1_matrix(N).entries, "S2": 1j * a2_matrix(N).entries}
    rng = np.random.default_rng(N)
    cols = rng.standard_normal((N + 1, 3)) + 1j * rng.standard_normal((N + 1, 3))
    products = {(): (np.eye(N + 1, dtype=complex), np.eye(N + 1))}  # word -> (product, product of moduli)
    for length in range(1, 5):
        for word in itertools.product(dense, repeat=length):
            prefix, prefix_moduli = products[word[:-1]]
            want, moduli = products[word] = prefix @ dense[word[-1]], prefix_moduli @ np.abs(dense[word[-1]])
            got = ladder_word(word, np.eye(N + 1))
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 4 * np.spacing(np.max(np.abs(want))), word
            # on columns, entrywise: a few ulp of the moduli of every term summed
            bound = 4 * np.finfo(float).eps * (moduli @ np.abs(cols))
            assert np.all(np.abs(ladder_word(word, cols) - want @ cols) <= bound), word


def test_ladder_word_reads_a_string_of_one_letter_names():
    c = np.arange(1.0, 7.0)
    assert np.array_equal(ladder_word("DMX", c), ladder_word(("D", "M", "X"), c))


def test_a1_a2_on_vacuum():
    assert np.allclose(a1_matrix(4).entries[:, 0], [0, 0.5, 0, 0, 0])
    assert np.allclose(a2_matrix(4).entries[:, 0], [0, -1.0, 0, 0, 0])


def test_a1_a2_commutator_interior():
    N = 64
    A1, A2 = a1_matrix(N).entries, a2_matrix(N).entries
    C = A2 @ A1 - A1 @ A2
    assert np.max(np.abs(C[: N - 1, : N - 1] - np.eye(N - 1))) < 1e-12
