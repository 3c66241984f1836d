import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fockdict.errors import AccuracyWarning
from fockdict.fock import FockVector, evaluate
from fockdict.hermite import gauss_hermite, gauss_hermite_plane, hermite_function, hermite_functions
from fockdict import singular
from fockdict.operators import md_matrices, weyl_matrix
from fockdict.singular import (
    TSQUARE_SPAN,
    EntireSymbol,
    _round_scaled,
    _split,
    _sqrt_factorials,
    berezin_check,
    boundedness_probe,
    exp_linear_symbol,
    fock_norm_A,
    gaussian_square_symbol,
    hilbert_fock_matrix,
    hilbert_line_pv,
    hilbert_symbol,
    s_phi_matrix,
    scaled_antiderivative_symbol,
    symbol_from_taylor,
    symbol_to_fock,
    tsquare_residual,
)


# ----------------------------------------------------------------------
# Antiderivative series and its norm
# ----------------------------------------------------------------------

def test_antiderivative_taylor():
    # A(z / sqrt(2)) = sum z^{2n+1} / ((2n+1) n! 2^n sqrt(2)), and the Hilbert
    # symbol is -(2/sqrt(pi)) times it
    sym = scaled_antiderivative_symbol(9)
    assert sym.taylor[1] == 1.0 / math.sqrt(2)
    assert abs(sym.taylor[3] - 1.0 / (6.0 * math.sqrt(2))) < 1e-16
    assert np.all(sym.taylor[::2] == 0.0)  # odd function
    assert np.allclose(hilbert_symbol(9).taylor, -2.0 / math.sqrt(np.pi) * sym.taylor, rtol=1e-15, atol=0)


def test_a_symbol_stores_its_exact_coefficients_only():
    assert [f.name for f in dataclasses.fields(EntireSymbol)] == ["re", "im", "denominator", "scale"]
    # the floats are read from scale * (re + i im) / denominator, each rounded
    # once, and cached read-only
    sym = hilbert_symbol(255)
    want = [sym.scale * complex(float(Fraction(x, sym.denominator)), float(Fraction(y, sym.denominator)))
            for x, y in zip(sym.re, sym.im)]
    assert np.array_equal(sym.taylor, want) and np.count_nonzero(sym.taylor) == 128
    assert sym.taylor is sym.taylor and not sym.taylor.flags.writeable
    with pytest.raises(ValueError):
        sym.taylor[1] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        sym.taylor = np.zeros(256)
    assert sym.degree == 255 and sym.truncated(8).degree == 8
    assert np.array_equal(sym.truncated(8).taylor, sym.taylor[:9])


def test_symbol_from_taylor_checks_its_input_once():
    coeffs = np.random.default_rng(3).standard_normal(9) + 1j
    assert np.array_equal(symbol_from_taylor(coeffs).taylor, coeffs)
    sym = symbol_from_taylor(coeffs.real)
    assert [Fraction(x, sym.denominator) for x in sym.re] == [Fraction(c) for c in coeffs.real]
    assert not any(sym.im)
    for bad in ([], np.zeros((2, 3))):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            symbol_from_taylor(bad)
    with pytest.raises(ValueError, match="at least one coefficient"):
        EntireSymbol((), (), 1)


def test_norm_series_first_term_and_monotone():
    assert fock_norm_A(1) == 0.5
    partials = [fock_norm_A(n) for n in (1, 2, 5, 20, 100)]
    assert all(a < b for a, b in zip(partials, partials[1:]))


def test_norm_series_two_path():
    series = fock_norm_A(200)
    direct = symbol_to_fock(scaled_antiderivative_symbol(399), 399).norm() ** 2
    assert abs(series - direct) < 1e-12


def test_norm_series_tail_estimate():
    # the series sums to arcsin(1)/2 = pi/4; the tail is what the partial sum
    # misses, against 30-digit partial sums
    with mpmath.workdps(30):
        term, partial = mpmath.mpf(1), mpmath.mpf(0)
        for k in range(200):
            if k:
                term *= mpmath.mpf((2 * k - 1) ** 2) / (2 * k * (2 * k + 1))
            partial += term
            if k + 1 in (1, 100, 200):
                tail = math.pi / 4.0 - fock_norm_A(k + 1)
                assert abs(tail - float(mpmath.pi / 4 - partial / 2)) <= 1e-13, k + 1


# ----------------------------------------------------------------------
# The operator family
# ----------------------------------------------------------------------

def _defining_integral(symbol, F, z, plane_rule):
    """Oracle: S_phi F(z) = int F(w) e^{z conj(w)} phi(z - conj(w)) dlambda(w) by plane quadrature."""
    assert plane_rule.weight == "plane"
    wbar = np.conj(plane_rule.nodes)
    base = plane_rule.weights * evaluate(F, plane_rule.nodes)
    return np.array([np.sum(base * np.exp(zz * wbar) * symbol(zz - wbar)) for zz in z])


def test_constant_symbol_is_identity():
    S = s_phi_matrix(symbol_from_taylor([1.0]), 12)
    assert np.max(np.abs(S.entries - np.eye(13))) < 1e-14


def test_linear_symbol_is_mult_minus_diff():
    S = s_phi_matrix(symbol_from_taylor([0.0, 1.0]), 12)
    M, D = md_matrices(12)
    assert np.max(np.abs(S.entries - (M.entries - D.entries))) < 1e-14


def test_square_symbol_on_vacuum():
    S = s_phi_matrix(symbol_from_taylor([0.0, 0.0, 1.0]), 8)
    got = S.entries[:, 0]
    want = np.zeros(9)
    want[2] = math.sqrt(2.0)
    assert np.max(np.abs(got - want)) < 1e-14


def test_normal_ordered_matches_defining_integral():
    # low-degree symbols on low basis vectors, against plane quadrature
    plane = gauss_hermite_plane(64)
    rng = np.random.default_rng(1)
    sym = symbol_from_taylor([0.3, -0.2 + 0.1j, 0.15, 0.05j])
    S = s_phi_matrix(sym, 24)
    zs = (rng.standard_normal(5) + 1j * rng.standard_normal(5)) * 0.7
    for n in range(5):
        en = FockVector.basis(n, 24)
        direct = evaluate(FockVector(S.entries @ en.coeffs), zs)
        oracle = _defining_integral(sym, en, zs, plane)
        assert np.max(np.abs(direct - oracle)) < 1e-6


def test_displacement_symbol_identity():
    # phi(u) = e^{u conj(a)} gives a weighted displacement; real a = 0.5
    a = 0.5
    S = s_phi_matrix(exp_linear_symbol(a, 80), 40)
    W = weyl_matrix(np.conj(a), 40)
    R = S.entries - np.exp(abs(a) ** 2 / 2.0) * W.entries
    b = 28
    assert np.max(np.abs(R[:b, :b])) < 1e-8


def _series_entry(symbol, p, q):
    """S[p,q] / (scale sqrt(p! q!)) as exact (re, im) fractions by the j-series.

    <S e_q, e_p> = scale sqrt(p! q!) sum_j (-1)^j C(d+2j, j) phi_{d+2j} / (q-j)!
    with d = p - q and phi_k = scale * (re[k] + i im[k]) / denominator.
    """
    d = p - q
    s_re = s_im = Fraction(0)
    for j in range(max(0, -d), q + 1):
        k = d + 2 * j
        if k > symbol.degree:
            break
        mult = Fraction((-1) ** j * math.comb(k, j), math.factorial(q - j))
        s_re += mult * Fraction(symbol.re[k], symbol.denominator)
        s_im += mult * Fraction(symbol.im[k], symbol.denominator)
    return s_re, s_im


def _series_reference(symbol, N):
    """Every entry from its reduced j-series fraction, rounded by the library's split."""
    r, s = _sqrt_factorials(N)
    out = np.zeros((N + 1, N + 1), dtype=np.complex128)
    for q in range(N + 1):
        for p in range(N + 1):
            w, sh = r[p] * r[q] * symbol.scale, s[p] + s[q]
            out[p, q] = complex(*(_round_scaled(x.numerator, x.denominator, w, sh)
                                  for x in _series_entry(symbol, p, q)))
    return out


def _negated(symbol):
    return EntireSymbol(symbol.re, symbol.im, symbol.denominator, -2.5 * symbol.scale)


_RNG_TAYLOR = np.random.default_rng(11).standard_normal((33, 2)) @ np.array([1.0, 1j])


@pytest.mark.parametrize("make", [
    lambda N: hilbert_symbol(2 * N - 1),
    lambda N: exp_linear_symbol(0.3 - 0.8j, 2 * N),
    lambda N: symbol_from_taylor(_RNG_TAYLOR[: 2 * N + 1]),
    lambda N: _negated(gaussian_square_symbol(0.25 + 0.1j, 2 * N)),
], ids=["hilbert", "exp-linear-complex", "random-at-guard", "negative-scale"])
@pytest.mark.parametrize("N", [1, 5, 16])
def test_recurrence_equals_exact_series(make, N):
    sym = make(N)
    assert np.array_equal(s_phi_matrix(sym, N).entries, _series_reference(sym, N))


@pytest.mark.parametrize("make, N", [
    (lambda N: hilbert_symbol(2 * N - 1), 128),
    (lambda N: exp_linear_symbol(1.2345678, 2 * N), 32),
    (lambda N: exp_linear_symbol(0.3 - 0.8j, 2 * N), 32),
], ids=["hilbert-128", "exp-linear-real-32", "exp-linear-complex-32"])
def test_entries_match_40_digit_values(make, N):
    # scale sqrt(p! q!) u/(L q!) at 40 digits, u/(L q!) from the exact j-series
    sym = make(N)
    S = s_phi_matrix(sym, N).entries
    rng = np.random.default_rng(N)
    picks = [(0, 1), (1, 0), (N, N - 1), (N - 1, N), (N, 1), (1, N)]
    picks += [tuple(pq) for pq in rng.integers(0, N + 1, size=(40, 2))]
    with mpmath.workdps(40):
        for p, q in picks:
            root = mpmath.mpf(sym.scale) * mpmath.sqrt(mpmath.factorial(p) * mpmath.factorial(q))
            re, im = (root * mpmath.mpf(x.numerator) / x.denominator for x in _series_entry(sym, p, q))
            want = mpmath.mpc(re, im)
            if want == 0:
                assert S[p, q] == 0, (p, q)
            else:
                assert abs(S[p, q] - want) <= 1e-15 * abs(want), (p, q)


# the constructors as they were built from Fraction coefficients, kept as
# references: phi_k = scale * (re + i im) with exact fractions re, im

def _ref_exp_power(c: complex, power: int, degree: int):
    exact = [(Fraction(0), Fraction(0))] * (degree + 1)
    x, y = Fraction(c.real), Fraction(c.imag)
    tr, ti = Fraction(1), Fraction(0)
    for n in range(degree // power + 1):
        exact[power * n] = (tr, ti)
        tr, ti = (tr * x - ti * y) / (n + 1), (tr * y + ti * x) / (n + 1)
    return exact, 1.0


def _ref_odd_antiderivative(degree: int):
    exact = [(Fraction(0), Fraction(0))] * (degree + 1)
    for n in range((degree - 1) // 2 + 1):
        exact[2 * n + 1] = (Fraction(1, (2 * n + 1) * math.factorial(n) * 2**n), Fraction(0))
    return exact, 1.0 / math.sqrt(2)


def _ref_from_taylor(taylor):
    return [(Fraction(float(c.real)), Fraction(float(c.imag))) for c in np.asarray(taylor, dtype=complex)], 1.0


def _lcm_column(exact):
    """(re, im, L): the integers L x over the lcm L of the reduced denominators."""
    L = math.lcm(*(x.denominator for pair in exact for x in pair))
    return tuple((x * L).numerator for x, _ in exact), tuple((y * L).numerator for _, y in exact), L


_A_GRID = [0.5, 0.25, -0.75, 1.5, 1e-300, 0.0, 1.37 - 0.2j, 0.3 - 0.8j, -2.0 + 0.125j]
_TAYLOR_GRID = [
    _RNG_TAYLOR[:9],
    [5e-324, 1e-310j, 2.5e-320 - 7e-315j],  # subnormal
    [1.7e308, -1e300j, 3.0],  # huge
    [0.0, -0.0, 0j, complex(0.0, -0.0)],  # zero
    [1e308, 5e-324, 1.0],
]
_CONSTRUCTORS = (
    [(f"exp-linear-{a}-{d}", lambda a=a, d=d: (exp_linear_symbol(a, d), _ref_exp_power(np.conj(a), 1, d)))
     for a in _A_GRID for d in (0, 1, 7, 48)]
    + [(f"gaussian-square-{a}-{d}", lambda a=a, d=d: (gaussian_square_symbol(a, d), _ref_exp_power(complex(a), 2, d)))
       for a in _A_GRID for d in (0, 1, 7, 48)]
    + [(f"scaled-antiderivative-{d}", lambda d=d: (scaled_antiderivative_symbol(d), _ref_odd_antiderivative(d)))
       for d in (0, 1, 2, 3, 9, 64, 65, 399)]
    + [(f"hilbert-{d}", lambda d=d: (hilbert_symbol(d), (_ref_odd_antiderivative(d)[0],
                                                        -2.0 / math.sqrt(np.pi) * (1.0 / math.sqrt(2)))))
       for d in (0, 1, 2, 9, 255)]
    + [(f"taylor-{i}", lambda t=t: (symbol_from_taylor(t), _ref_from_taylor(t))) for i, t in enumerate(_TAYLOR_GRID)]
)


@pytest.mark.parametrize("make", [m for _, m in _CONSTRUCTORS], ids=[name for name, _ in _CONSTRUCTORS])
def test_constructors_hold_the_lowest_terms_column_of_the_fraction_reference(make):
    sym, (exact, scale) = make()
    assert (sym.re, sym.im, sym.denominator) == _lcm_column(exact) and sym.scale == scale
    assert np.array_equal(sym.taylor, [scale * complex(float(x), float(y)) for x, y in exact])
    for k in {0, sym.degree // 2, sym.degree}:
        cut = sym.truncated(k)
        assert (cut.re, cut.im, cut.denominator) == _lcm_column(exact[: k + 1]) and cut.scale == scale


def test_the_common_factor_is_divided_out():
    # exp(1.5 u) = exp(3u/2): its numerators 3^n 2^(K-n) K!/n! over 2^K K!
    # share the factor 3^(v_3(K!)), 3^22 at K = 48, which the symbol divides out
    sym = exp_linear_symbol(1.5, 48)
    assert sym.denominator == 2**48 * math.factorial(48) // 3**22
    assert math.gcd(sym.denominator, *sym.re, *sym.im) == 1


@pytest.mark.parametrize("make", [
    lambda: hilbert_symbol(9),
    lambda: hilbert_symbol(255),
    lambda: _negated(gaussian_square_symbol(0.25 + 0.1j, 64)),
    lambda: exp_linear_symbol(-1.37 + 0.2j, 64),
    lambda: symbol_from_taylor(_RNG_TAYLOR * (np.arange(33) % 3 > 0)),
], ids=["hilbert-9", "hilbert-255", "negative-scale", "exp-linear", "random-with-zeros"])
def test_symbol_to_fock_is_column_0_bit_for_bit(make):
    # both round through one column step, so also their signed zeros agree
    sym = make()
    N = (sym.degree + 1) // 2
    got, col = symbol_to_fock(sym, N).coeffs, s_phi_matrix(sym.truncated(2 * N), N).entries[:, 0]
    for part in ("real", "imag"):
        assert np.array_equal(getattr(got, part).view(np.int64), getattr(col, part).view(np.int64))


@pytest.mark.parametrize("make, what", [
    (lambda: symbol_from_taylor([1.0, math.inf]), "inf"),
    (lambda: symbol_from_taylor([math.nan]), "nan"),
    (lambda: symbol_from_taylor([0.0, complex(1.0, -math.inf)]), "inf"),
    (lambda: exp_linear_symbol(math.inf, 8), "inf"),
    (lambda: exp_linear_symbol(complex(0.0, math.nan), 8), "nan"),
    (lambda: gaussian_square_symbol(-math.inf, 8), "inf"),
], ids=["taylor-inf", "taylor-nan", "taylor-complex-inf", "exp-linear-inf", "exp-linear-nan", "gaussian-square-inf"])
def test_non_finite_symbol_input_is_a_value_error(make, what):
    with pytest.raises(ValueError, match=f"finite.*{what}"):
        make()


def test_taylor_past_double_range_is_a_value_error():
    # (1e300)^8 / 8! is past double range; the integers are exact all the same
    sym = exp_linear_symbol(1e300, 8)
    with pytest.raises(ValueError, match="past double range"):
        sym.taylor
    assert sym.truncated(1).taylor[1] == 1e300


def test_symbol_degree_guard():
    with pytest.raises(ValueError):
        s_phi_matrix(symbol_from_taylor(np.ones(30)), 10)


def test_an_entry_past_double_range_is_a_value_error():
    # the largest double rounds from its exact ratio, and 2^1024 is refused
    assert _round_scaled(2**53 - 1, 1, 1.0, 971) == np.finfo(float).max
    with pytest.raises(ValueError, match="past double range"):
        _round_scaled(2**53, 1, 1.0, 971)
    # phi_k = 1e307: S_phi at degree 4, and phi_8 sqrt(8!) of the symbol itself
    sym = symbol_from_taylor(np.full(9, 1e307))
    with pytest.raises(ValueError, match="past double range"):
        s_phi_matrix(sym, 4)
    with pytest.raises(ValueError, match="past double range"):
        symbol_to_fock(sym, 8)


# ----------------------------------------------------------------------
# Hilbert transform
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 64, 399])
def test_sqrt_factorials_equal_the_per_index_form(n):
    # the running product of k! gives the same integers as math.factorial(k)
    per_index = zip(*(_split(math.isqrt(math.factorial(k) << 128), 1 << 64) for k in range(n + 1)))
    assert tuple(_sqrt_factorials(n)) == tuple(per_index)


def test_sqrt_factorial_table_is_the_same_whatever_the_call_order(monkeypatch):
    # the shared table grows on demand; its prefixes, and every matrix and
    # vector rounded from them, are those of a table built for one call
    sym = symbol_from_taylor([0.5, -1.25, 2.0, 0.0, 3.5j])
    degrees = (0, 3, 40, 17, 399, 1, 64)

    def outputs(n):
        matrix = s_phi_matrix(sym, n).entries.tobytes() if 2 <= n <= 64 else None
        return _sqrt_factorials(n), symbol_to_fock(sym, n).coeffs.tobytes(), matrix

    cold = {}
    for n in degrees:
        monkeypatch.setattr(singular, "_SQRT_FACTORIALS", ((), (), 1))
        cold[n] = outputs(n)
    monkeypatch.setattr(singular, "_SQRT_FACTORIALS", ((), (), 1))
    for n in degrees:
        per_index = tuple(zip(*(_split(math.isqrt(math.factorial(k) << 128), 1 << 64) for k in range(n + 1))))
        assert outputs(n) == cold[n]
        assert cold[n][0] == per_index
    assert len(singular._SQRT_FACTORIALS[0]) == 400


def test_hilbert_first_column_is_symbol():
    N = 64
    T = hilbert_fock_matrix(N)
    want = symbol_to_fock(hilbert_symbol(2 * N - 1), N)
    assert np.max(np.abs(T.entries[:, 0] - want.coeffs)) < 1e-13


def test_hilbert_parity_and_skew_adjointness():
    T = hilbert_fock_matrix(32)
    same_parity = np.add.outer(np.arange(33), np.arange(33)) % 2 == 0
    assert np.max(np.abs(T.entries[same_parity])) == 0.0
    assert np.max(np.abs(T.entries + T.entries.conj().T)) == 0.0


def test_hilbert_exact_structure_at_degree_256():
    N = 256
    T = s_phi_matrix(hilbert_symbol(2 * N - 1), N).entries
    same_parity = np.add.outer(np.arange(N + 1), np.arange(N + 1)) % 2 == 0
    assert np.all(T[same_parity] == 0.0)
    assert np.array_equal(T, -T.conj().T)
    assert np.array_equal(T[:, 0], symbol_to_fock(hilbert_symbol(2 * N - 1), N).coeffs)


@pytest.mark.parametrize("N", [1, 2, 3, 8, 64, 128, 256])
def test_hilbert_closed_form_matches_the_recurrence(N):
    T = hilbert_fock_matrix(N).entries
    S = s_phi_matrix(hilbert_symbol(max(1, 2 * N - 1)), N).entries
    assert np.max(np.abs(T - S)) <= 1e-15 * np.max(np.abs(T))


def _hilbert_closed_form_40_digits(p, q):
    if (p + q) % 2 == 0:
        return mpmath.mpf(0)
    e, o = (p, q) if p % 2 == 0 else (q, p)
    num = o * mpmath.binomial(e, e // 2) * mpmath.binomial(o - 1, (o - 1) // 2)
    mag = mpmath.sqrt(2 / mpmath.pi * num / (mpmath.mpf(2) ** (e + o - 1) * (o - e) ** 2))
    return mag if q > p else -mag


@pytest.mark.parametrize("N", [128, 256])
def test_hilbert_closed_form_entries_match_40_digit_values(N):
    T = hilbert_fock_matrix(N).entries
    rng = np.random.default_rng(N)
    picks = [(p, q) for p in (0, 1, N - 1, N) for q in range(N + 1)]
    picks += [tuple(pq) for pq in rng.integers(0, N + 1, size=(300, 2))]
    with mpmath.workdps(40):
        for p, q in picks:
            want = _hilbert_closed_form_40_digits(p, q)
            if want == 0:
                assert T[p, q] == 0, (p, q)
            else:
                assert T[p, q].imag == 0 and abs(T[p, q].real - want) <= 1e-15 * abs(want), (p, q)


def test_hilbert_closed_form_exact_structure_at_degree_256():
    N = 256
    T = hilbert_fock_matrix(N).entries
    same_parity = np.add.outer(np.arange(N + 1), np.arange(N + 1)) % 2 == 0
    assert np.all(T[same_parity] == 0.0)
    assert np.array_equal(T, -T.T)
    assert np.array_equal(T, -T.conj().T)


def test_hilbert_vacuum_column_norm():
    T = hilbert_fock_matrix(64)
    got = np.linalg.norm(T.entries[:, 0]) ** 2
    assert abs(got - 4.0 / np.pi * fock_norm_A(32)) < 1e-13


def test_hilbert_columns_match_line_side_pv_oracle():
    N = 48
    T = hilbert_fock_matrix(N)
    rule = gauss_hermite(192)
    for n in range(4):
        hv = hilbert_line_pv(lambda t: hermite_function(n, t), rule.nodes)
        col = hermite_functions(N, rule.nodes) @ (rule.weights * hv)
        assert np.max(np.abs(col - T.entries[:, n])) < 1e-10


def test_line_pv_evaluates_in_point_blocks():
    # 200 points: three blocks of 64 and a partial one; all 200 x 960 (x, s)
    # pairs at once peaked at 14.7 MiB
    x = gauss_hermite(200).nodes
    f = lambda t: hermite_function(2, t)
    tracemalloc.start()
    try:
        hv = hilbert_line_pv(f, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    for k in (0, 63, 64, 199):
        assert abs(hv[k] - hilbert_line_pv(f, x[k])) < 1e-15


@pytest.mark.parametrize("n_points", [1, 113, 200])
def test_line_pv_of_stacked_functions_equals_single_calls(n_points):
    # three stacked functions share one pass in blocks of 21 points, a single
    # function runs in blocks of 64: each row is summed on its own, so the
    # blocking changes no bit; the pair grid stays within the single call's
    # 8 MiB peak
    x = gauss_hermite(200).nodes[:n_points]
    tracemalloc.start()
    try:
        hv = hilbert_line_pv(lambda t: hermite_functions(2, t), x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert hv.shape == (3, n_points)
    for n in range(3):
        assert np.array_equal(hv[n], hilbert_line_pv(lambda t: hermite_function(n, t), x))
    one = hilbert_line_pv(lambda t: hermite_functions(2, t), x[0])
    assert one.shape == (3,)
    assert one[1] == hilbert_line_pv(lambda t: hermite_function(1, t), x[0])


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
@pytest.mark.parametrize("x", [0.7, np.array(0.7), np.zeros(0), np.linspace(-2.0, 2.0, 5),
                               np.linspace(-2.0, 2.0, 6).reshape(2, 3)],
                         ids=["scalar", "0-d", "empty", "1-d", "2-d"])
def test_line_pv_follows_the_point_shape_rule(x, stacked):
    # lead + x.shape, a complex for one point of a single function; every
    # value equals the one-dimensional call's on the flattened points
    f = (lambda t: hermite_functions(2, t)) if stacked else (lambda t: hermite_function(1, t))
    lead = (3,) if stacked else ()
    got = hilbert_line_pv(f, x)
    if lead or np.shape(x):
        assert isinstance(got, np.ndarray) and got.shape == lead + np.shape(x)
    else:
        assert isinstance(got, complex)
    assert np.array_equal(np.reshape(got, lead + (-1,)), hilbert_line_pv(f, np.ravel(x)))


def test_hilbert_squared_residual_decreases():
    def residual(N):
        M = hilbert_fock_matrix(N).entries
        R = M @ M + np.eye(N + 1)
        return max(np.linalg.norm(R[:, j]) for j in range(9))

    r32, r64 = residual(32), residual(64)
    assert r64 < r32


def test_line_pv_involution_pointwise():
    # double transform; the first image decays like a/t, a = -m0/pi, and the
    # second drops a log((S + x)/(S - x))/(pi x) of it past its cutoff
    # S = max|x| + 10 (2/(pi S) at x = 0), added here in closed form
    rule = gauss_hermite(128)
    n = 0
    m0 = float(np.sum(rule.weights * hermite_function(n, rule.nodes)))
    inner = lambda x: hilbert_line_pv(lambda t: hermite_function(n, t), x)
    xs = np.linspace(-1.5, 1.5, 5)
    S = np.max(np.abs(xs)) + 10.0
    tail = -m0 / np.pi**2 * np.array([np.log((S + x) / (S - x)) / x if x else 2.0 / S for x in xs])
    hh = hilbert_line_pv(inner, xs) + tail
    assert np.max(np.abs(hh + hermite_function(n, xs))) < 1e-4


# ----------------------------------------------------------------------
# Berezin transform and boundedness probes
# ----------------------------------------------------------------------

def test_berezin_constant():
    lhs, rhs = berezin_check(symbol_from_taylor([1.0]), 0.3 + 0.2j, 40)
    assert rhs == 1.0
    assert abs(lhs - 1.0) < 1e-12


def test_berezin_linear_symbol():
    lhs, rhs = berezin_check(symbol_from_taylor([0.0, 1.0]), 1.0, 40)
    assert rhs == 0.0
    assert abs(lhs) < 1e-12
    lhs, rhs = berezin_check(symbol_from_taylor([0.0, 1.0]), 1j, 40)
    assert rhs == 2j
    assert abs(lhs - 2j) < 1e-12


def test_berezin_truncation_warning_boundary(resolution_boundary):
    # the same rule as weyl_matrix: warns once k_z loses more than 1e-8 past
    # N = 32 (|z| = 3.18...)
    N = 32
    lo = resolution_boundary(N)
    for scale, warns in ((1.0 - 1e-6, False), (1.0 + 1e-6, True)):
        z = lo * scale * np.exp(0.7j)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            berezin_check(symbol_from_taylor([1.0]), z, N)
        assert any(issubclass(w.category, AccuracyWarning) for w in caught) == warns


@pytest.mark.parametrize("z", [1e300, 1e155j])
def test_berezin_past_double_range_only_warns_accuracy(z):
    # |z|^2 overflows there, and k_z underflows to zero: the quadratic form
    # reads 0 with one AccuracyWarning and no RuntimeWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lhs, rhs = berezin_check(symbol_from_taylor([1.0]), z, 8)
    assert [w.category for w in caught] == [AccuracyWarning]
    assert lhs == 0 and rhs == 1.0


def test_berezin_ten_points():
    rng = np.random.default_rng(5)
    sym = gaussian_square_symbol(0.25, 60)
    for _ in range(10):
        z = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.8
        lhs, rhs = berezin_check(sym, z, 64)
        assert abs(lhs - rhs) < 1e-6


def test_boundedness_probe_trends():
    degrees = [16, 32, 64]
    bounded = boundedness_probe(gaussian_square_symbol(0.25, 128), degrees)
    assert bounded[-1] < 2.0
    assert bounded[-1] / bounded[0] < 1.1
    unbounded = boundedness_probe(gaussian_square_symbol(0.6, 128), degrees)
    assert unbounded[1] > 10 * unbounded[0]
    assert unbounded[2] > 10 * unbounded[1]
    imag_shift = boundedness_probe(exp_linear_symbol(1j, 128), degrees)
    assert imag_shift[2] > 10 * imag_shift[1] > 100 * imag_shift[0] / 10
    # for real a < 0 the multiplier exp(-4a xi^2/(1-2a)) of exp(a u^2) grows
    # without bound too: 7.05e4, 1.52e10 and 9.82e20 at a = -0.3
    negative = boundedness_probe(gaussian_square_symbol(-0.3, 128), degrees)
    assert negative[1] > 1e4 * negative[0] and negative[2] > 1e8 * negative[1]
    real_shift = boundedness_probe(exp_linear_symbol(0.5, 128), degrees)
    assert abs(real_shift[2] - real_shift[0]) < 0.05 * real_shift[0]
    # S[exp(u a)] = e^{a^2/2} W_a for real a, and the truncated unitary W_a
    # keeps norm 1 up to a kernel tail far below 1e-12, so each value is e^{1/8}
    assert max(abs(x - math.exp(0.125)) for x in real_shift) < 1e-12


def test_probe_is_deterministic():
    sym = gaussian_square_symbol(0.25, 64)
    assert boundedness_probe(sym, [24]) == boundedness_probe(sym, [24])


@pytest.mark.parametrize("N", [1, 2, 8, 12, 64, 200, 512])
def test_tsquare_residual_equals_the_full_square(N):
    # only the columns 0..TSQUARE_SPAN of T^2 + I are formed; each equals the
    # column of the full product bit for bit
    T = hilbert_fock_matrix(N).entries
    R = T @ T + np.eye(N + 1)
    want = max(np.linalg.norm(R[:, j]) for j in range(min(TSQUARE_SPAN, N) + 1))
    assert tsquare_residual(N) == float(want)
