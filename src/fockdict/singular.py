"""Singular integral operators S_phi on the Fock space.

S_phi f(z) = int f(w) e^{z conj(w)} phi(z - conj(w)) dlambda(w) for an entire
symbol phi.  Expanding phi and using that int f(w) conj(w)^j e^{z conj(w)}
dlambda = f^(j)(z) gives the normal-ordered form

    S_phi = sum_k phi_k sum_j C(k,j) (-1)^j M^{k-j} D^j,

with M multiplication by z and D differentiation.  For phi(u) = e^{cu} this is
e^{cM} e^{-cD} = e^{c^2/2} e^{c(M-D)}, so every S_phi commutes with M - D.  With
S_phi z^q = sum_p a[p,q] z^p, column 0 is the symbol, a[p,0] = phi_p, and
S_phi z^{q+1} = (M - D) S_phi z^q + q S_phi z^{q-1} gives the recurrence

    a[p,q+1] = a[p-1,q] - (p+1) a[p+1,q] + q a[p,q-1],   S[p,q] = a[p,q] sqrt(p!/q!).

The a[p,q] exceed the entries by dozens of orders of magnitude before
cancelling, so the recurrence runs in exact integers: symbols carry exact
fractional coefficients (times one real scale factor) over one common
denominator L, as the integers u = L a[p,q] / scale.  Each entry
S[p,q] = scale sqrt(p! q!) u/(L q!) is rounded in one canonical step:
u/(L q!) = m 2^e with 1/2 <= |m| < 1 from one correctly rounded division,
sqrt(k!) = r_k 2^(s_k) likewise, and S[p,q] is
ldexp(m * (r_p * r_q * scale), e + s_p + s_q).  Equal ratios give equal
(m, e) and r_p r_q is symmetric, so skew-adjointness, parity zeros and
column 0 (``symbol_to_fock``) come out exact.

The Hilbert transform, the paper's one singular dictionary entry, has its
matrix in closed form (``hilbert_fock_matrix``): O(N) integer square roots
and one correctly rounded division per entry, several times faster than
the recurrence, which stays the engine for general symbols and the
closed form's test oracle.
"""
from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .errors import AccuracyWarning
from .fock import (RESOLVED_DEFECT, FockVector, _as_coeff_array, kernel_truncation_defect, kernel_vector,
                   point_values)
from .hermite import composite_legendre
from .operators import OperatorMatrix

_CFrac = tuple[Fraction, Fraction]
TSQUARE_SPAN = 8  # last column checked by tsquare_residual


def _cfrac(value: complex) -> _CFrac:
    return (Fraction(float(np.real(value))), Fraction(float(np.imag(value))))


def _cfrac_mul(x: _CFrac, y: _CFrac) -> _CFrac:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _split(u: int, den: int) -> tuple[float, int]:
    """u/den = m 2^e (den > 0, u != 0), 1/2 <= |m| < 1, rounded once: e from
    the bit lengths, m from one correctly rounded int division, so equal
    ratios give the same (m, e) whatever their form."""
    e = abs(u).bit_length() - den.bit_length()
    m = (u << -e) / den if e < 0 else u / (den << e)
    return (m / 2, e + 1) if abs(m) >= 1.0 else (m, e)


def _sqrt_factorials(n: int):
    """sqrt(k!) = r[k] 2^s[k] for k = 0..n, split from isqrt(k! 4^64) / 2^64.

    k! is the running product 0!, 1!, ..., n!, one multiplication per k.
    """
    factorials = accumulate(range(1, n + 1), operator.mul, initial=1)
    return zip(*(_split(math.isqrt(f << 128), 1 << 64) for f in factorials))


def _round_scaled(u: int, den: int, w: float, sh: int) -> float:
    """w 2^sh u/den from the split of u/den; w carries every float factor.

    ValueError when the value is past double range.
    """
    m, e = _split(u, den) if u else (0.0, 0)
    try:
        return math.ldexp(m * w, e + sh)
    except OverflowError:
        raise ValueError(f"entry of about 2^{e + sh} is past double range") from None


@dataclass(frozen=True, eq=False)
class EntireSymbol:
    """Taylor coefficients phi_0..phi_K of an entire symbol at the origin.

    ``exact`` holds the coefficients as exact (re, im) fractions with
    phi_k = scale * exact[k]; ``symbol_from_taylor`` converts float input
    losslessly (every double is a binary rational).
    """

    exact: tuple[_CFrac, ...]
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "exact", tuple(self.exact))
        if not self.exact:
            raise ValueError("a symbol needs at least one coefficient")

    @cached_property
    def taylor(self) -> np.ndarray:
        """phi_k as floats, each rounded once from scale * exact[k]; read-only."""
        arr = np.array([self.scale * complex(float(re), float(im)) for re, im in self.exact],
                       dtype=np.complex128)
        arr.setflags(write=False)
        return arr

    @property
    def degree(self) -> int:
        return len(self.exact) - 1

    def __call__(self, u):
        return point_values(np.polyval(self.taylor[::-1], np.ravel(u).astype(np.complex128)), np.shape(u))

    def truncated(self, degree: int) -> "EntireSymbol":
        return EntireSymbol(self.exact[: min(degree, self.degree) + 1], self.scale)


def symbol_from_taylor(taylor) -> EntireSymbol:
    return EntireSymbol(tuple(_cfrac(c) for c in _as_coeff_array(taylor)))


def _odd_antiderivative(degree: int, squeeze: int) -> EntireSymbol:
    """A(z / sqrt(squeeze)) with exact z^{2n+1} coefficient 1/((2n+1) n! squeeze^n).

    The leftover factor 1/sqrt(squeeze) is carried by the scale.
    """
    exact: list[_CFrac] = [(Fraction(0), Fraction(0))] * (degree + 1)
    for n in range(0, (degree - 1) // 2 + 1):
        fr = Fraction(1, (2 * n + 1) * math.factorial(n) * squeeze**n)
        exact[2 * n + 1] = (fr, Fraction(0))
    return EntireSymbol(exact, 1.0 / math.sqrt(squeeze))


def antiderivative_coeffs(degree: int) -> EntireSymbol:
    """Taylor series of the odd antiderivative of e^{z^2}: sum z^{2n+1}/((2n+1) n!)."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return _odd_antiderivative(degree, 1)


def scaled_antiderivative_symbol(degree: int) -> EntireSymbol:
    """A(z / sqrt(2)) with A the antiderivative above; scale carries 1/sqrt(2)."""
    return _odd_antiderivative(degree, 2)


def hilbert_symbol(degree: int) -> EntireSymbol:
    """Symbol of the Fock-side Hilbert transform: -(2/sqrt(pi)) A(u/sqrt(2))."""
    base = scaled_antiderivative_symbol(degree)
    return EntireSymbol(base.exact, -2.0 / math.sqrt(np.pi) * base.scale)


def _exp_power_symbol(c: complex, power: int, degree: int) -> EntireSymbol:
    """phi(u) = exp(c u^power): exact coefficient c^n / n! at u^(power n)."""
    exact: list[_CFrac] = [(Fraction(0), Fraction(0))] * (degree + 1)
    cx = _cfrac(c)
    term: _CFrac = (Fraction(1), Fraction(0))
    for n in range(degree // power + 1):
        exact[power * n] = term
        re, im = _cfrac_mul(term, cx)
        term = (re / (n + 1), im / (n + 1))
    return EntireSymbol(exact)


def gaussian_square_symbol(a: complex, degree: int) -> EntireSymbol:
    """phi(u) = exp(a u^2), truncated; bounded S_phi requires real a < 1/2."""
    return _exp_power_symbol(complex(a), 2, degree)


def exp_linear_symbol(a: complex, degree: int) -> EntireSymbol:
    """phi(u) = exp(u conj(a)); S_phi is a weighted displacement, bounded iff a is real."""
    return _exp_power_symbol(np.conj(complex(a)), 1, degree)


def fock_norm_A(n_terms: int) -> float:
    """Partial sum of ||A(z/sqrt(2))||^2 = 1/2 sum (2n+1)!/((2n+1)^2 4^n (n!)^2).

    The terms are binom(2n, n) 4^{-n} / (2n+1), the Taylor coefficients of
    arcsin at 1, so the series sums to arcsin(1)/2 = pi/4 and the tail past
    n_terms is pi/4 minus the partial sum.  Terms decay like n^{-3/2}, so
    the tail falls off like 1/(2 sqrt(pi n_terms)).
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    total = 0.0
    t = 1.0
    for n in range(n_terms):
        if n >= 1:
            t *= (2 * n - 1) ** 2 / (2 * n * (2 * n + 1))
        total += t
    return 0.5 * total


def symbol_to_fock(symbol: EntireSymbol, degree: int) -> FockVector:
    """Coefficients of the symbol itself as a Fock vector: c_k = phi_k sqrt(k!).

    Rounded by the q = 0 case of the rule of ``s_phi_matrix``, so the two
    agree bit for bit; sqrt(k!) alone overflows well before the products do.
    """
    K = min(degree, symbol.degree)
    r, s = _sqrt_factorials(K)
    c = np.zeros(degree + 1, dtype=np.complex128)
    for k in range(K + 1):
        w, sh = r[k] * r[0] * symbol.scale, s[k] + s[0]
        re, im = symbol.exact[k]
        c[k] = complex(_round_scaled(re.numerator, re.denominator, w, sh),
                       _round_scaled(im.numerator, im.denominator, w, sh))
    return FockVector(c)


def s_phi_matrix(symbol: EntireSymbol, degree: int) -> OperatorMatrix:
    """Matrix of S_phi on e_0..e_N by the column recurrence of the module docstring.

    Columns 0..N need rows up to 2N - q, hence phi_0..phi_2N.  The integers
    u = L a / scale, with L the common denominator of ``symbol.exact``,
    advance as real and imaginary columns; each entry is rounded once from
    u/(L q!) by the canonical split.
    """
    N, K = degree, symbol.degree
    if K > 2 * N:
        raise ValueError(f"symbol degree {K} exceeds 2 * matrix degree {2 * N}")
    L = math.lcm(*(c.denominator for pair in symbol.exact for c in pair))
    cols = [[(pair[i] * L).numerator for pair in symbol.exact] + [0] * (2 * N - K)
            for i in (0, 1)]
    prev = [[0] * (2 * N + 1)] * 2
    r, s = _sqrt_factorials(N)
    out = np.zeros((N + 1, N + 1), dtype=np.complex128)
    for q in range(N + 1):
        re, im = cols
        den = L * math.factorial(q)
        for p in range(N + 1):
            if re[p] or im[p]:
                w, sh = r[p] * r[q] * symbol.scale, s[p] + s[q]
                out[p, q] = complex(_round_scaled(re[p], den, w, sh),
                                    _round_scaled(im[p], den, w, sh))
        cols, prev = [
            [(u[p - 1] if p else 0) - (p + 1) * u[p + 1] + q * v[p] for p in range(2 * N - q)]
            for u, v in zip(cols, prev)
        ], cols
    return OperatorMatrix(out)


@lru_cache(maxsize=8)
def hilbert_fock_matrix(degree: int) -> OperatorMatrix:
    """Fock-side Hilbert transform, S_phi with phi = -(2/sqrt(pi)) A(u/sqrt(2)), in closed form.

    For p + q odd, with e the even and o the odd index of the pair,

        T[p, q] = sgn(q - p) sqrt(2/pi)
                  sqrt(o C(e, e/2) C(o-1, (o-1)/2) / (2^(e+o-1) (o - e)^2)),

    and T[p, q] = 0 for p + q even.  Derivation (Szego, Orthogonal
    Polynomials, ch. V, for the values at 0 and the differential equation):

    * the Bargmann transform sends h_n to e_n, so T[p, q] = +-2 int_0^inf h_p h_q
      (the 50-digit oracle ``hilbert_rows`` of the benchmark sums this form);
    * h_n'' = (4x^2 - 2(2n+1)) h_n, so the Wronskian h_p h_q' - h_p' h_q has
      derivative 4(q - p) h_p h_q and vanishes at infinity, which gives
      int_0^inf h_p h_q = (h_p(0) h_q'(0) - h_p'(0) h_q(0)) / (4(q - p));
    * at 0, h_e'(0) = 0, h_o(0) = 0 and h_o'(0) = 2 sqrt(o) h_(o-1)(0);
    * h_e(0)^2 = sqrt(2/pi) C(e, e/2) / 2^e.

    Rounding: with K = N + 64, a_e = isqrt(C(e, e/2) 2^(2K-e)) and
    b_o = isqrt(o C(o-1, (o-1)/2) 2^(2K-o+1)) carry each index's factor to
    K bits (O(N) integer square roots); an entry's magnitude is
    sqrt(2/pi) times a_e b_o / (2^(2K) |o - e|), one correctly rounded
    division and one float product.  The magnitude is symmetric in (p, q),
    so parity zeros and skew-adjointness T = -T^T hold exactly.  Entries sit
    within 1.11e-16 of their exact values at degrees 64 and 128; the general
    recurrence ``s_phi_matrix(hilbert_symbol(2N - 1), N)`` rounds
    differently and agrees to 3.3e-16.
    """
    N, K = degree, degree + 64
    even, odd = range(0, N + 1, 2), range(1, N + 1, 2)
    a = [math.isqrt(math.comb(e, e // 2) << (2 * K - e)) for e in even]
    b = [math.isqrt(o * math.comb(o - 1, o // 2) << (2 * K - o + 1)) for o in odd]
    one = 1 << (2 * K)
    ratio = np.array([[ae * bo / (one * abs(o - e)) for o, bo in zip(odd, b)] for e, ae in zip(even, a)])
    upper = math.sqrt(2.0 / math.pi) * ratio * np.where(np.less.outer(even, odd), 1.0, -1.0)  # sgn(o - e)
    T = np.zeros((N + 1, N + 1), dtype=np.complex128)
    T[0::2, 1::2] = upper
    T[1::2, 0::2] = -upper.T
    return OperatorMatrix(T)


def tsquare_residual(degree: int) -> float:
    """max over columns j <= min(TSQUARE_SPAN, degree) of ||(T^2 + I) e_j||, T = hilbert_fock_matrix(degree)."""
    T = hilbert_fock_matrix(degree).entries
    span = min(TSQUARE_SPAN, degree)
    R = T @ T[:, : span + 1] + np.eye(degree + 1, span + 1)
    return float(max(np.linalg.norm(R[:, j]) for j in range(span + 1)))


def berezin_check(symbol: EntireSymbol, z: complex, degree: int) -> tuple[complex, complex]:
    """Berezin transform identity: <S_phi k_z, k_z> = phi(z - conj(z)).

    Returns (quadratic form on the truncated kernel, Taylor evaluation at
    2i Im z), equal up to truncation; AccuracyWarning if k_z is unresolved.
    """
    z = complex(z)
    if kernel_truncation_defect(z, degree) > RESOLVED_DEFECT:
        warnings.warn(
            "kernel point too far out for this degree", AccuracyWarning, stacklevel=2
        )
    kv = kernel_vector(z, degree).coeffs
    S = s_phi_matrix(symbol, degree)
    lhs = complex(np.vdot(kv, S.entries @ kv))
    rhs = symbol(z - np.conj(z))
    return lhs, rhs


def boundedness_probe(symbol: EntireSymbol, degree_list) -> list[float]:
    """Spectral norms ||S_phi|| of the truncations at the given degrees.

    Each value is the exact 2-norm of the truncated matrix; the monotone
    trend across degrees is the deliverable, not a bound on the operator.
    Growth without bound is reported, never raised.
    """
    return [
        float(np.linalg.norm(s_phi_matrix(symbol.truncated(2 * N), N).entries, 2))
        for N in degree_list
    ]


def hilbert_line_pv(f, x, cutoff: float = None, tail_coeff: float = 0.0):
    """Line-side Hilbert transform (1/pi) PV int f(t)/(t - x) dt by quadrature.

    Mirrored nodes around the singularity: substituting t = x +- s turns the
    principal value into int_0^S [f(x+s) - f(x-s)]/s ds, smooth at s = 0.
    Accurate to ~1e-8 on Hermite functions of low index.  For integrands that
    decay only like a/t (e.g. Hilbert images of even functions) pass the
    asymptotic coefficient a as ``tail_coeff``; the tail beyond the cutoff is
    then added in closed form.

    x is one point or an array of any shape: a single f gives a complex or
    an array of x's shape, as ``fock.point_values`` does.  f may return
    several functions stacked on leading axes (shape lead + (len(t),), e.g.
    ``hermite_functions(2, t)``); the result then has shape lead + x.shape,
    and each function's values equal those of a call with that function
    alone bit for bit.  The pair grid is built for at most 64
    (x, function) rows at a time.
    """
    xs = np.asarray(x, dtype=np.float64).ravel()
    S = (float(np.max(np.abs(xs), initial=0.0)) + 10.0) if cutoff is None else float(cutoff)
    rule = composite_legendre(0.0, S, max(8, int(S)))
    s = rule.nodes
    ws = rule.weights / s / np.pi
    lead = np.shape(f(s[:1]))[:-1]
    vals = np.empty(lead + (len(xs),), dtype=np.complex128)
    # f runs over the (x, s) pairs of 64 points x at a time (fewer for
    # stacked functions), which bounds the memory of the pair grid however
    # many points are asked for; each row is summed on its own (numpy's
    # pairwise sum, not a BLAS product whose rounding depends on the row's
    # place in its block), so no value depends on the blocking
    block = max(1, 64 // math.prod(lead))
    for i in range(0, len(xs), block):
        blk = xs[i : i + block, None]
        plus = np.asarray(f((blk + s).ravel())).reshape(lead + (len(blk), len(s)))
        minus = np.asarray(f((blk - s).ravel())).reshape(lead + (len(blk), len(s)))
        vals[..., i : i + block] = np.sum((plus - minus) * ws, axis=-1)
    if tail_coeff != 0.0:
        small = np.abs(xs) < 1e-12
        corr = np.empty_like(xs)
        corr[small] = 2.0 / S
        xa = xs[~small]
        corr[~small] = np.log((S + xa) / (S - xa)) / xa
        vals = vals + tail_coeff * corr / np.pi
    if lead:
        return vals.reshape(lead + np.shape(x))
    return point_values(vals, np.shape(x))
