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
cancelling, so the recurrence runs in exact integers: a symbol holds
phi_k = scale (re[k] + i im[k]) / L, integers in lowest terms that are the
column u = L a[p,0] / scale the recurrence starts from.  Each entry
S[p,q] = scale sqrt(p! q!) u/(L q!) is rounded in one canonical step:
u/(L q!) = m 2^e with 1/2 <= |m| < 1 from one correctly rounded division,
sqrt(k!) = r_k 2^(s_k) likewise, and S[p,q] is
ldexp(m * (r_p * r_q * scale), e + s_p + s_q).  Equal ratios give equal
(m, e) and r_p r_q is symmetric, so skew-adjointness, parity zeros and
column 0 (``symbol_to_fock`` runs the same ``_round_column``) come out exact.

The Hilbert transform, the paper's one singular dictionary entry, has its
matrix in closed form (``hilbert_fock_matrix``): O(N) integer square roots
and one correctly rounded division per entry, several times faster than
the recurrence, which stays the engine for general symbols and the
closed form's test oracle.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import AccuracyWarning
from .fock import (RESOLVED_DEFECT, FockVector, _as_coeff_array, kernel_truncation_defect, kernel_vector,
                   point_values)
from .hermite import composite_legendre
from .operators import OperatorMatrix

TSQUARE_SPAN = 8  # last column checked by tsquare_residual


def _split(u: int, den: int) -> tuple[float, int]:
    """u/den = m 2^e (den > 0, u != 0), 1/2 <= |m| < 1, rounded once: e from
    the bit lengths, m from one correctly rounded int division, so equal
    ratios give the same (m, e) whatever their form."""
    e = abs(u).bit_length() - den.bit_length()
    m = (u << -e) / den if e < 0 else u / (den << e)
    return (m / 2, e + 1) if abs(m) >= 1.0 else (m, e)


# sqrt(k!) = r[k] 2^s[k] for k < len(r), and (len(r))!: grown on demand by
# _sqrt_factorials, one process-wide table that every caller shares
_SQRT_FACTORIALS: tuple[tuple[float, ...], tuple[int, ...], int] = ((), (), 1)


def _sqrt_factorials(n: int) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """sqrt(k!) = r[k] 2^s[k] for k = 0..n, split from isqrt(k! 4^64) / 2^64.

    The pairs come from one process-wide table.  A call past its end extends
    it from the last factorial kept, one multiplication per k, so any prefix
    is the same whatever order the calls came in.
    """
    global _SQRT_FACTORIALS
    r, s, f = _SQRT_FACTORIALS
    if len(r) <= n:
        pairs = []
        for k in range(len(r), n + 1):
            pairs.append(_split(math.isqrt(f << 128), 1 << 64))
            f *= k + 1
        more_r, more_s = zip(*pairs)
        # one assignment of a complete table: a concurrent caller sees the old or the new one
        _SQRT_FACTORIALS = r, s, f = r + more_r, s + more_s, f
    return r[: n + 1], s[: n + 1]


def _round_scaled(u: int, den: int, w: float, sh: int) -> float:
    """w 2^sh u/den from the split of u/den; w carries every float factor.

    ValueError when the value is past double range.
    """
    m, e = _split(u, den) if u else (0.0, 0)
    try:
        return math.ldexp(m * w, e + sh)
    except OverflowError:
        raise ValueError(f"entry of about 2^{e + sh} is past double range") from None


def _round_column(col: np.ndarray, re, im, den: int, scale: float, r, s, q: int) -> None:
    """col[p] = scale sqrt(p! q!) (re[p] + i im[p]) / den, den = L q!, by ``_round_scaled``; zeros stay +0."""
    for p in range(len(col)):
        if re[p] or im[p]:
            w, sh = r[p] * r[q] * scale, s[p] + s[q]
            col[p] = complex(_round_scaled(re[p], den, w, sh), _round_scaled(im[p], den, w, sh))


@dataclass(frozen=True, eq=False)
class EntireSymbol:
    """Taylor coefficients phi_0..phi_K of an entire symbol at the origin.

    phi_k = scale * (re[k] + i im[k]) / denominator in lowest terms, the column
    the ``s_phi_matrix`` recurrence starts from; ``symbol_from_taylor`` converts
    float input losslessly (every double is a binary rational).
    """

    re: tuple[int, ...]
    im: tuple[int, ...]
    denominator: int
    scale: float = 1.0

    def __post_init__(self):
        if not self.re or len(self.re) != len(self.im) or self.denominator <= 0:
            raise ValueError("a symbol needs at least one coefficient, as many re as im, a denominator > 0")
        g = math.gcd(self.denominator, *self.re, *self.im)
        for name in ("re", "im"):
            object.__setattr__(self, name, tuple(x // g for x in getattr(self, name)))
        object.__setattr__(self, "denominator", self.denominator // g)

    @cached_property
    def taylor(self) -> np.ndarray:
        """phi_k as floats, each rounded once from its ratio, read-only; ValueError past double range."""
        try:
            arr = np.array([self.scale * complex(x / self.denominator, y / self.denominator)
                            for x, y in zip(self.re, self.im)], dtype=np.complex128)
        except OverflowError:
            raise ValueError("a symbol coefficient is past double range") from None
        arr.setflags(write=False)
        return arr

    @property
    def degree(self) -> int:
        return len(self.re) - 1

    def __call__(self, u):
        return point_values(np.polyval(self.taylor[::-1], np.ravel(u).astype(np.complex128)), np.shape(u))

    def truncated(self, degree: int) -> "EntireSymbol":
        return EntireSymbol(self.re[: degree + 1], self.im[: degree + 1], self.denominator, self.scale)


def symbol_from_taylor(taylor) -> EntireSymbol:
    c = _as_coeff_array(taylor)
    if not np.isfinite(c).all():
        raise ValueError(f"symbol input must be finite, got {c[~np.isfinite(c)][0]}")
    ratios = [x.as_integer_ratio() for x in c.real.tolist() + c.imag.tolist()]
    den = max(d for _, d in ratios)  # every d is a power of two
    nums = [n * (den // d) for n, d in ratios]
    return EntireSymbol(nums[: c.size], nums[c.size :], den)


def _odd_antiderivative(degree: int, factor: float = 1.0) -> EntireSymbol:
    """factor A(z / sqrt(2)), A(z) = sum z^{2n+1}/((2n+1) n!) the odd antiderivative of e^{z^2}.

    Its z^{2n+1} coefficient 1/((2n+1) n! 2^n) is held exactly over
    lcm(1, 3, ..., 2M+1) M! 2^M; the scale carries factor/sqrt(2).
    """
    top = max(0, (degree - 1) // 2)  # M, the last n with 2n + 1 <= degree
    lcm, tail = math.lcm(*range(1, degree + 1, 2)), 1  # tail = M! 2^M / (n! 2^n)
    re = [0] * (degree + 1)
    for n in range((degree - 1) // 2, -1, -1):
        re[2 * n + 1], tail = lcm // (2 * n + 1) * tail, tail * n * 2
    den = lcm * math.factorial(top) * 2**top
    return EntireSymbol(re, [0] * (degree + 1), den, factor * (1.0 / math.sqrt(2)))


def scaled_antiderivative_symbol(degree: int) -> EntireSymbol:
    """A(z / sqrt(2)) with A(z) = sum z^{2n+1}/((2n+1) n!); scale carries 1/sqrt(2)."""
    return _odd_antiderivative(degree)


def hilbert_symbol(degree: int) -> EntireSymbol:
    """Symbol of the Fock-side Hilbert transform: -(2/sqrt(pi)) A(u/sqrt(2))."""
    return _odd_antiderivative(degree, -2.0 / math.sqrt(np.pi))


def _exp_power_symbol(c: complex, power: int, degree: int) -> EntireSymbol:
    """phi(u) = exp(c u^power): c^n / n! at u^(power n), over E^K K! (c = (x + iy)/E, K = degree // power)."""
    one = symbol_from_taylor([c])  # c = (x + iy)/E exactly; ValueError unless c is finite
    (x,), (y,), E, K = one.re, one.im, one.denominator, degree // power
    den = tr = E**K * math.factorial(K)
    re, im, ti = [den] + [0] * degree, [0] * (degree + 1), 0
    for n in range(1, K + 1):  # t_n = (x + iy)^n E^(K-n) K!/n!, by an exact division
        tr, ti = (tr * x - ti * y) // (E * n), (tr * y + ti * x) // (E * n)
        re[power * n], im[power * n] = tr, ti
    return EntireSymbol(re, im, den)


def gaussian_square_symbol(a: complex, degree: int) -> EntireSymbol:
    """phi(u) = exp(a u^2), truncated.  For real a, S_phi is the Fourier multiplier
    (1-2a)^(-1/2) exp(-4a xi^2/(1-2a)): bounded exactly when 0 <= a < 1/2, of norm (1-2a)^(-1/2)."""
    return _exp_power_symbol(complex(a), 2, degree)


def exp_linear_symbol(a: complex, degree: int) -> EntireSymbol:
    """phi(u) = exp(u conj(a)); S_phi is a weighted displacement, bounded iff a is real."""
    return _exp_power_symbol(complex(a).conjugate(), 1, degree)


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

    Rounded by ``_round_column`` at q = 0, as column 0 of ``s_phi_matrix`` is, so the
    two agree bit for bit; sqrt(k!) alone overflows well before the products do.
    """
    K = min(degree, symbol.degree)
    c = np.zeros(degree + 1, dtype=np.complex128)
    _round_column(c[: K + 1], symbol.re, symbol.im, symbol.denominator, symbol.scale, *_sqrt_factorials(K), 0)
    return FockVector(c)


def s_phi_matrix(symbol: EntireSymbol, degree: int) -> OperatorMatrix:
    """Matrix of S_phi on e_0..e_N by the column recurrence of the module docstring.

    Columns 0..N need rows up to 2N - q, hence phi_0..phi_2N.  The integer
    columns u start from the symbol's own (re, im); ``_round_column`` rounds each.
    """
    N, K = degree, symbol.degree
    if K > 2 * N:
        raise ValueError(f"symbol degree {K} exceeds 2 * matrix degree {2 * N}")
    cols = [list(symbol.re) + [0] * (2 * N - K), list(symbol.im) + [0] * (2 * N - K)]
    prev = [[0] * (2 * N + 1)] * 2
    r, s = _sqrt_factorials(N)
    out = np.zeros((N + 1, N + 1), dtype=np.complex128)
    for q in range(N + 1):
        _round_column(out[:, q], *cols, symbol.denominator * math.factorial(q), symbol.scale, r, s, q)
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
    if degree < 0:
        raise ValueError("degree must be >= 0")
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


def hilbert_line_pv(f, x):
    """Line-side Hilbert transform (1/pi) PV int f(t)/(t - x) dt by quadrature.

    Mirrored nodes around the singularity: substituting t = x +- s turns the
    principal value into int_0^S [f(x+s) - f(x-s)]/s ds, smooth at s = 0,
    with the cutoff S = max|x| + 10 always.  On h_0..h_2 the Fock columns
    this gives (``verify`` h5) are 2.5e-14 from the closed form at degree
    620.  An f decaying only like a/t (the Hilbert image of an even
    function) misses a log((S + x)/(S - x))/(pi x) past S; callers add it.

    x is one point or an array of any shape: a single f gives a complex or
    an array of x's shape, as ``fock.point_values`` does.  f may return
    several functions stacked on leading axes (shape lead + (len(t),), e.g.
    ``hermite_functions(2, t)``); the result then has shape lead + x.shape,
    and each function's values equal those of a call with that function
    alone bit for bit.  The pair grid is built for at most 64
    (x, function) rows at a time.
    """
    xs = np.asarray(x, dtype=np.float64).ravel()
    S = float(np.max(np.abs(xs), initial=0.0)) + 10.0
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
    if lead:
        return vals.reshape(lead + np.shape(x))
    return point_values(vals, np.shape(x))
