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
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import AccuracyWarning
from .fock import RESOLVED_DEFECT, FockVector, kernel_truncation_defect, kernel_vector, log_factorials
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
    """sqrt(k!) = r[k] 2^s[k] for k = 0..n, split from isqrt(k! 4^64) / 2^64."""
    return zip(*(_split(math.isqrt(math.factorial(k) << 128), 1 << 64) for k in range(n + 1)))


def _round_scaled(u: int, den: int, w: float, sh: int) -> float:
    """w 2^sh u/den from the split of u/den; w carries every float factor."""
    m, e = _split(u, den) if u else (0.0, 0)
    return math.ldexp(m * w, e + sh)


@dataclass(frozen=True, eq=False)
class EntireSymbol:
    """Taylor coefficients phi_0..phi_K of an entire symbol at the origin.

    ``exact`` holds the coefficients as exact (re, im) fractions with
    phi_k = scale * exact[k]; generic float input is converted losslessly
    (every double is a binary rational).  Membership of phi in the Fock
    space requires sum |phi_n|^2 n! < infinity, estimated by ``f2_tail_ratio``.
    """

    taylor: np.ndarray
    exact: tuple[_CFrac, ...] | None = None
    scale: float = 1.0

    def __post_init__(self):
        arr = np.asarray(self.taylor, dtype=np.complex128).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("taylor coefficients must be a non-empty 1-d sequence")
        arr.setflags(write=False)
        object.__setattr__(self, "taylor", arr)
        if self.exact is None:
            object.__setattr__(self, "exact", tuple(_cfrac(c) for c in arr))
            object.__setattr__(self, "scale", 1.0)
        else:
            object.__setattr__(self, "exact", tuple(self.exact))

    @property
    def degree(self) -> int:
        return len(self.taylor) - 1

    def __call__(self, u):
        scalar = np.isscalar(u)
        us = np.atleast_1d(np.asarray(u, dtype=np.complex128))
        vals = np.polyval(self.taylor[::-1], us)
        return complex(vals[0]) if scalar else vals

    def truncated(self, degree: int) -> "EntireSymbol":
        k = min(degree, self.degree) + 1
        return EntireSymbol(self.taylor[:k], self.exact[:k], self.scale)

    def f2_tail_ratio(self) -> float:
        """sup of recent per-degree growth ratios of |phi_n|^2 n!.

        A value below 1 indicates the membership series is still contracting
        at the truncation degree; this is a heuristic flag, not a proof.
        """
        mags = np.abs(self.taylor)
        nz = np.nonzero(mags)[0]
        if len(nz) < 2:
            return 0.0
        gl = log_factorials(len(mags) - 1)
        log_terms = 2.0 * np.log(mags[nz]) + gl[nz]
        ratios = np.exp(np.diff(log_terms) / np.diff(nz))
        tail = ratios[-4:]
        return float(np.max(tail))


def symbol_from_taylor(taylor) -> EntireSymbol:
    return EntireSymbol(np.asarray(taylor, dtype=np.complex128))


def _symbol_from_exact(exact: list[_CFrac], scale: float = 1.0) -> EntireSymbol:
    """Symbol with phi_k = scale * exact[k]; each float is rounded once."""
    taylor = [scale * complex(float(re), float(im)) for re, im in exact]
    return EntireSymbol(taylor, tuple(exact), scale)


def _odd_antiderivative(degree: int, squeeze: int) -> EntireSymbol:
    """A(z / sqrt(squeeze)) with exact z^{2n+1} coefficient 1/((2n+1) n! squeeze^n).

    The leftover factor 1/sqrt(squeeze) is carried by the scale.
    """
    exact: list[_CFrac] = [(Fraction(0), Fraction(0))] * (degree + 1)
    for n in range(0, (degree - 1) // 2 + 1):
        fr = Fraction(1, (2 * n + 1) * math.factorial(n) * squeeze**n)
        exact[2 * n + 1] = (fr, Fraction(0))
    return _symbol_from_exact(exact, 1.0 / math.sqrt(squeeze))


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
    scale = -2.0 / math.sqrt(np.pi) * base.scale
    return EntireSymbol(base.taylor * (-2.0 / math.sqrt(np.pi)), base.exact, scale)


def _exp_power_symbol(c: complex, power: int, degree: int) -> EntireSymbol:
    """phi(u) = exp(c u^power): exact coefficient c^n / n! at u^(power n)."""
    exact: list[_CFrac] = [(Fraction(0), Fraction(0))] * (degree + 1)
    cx = _cfrac(c)
    term: _CFrac = (Fraction(1), Fraction(0))
    for n in range(degree // power + 1):
        exact[power * n] = term
        re, im = _cfrac_mul(term, cx)
        term = (re / (n + 1), im / (n + 1))
    return _symbol_from_exact(exact)


def gaussian_square_symbol(a: complex, degree: int) -> EntireSymbol:
    """phi(u) = exp(a u^2), truncated; bounded S_phi requires real a < 1/2."""
    return _exp_power_symbol(complex(a), 2, degree)


def exp_linear_symbol(a: complex, degree: int) -> EntireSymbol:
    """phi(u) = exp(u conj(a)); S_phi is a weighted displacement, bounded iff a is real."""
    return _exp_power_symbol(np.conj(complex(a)), 1, degree)


def fock_norm_A(n_terms: int, with_tail: bool = False):
    """Partial sum of ||A(z/sqrt(2))||^2 = 1/2 sum (2n+1)!/((2n+1)^2 4^n (n!)^2).

    Terms decay like n^{-3/2}, so the tail past n_terms is estimated by the
    integral comparison ~ 1/(sqrt(pi) sqrt(n_terms)).
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    total = 0.0
    t = 1.0
    for n in range(n_terms):
        if n >= 1:
            t *= (2 * n - 1) ** 2 / (2 * n * (2 * n + 1))
        total += t
    value = 0.5 * total
    if with_tail:
        tail = 1.0 / (math.sqrt(np.pi) * math.sqrt(n_terms))
        return value, tail
    return value


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
    """Fock-side Hilbert transform: S_phi with phi = -(2/sqrt(pi)) A(u/sqrt(2)).

    Column 0 is the coefficient vector of the symbol itself; the matrix is
    skew-adjoint with odd parity (entries vanish when row and column have
    equal parity).
    """
    return s_phi_matrix(hilbert_symbol(max(1, 2 * degree - 1)), degree)


def tsquare_residual(degree: int) -> float:
    """max over columns j <= min(TSQUARE_SPAN, degree) of ||(T^2 + I) e_j||, T = hilbert_fock_matrix(degree)."""
    T = hilbert_fock_matrix(degree).entries
    R = T @ T + np.eye(degree + 1)
    return float(max(np.linalg.norm(R[:, j]) for j in range(min(TSQUARE_SPAN, degree) + 1)))


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
    kv = kernel_vector(z, degree, normalized=True).coeffs
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
    """
    from .hermite import composite_legendre

    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    S = (float(np.max(np.abs(xs))) + 10.0) if cutoff is None else float(cutoff)
    rule = composite_legendre(0.0, S, max(8, int(S)), 32)
    s = rule.nodes
    vals = np.empty(len(xs), dtype=np.complex128)
    # f runs over the (x, s) pairs of 64 points x at a time, which bounds the
    # memory of the pair grid however many points are asked for
    for i in range(0, len(xs), 64):
        blk = xs[i : i + 64, None]
        plus = np.asarray(f((blk + s).ravel())).reshape(len(blk), len(s))
        minus = np.asarray(f((blk - s).ravel())).reshape(len(blk), len(s))
        vals[i : i + 64] = ((plus - minus) / s) @ rule.weights / np.pi
    if tail_coeff != 0.0:
        small = np.abs(xs) < 1e-12
        corr = np.empty_like(xs)
        corr[small] = 2.0 / S
        xa = xs[~small]
        corr[~small] = np.log((S + xa) / (S - xa)) / xa
        vals = vals + tail_coeff * corr / np.pi
    return complex(vals[0]) if scalar else vals
