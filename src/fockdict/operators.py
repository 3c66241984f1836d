"""Operator dictionary on the truncated Fock basis.

Fourier transform as rotation, spectral projections, displacement (Weyl)
operators, the translation/modulation correspondence, dilation from its
position ladder, and the multiplication/differentiation pair, whose words
``ladder_word`` applies by index shifts.  All matrices act on coefficient
vectors against e_n(z) = z^n/sqrt(n!).

Displacements are covariant under rotation: W_{e^{i theta} rho} =
R_theta^* W_rho R_theta with R_theta f(z) = f(e^{i theta} z), so
<W_a e_n, e_p> = G_pn(|a|) e^{i theta (n - p)} with G real.  One cache keeps
the last four G, keyed by (|a|, N, K); the Weyl engine decides only how a
missing G is built.  W_a, W_{-a} and every point of the same modulus then pay
for their N + K + 1 phases alone.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import AccuracyWarning
from .fock import (RESOLVED_DEFECT, FockVector, exp_quadratic_coeffs, kernel_truncation_defect,
                   log_factorials, lost_mass, point_values)
from .hermite import QuadratureRule, require_line_rule


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Block <A e_n, e_p>, p <= ``degree`` M, n <= ``input_degree`` K, of P_M A P_K.

    Contracts of unitary operators hold on interior index blocks only: the
    leading columns that keep their mass (``weyl_interior_block``).
    """

    entries: np.ndarray

    def __post_init__(self):
        # one copy, complex and row-major whatever the input: apply would
        # cast a real block to a complex temporary on every call, and the
        # layout fixes the product's rounding
        arr = np.array(self.entries, dtype=np.complex128, order="C")
        if arr.ndim != 2:
            raise ValueError("entries must be a matrix")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def degree(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def input_degree(self) -> int:
        return self.entries.shape[1] - 1

    def apply(self, vec: FockVector) -> FockVector:
        """P_M A P_K vec, from the leading columns that vec reaches only."""
        k = min(vec.reach, self.input_degree) + 1
        return FockVector(self.entries[:, :k] @ vec.coeffs[:k])


def unitarity_residual(op: OperatorMatrix, block: int) -> float:
    """max |(A*A - I)_{jk}| over the top-left block of the given size."""
    g = op.entries.conj().T @ op.entries
    b = min(block, op.input_degree + 1)
    return float(np.max(np.abs(g[:b, :b] - np.eye(b))))


def weyl_interior_block(*ops: OperatorMatrix) -> int:
    """Largest b such that every column n < b of each truncated unitary loses
    at most 1e-12 of its unit mass past the degree (``fock.lost_mass`` of the
    column); 0 if column 0 already does.  On it A*A = I and, for
    (W_a, W_{-a}), W_a W_{-a} = I up to the lost mass.
    """
    lost = np.max([lost_mass(A.entries.T) for A in ops], axis=0)
    return int(np.argmax(np.append(lost > 1e-12, True)))  # first losing column, else K + 1


# ----------------------------------------------------------------------
# Fourier as rotation, spectral projections
# ----------------------------------------------------------------------

def fourier_fock(f: FockVector, inverse: bool = False) -> FockVector:
    """Fock-side Fourier transform: f(z) -> f(iz), i.e. c_n -> i^n c_n."""
    n = np.arange(len(f.coeffs))
    phase = (-1j if inverse else 1j) ** (n % 4)
    return FockVector(f.coeffs * phase)


def rotation(theta: float, f: FockVector) -> FockVector:
    """Rotation f(z) -> f(e^{i theta} z), unitary and diagonal; ValueError for a non-finite theta.

    A theta past pi is first reduced to the angle of e^{i theta}, whose sine
    and cosine libm finds exactly, so a phase carries that angle's rounding.
    """
    if not np.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta!r}")
    if abs(theta) > np.pi:
        theta = float(np.angle(np.exp(1j * theta)))
    n = np.arange(len(f.coeffs))
    return FockVector(f.coeffs * np.exp(1j * theta * n))


def spectral_projection(k: int, f: FockVector) -> FockVector:
    """Projection onto coefficients with index congruent to k mod 4."""
    if k not in (0, 1, 2, 3):
        raise ValueError("k must be in 0..3")
    c = np.array(f.coeffs)
    n = np.arange(len(c))
    c[n % 4 != k] = 0.0
    return FockVector(c)


def fourier_line_quadrature(f: Callable, x, rule: QuadratureRule):
    """Line-side Fourier transform pi^{-1/2} int f(t) e^{2ixt} dt by quadrature.

    Used to transport eigenrelations: applied to h_n it returns i^n h_n up to
    quadrature error.
    """
    require_line_rule(rule, "fourier_line_quadrature")
    xs = np.asarray(x, dtype=np.float64).ravel()
    t = rule.nodes
    ft = rule.weights * np.asarray(f(t), dtype=np.complex128)
    vals = np.exp(2j * np.outer(xs, t)) @ ft / np.sqrt(np.pi)
    return point_values(vals, np.shape(x))


# ----------------------------------------------------------------------
# Displacement (Weyl) operators
# ----------------------------------------------------------------------

def weyl_matrix(a: complex, degree: int, input_degree: int | None = None) -> OperatorMatrix:
    """Matrix of W_a f(z) = f(z - a) exp(z conj(a) - |a|^2/2) on e_0..e_N.

    With r = |a|^2, <W_a e_n, e_p> = e^{-r/2} sqrt(n!/p!) conj(a)^{p-n}
    L_n^{(p-n)}(r) for p >= n (Cahill & Glauber 1969); above the diagonal p
    and n swap and (-a)^{n-p} replaces conj(a)^{p-n}.  Expanding (z-a)^n
    times the kernel exponential gives them as an alternating series in r
    whose terms can exceed the entries by many orders of magnitude at high
    indices: while the predicted digit loss is at most 10 that series is
    summed in float log scale, otherwise the normalized Laguerre recurrence
    builds every diagonal.  Column 0 is the truncated normalized kernel k_a;
    AccuracyWarning when it loses more than RESOLVED_DEFECT past the degree.
    ValueError for a non-finite a and for an |a|^2 past double range
    (|a| above about 1.34e154).

    ``input_degree`` K gives the (N+1) x (K+1) block of W_a P_K, P_K the
    projection onto e_0..e_K: its columns equal columns 0..K of the full
    matrix bit for bit.  The series then costs O(N K^2) and the recurrence
    O(N K) (rather than N^3 and N^2); the engine is chosen from (a, N) alone,
    as for the full matrix.  ValueError unless 0 <= K <= N.

    The entries are G_pn(|a|) e^{i theta (n - p)}, theta = arg a, with G real
    (rotation covariance, see the module docstring).  The engine builds G
    only, and one cache keeps it for the last four keys (|a|, N, K), at most
    four real (N+1) x (K+1) arrays (133 KB each at N = K = 128).  The phases
    take one exp per diagonal, N + K + 1 in all, gathered onto G: a repeated
    modulus costs its phases alone, and its matrix is bit-identical to one
    built afresh.
    """
    a = complex(a)
    N = degree
    K = N if input_degree is None else input_degree
    if not 0 <= K <= N:
        raise ValueError(f"input_degree must be in 0..{N}, got {K}")
    if not np.isfinite(a):
        raise ValueError(f"displacement must be finite, got {a!r}")
    try:
        abs(a) ** 2
    except OverflowError:
        raise ValueError(f"|a|^2 of displacement {a!r} is past double range") from None
    if a == 0:
        return OperatorMatrix(np.eye(N + 1, K + 1))
    if kernel_truncation_defect(a, N) > RESOLVED_DEFECT:
        warnings.warn(
            f"weyl displacement |a|={abs(a):.3g} poorly resolved at degree {N}",
            AccuracyWarning,
            stacklevel=2,
        )
    return OperatorMatrix(_weyl_real(abs(a), N, K) * _weyl_phases(a, N, K))


def _weyl_float_digit_loss(r: float, N: int) -> float:
    """log10 of the worst term-to-result ratio of the j-sum at index (N, N)."""
    gl = log_factorials(N)
    j = np.arange(N + 1)
    log_terms = (gl[N] - gl[j] - gl[N - j]) + (2 * N - 2 * j) * 0.5 * np.log(r) - gl[N - j]
    return float((np.max(log_terms) - r / 2.0) / np.log(10.0))


def _weyl_phases(a: complex, N: int, K: int) -> np.ndarray:
    """e^{i theta (n - p)}, theta = arg a, for p <= N, n <= K: one exp per diagonal."""
    phase = np.exp(1j * np.angle(a) * np.arange(-N, K + 1))
    return phase[np.arange(K + 1) - np.arange(N + 1)[:, None] + N]


@lru_cache(maxsize=4)
def _weyl_real(mod_a: float, N: int, K: int) -> np.ndarray:
    """G[p, n] for p <= N, n <= K, read-only: the series while its predicted
    digit loss is at most 10, the Laguerre recurrence beyond."""
    if _weyl_float_digit_loss(mod_a ** 2, N) > 10.0:
        G = _weyl_real_laguerre(mod_a, N, K)
    else:
        G = _weyl_real_float(mod_a, N, K)
    G.setflags(write=False)
    return G


def _weyl_real_float(mod_a: float, N: int, K: int) -> np.ndarray:
    """G[p, n] for n <= K from the series, each column summed in log scale.

    Column n sums over j <= n the terms of log modulus
    L[p, j] = log C(n, j) + (n + p - 2j) log|a| + (log p! - log n!)/2 - log (p - j)!
    with signs (-1)^{n-j}, each row scaled by its largest term before the
    exp.  Two read-only Toeplitz views, formed once, give the second and
    last summands of every column without gathers: k log|a| by
    k = n + p - 2j, and log d! by d = p - j, padded with +inf for d < 0 so
    that the terms p < j come out -inf and vanish under the exp.  Column n
    is formed in the leading (N+1)(n+1) entries of one reused buffer,
    C-ordered with j contiguous as a column formed on its own, and the signs
    are one exact multiply by a +-1 row, so every row's pairwise sum runs
    over the same n + 1 terms in the same order: the entries are bit for bit
    those of the per-column form (kept as a reference in
    ``tests/test_operators.py``).  The series and this kernel go with
    ROADMAP item 3.
    """
    r = mod_a ** 2
    gl = log_factorials(N)
    toeplitz = np.lib.stride_tricks.as_strided
    item = gl.itemsize
    # k log|a| for k = -2K..N+K; powers[q, j] = (q - 2j) log|a|, row q = n + p
    k_log = np.arange(-2 * K, N + K + 1) * np.log(mod_a)
    powers = toeplitz(k_log[2 * K:], shape=(N + K + 1, K + 1), strides=(item, -2 * item), writeable=False)
    # log d! for d = -K..N, +inf below 0; log_fact[p, j] = log (p - j)!
    padded = np.concatenate((np.full(K, np.inf), gl))
    log_fact = toeplitz(padded[K:], shape=(N + 1, K + 1), strides=(item, -item), writeable=False)
    alternating = np.where(np.arange(K + 1) % 2 == 0, 1.0, -1.0)
    signs = (alternating, -alternating)  # (-1)^{n-j} for even and odd n
    buf = np.empty((N + 1) * (K + 1))
    out = np.empty((N + 1, K + 1))
    for n in range(K + 1):
        L = buf[: (N + 1) * (n + 1)].reshape(N + 1, n + 1)
        log_binom = gl[n] - gl[: n + 1] - gl[n::-1]
        np.add(log_binom, powers[n : n + N + 1, : n + 1], out=L)
        L += 0.5 * (gl[:, None] - gl[n])
        L -= log_fact[:, : n + 1]
        m = np.max(L, axis=1)  # finite: the term j = 0 is
        L -= m[:, None]
        np.exp(L, out=L)
        L *= signs[n % 2][: n + 1]
        out[:, n] = np.exp(m - r / 2.0) * np.sum(L, axis=1)
    return out


def _weyl_real_laguerre(mod_a: float, N: int, K: int) -> np.ndarray:
    """G[p, n] for n <= K from the normalized Laguerre functions g_m of |a|.

    G on diagonal alpha = |p - n| at m = min(p, n) is g_m below the diagonal
    and (-1)^alpha g_m above it, where
    g_m = sqrt(m!/(m+alpha)!) r^{alpha/2} e^{-r/2} L_m^{(alpha)}(r), |g_m| <= 1,
    r = |a|^2, and
    g_{m+1} = ((2m+1+alpha-r) g_m - sqrt(m(m+alpha)) g_{m-1}) / sqrt((m+1)(m+1+alpha))
    runs for all diagonals at once.  Each diagonal passes from its classically
    forbidden region into the oscillating one as m grows, so the recurrence
    runs in its stable, growing direction.  Starts below e^{-600} (r above
    about 1400) carry a per-diagonal log scale so that they cannot underflow;
    the rows are kept scaled and unscaled by one exp at the end.  With no
    start scaled every row is g_m itself, |g_m| <= 1, so the loop skips the
    growth check and the scales.  Columns n <= K need m <= K only, so the
    recurrence stops there.

    One step grows a row by at most D = r + N + 2K + 2 (|diag| <= D - 1, and
    back <= step), so a row kept at most T in modulus stays below D T and
    is shrunk back under T by any factor <= 1/D.  T = 1e100 with the factor
    1e-100 serves D <= 1e100; past that, T = 1e300 / D and the factor
    1 / (2D), so no product overflows up to |a| = 1e154.
    """
    r = mod_a ** 2
    alpha = np.arange(N + 1)
    log_g0 = 0.5 * alpha * np.log(r) - r / 2.0 - 0.5 * log_factorials(N)
    log_scale = np.minimum(log_g0 + 600.0, 0.0)
    m = np.arange(K + 1)[:, None]
    diag = (2 * m + 1 + alpha) - r
    back = np.sqrt(m * (m + alpha))
    step = np.sqrt((m + 1) * (m + 1 + alpha))
    prev, cur = np.zeros(N + 1), np.exp(log_g0 - log_scale)
    rows = np.empty((K + 1, N + 1))  # rows[m] * exp(scales[m]) = g_m on every diagonal
    scaled = log_scale.any()  # else every row is g_m, nothing grows and nothing is undone
    scales = np.empty((K + 1, N + 1)) if scaled else None
    growth = r + N + 2 * K + 2
    limit, shrink_by = (1e100, 1e-100) if growth <= 1e100 else (1e300 / growth, 0.5 / growth)
    for i in range(K + 1):
        rows[i] = cur
        nxt = (diag[i] * cur - back[i] * prev) / step[i]
        if scaled:
            scales[i] = log_scale
            big = np.abs(nxt) > limit
            if big.any():
                shrink = np.where(big, shrink_by, 1.0)
                log_scale = log_scale - np.log(shrink)
                cur, nxt = cur * shrink, nxt * shrink
        prev, cur = cur, nxt
    g = rows * np.exp(scales) if scaled else rows
    # entry (m + d, m) below the diagonal for m <= K, (m, m + d) above it for m + d <= K
    below_m, below_d = np.nonzero(m + alpha <= N)
    above_m, above_d = np.nonzero(m + alpha <= K)
    G = np.zeros((N + 1, K + 1))
    G[below_m + below_d, below_m] = g[below_m, below_d]
    G[above_m, above_m + above_d] = g[above_m, above_d] * (-1.0) ** above_d
    return G


def translation_modulation_fock(a: float, b: float, degree: int,
                                input_degree: int | None = None) -> OperatorMatrix:
    """Fock-side image of modulation-then-translation M_b T_a on the line.

    Equals e^{i pi a b} W_{a - pi b i}; b = 0 gives pure translation and
    a = 0 pure modulation.  ``input_degree`` K is passed to ``weyl_matrix``,
    which returns the (degree+1) x (K+1) block of W P_K.
    """
    w = weyl_matrix(complex(a, -np.pi * b), degree, input_degree)
    phase = np.exp(1j * np.pi * a * b)
    return OperatorMatrix(phase * w.entries)


# ----------------------------------------------------------------------
# Dilation from its position ladder
# ----------------------------------------------------------------------

def dilation_matrix(r: float, degree: int, input_degree: int | None = None) -> OperatorMatrix:
    """D[p, n] = <D_r e_n, e_p> of D_r g(x) = sqrt(r) g(rx), p <= degree, n <= input_degree.

    Since x D_r = D_r x / r and multiplication by x is X = (M + D)/2, the
    columns obey the Hermite recurrence in r X:
    D e_{n+1} = (2 r X D e_n - sqrt(n) D e_{n-1}) / sqrt(n+1), from the
    dilated Gaussian D e_0 = sqrt(2r/(1+r^2)) e^{g z^2}, g = (1-r^2)/(2(1+r^2)).
    X reaches one row down, so column n is built to row degree + K - n.  The
    ladder is stable for r <= 1 only, so for r > 1 it runs at 1/r and the
    block is transposed: D_r = D_{1/r}^T, D_r being real and unitary.  Every
    entry is exact up to rounding, and a block is the leading part of any
    larger one bit for bit.  ValueError for r that is not a finite positive
    number or a negative degree.  The block has shape
    (degree+1, input_degree+1) and real entries.
    """
    K = degree if input_degree is None else input_degree
    if not (np.isfinite(r) and r > 0):
        raise ValueError(f"r must be a finite positive number, got {r!r}")
    if min(degree, K) < 0:
        raise ValueError(f"degrees must be >= 0, got {degree} and {K}")
    if r > 1:
        return OperatorMatrix(_dilation_ladder(1.0 / r, K, degree).T)
    return OperatorMatrix(_dilation_ladder(r, degree, K))


def _dilation_ladder(s: float, N: int, K: int) -> np.ndarray:
    """Columns 0..K, rows 0..N, of D_s for s <= 1, by the position ladder."""
    L = N + K + 1
    g = (1.0 - s * s) / (2.0 * (1.0 + s * s))
    root = np.sqrt(np.arange(L))
    cols = np.empty((K + 1, N + 1))  # cols[n] = rows 0..N of column n
    prev, cur = np.zeros(L), np.sqrt(2.0 * s / (1.0 + s * s)) * exp_quadratic_coeffs(g, 0.0, L - 1).real
    cols[0] = cur[:N + 1]
    for n in range(K):
        m = L - n - 1  # rows of column n + 1: X reaches one row down
        x2 = root[1:m + 1] * cur[1:]  # 2 X cur: sqrt(p+1) cur[p+1] + sqrt(p) cur[p-1]
        x2[1:] += root[1:m] * cur[:m - 1]
        prev, cur = cur[:m], (s * x2 - root[n] * prev[:m]) / root[n + 1]
        cols[n + 1] = cur[:N + 1]
    return cols.T


@dataclass(frozen=True)
class DilationResult:
    """The dilated vector; ``primary`` is kept as the name callers read."""

    primary: FockVector


def dilation_fock(r: float, f: FockVector, pipeline) -> DilationResult:
    """Fock-side dilation, conjugate of D_r g(x) = sqrt(r) g(rx) on the line.

    ``dilation_matrix`` at the degree of ``pipeline`` (a ``BargmannPipeline``,
    of which only ``degree`` is read), built on the columns f reaches only
    and applied to f: the output has that degree, and equals the product
    with any wider block bit for bit.
    """
    return DilationResult(dilation_matrix(r, pipeline.degree, f.reach).apply(f))


# ----------------------------------------------------------------------
# Multiplication / differentiation pair and friends
# ----------------------------------------------------------------------

def md_matrices(degree: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Multiplication by z and differentiation d/dz on the truncated basis.

    M e_n = sqrt(n+1) e_{n+1}, D e_n = sqrt(n) e_{n-1}; DM - MD = I except
    in the (N, N) corner lost to truncation.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    N = degree
    root = np.sqrt(np.arange(1, N + 1))
    M = np.zeros((N + 1, N + 1), dtype=np.complex128)
    D = np.zeros((N + 1, N + 1), dtype=np.complex128)
    idx = np.arange(N)
    M[idx + 1, idx] = root
    D[idx, idx + 1] = root
    return OperatorMatrix(M), OperatorMatrix(D)


def a1_matrix(degree: int) -> OperatorMatrix:
    """Fock-side image of multiplication by x: f -> (z f + f')/2."""
    M, D = md_matrices(degree)
    return OperatorMatrix((M.entries + D.entries) / 2.0)


def a2_matrix(degree: int) -> OperatorMatrix:
    """Fock-side image of d/dx: f -> f' - z f."""
    M, D = md_matrices(degree)
    return OperatorMatrix(D.entries - M.entries)


# letter -> (scale, sign of M, sign of D): the letter is scale (sign_M M + sign_D D)
_LADDER_LETTERS = {
    "M": (1, 1, 0),
    "D": (1, 0, 1),
    "X": (0.5, 1, 1),  # a1_matrix
    "Z": (-0.5j, -1, 1),  # a2_matrix / 2i
    "S1": (1, 1, 1),  # D + M, the uncertainty pair's first generator
    "S2": (1j, -1, 1),  # i(D - M), its second
}


def ladder_word(word, arr) -> np.ndarray:
    """A word in the ladder letters applied to ``arr`` along its first axis.

    ``arr`` holds coefficients of e_0..e_N in its N + 1 rows, and each letter
    acts as its truncated (N+1) x (N+1) matrix: M and D of ``md_matrices``
    (M e_N = 0), X = (M + D)/2, Z = (D - M)/(2i), S1 = D + M and
    S2 = i(D - M).  ``word`` is a sequence of letter names read as a matrix
    product, its last letter applied first: ``ladder_word("DM", A)`` is D M A
    and ``ladder_word(("S1", "S2"), A)`` is S1 S2 A.  Each letter is two
    scaled index shifts, O(N) per column where a dense product costs O(N^2);
    the letters' scales (powers of 1/2 and i) multiply the result once at the
    end, so a real ``arr`` is worked on in real arithmetic.  The result equals
    the dense truncated product up to rounding.  The empty word returns
    ``arr`` itself.
    """
    out = np.asarray(arr)
    root = np.sqrt(np.arange(1, len(out))).reshape((-1,) + (1,) * (out.ndim - 1))
    scale = 1
    for name in reversed(word):
        s, m, d = _LADDER_LETTERS[name]
        nxt = np.zeros(out.shape, dtype=np.result_type(out, float))
        if m:  # M e_n = sqrt(n+1) e_{n+1}
            nxt[1:] = m * root * out[:-1]
        if d:  # D e_n = sqrt(n) e_{n-1}
            nxt[:-1] += d * root * out[1:]
        out, scale = nxt, scale * s
    return out if scale == 1 else scale * out
