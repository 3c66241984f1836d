"""Operator dictionary on the truncated Fock basis.

Fourier transform as rotation, spectral projections, displacement (Weyl)
operators, the translation/modulation correspondence, dilation from its
position ladder, and the multiplication/differentiation pair with its
commutation relation.  All matrices act on coefficient vectors against
e_n(z) = z^n/sqrt(n!).

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

from .bargmann import BargmannPipeline
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
    """Rotation operator f(z) -> f(e^{i theta} z); unitary and diagonal."""
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
    ValueError for a non-finite a.

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
    """G[p, n] for n <= K from the series, each column summed in log scale."""
    r = mod_a ** 2
    log_mod_a = np.log(mod_a)
    gl = log_factorials(N)
    p = np.arange(N + 1)
    out = np.zeros((N + 1, K + 1))
    for n in range(K + 1):
        j = np.arange(n + 1)
        log_binom = gl[n] - gl[j] - gl[n - j]
        # L[p, j] = log |term_j(p)| with the sqrt(p!/n!) prefactor folded in
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
    the rows are kept scaled and unscaled by one exp at the end.  Columns
    n <= K need m <= K only, so the recurrence stops there.
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


def dilation_fock(r: float, f: FockVector, pipeline: BargmannPipeline) -> DilationResult:
    """Fock-side dilation, conjugate of D_r g(x) = sqrt(r) g(rx) on the line.

    ``dilation_matrix`` at the pipeline's degree, built on the columns f
    reaches only and applied to f: the output has the pipeline's degree, and
    equals the product with any wider block bit for bit.
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


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> np.ndarray:
    return a.entries @ b.entries - b.entries @ a.entries
