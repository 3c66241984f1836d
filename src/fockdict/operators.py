"""Operator dictionary on the truncated Fock basis.

Fourier transform as rotation, spectral projections, displacement (Weyl)
operators, the translation/modulation correspondence, dilation as an exact
line-side matrix, and the multiplication/differentiation pair with its
commutation relation.  All matrices act on coefficient vectors against
e_n(z) = z^n/sqrt(n!).

Displacements are covariant under rotation: W_{e^{i theta} rho} =
R_theta^* W_rho R_theta with R_theta f(z) = f(e^{i theta} z), so
<W_a e_n, e_p> = G_pn(|a|) e^{i theta (n - p)} with G real.  Both Weyl
engines build G from |a| alone and keep the last four, keyed by (|a|, N, K),
so W_a, W_{-a} and every point of the same modulus pay for their phases only.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .bargmann import BargmannPipeline
from .errors import AccuracyWarning
from .fock import RESOLVED_DEFECT, FockVector, kernel_truncation_defect, log_factorials, lost_mass, point_values
from .hermite import QuadratureRule, default_nodes, gauss_hermite, hermite_functions


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Block <A e_n, e_p>, p <= ``degree`` M, n <= ``input_degree`` K, of P_M A P_K.

    Contracts of unitary operators hold on interior index blocks only: the
    leading columns that keep their mass (``weyl_interior_block``).
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.complex128).copy()
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
    xs = np.asarray(x, dtype=np.float64).ravel()
    t = rule.nodes
    ft = rule.flat_weights() * np.asarray(f(t), dtype=np.complex128)
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
    (rotation covariance, see the module docstring).  Each engine caches its
    G for the last four keys (|a|, N, K), at most four real (N+1) x (K+1)
    arrays (133 KB each at N = K = 128): a repeated modulus costs its phases
    alone, and its matrix is bit-identical to one built afresh.
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
    if _weyl_float_digit_loss(abs(a) ** 2, N) > 10.0:
        entries = _weyl_entries_laguerre(a, N, K)
    else:
        entries = _weyl_entries_float(a, N, K)
    return OperatorMatrix(entries)


def _weyl_float_digit_loss(r: float, N: int) -> float:
    """log10 of the worst term-to-result ratio of the j-sum at index (N, N)."""
    gl = log_factorials(N)
    j = np.arange(N + 1)
    log_terms = (gl[N] - gl[j] - gl[N - j]) + (2 * N - 2 * j) * 0.5 * np.log(r) - gl[N - j]
    return float((np.max(log_terms) - r / 2.0) / np.log(10.0))


def _weyl_entries_float(a: complex, N: int, K: int) -> np.ndarray:
    """Columns 0..K of the series: the real stage of |a| times e^{i theta (n - p)}."""
    n = np.arange(K + 1)
    p = np.arange(N + 1)[:, None]
    return _weyl_real_float(abs(a), N, K) * np.exp(1j * np.angle(a) * (n - p))


@lru_cache(maxsize=4)
def _weyl_real_float(mod_a: float, N: int, K: int) -> np.ndarray:
    """G[p, n] for n <= K from the series, each column summed in log scale; read-only."""
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
    out.setflags(write=False)
    return out


def _weyl_entries_laguerre(a: complex, N: int, K: int) -> np.ndarray:
    """Displacement entries from the normalized Laguerre functions of |a|.

    The entry on diagonal alpha = |p - n| at m = min(p, n) is g_m
    (``_weyl_real_laguerre``) times the phase e^{-i alpha theta} below the
    diagonal, (-1)^alpha e^{i alpha theta} above it.
    """
    g = _weyl_real_laguerre(abs(a), N, K)
    alpha = np.arange(N + 1)
    m = np.arange(K + 1)[:, None]
    # entry (m + d, m) below the diagonal for m <= K, (m, m + d) above it for m + d <= K
    below_m, below_d = np.nonzero(m + alpha <= N)
    above_m, above_d = np.nonzero(m + alpha <= K)
    phase = np.exp(-1j * np.angle(a) * alpha)
    out = np.zeros((N + 1, K + 1), dtype=np.complex128)
    out[below_m + below_d, below_m] = g[below_m, below_d] * phase[below_d]
    out[above_m, above_m + above_d] = g[above_m, above_d] * ((-1) ** above_d * phase[above_d].conj())
    return out


@lru_cache(maxsize=4)
def _weyl_real_laguerre(mod_a: float, N: int, K: int) -> np.ndarray:
    """g[m, alpha] = g_m on diagonal alpha for m <= K, read-only.

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
    g.setflags(write=False)
    return g


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
# Dilation as one exact line-side matrix
# ----------------------------------------------------------------------

def dilation_matrix(r: float, degree: int, input_degree: int | None = None,
                    rule: QuadratureRule | None = None) -> OperatorMatrix:
    """D[p, n] = <D_r h_n, h_p> = int h_p(x) sqrt(r) h_n(rx) dx, p <= degree, n <= input_degree.

    Since B h_n = e_n, D is also the Fock-side matrix of D_r g(x) = sqrt(r) g(rx)
    on e_0..e_N, and no plane quadrature is needed.  Its integrand is a
    polynomial of degree p + n times e^{-(1+r^2)x^2}, so the line rule (by
    default the pipeline's, ``gauss_hermite(default_nodes(degree))``) is
    rescaled to that weight: nodes x_k/s, flat weights /s, s = sqrt(1+r^2).
    It is then exact while degree + input_degree < 2 * nodes; ValueError
    beyond that, or for r that is not a finite positive number.  The block
    has shape (degree+1, input_degree+1) and real entries.
    """
    K = degree if input_degree is None else input_degree
    line = gauss_hermite(default_nodes(degree)) if rule is None else rule
    if not (np.isfinite(r) and r > 0):
        raise ValueError(f"r must be a finite positive number, got {r!r}")
    if line.weight != "hermite":
        raise ValueError("dilation_matrix needs a Gauss-Hermite rule")
    if degree + K >= 2 * line.n_nodes:
        raise ValueError(f"dilation needs input + output degree < {2 * line.n_nodes} "
                         f"(line rule), got {K} + {degree}")
    s = np.sqrt(1.0 + r * r)
    x = line.nodes / s
    scaled = hermite_functions(K, r * x) * (line.flat_weights() * (np.sqrt(r) / s))
    return OperatorMatrix(hermite_functions(degree, x) @ scaled.T)


@dataclass(frozen=True)
class DilationResult:
    """The dilated vector; ``primary`` is kept as the name callers read."""

    primary: FockVector


def dilation_fock(r: float, f: FockVector, pipeline: BargmannPipeline) -> DilationResult:
    """Fock-side dilation, conjugate of D_r g(x) = sqrt(r) g(rx) on the line.

    ``dilation_matrix`` on the pipeline's line rule, built at f's degree and
    applied to f: the output has the pipeline's degree, and ValueError is
    raised once input plus output degree reaches twice the line rule's nodes.
    """
    return DilationResult(dilation_matrix(r, pipeline.degree, f.degree, pipeline.line_rule).apply(f))


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
