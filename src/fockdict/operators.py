"""Operator dictionary on the truncated Fock basis.

Fourier transform as rotation, spectral projections, displacement (Weyl)
operators, the translation/modulation correspondence, dilation through two
redundant pipelines, and the multiplication/differentiation pair with its
commutation relation.  All matrices act on coefficient vectors against
e_n(z) = z^n/sqrt(n!).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .bargmann import BargmannPipeline, inverse_bargmann_quadrature
from .errors import AccuracyWarning
from .fock import (
    RESOLVED_DEFECT,
    FockVector,
    exp_quadratic_coeffs,
    kernel_truncation_defect,
    log_factorials,
)
from .hermite import QuadratureRule, hermite_functions


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense matrix of an operator in a truncated orthonormal basis.

    Contracts of unitary operators hold on interior index blocks only: the
    leading columns that keep their mass (``weyl_interior_block``).
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.complex128).copy()
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("entries must be a square matrix")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def degree(self) -> int:
        return self.dim - 1

    def apply(self, vec: FockVector) -> FockVector:
        return FockVector(self.entries @ vec.pad(self.degree).coeffs)


def unitarity_residual(op: OperatorMatrix, block: int) -> float:
    """max |(A*A - I)_{jk}| over the top-left block of the given size."""
    g = op.entries.conj().T @ op.entries
    b = min(block, op.dim)
    return float(np.max(np.abs(g[:b, :b] - np.eye(b))))


def weyl_interior_block(*ops: OperatorMatrix) -> int:
    """Largest b such that every column n < b of each truncated unitary loses
    at most 1e-12 of its unit mass past the degree; 0 if column 0 already does.

    On it A*A = I and, for (W_a, W_{-a}), W_a W_{-a} = I up to the lost mass.
    """
    lost = np.max([1.0 - np.sum(np.abs(A.entries) ** 2, axis=0) for A in ops], axis=0)
    return int(np.argmax(np.append(lost > 1e-12, True)))  # first losing column, else N + 1


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
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    t = rule.nodes
    ft = rule.flat_weights() * np.asarray(f(t), dtype=np.complex128)
    vals = np.exp(2j * np.outer(xs, t)) @ ft / np.sqrt(np.pi)
    return complex(vals[0]) if scalar else vals


# ----------------------------------------------------------------------
# Displacement (Weyl) operators
# ----------------------------------------------------------------------

def weyl_matrix(a: complex, degree: int) -> OperatorMatrix:
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
    """
    a = complex(a)
    N = degree
    if a == 0:
        return OperatorMatrix(np.eye(N + 1, dtype=np.complex128))
    if kernel_truncation_defect(a, N) > RESOLVED_DEFECT:
        warnings.warn(
            f"weyl displacement |a|={abs(a):.3g} poorly resolved at degree {N}",
            AccuracyWarning,
            stacklevel=2,
        )
    if _weyl_float_digit_loss(abs(a) ** 2, N) > 10.0:
        entries = _weyl_entries_laguerre(a, N)
    else:
        entries = _weyl_entries_float(a, N)
    return OperatorMatrix(entries)


def _weyl_float_digit_loss(r: float, N: int) -> float:
    """log10 of the worst term-to-result ratio of the j-sum at index (N, N)."""
    gl = log_factorials(N)
    j = np.arange(N + 1)
    log_terms = (gl[N] - gl[j] - gl[N - j]) + (2 * N - 2 * j) * 0.5 * np.log(r) - gl[N - j]
    return float((np.max(log_terms) - r / 2.0) / np.log(10.0))


@lru_cache(maxsize=16)
def _weyl_entries_float(a: complex, N: int) -> np.ndarray:
    r = abs(a) ** 2
    log_mod_a = np.log(abs(a))
    theta = np.angle(a)
    gl = log_factorials(N)
    p = np.arange(N + 1)
    out = np.zeros((N + 1, N + 1), dtype=np.complex128)
    for n in range(N + 1):
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
        col = np.exp(m_safe - r / 2.0) * s * np.exp(1j * theta * (n - p))
        out[:, n] = np.where(np.isfinite(m), col, 0.0)
    return out


def _weyl_entries_laguerre(a: complex, N: int) -> np.ndarray:
    """Displacement entries from the normalized Laguerre functions.

    On diagonal alpha = |p - n| the entry at m = min(p, n) has modulus
    g_m = sqrt(m!/(m+alpha)!) r^{alpha/2} e^{-r/2} L_m^{(alpha)}(r) <= 1, and
    g_{m+1} = ((2m+1+alpha-r) g_m - sqrt(m(m+alpha)) g_{m-1}) / sqrt((m+1)(m+1+alpha))
    runs for all diagonals at once.  Each diagonal passes from its classically
    forbidden region into the oscillating one as m grows, so the recurrence
    runs in its stable, growing direction.  Starts below e^{-600} (r above
    about 1400) carry a per-diagonal log scale so that they cannot underflow.
    The phase is e^{-i alpha theta} below the diagonal, (-1)^alpha e^{i alpha theta} above.
    """
    r = abs(a) ** 2
    alpha = np.arange(N + 1)
    log_g0 = 0.5 * alpha * np.log(r) - r / 2.0 - 0.5 * log_factorials(N)
    log_scale = np.minimum(log_g0 + 600.0, 0.0)
    prev, cur = np.zeros(N + 1), np.exp(log_g0 - log_scale)
    g = np.empty((N + 1, N + 1))  # g[m, alpha]
    for m in range(N + 1):
        g[m] = cur * np.exp(log_scale)
        nxt = ((2 * m + 1 + alpha - r) * cur - np.sqrt(m * (m + alpha)) * prev) / np.sqrt(
            (m + 1) * (m + 1 + alpha))
        shrink = np.where(np.abs(nxt) > 1e100, 1e-100, 1.0)
        log_scale -= np.log(shrink)
        prev, cur = cur * shrink, nxt * shrink
    out = np.empty((N + 1, N + 1), dtype=np.complex128)
    phase = np.exp(-1j * np.angle(a) * alpha)
    for d in alpha:
        m = np.arange(N + 1 - d)
        out[m + d, m] = g[m, d] * phase[d]
        out[m, m + d] = g[m, d] * ((-1) ** d * phase[d].conjugate())
    return out


def translation_modulation_fock(a: float, b: float, degree: int) -> OperatorMatrix:
    """Fock-side image of modulation-then-translation M_b T_a on the line.

    Equals e^{i pi a b} W_{a - pi b i}; b = 0 gives pure translation and
    a = 0 pure modulation.
    """
    w = weyl_matrix(complex(a, -np.pi * b), degree)
    phase = np.exp(1j * np.pi * a * b)
    return OperatorMatrix(phase * w.entries)


# ----------------------------------------------------------------------
# Dilation through two redundant pipelines
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DilationResult:
    primary: FockVector
    cross: FockVector
    discrepancy: float


def dilation_fock(r: float, f: FockVector, pipeline: BargmannPipeline,
                  warn: bool = True) -> DilationResult:
    """Fock-side dilation: conjugate of D_r g(x) = sqrt(r) g(rx) on the line.

    primary path: down to the line by the inverse integral, rescale the
    sample points, project back.  Its integrand is a polynomial of degree
    n + N (input plus output degree) times e^{-(1+r^2)x^2}, so the line rule
    is rescaled to that weight (nodes x_k/s, flat weights /s, s = sqrt(1+r^2))
    and is exact while n + N < 2 * (line nodes).  cross path: plane
    quadrature of the direct kernel

        sqrt(2r/(1+r^2)) e^{g z^2} int f(-iw) e^{g conj(w)^2}
            e^{2 i r z conj(w)/(1+r^2)} dlambda(w),

    with g = (1-r^2)/(2(1+r^2)); the z^2 prefactor is required for the two
    routes to coincide (check against D_r of the Gaussian in closed form).
    Coefficients of the cross path come from the e_n recurrence of
    e^{g z^2 + beta z}.  ValueError past either rule: input degree above the
    plane rule's line nodes (the inverse integral's limit), or n + N at
    2 * (line nodes) or more.
    """
    if not 0.25 <= r <= 4.0:
        raise ValueError("r must lie in [1/4, 4]")
    N, line, plane = pipeline.degree, pipeline.line_rule, pipeline.plane_rule
    if f.degree > plane.line.n_nodes or f.degree + N >= 2 * line.n_nodes:
        raise ValueError(f"dilation needs input degree <= {plane.line.n_nodes} (plane rule) and input "
                         f"+ output degree < {2 * line.n_nodes} (line rule), got {f.degree} + {N}")

    # primary: B . D_r . B^{-1}
    s = np.sqrt(1.0 + r * r)
    x = line.nodes / s
    g_scaled = inverse_bargmann_quadrature(f, r * x, plane, warn=False)
    fw = line.flat_weights() / s * np.sqrt(r) * g_scaled
    primary = FockVector(hermite_functions(N, x) @ fw)

    # cross: direct plane quadrature of the kernel
    gamma = (1.0 - r * r) / (2.0 * (1.0 + r * r))
    pref = np.sqrt(2.0 * r / (1.0 + r * r))
    wbar = np.conj(plane.nodes)
    base = plane.weights * f(-1j * plane.nodes) * np.exp(gamma * wbar**2)
    beta = 2j * r * wbar / (1.0 + r * r)
    cross = FockVector(pref * (exp_quadratic_coeffs(gamma, beta, N) @ base))

    disc = float(np.linalg.norm(primary.coeffs - cross.coeffs))
    if warn and disc > 1e-5:
        warnings.warn(
            f"dilation paths disagree by {disc:.2e}: resolution failure",
            AccuracyWarning,
            stacklevel=2,
        )
    return DilationResult(primary, cross, disc)


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
