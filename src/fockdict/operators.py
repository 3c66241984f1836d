"""Operator dictionary on the truncated Fock basis.

Fourier transform as rotation, spectral projections, displacement (Weyl)
operators, the translation/modulation correspondence, dilation through two
redundant pipelines, and the multiplication/differentiation pair with its
commutation relation.  All matrices act on coefficient vectors against
e_n(z) = z^n/sqrt(n!) unless tagged otherwise.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .bargmann import BargmannPipeline, inverse_bargmann_quadrature
from .errors import AccuracyWarning
from .fock import (
    FockVector,
    exp_quadratic_taylor,
    kernel_truncation_defect,
    log_factorials,
)
from .hermite import QuadratureRule, hermite_functions


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense matrix of an operator in a truncated orthonormal basis.

    ``basis`` records which space the matrix acts on ("fock" for e_n,
    "line" for h_n); contracts on unitary-tagged matrices hold on interior
    index blocks only, away from the truncation boundary.
    """

    entries: np.ndarray
    basis: str = "fock"
    name: str = ""
    unitary: bool = False

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

    def apply(self, vec):
        from .hermite import LineVector

        if isinstance(vec, FockVector):
            return FockVector(self.entries @ vec.pad(self.degree).coeffs)
        if isinstance(vec, LineVector):
            coeffs = np.zeros(self.dim, dtype=np.complex128)
            m = min(self.dim, len(vec.coeffs))
            coeffs[:m] = vec.coeffs[:m]
            return LineVector(self.entries @ coeffs)
        arr = np.asarray(vec, dtype=np.complex128)
        return self.entries @ arr

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.basis != other.basis:
            raise ValueError("cannot compose operators on different bases")
        return OperatorMatrix(self.entries @ other.entries, self.basis,
                              f"{self.name}*{other.name}")


def unitarity_residual(op: OperatorMatrix, block: int) -> float:
    """max |(A*A - I)_{jk}| over the top-left block of the given size."""
    g = op.entries.conj().T @ op.entries
    b = min(block, op.dim)
    return float(np.max(np.abs(g[:b, :b] - np.eye(b))))


def weyl_interior_block(a: complex, degree: int) -> int:
    """Size of the leading block on which the truncated W_a keeps its contracts.

    Clears the kernel's spread |a|^2 + 5 |a| sqrt(N) plus a margin of 4,
    and never goes below 4.
    """
    r = abs(a) ** 2
    return max(4, int(degree - np.ceil(r + 5 * abs(a) * np.sqrt(degree)) - 4))


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

def weyl_matrix(a: complex, degree: int, warn: bool = True) -> OperatorMatrix:
    """Matrix of W_a f(z) = f(z - a) exp(z conj(a) - |a|^2/2) on e_0..e_N.

    With r = |a|^2, <W_a e_n, e_p> = e^{-r/2} sqrt(n!/p!) conj(a)^{p-n}
    L_n^{(p-n)}(r) for p >= n (Cahill & Glauber 1969); above the diagonal p
    and n swap and (-a)^{n-p} replaces conj(a)^{p-n}.  Expanding (z-a)^n
    times the kernel exponential gives them as an alternating series in r
    whose terms can exceed the entries by many orders of magnitude at high
    indices: while the predicted digit loss is at most 10 that series is
    summed in float log scale, otherwise the normalized Laguerre recurrence
    builds every diagonal.  Column 0 is the truncated normalized kernel k_a.
    """
    a = complex(a)
    N = degree
    if a == 0:
        return OperatorMatrix(np.eye(N + 1, dtype=np.complex128), "fock",
                              "weyl(0)", unitary=True)
    if warn and kernel_truncation_defect(a, N) > 1e-8:
        warnings.warn(
            f"weyl displacement |a|={abs(a):.3g} poorly resolved at degree {N}",
            AccuracyWarning,
            stacklevel=2,
        )
    if _weyl_float_digit_loss(abs(a) ** 2, N) > 10.0:
        entries = _weyl_entries_laguerre(a, N)
    else:
        entries = _weyl_entries_float(a, N)
    return OperatorMatrix(entries, "fock", f"weyl({a})", unitary=True)


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
    return OperatorMatrix(phase * w.entries, "fock",
                          f"trans-mod({a},{b})", unitary=True)


# ----------------------------------------------------------------------
# Dilation through two redundant pipelines
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DilationResult:
    primary: FockVector
    cross: FockVector
    discrepancy: float


def dilation_pipeline(degree: int) -> BargmannPipeline:
    """Output degree min(degree, 32) on the degree-32 line rule (128 nodes):
    the primary path's projection needs it even at low output degree, where
    64-96 nodes leave the dilated Gaussian off by up to about 1e-6."""
    return replace(BargmannPipeline.default(32), degree=min(degree, 32))


def dilation_fock(r: float, f: FockVector, pipeline: BargmannPipeline,
                  warn: bool = True) -> DilationResult:
    """Fock-side dilation: conjugate of D_r g(x) = sqrt(r) g(rx) on the line.

    primary path: down to the line by the inverse integral, rescale the
    sample points, project back.  cross path: plane quadrature of the direct
    kernel

        sqrt(2r/(1+r^2)) e^{g z^2} int f(-iw) e^{g conj(w)^2}
            e^{2 i r z conj(w)/(1+r^2)} dlambda(w),

    with g = (1-r^2)/(2(1+r^2)); the z^2 prefactor is required for the two
    routes to coincide (check against D_r of the Gaussian in closed form).
    Coefficients of the cross path are extracted with the exact Taylor
    recurrence of e^{g z^2 + beta z} rather than pointwise sampling.
    """
    if not 0.25 <= r <= 4.0:
        raise ValueError("r must lie in [1/4, 4]")
    if f.degree > 24:
        raise ValueError("dilation input degree must be <= 24")
    N = pipeline.degree

    # primary: B . D_r . B^{-1}
    x = pipeline.line_rule.nodes
    g_scaled = inverse_bargmann_quadrature(f, r * x, pipeline.plane_rule, warn=False)
    vals = np.sqrt(r) * g_scaled
    fw = pipeline.line_rule.flat_weights() * vals
    primary = FockVector(hermite_functions(N, x) @ fw)

    # cross: direct plane quadrature of the kernel
    gamma = (1.0 - r * r) / (2.0 * (1.0 + r * r))
    pref = np.sqrt(2.0 * r / (1.0 + r * r))
    w = pipeline.plane_rule.nodes
    wbar = np.conj(w)
    fvals = f(-1j * w)
    base = pipeline.plane_rule.weights * fvals * np.exp(gamma * wbar**2)
    beta = 2j * r * wbar / (1.0 + r * r)
    moments = exp_quadratic_taylor(gamma, beta, N) @ base
    cross = FockVector(pref * np.exp(0.5 * log_factorials(N)) * moments)

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
    return (OperatorMatrix(M, "fock", "mult-z"),
            OperatorMatrix(D, "fock", "d/dz"))


def a1_matrix(degree: int) -> OperatorMatrix:
    """Fock-side image of multiplication by x: f -> (z f + f')/2."""
    M, D = md_matrices(degree)
    return OperatorMatrix((M.entries + D.entries) / 2.0, "fock", "position")


def a2_matrix(degree: int) -> OperatorMatrix:
    """Fock-side image of d/dx: f -> f' - z f."""
    M, D = md_matrices(degree)
    return OperatorMatrix(D.entries - M.entries, "fock", "derivative")


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> np.ndarray:
    return a.entries @ b.entries - b.entries @ a.entries
