"""Toeplitz operators and two pseudo-differential correspondences.

A Toeplitz operator on the Fock space compresses multiplication by a symbol:
T_phi f = P(phi f).  For polynomial symbols two operator calculi are
realized and checked against it:

* anti-Wick: sigma(z, conj z) = sum a_mn z^n conj(z)^m quantizes, on the
  Fock side, to sum a_mn D^n M^m (derivative powers left of multiplication
  powers), which equals the Toeplitz matrix of phi(z) = sigma(conj z, z)
  entry by entry;
* Weyl: symbols on phase space (position x, frequency zeta) quantize through
  the symmetric ordering of X and the scaled derivative; the Gaussian heat
  transform of a Toeplitz symbol produces the matching Weyl symbol.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fock import log_factorials
from .operators import OperatorMatrix, a1_matrix, a2_matrix, md_matrices


@dataclass(frozen=True)
class PolySymbol:
    """Polynomial in z and conj(z): coeffs[(m, n)] multiplies z^n conj(z)^m."""

    coeffs: dict[tuple[int, int], complex] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (m, n), c in self.coeffs.items():
            if m < 0 or n < 0:
                raise ValueError("powers must be non-negative")
            if c != 0:
                clean[(int(m), int(n))] = complex(c)
        object.__setattr__(self, "coeffs", clean)

    @property
    def degree(self) -> int:
        return max((m + n for (m, n) in self.coeffs), default=0)

    @property
    def is_real_valued(self) -> bool:
        """True when a_mn = conj(a_nm), i.e. the symbol is real on the plane."""
        for (m, n), c in self.coeffs.items():
            if not np.isclose(c, np.conj(self.coeffs.get((n, m), 0.0))):
                return False
        return True

    def swapped(self) -> "PolySymbol":
        """The conjugate-variable symbol: sigma(conj z, z)."""
        return PolySymbol({(n, m): c for (m, n), c in self.coeffs.items()})

    def __call__(self, z):
        zs = np.asarray(z, dtype=np.complex128)
        out = np.zeros_like(zs)
        for (m, n), c in self.coeffs.items():
            out = out + c * zs**n * np.conj(zs) ** m
        return out


@dataclass(frozen=True)
class PhasePolynomial:
    """Polynomial on phase space: coeffs[(i, k)] multiplies x^i zeta^k."""

    coeffs: dict[tuple[int, int], complex] = field(default_factory=dict)

    @property
    def degree(self) -> int:
        return max((i + k for (i, k) in self.coeffs), default=0)

    @classmethod
    def from_poly_symbol(cls, sigma: PolySymbol) -> "PhasePolynomial":
        """Rewrite a (z, conj z) polynomial via z = x + i zeta."""
        out: dict[tuple[int, int], complex] = {}
        for (m, n), c in sigma.coeffs.items():
            for i in range(n + 1):
                for l in range(m + 1):
                    coef = (
                        c
                        * math.comb(n, i)
                        * math.comb(m, l)
                        * (1j) ** (n - i)
                        * (-1j) ** (m - l)
                    )
                    key = (i + l, (n - i) + (m - l))
                    out[key] = out.get(key, 0.0) + coef
        return cls({k: v for k, v in out.items() if abs(v) > 0})


def toeplitz_monomial_matrix(m: int, n: int, degree: int) -> OperatorMatrix:
    """Toeplitz matrix of phi = conj(z)^m z^n on e_0..e_N.

    From the Gaussian moment identity int z^p conj(z)^q dlambda = delta_pq p!,
    the entries are <T e_j, e_k> = delta_{n+j, m+k} (n+j)!/sqrt(j! k!),
    formed through log-factorial differences.
    """
    if m < 0 or n < 0:
        raise ValueError("powers must be non-negative")
    if m + n > degree:
        raise ValueError("monomial degree exceeds the matrix degree")
    N = degree
    gl = log_factorials(N + n)
    half = 0.5 * log_factorials(N)
    out = np.zeros((N + 1, N + 1), dtype=np.complex128)
    for j in range(N + 1):
        k = n + j - m
        if 0 <= k <= N:
            # symmetric grouping keeps real symbols exactly Hermitian
            out[k, j] = math.exp(gl[n + j] - (half[j] + half[k]))
    return OperatorMatrix(out)


def toeplitz_poly_matrix(phi: PolySymbol, degree: int) -> OperatorMatrix:
    """Toeplitz matrix of a polynomial symbol (sum of monomial matrices)."""
    out = np.zeros((degree + 1, degree + 1), dtype=np.complex128)
    for (m, n), c in phi.coeffs.items():
        out += c * toeplitz_monomial_matrix(m, n, degree).entries
    return OperatorMatrix(out)


def anti_wick_matrix(sigma: PolySymbol, degree: int) -> OperatorMatrix:
    """Fock-side anti-Wick quantization sum a_mn D^n M^m.

    The annihilation-like factor D acts after the creation-like factor M
    (all D's to the left); that ordering is what reproduces the Toeplitz
    matrix of the swapped symbol on interior blocks, pinned by the
    |z|^2 -> diagonal j+1 check.
    """
    if sigma.degree > degree // 2:
        raise ValueError("symbol degree exceeds degree/2")
    N = degree
    M, D = md_matrices(N)
    max_pow = max((max(m, n) for (m, n) in sigma.coeffs), default=0)
    M_pows = [np.eye(N + 1, dtype=np.complex128)]
    D_pows = [np.eye(N + 1, dtype=np.complex128)]
    for _ in range(max_pow):
        M_pows.append(M.entries @ M_pows[-1])
        D_pows.append(D.entries @ D_pows[-1])
    out = np.zeros((N + 1, N + 1), dtype=np.complex128)
    for (m, n), c in sigma.coeffs.items():
        out += c * (D_pows[n] @ M_pows[m])
    return OperatorMatrix(out)


def heat_symbol(phi: PolySymbol) -> PolySymbol:
    """Gaussian heat transform producing the Weyl symbol of T_phi.

    sigma(z) = (2/pi) int phi(conj w) e^{-2|z-w|^2} dA(w); with w = z + v the
    moments (2/pi) int v^p conj(v)^q e^{-2|v|^2} dA = delta_pq p!/2^p reduce
    it to the closed form below.  Note the conjugation: a z^n conj(z)^m term
    of phi contributes to conj(z)^{n-j} z^{m-j}.
    """
    out: dict[tuple[int, int], complex] = {}
    for (m, n), c in phi.coeffs.items():
        for j in range(min(m, n) + 1):
            coef = c * math.comb(n, j) * math.comb(m, j) * math.factorial(j) / 2**j
            key = (n - j, m - j)  # (conj-power, z-power)
            out[key] = out.get(key, 0.0) + coef
    return PolySymbol({k: v for k, v in out.items() if abs(v) > 0})


def weyl_quantize_poly(sigma: PhasePolynomial, degree: int) -> OperatorMatrix:
    """Weyl quantization of a phase-space polynomial of total degree <= 2.

    x quantizes to the position matrix, zeta to the scaled derivative
    (f'/(2i) transported to the e_n basis), and the mixed term x zeta to the
    symmetric average of the two orderings; degree > 2 would need a general
    symmetrization scheme and is refused.
    """
    if sigma.degree > 2:
        raise ValueError("weyl quantization supported for degree <= 2 only")
    N = degree
    X = a1_matrix(N).entries
    Dl = a2_matrix(N).entries / 2j
    eye = np.eye(N + 1, dtype=np.complex128)
    blocks = {
        (0, 0): eye,
        (1, 0): X,
        (0, 1): Dl,
        (2, 0): X @ X,
        (0, 2): Dl @ Dl,
        (1, 1): (X @ Dl + Dl @ X) / 2.0,
    }
    out = np.zeros((N + 1, N + 1), dtype=np.complex128)
    for (i, k), c in sigma.coeffs.items():
        out += c * blocks[(i, k)]
    return OperatorMatrix(out)


def anti_wick_toeplitz_residual(sigma: PolySymbol, degree: int) -> float:
    """Max interior difference between anti-Wick of sigma and Toeplitz of the
    swapped symbol; zero in exact arithmetic."""
    aw = anti_wick_matrix(sigma, degree).entries
    tp = toeplitz_poly_matrix(sigma.swapped(), degree).entries
    b = degree + 1 - sigma.degree
    return float(np.max(np.abs(aw[:b, :b] - tp[:b, :b])))


def weyl_toeplitz_residual(phi: PolySymbol, degree: int) -> float:
    """Max interior difference between the Toeplitz matrix of phi and the Weyl
    quantization of its heat symbol (carried to the e_n basis by the identity
    coefficient map); contract <= 1e-8 for symbols of degree <= 2."""
    if phi.degree > 2:
        raise ValueError("verification capped at symbol degree 2")
    tp = toeplitz_poly_matrix(phi, degree).entries
    wz = weyl_quantize_poly(
        PhasePolynomial.from_poly_symbol(heat_symbol(phi)), degree
    ).entries
    b = degree + 1 - 2
    return float(np.max(np.abs(tp[:b, :b] - wz[:b, :b])))
