"""Toeplitz operators and the anti-Wick and Weyl calculi as Toeplitz operators.

A Toeplitz operator on the Fock space compresses multiplication by a symbol:
T_phi f = P(phi f).  Its matrix for a polynomial symbol has a closed form,
exact in every entry (the truncation corner included), and one builder
writes each term conj(z)^m z^n as its one diagonal, k = j + n - m.  It is
the one engine here; both calculi are Toeplitz matrices of a transformed
symbol, at any degree:

* anti-Wick (Berezin): sigma(z, conj z) = sum a_mn z^n conj(z)^m quantizes
  to the Toeplitz matrix of the swapped symbol sigma(conj z, z);
* Weyl: a phase-space polynomial in (x, zeta) is rewritten in (z, conj z)
  through x = (z + conj z)/2, zeta = (z - conj z)/(2i) and quantizes to the
  Toeplitz matrix of its inverse heat transform.

Each calculus keeps an independent second path in its check only: the
product sum a_mn D^n M^m for anti-Wick, and McCoy's symmetric ordering of
the position and scaled-derivative matrices for Weyl.  Their words are
applied by index shifts (``operators.ladder_word``), O(N^2) each on the
identity, and equal the dense truncated products up to rounding.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .operators import OperatorMatrix, ladder_word


@dataclass(frozen=True)
class PolySymbol:
    """Polynomial in z and conj(z): coeffs[(m, n)] multiplies z^n conj(z)^m, m and n integers >= 0."""

    coeffs: dict[tuple[int, int], complex] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (m, n), c in self.coeffs.items():
            if not all(isinstance(p, numbers.Integral) and not isinstance(p, bool) for p in (m, n)):
                raise ValueError(f"powers must be integers, got {(m, n)}")
            if m < 0 or n < 0:
                raise ValueError("powers must be non-negative")
            if c != 0:
                clean[(int(m), int(n))] = complex(c)
        object.__setattr__(self, "coeffs", clean)

    @property
    def degree(self) -> int:
        return max((m + n for (m, n) in self.coeffs), default=0)

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
    """Toeplitz matrix of phi = conj(z)^m z^n on e_0..e_N."""
    return toeplitz_poly_matrix(PolySymbol({(m, n): 1.0}), degree)


def toeplitz_poly_matrix(phi: PolySymbol, degree: int) -> OperatorMatrix:
    """Toeplitz matrix of a polynomial symbol on e_0..e_N, one diagonal per term.

    From the Gaussian moment identity int z^p conj(z)^q dlambda = delta_pq p!,
    the term c conj(z)^m z^n contributes <T e_j, e_k> = c (n+j)!/sqrt(j! k!)
    on the diagonal k = n + j - m: c times the square root of the integer
    P = (j+1)...(n+j) * (k+1)...(n+j).  P is symmetric in (j, k), so real
    symbols give exactly Hermitian matrices; past 1000 bits it is shifted
    right by an even e before the root, which is scaled back by 2^(e/2).
    """
    if phi.degree > degree:
        raise ValueError("monomial degree exceeds the matrix degree")
    out = np.zeros((degree + 1, degree + 1), dtype=np.complex128)
    for (m, n), c in phi.coeffs.items():
        j = np.arange(max(0, m - n), degree + 1 - max(0, n - m))
        root = np.zeros(len(j))
        for i, jj in enumerate(j.tolist()):
            P = math.prod(range(jj + 1, n + jj + 1)) * math.prod(range(jj + n - m + 1, n + jj + 1))
            e = max(0, P.bit_length() - 1000) & ~1
            root[i] = math.ldexp(math.sqrt(P >> e), e // 2)
        out[j + n - m, j] += c * root
    return OperatorMatrix(out)


def anti_wick_matrix(sigma: PolySymbol, degree: int) -> OperatorMatrix:
    """Anti-Wick quantization of sigma: the Toeplitz matrix of sigma(conj z, z)."""
    return toeplitz_poly_matrix(sigma.swapped(), degree)


def _heat(phi: PolySymbol, t: float) -> PolySymbol:
    """exp(t d/dz d/dconj(z)) applied to phi, then z and conj(z) exchanged.

    A z^n conj(z)^m term contributes C(n, j) C(m, j) j! t^j to
    conj(z)^{n-j} z^{m-j}; t = 1/2 is the heat transform and t = -1/2 is its
    exact inverse on polynomials.
    """
    out: dict[tuple[int, int], complex] = {}
    for (m, n), c in phi.coeffs.items():
        for j in range(min(m, n) + 1):
            coef = c * math.comb(n, j) * math.comb(m, j) * math.factorial(j) * t**j
            key = (n - j, m - j)  # (conj-power, z-power)
            out[key] = out.get(key, 0.0) + coef
    return PolySymbol({k: v for k, v in out.items() if abs(v) > 0})


def heat_symbol(phi: PolySymbol) -> PolySymbol:
    """Gaussian heat transform producing the Weyl symbol of T_phi.

    sigma(z) = (2/pi) int phi(conj w) e^{-2|z-w|^2} dA(w); with w = z + v the
    moments (2/pi) int v^p conj(v)^q e^{-2|v|^2} dA = delta_pq p!/2^p reduce
    it to ``_heat(phi, 1/2)``.  Note the conjugation: a z^n conj(z)^m term
    of phi contributes to conj(z)^{n-j} z^{m-j}.
    """
    return _heat(phi, 0.5)


def weyl_quantize_poly(sigma: PhasePolynomial, degree: int) -> OperatorMatrix:
    """Weyl quantization of a phase-space polynomial of any degree.

    x^i zeta^k = sum_{a,b} C(i,a) C(k,b) (-1)^{k-b} / (2^i (2i)^k)
    z^{a+b} conj(z)^{(i-a)+(k-b)}, and the Weyl operator of that symbol is
    the Toeplitz operator of its inverse heat transform.
    """
    terms: dict[tuple[int, int], complex] = {}
    for (i, k), c in sigma.coeffs.items():
        for a in range(i + 1):
            for b in range(k + 1):
                coef = c * math.comb(i, a) * math.comb(k, b) * (-1) ** (k - b) * 0.5**i * (-0.5j) ** k
                key = ((i - a) + (k - b), a + b)
                terms[key] = terms.get(key, 0.0) + coef
    return toeplitz_poly_matrix(_heat(PolySymbol(terms), -0.5), degree)


def anti_wick_toeplitz_residual(sigma: PolySymbol, degree: int) -> float:
    """Max interior difference between the product form sum a_mn D^n M^m
    (derivative powers left of multiplication powers) and the anti-Wick
    matrix; zero in exact arithmetic.  Each word D^n M^m is applied to the
    identity by ``operators.ladder_word``, which equals the product of the
    truncated matrices up to rounding.  Refuses symbols of degree > degree/2."""
    if sigma.degree > degree // 2:
        raise ValueError("symbol degree exceeds degree/2")
    eye = np.eye(degree + 1)
    products = sum(c * ladder_word("D" * n + "M" * m, eye) for (m, n), c in sigma.coeffs.items())
    aw = anti_wick_matrix(sigma, degree).entries
    b = degree + 1 - sigma.degree
    return float(np.max(np.abs(products - aw)[:b, :b]))


def weyl_toeplitz_residual(phi: PolySymbol, degree: int) -> float:
    """Max interior difference between the Toeplitz matrix of phi and McCoy's
    symmetric ordering of its heat symbol, Weyl(x^i zeta^k) =
    2^{-i} sum_j C(i,j) X^j Z^k X^{i-j} with X the position matrix and Z the
    scaled derivative.  Each word is applied to the identity by
    ``operators.ladder_word``, which equals the product of the truncated band
    matrices up to rounding; that product is exact on the block
    N + 1 - deg phi.  Contract <= 1e-8."""
    tp = toeplitz_poly_matrix(phi, degree).entries  # refuses deg phi > degree before any word
    eye = np.eye(degree + 1)
    mccoy = sum(
        c * 0.5**i * math.comb(i, j) * ladder_word("X" * j + "Z" * k + "X" * (i - j), eye)
        for (i, k), c in PhasePolynomial.from_poly_symbol(heat_symbol(phi)).coeffs.items()
        for j in range(i + 1)
    )
    b = degree + 1 - phi.degree
    return float(np.max(np.abs(tp - mccoy)[:b, :b]))
