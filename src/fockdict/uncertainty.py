"""Uncertainty principle on the Fock space.

The product inequality

    ||f' + zf - af|| * ||f' - zf - b i f|| >= ||f||^2     (a, b real)

is driven by the commutator of the self-adjoint pair S1 = D + M and
S2 = i(D - M); note the second factor is ||(S2 + b) f||, not ||(S2 - b) f||
(multiplying by -i flips the sign of the b-term), which is why the extremal
family below uses the same (a, b) as the displayed product.  Both factors
are computed on degree-raised coefficient arrays, so the products are exact
for any truncated input and no interior-block caveat is needed.  The pair
itself is the letters "S1" and "S2" of ``operators.ladder_word``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockVector, exp_quadratic_coeffs
from .operators import ladder_word


def uncertainty_product(f: FockVector, a: float, b: float) -> tuple[float, float]:
    """Returns (lhs, rhs) of the product inequality; lhs >= rhs always.

    lhs = ||f' + zf - af|| * ||f' - zf - ibf||, rhs = ||f||^2, both computed
    exactly on degree-raised arrays.  ValueError when either side leaves
    double range (a huge a or b), raised without a floating-point warning.
    """
    c = f.coeffs
    ce = np.concatenate([c, [0.0]])  # one degree up, where M f is exact
    d, m = ladder_word("D", ce), ladder_word("M", ce)
    with np.errstate(over="ignore", invalid="ignore"):
        u = d + m - a * ce
        w = d - m - 1j * b * ce
        lhs = float(np.linalg.norm(u) * np.linalg.norm(w))
        rhs = float(np.linalg.norm(c) ** 2)
    if not (np.isfinite(lhs) and np.isfinite(rhs)):
        raise ValueError(f"uncertainty product is not finite in double precision (a={a:g}, b={b:g})")
    return lhs, rhs


@dataclass(frozen=True)
class ExtremalParams:
    """Parameters of the equality family C exp(alpha z^2 + beta z).

    alpha = (c-1)/(2(c+1)) and beta = (a + i b c)/(c+1); membership in the
    space needs |alpha| < 1/2, automatic for c > 0.
    """

    C: complex = 1.0
    c: float = 1.0
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if not (self.c > 0 and np.isfinite(self.c)):
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError(f"a and b must be finite, got {self.a}, {self.b}")

    @property
    def alpha(self) -> float:
        return (self.c - 1.0) / (2.0 * (self.c + 1.0))

    @property
    def beta(self) -> complex:
        return (self.a + 1j * self.b * self.c) / (self.c + 1.0)


def extremal_coeffs(params: ExtremalParams, degree: int) -> FockVector:
    """Coefficients of C exp(alpha z^2 + beta z) against e_n.

    Built by the normalized recurrence of ``exp_quadratic_coeffs``.  Fails
    when a coefficient or the norm leaves double range (a huge beta), without
    a floating-point warning, and when the top coefficient is not yet below
    the 1e-10 tail certificate (pick a larger degree).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vec = FockVector(exp_quadratic_coeffs(params.alpha, params.beta, degree, params.C))
        norm = vec.norm()
    if not (np.all(np.isfinite(vec.coeffs)) and np.isfinite(norm)):
        raise ValueError(f"extremal coefficients are not finite in double precision "
                         f"(beta={params.beta:.3g})")
    if norm > 0 and abs(vec.coeffs[-1]) > 1e-10 * norm:
        raise ValueError(
            f"tail certificate failed: |c_N| = {abs(vec.coeffs[-1]):.2e} "
            f"> 1e-10 * ||f||; increase the degree"
        )
    return vec
