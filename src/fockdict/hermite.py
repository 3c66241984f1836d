"""Hermite functions, Gauss quadrature, and real-line vectors.

The orthonormal basis of L2(R) used throughout is

    h_n(x) = (2/pi)^(1/4) / sqrt(2^n n!) * exp(-x^2) * H_n(sqrt(2) x),

where H_n is the physicists' Hermite polynomial.  Every line rule's weights
are against plain dx, the measure of every line-side sum; a rule is tagged
with its kind so a consumer can refuse the wrong one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .fock import _as_coeff_array, point_values

GAUSS_CONST = (2.0 / np.pi) ** 0.25  # normalizing constant of h_0

# the largest n_nodes whose outermost node x keeps psi_0(x) = pi^{-1/4} exp(-x^2/2)
# a normal double (x^2/2 = 707.6 at 728 nodes); past it psi_0 is subnormal and
# the Christoffel recurrence of ``gauss_hermite`` starts without full precision
MAX_GH_NODES = 728


def hermite_function(n: int, x):
    """Orthonormal Hermite function h_n(x).

    The Gaussian is carried inside the recurrence
        h_{n+1} = 2x/sqrt(n+1) h_n - sqrt(n/(n+1)) h_{n-1},
    which is stable to n of a few hundred; far tails underflow to zero.
    The result has the shape of x.
    """
    return hermite_functions(n, x)[n]


def hermite_functions(n_max: int, x) -> np.ndarray:
    """All h_0..h_{n_max} at the given points, shape (n_max + 1,) + np.shape(x)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    xa = np.asarray(x, dtype=np.float64)
    out = np.zeros((n_max + 1,) + xa.shape)
    out[0] = GAUSS_CONST * np.exp(-(xa**2))
    two_x = 2.0 * xa
    if n_max >= 1:
        out[1] = two_x * out[0]
    n = np.arange(n_max + 1)
    root, ratio = np.sqrt(n + 1.0), np.sqrt(n / (n + 1.0))
    for k in range(1, n_max):
        out[k + 1] = two_x / root[k] * out[k] - ratio[k] * out[k - 1]
    return out


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights tagged with the kind of rule they form.

    weight == "hermite": Gauss-Hermite nodes on R with their weights against
        plain dx, sum w_k f(x_k) ~ int f(x) dx, exact for f a polynomial of
        degree <= 2 n_nodes - 1 times exp(-x^2); a sum against exp(-x^2)
        reads w_k exp(-x_k^2).
    weight == "product": the Gauss rule on R for exp(-2x^2), weights against
        plain dx, exact for f a polynomial of degree <= 2 n_nodes - 1 times
        exp(-2x^2): the Gaussian part of a product h_p h_q, so the rule
        integrates h_p h_q exactly for p + q <= 2 n_nodes - 1.
    weight == "plane":   nodes are complex, sum w_k f(z_k) ~ int f dlambda.
    weight == "legendre": plain composite rule, int f(x) dx on [lo, hi].

    ``line`` is the hermite rule a plane rule is the tensor square of.  The
    arrays are read-only copies, since the rule builders hand one cached rule
    to every caller.  The Hermite table is derived once per rule and kept
    with it, read-only as well.
    """

    nodes: np.ndarray
    weights: np.ndarray
    weight: str = "hermite"
    line: QuadratureRule | None = None
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name in ("nodes", "weights"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name))))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def hermite_table(self, degree: int) -> np.ndarray:
        """h_0..h_degree at the nodes, shape (degree+1, n_nodes), read-only.

        The rule keeps one table.  A higher degree replaces it, and the
        smaller table is released before the larger one is built; a lower
        degree is served as a leading-row slice.  The recurrence makes the
        rows prefix-stable, so the slice equals
        ``hermite_functions(degree, nodes)`` bit for bit.
        """
        if self.weight == "plane":
            raise ValueError("Hermite tables are only defined for real-line rules")
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if len(self._derived.get("hermite", ())) <= degree:
            self._derived.pop("hermite", None)
            self._derived["hermite"] = _read_only(hermite_functions(degree, self.nodes))
        return self._derived["hermite"][: degree + 1]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def require_line_rule(rule: QuadratureRule, consumer: str) -> None:
    """ValueError unless ``rule`` is a Gauss rule on R ("hermite" or "product"), naming ``consumer``."""
    if rule.weight not in ("hermite", "product"):
        raise ValueError(f"{consumer} needs a Gauss-Hermite rule")


def _golub_welsch(off: np.ndarray, p0: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule of the zero-diagonal Jacobi matrix with off-diagonal ``off`` (Golub-Welsch).

    Nodes are the matrix's eigenvalues.  The weight against dx at node x is
    the reciprocal Christoffel sum 1 / sum_j p_j(x)^2 over the orthonormal
    functions p_0 = p0(x), off[j] p_{j+1} = x p_j - off[j-1] p_{j-1}: unlike
    the first-eigenvector formula it keeps its relative accuracy at the
    extreme nodes, where eigenvector components sink below machine noise.
    """
    nodes = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p_prev, p, b_prev = 0.0, p0(nodes), 0.0
    christoffel = p**2
    for b in off:
        p, p_prev, b_prev = (nodes * p - b_prev * p_prev) / b, p, b
        christoffel += p**2
    return nodes, 1.0 / christoffel


@lru_cache(maxsize=None)
def gauss_hermite(n_nodes: int) -> QuadratureRule:
    """Gauss-Hermite rule on R, its weights against dx (Golub-Welsch).

    The Jacobi matrix has off-diagonal sqrt(k/2), and the weight at node x_k
    is 1 / sum_j psi_j(x_k)^2 over the orthonormal weight-one Hermite
    functions psi_0 = pi^{-1/4} exp(-x^2/2); up to the 728-node cap psi_0
    at the outermost node is a normal double and no weight overflows or
    underflows.  The weights against exp(-x^2) are w_k exp(-x_k^2) and sum
    to sqrt(pi).  Each rule is built once per process.
    """
    if not 1 <= n_nodes <= MAX_GH_NODES:
        raise ValueError(f"n_nodes must be in 1..{MAX_GH_NODES}")
    off = np.sqrt(np.arange(1, n_nodes) / 2.0)
    return QuadratureRule(*_golub_welsch(off, lambda x: np.pi**-0.25 * np.exp(-(x**2) / 2.0)))


@lru_cache(maxsize=None)
def product_rule(n_nodes: int) -> QuadratureRule:
    """Gauss rule on R for the weight exp(-2x^2), its weights against dx.

    ``gauss_hermite(n_nodes)`` with nodes and weights divided by sqrt(2), the
    substitution x -> x / sqrt(2); exact for h_p h_q times a polynomial of
    degree <= 2 n_nodes - 1 - p - q.  Tagged "product", which every
    line-rule consumer accepts.  Each rule is built once per process.
    """
    line = gauss_hermite(n_nodes)
    root2 = math.sqrt(2.0)
    return QuadratureRule(line.nodes / root2, line.weights / root2, "product")


@lru_cache(maxsize=8)  # a 256-node plane rule alone holds 65,536 nodes
def gauss_hermite_plane(n_nodes: int) -> QuadratureRule:
    """Tensor rule on C for the Gaussian measure dlambda = exp(-|z|^2)/pi dA.

    Node j * n_nodes + k is u_j + i v_k with u, v the nodes of ``line``, so
    sums over the plane can be contracted one axis at a time.
    """
    line = gauss_hermite(n_nodes)
    u, v = np.meshgrid(line.nodes, line.nodes, indexing="ij")
    gauss = line.weights * np.exp(-(line.nodes**2))
    wu, wv = np.meshgrid(gauss, gauss, indexing="ij")
    nodes = (u + 1j * v).ravel()
    weights = (wu * wv).ravel() / np.pi
    return QuadratureRule(nodes, weights, "plane", line=line)


@lru_cache(maxsize=1)
def _gauss_legendre_32() -> tuple[np.ndarray, np.ndarray]:
    """The 32-point Gauss-Legendre rule on [-1, 1], built once per process.

    ``_golub_welsch`` with off-diagonal k / sqrt(4k^2 - 1) and p_0 = 1/sqrt(2),
    the orthonormal Legendre polynomials.  Weights sum to 2.
    """
    k = np.arange(1.0, 32.0)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, weights = _golub_welsch(off, lambda x: np.full(x.shape, np.sqrt(0.5)))
    return _read_only(nodes), _read_only(weights)


def composite_legendre(lo: float, hi: float, n_panels: int) -> QuadratureRule:
    """Composite Gauss-Legendre rule on [lo, hi]: n_panels equal panels of 32 points each."""
    xg, wg = _gauss_legendre_32()
    edges = np.linspace(lo, hi, n_panels + 1)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append((xg + 1.0) * (b - a) / 2.0 + a)
        weights.append(wg * (b - a) / 2.0)
    return QuadratureRule(np.concatenate(nodes), np.concatenate(weights), "legendre")


def default_nodes(degree: int) -> int:
    """4 nodes per degree for smooth integrands, at least 64, at most 256.

    The line rule of ``BargmannPipeline``; the verify cases size their own.
    """
    return min(256, max(64, 4 * degree))


@dataclass(frozen=True, eq=False)
class LineVector:
    """Coefficients b_0..b_N of a real-line function against h_n.

    ``tail_ratio`` is set by ``project_line``: ||top coefficients|| / ||all||,
    their figure of resolution (a ratio above about 1e-6 means the expansion
    is under-resolved at this degree); projections never warn.
    """

    coeffs: np.ndarray
    tail_ratio: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeff_array(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __call__(self, x):
        return point_values(self.coeffs @ hermite_functions(self.degree, np.ravel(x)), np.shape(x))

    @classmethod
    def basis(cls, n: int, degree: int) -> "LineVector":
        c = np.zeros(degree + 1, dtype=np.complex128)
        c[n] = 1.0
        return cls(c)


def project_line(f: Callable, degree: int, rule: QuadratureRule) -> LineVector:
    """Expand a smooth function against h_0..h_N with a Gauss-Hermite rule.

    b_n = sum_k w_k f(x_k) h_n(x_k) with w_k the rule's weights against dx.
    h_n(x_k) comes from the rule's own read-only cache, so repeated
    projections on one cached rule build it once.  The result's
    ``tail_ratio`` (norm of the top eighth of the coefficients over the
    whole norm) reports how well the degree resolves f; nothing is warned.
    """
    require_line_rule(rule, "project_line")
    fw = rule.weights * np.asarray(f(rule.nodes), dtype=np.complex128)
    coeffs = rule.hermite_table(degree) @ fw
    total = np.linalg.norm(coeffs)
    n_tail = max(2, len(coeffs) // 8)
    ratio = 0.0 if total == 0.0 else float(np.linalg.norm(coeffs[-n_tail:]) / total)
    return LineVector(coeffs, tail_ratio=ratio)


def interval_coeffs(a: float, b: float, degree: int) -> LineVector:
    """Coefficients J_n = int_a^b h_n dx (n <= degree) of the indicator of [a, b].

    The ladder relation h_n' = sqrt(n) h_{n-1} - sqrt(n+1) h_{n+1} integrates to
    J_{n+1} = (sqrt(n) J_{n-1} - [h_n]_a^b) / sqrt(n+1), from J_1 = -[h_0]_a^b
    and J_0 = (2/pi)^(1/4) (sqrt(pi)/2) (erf b - erf a), taken as a difference
    of erfc on an interval that does not contain 0; its factor
    sqrt(n/(n+1)) < 1 does not amplify rounding.  A lower degree gives the
    leading entries bit for bit.  ValueError unless a <= b are both finite.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValueError(f"interval needs finite ends a <= b, got [{a}, {b}]")
    h = hermite_functions(degree, [a, b])
    jump = (h[:, 1] - h[:, 0]).tolist()
    if a > 0.0:  # erf cancels in the tails; erfc keeps J_0's relative accuracy there
        mass = math.erfc(a) - math.erfc(b)
    elif b < 0.0:
        mass = math.erfc(-b) - math.erfc(-a)
    else:
        mass = math.erf(b) - math.erf(a)
    J = [GAUSS_CONST * math.sqrt(math.pi) / 2.0 * mass, -jump[0]]
    for n in range(1, degree):
        J.append((math.sqrt(n) * J[n - 1] - jump[n]) / math.sqrt(n + 1))
    return LineVector(J[: degree + 1])
