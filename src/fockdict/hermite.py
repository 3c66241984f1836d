"""Hermite functions, Gauss quadrature, and real-line vectors.

The orthonormal basis of L2(R) used throughout is

    h_n(x) = (2/pi)^(1/4) / sqrt(2^n n!) * exp(-x^2) * H_n(sqrt(2) x),

where H_n is the physicists' Hermite polynomial.  Quadrature rules are stored
with the weight they integrate against so callers cannot mix conventions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .fock import point_values

GAUSS_CONST = (2.0 / np.pi) ** 0.25  # normalizing constant of h_0

_MAX_GH_NODES = 256


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
    """Nodes and weights tagged with the weight function they integrate.

    weight == "hermite": sum w_k f(x_k) ~ int f(x) exp(-x^2) dx on R.
    weight == "plane":   nodes are complex, sum w_k f(z_k) ~ int f dlambda.
    weight == "legendre": plain composite rule, int f(x) dx on [lo, hi].

    ``log_weights`` stores log w_k for the hermite rule so that the
    re-weighting w_k exp(x_k^2) can be formed without overflow.  ``line`` is
    the hermite rule a plane rule is the tensor square of.  The arrays are
    read-only copies, since the rule builders hand one cached rule to every
    caller.  The flat weights and the Hermite table are derived once per rule
    and kept with it, read-only as well.
    """

    nodes: np.ndarray
    weights: np.ndarray
    weight: str = "hermite"
    log_weights: np.ndarray | None = None
    line: QuadratureRule | None = None
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name in ("nodes", "weights", "log_weights"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.array(arr)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def flat_weights(self) -> np.ndarray:
        """Weights against plain dx: w_k exp(+x_k^2) for the hermite rule."""
        if self.weight == "legendre":
            return self.weights
        if self.weight != "hermite":
            raise ValueError("flat weights are only defined for real-line rules")
        if "flat" not in self._derived:
            self._derived["flat"] = _read_only(np.exp(self.log_weights + self.nodes**2))
        return self._derived["flat"]

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


@lru_cache(maxsize=None)
def gauss_hermite(n_nodes: int) -> QuadratureRule:
    """Gauss-Hermite rule for the weight exp(-x^2) on R (Golub-Welsch).

    Nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix.
    Weights are recovered from the Christoffel function,
    w_k = exp(-x_k^2) / sum_j psi_j(x_k)^2 with psi_j the orthonormal
    weight-one Hermite functions: unlike the first-eigenvector formula this
    stays accurate (in log scale) at the extreme nodes, where eigenvector
    components sink below machine noise.  Weights sum to sqrt(pi).  Each
    rule is built once per process.
    """
    if not 1 <= n_nodes <= _MAX_GH_NODES:
        raise ValueError(f"n_nodes must be in 1..{_MAX_GH_NODES}")
    if n_nodes == 1:
        nodes = np.zeros(1)
        weights = np.array([np.sqrt(np.pi)])
        return QuadratureRule(nodes, weights, "hermite", np.log(weights))
    off = np.sqrt(np.arange(1, n_nodes) / 2.0)
    jac = np.diag(off, 1) + np.diag(off, -1)
    vals = np.linalg.eigvalsh(jac)
    # psi_0 = pi^{-1/4} e^{-x^2/2}; psi_{j+1} = x sqrt(2/(j+1)) psi_j - sqrt(j/(j+1)) psi_{j-1}
    psi_prev = np.pi**-0.25 * np.exp(-(vals**2) / 2.0)
    christoffel = psi_prev**2
    psi = vals * np.sqrt(2.0) * psi_prev
    for j in range(1, n_nodes):
        christoffel += psi**2
        psi, psi_prev = (
            vals * np.sqrt(2.0 / (j + 1)) * psi - np.sqrt(j / (j + 1)) * psi_prev,
            psi,
        )
    log_weights = -(vals**2) - np.log(christoffel)
    return QuadratureRule(vals, np.exp(log_weights), "hermite", log_weights)


@lru_cache(maxsize=8)  # a 256-node plane rule alone holds 65,536 nodes
def gauss_hermite_plane(n_nodes: int) -> QuadratureRule:
    """Tensor rule on C for the Gaussian measure dlambda = exp(-|z|^2)/pi dA.

    Node j * n_nodes + k is u_j + i v_k with u, v the nodes of ``line``, so
    sums over the plane can be contracted one axis at a time.
    """
    line = gauss_hermite(n_nodes)
    u, v = np.meshgrid(line.nodes, line.nodes, indexing="ij")
    wu, wv = np.meshgrid(line.weights, line.weights, indexing="ij")
    nodes = (u + 1j * v).ravel()
    weights = (wu * wv).ravel() / np.pi
    return QuadratureRule(nodes, weights, "plane", line=line)


def composite_legendre(lo: float, hi: float, n_panels: int) -> QuadratureRule:
    """Composite Gauss-Legendre rule on [lo, hi]: n_panels equal panels of 32 points each."""
    xg, wg = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(lo, hi, n_panels + 1)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append((xg + 1.0) * (b - a) / 2.0 + a)
        weights.append(wg * (b - a) / 2.0)
    return QuadratureRule(np.concatenate(nodes), np.concatenate(weights), "legendre")


def default_nodes(degree: int) -> int:
    """4 nodes per degree for smooth integrands, at least 64, capped at the rule limit."""
    return min(_MAX_GH_NODES, max(64, 4 * degree))


@dataclass(frozen=True, eq=False)
class LineVector:
    """Coefficients b_0..b_N of a real-line function against h_n.

    ``tail_ratio`` is set by projections: ||top coefficients|| / ||all||,
    their figure of resolution (a ratio above about 1e-6 means the expansion
    is under-resolved at this degree); projections never warn.
    """

    coeffs: np.ndarray
    tail_ratio: float | None = None

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

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


def _project(f: Callable, degree: int, rule: QuadratureRule) -> LineVector:
    """b_n = sum_k flat_weights_k f(x_k) h_n(x_k), with its tail ratio."""
    fw = rule.flat_weights() * np.asarray(f(rule.nodes), dtype=np.complex128)
    coeffs = rule.hermite_table(degree) @ fw
    total = np.linalg.norm(coeffs)
    n_tail = max(2, len(coeffs) // 8)
    ratio = 0.0 if total == 0.0 else float(np.linalg.norm(coeffs[-n_tail:]) / total)
    return LineVector(coeffs, tail_ratio=ratio)


def project_line(f: Callable, degree: int, rule: QuadratureRule) -> LineVector:
    """Expand a smooth function against h_0..h_N with a Gauss-Hermite rule.

    b_n = sum_k w_k exp(x_k^2) f(x_k) h_n(x_k); the re-weighting is done in
    log space so x_k^2 is never exponentiated on its own.  The flat weights
    and h_n(x_k) come from the rule's own read-only cache, so repeated
    projections on one cached rule build them once.  The result's
    ``tail_ratio`` (norm of the top eighth of the coefficients over the
    whole norm) reports how well the degree resolves f; nothing is warned.
    """
    if rule.weight != "hermite":
        raise ValueError("project_line needs a Gauss-Hermite rule")
    return _project(f, degree, rule)


def project_line_interval(f: Callable, degree: int, support: tuple[float, float]) -> LineVector:
    """Expand a compactly supported function via composite Gauss-Legendre.

    Meant for discontinuous windows (the function must vanish outside
    ``support``); 32-point panels, enough of them to resolve h_N's oscillation.
    ``tail_ratio`` is set as by ``project_line``; a discontinuous window's
    coefficients decay slowly, so its ratio stays large at every degree.
    """
    lo, hi = support
    n_panels = max(4, int(np.ceil((degree + 1) * (hi - lo) / 20.0)))
    return _project(f, degree, composite_legendre(lo, hi, n_panels))
