"""The Bargmann transform in two redundant forms, and weighted sup norms.

The transform B maps L2(R) unitarily onto the Fock space,

    Bf(z) = c * int f(x) exp(2xz - x^2 - z^2/2) dx,      c = (2/pi)^(1/4),

and sends the Hermite function h_n to the monomial e_n.  That makes the
coefficient map the exact transform path; the quadrature of the defining
integral is kept alongside it as an independent certification of the
integral formulas.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyWarning
from .fock import FockVector, evaluate, point_values
from .hermite import (
    GAUSS_CONST,
    LineVector,
    QuadratureRule,
    require_line_rule,
)

# points per kernel block of the forward quadrature: a call holds at most
# _BLOCK x n_nodes kernel entries at once, however many points it is given
_BLOCK = 128
# grid columns per column table of verify_pbound: with _BLOCK rows a block
# holds _BLOCK x n_nodes row entries and _COLUMNS x (n_nodes + _BLOCK) more
_COLUMNS = 256


def bargmann_coeff(f: LineVector) -> FockVector:
    """Exact transform: h_n coefficients become e_n coefficients unchanged."""
    return FockVector(f.coeffs)


def bargmann_quadrature(f: Callable, z, rule: QuadratureRule):
    """Quadrature of the defining integral at one or many points z.

    The rule's weights are against dx, so exp(-x^2) is folded into them once
    per call as the Gaussian weights w_k exp(-x_k^2); the factor
    exp(2x i Im z) oscillates, so accuracy degrades once |Im z| outruns the
    rule's phase resolution (flagged at |Im z| > n_nodes / 8).  The kernel
    is formed for _BLOCK points at a time, sorted by Re z, over the
    node window ``_node_windows`` certifies for the block, and summed by
    ``_block_sum`` from one real exp and one tangent per term, in place of
    a complex exp (an exp, a cosine and a sine).  The saving rests on
    numpy's vectorized float64 tan and exp: with its AVX-512 dispatch a
    call takes about half the time of the complex-exp kernel; without it
    both run several times slower and the gain is small, or may be a loss
    on another host (figures in the README).
    """
    require_line_rule(rule, "bargmann_quadrature")
    zs = np.asarray(z, dtype=np.complex128).ravel()
    if np.any(np.abs(zs.imag) > rule.n_nodes / 8.0):
        warnings.warn(
            "oscillation budget exceeded: |Im z| > n_nodes/8", AccuracyWarning, stacklevel=2
        )
    x = rule.nodes
    fx = rule.weights * np.exp(-(x**2)) * np.asarray(f(x), dtype=np.complex128)
    order = np.argsort(zs.real)
    starts = np.arange(0, zs.size, _BLOCK)
    vals = np.empty(zs.shape, dtype=np.complex128)
    for start, lo, hi in zip(starts, *_node_windows(fx, x, zs.real[order], starts)):
        idx = order[start : start + _BLOCK]
        vals[idx] = GAUSS_CONST * _block_sum(fx[lo:hi], x[lo:hi], zs[idx])
    return point_values(vals, np.shape(z))


def _block_sum(fx, x, zb) -> np.ndarray:
    """sum_k fx_k exp(2 z x_k - z^2/2) at each point z of zb, from real arrays.

    The exponent is split as E + i theta, with E = 2 Re z x - Re(z^2/2) and
    theta = 2 Im z x - Im(z^2/2), where z^2/2 is numpy's complex square
    halved: the exponent is the one a complex kernel would hold, bit for bit
    (a real (s^2 - t^2)/2 moves it by an ulp, about 1e-13 relative at
    |z|^2 = 550).  With tau = tan(theta/2), taken as Im z x - Im(z^2/2)/2
    (exact halvings of both parts of theta),

        e^{i theta} = ((1 - tau^2) + 2i tau) / (1 + tau^2),

    so each term costs one real exp and one tangent, and the kernel's real
    and imaginary parts are summed against fx by two real matrix products.
    tau is at most about 1e16 for a double theta/2 near an odd multiple of
    pi/2, so tau^2 stays in range and both parts tend to (-1, 0) there.
    """
    half_sq = zb**2 / 2.0
    tau = np.multiply.outer(zb.imag, x)
    tau -= (half_sq.imag / 2.0)[:, None]
    np.tan(tau, out=tau)
    mag = np.multiply.outer(2.0 * zb.real, x)
    mag -= half_sq.real[:, None]
    np.exp(mag, out=mag)
    cos = np.square(tau)
    cos += 1.0
    mag /= cos  # e^E / (1 + tau^2)
    np.subtract(2.0, cos, out=cos)
    cos *= mag  # e^E cos(theta)
    tau *= mag  # e^E sin(theta) / 2
    parts = np.stack((fx.real, fx.imag), axis=1)
    re_parts = cos @ parts
    im_parts = tau @ (2.0 * parts)
    return (re_parts[:, 0] - im_parts[:, 1]) + 1j * (re_parts[:, 1] + im_parts[:, 0])


def _node_windows(fx, x, s, starts) -> tuple[np.ndarray, np.ndarray]:
    """Node windows [lo, hi) per block of the sorted Re z values s; block i starts at starts[i].

    On a block s0 <= Re z <= s1 the term k at z has modulus
    exp(g_k(Re z) - Re(z^2)/2) with g_k(s) = log|fx_k| + 2 s x_k, and the
    second part is common to all k.  Each g_k is linear in s, so
    U_k = max(g_k(s0), g_k(s1)) bounds it on the block and
    L = max_k min(g_k(s0), g_k(s1)) bounds every point's largest term from
    below.  A node is dropped only if U_k < L + log(eps / n_nodes):
    the dropped terms then add up to less than eps times the largest term at
    every point, under the rounding of the sum itself.  Without finite data
    every block keeps every node, as does a block with a non-finite end, so
    NaN and inf propagate as in the full sum.  One pass certifies all blocks.
    """
    n = x.size
    if not np.all(np.isfinite(fx)):
        return np.zeros(starts.size, dtype=np.intp), np.full(starts.size, n)
    s0, s1 = s[starts], s[np.minimum(starts + _BLOCK, s.size) - 1]
    finite = np.isfinite(s0) & np.isfinite(s1)
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(fx))
    ends = log_mag + 2.0 * np.multiply.outer(np.where(finite, (s0, s1), 0.0), x)
    floor = ends.min(axis=0).max(axis=1) + np.log(np.finfo(np.float64).eps / n)
    keep = (ends.max(axis=0) >= floor[:, None]) | ~finite[:, None]
    return np.argmax(keep, axis=1), n - np.argmax(keep[:, ::-1], axis=1)


def inverse_bargmann_quadrature(F: FockVector, x, plane_rule: QuadratureRule):
    """Tensor Gauss-Hermite value of the inverse integral over the plane.

    B^{-1}F(x) = c * int F(z) exp(2x conj(z) - x^2 - conj(z)^2/2) dlambda(z);
    AccuracyWarning once F's ``reach`` (last nonzero index) is above the
    rule's line-node count (zero padding never warns).  On the tensor nodes
    z = u_j + i v_k the kernel splits as exp(2x u_j - x^2) * exp(-2i x v_k),
    so the sum over the plane is contracted one axis at a time.
    """
    if plane_rule.weight != "plane" or plane_rule.line is None:
        raise ValueError("inverse_bargmann_quadrature needs a plane rule from gauss_hermite_plane")
    if F.reach > np.sqrt(plane_rule.n_nodes):
        warnings.warn(
            "plane rule too coarse for this degree", AccuracyWarning, stacklevel=2
        )
    xs = np.asarray(x, dtype=np.float64).ravel()
    t = plane_rule.line.nodes
    zb = np.conj(plane_rule.nodes)
    fz = plane_rule.weights * evaluate(F, plane_rule.nodes) * np.exp(-(zb**2) / 2.0)
    along_u = np.exp(2.0 * np.outer(xs, t) - (xs**2)[:, None])
    along_v = np.exp(-2j * np.outer(xs, t))
    vals = GAUSS_CONST * np.sum((along_u @ fz.reshape(t.size, t.size)) * along_v, axis=1)
    return point_values(vals, np.shape(x))


@dataclass(frozen=True)
class BargmannPipeline:
    """The degree ``dilation_fock`` reads; it names no rule (each consumer names its own).

    A stub kept while ``bench/workloads.py`` and ``bench/test_oracles.py``
    pass it; it goes once the benchmark passes the degree itself.
    """

    degree: int

    @classmethod
    def default(cls, degree: int):
        return cls(degree)


def _polar_grid(radius: float, step: float) -> np.ndarray:
    """The origin, then rings r = k * step <= radius + step / 2.

    A ring holds max(16, ceil(2 pi r / step)) points at angles j * (2 pi / count).
    """
    radii = np.arange(0.0, radius + step / 2.0, step)[1:]
    counts = np.maximum(16, np.ceil(2.0 * np.pi * radii / step).astype(np.intp))
    theta = np.arange(counts.sum(), dtype=np.float64)  # j on ring k, then j * (2 pi / count)
    theta -= np.repeat(np.cumsum(counts) - counts, counts)
    theta *= np.repeat(2.0 * np.pi / counts, counts)
    grid = np.zeros(theta.size + 1, dtype=np.complex128)
    rings = np.exp(np.multiply(1j, theta, out=grid[1:]), out=grid[1:])
    rings *= np.repeat(radii, counts)
    return grid


def fock_sup_norm(F: FockVector, grid_radius: float, grid_step: float) -> float:
    """max over a polar grid of |F(z)| exp(-|z|^2/2).

    The grid is ``_polar_grid(grid_radius, grid_step)``, so the maximum is a
    lower bound of the weighted sup norm, with no stated gap (ROADMAP item 7).
    ValueError unless grid_step is finite and > 0 and grid_radius is finite
    and >= 0; radius 0 is the origin alone.  Choose
    grid_radius >= sqrt(2 * degree): beyond that the weighted modulus
    of a truncated series only decays.  That radius leaves ``evaluate``'s
    range |z| <= 37.4 from degree 700 on (a little sooner, since the
    outermost ring may lie up to half a step beyond the radius), and there
    the call raises OverflowError.
    """
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise ValueError(f"grid step must be finite and > 0, got {grid_step}")
    _require_grid_radius(grid_radius)
    grid = _polar_grid(grid_radius, grid_step)
    vals = np.abs(evaluate(F, grid)) * np.exp(-np.abs(grid) ** 2 / 2.0)
    return float(np.max(vals))


def _require_grid_radius(grid_radius: float) -> None:
    if not (math.isfinite(grid_radius) and grid_radius >= 0):
        raise ValueError(f"grid radius must be finite and >= 0, got {grid_radius}")


def _pbound_grid(grid_radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Axis u = 0.1 * (-m..m) of the tensor grid, and its in-disk mask.

    m = floor(grid_radius / 0.1); the mask keeps u_a^2 + u_b^2 <= grid_radius^2,
    tested on the integer indices so the axis ends +-m stay on the grid.
    """
    _require_grid_radius(grid_radius)
    lim = grid_radius / 0.1
    m = int(np.floor(lim + 1e-9))  # 0.7 / 0.1 rounds to 6.999...
    j = np.arange(-m, m + 1)
    inside = (j[:, None] ** 2 + j[None, :] ** 2) <= lim * lim + 1e-9
    return 0.1 * j, inside


def _stft_blocks(f: Callable, rule: QuadratureRule, u: np.ndarray):
    """Blocks of the Gaussian-window STFT sum_k F_k exp(-(x_k - s)^2) exp(2i t x_k).

    F_k = w_k f(x_k) with w_k the rule's weights against dx; s runs over u
    for the rows and t for the columns.  Yields (rows, cols, values) with
    values[i, j] the sum at s = u[rows][i], t = u[cols][j].  c times its
    modulus is the weighted modulus |Bf(s + it)| exp(-|z|^2/2), since the
    exponent of the quadrature kernel less |z|^2/2 is
    -(x - s)^2 + 2itx - ist.  Each block is the real row table
    exp(-(x_k - s)^2) F_k times the column table exp(2i t x_k); every row
    entry is at most |F_k|, so nothing overflows.
    """
    x = rule.nodes
    fx = rule.weights * np.asarray(f(x), dtype=np.complex128)
    for c0 in range(0, u.size, _COLUMNS):
        cols = slice(c0, c0 + _COLUMNS)
        col_table = np.exp(2j * np.outer(x, u[cols]))
        for r0 in range(0, u.size, _BLOCK):
            rows = slice(r0, r0 + _BLOCK)
            row_table = np.exp(-((u[rows, None] - x[None, :]) ** 2)) * fx
            yield rows, cols, row_table @ col_table


def verify_pbound(
    f: Callable, rule: QuadratureRule, grid_radius: float = 8.0
) -> tuple[float, float]:
    """Check ||Bf||_{F-infinity} <= c sqrt(pi) ||f||_infinity for bounded f.

    Returns (lhs, rhs): lhs is the weighted sup |Bf(z)| exp(-|z|^2/2) over
    the points z = u_a + i u_b of the tensor grid u = 0.1 * (-m..m),
    m = floor(grid_radius / 0.1), with |z| <= grid_radius; rhs the bound,
    with ||f||_inf scanned on 20001 points of [-50, 50].  The weighted
    modulus is a short-time Fourier transform of f with a Gaussian window
    (``_stft_blocks``), so the grid costs (rows + columns) x nodes
    exponentials and one matrix product per block, not points x nodes
    exponentials.  ValueError unless grid_radius is finite and >= 0.
    """
    require_line_rule(rule, "verify_pbound")
    xs = np.linspace(-50.0, 50.0, 20001)
    f_sup = float(np.max(np.abs(np.asarray(f(xs), dtype=np.complex128))))
    u, inside = _pbound_grid(grid_radius)
    peak = np.max([np.max(np.abs(vals)[inside[rows, cols]], initial=-np.inf)
                   for rows, cols, vals in _stft_blocks(f, rule, u)])
    lhs = float(GAUSS_CONST * peak)
    rhs = float(GAUSS_CONST * np.sqrt(np.pi) * f_sup)
    return lhs, rhs
