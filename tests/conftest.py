import math

import numpy as np
import pytest

from fockdict.bargmann import inverse_bargmann_quadrature
from fockdict.fock import log_factorials
from fockdict.hermite import gauss_hermite, hermite_functions


def _exact_dilation(r: float, n: int, degree: int, nodes: int = 250) -> np.ndarray:
    """<D_r h_n, h_m> = int sqrt(r) h_n(rx) h_m(x) dx for m = 0..degree.

    The independent line-quadrature oracle for ``operators.dilation_matrix``,
    which uses no quadrature but the position ladder: the integrand is a
    polynomial of degree n + m times e^{-(1+r^2)x^2}, so the Gauss-Hermite
    rule rescaled to that weight is exact once nodes > (n + degree)/2; no
    plane rule or inverse integral is involved.
    """
    assert 2 * nodes > n + degree
    rule = gauss_hermite(nodes)
    s = np.sqrt(1.0 + r * r)
    x = rule.nodes / s
    fw = rule.weights / s * np.sqrt(r) * hermite_functions(n, r * x)[n]
    return hermite_functions(degree, x) @ fw


@pytest.fixture
def exact_dilation():
    """Columns of the line dilation D_r g(x) = sqrt(r) g(rx) against h_n, by exact line quadrature."""
    return _exact_dilation


def _inverse_integral_dilation(r: float, f, degree: int, line, plane) -> np.ndarray:
    """B D_r B^{-1} f with B^{-1} f sampled by the inverse integral over the plane.

    Down to the line through ``inverse_bargmann_quadrature`` on the plane
    rule, at the nodes of the line rule rescaled to the weight
    e^{-(1+r^2)x^2}, and projected back on h_0..h_degree; reliable for input
    degree up to the plane rule's line nodes.
    """
    s = np.sqrt(1.0 + r * r)
    x = line.nodes / s
    g = inverse_bargmann_quadrature(f, r * x, plane)
    return hermite_functions(degree, x) @ (line.weights / s * np.sqrt(r) * g)


@pytest.fixture
def inverse_integral_dilation():
    """The Fock-side dilation by way of the plane quadrature of the inverse integral."""
    return _inverse_integral_dilation


def _dilation_plane_kernels(r: float, fs, degree: int, plane) -> list[np.ndarray]:
    """Fock coefficients of each dilated f in fs by plane quadrature of the direct kernel.

        sqrt(2r/(1+r^2)) e^{g z^2} int f(-iw) e^{g conj(w)^2}
            e^{2 i r z conj(w)/(1+r^2)} dlambda(w),

    with g = (1-r^2)/(2(1+r^2)), on the plane rule, up to ``degree``;
    coefficients come from the e_n recurrence of e^{g z^2 + beta z} over the
    plane nodes' betas, sqrt(n+1) u_{n+1} = beta u_n + 2 g sqrt(n) u_{n-1},
    run here as one table shared by all of fs.  It calls nothing in
    ``fockdict.fock`` and shares no step with ``operators.dilation_matrix``;
    it is accurate for f of modest degree relative to the plane rule.
    """
    gamma = (1.0 - r * r) / (2.0 * (1.0 + r * r))
    pref = np.sqrt(2.0 * r / (1.0 + r * r))
    wbar = np.conj(plane.nodes)
    beta = 2j * r * wbar / (1.0 + r * r)
    table = np.empty((degree + 1, beta.size), dtype=np.complex128)
    table[0] = 1.0
    if degree >= 1:
        table[1] = beta
    for n in range(1, degree):
        table[n + 1] = (beta * table[n] + 2.0 * gamma * math.sqrt(n) * table[n - 1]) / math.sqrt(n + 1)
    return [pref * (table @ (plane.weights * f(-1j * plane.nodes) * np.exp(gamma * wbar**2))) for f in fs]


@pytest.fixture
def dilation_plane_kernels():
    """The Fock-side dilation by way of the plane quadrature of the direct kernel."""
    return _dilation_plane_kernels


def _kernel_tail(r: float, N: int) -> float:
    """e^{-r} sum_{n > N} r^n / n!, summed term by term: the mass k_a loses past N."""
    return math.fsum(math.exp(n * math.log(r) - r - math.lgamma(n + 1)) for n in range(N + 1, N + 400))


@pytest.fixture
def resolution_boundary():
    """|a| at which k_a loses exactly 1e-8 past degree N, by bisection on the tail."""
    def boundary(N: int) -> float:
        lo, hi = 0.0, math.sqrt(N + 1)
        for _ in range(60):
            mid = (lo + hi) / 2.0
            lo, hi = (lo, mid) if _kernel_tail(mid * mid, N) > 1e-8 else (mid, hi)
        return lo
    return boundary


def _looped_weyl_laguerre(a: complex, N: int) -> np.ndarray:
    """W_a by the normalized Laguerre recurrence of ``operators._weyl_real_laguerre``
    as a plain loop: coefficients formed inside the m-loop, each row unscaled
    as it is produced, and one complex scatter per diagonal with its own
    phase, e^{-i d theta} below the diagonal and (-1)^d e^{i d theta} above."""
    r = abs(a) ** 2
    alpha = np.arange(N + 1)
    log_g0 = 0.5 * alpha * np.log(r) - r / 2.0 - 0.5 * log_factorials(N)
    log_scale = np.minimum(log_g0 + 600.0, 0.0)
    prev, cur = np.zeros(N + 1), np.exp(log_g0 - log_scale)
    g = np.empty((N + 1, N + 1))
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


@pytest.fixture
def looped_weyl_laguerre():
    """Displacement entries by the per-row, per-diagonal loop of the recurrence."""
    return _looped_weyl_laguerre
