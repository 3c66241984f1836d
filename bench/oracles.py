"""Independent reference values for the benchmark's correctness checks.

Nothing here calls fockdict.  Each oracle uses a formula other than the one
the library evaluates (Laguerre polynomials in 60-digit mpmath for the
displacement operators, exact integer Hermite moments for the Hilbert
matrix, closed forms for Gaussian packets), so a check can fail when the
library loses digits instead of agreeing with itself.
"""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np

WEYL_DPS = 60
HILBERT_DPS = 50


def weyl_entry(a: complex, p: int, n: int) -> complex:
    """<W_a e_n, e_p> = e^{-r/2} sqrt(n!/p!) conj(a)^{p-n} L_n^{(p-n)}(r), r = |a|^2.

    Cahill & Glauber, Phys. Rev. 177, 1857 (1969).  Above the diagonal
    (p < n) the roles swap and the power is (-a)^{n-p}.  Evaluated with
    mpmath.laguerre at 60 digits.
    """
    with mp.workdps(WEYL_DPS):
        am = mp.mpc(complex(a).real, complex(a).imag)
        r = abs(am) ** 2
        lo, hi = min(p, n), max(p, n)
        power = mp.conj(am) ** (hi - lo) if p >= n else (-am) ** (hi - lo)
        val = (mp.exp(-r / 2) * mp.sqrt(mp.factorial(lo) / mp.factorial(hi))
               * power * mp.laguerre(lo, hi - lo, r))
        return complex(val)


def weyl_matrix(a: complex, degree: int) -> np.ndarray:
    """All <W_a e_n, e_p> for p, n <= degree, in 60-digit arithmetic.

    Same closed form as ``weyl_entry``.  On each diagonal alpha = |p - n| the
    modulus e^{-r/2} |a|^alpha sqrt(n!/(n+alpha)!) L_n^{(alpha)}(r) comes from
    the three-term recurrence in n at 60 digits, far below double rounding
    and about 25x faster than one mpmath.laguerre call per entry.  The unit
    phase e^{-i alpha arg a} (times (-1)^alpha above the diagonal) is also
    formed at 60 digits and rounded once.
    """
    N = degree
    a = complex(a)
    out = np.zeros((N + 1, N + 1), dtype=np.complex128)
    with mp.workdps(WEYL_DPS):
        r = mp.mpf(a.real) ** 2 + mp.mpf(a.imag) ** 2
        unit = mp.conj(mp.mpc(a.real, a.imag)) / mp.sqrt(r) if r else mp.mpc(1)
        roots = [mp.sqrt(k) for k in range(2 * N + 2)]
        scale = mp.exp(-r / 2)  # e^{-r/2} |a|^alpha / sqrt(alpha!), updated per alpha
        turn = mp.mpc(1)  # e^{-i alpha arg a}, updated per alpha
        for alpha in range(N + 1):
            if alpha:
                scale = scale * mp.sqrt(r) / roots[alpha]
                turn = turn * unit
            prev, cur, norm = mp.mpf(0), mp.mpf(1), scale
            mods = np.empty(N + 1 - alpha)
            for n in range(N + 1 - alpha):
                if n:
                    prev, cur = cur, ((2 * n - 1 + alpha - r) * cur - (n - 1 + alpha) * prev) / n
                    norm = norm * roots[n] / roots[n + alpha]
                mods[n] = float(norm * cur)
            idx = np.arange(N + 1 - alpha)
            phase = complex(turn)
            out[idx + alpha, idx] = mods * phase
            out[idx, idx + alpha] = mods * (-1) ** alpha * phase.conjugate()
    return out


def weyl_depth(r: float, degree: int) -> float:
    """Series cancellation depth of the displacement matrix at index (N, N).

    log10 of the largest term of e^{-r/2} sum_k C(N,k) (-r)^k / k! over the
    modulus of the sum e^{-r/2} L_N(r): the number of decimal digits a
    floating-point summation of that series loses.
    """
    N = degree
    with mp.workdps(WEYL_DPS):
        rm = mp.mpf(r)
        biggest = max(mp.binomial(N, k) * rm**k / mp.factorial(k) for k in range(N + 1))
        return float(mp.log10(biggest / abs(mp.laguerre(N, 0, rm))))


def exp_linear_s_phi(a: float, degree: int) -> np.ndarray:
    """Matrix of S_phi for phi(u) = exp(u a), a real: e^{a^2/2} W_a."""
    a = float(a)
    return math.exp(a * a / 2.0) * weyl_matrix(a, degree)


def _hermite_integer_coeffs(n_max: int) -> list[list[int]]:
    """Integer coefficients of the physicists' Hermite polynomials H_0..H_{n_max}."""
    polys = [[1], [0, 2]]
    for n in range(1, n_max):
        nxt = [0] * (n + 2)
        for k, c in enumerate(polys[n]):
            nxt[k + 1] += 2 * c
        for k, c in enumerate(polys[n - 1]):
            nxt[k] -= 2 * n * c
        polys.append(nxt)
    return polys[: n_max + 1]


def hilbert_rows(degree: int, rows) -> dict[int, np.ndarray]:
    """Rows p of the Fock-side Hilbert matrix, T[p, q] for q = 0..degree.

    T[p, q] = -i i^{q-p} 2 int_0^inf h_p h_q dx for p + q odd, else 0.  With
    y = sqrt(2) x the integral is a sum of integer Hermite coefficients times
    the half-line moments int_0^inf y^{2m+1} e^{-y^2} dy = m!/2, so

        T[p, q] = -i i^{q-p} J_pq / sqrt(pi 2^{p+q} p! q!),
        J_pq = sum_m [H_p H_q]_{2m+1} m!,

    is exact up to one final rounding at 50 digits.
    """
    N = degree
    H = _hermite_integer_coeffs(N)
    half_moment = [math.factorial((k - 1) // 2) if k % 2 else 0 for k in range(2 * N + 2)]
    out = {}
    with mp.workdps(HILBERT_DPS):
        for p in rows:
            # v[j] = sum_i [H_p]_i m(i + j), so that J_pq = sum_j [H_q]_j v[j]
            v = [sum(c * half_moment[i + j] for i, c in enumerate(H[p]) if c) for j in range(N + 1)]
            row = np.zeros(N + 1, dtype=np.complex128)
            for q in range(N + 1):
                if (p + q) % 2 == 0:
                    continue
                J = sum(c * v[j] for j, c in enumerate(H[q]) if c)
                scale = mp.sqrt(mp.pi * mp.mpf(2) ** (p + q) * mp.factorial(p) * mp.factorial(q))
                mag = float(mp.mpf(J) / scale)
                row[q] = -1j * (1j ** ((q - p) % 4)) * mag
            out[p] = row
    return out


def box_window_coeffs(degree: int) -> np.ndarray:
    """b_n = int_0^1 h_n dx, from integer Hermite coefficients and the moments
    M_k = int_0^1 x^k e^{-x^2} dx, M_k = (k-1)/2 M_{k-2} - e^{-1}/2, at 120 digits
    (the recurrence and the coefficient sum each lose about 50)."""
    H = _hermite_integer_coeffs(degree)
    with mp.workdps(120):
        moments = [mp.sqrt(mp.pi) / 2 * mp.erf(1), (1 - mp.exp(-1)) / 2]
        for k in range(2, degree + 1):
            moments.append((k - 1) * moments[k - 2] / 2 - mp.exp(-1) / 2)
        const = (2 / mp.pi) ** mp.mpf(0.25)
        return np.array([float(const / mp.sqrt(mp.mpf(2) ** n * mp.factorial(n))
                               * sum(c * mp.sqrt(2) ** k * moments[k] for k, c in enumerate(H[n]) if c))
                         for n in range(degree + 1)], dtype=np.complex128)


# ----------------------------------------------------------------------
# Gaussian wave packets f(x) = e^{2 pi i b x} h_0(x - a)
# ----------------------------------------------------------------------

def packet_center(a: float, b: float) -> complex:
    """Plane point c = a - pi b i of the packet's displacement."""
    return complex(a, -math.pi * b)


def packet_coeffs(a: float, b: float, degree: int) -> np.ndarray:
    """Fock coefficients e^{i pi a b} conj(c)^n / sqrt(n!) e^{-|c|^2/2}."""
    c = packet_center(a, b)
    n = np.arange(degree + 1)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    mod = np.exp(n * math.log(abs(c)) - 0.5 * log_fact - abs(c) ** 2 / 2.0)
    return np.exp(1j * math.pi * a * b) * mod * np.exp(-1j * n * np.angle(c))


def packet_bargmann(a: float, b: float, z) -> np.ndarray:
    """Bf(z) = e^{i pi a b} e^{z conj(c) - |c|^2/2}."""
    c = packet_center(a, b)
    z = np.asarray(z, dtype=np.complex128)
    return np.exp(1j * math.pi * a * b + z * c.conjugate() - abs(c) ** 2 / 2.0)


def polar_grid(radius: float, step: float) -> np.ndarray:
    """The polar grid fock_sup_norm documents: rings k*step, each with
    max(16, ceil(2 pi r / step)) equally spaced angles, plus the origin."""
    pts = [np.zeros(1, dtype=np.complex128)]
    for r in np.arange(0.0, radius + step / 2.0, step)[1:]:
        n_theta = max(16, int(math.ceil(2.0 * math.pi * r / step)))
        pts.append(r * np.exp(2j * math.pi * np.arange(n_theta) / n_theta))
    return np.concatenate(pts)


def packet_sup_norm(a: float, b: float, radius: float, step: float) -> float:
    """max over the polar grid of |Bf(z)| e^{-|z|^2/2} = e^{-|z - c|^2/2}."""
    grid = polar_grid(radius, step)
    return float(np.max(np.exp(-np.abs(grid - packet_center(a, b)) ** 2 / 2.0)))


# ----------------------------------------------------------------------
# Dilation, uncertainty extremals, Toeplitz matrices, kernel Grams
# ----------------------------------------------------------------------

def dilated_gaussian_coeffs(r: float, degree: int) -> np.ndarray:
    """Fock coefficients of D_r h_0, D_r g(x) = sqrt(r) g(r x).

    sqrt(2r/(1+r^2)) g^k sqrt((2k)!)/k! at index 2k, g = (1-r^2)/(2(1+r^2)).
    """
    g = (1.0 - r * r) / (2.0 * (1.0 + r * r))
    out = np.zeros(degree + 1, dtype=np.complex128)
    for k in range(degree // 2 + 1):
        out[2 * k] = (math.sqrt(2 * r / (1 + r * r)) * g**k
                      * math.exp(0.5 * math.lgamma(2 * k + 1.0) - math.lgamma(k + 1.0)))
    return out


def extremal_norm_sq(C: complex, alpha: float, beta: complex) -> float:
    """||C exp(alpha z^2 + beta z)||^2 in the Fock space, for real |alpha| < 1/2.

    With z = x + iy the Gaussian integral factorizes:
    |C|^2 exp(Re(beta)^2/(1-2 alpha) + Im(beta)^2/(1+2 alpha)) / sqrt(1 - 4 alpha^2).
    The uncertainty product attains equality on this family, so both sides
    of the product must equal this norm.
    """
    return abs(C) ** 2 * math.exp(beta.real**2 / (1 - 2 * alpha) + beta.imag**2 / (1 + 2 * alpha)) / math.sqrt(
        1 - 4 * alpha * alpha)


def toeplitz_matrix(terms: dict[tuple[int, int], complex], degree: int) -> np.ndarray:
    """Toeplitz matrix of phi = sum c_mn conj(z)^m z^n from Gaussian moments:
    <T e_j, e_k> = c_mn (n+j)! / sqrt(j! k!) with k = j + n - m."""
    N = degree
    out = np.zeros((N + 1, N + 1), dtype=np.complex128)
    for (m, n), c in terms.items():
        for j in range(N + 1):
            k = j + n - m
            if 0 <= k <= N:
                log_entry = math.lgamma(n + j + 1.0) - 0.5 * (math.lgamma(j + 1.0) + math.lgamma(k + 1.0))
                out[k, j] += c * math.exp(log_entry)
    return out


def kernel_gram(points) -> np.ndarray:
    """Gram U^H U of the normalized kernels k_z (the columns of U), with
    entries e^{z_m conj(z_n) - (|z_m|^2 + |z_n|^2)/2}."""
    z = np.asarray(points, dtype=np.complex128)
    return np.exp(z[:, None] * np.conj(z)[None, :] - (np.abs(z)[:, None] ** 2 + np.abs(z)[None, :] ** 2) / 2.0)
