"""Truncated vectors in the Fock space of entire functions.

The space carries the Gaussian probability measure dlambda = exp(-|z|^2)/pi dA
and the orthonormal monomial basis  e_n(z) = z^n / sqrt(n!).  A ``FockVector``
stores the coefficients c_0..c_N of an entire function against that basis, so
norms and inner products are plain l2 quantities and evaluation is a weighted
power series.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# exp(|z|^2 / 2) must stay inside double range during evaluation
_EVAL_HALF_MOD_SQ_LIMIT = 700.0

RESOLVED_DEFECT = 1e-8  # W_a is resolved at degree N while k_a loses at most this past N


def _as_coeff_array(coeffs) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coefficients must be a non-empty 1-d sequence")
    out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class FockVector:
    """Coefficients c_0..c_N of an entire function against e_n(z) = z^n/sqrt(n!)."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeff_array(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def pad(self, degree: int) -> "FockVector":
        """Zero-pad (or truncate) to the given degree."""
        n = degree + 1
        c = np.zeros(n, dtype=np.complex128)
        m = min(n, len(self.coeffs))
        c[:m] = self.coeffs[:m]
        return FockVector(c)

    def __call__(self, z):
        return evaluate(self, z)

    @classmethod
    def basis(cls, n: int, degree: int) -> "FockVector":
        c = np.zeros(degree + 1, dtype=np.complex128)
        c[n] = 1.0
        return cls(c)


def inner(f: FockVector, g: FockVector) -> complex:
    """Fock-space inner product, linear in the first slot.

    Vectors of unequal degree are implicitly zero-padded.
    """
    m = min(len(f.coeffs), len(g.coeffs))
    return complex(np.vdot(g.coeffs[:m], f.coeffs[:m]))


def evaluate(f: FockVector, z):
    """Evaluate sum c_n z^n/sqrt(n!) at one point or an array of points.

    Horner's rule in the normalized basis, acc <- acc * z / sqrt(n+1) + c_n
    for n = N-1 down to 0, in two buffers reused across degrees: no factorial
    is formed, no temporary is allocated per degree, and each point's value
    depends on that point alone.  Raises OverflowError when exp(|z|^2/2)
    would leave double range, since values of that size are meaningless in
    the weighted space.
    """
    scalar = np.isscalar(z) or getattr(z, "ndim", 0) == 0
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if np.any(np.abs(zs) ** 2 / 2.0 > _EVAL_HALF_MOD_SQ_LIMIT):
        raise OverflowError("|z|^2/2 exceeds the floating exponent range")
    inv_root = 1.0 / np.sqrt(np.arange(1, len(f.coeffs)))
    c = f.coeffs
    acc = np.full(zs.shape, c[-1])
    prod = np.empty_like(acc)
    for n in range(len(c) - 2, -1, -1):  # acc * z * inv_root + c, in two fixed buffers
        # the product goes to its own buffer: numpy rounds an in-place
        # complex product on one element differently (no fused multiply-add)
        np.multiply(acc, zs, out=prod)
        np.multiply(prod, inv_root[n], out=acc)
        acc += c[n]
    return complex(acc[0]) if scalar else acc


def log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n, by a running sum of logs (any prefix is bit-stable)."""
    return np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1)))])


def exp_quadratic_coeffs(alpha, beta, degree: int, c0=1.0) -> np.ndarray:
    """Coefficients u_0..u_N of c0 exp(alpha z^2 + beta z) against e_n.

    u_n = t_n sqrt(n!) for Taylor coefficients t_n, by the normalized recurrence
    sqrt(n+1) u_{n+1} = beta u_n + 2 alpha sqrt(n) u_{n-1}: no factorial is
    formed, so u_n stays finite for |alpha| < 1/2 at any degree.  An array
    ``beta`` gives one column per entry, shape (N+1,) + beta.shape.
    """
    root = np.sqrt(np.arange(degree + 1))
    u = np.zeros((degree + 1,) + np.shape(beta), dtype=np.complex128)
    u[0] = c0
    if degree >= 1:
        u[1] = beta * c0
    for n in range(1, degree):
        u[n + 1] = (beta * u[n] + 2.0 * alpha * root[n] * u[n - 1]) / root[n + 1]
    return u


def kernel_vector(a: complex, degree: int, normalized: bool = True) -> FockVector:
    """Truncated reproducing kernel K(., a), optionally normalized to k_a.

    Coefficients are conj(a)^n / sqrt(n!) as a running product, times
    exp(-|a|^2/2) when normalized; the normalized vector has unit norm up
    to the tail of the exponential series beyond the truncation degree.
    """
    return FockVector(kernel_rows(complex(a), degree, normalized)[0])


def kernel_rows(points, degree: int, normalized: bool = True) -> np.ndarray:
    """The kernels of ``kernel_vector``, one row per point, shape (points, degree+1).

    Each row is built by the same operations as a single kernel, so it
    equals ``kernel_vector(a, degree, normalized).coeffs`` bit for bit.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    a = np.asarray(points, dtype=np.complex128).ravel()
    rows = np.ones((a.size, degree + 1), dtype=np.complex128)
    rows[:, 1:] = np.cumprod(np.conj(a)[:, None] / np.sqrt(np.arange(1, degree + 1)), axis=1)
    if normalized:
        # |a|^2 as abs(complex(a)) ** 2 rounds it: C hypot, then C pow (np.abs
        # and np.square round about one modulus in a thousand differently)
        rows *= np.exp(-np.float_power(np.hypot(a.real, a.imag), 2.0) / 2.0)[:, None]
    return rows


def lost_mass(rows) -> np.ndarray:
    """1 - (sum re^2 + sum im^2) along the last axis: the unit mass each row lacks."""
    return 1.0 - (np.sum(rows.real**2, axis=-1) + np.sum(rows.imag**2, axis=-1))


def kernel_truncation_defect(a, degree: int):
    """The mass k_a loses past the degree: ``lost_mass`` of its row, clipped at 0.

    One point gives a float, an array of points an array of that shape equal
    to the point-by-point values bit for bit.  A NaN or infinite point reads
    1.0 and its row is never built; a row past double range reads NaN.
    """
    z = np.asarray(a, dtype=np.complex128)
    finite = np.isfinite(z)
    out = np.ones(z.shape)
    out[finite] = np.maximum(0.0, lost_mass(kernel_rows(z[finite], degree)))
    return float(out) if z.ndim == 0 else out


def resolved_radius(degree: int) -> float:
    """Largest |a| whose kernel loses at most RESOLVED_DEFECT past the degree."""
    lo, hi = 0.0, float(np.sqrt(degree + 1))  # the defect grows with |a|, to ~1/2 at the top
    for _ in range(60):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if kernel_truncation_defect(mid, degree) <= RESOLVED_DEFECT else (lo, mid)
    return lo
