"""Truncated vectors in the Fock space of entire functions.

The space carries the Gaussian probability measure dlambda = exp(-|z|^2)/pi dA
and the orthonormal monomial basis  e_n(z) = z^n / sqrt(n!).  A ``FockVector``
stores the coefficients c_0..c_N of an entire function against that basis, so
norms and inner products are plain l2 quantities and evaluation is a weighted
power series.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

# exp(|z|^2 / 2) must stay inside double range during evaluation
_EVAL_HALF_MOD_SQ_LIMIT = 700.0

RESOLVED_DEFECT = 1e-8  # W_a is resolved at degree N while k_a loses at most this past N


def _as_coeff_array(coeffs) -> np.ndarray:
    arr = np.array(coeffs, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coefficients must be a non-empty 1-d sequence")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FockVector:
    """Coefficients c_0..c_N of an entire function against e_n(z) = z^n/sqrt(n!)."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeff_array(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def reach(self) -> int:
        """Index of the last nonzero coefficient; 0 for the zero vector."""
        return int(np.max(np.flatnonzero(self.coeffs), initial=0))

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


def point_values(vals: np.ndarray, shape: tuple):
    """Values at flattened points, in the points' shape: a complex for a single point."""
    vals = vals.reshape(shape)
    return complex(vals) if shape == () else vals


def evaluate(f: FockVector, z):
    """Evaluate sum c_n z^n/sqrt(n!) at one point or an array of points.

    Horner's rule in the normalized basis, acc <- acc * z / sqrt(n+1) + c_n
    for n = N-1 down to 0, in two buffers reused across degrees: no factorial
    is formed, no temporary is allocated per degree, and each point's value
    depends on that point alone.  Raises OverflowError when exp(|z|^2/2)
    would leave double range, since values of that size are meaningless in
    the weighted space.
    """
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
    return point_values(acc, np.shape(z))


def log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n, by a running sum of logs (any prefix is bit-stable)."""
    return np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1)))])


def exp_quadratic_coeffs(alpha, beta, degree: int, c0=1.0) -> np.ndarray:
    """Coefficients u_0..u_N of c0 exp(alpha z^2 + beta z) against e_n.

    u_n = t_n sqrt(n!) for Taylor coefficients t_n, by the normalized recurrence
    sqrt(n+1) u_{n+1} = beta u_n + 2 alpha sqrt(n) u_{n-1}: no factorial is
    formed, so u_n stays finite for |alpha| < 1/2 at any degree.  The loop
    runs over Python numbers, so every argument is a scalar (an array of
    several entries raises ValueError).  Each step multiplies by 1/sqrt(n+1),
    which is what numpy's division of a complex by a real does, so the
    coefficients equal those of dividing in numpy (a zero's sign may differ).
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    alpha, beta, c0 = (np.asarray(x).item() for x in (alpha, beta, c0))
    root = np.sqrt(np.arange(degree + 1))
    two_alpha_root = (2.0 * alpha * root).tolist()
    inv_root = (1.0 / root[1:]).tolist()  # inv_root[n] = 1/sqrt(n+1)
    u = np.empty(degree + 1, dtype=np.complex128)
    u[0] = c0
    if degree >= 1:
        prev, cur = c0, beta * c0
        rows = [cur]
        for n in range(1, degree):
            prev, cur = cur, (beta * cur + two_alpha_root[n] * prev) * inv_root[n]
            rows.append(cur)
        u[1:] = rows
    return u


def kernel_vector(a: complex, degree: int) -> FockVector:
    """Truncated normalized reproducing kernel k_a = exp(-|a|^2/2) K(., a).

    Coefficients are conj(a)^n / sqrt(n!) as a running product, times
    exp(-|a|^2/2); the vector has unit norm up to the tail of the
    exponential series beyond the truncation degree.  Past |a| of about
    1.34e154 every coefficient underflows and the vector is zero.
    """
    return FockVector(kernel_rows(complex(a), degree)[0])


def kernel_rows(points, degree: int) -> np.ndarray:
    """The kernels of ``kernel_vector``, one row per point, shape (points, degree+1).

    Each row is built by the same operations as a single kernel, so it
    equals ``kernel_vector(a, degree).coeffs`` bit for bit.
    Past |a|^2 of about 1400 the running product overflows while
    exp(-|a|^2/2) underflows; a row of a finite point that comes out
    non-finite is rebuilt in log scale instead, as
    exp(n log|a| - log(n!)/2 - |a|^2/2 + i n arg(conj a)), whose entries
    carry a relative error of about 1e-11 at degree 2000 (the running
    product's are n machine epsilons).  Past |a| of about 1.34e154, where
    |a|^2 is past double range, the row is all zeros, its true value in
    doubles.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    a = np.asarray(points, dtype=np.complex128).ravel()
    rows = np.ones((a.size, degree + 1), dtype=np.complex128)
    # |a|^2 as abs(complex(a)) ** 2 rounds it: C hypot, then C pow (np.abs
    # and np.square round about one modulus in a thousand differently)
    mod = np.hypot(a.real, a.imag)
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are rebuilt below
        sq = np.float_power(mod, 2.0)  # inf past |a| of about 1.34e154, where the row underflows to 0
        rows[:, 1:] = np.cumprod(np.conj(a)[:, None] / np.sqrt(np.arange(1, degree + 1)), axis=1)
        rows *= np.exp(-sq / 2.0)[:, None]
    far = np.isfinite(a) & ~np.all(np.isfinite(rows), axis=1)
    if far.any():
        n = np.arange(degree + 1)
        log_mod = n * np.log(mod[far, None]) - log_factorials(degree) / 2.0 - sq[far, None] / 2.0
        rows[far] = np.exp(log_mod + 1j * n * np.angle(np.conj(a[far]))[:, None])
    return rows


def lost_mass(rows) -> np.ndarray:
    """1 - (sum re^2 + sum im^2) along the last axis: the unit mass each row lacks."""
    return 1.0 - (np.sum(rows.real**2, axis=-1) + np.sum(rows.imag**2, axis=-1))


def kernel_truncation_defect(a, degree: int) -> float:
    """The mass k_a loses past the degree: ``lost_mass`` of its row, clipped at 0.

    ``a`` is one point; an array raises.  A NaN or infinite point reads 1.0
    and its row is never built; a finite point whose row underflows to
    zeros (|a| past about 1.34e154) reads 1.0 too.
    """
    a = complex(a)
    if not cmath.isfinite(a):
        return 1.0
    return max(0.0, float(lost_mass(kernel_rows(a, degree))[0]))


def resolved_radius(degree: int) -> float:
    """Largest |a| whose kernel loses at most RESOLVED_DEFECT past the degree."""
    lo, hi = 0.0, float(np.sqrt(degree + 1))  # the defect grows with |a|, to ~1/2 at the top
    for _ in range(60):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if kernel_truncation_defect(mid, degree) <= RESOLVED_DEFECT else (lo, mid)
    return lo
