"""Gabor frames through the Fock-space lens.

Time-frequency shifts (a, b) on the line correspond to displacement points
z = a - pi b i in the plane, so a rectangular time-frequency lattice with
steps (a, b) becomes the plane lattice a Z x (-pi b i) Z with cell area
pi a b.  Frames of displaced kernels, Beurling densities, the ab < 1
lattice criterion, the box-window orthonormal system, and finite linear
independence checks all live here.  A point z whose kernel loses more than
``fock.RESOLVED_DEFECT`` past the degree is refused (ResolutionError)
everywhere but in ``kernel_gram``, the closed-form check, which refuses
only NaN and infinite points (ValueError).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ResolutionError
from .fock import RESOLVED_DEFECT, FockVector, kernel_rows, lost_mass, point_values
from .hermite import GAUSS_CONST, composite_legendre, project_line_interval
from .bargmann import bargmann_coeff
from .operators import weyl_matrix

CRITICAL_DENSITY = 1.0 / np.pi

# integer points a lattice disk query may search (16 MiB of complex points);
# the `verify gabor` lattice (1, 1) at radius 50 needs 3,333 (3,468 off 0)
MAX_LATTICE_BOX = 1_000_000

# points per kernel block of the frame operator and its resolution gate: a
# block holds _POINT_BLOCK x (degree + 1) kernel coefficients
_POINT_BLOCK = 512


@dataclass(frozen=True, eq=False)
class PointSet:
    """Distinct points in the plane, or the lattice a Z - i pi b Z stored as its steps (a, b).

    A lattice produces its points on demand inside any disk, which removes
    edge effects from density counts; ``clip_radius`` marks sets that were
    clipped out of a larger region, so disk queries beyond the clip are
    refused rather than silently undercounted.
    """

    points: np.ndarray
    steps: tuple[float, float] | None = None
    clip_radius: float | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128).copy()
        if pts.ndim != 1:
            raise ValueError("points must be a 1-d sequence")
        _require_finite(pts)
        if len(pts) > 1:
            gap = _gap_within(pts, 1e-9)
            if gap <= 1e-9:
                raise ValueError(f"points must be distinct (min gap {gap:.2e})")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_points(cls, seq) -> "PointSet":
        return cls(np.asarray(list(seq), dtype=np.complex128))

    @classmethod
    def rectangular(cls, a: float, b: float) -> "PointSet":
        """Time-frequency lattice with steps (a, b): points n a - i m pi b.

        The steps must be positive and finite, and so must the cell area
        pi a b that every density is measured against.
        """
        if not (a > 0 and b > 0 and 0.0 < np.pi * a * b < np.inf):
            raise ValueError(f"lattice steps must be positive and finite with a positive "
                             f"finite cell area pi*a*b, got {a:g},{b:g}")
        return cls(np.empty(0, dtype=np.complex128), steps=(float(a), float(b)))

    @property
    def is_lattice(self) -> bool:
        return self.steps is not None

    def points_in_disk(self, center: complex, radius: float) -> np.ndarray:
        """The points z with |z - center| < radius; ValueError for a NaN or negative radius."""
        if not radius >= 0:
            raise ValueError(f"disk radius must be >= 0, got {radius}")
        if self.is_lattice:
            return _lattice_points_in_disk(*self.steps, complex(center), radius)
        if self.clip_radius is not None and abs(complex(center)) + radius > self.clip_radius:
            raise ValueError("disk query exceeds the clipped region")
        mask = np.abs(self.points - complex(center)) < radius
        return self.points[mask]

    def clip_to_disk(self, radius: float) -> "PointSet":
        """The points of the disk of this radius about 0, clipped there."""
        pts = self.points_in_disk(0.0, radius)
        return PointSet(pts, clip_radius=float(radius))


def _require_finite(pts: np.ndarray) -> np.ndarray:
    """The points, or ValueError naming the first NaN or infinite one."""
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"points must be finite, got {pts[~np.isfinite(pts)][0]}")
    return pts


def _gap_within(pts: np.ndarray, tol: float) -> float:
    """Smallest distance among pairs within tol along both axes; inf if none.

    A pair at distance <= tol is within tol along the real axis, so it sits
    in one chain of the real-sorted points whose consecutive real gaps are
    all <= tol; sorted by imaginary part inside its chain, it is also within
    tol there.  Lag d compares each point with the d-th next one of its
    chain, and a pair that is not within tol in imaginary part at lag d is
    not at lag d + 1 either, so only the pairs left over are carried on and
    the scan stops at the first empty lag (lag 1 on a lattice).  Points wider
    than tall are turned by i first (no distance changes), so a horizontal
    line is not one chain whose every pair is a candidate.
    """
    if np.ptp(pts.real) > np.ptp(pts.imag):
        pts = pts * 1j
    p = pts[np.argsort(pts.real, kind="stable")]
    chain = np.cumsum(np.diff(p.real, prepend=p.real[:1]) > tol)
    order = np.lexsort((p.imag, chain))
    p, chain = p[order], chain[order]
    best, i = np.inf, np.arange(p.size)
    for d in range(1, p.size):
        i = i[i + d < p.size]
        i = i[(chain[i + d] == chain[i]) & (p.imag[i + d] - p.imag[i] <= tol)]
        if i.size == 0:
            break
        best = min(best, float(np.min(np.abs(p[i + d] - p[i]))))
    return float(best)


def _min_gap(pts: np.ndarray) -> float:
    """Minimum pairwise distance of two or more points: ``_gap_within`` at tol the
    smallest distance between neighbours sorted by real part and by imaginary
    part, each a real pair's, so the closest pair is within tol along both axes."""
    tol = min(np.min(np.abs(np.diff(np.sort(q)))) for q in (pts, pts * 1j))
    return _gap_within(pts, float(tol))


def _lattice_points_in_disk(a: float, b: float, center: complex, radius: float) -> np.ndarray:
    """Points n a - i m pi b with |z - center| < radius; the index box is read off the steps."""
    c = np.pi * b
    x0, y0 = center.real, center.imag
    lo = np.floor([(x0 - radius) / a, -(y0 + radius) / c])
    hi = np.ceil([(x0 + radius) / a, (radius - y0) / c])
    with np.errstate(over="ignore"):  # an overflowing box is inf, refused below
        box = float(np.prod(hi - lo + 1))
    if not box <= MAX_LATTICE_BOX:  # also refuses a NaN box
        raise ValueError(f"lattice disk of radius {radius:g} needs a search box of {box:.3g} "
                         f"lattice points, more than {MAX_LATTICE_BOX:,}")
    (n_lo, m_lo), (n_hi, m_hi) = lo.astype(int), hi.astype(int)
    ns = np.arange(n_lo, n_hi + 1)
    ms = np.arange(m_lo, m_hi + 1)
    pts = (ns[:, None] * complex(a) + ms[None, :] * complex(0, -c)).ravel()
    return pts[np.abs(pts - center) < radius]


@dataclass(frozen=True)
class DensityReport:
    """Disk-count density estimates across radii, with endpoint extrapolation."""

    radii: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    lower_extrapolated: float
    upper_extrapolated: float


def disk_radii(radii: Sequence[float]) -> np.ndarray:
    """The radii sorted, or ValueError unless each is positive with a finite disk area pi R^2."""
    radii = np.asarray(sorted(radii), dtype=np.float64)
    with np.errstate(over="ignore"):
        if not np.all((radii > 0) & np.isfinite(np.pi * radii**2)):
            raise ValueError("radii must be positive and finite, with a finite disk area pi*R^2")
    return radii


def density_estimate(Z: PointSet, radii: Sequence[float]) -> DensityReport:
    """Beurling density estimates: inf/sup over centers of count / (pi R^2).

    For lattices the centers are a 6 x 6 grid over one fundamental cell
    (counts are periodic in the center), for finite sets the origin alone;
    the extrapolated values are the estimates at the largest radius.
    """
    radii = disk_radii(radii)
    if Z.is_lattice:
        a, b = Z.steps
        frac = (np.arange(6) + 0.5) / 6.0
        center_grid = [u * complex(a) + v * complex(0, -np.pi * b) for u in frac for v in frac]
    else:
        center_grid = [0.0 + 0.0j]
    lower = np.empty(len(radii))
    upper = np.empty(len(radii))
    for i, R in enumerate(radii):
        counts = [len(Z.points_in_disk(c, R)) for c in center_grid]
        area = np.pi * R**2
        lower[i] = min(counts) / area
        upper[i] = max(counts) / area
    return DensityReport(radii, lower, upper, float(lower[-1]), float(upper[-1]))


def separation_check(Z: PointSet) -> tuple[bool, float]:
    """Minimum pairwise gap and a separation verdict (threshold 1e-9).

    A lattice of steps (a, b) has the gap min(a, pi b); a finite set of any
    size gets ``_min_gap``.  Finite sets are trivially unions of separated
    subsequences, so no decomposition is attempted.
    """
    if Z.is_lattice:
        gap = min(Z.steps[0], np.pi * Z.steps[1])
    elif len(Z.points) < 2:
        return True, float("inf")
    else:
        gap = _min_gap(Z.points)
    return gap > 1e-9, float(gap)


def _resolved_kernels(points, degree: int):
    """Kernel rows of the points, _POINT_BLOCK at a time, or ResolutionError.

    The error names the first point whose k_z (so W_z) loses more than
    RESOLVED_DEFECT past the degree by ``lost_mass`` of its row, equal to
    ``kernel_truncation_defect``; a block's rows stop before a non-finite z.
    """
    pts = np.asarray(points, dtype=np.complex128).ravel()
    for start in range(0, pts.size, _POINT_BLOCK):
        z = pts[start : start + _POINT_BLOCK]
        stop = int(np.argmin(np.append(np.isfinite(z), False)))  # first non-finite, else z.size
        rows = kernel_rows(z[:stop], degree)
        lost = np.append(~(lost_mass(rows) <= RESOLVED_DEFECT), stop < z.size)
        if lost.any():
            raise ResolutionError(f"kernel at {z[np.argmax(lost)]} loses more than "
                                  f"{RESOLVED_DEFECT:.0e} past degree {degree}")
        yield rows


def _require_resolved(points, degree: int):
    """The points, or ResolutionError if some k_z (so W_z) is not resolved at the degree."""
    for _ in _resolved_kernels(points, degree):
        pass
    return points


def frame_bounds_finite(
    Z: PointSet, degree: int, core_degree: int
) -> tuple[float, float]:
    """Extreme Rayleigh quotients of the kernel frame operator on a core block.

    S = sum_n k_{z_n} (x) k_{z_n}^* restricted to span{e_0..e_core}; the
    restriction keeps the estimates away from the spurious zero modes a
    finite window of an infinite frame creates.  Only that block is formed,
    as the sum over point blocks of K_core^T conj(K_core), where K_core holds
    the leading core + 1 coefficients of each truncated kernel.
    """
    if Z.is_lattice:
        raise ValueError("frame_bounds_finite needs a finite point set (clip first)")
    if not 1 <= core_degree <= degree // 2:
        raise ValueError(f"core_degree must be in 1..degree/2, got {core_degree}")
    core = np.zeros((core_degree + 1, core_degree + 1), dtype=np.complex128)
    for rows in _resolved_kernels(Z.points, degree):
        head = rows[:, : core_degree + 1]
        core += head.T @ head.conj()
    vals = np.linalg.eigvalsh(core)
    return float(max(vals[0], 0.0)), float(vals[-1])


def lattice_frame_predicate(a: float, b: float) -> bool:
    """The Gaussian-window lattice criterion: frame iff a b < 1 (strict).

    ValueError unless both steps are positive and finite.
    """
    if not (0.0 < a < np.inf and 0.0 < b < np.inf):
        raise ValueError(f"lattice steps must be positive and finite, got {a:g},{b:g}")
    return a * b < 1.0


def density_frame_predicate(report: DensityReport, separated: bool) -> str:
    """Numerical proxy for the density criterion: lower density vs 1/pi.

    Returns "frame", "not-frame", or "undecided" when the estimate lands
    within 10% of the critical density; the criterion itself is asymptotic,
    so near-critical configurations are undecidable at any finite radius.
    Requires the report to reach radius 30.
    """
    if report.radii[-1] < 30.0:
        raise ValueError("density report must reach radius >= 30")
    lo = report.lower_extrapolated
    if separated and lo > CRITICAL_DENSITY * 1.1:
        return "frame"
    if lo < CRITICAL_DENSITY * 0.9:
        return "not-frame"
    return "undecided"


# ----------------------------------------------------------------------
# Box window
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _box_rule():
    return composite_legendre(0.0, 1.0, 8)


def box_window_fock(z):
    """Transform of the box window chi_[0,1) evaluated pointwise.

    Equals c e^{z^2/2} int_0^1 e^{-(x-z)^2} dx; the integrand is entire so a
    composite Legendre rule on [0, 1] is valid for complex z.
    """
    zs = np.asarray(z, dtype=np.complex128).ravel()
    rule = _box_rule()
    x = rule.nodes
    vals = np.exp(-((x[None, :] - zs[:, None]) ** 2)) @ rule.weights
    out = GAUSS_CONST * np.exp(zs**2 / 2.0) * vals
    return point_values(out, np.shape(z))


@lru_cache(maxsize=8)
def box_window_coeffs(degree: int) -> FockVector:
    """Coefficients of the box-window transform: projections int_0^1 h_n dx.

    The coefficient tail decays only like n^{-3/4} (the window is
    discontinuous), so the truncated norm approaches 1 slowly; callers that
    need tight Gram identities must budget for that.
    """
    return bargmann_coeff(project_line_interval(lambda x: np.ones_like(x), degree, (0.0, 1.0)))


def _displaced_gram(f: FockVector, points, degree: int) -> np.ndarray:
    """Gram matrix of the displaced copies W_z f, z in points (resolved only).

    Each W_z is built on the columns f reaches, up to its last nonzero
    coefficient: one column (the kernel k_z) for the vacuum.
    """
    U = np.column_stack([weyl_matrix(z, degree, min(f.reach, degree)).apply(f).coeffs
                         for z in _require_resolved(points, degree)])
    return U.conj().T @ U


def box_frame_gram(m_range, n_range, degree: int) -> np.ndarray:
    """Gram matrix of displaced box transforms W_{n - m pi i}(box window).

    The line-side system is orthonormal, so the Gram approaches the identity
    as the degree grows (at the slow rate the box tail allows).
    """
    pts = [complex(n, -np.pi * m) for m in m_range for n in n_range]
    return _displaced_gram(box_window_coeffs(degree), pts, degree)


def linear_independence_check(
    f: FockVector, points, degree: int
) -> tuple[bool, float]:
    """Finite linear-independence probe for displaced copies of f.

    Builds the Gram matrix of {W_{z_k} f}; reports the smallest-to-largest
    eigenvalue ratio as numerical evidence, with independence declared above
    1e-10.  Evidence only: no claim beyond the tested configuration.
    """
    pts = PointSet.from_points(points).points  # enforces distinctness
    if len(pts) > 12:
        raise ValueError("independence check limited to 12 points")
    vals = np.linalg.eigvalsh(_displaced_gram(f, pts, degree))
    smin, smax = float(max(vals[0], 0.0)), float(vals[-1])
    if smax == 0.0:
        return False, 0.0
    return smin > 1e-10 * smax, smin / smax


def kernel_gram(points, degree: int) -> np.ndarray:
    """Gram of truncated normalized kernels; closed form e^{conj(zm) zn - (|zm|^2+|zn|^2)/2}."""
    rows = kernel_rows(_require_finite(np.asarray(list(points), dtype=np.complex128)), degree)
    return rows.conj() @ rows.T
