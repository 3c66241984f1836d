import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import fockdict.gabor as gabor
from fockdict.errors import ResolutionError
from fockdict.fock import (
    RESOLVED_DEFECT,
    FockVector,
    kernel_rows,
    kernel_truncation_defect,
    kernel_vector,
    lost_mass,
    resolved_radius,
)
from fockdict.gabor import (
    CRITICAL_DENSITY,
    PointSet,
    box_frame_gram,
    box_window_coeffs,
    box_window_fock,
    density_estimate,
    density_frame_predicate,
    frame_bounds_finite,
    kernel_gram,
    lattice_frame_predicate,
    linear_independence_check,
    separation_check,
)
from fockdict.hermite import GAUSS_CONST
from fockdict.operators import weyl_matrix


# ----------------------------------------------------------------------
# Point sets and densities
# ----------------------------------------------------------------------

def test_pointset_rejects_near_duplicates():
    with pytest.raises(ValueError):
        PointSet.from_points([0.0, 1e-12])


def _brute_force_gap(pts) -> float:
    gaps = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(gaps, np.inf)
    return float(gaps.min())


@pytest.mark.parametrize("seed", range(60))
def test_duplicate_gate_rejects_exactly_what_brute_force_rejects(seed):
    # integer grids at spacings around the 1e-9 gate, off the origin so the
    # differences round, with repeated points; non-finite ones mixed in are
    # refused first, and the gate then runs on the finite rest
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    unit = rng.choice([0.3e-9, 0.7e-9, 1e-9, 1.0000001e-9, 2e-9])
    span = int(rng.choice([2, 6, 40]))
    pts = (rng.integers(-span, span + 1, n) + 1j * rng.integers(-span, span + 1, n)) * unit
    pts = pts + rng.choice([0.0, 3.7 - 1.1j, 1e4])
    if seed % 3 == 0:
        pts = np.unique(pts)
    if seed % 4 == 1:
        pts[: n // 5] = rng.choice([np.nan, np.inf, complex(1.0, np.inf)], n // 5)
    if not np.all(np.isfinite(pts)):
        with pytest.raises(ValueError, match="finite"):
            PointSet(pts)
        pts = pts[np.isfinite(pts)]
    rejects = _brute_force_gap(pts) <= 1e-9
    if rejects:
        with pytest.raises(ValueError, match="distinct"):
            PointSet(pts)
    else:
        PointSet(pts)
    assert (gabor._gap_within(pts, 1e-9) <= 1e-9) == rejects


def test_duplicate_gate_on_a_dense_lattice():
    Z = PointSet.rectangular(0.05, 0.05).clip_to_disk(resolved_radius(64))
    assert gabor._gap_within(Z.points, 1e-9) == np.inf
    with pytest.raises(ValueError, match="distinct"):
        PointSet(np.append(Z.points, Z.points[4000] + 0.6e-9j))


def test_lattice_steps_and_radii_must_be_finite():
    for a, b in ((np.inf, 1.0), (1.0, np.nan), (0.0, 1.0), (1e200, 1e200), (1e-200, 1e-200)):
        with pytest.raises(ValueError, match="lattice steps"):
            PointSet.rectangular(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite disk area"):
            density_estimate(PointSet.rectangular(1.0, 1.0), [10.0, 1e300])
        for steps, radius in (((1e-150, 1e-150), 1e150), ((1.0, 1.0), math.inf)):
            with pytest.raises(ValueError, match="search box of inf"):
                PointSet.rectangular(*steps).points_in_disk(0.0, radius)


def test_lattice_density_matches_cell_area():
    Z = PointSet.rectangular(1.0, 1.0)
    rep = density_estimate(Z, [10.0, 20.0, 50.0])
    target = 1.0 / math.pi
    assert abs(rep.lower_extrapolated - target) / target < 0.05
    assert abs(rep.upper_extrapolated - target) / target < 0.05
    assert np.all(rep.lower <= rep.upper)


def test_lattice_density_tightens_with_radius():
    Z = PointSet.rectangular(1.0, 1.0)
    rep = density_estimate(Z, [100.0])
    target = 1.0 / math.pi
    assert abs(rep.lower_extrapolated - target) / target < 0.02
    assert abs(rep.upper_extrapolated - target) / target < 0.02


def test_single_point_density_vanishes():
    Z = PointSet.from_points([0.3 + 0.1j])
    rep = density_estimate(Z, [5.0, 10.0, 30.0])
    assert rep.upper_extrapolated < 1e-3


def test_shifted_union_doubles_density():
    base = PointSet.rectangular(1.0, 1.0)
    pts = base.points_in_disk(0.0, 60.0)
    union = PointSet(np.concatenate([pts, pts + (0.5 + 0.5j)]), clip_radius=58.0)
    rep = density_estimate(union, [50.0])
    target = 2.0 / math.pi
    assert abs(rep.lower_extrapolated - target) / target < 0.05


def test_clipped_set_refuses_oversized_disks():
    Z = PointSet.rectangular(1.0, 1.0).clip_to_disk(5.0)
    with pytest.raises(ValueError):
        Z.points_in_disk(0.0, 10.0)


@pytest.mark.parametrize("radius", [math.nan, -3.0, -math.inf])
def test_disk_queries_refuse_a_nan_or_negative_radius(radius):
    # lattices, finite sets and clipped sets alike, by the radius, not by a box size
    sets = (PointSet.rectangular(1.0, 1.0), PointSet.from_points([0.1, 1j, 2.0 - 1j]),
            PointSet.rectangular(1.0, 1.0).clip_to_disk(5.0))
    for Z in sets:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"disk radius must be >= 0, got {radius}")):
                Z.points_in_disk(0.3 + 0.2j, radius)


def test_lattice_disk_search_box_is_refused_before_it_is_built():
    # the (0.001, 0.001) lattice at radius 30 would search 1.15e9 points (17 GiB)
    Z = PointSet.rectangular(0.001, 0.001)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="search box of 1.15e[+]09 lattice points"):
            Z.points_in_disk(0.0, 30.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(ValueError, match="finite"):
        density_estimate(PointSet.rectangular(1.0, 1.0), [10.0, math.inf])


def test_verify_lattice_stays_far_below_the_search_cap(monkeypatch):
    # g1 counts the unit lattice at radii 20 and 50; a cap 100 times smaller still admits it
    monkeypatch.setattr(gabor, "MAX_LATTICE_BOX", gabor.MAX_LATTICE_BOX // 100)
    rep = density_estimate(PointSet.rectangular(1.0, 1.0), [20.0, 50.0])
    assert abs(rep.upper_extrapolated - CRITICAL_DENSITY) / CRITICAL_DENSITY < 0.05


def test_separation_of_lattices_and_finite_sets():
    sep, gap = separation_check(PointSet.rectangular(1.0, 1.0))
    assert sep and abs(gap - 1.0) < 1e-14
    sep, gap = separation_check(PointSet.from_points([0.0, 1.0, 1.5]))
    assert sep and gap == 0.5


def _gap_sets(rng):
    """Random, horizontal, vertical and diagonal sets, with shuffled grids among them."""
    n = int(rng.integers(2, 300))
    t = rng.uniform(-5.0, 5.0, n)
    if rng.random() < 0.3:  # evenly spaced and shuffled: many equal gaps
        t = rng.permutation(np.arange(n) * rng.choice([0.5, 0.1, 1e-3]) + rng.uniform(-3, 3))
    yield rng.standard_normal(n) + 1j * rng.standard_normal(n)
    yield t + 1j * rng.uniform(-2, 2)
    yield rng.uniform(-2, 2) + 1j * t
    yield t * np.exp(1j * rng.uniform(0.0, np.pi))
    yield t + 1j * rng.uniform(-5.0, 5.0, n) * rng.choice([1e-3, 0.1, 10.0])


def _at_axis_boundary(rng, skew: float):
    """Points in a box whose real spread is exactly (1 + skew) times its imaginary spread."""
    n = int(rng.integers(3, 200))
    x, y = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    x[:2], y[:2] = (0.0, 1.0 + skew), (0.0, 1.0)
    if rng.random() < 0.5:
        x, y = np.round(x * 16) / 16, np.round(y * 16) / 16  # a grid: ties along both axes
        x[:2], y[:2] = (0.0, 1.0 + skew), (0.0, 1.0)
    pts = np.unique(x + 1j * y)
    assert (np.ptp(pts.real) > np.ptp(pts.imag)) == (skew > 0)
    return pts


@pytest.mark.parametrize("seed", range(40))
def test_min_gap_is_the_brute_force_minimum_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    sets = list(_gap_sets(rng))
    sets += [_at_axis_boundary(rng, skew) for skew in (0.0, 2.0**-40, -(2.0**-40), 0.25, -0.25)]
    for pts in sets:
        pts = np.unique(pts)
        if pts.size > 1:
            assert gabor._min_gap(pts) == _brute_force_gap(pts)


def test_min_gap_of_a_long_line_in_either_direction():
    # a shuffled line of 20,000 points at spacing 0.5: one chain across the
    # line, so the scan stops at lag 1 whichever axis the line runs along
    line = np.random.default_rng(3).permutation(np.arange(20_000) * 0.5)
    for pts in (line + 0j, 1j * line, line + 7j, 3.0 - 1j * line):
        assert gabor._min_gap(pts) == 0.5


def test_separation_of_a_clipped_dense_lattice_is_its_step():
    # 14,399 points: past the size the pairwise scan used to accept
    Z = PointSet.rectangular(0.05, 0.05).clip_to_disk(6.0)
    assert len(Z.points) == 14_399
    sep, gap = separation_check(Z)
    row = np.sort(Z.points[Z.points.imag == 0].real)  # the widest row holds every column gap
    assert sep and gap == np.min(np.diff(row))
    assert abs(gap - 0.05) < 1e-15
    assert separation_check(PointSet.rectangular(0.05, 0.05)) == (True, 0.05)
    assert separation_check(PointSet.rectangular(1.0, 0.1)) == (True, np.pi * 0.1)


def test_min_gap_scans_at_the_closer_of_the_two_sorted_neighbour_gaps(monkeypatch):
    # the clipped 0.05 lattice: neighbours sorted by real part are a column
    # step pi * 0.05 apart, sorted by imaginary part a row step 0.05 apart, so
    # the scan runs at the row step, the gap itself, and stops after a few lags
    Z = PointSet.rectangular(0.05, 0.05).clip_to_disk(6.0)
    tols = []
    gap_within = gabor._gap_within
    monkeypatch.setattr(gabor, "_gap_within", lambda pts, tol: tols.append(tol) or gap_within(pts, tol))
    gap = gabor._min_gap(Z.points)
    assert tols == [gap] and abs(gap - 0.05) < 1e-15


def _points_in_generous_box(a, b, center, radius):
    c = np.pi * b
    ns = np.arange(math.floor((center.real - radius) / a) - 3, math.ceil((center.real + radius) / a) + 4)
    ms = np.arange(math.floor((-center.imag - radius) / c) - 3, math.ceil((radius - center.imag) / c) + 4)
    pts = (ns[:, None] * complex(a) + ms[None, :] * complex(0, -c)).ravel()
    return pts[np.abs(pts - center) < radius]


@pytest.mark.parametrize("seed", range(20))
def test_lattice_disk_query_is_the_filter_of_a_generous_box(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        a, b = rng.uniform(0.05, 2.0, 2)
        center = complex(*rng.uniform(-3.0, 3.0, 2))
        radius = float(rng.choice([rng.uniform(0.0, 40.0), rng.uniform(0.0, 1.0)]))
        got = PointSet.rectangular(a, b).points_in_disk(center, radius)
        want = _points_in_generous_box(a, b, center, radius)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_lattice_disk_box_just_under_the_cap_is_searched_and_just_over_is_refused(monkeypatch):
    # steps a = 1 and pi b = R / (k - 1/2): the box about 0 at radius R = 10.5
    # holds 23 x (2k + 1) integer points, 999,971 at k = 21,738 and 1,000,017 at 21,739
    radius = 10.5
    under = PointSet.rectangular(1.0, radius / (21_738 - 0.5) / np.pi)
    over = PointSet.rectangular(1.0, radius / (21_739 - 0.5) / np.pi)
    pts = under.points_in_disk(0.0, radius)
    assert np.array_equal(pts.view(np.int64), _points_in_generous_box(*under.steps, 0j, radius).view(np.int64))
    with pytest.raises(ValueError, match=re.escape("search box of 1e+06 lattice points")):
        over.points_in_disk(0.0, radius)
    monkeypatch.setattr(gabor, "MAX_LATTICE_BOX", 1_000_017)  # the boxes are exactly these sizes
    assert over.points_in_disk(0.0, radius).size > pts.size
    monkeypatch.setattr(gabor, "MAX_LATTICE_BOX", 999_970)
    with pytest.raises(ValueError, match="more than 999,970"):
        under.points_in_disk(0.0, radius)


# ----------------------------------------------------------------------
# Frame bounds on the kernel system
# ----------------------------------------------------------------------

def test_frame_bounds_dense_vs_sparse():
    dense = PointSet.rectangular(0.8, 0.8).clip_to_disk(6.0)
    sparse = PointSet.rectangular(1.1, 1.1).clip_to_disk(6.0)
    A1, B1 = frame_bounds_finite(dense, 80, 10)
    A2, B2 = frame_bounds_finite(sparse, 80, 10)
    assert A1 > 0.1 * B1
    assert (A1 / B1) / (A2 / B2) >= 10.0


def test_frame_bounds_single_point_degenerate():
    A, B = frame_bounds_finite(PointSet.from_points([0.5 + 0.5j]), 40, 4)
    assert A == 0.0
    assert 0.0 < B <= 1.0 + 1e-12


def test_frame_bounds_monotone_under_point_addition():
    Z1 = PointSet.rectangular(0.9, 0.9).clip_to_disk(5.0)
    A1, B1 = frame_bounds_finite(Z1, 60, 6)
    Z2 = PointSet(np.concatenate([Z1.points, [0.31 + 0.21j]]))
    A2, B2 = frame_bounds_finite(Z2, 60, 6)
    assert A2 >= A1 - 1e-12
    assert B2 >= B1 - 1e-12
    assert B1 >= A1 >= 0.0


def test_frame_bounds_resolution_guards():
    far = PointSet.from_points([8.0 + 0.0j])
    with pytest.raises(ResolutionError):
        frame_bounds_finite(far, 40, 4)
    with pytest.raises(ValueError):
        frame_bounds_finite(PointSet.from_points([0.0]), 40, 30)


def test_frame_bounds_accept_resolved_points_past_half_the_degree():
    # |z|^2 = 110 > 200/2, yet k_z loses only 5e-15 of its mass past 200
    z = math.sqrt(110.0)
    assert kernel_truncation_defect(z, 200) < 1e-14
    A, B = frame_bounds_finite(PointSet.from_points([z]), 200, 10)
    assert A == 0.0 and 0.0 <= B <= 1.0


def _boundary_sets(degree):
    # the circle |z| = resolved_radius is where the defect meets the tolerance,
    # so rounding decides there; the lattice crosses it at many angles
    r = resolved_radius(degree)
    theta = np.linspace(0.0, 2.0 * np.pi, 1500, endpoint=False)
    ring = np.concatenate([s * np.exp(1j * theta) for s in (np.nextafter(r, 0.0), r, r * (1 + 1e-9))])
    return ring, PointSet.rectangular(0.3, 0.2).clip_to_disk(1.05 * r).points


@pytest.mark.parametrize("degree", [16, 64, 200])
def test_array_defect_equals_the_scalar_defect_bit_for_bit(degree):
    # the lost mass of the rows the gate builds, against the one-point
    # defect, which clips a rounding below 0 at 0
    for z in _boundary_sets(degree):
        scalar = np.array([kernel_truncation_defect(a, degree) for a in z])
        assert np.array_equal(np.maximum(0.0, lost_mass(kernel_rows(z, degree))), scalar)


@pytest.mark.parametrize("degree", [16, 64, 200])
def test_resolution_gate_decides_as_the_scalar_defect(degree):
    # the gate reads the rows it builds: it must refuse exactly where the
    # scalar defect exceeds the tolerance, naming the first such point
    for z in _boundary_sets(degree):
        lost = np.array([kernel_truncation_defect(a, degree) > RESOLVED_DEFECT for a in z])
        assert 0 < lost.sum() < z.size
        with pytest.raises(ResolutionError, match=re.escape(f"kernel at {z[np.argmax(lost)]} ")):
            gabor._require_resolved(z, degree)
        gabor._require_resolved(z[~lost], degree)


@pytest.mark.parametrize("degree", [16, 64, 200])
def test_frame_bounds_accept_the_lattice_clipped_at_the_resolved_radius(degree):
    Z = PointSet.rectangular(0.3, 0.2).clip_to_disk(resolved_radius(degree))
    A, B = frame_bounds_finite(Z, degree, 4)
    assert 0.0 <= A <= B


def test_frame_bounds_refuse_the_first_unresolved_point():
    r = resolved_radius(64)
    Z = PointSet.rectangular(0.1, 0.1).clip_to_disk(1.02 * r)
    first = next(z for z in Z.points if kernel_truncation_defect(z, 64) > RESOLVED_DEFECT)
    with pytest.raises(ResolutionError, match=re.escape(f"kernel at {first} ")):
        frame_bounds_finite(Z, 64, 8)


@pytest.mark.parametrize("steps, degree, core", [((0.1, 0.1), 64, 8), ((0.3, 0.2), 128, 16)])
def test_frame_bounds_core_block_matches_the_full_operator(steps, degree, core):
    Z = PointSet.rectangular(*steps).clip_to_disk(resolved_radius(degree))
    assert Z.points.size > gabor._POINT_BLOCK
    KV = np.column_stack([kernel_vector(z, degree).coeffs for z in Z.points])
    vals = np.linalg.eigvalsh((KV @ KV.conj().T)[: core + 1, : core + 1])
    A, B = frame_bounds_finite(Z, degree, core)
    assert abs(A - vals[0]) <= 1e-12 * vals[-1] and abs(B - vals[-1]) <= 1e-12 * vals[-1]


def test_frame_bounds_memory_stays_in_point_blocks():
    # the (0.05, 0.05) lattice clips 11,757 points: all kernels at once take 12 MiB
    Z = PointSet.rectangular(0.05, 0.05).clip_to_disk(resolved_radius(64))
    frame_bounds_finite(Z, 64, 8)
    tracemalloc.start()
    try:
        frame_bounds_finite(Z, 64, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_kernel_gram_closed_form():
    pts = np.array([0.2 + 0.1j, -0.5 + 0.4j, 1.0])
    G = kernel_gram(pts, 48)
    for i, zi in enumerate(pts):
        for j, zj in enumerate(pts):
            # G[i, j] = <k_{z_j}, k_{z_i}> = e^{z_i conj(z_j)} e^{-(|z_i|^2+|z_j|^2)/2}
            want = np.exp(zi * np.conj(zj) - (abs(zi) ** 2 + abs(zj) ** 2) / 2.0)
            assert abs(G[i, j] - want) < 1e-12


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------

def test_lattice_predicate_strict_inequality():
    assert lattice_frame_predicate(0.9, 0.9)
    assert not lattice_frame_predicate(1.0, 1.0)
    assert lattice_frame_predicate(2.0, 0.4)


@pytest.mark.parametrize("a, b", [(np.nan, 1.0), (np.inf, 1e-300), (1.0, np.inf), (0.0, 1.0), (1.0, -2.0)])
def test_lattice_predicate_refuses_steps_that_are_not_positive_and_finite(a, b):
    with pytest.raises(ValueError, match="lattice steps must be positive and finite"):
        lattice_frame_predicate(a, b)


def test_density_predicate_verdicts():
    for ab, want in [(0.8, "frame"), (1.0, "undecided"), (1.2, "not-frame")]:
        Z = PointSet.rectangular(ab, ab)
        rep = density_estimate(Z, [30.0, 50.0])
        sep, _ = separation_check(Z)
        assert density_frame_predicate(rep, sep) == want


def test_critical_density_constant():
    assert abs(CRITICAL_DENSITY - 1.0 / math.pi) < 1e-16


# ----------------------------------------------------------------------
# Box window
# ----------------------------------------------------------------------

def test_box_pointwise_value_at_origin():
    want = GAUSS_CONST * math.sqrt(math.pi) / 2.0 * math.erf(1.0)
    assert abs(box_window_fock(0.0) - want) < 1e-10


def test_box_two_paths_agree_pointwise():
    z = 1.0 + 1.0j
    coeff_path = box_window_coeffs(120)(z)
    assert abs(coeff_path - box_window_fock(z)) < 1e-6


def test_box_coefficients_take_little_memory():
    # the closed-form recurrence reads one Hermite table at the two ends
    tracemalloc.start()
    try:
        box_window_coeffs.__wrapped__(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_box_norm_increases_towards_one():
    # the window is discontinuous: its tail decays like n^(-3/4), so the
    # truncated norm climbs to 1 only slowly
    norms = [box_window_coeffs(N).norm() for N in (30, 60, 120)]
    assert all(a < b for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1.0
    assert norms[-1] > 0.98


def test_box_gram_single_element():
    G = box_frame_gram(range(1), range(1), 120)
    assert G.shape == (1, 1)
    assert abs(G[0, 0] - box_window_coeffs(120).norm() ** 2) < 1e-12
    assert abs(G[0, 0] - 1.0) < 0.05  # truncation floor, not an identity test


def test_box_gram_approaches_identity_slowly():
    devs = []
    for N in (60, 120):
        G = box_frame_gram(range(2), range(2), N)
        devs.append(np.max(np.abs(G - np.eye(4))))
    assert devs[1] < devs[0]
    # off-diagonal interference is on the same truncation scale as the
    # diagonal defect, not below it
    G = box_frame_gram(range(2), range(2), 120)
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) < 0.05


def test_box_gram_resolution_guard():
    with pytest.raises(ResolutionError):
        box_frame_gram(range(2), range(2), 20)


# ----------------------------------------------------------------------
# Linear independence probe
# ----------------------------------------------------------------------

def test_independence_two_kernels():
    ok, ratio = linear_independence_check(FockVector.basis(0, 40), [0.0, 1.0], 40)
    assert ok
    # Gram [[1, e^{-1/2}], [e^{-1/2}, 1]]: eigenvalues 1 -+ e^{-1/2}
    want = (1 - math.exp(-0.5)) / (1 + math.exp(-0.5))
    assert abs(ratio - want) < 1e-10


def test_independence_single_point():
    ok, ratio = linear_independence_check(FockVector.basis(0, 20), [0.7j], 20)
    assert ok and ratio == 1.0


def test_independence_rejects_repeats():
    with pytest.raises(ValueError):
        linear_independence_check(FockVector.basis(0, 20), [0.5, 0.5], 20)


def test_independence_point_cap():
    pts = [complex(k, 0) * 0.3 for k in range(13)]
    with pytest.raises(ValueError):
        linear_independence_check(FockVector.basis(0, 20), pts, 20)


def _full_matrix_gram(f, points, degree):
    U = np.column_stack([weyl_matrix(z, degree).apply(f).coeffs for z in points])
    return U.conj().T @ U


def test_box_gram_equals_the_full_matrix_gram():
    pts = [complex(n, -np.pi * m) for m in range(-1, 2) for n in range(-1, 2)]
    want = _full_matrix_gram(box_window_coeffs(48), pts, 48)
    assert np.array_equal(box_frame_gram(range(-1, 2), range(-1, 2), 48), want)


@pytest.mark.parametrize("coeffs, degree", [
    ([1.0], 64), ([0.0, 0.0, 1.0, 0.0, 0.0], 64), ([0.3, -1.0j, 0.2, 0.5 + 0.5j], 32),
    ([0.0], 16), (np.linspace(1.0, 0.1, 40), 24),
])
def test_independence_equals_the_full_matrix_gram(coeffs, degree):
    # the window's own degree decides the columns built: the vacuum, e_2 with
    # trailing zeros, a dense window, the zero window, one past the degree
    f = FockVector(coeffs)
    pts = [0.4 - 0.3j, -0.9 + 0.2j, 0.1 + 1.1j, 1.2 + 0.6j]
    G = _full_matrix_gram(f, pts, degree)
    assert np.array_equal(gabor._displaced_gram(f, pts, degree), G)
    vals = np.linalg.eigvalsh(G)
    smin, smax = max(vals[0], 0.0), vals[-1]
    want = (smin > 1e-10 * smax, smin / smax) if smax else (False, 0.0)
    assert linear_independence_check(f, pts, degree) == want


def test_box_frame_gram_refuses_a_non_finite_point_before_building_it():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ResolutionError, match=re.escape("kernel at (inf-0j) ")):
            box_frame_gram([0], [math.inf], 20)


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(1.0, -math.inf)])
def test_non_finite_points_are_refused(bad):
    with pytest.raises(ValueError, match="finite"):
        PointSet.from_points([bad, 1.0])
    with pytest.raises(ValueError):  # a ResolutionError is a ValueError too
        frame_bounds_finite(PointSet.from_points([bad, 1.0]), 40, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError):
            linear_independence_check(FockVector.basis(0, 20), [0.0, bad], 20)
        with pytest.raises(ValueError, match="finite"):
            kernel_gram([bad, 1.0], 20)


def test_independence_refuses_unresolved_displacements():
    # k_7 at degree 16 keeps almost none of its mass: the truncated Gram would
    # report a ratio of 4e-8 for a pair whose true ratio is 1 - 5e-11
    with pytest.raises(ResolutionError):
        linear_independence_check(FockVector.basis(0, 16), [0.0, 7.0], 16)
