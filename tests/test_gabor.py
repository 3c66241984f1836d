import math
import tracemalloc

import numpy as np
import pytest

import fockdict.gabor as gabor
from fockdict.errors import ResolutionError
from fockdict.fock import FockVector, kernel_truncation_defect, kernel_vector
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


# ----------------------------------------------------------------------
# Point sets and densities
# ----------------------------------------------------------------------

def test_pointset_rejects_near_duplicates():
    with pytest.raises(ValueError):
        PointSet.from_points([0.0, 1e-12])


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


def test_independence_refuses_unresolved_displacements():
    # k_7 at degree 16 keeps almost none of its mass: the truncated Gram would
    # report a ratio of 4e-8 for a pair whose true ratio is 1 - 5e-11
    with pytest.raises(ResolutionError):
        linear_independence_check(FockVector.basis(0, 16), [0.0, 7.0], 16)
