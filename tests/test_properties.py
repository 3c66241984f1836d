"""Property tests of exact structure over drawn degrees, vectors and displacements.

Derandomized with no example database, so every run draws the same examples.
"""
import cmath

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockdict.fock import FockVector
from fockdict.operators import (
    _weyl_float_digit_loss,
    fourier_fock,
    md_matrices,
    weyl_interior_block,
    weyl_matrix,
)
from fockdict.singular import hilbert_fock_matrix
from fockdict.uncertainty import uncertainty_product

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=15)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@PROFILE
@given(st.integers(min_value=1, max_value=64))
def test_commutator_is_identity_below_corner(N):
    M, D = md_matrices(N)
    C = D.entries @ M.entries - M.entries @ D.entries
    assert np.max(np.abs(C[:N, :N] - np.eye(N))) <= 1e-13 * N


@PROFILE
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=40))
def test_fourier_fourth_power_is_identity(pairs):
    f = FockVector(np.array([complex(x, y) for x, y in pairs]))
    g = f
    for _ in range(4):
        g = fourier_fock(g)
    assert np.array_equal(g.coeffs, f.coeffs)
    assert np.array_equal(fourier_fock(fourier_fock(f), inverse=True).coeffs, f.coeffs)


@PROFILE
@given(st.integers(min_value=1, max_value=48))
def test_hilbert_skew_adjoint_with_exact_parity_zeros(N):
    T = hilbert_fock_matrix(N).entries
    assert np.array_equal(T + T.conj().T, np.zeros_like(T))
    p, n = np.indices(T.shape)
    assert np.all(T[(p + n) % 2 == 0] == 0)


@settings(PROFILE, max_examples=8)
@given(st.integers(min_value=100, max_value=160),
       st.floats(min_value=1.0, max_value=8.0),
       st.floats(min_value=-np.pi, max_value=np.pi))
def test_weyl_composition_cancels_where_recurrence_is_chosen(N, r, phi):
    # on the block whose columns keep their mass, wherever that block is
    # not empty
    a = cmath.rect(np.sqrt(r), phi)
    assume(_weyl_float_digit_loss(abs(a) ** 2, N) > 10.0)
    W, Wm = weyl_matrix(a, N), weyl_matrix(-a, N)
    blk = weyl_interior_block(W, Wm)
    assume(blk > 0)
    P = W.entries @ Wm.entries
    assert np.max(np.abs(P[:blk, :blk] - np.eye(blk))) <= 1e-10


@PROFILE
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=65), finite, finite)
def test_uncertainty_product_inequality(pairs, a, b):
    f = FockVector(np.array([complex(x, y) for x, y in pairs]))
    lhs, rhs = uncertainty_product(f, a, b)
    assert lhs >= rhs * (1.0 - 1e-12)
