import math

import numpy as np
import pytest
from numpy.linalg import matrix_power

from fockdict.hermite import gauss_hermite_plane
from fockdict.operators import a1_matrix, a2_matrix, md_matrices
from fockdict.quantize import (
    PhasePolynomial,
    PolySymbol,
    anti_wick_matrix,
    anti_wick_toeplitz_residual,
    heat_symbol,
    toeplitz_monomial_matrix,
    toeplitz_poly_matrix,
    weyl_quantize_poly,
    weyl_toeplitz_residual,
)
from fockdict.singular import s_phi_matrix, symbol_from_taylor


# ----------------------------------------------------------------------
# Toeplitz matrices
# ----------------------------------------------------------------------

def test_toeplitz_constant_is_identity():
    T = toeplitz_monomial_matrix(0, 0, 10)
    assert np.array_equal(T.entries, np.eye(11, dtype=complex))


def test_toeplitz_modulus_squared_diagonal():
    T = toeplitz_monomial_matrix(1, 1, 10)
    assert np.allclose(np.diag(T.entries), np.arange(1, 12))
    assert np.max(np.abs(T.entries - np.diag(np.diag(T.entries)))) == 0.0


def test_toeplitz_antiholomorphic_is_differentiation():
    T = toeplitz_monomial_matrix(1, 0, 10)
    _, D = md_matrices(10)
    assert np.max(np.abs(T.entries - D.entries)) < 1e-14


def _dense_toeplitz_reference(phi, N):
    # one dense matrix per monomial, c times each summed in term order, with
    # the entry sqrt((j+1)...(n+j) * (k+1)...(n+j)) of the exact integer
    # product, shifted right by an even count past 1000 bits
    out = np.zeros((N + 1, N + 1), dtype=np.complex128)
    for (m, n), c in phi.coeffs.items():
        T = np.zeros((N + 1, N + 1), dtype=np.complex128)
        for j in range(N + 1):
            k = n + j - m
            if 0 <= k <= N:
                P = math.prod(range(j + 1, n + j + 1)) * math.prod(range(k + 1, n + j + 1))
                e = max(0, P.bit_length() - 1000) & ~1
                T[k, j] = math.ldexp(math.sqrt(P >> e), e // 2)
        out += c * T
    return out


def _random_symbols(count):
    # up to four terms of powers <= 4; coefficients with signed-zero parts
    # among them, so that a sign of zero the builder gets wrong shows
    rng = np.random.default_rng(440)
    specials = [complex(-0.0, 1.0), complex(-1.0, -0.0), complex(0.0, -0.5), complex(2.0, 0.0)]
    symbols = []
    for _ in range(count):
        terms = {}
        for _ in range(int(rng.integers(1, 5))):
            m, n = (int(p) for p in rng.integers(0, 5, size=2))
            terms[(m, n)] = (specials[int(rng.integers(len(specials)))] if rng.random() < 0.3
                             else complex(*rng.standard_normal(2)))
        symbols.append(PolySymbol(terms))
    return symbols


_MONOMIALS = [(m, n) for m in range(5) for n in range(5)]
_TOEPLITZ_SYMBOLS = [PolySymbol({mn: 1.0}) for mn in _MONOMIALS] + _random_symbols(20)


@pytest.mark.parametrize("N", [0, 1, 2, 3, 8, 16, 64, 300])
def test_toeplitz_builder_is_bit_identical_to_the_dense_sum(N):
    # the one-diagonal-per-term builder against the per-monomial dense sum,
    # as int64 views, so that signed zeros count; anti-Wick matrices and the
    # monomial entry point included
    same = lambda got, want: np.array_equal(got.entries.view(np.int64), want.view(np.int64))
    for sym in _TOEPLITZ_SYMBOLS:
        if sym.degree <= N:
            assert same(toeplitz_poly_matrix(sym, N), _dense_toeplitz_reference(sym, N)), (sym.coeffs, N)
            assert same(anti_wick_matrix(sym, N), _dense_toeplitz_reference(sym.swapped(), N)), (sym.coeffs, N)
    for m, n in _MONOMIALS:
        if m + n <= N:
            assert same(toeplitz_monomial_matrix(m, n, N), _dense_toeplitz_reference(PolySymbol({(m, n): 1.0}), N))


@pytest.mark.parametrize("build, text", [
    (lambda: toeplitz_monomial_matrix(-1, 2, 8), "powers must be non-negative"),
    (lambda: toeplitz_monomial_matrix(2, -1, 8), "powers must be non-negative"),
    (lambda: toeplitz_poly_matrix(PolySymbol({(-1, 2): 1.0}), 8), "powers must be non-negative"),
    (lambda: toeplitz_monomial_matrix(3, 3, 5), "monomial degree exceeds the matrix degree"),
    (lambda: toeplitz_poly_matrix(PolySymbol({(0, 0): 1.0, (3, 3): 1j}), 5),
     "monomial degree exceeds the matrix degree"),
], ids=["monomial-negative-m", "monomial-negative-n", "poly-negative", "monomial-too-high", "poly-too-high"])
def test_toeplitz_refusals_keep_their_text(build, text):
    with pytest.raises(ValueError, match=text):
        build()


def test_gaussian_moment_identity():
    # int z^p conj(z)^q dlambda = delta_pq p!, checked by plane quadrature
    plane = gauss_hermite_plane(64)
    for p in range(7):
        for q in range(7):
            got = np.sum(plane.weights * plane.nodes**p * np.conj(plane.nodes) ** q)
            want = math.factorial(p) if p == q else 0.0
            assert abs(got - want) < 1e-10


def test_heat_moment_identity():
    # (2/pi) int v^p conj(v)^q e^{-2|v|^2} dA = delta_pq p! / 2^p
    plane = gauss_hermite_plane(64)
    v = plane.nodes / math.sqrt(2.0)
    for p in range(5):
        for q in range(5):
            got = np.sum(plane.weights * v**p * np.conj(v) ** q)
            want = math.factorial(p) / 2**p if p == q else 0.0
            assert abs(got - want) < 1e-12


def test_poly_symbol_is_the_direct_sum():
    terms = {(1, 1): 2.0, (0, 3): 1 - 1j, (2, 0): 0.5j, (0, 0): -0.25}
    zs = np.array([0.0, 1.0, -0.7 + 0.2j, 1.3j, 2.0 - 1.5j])
    got = PolySymbol(terms)(zs)
    for z, val in zip(zs, got):
        want = sum(c * z**n * z.conjugate() ** m for (m, n), c in terms.items())
        assert abs(val - want) <= 1e-15 * max(1.0, abs(want)), z
    assert PolySymbol(terms)(zs[2]) == got[2]


def test_real_symbol_gives_hermitian_matrix():
    sym = PolySymbol({(1, 1): 2.0, (0, 1): 1 - 1j, (1, 0): 1 + 1j, (0, 2): 0.5j, (2, 0): -0.5j})
    T = toeplitz_poly_matrix(sym, 16).entries
    assert np.max(np.abs(T - T.conj().T)) == 0.0


# ----------------------------------------------------------------------
# Anti-Wick calculus
# ----------------------------------------------------------------------

def test_anti_wick_constant():
    A = anti_wick_matrix(PolySymbol({(0, 0): 1.0}), 8)
    assert np.array_equal(A.entries, np.eye(9, dtype=complex))


def test_anti_wick_number_symbol():
    # sigma = z conj(z) gives diag(j + 1) in every entry; the truncated product
    # D M would lose the (N, N) corner
    A = anti_wick_matrix(PolySymbol({(1, 1): 1.0}), 32)
    assert np.array_equal(A.entries, np.diag(np.arange(1.0, 34.0)).astype(complex))


def test_anti_wick_ordering_pinned_by_holomorphic_square():
    # sigma = z^2 quantizes to D^2, the Toeplitz matrix of conj(z)^2
    A = anti_wick_matrix(PolySymbol({(0, 2): 1.0}), 12)
    T = toeplitz_monomial_matrix(2, 0, 12)
    b = 9
    assert np.max(np.abs(A.entries[:b, :b] - T.entries[:b, :b])) < 1e-12


@pytest.mark.parametrize("m,n", [(m, n) for m in range(5) for n in range(5 - m)])
def test_anti_wick_toeplitz_equality_low_monomials(m, n):
    assert anti_wick_toeplitz_residual(PolySymbol({(m, n): 1.0}), 16) < 1e-12


def test_anti_wick_degree_guard():
    # only the product-form check needs degree <= N/2; the quantization itself does not
    with pytest.raises(ValueError):
        anti_wick_toeplitz_residual(PolySymbol({(3, 3): 1.0}), 8)
    A = anti_wick_matrix(PolySymbol({(3, 3): 1.0}), 8)
    assert np.array_equal(A.entries, toeplitz_monomial_matrix(3, 3, 8).entries)


# ----------------------------------------------------------------------
# Heat transform and the symmetric calculus
# ----------------------------------------------------------------------

def test_heat_of_constant():
    out = heat_symbol(PolySymbol({(0, 0): 1.0}))
    assert out.coeffs == {(0, 0): 1.0}


def test_heat_adds_half_to_modulus_squared():
    out = heat_symbol(PolySymbol({(1, 1): 1.0}))
    assert out.coeffs == {(1, 1): 1.0 + 0j, (0, 0): 0.5 + 0j}


def test_heat_of_holomorphic_monomial_has_no_corrections():
    # rotational symmetry kills every cross moment; only the conjugated
    # image of the monomial survives
    out = heat_symbol(PolySymbol({(0, 3): 1.0}))
    assert out.coeffs == {(3, 0): 1.0 + 0j}


def test_phase_polynomial_expansion():
    # z conj(z) = x^2 + zeta^2
    ph = PhasePolynomial.from_poly_symbol(PolySymbol({(1, 1): 1.0}))
    assert set(ph.coeffs) == {(2, 0), (0, 2)}
    assert abs(ph.coeffs[(2, 0)] - 1.0) < 1e-15
    assert abs(ph.coeffs[(0, 2)] - 1.0) < 1e-15


def test_weyl_quantize_position():
    X = weyl_quantize_poly(PhasePolynomial({(1, 0): 1.0}), 8)
    assert np.array_equal(X.entries, a1_matrix(8).entries)


def test_weyl_quantize_frequency_is_scaled_derivative():
    D = weyl_quantize_poly(PhasePolynomial({(0, 1): 1.0}), 8)
    # pure imaginary tridiagonal, self-adjoint
    assert np.max(np.abs(D.entries - D.entries.conj().T)) < 1e-15


def test_position_and_frequency_matrices_against_quadrature():
    from fockdict.hermite import gauss_hermite, hermite_functions

    rule = gauss_hermite(96)
    x = rule.nodes
    fw = rule.weights
    basis = hermite_functions(8, x)
    X = weyl_quantize_poly(PhasePolynomial({(1, 0): 1.0}), 8).entries
    Dl = weyl_quantize_poly(PhasePolynomial({(0, 1): 1.0}), 8).entries
    h = 1e-6
    basis_p = hermite_functions(8, x + h)
    basis_m = hermite_functions(8, x - h)
    deriv = (basis_p - basis_m) / (2 * h)
    for n in range(6):
        for m in range(6):
            want_x = np.sum(fw * x * basis[n] * basis[m])
            assert abs(X[m, n] - want_x) < 1e-10
            want_d = np.sum(fw * deriv[n] * basis[m]) / 2j
            assert abs(Dl[m, n] - want_d) < 1e-7


def test_weyl_quantize_oscillator_diagonal():
    # x^2 + zeta^2 quantizes to the oscillator diag(n + 1/2) in every entry
    Q = weyl_quantize_poly(PhasePolynomial({(2, 0): 1.0, (0, 2): 1.0}), 10)
    assert np.array_equal(Q.entries, np.diag(np.arange(11) + 0.5).astype(complex))
    Q = weyl_quantize_poly(PhasePolynomial({(2, 0): 1.0, (0, 2): 1.0, (0, 0): 0.5}), 10)
    assert np.array_equal(Q.entries, np.diag(np.arange(1.0, 12.0)).astype(complex))


@pytest.mark.parametrize("i,k", [(i, d - i) for d in range(7) for i in range(d + 1)])
def test_weyl_quantize_matches_mccoy_ordering(i, k):
    # Weyl(x^i zeta^k) = 2^-i sum_j C(i, j) X^j Z^k X^(i-j) (McCoy 1932); the
    # truncated band products are exact on the block N + 1 - (i + k)
    N = 40
    X = a1_matrix(N).entries
    Z = a2_matrix(N).entries / 2j
    mccoy = sum(
        math.comb(i, j) * (matrix_power(X, j) @ matrix_power(Z, k) @ matrix_power(X, i - j))
        for j in range(i + 1)
    ) / 2**i
    W = weyl_quantize_poly(PhasePolynomial({(i, k): 1.0}), N).entries
    b = N + 1 - (i + k)
    assert np.max(np.abs(W - mccoy)[:b, :b]) <= 1e-14 * np.max(np.abs(mccoy[:b, :b]))


def _dense_anti_wick_residual(sigma, N):
    # the product form from dense truncated matrices
    M, D = (A.entries for A in md_matrices(N))
    products = sum(c * (matrix_power(D, n) @ matrix_power(M, m)) for (m, n), c in sigma.coeffs.items())
    b = N + 1 - sigma.degree
    return float(np.max(np.abs(products - anti_wick_matrix(sigma, N).entries)[:b, :b]))


def _dense_weyl_residual(phi, N):
    # McCoy's ordering from dense truncated matrices
    X = a1_matrix(N).entries
    Z = a2_matrix(N).entries / 2j
    mccoy = sum(
        c * 0.5**i * math.comb(i, j) * (matrix_power(X, j) @ matrix_power(Z, k) @ matrix_power(X, i - j))
        for (i, k), c in PhasePolynomial.from_poly_symbol(heat_symbol(phi)).coeffs.items()
        for j in range(i + 1)
    )
    b = N + 1 - phi.degree
    return float(np.max(np.abs(toeplitz_poly_matrix(phi, N).entries - mccoy)[:b, :b]))


@pytest.mark.parametrize("N", [8, 40])
def test_calculus_residuals_match_their_dense_forms(N):
    # the words applied by index shifts give the dense products' residuals up
    # to rounding: both sit within a few ulp of the largest matrix entry
    rng = np.random.default_rng(N)
    symbols = [PolySymbol({(m, n): complex(*rng.standard_normal(2)) for m in range(3) for n in range(3 - m)}),
               PolySymbol({(1, 1): 1.0}), PolySymbol({(0, 2): 1.0, (2, 0): -0.5j}), PolySymbol({(1, 0): 1j})]
    for sym in symbols:
        scale = np.max(np.abs(anti_wick_matrix(sym, N).entries))
        for got, want in ((anti_wick_toeplitz_residual(sym, N), _dense_anti_wick_residual(sym, N)),
                          (weyl_toeplitz_residual(sym, N), _dense_weyl_residual(sym, N))):
            assert got <= 16 * np.spacing(scale)
            assert abs(got - want) <= 16 * np.spacing(scale)


def test_weyl_quantize_real_symbol_is_hermitian():
    sigma = PhasePolynomial({(4, 0): 1.0, (2, 1): 0.5, (1, 3): -2.0, (0, 4): 1.5, (1, 1): 0.3, (0, 0): -1.0})
    Q = weyl_quantize_poly(sigma, 24).entries
    assert np.max(np.abs(Q - Q.conj().T)) <= 1e-14 * np.max(np.abs(Q))


@pytest.mark.parametrize(
    "sym",
    [
        PolySymbol({(0, 0): 1.0}),
        PolySymbol({(1, 1): 1.0}),
        PolySymbol({(0, 1): 1.0, (1, 0): 1.0}),
        PolySymbol({(0, 2): 1.0}),
        PolySymbol({(2, 0): 0.5 - 0.5j}),
        PolySymbol({(1, 0): 1j}),
        PolySymbol({(1, 1): 2.0, (0, 0): -1.0}),
        PolySymbol({(2, 1): 1.0}),
        PolySymbol({(1, 2): 0.5j, (2, 2): 1.0, (0, 3): -1.0}),
    ],
)
def test_weyl_heat_chain_closes(sym):
    assert weyl_toeplitz_residual(sym, 16) < 1e-8


def test_weyl_of_heat_symbol_is_toeplitz_in_every_entry():
    # the inverse heat map undoes heat_symbol exactly on polynomials, so the
    # round trip through phase space returns T_phi, truncation corner included
    rng = np.random.default_rng(7)
    for _ in range(20):
        terms = {(int(m), int(n)): complex(*rng.standard_normal(2))
                 for m, n in rng.integers(0, 4, size=(4, 2))}
        phi = PolySymbol(terms)
        T = toeplitz_poly_matrix(phi, 20).entries
        W = weyl_quantize_poly(PhasePolynomial.from_poly_symbol(heat_symbol(phi)), 20).entries
        assert np.max(np.abs(W - T)) <= 1e-12 * np.max(np.abs(T))



# ----------------------------------------------------------------------
# One operator from two modules
# ----------------------------------------------------------------------

def _weyl_symbol_of_s_phi(phi) -> PhasePolynomial:
    """sigma(x, zeta) = Psi(-2i zeta) with Psi(g) = E phi(g + X), X standard
    normal: Psi(g) = sum_k phi_k sum_{j even} C(k, j) (j-1)!! g^{k-j}."""
    coeffs: dict[tuple[int, int], complex] = {}
    for k, c in enumerate(phi):
        for j in range(0, k + 1, 2):
            m = k - j
            moment = math.comb(k, j) * math.prod(range(j - 1, 0, -2))
            coeffs[(0, m)] = coeffs.get((0, m), 0.0) + c * moment * (-2j) ** m
    return PhasePolynomial(coeffs)


_RNG = np.random.default_rng(6)


@pytest.mark.parametrize("phi", [[0, 1], [0, 0, 1], [0, 0, 0, 1],
                                 _RNG.standard_normal(7) + 1j * _RNG.standard_normal(7)],
                         ids=["u", "u^2", "u^3", "random-degree-6"])
def test_s_phi_of_a_polynomial_is_the_weyl_quantization_of_its_zeta_symbol(phi):
    # singular.s_phi_matrix (exact rational recurrence) and
    # quantize.weyl_quantize_poly (Toeplitz of the inverse heat transform)
    # build the same operator on e_0..e_40
    S = s_phi_matrix(symbol_from_taylor(phi), 40).entries
    W = weyl_quantize_poly(_weyl_symbol_of_s_phi(phi), 40).entries
    assert np.max(np.abs(S - W)) <= 1e-14 * np.max(np.abs(S))
