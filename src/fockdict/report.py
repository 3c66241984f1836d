"""Batch verification suites with machine-readable reports.

Each suite runs the residual checks of one module family at a configured
degree and emits a self-describing report: the config echo makes a report
re-runnable, cases are sorted by id, and identical config + seed produces a
byte-identical document.  Random inputs come from the standard library's
``random.Random(seed)``.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from . import bargmann as bg
from . import gabor as gb
from . import hermite as hm
from . import operators as op
from . import quantize as qz
from . import singular as sg
from . import uncertainty as uc
from .fock import FockVector, exp_quadratic_coeffs, kernel_vector


def _integer_at_least(value, least: int, source: str) -> int:
    """``value`` (an int or its decimal text) as an integer >= ``least``, else ValueError."""
    if not str(value).strip().isdecimal() or int(value) < least:
        raise ValueError(f"{source} must be an integer >= {least}, got {value!r}")
    return int(value)


def truncation_degree(value, source: str = "degree") -> int:
    """``value`` (an int or its decimal text) as a truncation degree: an integer >= 1."""
    return _integer_at_least(value, 1, source)


def seed_value(value) -> int:
    """``value`` (an int or its decimal text) as a suite seed: an integer >= 0."""
    return _integer_at_least(value, 0, "seed")


def default_degree() -> int:
    """Truncation degree when none is given: FOCKDICT_DEGREE, else 64."""
    return truncation_degree(os.environ.get("FOCKDICT_DEGREE", "64"), "FOCKDICT_DEGREE")


@dataclass(frozen=True)
class SuiteConfig:
    degree: int | None = None  # None means default_degree()
    seed: int = 0

    def resolved(self) -> "SuiteConfig":
        deg = default_degree() if self.degree is None else truncation_degree(self.degree)
        return SuiteConfig(deg, seed_value(self.seed))


@dataclass(frozen=True)
class CaseResult:
    id: str
    ref: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "ref": self.ref,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
        }


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    config: SuiteConfig
    cases: tuple[CaseResult, ...] = field(default_factory=tuple)  # in id order, as run_suite sorts them

    @property
    def passed(self) -> bool:
        return bool(all(c.passed for c in self.cases))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config": {"degree": self.config.degree, "seed": self.config.seed},
            "cases": [c.to_dict() for c in self.cases],
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


# ----------------------------------------------------------------------
# case implementations (each returns (residual, tolerance))
# ----------------------------------------------------------------------

def _normals(rng: random.Random, count: int) -> np.ndarray:
    """``count`` standard normal draws."""
    return np.array([rng.gauss(0.0, 1.0) for _ in range(count)])


def _case_bargmann(cfg: SuiteConfig) -> list[CaseResult]:
    # b1 and b4 do not depend on the degree: the 64-node line under the plane rule
    rule, plane = hm.gauss_hermite(64), hm.gauss_hermite_plane(64)
    rng = random.Random(cfg.seed)
    zs = (_normals(rng, 10) + 1j * _normals(rng, 10)) * 0.9
    worst = 0.0
    for n in range(7):
        vals = bg.bargmann_quadrature(lambda x: hm.hermite_function(n, x), zs, rule)
        worst = max(worst, float(np.max(np.abs(vals - FockVector.basis(n, n)(zs)))))
    out = [CaseResult("b1-hermite-to-monomial", "transform of basis functions", worst, 1e-7)]

    c = _normals(rng, cfg.degree + 1) + 1j * _normals(rng, cfg.degree + 1)
    lv = hm.LineVector(c)
    out.append(
        CaseResult(
            "b2-coefficient-isometry",
            "norm preservation of the coefficient path",
            abs(bg.bargmann_coeff(lv).norm() - lv.norm()),
            1e-12,
        )
    )

    xg = np.linspace(-2.0, 2.0, 9)
    inv = bg.inverse_bargmann_quadrature(FockVector.basis(2, 8), xg, plane)
    out.append(
        CaseResult(
            "b3-inverse-integral",
            "inverse integral reproduces basis functions",
            float(np.max(np.abs(inv - hm.hermite_functions(2, xg)[2]))),
            1e-6,
        )
    )

    lhs, rhs = bg.verify_pbound(lambda x: np.ones_like(x), rule, grid_radius=6.0)
    out.append(
        CaseResult(
            "b4-sup-norm-bound",
            "weighted sup bound with equality for constants",
            abs(lhs / rhs - 1.0),
            0.02,
        )
    )
    return out


def _case_fourier(cfg: SuiteConfig) -> list[CaseResult]:
    rng = random.Random(cfg.seed)
    f = FockVector(_normals(rng, cfg.degree + 1) + 1j * _normals(rng, cfg.degree + 1))
    n = np.arange(cfg.degree + 1)
    diag = np.max(np.abs(op.fourier_fock(f).coeffs - (1j**(n % 4)) * f.coeffs))
    out = [CaseResult("f1-diagonal", "transform is diagonal with fourth-root phases", float(diag), 1e-15)]

    g = f
    for _ in range(4):
        g = op.fourier_fock(g)
    out.append(CaseResult("f2-fourth-power", "fourth power is the identity",
                          float(np.max(np.abs(g.coeffs - f.coeffs))), 1e-15))

    rec = (
        op.spectral_projection(0, f).coeffs
        + 1j * op.spectral_projection(1, f).coeffs
        - op.spectral_projection(2, f).coeffs
        - 1j * op.spectral_projection(3, f).coeffs
    )
    out.append(CaseResult("f3-spectral-recombination", "projection recombination equals the transform",
                          float(np.max(np.abs(rec - op.fourier_fock(f).coeffs))), 1e-15))

    rule = hm.gauss_hermite(64)
    xs = np.linspace(-4.0, 4.0, 33)
    vals = op.fourier_line_quadrature(lambda t: hm.hermite_function(2, t), xs, rule)
    out.append(CaseResult("f4-line-transport", "line-side eigenrelation for index 2",
                          float(np.max(np.abs(vals + hm.hermite_functions(2, xs)[2]))), 1e-6))

    out.append(CaseResult("f5-quarter-rotation", "quarter rotation equals the transform",
                          float(np.max(np.abs(op.rotation(np.pi / 2, f).coeffs - op.fourier_fock(f).coeffs))), 1e-12))
    out.append(CaseResult("f6-rotation-isometry", "rotations preserve the norm",
                          abs(op.rotation(0.7, f).norm() - f.norm()), 1e-12))
    return out


def _case_weyl(cfg: SuiteConfig) -> list[CaseResult]:
    N = cfg.degree
    a = 0.5 + 0.0j
    out = [CaseResult("w1-zero-displacement", "zero displacement is the identity",
                      float(np.max(np.abs(op.weyl_matrix(0.0, 16).entries - np.eye(17)))), 1e-15)]

    W = op.weyl_matrix(a, N)
    out.append(CaseResult("w2-kernel-column", "first column is the normalized kernel",
                          float(np.max(np.abs(W.entries[:, 0] - kernel_vector(a, N).coeffs))), 1e-12))

    Wm = op.weyl_matrix(-a, N)
    blk = op.weyl_interior_block(W, Wm)
    out.append(CaseResult("w3-unitarity-interior", "unitary away from the truncation boundary",
                          op.unitarity_residual(W, blk) if blk else 1.0, 1e-10))

    P = W.entries @ Wm.entries
    out.append(CaseResult("w4-composition", "opposite displacements cancel on the interior",
                          float(np.max(np.abs(P[:blk, :blk] - np.eye(blk)))) if blk else 1.0, 1e-10))

    # h_m(x) h_n(x - a) e^{2 pi i b x} is exp(-2x^2) times a polynomial of
    # degree m + n <= N + 1 times exp((2a + 2 pi i b) x - a^2); N + 1 nodes for
    # that weight leave N more degrees to the exponential's Taylor series,
    # too few at low degree (3.5e-7 on 17 nodes at degree 16), so at least 64
    a, b = 0.5, 0.3
    rule = hm.product_rule(min(max(N + 1, 64), hm.MAX_GH_NODES))
    Wm = op.translation_modulation_fock(a, b, N, input_degree=1)
    worst = 0.0
    for n in (0, 1):  # the line image of h_n is h_n(x - a) e^{2 pi i b x}
        image = hm.project_line(
            lambda x: hm.hermite_functions(1, x - a)[n] * np.exp(2j * np.pi * b * x), N, rule)
        worst = max(worst, float(np.max(np.abs(image.coeffs - Wm.entries[:, n]))))
    out.append(CaseResult("w5-shift-modulation-dictionary",
                          "line shifts and modulations map to displacements", worst, 1e-6))
    return out


def _case_dilation(cfg: SuiteConfig) -> list[CaseResult]:
    N = cfg.degree
    got = op.dilation_matrix(1.0, N, 1).apply(FockVector.basis(1, 1)).coeffs
    out = [CaseResult("d1-identity", "unit ratio is the identity",
                      float(np.max(np.abs(got - FockVector.basis(1, N).coeffs))), 1e-9)]

    # D_r e_0 = sqrt(2r/(1+r^2)) e^{g z^2}: even coefficients sqrt((2k)!) g^k / k!,
    # in log-gamma form since the factorials overflow past index 170
    r = 2.0
    g = (1 - r * r) / (2 * (1 + r * r))
    got = op.dilation_matrix(r, N, 0).apply(FockVector.basis(0, 0)).coeffs
    cf = np.zeros(N + 1)
    cf[::2] = [np.sqrt(2 * r / (1 + r * r)) * np.sign(g)**k
               * math.exp(k * math.log(abs(g)) + math.lgamma(2 * k + 1) / 2 - math.lgamma(k + 1))
               for k in range(N // 2 + 1)]
    out.append(CaseResult("d2-gauss-closed-form", "dilated Gaussian has known coefficients",
                          float(np.max(np.abs(got - cf))), 1e-9))

    # D_r k_w = c0 e^{g z^2 + beta z} (Bargmann 1961), for a w near the
    # origin and one whose kernel reaches degree about N/8; K covers k_w's mass
    worst = 0.0
    for r in (0.5, 2.0):
        g = (1 - r * r) / (2 * (1 + r * r))
        for w in (0.5 - 0.3j * np.pi, np.sqrt(N / 8) * np.exp(0.7j)):
            K = math.ceil(abs(w)**2 + 12 * abs(w) + 40)
            got = op.dilation_matrix(r, N, K).apply(kernel_vector(w, K)).coeffs
            c0 = np.sqrt(2 * r / (1 + r * r)) * np.exp(
                r * r * np.conj(w)**2 / (1 + r * r) - w.real**2 + 1j * w.real * w.imag)
            want = exp_quadratic_coeffs(g, 2 * r * np.conj(w) / (1 + r * r), N, c0)
            worst = max(worst, float(np.max(np.abs(got - want))))
    out.append(CaseResult("d3-coherent-closed-form", "dilated coherent states have known coefficients",
                          worst, 1e-12))
    return out


def _case_gabor(cfg: SuiteConfig) -> list[CaseResult]:
    Z = gb.PointSet.rectangular(1.0, 1.0)
    rep = gb.density_estimate(Z, [20.0, 50.0])
    target = 1.0 / np.pi
    dev = max(abs(rep.lower[-1] - target), abs(rep.upper[-1] - target)) / target
    out = [CaseResult("g1-lattice-density", "disk counts approach the cell-area density", dev, 0.05)]

    sep, gap = gb.separation_check(Z)
    out.append(CaseResult("g2-separation", "unit lattice gap", abs(gap - 1.0), 1e-12))

    A1, B1 = gb.frame_bounds_finite(gb.PointSet.rectangular(0.8, 0.8).clip_to_disk(6.0), 80)
    A2, B2 = gb.frame_bounds_finite(gb.PointSet.rectangular(1.1, 1.1).clip_to_disk(6.0), 80)
    out.append(CaseResult("g3-frame-ratio", "dense lattice dominates sparse by 10x",
                          10.0 * (A2 / B2) / (A1 / B1), 1.0))

    pts = np.array([0.4 + 0.2j, -0.3 + 0.9j, 1.0 - 0.5j])
    G = gb.kernel_gram(pts, cfg.degree)
    closed = np.exp(
        np.conj(pts)[:, None] * pts[None, :]
        - (np.abs(pts)[:, None] ** 2 + np.abs(pts)[None, :] ** 2) / 2.0
    )
    out.append(CaseResult("g4-kernel-gram", "kernel inner products match the closed form",
                          float(np.max(np.abs(G - closed.T))), 1e-10))

    z = 1.0 + 1.0j
    two_path = abs(gb.box_window_fock(z) - gb.box_window_coeffs(min(cfg.degree, 120))(z))
    out.append(CaseResult("g5-box-two-path", "pointwise and coefficient box paths agree",
                          float(two_path), 1e-6))

    # the coefficients start from the erf formula, so the reference is a quadrature
    b0 = gb.box_window_coeffs(32).coeffs[0]
    rule = hm.composite_legendre(0.0, 1.0, 8)
    want = rule.weights @ hm.hermite_functions(0, rule.nodes)[0]
    out.append(CaseResult("g6-box-first-coefficient", "first coefficient matches a Gauss-Legendre sum of h_0",
                          abs(b0 - want), 1e-10))

    ok, ratio = gb.linear_independence_check(FockVector.basis(0, 40), [0.0, 1.0], 40)
    gram_closed = np.array([[1.0, np.exp(-0.5)], [np.exp(-0.5), 1.0]])
    vals = np.linalg.eigvalsh(gram_closed)
    out.append(CaseResult("g7-independence", "two displaced kernels stay independent",
                          abs(ratio - vals[0] / vals[-1]) + (0.0 if ok else 1.0), 1e-8))

    pred_ok = (
        gb.lattice_frame_predicate(0.9, 0.9)
        and not gb.lattice_frame_predicate(1.0, 1.0)
        and gb.lattice_frame_predicate(2.0, 0.4)
    )
    out.append(CaseResult("g8-lattice-predicate", "strict product criterion", 0.0 if pred_ok else 1.0, 0.5))
    return out


def _case_hilbert(cfg: SuiteConfig) -> list[CaseResult]:
    N = cfg.degree
    T = sg.hilbert_fock_matrix(N)
    col_oracle = sg.symbol_to_fock(sg.hilbert_symbol(max(1, 2 * N - 1)), N)
    out = [CaseResult("h1-first-column", "first column equals the symbol coefficients",
                      float(np.max(np.abs(T.entries[:, 0] - col_oracle.coeffs))), 1e-13)]

    series = sg.fock_norm_A(200)
    direct = sg.symbol_to_fock(sg.scaled_antiderivative_symbol(399), 399).norm() ** 2
    out.append(CaseResult("h2-norm-two-path", "norm series equals the coefficient norm",
                          abs(series - direct), 1e-12))

    par = np.add.outer(np.arange(N + 1), np.arange(N + 1)) % 2 == 0
    out.append(CaseResult("h3-parity", "entries vanish on equal parity",
                          float(np.max(np.abs(T.entries[par]))), 1e-15))
    out.append(CaseResult("h4-skew-adjoint", "matrix is skew-adjoint",
                          float(np.max(np.abs(T.entries + T.entries.conj().T))), 1e-15))

    # h_m times the Hilbert image of h_n, which decays only like 1/x: 2N nodes
    # for exp(-2x^2), and N + 48 below degree 48 (2N alone read 1.4e-10 at 31)
    rule = hm.product_rule(min(max(2 * N, N + 48), hm.MAX_GH_NODES))
    hv = sg.hilbert_line_pv(lambda t: hm.hermite_functions(2, t), rule.nodes)
    worst = 0.0
    for n in range(min(3, N + 1)):
        col = rule.hermite_table(N) @ (rule.weights * hv[n])
        worst = max(worst, float(np.max(np.abs(col - T.entries[:, n]))))
    out.append(CaseResult("h5-principal-value-oracle",
                          "columns match the line-side singular integral", worst, 1e-10))

    # the Hilbert symbol has degree 1, so the smaller matrix needs degree >= 1
    r_small, r_big = sg.tsquare_residual(max(1, N // 2)), sg.tsquare_residual(N)
    out.append(CaseResult("h6-involution-trend", "squared-transform residual decreases with degree",
                          r_big / r_small, 1.0))

    lhs, rhs = sg.berezin_check(sg.symbol_from_taylor([0.0, 1.0]), 1j, min(N, 40))
    out.append(CaseResult("h7-berezin", "quadratic form recovers the symbol",
                          abs(lhs - rhs), 1e-10))
    return out


def _case_uncertainty(cfg: SuiteConfig) -> list[CaseResult]:
    N = cfg.degree
    eye = np.eye(N + 1)
    C = op.ladder_word(("S1", "S2"), eye) - op.ladder_word(("S2", "S1"), eye)
    # [S1, S2] = -2i [D, M], so this block also checks [D, M] = I
    out = [CaseResult("u1-commutator", "canonical commutator on the interior",
                      float(np.max(np.abs(C[:N, :N] + 2j * np.eye(N)))), 1e-12)]
    S1, S2 = op.ladder_word(("S1",), eye), op.ladder_word(("S2",), eye)
    out.append(CaseResult("u2-self-adjoint", "generator pair is self-adjoint",
                          float(max(np.max(np.abs(S - S.conj().T)) for S in (S1, S2))), 1e-15))

    rng = random.Random(cfg.seed)
    worst_violation = 0.0
    for _ in range(20):
        c = _normals(rng, 12) + 1j * _normals(rng, 12)
        f = FockVector(np.concatenate([c, np.zeros(4)]))
        a, b = 2.0 * _normals(rng, 2)
        lhs, rhs = uc.uncertainty_product(f, a, b)
        worst_violation = max(worst_violation, rhs - lhs)
    out.append(CaseResult("u3-inequality", "product bound on random vectors", worst_violation, 1e-9))

    worst_gap = 0.0
    for _ in range(10):
        alpha = rng.uniform(-0.4, 0.4)
        cpar = (1 + 2 * alpha) / (1 - 2 * alpha)
        a, b = _normals(rng, 2)
        f = uc.extremal_coeffs(uc.ExtremalParams(1.0, cpar, a, b), 300)
        lhs, rhs = uc.uncertainty_product(f, a, b)
        worst_gap = max(worst_gap, abs(lhs - rhs) / rhs)
    out.append(CaseResult("u4-equality-family", "equality on the Gaussian family", worst_gap, 1e-6))
    return out


def _case_quantize(cfg: SuiteConfig) -> list[CaseResult]:
    plane = hm.gauss_hermite_plane(64)
    powers = [np.ones_like(plane.nodes)]  # z^0..z^6 at the nodes, by repeated products
    for _ in range(6):
        powers.append(powers[-1] * plane.nodes)
    conj_powers = [np.conj(zp) for zp in powers]
    worst = 0.0
    for p in range(7):
        weighted = plane.weights * powers[p]
        for q in range(7):
            got = np.sum(weighted * conj_powers[q])
            want = math.factorial(p) if p == q else 0.0
            worst = max(worst, abs(got - want))
    out = [CaseResult("q1-moment-identity", "Gaussian monomial moments", float(worst), 1e-10)]

    worst = max(
        qz.anti_wick_toeplitz_residual(qz.PolySymbol({(m, n): 1.0}), 16)
        for m in range(5)
        for n in range(5 - m)
    )
    out.append(CaseResult("q2-anti-wick", "anti-normal-ordered calculus equals compression", worst, 1e-12))

    half = max(2, cfg.degree // 2)  # the degree-2 symbols below need matrices of degree >= 2
    out.append(CaseResult("q3-oscillator-chain", "heat transform closes the oscillator identity",
                          qz.weyl_toeplitz_residual(qz.PolySymbol({(1, 1): 1.0}), half), 1e-8))

    worst = max(
        qz.weyl_toeplitz_residual(sym, half)
        for sym in (
            qz.PolySymbol({(0, 1): 1.0, (1, 0): 1.0}),
            qz.PolySymbol({(0, 2): 1.0}),
            qz.PolySymbol({(1, 0): 1j}),
        )
    )
    out.append(CaseResult("q4-symmetric-calculus", "phase-space calculus matches compression", worst, 1e-8))

    sym = qz.PolySymbol({(1, 1): 2.0, (0, 1): 1 - 1j, (1, 0): 1 + 1j})
    Tm = qz.toeplitz_poly_matrix(sym, 16).entries
    out.append(CaseResult("q5-hermitian-transport", "real symbols give Hermitian matrices",
                          float(np.max(np.abs(Tm - Tm.conj().T))), 1e-14))
    return out


_SUITES = {
    "bargmann": _case_bargmann,
    "fourier": _case_fourier,
    "weyl": _case_weyl,
    "dilation": _case_dilation,
    "gabor": _case_gabor,
    "hilbert": _case_hilbert,
    "uncertainty": _case_uncertainty,
    "quantize": _case_quantize,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, config: SuiteConfig | None = None) -> VerificationReport:
    """Run one named verification suite (or "all") and return its report."""
    cfg = (config or SuiteConfig()).resolved()
    if name not in (*SUITE_NAMES, "all"):
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    cases = [c for s in (SUITE_NAMES if name == "all" else (name,)) for c in _SUITES[s](cfg)]
    return VerificationReport(name, cfg, tuple(sorted(cases, key=lambda c: c.id)))
