"""Seeded job lists of the three workloads and the oracle checks of their outputs.

A job is one timed call sequence into fockdict's public API.  Its inputs are
drawn before any timing starts, from a generator seeded by (run seed, pass
index), and recorded in ``spec`` so that a digest of all specs shows two
runs of one seed did the same work.  ``check`` compares the output with an
oracle from ``oracles`` and runs after the timed region; it returns
(label, error, tolerance) triples.  Pass/fail checks (report cases, exit
codes) carry tolerance 0 and error 0 or 1; an infinite error marks output
that is not even well formed.

Library functions are looked up on their modules at call time (never bound
here at import), so the tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import fockdict
from fockdict import bargmann, fock, gabor, hermite, operators, quantize, singular, uncertainty

# Accuracy contracts.  Weyl entries use the 1e-10 absolute tolerance that
# `fockdict verify weyl` applies; every other check mirrors the verify-suite
# case that tests the same quantity (named alongside).
WEYL_TOL = 1e-10            # w3/w4
S_PHI_TOL = 1e-10           # h5, relative to the largest entry
HILBERT_TOL = 1e-10         # h5, relative to the largest entry
GRAM_TOL = 1e-10            # Gram of Weyl images, same contract as the entries
INDEPENDENCE_TOL = 1e-8     # g7
PROJECTION_TOL = 1e-6       # w5
POINT_TOL = 1e-7            # b1, weighted by e^{-|z|^2/2}
DILATION_TOL = 1e-9         # d2
EXTREMAL_TOL = 1e-6         # u4
ANTI_WICK_TOL = 1e-12       # q2, relative to the largest interior entry

# Per pass of the displace workload.
WEYL_JOBS = {32: 16, 64: 32}
EXP_LINEAR_JOBS = {24: 2, 32: 2}
INDEPENDENCE_JOBS = 3
# Per pass of the transform workload.
PACKETS = 64
PACKET_DEGREES = (64, 128, 200)
DISK_POINTS = 300
DISK_RADIUS = 3.0
SUP_NORM_JOBS = 16
DILATION_JOBS = 24
EXTREMAL_JOBS = 12
ANTI_WICK_JOBS = 12

# The verify suites each workload runs at degrees 64 and 128, one fresh
# interpreter per degree: `all` for verify, and for the library-session
# workloads the suites of the layers they stress.
SUITES = {
    "verify": ("all",),
    "displace": ("weyl", "gabor"),
    "transform": ("bargmann", "fourier", "dilation", "uncertainty", "quantize"),
}


@dataclass
class Job:
    group: str
    spec: dict
    run: Callable[[], Any]
    check: Callable[[Any], list]


def oracle(name: str, *args):
    """Call an oracle, importing mpmath only once the timed region is over."""
    import oracles

    return getattr(oracles, name)(*args)


def max_abs(x) -> float:
    return float(np.max(np.abs(x)))


def digest(jobs) -> str:
    text = json.dumps([[job.group, job.spec] for job in jobs], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# verify: the CLI entry point, one suite per call
# ----------------------------------------------------------------------

def suite_jobs(workload: str, degree: int, seed: int) -> list[Job]:
    jobs = []
    for suite in SUITES[workload]:
        argv = ["verify", suite, "--degree", str(degree), "--seed", str(seed)]
        jobs.append(Job(f"verify {suite}", {"argv": argv}, lambda argv=argv: _cli(argv), _check_report))
    if "all" in SUITES[workload]:
        jobs[-1].check = lambda out, degree=degree, seed=seed: _check_report(out) + _check_hilbert(degree, seed)
    return jobs


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fockdict.cli.main(argv)
    return code, out.getvalue()


def _check_report(output) -> list:
    """One triple per report case, plus the exit code and JSON validity."""
    code, text = output
    checks = [("exit-code", float(code != 0), 0.0)]
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return checks + [("report-json", math.inf, 0.0)]
    return checks + [("report-json", 0.0, 0.0)] + [
        (f"case {case['id']}", 0.0 if case["pass"] else 1.0, 0.0) for case in report["cases"]]


def _check_hilbert(degree: int, seed: int) -> list:
    """Sampled rows of the Hilbert matrix the suite built (an lru hit here)."""
    rng = np.random.default_rng([seed, degree])
    rows = sorted({0, 1, degree, *rng.integers(2, degree, size=3).tolist()})
    T = singular.hilbert_fock_matrix(degree).entries
    ref = oracle("hilbert_rows", degree, rows)
    scale = max(max_abs(r) for r in ref.values())
    err = max(max_abs(T[p] - row) for p, row in ref.items()) / scale
    return [("hilbert rows", err, HILBERT_TOL)]


# ----------------------------------------------------------------------
# displace: displacement operators across both Weyl regimes
# ----------------------------------------------------------------------

def displace_jobs(rng: np.random.Generator) -> list[Job]:
    jobs = []
    for N, count in WEYL_JOBS.items():
        r = _stratified(rng, count, 0.0, N / 4.0)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
        for ri, ti in zip(r, theta):
            a = complex(math.sqrt(ri) * math.cos(ti), math.sqrt(ri) * math.sin(ti))
            jobs.append(Job(
                f"weyl N={N}", {"N": N, "a": [a.real, a.imag], "r": abs(a) ** 2},
                lambda a=a, N=N: operators.weyl_matrix(a, N),
                lambda W, a=a, N=N: [("weyl", max_abs(W.entries - oracle("weyl_matrix", a, N)), WEYL_TOL)]))
    for N, count in EXP_LINEAR_JOBS.items():
        for a in rng.uniform(-2.0, 2.0, size=count).tolist():
            jobs.append(Job(
                f"s_phi exp-linear N={N}", {"N": N, "a": a},
                lambda a=a, N=N: singular.s_phi_matrix(singular.exp_linear_symbol(a, 2 * N), N),
                lambda S, a=a, N=N: _relative("s_phi", S.entries, oracle("exp_linear_s_phi", a, N), S_PHI_TOL)))
    jobs.append(Job("box_frame_gram N=48", {"m": [-1, 1], "n": [-1, 1], "N": 48},
                    lambda: gabor.box_frame_gram(range(-1, 2), range(-1, 2), 48), _check_box_gram))
    for _ in range(INDEPENDENCE_JOBS):
        pts = _separated_points(rng, 4, 1.5, 0.3)
        jobs.append(Job(
            "linear_independence_check N=64", {"points": [[z.real, z.imag] for z in pts]},
            lambda pts=pts: gabor.linear_independence_check(fock.FockVector.basis(0, 64), pts, 64),
            lambda out, pts=pts: _check_independence(out, pts)))
    return jobs


def _stratified(rng, count, lo, hi) -> np.ndarray:
    """Uniform on (lo, hi], one draw in each of ``count`` equal strata, so that
    every pass covers the range (the accuracy minimum sits near its ends)."""
    return lo + (np.arange(count) + 1.0 - rng.uniform(size=count)) * (hi - lo) / count


def _relative(label, got, ref, tol) -> list:
    return [(label, max_abs(got - ref) / max_abs(ref), tol)]


def _separated_points(rng, count, half_width, min_gap) -> list[complex]:
    pts: list[complex] = []
    while len(pts) < count:
        z = complex(*rng.uniform(-half_width, half_width, size=2))
        if all(abs(z - w) >= min_gap for w in pts):
            pts.append(z)
    return pts


def _check_box_gram(G) -> list:
    box = oracle("box_window_coeffs", 48)
    U = np.column_stack([oracle("weyl_matrix", complex(n, -math.pi * m), 48) @ box
                         for m in range(-1, 2) for n in range(-1, 2)])
    return [("box_frame_gram", max_abs(G - U.conj().T @ U), GRAM_TOL)]


def _check_independence(out, pts) -> list:
    ok, ratio = out
    vals = np.linalg.eigvalsh(oracle("kernel_gram", pts))
    want = vals[0] / vals[-1]
    return [("independence ratio", abs(ratio - want) + (0.0 if ok == (want > 1e-10) else math.inf),
             INDEPENDENCE_TOL)]


# ----------------------------------------------------------------------
# transform: float quadrature substrate on Gaussian wave packets
# ----------------------------------------------------------------------

def packet(a: float, b: float):
    """f(x) = e^{2 pi i b x} h_0(x - a), the line-side input."""
    return lambda x: np.exp(2j * math.pi * b * x) * hermite.GAUSS_CONST * np.exp(-((x - a) ** 2))


def transform_jobs(rng: np.random.Generator) -> list[Job]:
    jobs = []
    sup_inputs = []
    for i in range(PACKETS):
        a, b = float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-0.4, 0.4))
        f = packet(a, b)
        rad = DISK_RADIUS * np.sqrt(rng.uniform(size=DISK_POINTS))
        zs = rad * np.exp(2j * math.pi * rng.uniform(size=DISK_POINTS))
        for N in PACKET_DEGREES:
            state: dict = {}
            spec = {"a": a, "b": b, "N": N, "points_digest": _array_digest(zs)}
            jobs.append(Job(f"project_line N={N}", spec,
                            lambda f=f, N=N, state=state: _project(f, N, state),
                            lambda lv, a=a, b=b, N=N: [("project_line", max_abs(
                                lv.coeffs - oracle("packet_coeffs", a, b, N)), PROJECTION_TOL)]))
            jobs.append(Job(f"bargmann_quadrature N={N}", spec,
                            lambda f=f, zs=zs, state=state: bargmann.bargmann_quadrature(f, zs, state["rule"]),
                            lambda vals, a=a, b=b, zs=zs: _check_points("bargmann_quadrature", vals, a, b, zs)))
            jobs.append(Job(f"evaluate N={N}", spec,
                            lambda zs=zs, state=state: fock.evaluate(bargmann.bargmann_coeff(state["line"]), zs),
                            lambda vals, a=a, b=b, zs=zs: _check_points("evaluate", vals, a, b, zs)))
            if N == PACKET_DEGREES[0] and i < SUP_NORM_JOBS:
                sup_inputs.append((a, b, state))
    radius = math.sqrt(2.0 * PACKET_DEGREES[0])
    for a, b, state in sup_inputs:
        step = float(rng.uniform(0.15, 0.3))
        jobs.append(Job("fock_sup_norm N=64", {"a": a, "b": b, "radius": radius, "step": step},
                        lambda state=state, step=step: bargmann.fock_sup_norm(
                            bargmann.bargmann_coeff(state["line"]), radius, step),
                        lambda sup, a=a, b=b, step=step: [
                            ("fock_sup_norm", abs(sup - oracle("packet_sup_norm", a, b, radius, step)), POINT_TOL)]))
    for r in _stratified(rng, DILATION_JOBS, 0.5, 2.0).tolist():
        jobs.append(Job("dilation_fock N=32", {"r": r},
                        lambda r=r: operators.dilation_fock(
                            r, fock.FockVector.basis(0, 8), bargmann.BargmannPipeline.default(32)),
                        lambda res, r=r: [("dilation_fock", max_abs(
                            res.primary.coeffs - oracle("dilated_gaussian_coeffs", r, 32)), DILATION_TOL)]))
    for _ in range(EXTREMAL_JOBS):
        alpha = float(rng.uniform(-0.4, 0.4))
        a, b = (float(v) for v in rng.uniform(-1.5, 1.5, size=2))
        params = uncertainty.ExtremalParams(1.0, (1 + 2 * alpha) / (1 - 2 * alpha), a, b)
        jobs.append(Job("extremal_coeffs N=300", {"alpha": alpha, "a": a, "b": b},
                        lambda p=params: uncertainty.uncertainty_product(uncertainty.extremal_coeffs(p, 300), p.a, p.b),
                        lambda out, p=params: _check_extremal(out, p)))
    monomials = [(m, n) for m in range(5) for n in range(5 - m)]
    for _ in range(ANTI_WICK_JOBS):
        picks = rng.choice(len(monomials), size=3, replace=False)
        terms = {monomials[k]: complex(*rng.standard_normal(2)) for k in picks}
        jobs.append(Job("anti_wick_toeplitz_residual N=64",
                        {"terms": [[m, n, c.real, c.imag] for (m, n), c in sorted(terms.items())]},
                        lambda t=terms: quantize.anti_wick_toeplitz_residual(quantize.PolySymbol(t), 64),
                        lambda res, t=terms: _check_anti_wick(res, t, 64)))
    return jobs


def _array_digest(x) -> str:
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()[:16]


def _project(f, N, state):
    state["rule"] = hermite.gauss_hermite(min(256, 4 * N))
    state["line"] = hermite.project_line(f, N, state["rule"])
    return state["line"]


def _check_points(label, vals, a, b, zs) -> list:
    err = np.abs(vals - oracle("packet_bargmann", a, b, zs)) * np.exp(-np.abs(zs) ** 2 / 2.0)
    return [(label, float(np.max(err)), POINT_TOL)]


def _check_extremal(out, p) -> list:
    lhs, rhs = out
    norm_sq = oracle("extremal_norm_sq", p.C, p.alpha, p.beta)
    return [("extremal gap", max(abs(lhs / norm_sq - 1.0), abs(rhs / norm_sq - 1.0)), EXTREMAL_TOL)]


def _check_anti_wick(residual, terms, N) -> list:
    swapped = {(n, m): c for (m, n), c in terms.items()}
    block = N + 1 - max(m + n for m, n in terms)
    scale = max_abs(oracle("toeplitz_matrix", swapped, N)[:block, :block])
    return [("anti_wick_toeplitz_residual", residual / scale, ANTI_WICK_TOL)]


SESSIONS = {"displace": displace_jobs, "transform": transform_jobs}
