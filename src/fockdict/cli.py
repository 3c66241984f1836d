"""Command-line front end: transforms, operator application, verification suites.

All vector input/output uses the JSON pair format (arrays of [re, im]); CSV
output uses index,re,im rows for vectors and row,col,re,im for matrices,
both with round-trip-exact floats.  The default truncation degree is 64 and
can be overridden per call with --degree or globally with FOCKDICT_DEGREE,
either an integer >= 1.  A command with several modes has one subcommand
per mode, and each leaf command declares only the options it reads, so an
option of another mode is a usage error; only the leaves that write a
vector or a matrix take --format.  A call declares the arguments of its
own command only; the others are listed by name and help line.  Bad
input, an unreadable/unwritable file or an AccuracyWarning raised as an
error (``python -W error``) ends the call with one ``fockdict: error: ...``
line on stderr and exit code 2.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bargmann as bg
from . import gabor as gb
from . import hermite as hm
from . import operators as op
from . import quantize as qz
from . import singular as sg
from . import uncertainty as uc
from .errors import AccuracyWarning
from .fock import resolved_radius
from .report import SUITE_NAMES, SuiteConfig, default_degree, run_suite, seed_value, truncation_degree
from .serialize import (
    matrix_to_csv,
    matrix_to_json,
    vector_from_json,
    vector_to_csv,
    vector_to_json,
)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _read_vector(path: str, kind: str):
    with open(path, "r", encoding="utf-8") as fh:
        return vector_from_json(fh.read(), kind)


def _emit_vector(vec, args) -> None:
    _write(vector_to_csv(vec) if args.format == "csv" else vector_to_json(vec), args.out)


def _emit_matrix(entries, args) -> None:
    _write(matrix_to_csv(entries) if args.format == "csv" else matrix_to_json(entries), args.out)


def _emit_obj(obj, args) -> None:
    _write(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False), args.out)


def _argument_type(convert):
    """``convert`` as an argparse type whose ValueError text is the usage error."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:  # argparse prints its own text for a ValueError
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


_OPTIONS = {
    "degree": dict(type=_argument_type(truncation_degree),
                   help="truncation degree >= 1 (default FOCKDICT_DEGREE, else 64)"),
    "seed": dict(type=_argument_type(seed_value), default=0, help="seed for randomized checks"),
    "format": dict(choices=["json", "csv"], default="json", help="output format"),
    "out": dict(default=None, help="output path (default stdout)"),
}


def _add_options(p: argparse.ArgumentParser, *names: str) -> None:
    """Declare the shared options ``names`` and --out, which every command takes."""
    for name in (*names, "out"):
        p.add_argument(f"--{name}", **_OPTIONS[name])


def _number(text: str) -> float:
    """A finite float; nan, inf and literals that overflow to inf (1e400) are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _numbers(text: str) -> list[float]:
    return [_number(part) for part in text.split(",")]


def _lattice_arg(text: str) -> tuple[float, float]:
    """Steps a,b that ``PointSet.rectangular`` accepts."""
    steps = _numbers(text)
    if len(steps) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated numbers, got {text!r}")
    try:
        gb.PointSet.rectangular(*steps)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return steps[0], steps[1]


def _radii_arg(text: str) -> list[float]:
    """Disk radii that ``density_estimate`` accepts."""
    radii = _numbers(text)
    try:
        gb.disk_radii(radii)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return radii


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def _cmd_bargmann(args) -> int:
    N = args.degree or default_degree()
    line = _read_vector(args.input, "line").coeffs
    line = np.concatenate([line, np.zeros(max(0, N + 1 - len(line)))])[: N + 1]
    lv = hm.LineVector(line)
    if args.mode == "coeff":
        _emit_vector(bg.bargmann_coeff(lv), args)
        return 0
    # quadrature path: coefficients recovered from the defining integrals
    rule = bg.BargmannPipeline.default(N).line_rule
    coeffs = hm.project_line(lambda x: lv(x), N, rule)
    _emit_vector(bg.bargmann_coeff(coeffs), args)
    return 0


# --op name: (how many --params values it takes, the operator applied to f
# at degree N); weyl and dilate take f at its own degree, its reach, since
# trailing zeros would only raise it
_OPERATORS = {
    "fourier": (0, lambda p, f, N: op.fourier_fock(f)),
    "rotate": (1, lambda p, f, N: op.rotation(p[0], f)),
    "weyl": (2, lambda p, f, N: op.weyl_matrix(complex(p[0], p[1]), N, f.reach).apply(f)),
    "dilate": (1, lambda p, f, N: op.dilation_matrix(p[0], N, f.reach).apply(f)),
    "a1": (0, lambda p, f, N: op.a1_matrix(N).apply(f)),
    "a2": (0, lambda p, f, N: op.a2_matrix(N).apply(f)),
}


def _cmd_op_apply(args) -> int:
    N = args.degree or default_degree()
    count, apply = _OPERATORS[args.op]
    if len(args.params) != count:
        raise ValueError(f"--op {args.op} takes {count} --params number(s), got {len(args.params)}")
    f = _read_vector(args.infile, "fock").pad(N)
    _emit_vector(apply(args.params, f, N), args)
    return 0


def _cmd_singular_hilbert(args) -> int:
    N = args.degree or default_degree()
    if args.check == "tsquare":
        _emit_obj({"check": "tsquare", "degree": N, "span": f"0..{min(sg.TSQUARE_SPAN, N)}",
                   "residual": sg.tsquare_residual(N)}, args)
    elif args.check == "berezin":
        sym = sg.hilbert_symbol(max(1, 2 * N - 1))
        z = 0.5 + 0.5j
        lhs, rhs = sg.berezin_check(sym, z, N)
        _emit_obj({"check": "berezin", "degree": N, "z": [z.real, z.imag],
                   "lhs": [lhs.real, lhs.imag], "rhs": [rhs.real, rhs.imag],
                   "difference": abs(lhs - rhs)}, args)
    else:  # norm
        series, tail = sg.fock_norm_A(200, with_tail=True)
        col_norm_sq = float(np.linalg.norm(sg.hilbert_fock_matrix(N).entries[:, 0]) ** 2)
        _emit_obj({"check": "norm", "degree": N,
                   "antiderivative_norm_sq_series": series,
                   "series_tail_estimate": tail,
                   "first_column_norm_sq": col_norm_sq,
                   "ratio_to_series": col_norm_sq / (4.0 / np.pi * series)}, args)
    return 0


def _cmd_singular_apply(args) -> int:
    N = args.degree or default_degree()
    sym = sg.symbol_from_taylor(_read_vector(args.phi, "fock").coeffs)
    f = _read_vector(args.infile, "fock").pad(N)
    _emit_vector(sg.s_phi_matrix(sym, N).apply(f), args)
    return 0


def _cmd_gabor(args) -> int:
    a, b = args.lattice
    if args.action == "density":
        rep = gb.density_estimate(gb.PointSet.rectangular(a, b), args.radii)
        _emit_obj({
            "lattice": [a, b],
            "radii": list(rep.radii),
            "lower": list(rep.lower),
            "upper": list(rep.upper),
            "lower_extrapolated": rep.lower_extrapolated,
            "upper_extrapolated": rep.upper_extrapolated,
            "cell_density": 1.0 / (np.pi * a * b),
        }, args)
    elif args.action == "frame-bounds":
        N = args.degree or default_degree()
        Z = gb.PointSet.rectangular(a, b).clip_to_disk(resolved_radius(N))
        core = max(2, N // 8) if args.core is None else args.core
        A, B = gb.frame_bounds_finite(Z, N, core)
        _emit_obj({"lattice": [a, b], "degree": N, "core": core,
                   "points": len(Z.points), "lower": A, "upper": B}, args)
    else:  # predicate
        rep = gb.density_estimate(gb.PointSet.rectangular(a, b), [30.0, 50.0])
        sep, gap = gb.separation_check(gb.PointSet.rectangular(a, b))
        _emit_obj({
            "lattice": [a, b],
            "product": a * b,
            "lattice_criterion": gb.lattice_frame_predicate(a, b),
            "density_verdict": gb.density_frame_predicate(rep, sep),
            "min_gap": gap,
        }, args)
    return 0


def _cmd_uncertainty_extremal(args) -> int:
    params = uc.ExtremalParams(C=1.0, c=args.c, a=args.a, b=args.b)
    _emit_vector(uc.extremal_coeffs(params, args.degree or default_degree()), args)
    return 0


def _cmd_uncertainty_product(args) -> int:
    f = _read_vector(args.f, "fock").pad(args.degree or default_degree())
    lhs, rhs = uc.uncertainty_product(f, args.a, args.b)
    _emit_obj({"lhs": lhs, "rhs": rhs, "gap": lhs - rhs}, args)
    return 0


def _cmd_quantize(args) -> int:
    N = args.degree or default_degree()
    if args.action == "toeplitz":
        T = qz.toeplitz_monomial_matrix(args.m, args.n, N)
        _emit_matrix(T.entries, args)
        return 0
    with open(args.symbol, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        terms = {(int(m), int(n)): complex(re, im) for m, n, re, im in spec["terms"]}
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ValueError(f'{args.symbol}: needs "terms": [[m, n, re, im], ...]') from None
    sym = qz.PolySymbol(terms)
    if args.action == "verify-anti-wick":
        residual, T, tol = qz.anti_wick_toeplitz_residual(sym, N), qz.anti_wick_matrix(sym, N), 1e-12
    else:
        residual, T, tol = qz.weyl_toeplitz_residual(sym, N), qz.toeplitz_poly_matrix(sym, N), 1e-8
    # relative to the largest Toeplitz entry on the residual's interior block
    b = N + 1 - sym.degree
    scale = float(np.max(np.abs(T.entries[:b, :b])))
    residual = residual / scale if scale > 0 else residual
    _emit_obj({"residual": residual, "tolerance": tol, "pass": residual <= tol}, args)
    return 0 if residual <= tol else 1


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, SuiteConfig(args.degree, args.seed))
    _write(report.to_json(), args.out)
    for case in sorted(report.cases, key=lambda c: c.id):
        status = "PASS" if case.passed else "FAIL"
        sys.stderr.write(f"{status} {case.id}: residual={case.residual:.3e} "
                         f"tolerance={case.tolerance:.1e}\n")
    return 0 if report.passed else 1


def _declare_bargmann(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="LineVector JSON file")
    p.add_argument("--mode", choices=["coeff", "quad"], default="coeff")
    _add_options(p, "degree", "format")
    p.set_defaults(fn=_cmd_bargmann)


def _declare_op(p: argparse.ArgumentParser) -> None:
    opsub = p.add_subparsers(dest="action", required=True)
    pa = opsub.add_parser("apply")
    pa.add_argument("--op", required=True, choices=list(_OPERATORS))
    pa.add_argument("--params", type=_numbers, default=[],
                    help="comma-separated operator parameters: THETA for rotate, RE,IM for "
                         "weyl, R for dilate, none otherwise (--params=-0.5,0.25 for a leading minus)")
    pa.add_argument("--in", dest="infile", required=True, help="FockVector JSON file")
    _add_options(pa, "degree", "format")
    pa.set_defaults(fn=_cmd_op_apply)


def _declare_singular(p: argparse.ArgumentParser) -> None:
    ssub = p.add_subparsers(dest="action", required=True)
    ps = ssub.add_parser("hilbert")
    ps.add_argument("--check", choices=["tsquare", "berezin", "norm"], default="tsquare")
    _add_options(ps, "degree")
    ps.set_defaults(fn=_cmd_singular_hilbert)
    ps = ssub.add_parser("apply")
    ps.add_argument("--phi", required=True, help="symbol Taylor coefficients (vector JSON)")
    ps.add_argument("--in", dest="infile", required=True, help="FockVector JSON file")
    _add_options(ps, "degree", "format")
    ps.set_defaults(fn=_cmd_singular_apply)


def _declare_gabor(p: argparse.ArgumentParser) -> None:
    gsub = p.add_subparsers(dest="action", required=True)
    for action in ("density", "frame-bounds", "predicate"):
        pg = gsub.add_parser(action)
        pg.add_argument("--lattice", required=True, type=_lattice_arg, help="lattice steps a,b")
        if action == "density":
            pg.add_argument("--R", dest="radii", type=_radii_arg, default="10,20,50",
                            help="comma-separated disk radii")
        if action == "frame-bounds":
            pg.add_argument("--core", type=int, default=None,
                            help="core subspace degree (default degree/8)")
            _add_options(pg, "degree")
        else:
            _add_options(pg)
        pg.set_defaults(fn=_cmd_gabor)


def _declare_uncertainty(p: argparse.ArgumentParser) -> None:
    usub = p.add_subparsers(dest="action", required=True)
    pe = usub.add_parser("extremal")
    pe.add_argument("--c", type=_number, default=1.0, help="extremal family parameter (positive)")
    pe.set_defaults(fn=_cmd_uncertainty_extremal)
    pp = usub.add_parser("product")
    pp.add_argument("--f", required=True, help="FockVector JSON file")
    pp.set_defaults(fn=_cmd_uncertainty_product)
    for pu in (pe, pp):
        pu.add_argument("--a", type=_number, default=0.0)
        pu.add_argument("--b", type=_number, default=0.0)
    _add_options(pe, "degree", "format")
    _add_options(pp, "degree")


def _declare_quantize(p: argparse.ArgumentParser) -> None:
    qsub = p.add_subparsers(dest="action", required=True)
    pt = qsub.add_parser("toeplitz")
    pt.add_argument("--m", type=int, required=True, help="antiholomorphic power")
    pt.add_argument("--n", type=int, required=True, help="holomorphic power")
    _add_options(pt, "degree", "format")
    pt.set_defaults(fn=_cmd_quantize)
    for action in ("verify-anti-wick", "verify-weyl"):
        pq = qsub.add_parser(action)
        pq.add_argument("--symbol", required=True,
                        help='symbol JSON: {"terms": [[m, n, re, im], ...]}')
        _add_options(pq, "degree")
        pq.set_defaults(fn=_cmd_quantize)


def _declare_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("suite", choices=[*SUITE_NAMES, "all"])
    _add_options(p, "degree", "seed")
    p.set_defaults(fn=_cmd_verify)


# command: (its help line, the function that declares its arguments and modes)
_COMMANDS = {
    "bargmann": ("transform a line vector to the Fock side", _declare_bargmann),
    "op": ("apply dictionary operators", _declare_op),
    "singular": ("singular integral operators", _declare_singular),
    "gabor": ("lattices, densities, frame bounds", _declare_gabor),
    "uncertainty": ("uncertainty product and extremal family", _declare_uncertainty),
    "quantize": ("Toeplitz and pseudo-differential calculi", _declare_quantize),
    "verify": ("run a verification suite", _declare_verify),
}


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for the command line ``argv``.

    Every command is listed with its help line, so the top-level help and
    usage errors name them all, but only the command that ``argv[0]`` names
    declares its arguments and modes: one call parses one command.
    """
    parser = argparse.ArgumentParser(
        prog="fockdict",
        description="Numerical dictionary between square-integrable functions "
                    "on the line and the Fock space of entire functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv else None
    for name, (help_line, declare) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == named:
            declare(p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, AccuracyWarning) as exc:
        sys.stderr.write(f"fockdict: error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
