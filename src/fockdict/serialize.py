"""JSON and CSV serialization for vectors, matrices, and reports.

Vectors are JSON arrays of [re, im] pairs indexed by n; CSV rows are
index,re,im for vectors and row,col,re,im for matrices.  CSV is an output
format only.  Floats are written with 17 significant digits so that re-parsing
is bit-exact; the writers refuse non-finite values with a ValueError, as the
JSON reader does.
"""
from __future__ import annotations

import json

import numpy as np

from .fock import FockVector
from .hermite import LineVector


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def vector_to_json(vec) -> str:
    coeffs = _finite(np.asarray(vec.coeffs if hasattr(vec, "coeffs") else vec, dtype=complex), "output")
    return json.dumps([[c.real, c.imag] for c in coeffs], allow_nan=False)


def vector_from_json(text: str, kind: str = "fock"):
    """Parse an array of [re, im] pairs; ValueError on any other shape or non-finite value."""
    pairs = json.loads(text)
    try:
        coeffs = np.array([json_complex(re, im) for re, im in pairs], dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("vector JSON must be an array of [re, im] number pairs") from None
    _finite(coeffs, "vector JSON")
    return FockVector(coeffs) if kind == "fock" else LineVector(coeffs)


def json_complex(re, im) -> complex:
    """re + i im from two JSON numbers; TypeError for a boolean, which complex() reads as 0 or 1."""
    if isinstance(re, bool) or isinstance(im, bool):
        raise TypeError("a boolean is not a number")
    return complex(re, im)


def _finite(values: np.ndarray, source: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{source} has a non-finite coefficient")
    return values


def vector_to_csv(vec) -> str:
    coeffs = _finite(np.asarray(vec.coeffs if hasattr(vec, "coeffs") else vec, dtype=complex), "output")
    lines = [f"{i},{_fmt(c.real)},{_fmt(c.imag)}" for i, c in enumerate(coeffs)]
    return "\n".join(lines) + "\n"


def matrix_to_csv(entries: np.ndarray) -> str:
    _finite(entries, "output")
    lines = []
    for r in range(entries.shape[0]):
        for c in range(entries.shape[1]):
            v = entries[r, c]
            lines.append(f"{r},{c},{_fmt(v.real)},{_fmt(v.imag)}")
    return "\n".join(lines) + "\n"


def matrix_to_json(entries: np.ndarray) -> str:
    return json.dumps(
        [[[v.real, v.imag] for v in row] for row in _finite(np.asarray(entries, dtype=complex), "output")],
        allow_nan=False,
    )
