"""JSON and CSV serialization for vectors, matrices, and reports.

Vectors are JSON arrays of [re, im] pairs indexed by n; CSV rows are
index,re,im for vectors and row,col,re,im for matrices.  Floats are written
with 17 significant digits so that re-parsing is bit-exact.
"""
from __future__ import annotations

import json

import numpy as np

from .fock import FockVector
from .hermite import LineVector


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def vector_to_json(vec) -> str:
    coeffs = vec.coeffs if hasattr(vec, "coeffs") else np.asarray(vec)
    return json.dumps([[c.real, c.imag] for c in np.asarray(coeffs, dtype=complex)])


def vector_from_json(text: str, kind: str = "fock"):
    """Parse an array of [re, im] pairs; ValueError on any other shape or non-finite value."""
    pairs = json.loads(text)
    try:
        coeffs = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("vector JSON must be an array of [re, im] number pairs") from None
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("vector JSON has a non-finite coefficient")
    return FockVector(coeffs) if kind == "fock" else LineVector(coeffs)


def vector_to_csv(vec) -> str:
    coeffs = np.asarray(vec.coeffs if hasattr(vec, "coeffs") else vec, dtype=complex)
    lines = [f"{i},{_fmt(c.real)},{_fmt(c.imag)}" for i, c in enumerate(coeffs)]
    return "\n".join(lines) + "\n"


def vector_from_csv(text: str, kind: str = "fock"):
    rows = [line.split(",") for line in text.strip().splitlines() if line.strip()]
    coeffs = np.zeros(len(rows), dtype=np.complex128)
    for idx, re, im in rows:
        coeffs[int(idx)] = complex(float(re), float(im))
    return FockVector(coeffs) if kind == "fock" else LineVector(coeffs)


def matrix_to_csv(entries: np.ndarray) -> str:
    lines = []
    for r in range(entries.shape[0]):
        for c in range(entries.shape[1]):
            v = entries[r, c]
            lines.append(f"{r},{c},{_fmt(v.real)},{_fmt(v.imag)}")
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str) -> np.ndarray:
    rows = [line.split(",") for line in text.strip().splitlines() if line.strip()]
    size = max(int(r[0]) for r in rows) + 1
    cols = max(int(r[1]) for r in rows) + 1
    out = np.zeros((size, cols), dtype=np.complex128)
    for r, c, re, im in rows:
        out[int(r), int(c)] = complex(float(re), float(im))
    return out


def matrix_to_json(entries: np.ndarray) -> str:
    return json.dumps(
        [[[v.real, v.imag] for v in row] for row in np.asarray(entries, dtype=complex)]
    )
