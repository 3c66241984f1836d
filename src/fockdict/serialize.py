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
    _finite(coeffs, "vector JSON")
    return FockVector(coeffs) if kind == "fock" else LineVector(coeffs)


def _finite(values: np.ndarray, source: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{source} has a non-finite coefficient")
    return values


def _csv_rows(text: str, layout: str) -> tuple[np.ndarray, np.ndarray]:
    """Index columns and finite complex values of CSV rows laid out as ``layout``."""
    index, values = [], []
    for k, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            try:
                *idx, re, im = line.split(",")
                idx = [int(i) for i in idx]
                if len(idx) != layout.count(",") - 1 or min(idx) < 0:
                    raise ValueError
                values.append(complex(float(re), float(im)))
            except ValueError:
                raise ValueError(f"CSV line {k} is not {layout} with indices >= 0: {line!r}") from None
            index.append(idx)
    if not index or len(np.unique(index, axis=0)) != len(index):
        raise ValueError("CSV input has no rows or gives an index twice")
    return np.array(index), _finite(np.array(values, dtype=np.complex128), "CSV input")


def vector_to_csv(vec) -> str:
    coeffs = np.asarray(vec.coeffs if hasattr(vec, "coeffs") else vec, dtype=complex)
    lines = [f"{i},{_fmt(c.real)},{_fmt(c.imag)}" for i, c in enumerate(coeffs)]
    return "\n".join(lines) + "\n"


def vector_from_csv(text: str, kind: str = "fock"):
    """Parse index,re,im rows; the indices must be 0..n-1 for n rows, in any order."""
    index, values = _csv_rows(text, "index,re,im")
    if index.max() != len(values) - 1:
        raise ValueError(f"vector CSV indices must be 0..{len(values) - 1}")
    coeffs = values[np.argsort(index[:, 0])]
    return FockVector(coeffs) if kind == "fock" else LineVector(coeffs)


def matrix_to_csv(entries: np.ndarray) -> str:
    lines = []
    for r in range(entries.shape[0]):
        for c in range(entries.shape[1]):
            v = entries[r, c]
            lines.append(f"{r},{c},{_fmt(v.real)},{_fmt(v.imag)}")
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str) -> np.ndarray:
    """Parse row,col,re,im rows; the shape is one past the largest indices, absent entries are 0."""
    index, values = _csv_rows(text, "row,col,re,im")
    out = np.zeros(tuple(index.max(axis=0) + 1), dtype=np.complex128)
    out[tuple(index.T)] = values
    return out


def matrix_to_json(entries: np.ndarray) -> str:
    return json.dumps(
        [[[v.real, v.imag] for v in row] for row in np.asarray(entries, dtype=complex)]
    )
