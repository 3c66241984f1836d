import numpy as np
import pytest

from fockdict.hermite import gauss_hermite, hermite_functions


def _exact_dilation(r: float, n: int, degree: int, nodes: int = 250) -> np.ndarray:
    """<D_r h_n, h_m> = int sqrt(r) h_n(rx) h_m(x) dx for m = 0..degree.

    The integrand is a polynomial of degree n + m times e^{-(1+r^2)x^2}, so
    the Gauss-Hermite rule rescaled to that weight is exact once
    nodes > (n + degree)/2; no plane rule or inverse integral is involved.
    """
    assert 2 * nodes > n + degree
    rule = gauss_hermite(nodes)
    s = np.sqrt(1.0 + r * r)
    x = rule.nodes / s
    fw = rule.flat_weights() / s * np.sqrt(r) * hermite_functions(n, r * x)[n]
    return hermite_functions(degree, x) @ fw


@pytest.fixture
def exact_dilation():
    """Columns of the line dilation D_r g(x) = sqrt(r) g(rx) against h_n, by exact quadrature."""
    return _exact_dilation
