"""Tracer behaviour: cross-module bindings are wrapped, self time excludes children.

    PYTHONPATH=src python -m pytest -q bench/test_tracer.py
"""
import fockdict
from fockdict import gabor, operators
from tracer import Tracer, layer_totals


def test_wraps_every_binding_and_restores():
    original = operators.weyl_matrix
    tracer = Tracer()
    tracer.install()
    try:
        assert operators.weyl_matrix is not original
        assert gabor.weyl_matrix is operators.weyl_matrix
        assert fockdict.weyl_matrix is operators.weyl_matrix
    finally:
        tracer.uninstall()
    assert operators.weyl_matrix is original and gabor.weyl_matrix is original


def test_self_time_subtracts_nested_spans_and_counts_cache():
    tracer = Tracer(keys={"operators.weyl_matrix": lambda a, degree, *rest, **kw: (abs(complex(a)) ** 2, degree)})
    tracer.install()
    try:
        gabor.box_frame_gram(range(0, 1), range(0, 2), 24)
        gabor.box_window_coeffs(24)
        counts = tracer.cache_counts()
    finally:
        tracer.uninstall()
    spans = {s[0]: s for s in tracer.spans}
    name, start, end, self_s, parent, _job, _key = spans["gabor.box_frame_gram"]
    children = [s for s in tracer.spans if s[4] == tracer.spans.index(spans["gabor.box_frame_gram"])]
    assert {c[0] for c in children} >= {"gabor.box_window_coeffs", "operators.weyl_matrix"}
    assert abs(self_s - ((end - start) - sum(c[2] - c[1] for c in children))) < 1e-9
    keys = [s[6] for s in tracer.spans if s[0] == "operators.weyl_matrix"]
    assert keys == [(0.0, 24), (1.0, 24)]
    assert layer_totals(tracer.spans)["operators.weyl_matrix"][0] == 2
    assert counts["gabor.box_window_coeffs.cache_misses"] == 1
    assert counts["gabor.box_window_coeffs.cache_hits"] == 1
