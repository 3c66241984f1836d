"""Outside-in span tracer for fockdict's public functions.

``Tracer.install`` replaces every public function of the fockdict modules, in
every module namespace that binds it, with a wrapper that records a span.
Module globals are looked up at call time, so calls between library modules
(``gabor`` calling its imported ``weyl_matrix``, ``report`` calling
``op.weyl_matrix``) are caught as well.  The library itself is not edited.

A span is (name, start, end, self seconds, parent span index, job index,
key).  Self time is the span's duration minus the wrapped child spans it
contains.  Spans stay in memory; the caller writes them out when the run
ends.
"""
from __future__ import annotations

import functools
import sys
import time
import types

PACKAGE = "fockdict"


class Tracer:
    def __init__(self, keys=None):
        """``keys`` maps a span name to a function of the call's arguments
        whose result is stored with the span (for example |a|^2 and N)."""
        self.spans: list = []
        self.job = -1
        self._keys = keys or {}
        self._stack: list = []
        self._patched: list = []
        self._cached: dict = {}
        self._cache_start: dict = {}

    def install(self) -> None:
        wrappers = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                origin = getattr(obj, "__module__", None) or ""
                if attr.startswith("_") or not origin.startswith(PACKAGE + "."):
                    continue
                cached = hasattr(obj, "cache_info")
                if not (isinstance(obj, types.FunctionType) or cached):
                    continue
                if id(obj) not in wrappers:
                    name = f"{origin.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(obj, name)
                    if cached:
                        self._cached[name] = obj
                setattr(mod, attr, wrappers[id(obj)])
                self._patched.append((mod, attr, obj))
        self._cache_start = {name: fn.cache_info() for name, fn in self._cached.items()}

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def cache_counts(self) -> dict:
        """lru_cache hits and misses of cached public functions since install."""
        out = {}
        for name, fn in self._cached.items():
            now, start = fn.cache_info(), self._cache_start[name]
            out[f"{name}.cache_hits"] = now.hits - start.hits
            out[f"{name}.cache_misses"] = now.misses - start.misses
        return out

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        key_of = self._keys.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                key = key_of(*args, **kwargs) if key_of else None
                spans[index] = (name, start, end, duration - frame[1], parent, self.job, key)

        return wrapper


def layer_totals(spans) -> dict:
    """Per span name: number of calls and summed self time."""
    out: dict = {}
    for name, _start, _end, self_s, _parent, _job, _key in spans:
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + self_s)
    return out
