"""One pass of one workload part, in a fresh interpreter.

    python3 bench/worker.py --workload W --part session|suites [--degree D]
                            --seed S --pass K --t0 T [--trace] [--setup-only]

``--t0`` is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so setup_s covers
interpreter start, the fockdict import and the warm-up call.  Prints one
JSON object on its last stdout line.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import time
import traceback

# only the standard library is loaded before setup() is timed
PARSER = argparse.ArgumentParser()
PARSER.add_argument("--workload", required=True)
PARSER.add_argument("--part", choices=["session", "suites"], required=True)
PARSER.add_argument("--degree", type=int, default=0)
PARSER.add_argument("--seed", type=int, required=True)
PARSER.add_argument("--pass", dest="pass_index", type=int, default=0)
PARSER.add_argument("--t0", type=float, required=True)
PARSER.add_argument("--trace", action="store_true")
PARSER.add_argument("--setup-only", action="store_true")


def setup(part: str) -> float:
    """Import the library as a user would and make the warm-up call; its
    input (a 9-node rule) is disjoint from every job's."""
    import fockdict

    if part == "suites":
        import fockdict.cli  # noqa: F401
    fockdict.hermite.gauss_hermite(9)
    return time.monotonic()


def environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_jobs(jobs, tracer) -> list[dict]:
    records = []
    for index, job in enumerate(jobs):
        if tracer:
            tracer.job = index
        output, raised = None, None
        start = time.perf_counter()
        try:
            output = job.run()
        except Exception:  # a failing call is counted, and the pass goes on
            raised = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        records.append({"group": job.group, "spec": job.spec, "seconds": seconds,
                        "raised": raised, "output": output})
    return records


def main() -> None:
    opts = PARSER.parse_args()
    ready = setup(opts.part)
    result = {"setup_s": ready - opts.t0}
    if opts.setup_only:
        print(json.dumps(result))
        return

    import warnings

    import numpy as np

    import workloads
    from fockdict.errors import AccuracyWarning
    from tracer import Tracer, layer_totals

    warnings.simplefilter("ignore", AccuracyWarning)
    if opts.part == "session":
        jobs = workloads.SESSIONS[opts.workload](np.random.default_rng([opts.seed, opts.pass_index]))
    else:
        jobs = workloads.suite_jobs(opts.workload, opts.degree, opts.seed)
    result["digest"] = workloads.digest(jobs)
    tracer = None
    if opts.trace:
        tracer = Tracer(keys={"operators.weyl_matrix": lambda a, degree, *rest, **kw: (abs(complex(a)) ** 2, degree)})
        tracer.install()
    records = run_jobs(jobs, tracer)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        result["cache"] = tracer.cache_counts()

    # untimed from here on
    for job, rec in zip(jobs, records):
        output = rec.pop("output")
        rec["checks"] = [] if rec["raised"] else [list(c) for c in job.check(output)]
        if job.group.startswith("weyl"):
            rec["spec"]["depth"] = workloads.oracle("weyl_depth", rec["spec"]["r"], rec["spec"]["N"])
    result.update(jobs=records, env=environment())
    if tracer:
        depth = {}
        split = {"shallow": 0.0, "deep": 0.0}
        for name, _s, _e, self_s, _p, _j, key in tracer.spans:
            if name == "operators.weyl_matrix":
                if key not in depth:
                    depth[key] = workloads.oracle("weyl_depth", *key)
                split["deep" if depth[key] > 10.0 else "shallow"] += self_s
        result["layers"] = {name: {"calls": calls, "self_s": self_s}
                            for name, (calls, self_s) in layer_totals(tracer.spans).items()}
        result["weyl_split"] = split
        result["spans"] = tracer.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
