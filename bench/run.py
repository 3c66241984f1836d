"""fockdict benchmark: oracle-checked workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload verify|displace|transform --seed N
                         --seconds S --trace 0|1

Run from the repository root; fockdict is imported from ./src.  A run
repeats passes of the workload until S seconds have gone (at least
MIN_PASSES).  A pass is the workload's library session (displace,
transform) followed by its verify-suite calls at degrees 64 and 128, each
part in a fresh interpreter, so lru caches start cold as they do for every
CLI call.  Pass k draws its inputs from (seed, k).  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics with tracing off.  --trace 1 runs
each pass twice, untraced then traced, and reports the per-layer metrics of
the traced passes plus the tracing overhead.  The full record (inputs,
per-job times and errors, spans) goes to .bench_out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("verify", "displace", "transform")
SUITE_DEGREES = (64, 128)
MIN_PASSES = 3
SETUP_PROBES = 6
SUITE_REPEATS = 2
RUN_LIMIT_S = 170.0
GROSS_ERROR = 1e-3  # an oracle error above this is a wrong answer, not lost digits
DIGITS_CAP = 17.0


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


class Runner:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.start = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        # one caller in one process: pin BLAS to one thread (at most nproc);
        # on a 2-core host two OpenBLAS threads made some 256-point eigvalsh
        # calls 70x slower whenever the other core was busy
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.setups: list[float] = []
        self.repeats: list = []
        self.setup_part = next(self.parts())[0]

    def parts(self):
        if self.workload != "verify":
            yield ("session", 0)
        for degree in SUITE_DEGREES:
            yield ("suites", degree)

    def worker(self, part: str, degree: int, pass_index: int, traced=False, setup_only=False) -> dict:
        remaining = RUN_LIMIT_S - (time.monotonic() - self.start)
        if remaining <= 0:
            fail("run time limit reached")
        argv = [sys.executable, str(WORKER), "--workload", self.workload, "--part", part,
                "--degree", str(degree), "--seed", str(self.seed), "--pass", str(pass_index)]
        argv += ["--trace"] * traced + ["--setup-only"] * setup_only
        t0 = time.monotonic()
        try:
            proc = subprocess.run(argv + ["--t0", repr(t0)], env=self.env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            fail(f"{part} worker exceeded the run time limit")
        if proc.returncode != 0:
            fail(f"{part} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if part == self.setup_part:
            self.setups.append(result["setup_s"])
        return result

    def run_pass(self, pass_index: int, traced: bool) -> dict:
        """Worker results keyed session, suites64, suites128.  Untraced runs
        of the library-session workloads repeat their short suite calls (kept
        in self.repeats as (degree, result)), so that verify_deg*_s rests on
        more than one sample per pass."""
        parts = {}
        for part, degree in self.parts():
            label = f"{part}{degree or ''}"
            parts[label] = self.worker(part, degree, pass_index, traced)
            if part == "suites" and self.workload != "verify" and not self.trace:
                for _ in range(SUITE_REPEATS - 1):
                    self.repeats.append((degree, self.worker(part, degree, pass_index, traced)))
        return parts


def part_seconds(part: dict) -> float:
    return sum(job["seconds"] for job in part["jobs"])


def pass_total(parts: dict) -> float:
    """total_s: the library session, or for verify its two CLI calls."""
    if "session" in parts:
        return part_seconds(parts["session"])
    return sum(part_seconds(parts[f"suites{d}"]) for d in SUITE_DEGREES)


def suite_samples(passes: list, repeats: list, degree: int) -> list[float]:
    return ([part_seconds(parts[f"suites{degree}"]) for parts in passes]
            + [part_seconds(part) for d, part in repeats if d == degree])


def checks_of(parts):
    for part in parts:
        for job in part["jobs"]:
            if job["raised"]:
                yield ("raised", math.inf, 0.0)
            yield from job["checks"]


def pass_digits(parts: dict) -> float:
    errors = [err for _label, err, tol in checks_of(parts.values()) if tol > 0]
    return min(-math.log10(max(err, 10.0**-DIGITS_CAP)) for err in errors)


def gross(err: float, tol: float) -> bool:
    return not (err <= GROSS_ERROR) if tol > 0 else not math.isfinite(err)


def end_to_end(passes: list, runner: Runner) -> dict:
    med = statistics.median
    checks = [c for parts in passes for c in checks_of(parts.values())]
    missed = sum(1 for _label, err, tol in checks if not err <= tol)
    return {
        "setup_s": (med(runner.setups), "s"),
        "total_s": (med(pass_total(p) for p in passes), "s"),
        "verify_deg64_s": (med(suite_samples(passes, runner.repeats, 64)), "s"),
        "verify_deg128_s": (med(suite_samples(passes, runner.repeats, 128)), "s"),
        "accuracy_digits": (med(pass_digits(p) for p in passes), "digits"),
        "passed_share": (1.0 - missed / len(checks), "ratio"),
        "peak_rss_mib": (med(max(part["peak_rss_mib"] for part in p.values()) for p in passes), "MiB"),
    }


def per_layer(traced: list, untraced: list) -> dict:
    """The per-layer metrics BENCHMARK.json lists, each summed over the parts
    of a traced pass and then the median over traced passes."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    units = {m["name"]: m["unit"] for m in listed if m["name"] != "trace_overhead_s"}

    def values(parts):
        out = dict.fromkeys(units, 0)
        for part in parts.values():
            counts = dict(part["cache"])
            for name, layer in part["layers"].items():
                counts[f"{name}.calls"], counts[f"{name}.self_s"] = layer["calls"], layer["self_s"]
            for kind, seconds in part["weyl_split"].items():
                counts[f"operators.weyl_matrix.self_s.{kind}"] = seconds
            for key in out.keys() & counts.keys():
                out[key] += counts[key]
        return out

    per_pass = [values(p) for p in traced]
    metrics = {key: (statistics.median(v[key] for v in per_pass), unit) for key, unit in units.items()}
    overhead = [sum(map(part_seconds, t.values())) - sum(map(part_seconds, u.values()))
                for t, u in zip(traced, untraced)]
    metrics["trace_overhead_s"] = (statistics.median(overhead), "s")
    return metrics


def attribution(parts: dict) -> list[str]:
    lines = []
    for label, part in parts.items():
        total = part_seconds(part)
        top = sorted(part["layers"].items(), key=lambda kv: -kv[1]["self_s"])[:5]
        shares = ", ".join(f"{name} {layer['self_s']:.3f}s ({layer['self_s'] / total:.0%})" for name, layer in top)
        lines.append(f"  {label}: jobs {total:.3f}s; top self time: {shares}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = parser.parse_args()
    if not (ROOT / "src" / "fockdict" / "__init__.py").is_file():
        fail(f"no fockdict sources under {ROOT / 'src'}; run from a repository checkout")

    runner = Runner(opts.workload, opts.seed, bool(opts.trace))
    for _ in range(SETUP_PROBES):
        runner.worker(*next(runner.parts()), 0, setup_only=True)
    deadline = runner.start + opts.seconds
    untraced, traced = [], []
    while True:
        k = len(untraced)
        untraced.append(runner.run_pass(k, traced=False))
        if opts.trace:
            traced.append(runner.run_pass(k, traced=True))
        if time.monotonic() >= deadline and len(untraced) >= (1 if opts.trace else MIN_PASSES):
            break

    passes = traced if opts.trace else untraced
    env = next(iter(passes[0].values()))["env"]
    every_part = [part for parts in passes for part in parts.values()] + [part for _d, part in runner.repeats]
    jobs = [job for part in every_part for job in part["jobs"]]
    failed = sum(1 for job in jobs if job["raised"])
    correct = failed == 0 and not any(gross(err, tol) for _label, err, tol in checks_of(every_part))
    checks = [c for parts in passes for c in checks_of(parts.values())]
    metrics = per_layer(traced, untraced) if opts.trace else end_to_end(untraced, runner)

    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    record.write_text(json.dumps({"workload": opts.workload, "seed": opts.seed, "env": env,
                                  "setups": runner.setups, "untraced": untraced, "traced": traced,
                                  "suite_repeats": runner.repeats,
                                  "metrics": metrics}))

    print(f"env: {json.dumps(env)}")
    print("timing: process-local only (perf_counter around each call, in the worker); "
          "the file cache is not dropped and no system-wide tracing is used")
    print(f"load: closed loop, one caller, one process per part; {len(untraced)} passes; "
          f"setup samples {len(runner.setups)}")
    for k, parts in enumerate(passes):
        digests = " ".join(f"{label}={part['digest']}" for label, part in parts.items())
        print(f"pass {k} inputs: {digests}")
        weyl = [job["spec"] for job in parts.get("session", {"jobs": []})["jobs"] if "depth" in job["spec"]]
        if weyl:
            degrees = sorted({spec["N"] for spec in weyl})
            print(f"pass {k} weyl jobs by N (all / cancellation depth > 10 digits): " + ", ".join(
                f"{N}: {sum(w['N'] == N for w in weyl)}/{sum(w['N'] == N and w['depth'] > 10 for w in weyl)}"
                for N in degrees))
        if opts.trace:
            print("\n".join(attribution(parts)))
    missed = sum(1 for _label, err, tol in checks if not err <= tol)
    print(f"checks: {len(checks)} outputs checked, {missed} missed their contract, "
          f"{failed} calls raised; record {record.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}))


if __name__ == "__main__":
    main()
