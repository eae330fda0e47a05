"""Benchmark of the ultratree package: two ``verify`` sweeps and an API mix.

Run from the root of a source checkout:

    python3 bench/run.py --workload api-mix --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
Workloads are listed in ``workloads.WORKLOADS``; ``bench/design.json``
records why each exists and which per-layer numbers should move which
end-to-end ones. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run. Lines before it repeat every
metric with its unit and sample count for a human reader.

End-to-end times are scaled to a nominal machine speed by a calibration
timed before, during and after the measured work (``speed.py``), because
the speed of a shared host's vCPU swings by up to 1.5x; the human-readable
lines also give the measured medians.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PACKAGE = "ultratree"
# set-up is repeated at least this often and for at least this long
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
SETUP_CAL_UNITS = 10  # calibration units before and after each set-up
OUT_DIR = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "cases_per_s": "cases/s",
    "requests_per_s": "requests/s",
    "small_p50_us": "us",
    "small_p99_us": "us",
    "large_p50_ms": "ms",
    "large_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    pass


def import_package():
    """Import ``ultratree`` afresh from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no {PACKAGE} sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if Path(package.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise SetupError(f"{PACKAGE} was imported from {package.__file__}, not {src}")
    return package


def set_up(name, seed, scale):
    """Import plus input generation, repeated; the last copy is kept.

    Returns the package, the workload and the set-up times, measured and
    scaled by the calibrations around each (see speed.py).
    """
    speed.warm_up()
    raw, scaled = [], []
    before = speed.unit_s(SETUP_CAL_UNITS)
    while len(raw) < SETUP_REPEATS or sum(raw) < SETUP_SECONDS:
        during = speed.During()
        start = time.perf_counter()
        with during:
            package = import_package()
            workload = workloads.make(package, name, seed, scale, str(OUT_DIR))
        raw.append(time.perf_counter() - start - during.spent_s)
        gc.collect()  # free the previous copy, so peak memory does not depend on the count
        after = speed.unit_s(SETUP_CAL_UNITS)
        scaled.append(raw[-1] * speed.factor([before, *during.units, after]))
        before = after
    return package, workload, (raw, scaled)


def quantile(values, q):
    """Inclusive-method quantile, the sample itself for a single value."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(samples, setup_times):
    """The end-to-end metrics of an untraced run, from times scaled to the
    nominal machine speed (speed.py); notes give the measured medians.

    On api-mix the small and large classes are request sizes. A verify
    request is one order-6 sweep taking seconds, so there the small unit is
    one case: the sweep's wall time per case checked.
    """
    raw_setup, scaled_setup = setup_times
    large = [s.scaled_s for s in samples if s.size_class == "large"]
    busy = sum(s.scaled_s for s in samples)
    if any(s.cases for s in samples):
        small = [s.scaled_s / s.cases for s in samples if s.cases]
        raw_small = [s.latency_s / s.cases for s in samples if s.cases]
        small_note = "sweeps, wall time per case"
        cases_per_s = statistics.median(s.cases / s.scaled_s for s in samples if s.cases)
        cases_note = f"median of {len(small)} sweeps"
    else:
        small = [s.scaled_s for s in samples if s.size_class == "small"]
        raw_small = [s.latency_s for s in samples if s.size_class == "small"]
        small_note = "small requests"
        cases_per_s = len(samples) / busy  # one checked answer per request
        cases_note = f"{len(samples)} checked answers"
    raw_large = [s.latency_s for s in samples if s.size_class == "large"]
    measured = (
        f"measured median {statistics.median(raw_small) * 1e6:.6g} us per small unit, "
        f"{statistics.median(raw_large) * 1e3:.6g} ms per large request"
    )
    values = {
        "cases_per_s": (cases_per_s, cases_note),
        "requests_per_s": (len(samples) / busy, f"{len(samples)} requests; {measured}"),
        "small_p50_us": (statistics.median(small) * 1e6, f"{len(small)} {small_note}"),
        "small_p99_us": (quantile(small, 0.99) * 1e6, _beyond(small, 0.99)),
        "large_p50_ms": (statistics.median(large) * 1e3, f"{len(large)} large requests"),
        "large_p90_ms": (quantile(large, 0.90) * 1e3, _beyond(large, 0.90)),
        "setup_s": (
            statistics.median(scaled_setup),
            f"median of {len(scaled_setup)} set-ups, measured median {statistics.median(raw_setup):.6g} s",
        ),
        "peak_rss_mb": (peak_rss_mb(), "whole process"),
    }
    return {k: (v, END_TO_END_UNITS[k], note) for k, (v, note) in values.items()}


def _beyond(values, q):
    return f"{len(values)} samples, {int(len(values) * (1 - q))} beyond"


def run_traced(package, workload, name, seed, seconds):
    """Alternate untraced and traced passes over the same units of work
    while the time left is at least half a pair of passes; per-layer numbers
    come from the traced passes and are given per traced request."""
    tracer = tracing.Tracer(package)
    verify_jobs = workloads.VERIFY.get(name, (None, 1))[1]
    samples, traced = [], []
    plain_wall = traced_wall = pool_cpu = 0.0
    negatives = [0]

    def on_negative():
        negatives[0] += 1

    deadline = time.perf_counter() + seconds
    for unit in workload.trace_units():
        pair_start = time.perf_counter()
        for item in unit:
            sample = workload.request(item)
            plain_wall += sample.latency_s
            samples.append(sample)
        with tracer.installed():
            for item in unit:
                tracer.request_id += 1
                cpu = workloads.child_cpu_s()
                sample = workload.request(item, on_negative)
                pool_cpu += workloads.child_cpu_s() - cpu
                traced_wall += sample.latency_s
                samples.append(sample)
                traced.append(sample)
        now = time.perf_counter()
        if deadline - now < (now - pair_start) / 2:
            break

    per = len(traced)
    metrics = {}
    for mod_name, functions in tracing.REPORTED.items():
        for fn in functions:
            q = f"{mod_name}.{fn}"
            metrics[f"{q}.calls"] = (tracer.calls.get(q, 0) / per, "count")
            metrics[f"{q}.self_s"] = (tracer.self_s.get(q, 0.0) / per, "s")
    covered = 0.0
    for mod_name in tracing.MODULES:
        self_s = tracer.module_self_s(mod_name)
        covered += self_s
        metrics[f"{mod_name}.self_s"] = (self_s / per, "s")
        metrics[f"{mod_name}.share"] = (self_s / traced_wall, "fraction")
    is_sweep = name in workloads.VERIFY
    ce_calls = tracer.calls.get("labelings.counterexample_labeling", 0) if is_sweep else 0
    metrics.update({
        "verify.cases": (sum(s.cases for s in traced) / per, "count"),
        "verify.counterexample_checks": (ce_calls / per, "count"),
        "verify.pool_cpu_s": (pool_cpu / per, "s"),
        "verify.pool_efficiency": (pool_cpu / (verify_jobs * traced_wall), "fraction"),
        "spaces.isometric_shortcut_ratio": (
            tracer.isometric_shortcuts / tracer.isometric_calls if tracer.isometric_calls else 0.0,
            "fraction",
        ),
        "errors.negative_answers": (negatives[0] / per, "count"),
        "trace.overhead": (traced_wall / plain_wall, "ratio"),
        "trace.wall_s": (traced_wall / per, "s"),
        "trace.coverage": (covered / traced_wall, "fraction"),
    })
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.tsv")
    def note(unit):
        per_request = "" if unit in ("fraction", "ratio") else "per traced request, "
        return f"{per_request}{per} traced requests"

    return samples, {k: (v, unit, note(unit)) for k, (v, unit) in metrics.items()}


def run_info(seed):
    """Where the numbers came from: code, interpreter and machine."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None, scale=inputs.Scale()):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        package, workload, setup_times = set_up(args.workload, args.seed, scale)
    except SetupError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        samples = workload.warm_up()
        gc.collect()
        gc.freeze()  # the benchmark's own inputs are not the program's garbage
        if args.trace:
            measured, metrics = run_traced(package, workload, args.workload, args.seed, args.seconds)
        else:
            measured = workload.measure(args.seconds)
            metrics = end_to_end(measured, setup_times)
        samples += measured
    finally:
        gc.unfreeze()
        report = getattr(workload, "report_path", None)
        if report and os.path.exists(report):
            os.remove(report)

    failed = sum(not s.ok for s in samples)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("run " + json.dumps(run_info(args.seed)))
    for key, (value, unit, note) in metrics.items():
        print(f"{key} = {value:.6g} {unit}  ({note})")
    print(f"failed_frac = {failed / len(samples):.6g} fraction  ({failed} of {len(samples)} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
