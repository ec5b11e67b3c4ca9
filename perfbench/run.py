"""Run one graff benchmark workload and print its metrics.

    python3 perfbench/run.py --workload metric_sweep --seed 1 --seconds 25 --trace 0

Run it from the repository root.  It imports graff from ``src/`` of the
same tree, never from an installed package, and exits with code 2 when that
source is missing.  Each run sets up its inputs from ``--seed`` three times
(``setup_s`` is the median), then drives the workload as a closed loop for
``--seconds`` seconds, checking every output against references kept in
this directory.

Output: one line per metric with its unit and sample count, a ``# env``
line recording the machine and library versions, and last a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
loop runs half untraced and half traced, a fixed probe times every public
call the workload leaves idle, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("metric_sweep", "sampling", "cli_batch")
SETUP_REPEATS = 3
BLAS_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}

# (name, unit); the order is the order of BENCHMARK.json's end_to_end list.
END_TO_END = [
    ("setup_s", "s"),
    ("light_per_s", "1/s"),
    ("heavy_per_s", "1/s"),
    ("light_p50_ms", "ms"),
    ("light_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "graff").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy < 2 has no dict form; the version string is enough
        blas = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def peak_rss_mb(of: str) -> float:
    who = resource.RUSAGE_CHILDREN if of == "children" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for the benchmark's smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "graff" / "__init__.py").is_file():
        print(f"error: no graff source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import graff

    if Path(graff.__file__).resolve().parent != (SRC / "graff").resolve():
        print(f"error: imported graff from {graff.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import importlib

    from harness import CALIBRATION_REF_S, Clock, calibration_kernel

    module = importlib.import_module(args.workload)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = module.Workload(graff, args.seed, Path(workdir), args.scale)
        setups = []
        for _ in range(SETUP_REPEATS):
            speed = statistics.median(calibration_kernel() for _ in range(25)) / CALIBRATION_REF_S
            start = time.perf_counter()
            workload.setup()
            setups.append((time.perf_counter() - start) / speed)
        setup_s = statistics.median(setups)

        clock = Clock(graff.GraffError, getattr(workload, "calibration", None))
        if args.trace:
            result = traced_run(graff, module, workload, args.seconds, clock)
        else:
            props = workload.run(args.seconds, clock)
            result = end_to_end(module, workload, clock, setup_s)
            report(module, workload, clock, props, result, setup_s)

    print("# env " + json.dumps(environment(args)))
    units = dict(layers_units() if args.trace else END_TO_END)
    print(json.dumps({
        "correct": clock.wrong == 0,
        "attempted": clock.attempted,
        "failed": clock.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result.items()},
    }))
    return 0


def end_to_end(module, workload, clock, setup_s) -> dict:
    from harness import median, tail

    rounds = [1e3 * t for t in clock.latencies(module.LATENCY)]
    return {
        "setup_s": setup_s,
        "light_per_s": clock.rate(module.LIGHT),
        "heavy_per_s": clock.rate(module.HEAVY),
        "light_p50_ms": median(rounds),
        "light_tail_ms": tail(rounds)[0] if rounds else 0.0,
        "peak_rss_mb": peak_rss_mb(workload.rss),
    }


def report(module, workload, clock, props, result, setup_s) -> None:
    from harness import tail

    rounds = clock.latencies(module.LATENCY)
    lines = list(workload.report(clock, props))
    lines += [
        ("setup_s", setup_s, "s", SETUP_REPEATS),
        ("peak_rss_mb", result["peak_rss_mb"], "MB", 1),
        ("failed_ratio", clock.failed / max(clock.attempted, 1), "ratio",
         f"{clock.failed} failed of {clock.attempted} attempted"),
        ("known_defect_ratio", clock.known / max(clock.attempted, 1), "ratio",
         f"{clock.known} known-defect failures of {clock.attempted} attempted"),
    ]
    for name, value, unit, count in lines:
        print(f"{name} = {value:.6g} {unit} (n={count})")
    if rounds:
        value, pct = tail(rounds)
        print(f"# light requests: p50 {1e3 * statistics.median(rounds):.6g} ms, "
              f"p{pct:.1f} {1e3 * value:.6g} ms over {len(rounds)} requests")
    print(f"# times are at reference speed: calibration kernel median "
          f"{1e3 * clock.speed() * clock.reference:.4g} ms over {len(clock.calibration)} runs, "
          f"reference {1e3 * clock.reference:.4g} ms; raw time = time x {clock.speed():.4g}")
    for kind, count in sorted(clock.refusals.items()):
        print(f"# typed refusals: {kind} x{count}")
    for message, count in clock.failures.most_common(10):
        print(f"# failure x{count}: {message}")
    for message, count in clock.known_failures.most_common(10):
        print(f"# known defect x{count}: {message}")


def layers_units():
    from layers import PER_LAYER

    return [(name, unit) for name, unit, _ in PER_LAYER]


def traced_run(graff, module, workload, seconds, clock) -> dict:
    """Half the time untraced, half traced, then the probe; per-layer metrics."""
    import probe
    from layers import internal_targets, per_layer_metrics
    from spans import Tracer, patched

    untraced = type(clock)(graff.GraffError, getattr(workload, "calibration", None))
    workload.run(seconds / 2.0, untraced)
    tracer = Tracer()
    with patched(tracer, internal_targets()):
        props = workload.run(seconds / 2.0, clock, tracer)
        tracer.phase = "probe"
        props = {**probe.run(graff, workload, tracer, clock), **props}
    for name, classes in (("light", module.LIGHT), ("heavy", module.HEAVY)):
        plain, traced = untraced.rate(classes), clock.rate(classes)
        props[f"trace.overhead.{name}"] = plain / traced - 1.0 if traced else 0.0
    clock.merge(untraced)
    values = per_layer_metrics(tracer, props)
    units = dict(layers_units())
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for label, seconds_per_call in probe.table(tracer):
        print(f"# probe (k, n) = (2, 5): {label} {1e6 * seconds_per_call:.4g} us")
    for message, count in clock.failures.most_common(10):
        print(f"# failure x{count}: {message}")
    for message, count in clock.known_failures.most_common(10):
        print(f"# known defect x{count}: {message}")
    return values


if __name__ == "__main__":
    sys.exit(main())
