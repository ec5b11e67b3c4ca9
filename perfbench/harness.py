"""Closed-loop call accounting shared by the workloads.

Every public call a workload makes goes through :meth:`Clock.call`, which
times it from outside, counts it as attempted, and sorts its outcome: a
``GraffError`` is a typed refusal, any other exception a failure.  Wrong
results found by the reference checks are failures too (:meth:`Clock.check`).
A failure of an operation listed as a known defect stays in the mix but is
counted apart, in ``known``, and reported on its own lines; ``failed`` holds
only unexpected failures.  A time-bound run repeats a defect as often as its
length allows, so counting it in ``failed`` would make that count differ
from run to run of the same code, and would let a new failure hide behind it.

Work is grouped in rounds (one closed-loop request: a cloud and its
queries, a batch of draws, one chain, one invocation), each with a key naming
its kind.  A rate is the sum over keys of the median work per round over the
sum of the median time per round, so the benchmark's own checks never count
as the program's time and a stalled round moves no rate.

The machine this runs on may change speed from one second to the next, so
after every round the clock also times a fixed calibration kernel with no
graff code: by default numpy and plain Python in this process; for child
processes, ``python -c pass``.  A round's speed is the median kernel time of
the calibrations around it over the kernel's reference time; dividing the
round's time by it gives its time at reference speed, and the end-to-end
metrics are reported that way.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from collections import Counter, defaultdict
from types import SimpleNamespace

import numpy as np

__all__ = ["Clock", "tail", "median", "api_namespace", "calibration_kernel", "CALIBRATION_REF_S"]

CALIBRATION_REF_S = 5e-4
CALIBRATION_WINDOW = 6  # calibrations on each side of a round that set its speed
_CALIBRATION_MATRIX = np.random.default_rng(0).standard_normal((6, 3))


def calibration_kernel() -> float:
    """Fixed work of the same kind as a small graff call; returns its wall time."""
    start = time.perf_counter()
    for _ in range(10):
        q, _ = np.linalg.qr(_CALIBRATION_MATRIX)
        s = np.linalg.svd(q.T @ _CALIBRATION_MATRIX, compute_uv=False)
        table = {i: i * i for i in range(30)}
        sum(table.values()) + float(s.sum())
    return time.perf_counter() - start


class Clock:
    def __init__(self, refusal_type, calibration=None):
        """``calibration`` is (kernel, reference seconds, window); by default
        ``calibration_kernel``, 0.5 ms, and 6 calibrations on each side."""
        self.refusal_type = refusal_type
        self.kernel, self.reference, self.window = calibration or (
            calibration_kernel, CALIBRATION_REF_S, CALIBRATION_WINDOW)
        self.units: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.rounds: defaultdict = defaultdict(list)
        self.calibration: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.known = 0
        self.refusals: Counter = Counter()
        self.failures: Counter = Counter()
        self.known_failures: Counter = Counter()

    def call(self, cls: str, fn, *args, units: int = 1, known: str | None = None, **kwargs):
        """Run one public call; its result, or None if it raised.

        ``known`` names the known defect an untyped error of this call is.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except self.refusal_type as exc:
            self.refusals[type(exc).__name__] += 1
            return None
        except Exception as exc:  # an untyped error is a failure, counted and reported
            message = f"{getattr(fn, '__name__', fn)} raised {type(exc).__name__}: {exc}"
            if known:
                self.known_defect(f"{known}: {message}")
            else:
                self.fail(message)
            return None
        self.seconds[cls] += time.perf_counter() - start
        self.units[cls] += units
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures[message[:160]] += 1

    def check(self, ok: bool, message: str) -> bool:
        """A reference check: a wrong result is a failure and makes the run incorrect."""
        if not ok:
            self.wrong += 1
            self.fail(message)
        return ok

    def known_defect(self, message: str) -> None:
        """A failure of a known defect: counted in ``known``, not in ``failed``."""
        self.known += 1
        self.known_failures[message[:160]] += 1

    def merge(self, other: "Clock") -> None:
        """Add another clock's outcome counts (not its timings) to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.known += other.known
        self.refusals.update(other.refusals)
        self.failures.update(other.failures)
        self.known_failures.update(other.known_failures)

    @contextlib.contextmanager
    def round(self, cls: str, key, calibrations: int = 1):
        """Record the work and time of class ``cls`` inside the block as one round."""
        units, seconds = self.units[cls], self.seconds[cls]
        yield
        for _ in range(calibrations):
            self.calibration.append(self.kernel())
        if self.units[cls] > units:
            self.rounds[cls].append(
                (key, self.units[cls] - units, self.seconds[cls] - seconds, len(self.calibration)))

    def speed(self) -> float:
        """Median calibration time over the reference: above 1 on a slow machine."""
        return median(self.calibration) / self.reference if self.calibration else 1.0

    def _scaled(self, seconds: float, mark: int) -> float:
        """A round's time at reference speed, from the calibrations around it."""
        window = self.calibration[max(0, mark - self.window): mark + self.window]
        return seconds * self.reference / median(window) if window else seconds

    def latencies(self, cls: str) -> list[float]:
        """Round times of class ``cls``, at reference speed."""
        return [self._scaled(seconds, mark) for _, _, seconds, mark in self.rounds[cls]]

    def rate(self, classes) -> float:
        """Work per second at reference speed: per key, median work over median time per round."""
        by_key: defaultdict = defaultdict(list)
        for cls in classes:
            for key, units, seconds, mark in self.rounds[cls]:
                by_key[cls, key].append((units, self._scaled(seconds, mark)))
        work = sum(median([u for u, _ in v]) for v in by_key.values())
        seconds = sum(median([s for _, s in v]) for v in by_key.values())
        return work / seconds if seconds else 0.0


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that percentile.

    With ten or fewer samples there is no such percentile; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def api_namespace(names: dict, tracer=None, tags=None):
    """Public functions by short name, each wrapped in a span when traced.

    ``names`` maps a short name to its span name ``layer.function``; the
    function is looked up in the module ``graff.layer``.
    """
    tags = tags or {}
    funcs = {}
    for short, span_name in names.items():
        fn = getattr(importlib.import_module("graff." + span_name.split(".")[0]), short)
        funcs[short] = tracer.wrap(span_name, fn, tags.get(short)) if tracer else fn
    return SimpleNamespace(**funcs)
