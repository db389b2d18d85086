"""Timing, correctness accounting and host facts for the benchmark."""

from __future__ import annotations

import gc
import io
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout

import numpy as np


class Ledger:
    """Counts the operations a run attempted and those that failed.

    An operation fails when it raises, or when its correctness gate
    returns a problem (non-finite output, error above the workload's
    ceiling, an unconverged solve, a batch column off its single-vector
    result).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, op: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{op}: {problem}")
            print(f"FAILED {op}: {problem}", file=sys.stderr)
        return problem is None

    def attempt(self, op: str, fn, gate):
        """Run ``fn()``; count it as failed when it raises or when
        ``gate(result)`` names a problem.  Returns the result, or
        ``None`` on failure."""
        try:
            out = fn()
            problem = gate(out)
        except Exception:  # the run continues and reports the failure
            out, problem = None, "raised\n" + traceback.format_exc()
        return out if self.record(op, problem) else None


class Clock:
    """One timed sample: ``gc.collect()`` before, gc off inside.

    ``mark(name)`` records the time since the sample started, so one
    sample can yield several nested intervals (set-up inside one-shot).
    """

    def __enter__(self) -> "Clock":
        gc.collect()
        gc.disable()
        self.marks: dict[str, float] = {}
        self._t0 = time.perf_counter()
        return self

    def mark(self, name: str) -> float:
        self.marks[name] = time.perf_counter() - self._t0
        return self.marks[name]

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._t0
        gc.enable()


def median(values) -> float:
    return float(statistics.median(values))


def relative_error(approx, exact) -> float:
    """Relative 2-norm error of ``approx`` against ``exact``."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    return float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))


def accuracy_gate(ceiling: float):
    """Gate for a potential: finite, and within ``ceiling`` relative
    error of the exact reference.  ``check(approx, exact)`` returns a
    problem string or ``None``."""

    def check(approx, exact) -> str | None:
        if not np.all(np.isfinite(approx)):
            return "non-finite output"
        err = relative_error(approx, exact)
        if not err <= ceiling:
            return f"rel_err {err:.3e} above ceiling {ceiling:.1e}"
        return None

    return check


def batch_gate(batch, singles, tol: float) -> str | None:
    """Each batch column must match its single-vector result within
    ``tol`` relative to that result's largest magnitude."""
    batch = np.asarray(batch)
    if not np.all(np.isfinite(batch)):
        return "non-finite batch output"
    for j, single in enumerate(singles):
        diff = np.abs(batch[:, j] - single).max() / np.abs(single).max()
        if not diff <= tol:
            return f"batch column {j} differs from its single result by {diff:.2e}"
    return None


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gemm_gflops(size: int = 768, reps: int = 7) -> float:
    """Single-thread float64 GEMM rate: the denominator for the plan's
    achieved M2L rate.  Median of ``reps`` timed products."""
    rng = np.random.default_rng(0)
    a = rng.random((size, size))
    b = rng.random((size, size))
    a @ b  # discarded warm-up
    times = []
    for _ in range(reps):
        with Clock() as c:
            a @ b
        times.append(c.elapsed)
    return 2.0 * size**3 / median(times) / 1e9


def host_fingerprint() -> dict:
    """CPU model, core count, BLAS build and library versions."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    buf = io.StringIO()
    with redirect_stdout(buf):
        np.show_config()
    blas = [ln.strip() for ln in buf.getvalue().splitlines() if "name:" in ln]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas": blas[:2],
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
