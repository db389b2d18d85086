"""End-to-end benchmark: one workload per process.

    python3 perfbench/run.py --workload uniform-cluster --seed 1 --seconds 55 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
layers one public call at a time inside spans, prints the per-layer
metrics and writes a Chrome trace and a JSON report under
``perfbench/out/``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it repeat each metric with the number of samples behind it.
The whole process, imports and reference included, ends within
``--seconds`` unless one round of every operation takes longer.  The exit
code is 1 when any operation failed its correctness gate and 2 when the
library sources are missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  #: process start, before numpy and the library load

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

#: seconds kept free at the end of a run: an operation may run slower
#: than its previous sample, by which the scheduler predicts it
END_MARGIN_S = 1.0
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  #: glibc ``mallopt`` parameters

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = pathlib.Path(__file__).resolve().parent / "out"

WORKLOADS = ("uniform-cluster", "propeller-gmres")


def pin_environment() -> None:
    """Noise controls that must precede the first numpy import: BLAS
    and the plan executor run single-threaded, and no persistent plan
    store is consulted.

    Freed memory stays in the process, where the kernel would otherwise
    zero its pages again on the next allocation: a leapfrog step spent
    0.8-1.1 s of its ~5 s doing that.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["REPRO_NUM_WORKERS"] = "1"
    os.environ.pop("REPRO_PLAN_CACHE", None)
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:  # not glibc
        return
    for param in (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD):
        libc.mallopt(param, 1 << 30)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"library sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if not pathlib.Path(repro.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")
    import repro.obs

    repro.obs.disable()
    return repro


def run(
    workload: str, seed: int, seconds: float, trace: bool, sizes=None, out_dir=OUT
) -> tuple[dict, dict]:
    """One run; returns the result object printed as the last line, and
    the number of samples behind each time metric."""
    import endtoend
    import harness
    import traced
    import workloads
    from spans import Recorder

    sizes = sizes or workloads.Sizes()
    deadline = T0 + seconds - END_MARGIN_S
    ledger = harness.Ledger()
    inputs = workloads.make_inputs(workload, seed, sizes)
    wl = workloads.make_workload(workload, inputs)
    if trace:
        rec = Recorder(run_id=f"{workload}-seed{seed}-pid{os.getpid()}")
        values = traced.run_traced(wl, rec, deadline, ledger)
        counts = {}
        units = workloads.LAYER_UNITS
        out_dir = pathlib.Path(out_dir)
        out_dir.mkdir(exist_ok=True)
        stem = out_dir / f"{workload}-seed{seed}"
        rec.write(f"{stem}.trace.json")
        with open(f"{stem}.report.json", "w") as fh:
            json.dump(
                {
                    "workload": workload,
                    "seed": seed,
                    "host": harness.host_fingerprint(),
                    "per_layer": values,
                    "self_time_s": rec.self_times(),
                    "failures": ledger.failures,
                },
                fh,
                indent=1,
            )
    else:
        values, counts = endtoend.run_end_to_end(wl, deadline, ledger)
        units = workloads.E2E_UNITS
    metrics = {
        name: {"value": values.get(name), "unit": unit} for name, unit in units.items()
    }
    correct = ledger.failed == 0 and all(
        m["value"] is not None for m in metrics.values()
    )
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    return result, counts


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    try:
        import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness

    print(f"host: {json.dumps(harness.host_fingerprint())}", file=sys.stderr)
    result, counts = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        n = f"  median of {counts[name]}" if name in counts else ""
        print(f"{args.workload:16s} {name:22s} {m['value']!s:>24} {m['unit']}{n}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
