"""RunRecorder — snapshot one evaluation into a serializable report.

The tracer answers "where did the time go", the metrics registry
answers "how much work was done"; the recorder ties them to *one run*:
it enables observability for the duration of a ``with`` block, captures
the spans and metrics produced inside it, and attaches the structured
accounting the paper's theorems reason about — interaction counts by
degree and tree level, and the per-level accumulation of Theorem-1
error bounds — into a single JSON-serializable report.

This module deliberately imports nothing from the compute layers (it is
imported *by* them via the ``repro.obs`` package), so results and stats
objects are consumed duck-typed: anything with ``TreecodeStats``-shaped
attributes or a ``GMRESResult``-shaped history works.

Usage::

    from repro.obs import RunRecorder

    rec = RunRecorder("fig2")
    with rec:
        res = treecode.evaluate(accumulate_bounds=True)
        rec.record_treecode("fig2/u1000", res)
    rec.save("report.json")       # spans + metrics + accounting
    rec.write_trace("trace.json") # Chrome-trace view of the same run
"""

from __future__ import annotations

import json
import time

from . import metrics, tracing
from .events import emit

__all__ = ["RunRecorder"]


def _stats_dict(stats) -> dict:
    """TreecodeStats-shaped object -> plain dict (duck-typed)."""
    out = {}
    for name in (
        "n_targets",
        "n_pc_interactions",
        "n_pp_pairs",
        "n_terms",
        "build_time",
        "upward_time",
        "traverse_time",
        "eval_time",
    ):
        if hasattr(stats, name):
            out[name] = getattr(stats, name)
    for name in ("interactions_by_degree", "interactions_by_level", "bound_by_level"):
        d = getattr(stats, name, None)
        if d:
            out[name] = {str(k): v for k, v in d.items()}
    if hasattr(stats, "total_time"):
        out["total_time"] = stats.total_time
    return out


class RunRecorder:
    """Capture one observed run: spans, metrics, per-run accounting.

    Entering the recorder enables tracing/metrics (restoring the prior
    state on exit) and, by default, clears the process-wide tracer and
    registry so the report covers exactly this run.
    """

    def __init__(self, name: str, clear: bool = True):
        self.name = name
        self.clear = clear
        self.wall_time: float | None = None
        self._t0: float | None = None
        self._was_enabled: bool | None = None
        self._treecode_runs: list[dict] = []
        self._gmres_runs: list[dict] = []
        self._extra: dict = {}
        self._spans: list[dict] | None = None
        self._metrics: dict | None = None
        self._chrome: dict | None = None

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "RunRecorder":
        self._was_enabled = tracing.is_enabled()
        if self.clear:
            tracing.get_tracer().clear()
            metrics.REGISTRY.reset()
        tracing.enable()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall_time = time.perf_counter() - self._t0
        # snapshot before restoring, so later runs don't leak in
        self._spans = tracing.get_tracer().events()
        self._chrome = tracing.get_tracer().to_chrome_trace()
        self._metrics = metrics.REGISTRY.to_dict()
        tracing.set_enabled(self._was_enabled)
        emit(
            "run_summary",
            name=self.name,
            wall_s=float(self.wall_time),
            spans=len(self._spans),
            counters=dict(self._metrics.get("counters", {})),
            treecode_runs=len(self._treecode_runs),
            gmres_runs=len(self._gmres_runs),
        )
        return False

    # -- structured accounting -----------------------------------------
    def record_treecode(self, label: str, result) -> None:
        """Attach one treecode evaluation's accounting.

        ``result`` is a ``TreecodeResult``-shaped object; its stats
        (including ``bound_by_level`` when the run accumulated
        Theorem-1 bounds) are flattened into the report.
        """
        stats = getattr(result, "stats", result)
        flat = _stats_dict(stats)
        self._treecode_runs.append({"label": label, "stats": flat})
        by_level = flat.get("bound_by_level")
        if by_level:
            emit(
                "bound_ledger",
                label=label,
                total=float(sum(by_level.values())),
                by_level={k: float(v) for k, v in by_level.items()},
            )

    def record_gmres(self, label: str, result) -> None:
        """Attach one GMRES solve's residual trajectory."""
        self._gmres_runs.append(
            {
                "label": label,
                "converged": bool(getattr(result, "converged", False)),
                "n_iterations": int(getattr(result, "n_iterations", 0)),
                "n_restarts": int(getattr(result, "n_restarts", 0)),
                "residual_norm": float(getattr(result, "residual_norm", 0.0)),
                "history": [float(r) for r in getattr(result, "history", [])],
            }
        )

    def record(self, key: str, value) -> None:
        """Attach a freeform JSON-serializable value."""
        self._extra[key] = value

    # -- output --------------------------------------------------------
    def report(self) -> dict:
        """The complete serializable report for this run."""
        if self._spans is None:
            # still inside the with-block (or never entered): live view
            spans = tracing.get_tracer().events()
            mets = metrics.REGISTRY.to_dict()
        else:
            spans, mets = self._spans, self._metrics
        return {
            "name": self.name,
            "wall_time": self.wall_time,
            "spans": spans,
            "metrics": mets,
            "treecode_runs": self._treecode_runs,
            "gmres_runs": self._gmres_runs,
            "extra": self._extra,
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.report(), fh, indent=2)

    def write_trace(self, path: str) -> None:
        """Chrome-trace JSON of the captured spans (open in Perfetto)."""
        chrome = (
            self._chrome
            if self._chrome is not None
            else tracing.get_tracer().to_chrome_trace()
        )
        with open(path, "w") as fh:
            json.dump(chrome, fh)

    def write_metrics(self, path: str, fmt: str = "text") -> None:
        """Metrics exposition: Prometheus text (default) or JSON."""
        mets = (
            self._metrics if self._metrics is not None else metrics.REGISTRY.to_dict()
        )
        if fmt == "json":
            with open(path, "w") as fh:
                json.dump(mets, fh, indent=2)
            return
        if self._metrics is None:
            metrics.REGISTRY.export_text(path)
        else:
            # re-render from the snapshot is lossy; rebuild minimal text
            with open(path, "w") as fh:
                fh.write(_snapshot_text(mets))


def _snapshot_text(snapshot: dict) -> str:
    """Minimal Prometheus-style rendering of a `to_dict` snapshot."""
    lines: list[str] = []
    for kind_key, kind in (("counters", "counter"), ("gauges", "gauge")):
        for name, val in sorted(snapshot.get(kind_key, {}).items()):
            lines.append(f"# TYPE {name} {kind}")
            if isinstance(val, dict) and "series" in val:
                labels = val["labels"]
                for key, v in sorted(val["series"].items()):
                    parts = key.split(",")
                    lab = ",".join(f'{n}="{p}"' for n, p in zip(labels, parts))
                    lines.append(f"{name}{{{lab}}} {v}")
            else:
                lines.append(f"{name} {val}")
    for name, val in sorted(snapshot.get("histograms", {}).items()):
        lines.append(f"# TYPE {name} histogram")
        series = (
            val["series"].items()
            if isinstance(val, dict) and "series" in val
            else [("", val)]
        )
        labels = val.get("labels", []) if isinstance(val, dict) else []
        for key, v in series:
            parts = key.split(",") if key else []
            lab = ",".join(f'{n}="{p}"' for n, p in zip(labels, parts))
            cum = 0
            for bound, cnt in v["buckets"]:
                cum += cnt
                sep = "," if lab else ""
                lines.append(f'{name}_bucket{{{lab}{sep}le="{bound:g}"}} {cum}')
            sep = "," if lab else ""
            lines.append(f'{name}_bucket{{{lab}{sep}le="+Inf"}} {v["count"]}')
            suffix = f"{{{lab}}}" if lab else ""
            lines.append(f"{name}_sum{suffix} {v['sum']}")
            lines.append(f"{name}_count{suffix} {v['count']}")
    return "\n".join(lines) + ("\n" if lines else "")
