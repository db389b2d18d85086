"""Process-wide metrics registry: counters, gauges, log-bucketed histograms.

The paper's cost metric is a set of *counts* — multipole terms
evaluated, particle-cluster interactions by degree and by tree level,
near-field pairs — and this module makes those counts first-class
runtime telemetry instead of fields scattered across per-run stats
objects.  Three instrument types:

* :class:`Counter` — monotonically increasing totals
  (``pc_interactions``, ``terms_evaluated``, ``gmres_iterations``);
* :class:`Gauge` — last-value observations (``tree_height``,
  ``gmres_residual``);
* :class:`Histogram` — log-bucketed distributions (far-chunk sizes,
  per-leaf near-field block sizes, the GMRES residual trajectory).
  Buckets are powers of a configurable ``base`` (default 2), so values
  spanning many orders of magnitude — residuals from 1 to 1e-12, block
  sizes from 1 to 1e6 — land in a compact, fixed set of buckets.

Instruments support Prometheus-style labels
(``registry.counter("pc_interactions_by_degree", labelnames=("degree",))
.labels(degree=5).inc(n)``) and two expositions: Prometheus text format
(:meth:`MetricsRegistry.render_text`) and a JSON-friendly dict
(:meth:`MetricsRegistry.to_dict`).

All mutation is lock-protected, so the parallel executor's worker
threads can update shared instruments; get-or-create registration makes
call sites self-contained (``REGISTRY.counter("x").inc()``).
"""

from __future__ import annotations

import json
import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "bucket_quantiles",
]


def bucket_quantiles(
    buckets: list, count: int, qs: tuple = (0.5, 0.95, 0.99)
) -> dict[float, float | None]:
    """Estimate quantiles from ``(upper_bound, count)`` log buckets.

    The rank-``q`` observation is located in its bucket by cumulative
    count; within the bucket the value is geometrically interpolated
    between the bucket's bounds (log buckets make ratios, not
    differences, the natural distance).  Observations in the ``<= 0``
    bucket (bound ``0.0``) estimate as 0.  Returns ``{q: estimate}``
    with ``None`` entries when there are no observations.
    """
    if count <= 0 or not buckets:
        return {q: None for q in qs}
    out: dict[float, float | None] = {}
    for q in qs:
        target = max(1, math.ceil(q * count))
        cum = 0
        prev_bound = 0.0
        est: float | None = None
        for bound, cnt in buckets:
            if cnt and cum + cnt >= target:
                if bound <= 0.0:
                    est = 0.0
                elif prev_bound <= 0.0:
                    est = float(bound)
                else:
                    frac = (target - cum) / cnt
                    est = float(prev_bound * (bound / prev_bound) ** frac)
                break
            cum += cnt
            prev_bound = float(bound)
        if est is None:  # ranks past the last bucket (shouldn't happen)
            est = float(buckets[-1][0])
        out[q] = est
    return out


def _label_key(labelnames: tuple, kv: dict) -> tuple:
    if set(kv) != set(labelnames):
        raise ValueError(f"expected labels {labelnames}, got {tuple(kv)}")
    return tuple(str(kv[name]) for name in labelnames)


def _label_str(labelnames: tuple, key: tuple) -> str:
    if not labelnames:
        return ""
    inner = ",".join(f'{n}="{v}"' for n, v in zip(labelnames, key))
    return "{" + inner + "}"


class _Instrument:
    """Shared machinery: name, help text, labels, child management."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: tuple = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple, "_Instrument"] = {}

    def labels(self, **kv) -> "_Instrument":
        """The child instrument for one label combination (created on
        first use)."""
        if not self.labelnames:
            raise ValueError(f"{self.name} has no labels")
        key = _label_key(self.labelnames, kv)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = type(self)(self.name, self.help)
                self._children[key] = child
            return child

    def _check_unlabeled(self) -> None:
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")

    def _items(self) -> list[tuple[tuple, "_Instrument"]]:
        """(label-key, instrument) pairs to render — children if labeled,
        self otherwise."""
        if self.labelnames:
            with self._lock:
                return sorted(self._children.items())
        return [((), self)]


class Counter(_Instrument):
    """Monotonic counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: tuple = ()):
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._check_unlabeled()
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _render(self, labels: str) -> list[str]:
        v = self._value
        return [f"{self.name}{labels} {int(v) if v == int(v) else v}"]

    def _json(self):
        v = self._value
        return int(v) if v == int(v) else v


class Gauge(_Instrument):
    """Last-value gauge."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: tuple = ()):
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def set(self, value: float) -> None:
        self._check_unlabeled()
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        self._check_unlabeled()
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _render(self, labels: str) -> list[str]:
        return [f"{self.name}{labels} {self._value}"]

    def _json(self):
        return self._value


class Histogram(_Instrument):
    """Log-bucketed histogram.

    A positive observation ``v`` lands in the bucket with upper bound
    ``base**k`` for the smallest integer ``k`` with ``v <= base**k``;
    non-positive observations land in a dedicated ``le="0"`` bucket.
    Buckets are sparse (a dict keyed by exponent), so the instrument
    costs O(occupied buckets) regardless of the value range.
    """

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", labelnames: tuple = (), base: float = 2.0
    ):
        super().__init__(name, help, labelnames)
        if base <= 1.0:
            raise ValueError(f"base must be > 1, got {base}")
        self.base = float(base)
        self._buckets: dict[int, int] = {}  # exponent -> count
        self._zero = 0  # observations <= 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def labels(self, **kv):
        if not self.labelnames:
            raise ValueError(f"{self.name} has no labels")
        key = _label_key(self.labelnames, kv)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = Histogram(self.name, self.help, base=self.base)
                self._children[key] = child
            return child

    def observe(self, value: float, n: int = 1) -> None:
        """Record ``n`` observations of ``value``."""
        self._check_unlabeled()
        value = float(value)
        with self._lock:
            self._count += n
            self._sum += value * n
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            if value <= 0.0:
                self._zero += n
            else:
                k = math.ceil(math.log(value, self.base))
                # guard rounding: ensure value <= base**k
                if value > self.base**k:
                    k += 1
                self._buckets[k] = self._buckets.get(k, 0) + n

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_bounds(self) -> list[tuple[float, int]]:
        """(upper_bound, count) per occupied bucket, ascending;
        the ``<= 0`` bucket reports bound ``0.0``."""
        with self._lock:
            out = [(0.0, self._zero)] if self._zero else []
            out += [(self.base**k, c) for k, c in sorted(self._buckets.items())]
        return out

    def _render(self, labels: str) -> list[str]:
        # Prometheus histograms are cumulative over `le` bounds.
        base_labels = labels[1:-1] if labels else ""
        lines = []
        cum = 0
        for bound, cnt in self.bucket_bounds():
            cum += cnt
            le = f"{bound:g}"
            sep = "," if base_labels else ""
            lines.append(f'{self.name}_bucket{{{base_labels}{sep}le="{le}"}} {cum}')
        sep = "," if base_labels else ""
        lines.append(f'{self.name}_bucket{{{base_labels}{sep}le="+Inf"}} {self._count}')
        lines.append(f"{self.name}_sum{labels} {self._sum}")
        lines.append(f"{self.name}_count{labels} {self._count}")
        return lines

    def quantile(self, q: float) -> float | None:
        """Bucket-estimated quantile (see :func:`bucket_quantiles`)."""
        return bucket_quantiles(self.bucket_bounds(), self._count, (q,))[q]

    def _json(self):
        buckets = self.bucket_bounds()
        quantiles = bucket_quantiles(buckets, self._count)
        return {
            "count": self._count,
            "sum": self._sum,
            "min": None if self._count == 0 else self._min,
            "max": None if self._count == 0 else self._max,
            "base": self.base,
            "buckets": [[b, c] for b, c in buckets],
            "p50": quantiles[0.5],
            "p95": quantiles[0.95],
            "p99": quantiles[0.99],
        }


class MetricsRegistry:
    """Named collection of instruments with get-or-create semantics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name, help, labelnames, **kw):
        with self._lock:
            inst = self._metrics.get(name)
            if inst is None:
                inst = cls(name, help, labelnames=tuple(labelnames), **kw)
                self._metrics[name] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {inst.kind}"
                )
            return inst

    def counter(self, name: str, help: str = "", labelnames: tuple = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: tuple = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self, name: str, help: str = "", labelnames: tuple = (), base: float = 2.0
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, base=base)

    def get(self, name: str) -> _Instrument | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def reset(self) -> None:
        """Drop every instrument (a fresh run starts from zero)."""
        with self._lock:
            self._metrics.clear()

    def render_text(self) -> str:
        """Prometheus-style text exposition."""
        lines: list[str] = []
        with self._lock:
            metrics = [self._metrics[k] for k in sorted(self._metrics)]
        for m in metrics:
            if m.help:
                lines.append(f"# HELP {m.name} {m.help}")
            lines.append(f"# TYPE {m.name} {m.kind}")
            for key, child in m._items():
                lines.extend(child._render(_label_str(m.labelnames, key)))
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict:
        """JSON-friendly snapshot grouped by instrument kind."""
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        with self._lock:
            metrics = [self._metrics[k] for k in sorted(self._metrics)]
        for m in metrics:
            group = out[m.kind + "s"]
            if m.labelnames:
                group[m.name] = {
                    "labels": list(m.labelnames),
                    "series": {
                        ",".join(key): child._json() for key, child in m._items()
                    },
                }
            else:
                group[m.name] = m._json()
        return out

    def export_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    def export_text(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.render_text())


#: The process-wide registry used by the instrumentation hooks.
REGISTRY = MetricsRegistry()
