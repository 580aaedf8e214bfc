"""Metrics registry: counters, gauges and histograms for simulation runs.

A deliberately small, dependency-free subset of the Prometheus data model:

* :class:`Counter` — monotonically increasing total;
* :class:`Gauge` — last-written value;
* :class:`Histogram` — cumulative fixed-bucket distribution with
  ``_count`` / ``_sum``.

Registries serialize to plain-dict **snapshots** (sorted, JSON-friendly)
that merge associatively across parallel workers:
counters and histograms add, gauges take the maximum. Every metric
recorded by :mod:`repro.observe.instrument` is derived from the
deterministic trace stream, so merged snapshots are byte-identical
whatever the worker count — the property the CI determinism job diffs.

Wall-clock profiling values (scheduler-pass decision latency) are kept
under a separate ``profile`` section that is excluded from snapshots by
default precisely because it is *not* deterministic.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram buckets for simulated-millisecond durations.
MS_BUCKETS: Tuple[float, ...] = (
    1.0, 5.0, 10.0, 50.0, 80.0, 100.0, 200.0, 500.0,
    1_000.0, 5_000.0, 10_000.0, 60_000.0,
)

#: Buckets for scheduler token sums observed at selection time.
TOKEN_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
)

#: Buckets for wall-clock decision latency (seconds; profiling only).
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1,
)


class MetricError(ReproError):
    """Invalid metric name, type collision or malformed snapshot."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricError(f"invalid metric name {name!r}")
    return name


def _format_value(value: float) -> str:
    """Deterministic Prometheus-text rendering of a sample value."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise MetricError(f"counters only go up, got inc({amount})")
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = float(value)


class Histogram:
    """Cumulative fixed-bucket histogram (Prometheus semantics)."""

    __slots__ = ("buckets", "bucket_counts", "count", "sum")

    def __init__(self, buckets: Sequence[float] = MS_BUCKETS) -> None:
        uppers = tuple(float(b) for b in buckets)
        if not uppers or list(uppers) != sorted(set(uppers)):
            raise MetricError(
                f"histogram buckets must be strictly increasing, got {buckets}"
            )
        self.buckets = uppers
        # Stored cumulative: a sample counts in every bucket whose upper
        # bound it does not exceed.
        self.bucket_counts = [0] * len(uppers)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.sum += value
        if value != value:
            return  # NaN is below no upper bound (bisect would say 0)
        counts = self.bucket_counts
        # First bucket with ``value <= upper``; every later one holds it too.
        for index in range(bisect_left(self.buckets, value), len(counts)):
            counts[index] += 1


_KINDS = ("counter", "gauge", "histogram")


class MetricsRegistry:
    """A named collection of metrics with snapshot/merge/export support."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Tuple[str, str, object]] = {}

    def _get_or_create(self, name: str, kind: str, help_text: str, factory):
        existing = self._metrics.get(_check_name(name))
        if existing is not None:
            if existing[0] != kind:
                raise MetricError(
                    f"metric {name!r} already registered as {existing[0]}, "
                    f"not {kind}"
                )
            return existing[2]
        metric = factory()
        self._metrics[name] = (kind, help_text, metric)
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Register (or fetch) a counter."""
        return self._get_or_create(name, "counter", help_text, Counter)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Register (or fetch) a gauge."""
        return self._get_or_create(name, "gauge", help_text, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = MS_BUCKETS,
    ) -> Histogram:
        """Register (or fetch) a histogram."""
        return self._get_or_create(
            name, "histogram", help_text, lambda: Histogram(buckets)
        )

    def names(self) -> List[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict, JSON-friendly view of every metric (sorted keys)."""
        counters: Dict[str, dict] = {}
        gauges: Dict[str, dict] = {}
        histograms: Dict[str, dict] = {}
        for name in sorted(self._metrics):
            kind, help_text, metric = self._metrics[name]
            if kind == "counter":
                counters[name] = {"help": help_text, "value": metric.value}
            elif kind == "gauge":
                gauges[name] = {"help": help_text, "value": metric.value}
            else:
                histograms[name] = {
                    "help": help_text,
                    "buckets": list(metric.buckets),
                    "bucket_counts": list(metric.bucket_counts),
                    "count": metric.count,
                    "sum": metric.sum,
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def load_snapshot(self, snapshot: dict) -> None:
        """Fold a snapshot's samples into this registry (used by merge)."""
        for name, record in snapshot.get("counters", {}).items():
            self.counter(name, record.get("help", "")).inc(record["value"])
        for name, record in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name, record.get("help", ""))
            gauge.set(max(gauge.value, record["value"]))
        for name, record in snapshot.get("histograms", {}).items():
            histogram = self.histogram(
                name, record.get("help", ""), record["buckets"]
            )
            if list(histogram.buckets) != list(record["buckets"]):
                raise MetricError(
                    f"histogram {name!r} bucket mismatch while merging"
                )
            histogram.count += record["count"]
            histogram.sum += record["sum"]
            for index, bucket_count in enumerate(record["bucket_counts"]):
                histogram.bucket_counts[index] += bucket_count


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Associatively merge worker snapshots into one.

    Counters and histograms add; gauges keep their maximum (a run-final
    reading — e.g. the longest simulated horizon across workers). The
    result is independent of how runs were partitioned over workers, which
    is what makes ``--jobs N`` metrics identical to serial ones.
    """
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.load_snapshot(snapshot)
    return merged.snapshot()


def to_prometheus(snapshot: dict) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: List[str] = []

    def emit_header(name: str, record: dict, kind: str) -> None:
        if record.get("help"):
            lines.append(f"# HELP {name} {record['help']}")
        lines.append(f"# TYPE {name} {kind}")

    for name, record in snapshot.get("counters", {}).items():
        emit_header(name, record, "counter")
        lines.append(f"{name} {_format_value(record['value'])}")
    for name, record in snapshot.get("gauges", {}).items():
        emit_header(name, record, "gauge")
        lines.append(f"{name} {_format_value(record['value'])}")
    for name, record in snapshot.get("histograms", {}).items():
        emit_header(name, record, "histogram")
        cumulative = 0
        for upper, bucket_count in zip(
            record["buckets"], record["bucket_counts"]
        ):
            cumulative = bucket_count
            lines.append(
                f'{name}_bucket{{le="{_format_value(upper)}"}} {cumulative}'
            )
        lines.append(f'{name}_bucket{{le="+Inf"}} {record["count"]}')
        lines.append(f"{name}_sum {_format_value(record['sum'])}")
        lines.append(f"{name}_count {record['count']}")
    return "\n".join(lines) + "\n"


def quantile_from_histogram(snapshot_record: dict, q: float) -> float:
    """Crude q-quantile estimate from a snapshot histogram record.

    Linear interpolation inside the winning bucket, Prometheus-style;
    returns NaN for an empty histogram.
    """
    if not 0 <= q <= 1:
        raise MetricError(f"quantile must be in [0, 1], got {q}")
    total = snapshot_record["count"]
    if total == 0:
        return float("nan")
    rank = q * total
    previous_upper = 0.0
    previous_cumulative = 0
    for upper, cumulative in zip(
        snapshot_record["buckets"], snapshot_record["bucket_counts"]
    ):
        if cumulative >= rank:
            in_bucket = cumulative - previous_cumulative
            if in_bucket == 0:
                return upper
            fraction = (rank - previous_cumulative) / in_bucket
            return previous_upper + fraction * (upper - previous_upper)
        previous_upper, previous_cumulative = upper, cumulative
    return math.inf
