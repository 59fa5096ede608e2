"""Unified metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per serving process gathers every telemetry
source behind a single interface — push-style instruments for hot-path
observations (request/queue latency histograms, request counters) and
pull-style *collectors* that sample the existing ad-hoc sources at scrape
time (:class:`~repro.cache.statistics.StatisticsManager` aggregates,
:class:`~repro.sharding.planner.ScatterStats`, batcher queue depth, worker
respawn counts).

The registry renders the Prometheus text exposition format
(``GET /metrics?format=text``); the legacy JSON ``/metrics`` shape is
untouched.  A coordinator fans in worker registries by passing each
worker's :meth:`MetricsRegistry.snapshot` to :meth:`render_text` with a
``shard`` label — counters from different processes never need merging
arithmetic, they are distinct labelled series.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

#: Fixed latency buckets (seconds), Prometheus-style cumulative on render.
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


@dataclass
class Sample:
    """One pull-style observation a collector hands the registry at scrape."""

    name: str
    kind: str
    value: float
    help: str = ""
    labels: dict = field(default_factory=dict)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{name}="{_escape(str(value))}"'
                     for name, value in sorted(labels.items()))
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonically increasing count (one labelled series)."""

    def __init__(self, registry: "MetricsRegistry", name: str, key: tuple) -> None:
        self._registry = registry
        self._name = name
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._registry._lock:
            family = self._registry._families[self._name]
            family["samples"][self._key] = family["samples"].get(self._key, 0.0) + amount

    @property
    def value(self) -> float:
        with self._registry._lock:
            return self._registry._families[self._name]["samples"].get(self._key, 0.0)


class Gauge:
    """A value that goes up and down (one labelled series)."""

    def __init__(self, registry: "MetricsRegistry", name: str, key: tuple) -> None:
        self._registry = registry
        self._name = name
        self._key = key

    def set(self, value: float) -> None:
        with self._registry._lock:
            self._registry._families[self._name]["samples"][self._key] = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._registry._lock:
            family = self._registry._families[self._name]
            family["samples"][self._key] = family["samples"].get(self._key, 0.0) + amount

    @property
    def value(self) -> float:
        with self._registry._lock:
            return self._registry._families[self._name]["samples"].get(self._key, 0.0)


class Histogram:
    """Fixed-bucket latency distribution (one labelled series)."""

    def __init__(self, registry: "MetricsRegistry", name: str, key: tuple) -> None:
        self._registry = registry
        self._name = name
        self._key = key

    def observe(self, value: float) -> None:
        with self._registry._lock:
            family = self._registry._families[self._name]
            state = family["samples"].get(self._key)
            if state is None:
                state = family["samples"][self._key] = {
                    "counts": [0] * len(family["buckets"]), "sum": 0.0, "count": 0,
                }
            for index, bound in enumerate(family["buckets"]):
                if value <= bound:
                    state["counts"][index] += 1
                    break
            state["sum"] += value
            state["count"] += 1

    @property
    def count(self) -> int:
        with self._registry._lock:
            state = self._registry._families[self._name]["samples"].get(self._key)
            return int(state["count"]) if state else 0


class MetricsRegistry:
    """Thread-safe instrument store + Prometheus text exposition."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        #: name → {"kind", "help", "buckets"?, "samples": {label_key: value}}
        self._families: dict[str, dict] = {}
        self._collectors: list[Callable[[], Iterable[Sample]]] = []

    # ------------------------------------------------------------------ #
    # instrument creation (get-or-create per name + label set)
    # ------------------------------------------------------------------ #
    def _family(self, name: str, kind: str, help: str,
                buckets: tuple | None = None) -> dict:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = {
                "kind": kind, "help": help, "samples": {},
            }
            if kind == HISTOGRAM:
                family["buckets"] = tuple(buckets or DEFAULT_BUCKETS)
        elif family["kind"] != kind:
            raise ValueError(
                f"metric {name!r} is already registered as {family['kind']}"
            )
        return family

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        with self._lock:
            family = self._family(name, COUNTER, help)
            key = _label_key(labels)
            family["samples"].setdefault(key, 0.0)
            return Counter(self, name, key)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        with self._lock:
            family = self._family(name, GAUGE, help)
            key = _label_key(labels)
            family["samples"].setdefault(key, 0.0)
            return Gauge(self, name, key)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple | None = None, **labels) -> Histogram:
        with self._lock:
            self._family(name, HISTOGRAM, help, buckets=buckets)
            return Histogram(self, name, _label_key(labels))

    def register_collector(self, collector: Callable[[], Iterable[Sample]]) -> None:
        """Register a scrape-time sampler over an existing telemetry source.

        Collectors run on every :meth:`snapshot`/:meth:`render_text`; a
        collector that raises is skipped (a scrape must never take the
        serving path down with it).
        """
        with self._lock:
            self._collectors.append(collector)

    # ------------------------------------------------------------------ #
    # scraping
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """A JSON-safe point-in-time dump (instruments + collector samples)."""
        with self._lock:
            families: dict[str, dict] = {}
            for name, family in self._families.items():
                out = {"kind": family["kind"], "help": family["help"], "samples": []}
                if family["kind"] == HISTOGRAM:
                    out["buckets"] = list(family["buckets"])
                    for key, state in family["samples"].items():
                        out["samples"].append({
                            "labels": dict(key),
                            "counts": list(state["counts"]),
                            "sum": state["sum"],
                            "count": state["count"],
                        })
                else:
                    for key, value in family["samples"].items():
                        out["samples"].append({"labels": dict(key), "value": value})
                families[name] = out
            collectors = list(self._collectors)
        for collector in collectors:
            try:
                samples = list(collector())
            except Exception:
                continue  # a broken source must not break the scrape
            for sample in samples:
                family = families.setdefault(
                    sample.name,
                    {"kind": sample.kind, "help": sample.help, "samples": []},
                )
                family["samples"].append(
                    {"labels": dict(sample.labels), "value": sample.value}
                )
        return {"families": families}

    def render_text(self, extra: list[tuple[dict, dict]] | None = None) -> str:
        """Prometheus text exposition of this registry (+ fanned-in extras).

        ``extra`` is a list of ``(labels, snapshot)`` pairs — e.g. a shard
        worker's :meth:`snapshot` under ``{"shard": "0"}`` — whose series are
        re-emitted with the labels merged in, keeping per-process counters
        distinct instead of lossily summed.
        """
        merged: dict[str, dict] = {}

        def absorb(snapshot: dict, extra_labels: dict) -> None:
            for name, family in snapshot.get("families", {}).items():
                target = merged.setdefault(name, {
                    "kind": family.get("kind", GAUGE),
                    "help": family.get("help", ""),
                    "buckets": family.get("buckets"),
                    "samples": [],
                })
                if not target["help"] and family.get("help"):
                    target["help"] = family["help"]
                for sample in family.get("samples", []):
                    labels = dict(sample.get("labels", {}))
                    labels.update(extra_labels)
                    merged_sample = dict(sample)
                    merged_sample["labels"] = labels
                    target["samples"].append(merged_sample)

        absorb(self.snapshot(), {})
        for labels, snapshot in (extra or []):
            absorb(snapshot, {str(k): str(v) for k, v in labels.items()})

        lines: list[str] = []
        for name in sorted(merged):
            family = merged[name]
            if family["help"]:
                lines.append(f"# HELP {name} {family['help']}")
            lines.append(f"# TYPE {name} {family['kind']}")
            for sample in family["samples"]:
                labels = sample["labels"]
                if family["kind"] == HISTOGRAM and "counts" in sample:
                    buckets = family.get("buckets") or DEFAULT_BUCKETS
                    cumulative = 0
                    for bound, count in zip(buckets, sample["counts"]):
                        cumulative += count
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = _format_value(float(bound))
                        lines.append(
                            f"{name}_bucket{_render_labels(bucket_labels)} {cumulative}"
                        )
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = "+Inf"
                    lines.append(
                        f"{name}_bucket{_render_labels(bucket_labels)} {sample['count']}"
                    )
                    lines.append(
                        f"{name}_sum{_render_labels(labels)} {_format_value(sample['sum'])}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(labels)} {sample['count']}"
                    )
                else:
                    value = sample.get("value")
                    if value is None:
                        continue  # json_safe'd infinity: unrepresentable point
                    lines.append(
                        f"{name}{_render_labels(labels)} {_format_value(value)}"
                    )
        return "\n".join(lines) + "\n"
