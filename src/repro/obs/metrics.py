"""Labelled metrics registry.

A single namespace for everything the simulator counts, in the style of
a production metrics system: **counters** (monotonic totals), **gauges**
(last-written values) and **histograms** (value -> count maps), each
addressable by name plus a set of ``key=value`` labels::

    registry = MetricsRegistry()
    registry.counter("gated_cycles", domain="SFU").inc(14)
    registry.gauge("idle_detect", unit="INT").set(7)
    registry.histogram("idle_period_length", unit="FP0").observe(3)

The legacy per-object counter dataclasses (``SMStats``, ``GatingStats``,
``IdlePeriodTracker``) stay as the hot-path storage — plain attribute
increments, no dict lookups in the cycle loop — and export into a
registry at end of run (:meth:`SMStats.export_metrics`,
:meth:`GatingStats.export_metrics`), making the registry the unified
read side: one flat dict, merged into :class:`~repro.sim.sm.SimResult`,
with stable ``name{label="value",...}`` keys.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple, Union

LabelSet = Tuple[Tuple[str, str], ...]
MetricValue = Union[int, float, Dict[int, int]]


def _labelset(labels: Dict[str, object]) -> LabelSet:
    """Normalise a labels dict to a hashable, sorted tuple."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def metric_key(name: str, labels: LabelSet = ()) -> str:
    """Canonical flat key: ``name`` or ``name{k="v",...}``."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError(f"{self.key}: counters only go up")
        self.value += amount

    @property
    def key(self) -> str:
        """The counter's flat-dict key."""
        return metric_key(self.name, self.labels)


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = value

    @property
    def key(self) -> str:
        """The gauge's flat-dict key."""
        return metric_key(self.name, self.labels)


class Histogram:
    """An integer-valued distribution (value -> occurrence count)."""

    __slots__ = ("name", "labels", "buckets")

    def __init__(self, name: str, labels: LabelSet) -> None:
        self.name = name
        self.labels = labels
        self.buckets: Dict[int, int] = {}

    def observe(self, value: int, count: int = 1) -> None:
        """Record ``count`` occurrences of ``value``."""
        if count < 0:
            raise ValueError(f"{self.key}: negative observation count")
        self.buckets[value] = self.buckets.get(value, 0) + count

    @property
    def total(self) -> int:
        """Number of recorded observations."""
        return sum(self.buckets.values())

    @property
    def key(self) -> str:
        """The histogram's flat-dict key."""
        return metric_key(self.name, self.labels)


class MetricsRegistry:
    """All of one run's metrics, addressable by (name, labels)."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelSet], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelSet], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelSet], Histogram] = {}

    # ------------------------------------------------------------------
    # instrument accessors (get-or-create)
    # ------------------------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for (name, labels), created on first use."""
        key = (name, _labelset(labels))
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter(name, key[1])
        return counter

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for (name, labels), created on first use."""
        key = (name, _labelset(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge(name, key[1])
        return gauge

    def histogram(self, name: str, **labels: object) -> Histogram:
        """The histogram for (name, labels), created on first use."""
        key = (name, _labelset(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(name, key[1])
        return histogram

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[Union[Counter, Gauge, Histogram]]:
        yield from self._counters.values()
        yield from self._gauges.values()
        yield from self._histograms.values()

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))

    def value(self, name: str, **labels: object) -> MetricValue:
        """Current value of one metric (KeyError when absent)."""
        key = (name, _labelset(labels))
        if key in self._counters:
            return self._counters[key].value
        if key in self._gauges:
            return self._gauges[key].value
        if key in self._histograms:
            return dict(self._histograms[key].buckets)
        raise KeyError(metric_key(*key))

    def total(self, name: str) -> float:
        """Sum of a counter family across all label sets."""
        return sum(c.value for (n, _), c in self._counters.items()
                   if n == name)

    def as_flat_dict(self) -> Dict[str, MetricValue]:
        """The whole registry as ``{"name{labels}": value}``.

        Histograms flatten to ``{bucket: count}`` dicts; everything is
        JSON-serialisable.  Keys are sorted for stable output.
        """
        flat: Dict[str, MetricValue] = {}
        for counter in self._counters.values():
            flat[counter.key] = counter.value
        for gauge in self._gauges.values():
            flat[gauge.key] = gauge.value
        for histogram in self._histograms.values():
            flat[histogram.key] = dict(sorted(histogram.buckets.items()))
        return dict(sorted(flat.items()))
