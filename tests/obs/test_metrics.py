"""Tests for the labelled metrics registry."""

import pytest

from repro.obs.metrics import MetricsRegistry, metric_key


class TestCounters:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        a = registry.counter("gated_cycles", domain="INT0")
        b = registry.counter("gated_cycles", domain="INT0")
        assert a is b

    def test_label_sets_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("gated_cycles", domain="INT0").inc(5)
        registry.counter("gated_cycles", domain="INT1").inc(7)
        assert registry.value("gated_cycles", domain="INT0") == 5
        assert registry.value("gated_cycles", domain="INT1") == 7
        assert registry.total("gated_cycles") == 12

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("x", unit="SFU", cluster=1).inc(3)
        assert registry.value("x", cluster=1, unit="SFU") == 3

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_metric_key_format(self):
        assert metric_key("cycles") == "cycles"
        counter = MetricsRegistry().counter("gated_cycles",
                                            unit="SFU", cluster=1)
        assert counter.key == 'gated_cycles{cluster="1",unit="SFU"}'


class TestGaugesAndHistograms:
    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("idle_detect", unit="INT")
        gauge.set(5)
        gauge.set(7)
        assert registry.value("idle_detect", unit="INT") == 7

    def test_histogram_accumulates_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("idle_period_length", unit="FP0")
        histogram.observe(3)
        histogram.observe(3)
        histogram.observe(14, count=2)
        assert registry.value("idle_period_length", unit="FP0") == \
            {3: 2, 14: 2}
        assert histogram.total == 4

    def test_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            MetricsRegistry().value("nope")


class TestFlatDict:
    def test_flat_dict_shape_and_sorting(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(1)
        registry.counter("a", domain="X").inc(2)
        registry.gauge("g").set(0.5)
        registry.histogram("h").observe(9)
        flat = registry.as_flat_dict()
        assert list(flat) == sorted(flat)
        assert flat['a{domain="X"}'] == 2
        assert flat["b"] == 1
        assert flat["g"] == 0.5
        assert flat["h"] == {9: 1}

    def test_flat_dict_is_json_serialisable(self):
        import json
        registry = MetricsRegistry()
        registry.counter("a", domain="X").inc(2)
        registry.histogram("h", unit="U").observe(3)
        json.dumps(registry.as_flat_dict())

    def test_len_and_iteration(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(1)
        registry.histogram("c").observe(1)
        assert len(registry) == 3
        assert len(list(registry)) == 3
