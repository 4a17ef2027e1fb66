"""Tests of the benchmark itself: op streams, checks and span arithmetic.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import math

import pytest

import calibrate
import grid
import metrics
import refgen
import tracing
from tracing import Span, Tracer, per_op, self_times

NAMES = grid.benchmarks()
SEEDS = range(8)


def test_same_seed_gives_same_op_stream():
    for seed in SEEDS:
        assert grid.op_stream(seed, NAMES) == grid.op_stream(seed, NAMES)


def test_every_seed_covers_the_whole_grid_once():
    cells = {(b, t) for b in NAMES for t in grid.TECHNIQUES}
    orders = set()
    for seed in SEEDS:
        stream = grid.op_stream(seed, NAMES)
        assert len(stream) == len(cells) == 108
        assert {(op.benchmark, op.technique) for op in stream} == cells
        assert {op.trace_seed for op in stream} == {grid.trace_seed_for(seed)}
        orders.add(tuple(op.key.split("/", 1)[1] for op in stream))
    assert len(orders) == len(SEEDS)


def test_serve_cold_pass_never_shares_a_dedupe_key():
    from repro.service.core import JobRequest

    def key(benchmark, technique, seed):
        return JobRequest(benchmark=benchmark, technique=technique,
                          seed=seed, scale=grid.SCALE).key(True)

    warmup = key(*grid.WARMUP_CELL)
    for seed in SEEDS:
        keys = [key(op.benchmark, op.technique, op.trace_seed)
                for op in grid.op_stream(seed, NAMES)]
        assert len(set(keys)) == len(keys)
        assert warmup not in keys


def test_references_cover_every_cell_of_every_trace_seed():
    refs = grid.load_references()
    for table in ("single", "device"):
        assert set(refs[table]) == {
            grid.cell_key(s, b, t) for s in grid.TRACE_SEEDS
            for b in NAMES for t in grid.TECHNIQUES}


@pytest.mark.parametrize("table", ["single", "device"])
def test_perturbed_reference_fails_exactly_that_op(table):
    refs = grid.load_references()[table]
    stream = grid.op_stream(3, NAMES)
    digests = {op.index: refs[op.key] for op in stream}
    assert grid.failed_ops(stream, digests, refs) == []
    victim = stream[41]
    perturbed = dict(refs)
    perturbed[victim.key] = "0" * 64
    assert grid.failed_ops(stream, digests, perturbed) == [victim.index]


def test_op_without_digest_fails():
    refs = grid.load_references()["single"]
    stream = grid.op_stream(0, NAMES)[:3]
    digests = {op.index: refs[op.key] for op in stream}
    digests[stream[1].index] = None
    assert grid.failed_ops(stream, digests, refs) == [stream[1].index]


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "a"),
        Span(1, "child", 1.0, 4.0, 0, "a"),
        Span(2, "child", 3.0, 6.0, 0, "a"),    # overlaps span 1
        Span(3, "leaf", 2.0, 3.0, 1, "a"),
        Span(4, "child", 9.0, 12.0, 0, "a"),   # clipped to the root
        Span(5, "root", 20.0, 21.0, None, "b"),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10 - 5 - 1)
    assert own[1] == pytest.approx(3 - 1)
    assert own[2] == pytest.approx(3)
    assert own[3] == pytest.approx(1)
    assert own[4] == pytest.approx(3)
    assert per_op(spans, "child", own) == pytest.approx({"a": 8.0})
    assert per_op(spans, "root", own) == pytest.approx({"a": 4.0, "b": 1.0})


def test_tracer_nests_spans_and_tags_ops():
    tracer = Tracer()

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    tracer.op = "op-7"
    assert Layer().outer() == 2
    tracer.uninstall()
    assert Layer().outer() == 2 and len(tracer.spans) == 2
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.sid and outer.parent is None
    assert inner.op == outer.op == "op-7"
    # Each wrapped call charges its own time to the op.
    costs = [c for c in tracer.counts if c[1] == tracing.COST]
    assert len(costs) == 2
    assert all(op == "op-7" and value >= 0 for op, _, value in costs)


def test_p90_leaves_ten_samples_beyond_it_at_108_ops():
    values = list(range(1, 109))
    p90 = metrics.percentile(values, 0.9)
    assert sum(1 for v in values if v > p90) == 10
    assert metrics.percentile(values, 0.5) == 54
    assert math.isclose(metrics.percentile([3.0], 0.9), 3.0)


def test_host_factor_of_an_op_follows_a_nearby_slow_burst():
    nominal = calibrate.NOMINAL_S
    samples = [nominal] * 30
    samples[15] = 12 * nominal
    run = metrics.RunRecord(
        [1.0], [metrics.OpRecord(str(i), 0.1, 0, True) for i in range(30)],
        0.0, samples)
    factors = run.op_factors()
    k = metrics.FACTOR_WINDOW
    slowed = range(15 - k, 15 + k + 1)
    for i, factor in enumerate(factors):
        expected = (2 * k + 12) / (2 * k + 1) if i in slowed else 1.0
        assert factor == pytest.approx(expected)


def test_generator_reproduces_the_golden_digests():
    assert refgen.self_check(jobs=1) == []
