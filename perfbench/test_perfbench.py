"""Tests for the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import os
import random

import pytest

from stats import (
    REFERENCE_PROBE_S,
    TAIL_CANDIDATES,
    OpenLoopSchedule,
    OpTally,
    SpeedProbe,
    percentile,
    samples_beyond,
    tail_percentile,
)
from tracing import Span, SpanRecorder, instrument, self_time_by_name, self_times


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(9, None), (19, None), (20, 50.0), (100, 90.0), (500, 98.0),
     (1000, 99.0), (100_000, 99.0)],
)
def test_tail_percentile_is_highest_with_ten_beyond(count, expected):
    assert tail_percentile(count) == expected


@pytest.mark.parametrize("count", range(15, 1200, 7))
def test_tail_percentile_matches_a_brute_force_count(count):
    values = list(range(count))
    qualifying = [
        pct for pct in TAIL_CANDIDATES
        if sum(1 for v in values if v > percentile(values, pct)) >= 10
    ]
    assert tail_percentile(count) == (max(qualifying) if qualifying else None)


@pytest.mark.parametrize("count", [20, 99, 100, 101, 250, 500, 1001])
@pytest.mark.parametrize("pct", [50.0, 90.0, 95.0, 98.0, 99.0])
def test_samples_beyond_counts_values_above_the_percentile(count, pct):
    values = random.Random(count).sample(range(10 * count), count)
    above = sum(1 for v in values if v > percentile(values, pct))
    assert samples_beyond(count, pct) == above


def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


# ----------------------------------------------------------------------
# Self time with nested spans
# ----------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(1, 0, 1, "op", 0, 100),
        Span(2, 1, 1, "a", 10, 40),
        Span(3, 2, 1, "b", 20, 30),  # grandchild: charged to "a" only
        Span(4, 1, 1, "c", 50, 60),
    ]
    assert self_times(spans) == {1: 60, 2: 20, 3: 10, 4: 10}


def test_self_time_clips_overlapping_and_overhanging_children():
    spans = [
        Span(1, 0, 1, "op", 0, 100),
        Span(2, 1, 1, "a", 10, 50),
        Span(3, 1, 1, "a", 30, 70),  # overlaps the first child
        Span(4, 1, 1, "b", 90, 130),  # outlives its parent
    ]
    assert self_times(spans)[1] == 100 - 60 - 10


def test_recorder_nests_spans_per_request_and_restores_stack():
    ticks = iter(range(0, 1000, 10))
    recorder = SpanRecorder(clock=lambda: next(ticks))

    def inner():
        return "x"

    def outer():
        return wrapped_inner() + "y"

    wrapped_inner = recorder.wrap(inner, "layer.inner")
    wrapped_outer = recorder.wrap(outer, "layer.outer")
    with recorder.request("read") as first:
        assert wrapped_outer() == "xy"
    with recorder.request("read") as second:
        wrapped_inner()
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    read_first, read_second = by_name["read"]
    (outer_span,) = by_name["layer.outer"]
    inner_first, inner_second = by_name["layer.inner"]
    assert read_first.parent == 0 and read_first.request == first
    assert outer_span.parent == read_first.span_id
    assert inner_first.parent == outer_span.span_id
    assert inner_second.parent == read_second.span_id
    assert inner_second.request == second != first
    totals = self_time_by_name(recorder, ("read",))
    assert totals["layer.inner"] == 20
    assert totals["layer.outer"] == (outer_span.end - outer_span.start) - 10


def test_instrument_wraps_engine_layers_and_restores_them():
    import repro.api as api
    from repro.api import Database
    from repro.storage.types import DataType

    original = api.parse_statement
    db = Database()
    db.create_table("t", [("a", DataType.INTEGER)], [(1,), (2,)])
    recorder = SpanRecorder()
    with instrument(recorder):
        assert api.parse_statement is not original
        with recorder.request("read"):
            db.sql("select a from t where a > 1")
        with recorder.request("read"):
            db.sql("select a from t where a > 0")
    assert api.parse_statement is original
    names = {span.name for span in recorder.spans}
    assert {"sql.parse", "sql.normalize", "sql.bind", "optimizer.optimize",
            "optimizer.plancache.lookup", "optimizer.planner",
            "execution.execute"} <= names
    # Same shape, other literal: the second lookup hits the plan cache.
    assert recorder.counts["plancache.lookups"] == 2
    assert recorder.counts["plancache.hits"] == 1
    assert len(recorder.execution_counters) == 2


# ----------------------------------------------------------------------
# Open-loop lateness accounting
# ----------------------------------------------------------------------


def test_open_loop_charges_a_stall_to_every_queued_operation():
    schedule = OpenLoopSchedule(rate=10.0, start=100.0)
    schedule.record(0, issued=100.0, finished=100.5)  # a 0.5 s stall
    schedule.record(1, issued=100.5, finished=100.55)  # due at 100.1
    schedule.record(2, issued=100.55, finished=100.6)  # due at 100.2
    schedule.record(3, issued=100.3, finished=100.31)  # back on schedule
    assert schedule.latencies == pytest.approx([0.5, 0.45, 0.4, 0.01])
    assert schedule.lateness == pytest.approx([0.0, 0.4, 0.35, 0.0])


def test_open_loop_due_times_and_bad_rates():
    assert OpenLoopSchedule(rate=20.0, start=5.0).due(40) == 7.0
    with pytest.raises(ValueError):
        OpenLoopSchedule(rate=0.0, start=0.0)


def test_speed_probe_scales_by_the_reference_and_leaves_gc_alone():
    import gc

    probe = SpeedProbe(interval=10.0)
    probe.poll(0.0)
    probe.poll(5.0)  # inside the interval: no sample
    probe.poll(10.0)
    assert len(probe.samples) == 2 and all(s > 0 for s in probe.samples)
    assert gc.isenabled()
    probe.samples = [2 * REFERENCE_PROBE_S, 4 * REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S]
    assert probe.speed() == pytest.approx(0.5)  # a machine half as fast


# ----------------------------------------------------------------------
# Error counting
# ----------------------------------------------------------------------


class TypedError(Exception):
    pass


def test_typed_errors_count_and_others_propagate():
    tally = OpTally((TypedError,))
    tally.ok()
    tally.ok()
    tally.error(TypedError("shed"))
    with pytest.raises(KeyError):
        tally.error(KeyError("bug"))
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.error_kinds == {"TypedError": 1}
    assert tally.error_rate == pytest.approx(1 / 3)


def test_wrong_results_are_not_errors():
    tally = OpTally((TypedError,))
    tally.ok()
    tally.mismatch()
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 0, 1)
    assert tally.error_rate == 0.0
    assert OpTally((TypedError,)).error_rate == 0.0


# ----------------------------------------------------------------------
# The reported metrics are the ones BENCHMARK.json declares
# ----------------------------------------------------------------------


def test_reported_metrics_match_the_benchmark_declaration():
    import run
    from workloads import ReadWrite, Segment

    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    segment = Segment(OpTally((TypedError,)), latencies=[0.002, 0.001], keys=["a", "b"])
    workload = ReadWrite(seed=1, workdir=".")
    segment.probe.samples = [REFERENCE_PROBE_S]
    end_to_end = run.end_to_end(workload, segment, [1.0, 2.0, 3.0])
    layers = run.per_layer(workload, segment, segment, SpanRecorder())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: value["unit"] for name, value in end_to_end.items()
    }
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: run.layer_unit(name) for name in layers
    }
