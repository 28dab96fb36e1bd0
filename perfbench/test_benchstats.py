"""Self-tests for the benchmark's own arithmetic.

Run from the repository root with ``python3 -m pytest perfbench -q``.
They simulate nothing: they check the tail rule, that ratios keep their
base counts, self time from nested spans, and what counts as a failed run.
"""

import json
import os

import pytest

import benchstats
from benchstats import Ratio, RunOutcome, Span
from layers import LAYER_METRICS, RUN_SPAN, layer_metrics
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))


# ----------------------------------------------------------------------
# Tail rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, q, beyond",
    [(20, 50.0, 10), (100, 90.0, 10), (100, 95.0, 5), (1000, 99.0, 10), (10, 90.0, 1)],
)
def test_samples_beyond_a_percentile(count, q, beyond):
    assert benchstats.samples_beyond(count, q) == beyond


def test_tail_is_reported_only_with_ten_samples_beyond_it():
    assert benchstats.reportable_tail(list(range(19))) is None
    assert benchstats.reportable_tail(list(range(99))) is None
    assert benchstats.reportable_tail(list(range(100))) == 90.0
    assert benchstats.reportable_tail(list(range(199))) == 90.0
    assert benchstats.reportable_tail(list(range(200))) == 95.0
    assert benchstats.reportable_tail(list(range(1000))) == 99.0


def test_nearest_rank_percentile():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert benchstats.percentile(samples, 50.0) == 3.0
    assert benchstats.percentile(samples, 99.0) == 5.0
    assert benchstats.percentile(samples, 1.0) == 1.0


# ----------------------------------------------------------------------
# Ratios keep their bases
# ----------------------------------------------------------------------
def test_ratio_keeps_its_counts():
    ratio = Ratio(6, 4)
    assert ratio.value == 1.5
    assert (ratio.numerator, ratio.denominator) == (6, 4)
    assert ratio.describe("sims", "successes") == "1.5 (sims=6 / successes=4)"
    with pytest.raises(ZeroDivisionError):
        Ratio(1, 0).value


def test_end_to_end_ratios_carry_the_run_counts():
    outcomes = [
        RunOutcome(0, 1.0, success=True, iterations=10, simulations=600, modelled_runtime=20.0),
        RunOutcome(1, 2.0, success=False, iterations=60, simulations=300, modelled_runtime=30.0),
        RunOutcome(2, 1.0, success=True, iterations=4, simulations=700, modelled_runtime=40.0),
    ]
    ratios = benchstats.end_to_end(outcomes, cpu_s=5.0, wall_s=4.0)
    assert (ratios["iters_per_s"].numerator, ratios["iters_per_s"].denominator) == (74, 4.0)
    assert (ratios["iters_per_cpu_s"].numerator, ratios["iters_per_cpu_s"].denominator) == (74, 5.0)
    assert ratios["sims_per_s"].value == 1600 / 4.0
    assert ratios["sims_per_cpu_s"].value == 1600 / 5.0
    assert (ratios["sims_per_success"].numerator, ratios["sims_per_success"].denominator) == (1600, 2)
    assert (ratios["success_rate"].numerator, ratios["success_rate"].denominator) == (2, 3)
    assert ratios["modelled_runtime"].value == 30.0


# ----------------------------------------------------------------------
# Self time from nested spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_time_children_cover():
    spans = [
        Span(1, "run", 0.0, 10.0),
        Span(2, "agent.update", 1.0, 3.0, parent=1),
        Span(3, "service.run", 4.0, 7.0, parent=1),
        Span(4, "engine.evaluate", 4.5, 6.5, parent=3),
        # Overlapping siblings (spans from two threads) count once.
        Span(5, "engine.evaluate", 5.0, 6.0, parent=3),
    ]
    own = benchstats.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 2.0 - 3.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0 - 2.0)
    assert own[4] == pytest.approx(2.0)


def test_layer_metrics_from_a_span_tree():
    spans = [
        Span(1, RUN_SPAN, 0.0, 10.0),
        Span(2, "agent.update", 0.0, 4.0, parent=1),
        Span(3, "agent.adam_step", 1.0, 2.0, parent=2),
        Span(4, "service.run", 4.0, 9.0, parent=1),
        Span(5, "engine.evaluate", 5.0, 8.0, parent=4),
    ]
    metrics = layer_metrics(
        spans,
        {"agent.grad_steps": 8, "engine.rows": 30, "service.rows": 30},
        {"verification": 0},
        {},
        untraced_wall_s=9.5,
    )
    assert metrics["agent.update_s"] == pytest.approx(4.0)
    assert metrics["agent.step_us"] == pytest.approx(4.0 / 8 * 1e6)
    assert metrics["agent.adam_step_s"] == pytest.approx(1.0)
    assert metrics["service.self_s"] == pytest.approx(2.0)
    assert metrics["engine.us_per_row"] == pytest.approx(3.0 / 30 * 1e6)
    assert metrics["loop.self_s"] == pytest.approx(1.0)
    assert metrics["trace.coverage"] == pytest.approx(0.9)
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)
    assert metrics["wire.calls"] == 0


def test_tracer_records_parents_and_restores_the_method():
    class Toy:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Toy.__dict__["inner"]
    tracer = Tracer()
    tracer.wrap(Toy, "outer", "toy.outer")
    tracer.wrap(Toy, "inner", "toy.inner", lambda c, args, r: c.update({"inner": r}))
    tracer.trace_id = 7
    assert tracer.call(RUN_SPAN, Toy().outer) == 2
    tracer.uninstall()
    assert Toy.__dict__["inner"] is original
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["toy.inner"].parent == by_name["toy.outer"].span_id
    assert by_name["toy.outer"].parent == by_name[RUN_SPAN].span_id
    assert by_name[RUN_SPAN].parent is None
    assert {span.trace_id for span in tracer.spans} == {7}
    assert tracer.counters["inner"] == 1


# ----------------------------------------------------------------------
# Failed operations
# ----------------------------------------------------------------------
def test_a_fallback_run_counts_as_failed():
    clean = RunOutcome(0, 1.0, success=True, remote_jobs=5, remote_answered=5)
    fallback = RunOutcome(1, 1.0, success=True, remote_jobs=5, remote_answered=5, fallback_jobs=1)
    unanswered = RunOutcome(2, 1.0, success=True, remote_jobs=5, remote_answered=4)
    raised = RunOutcome(3, 1.0, raised=True)
    checked = RunOutcome(4, 1.0, success=True, check_failures=["budget"])
    assert not clean.failed
    assert fallback.failed and unanswered.failed and raised.failed and checked.failed
    ratio = benchstats.failed_ops([clean, fallback, unanswered, raised, checked])
    assert (ratio.numerator, ratio.denominator) == (4, 5)


def test_failed_runs_contribute_no_work():
    good = RunOutcome(0, 1.0, success=True, iterations=5, simulations=100)
    fallback = RunOutcome(1, 1.0, success=True, iterations=5, simulations=100, fallback_jobs=3)
    ratios = benchstats.end_to_end([good, fallback], cpu_s=2.0, wall_s=2.0)
    assert ratios["sims_per_cpu_s"].numerator == 100
    assert (ratios["success_rate"].numerator, ratios["success_rate"].denominator) == (1, 2)


def test_every_layer_metric_has_one_layer_in_the_layer_map():
    with open(os.path.join(HERE, "baseline.json")) as handle:
        layer_map = json.load(handle)["layers"]
    listed = [name for layer in layer_map for name in layer["metrics"]]
    assert sorted(listed) == sorted(LAYER_METRICS)
