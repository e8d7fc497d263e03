"""Arithmetic of the benchmark harness: percentiles, spreads, self time."""

import json
import statistics
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from benchlib.stats import (  # noqa: E402
    percentile,
    quartile_spread,
    samples_beyond,
    summarize,
    tail_percentile,
)
from benchlib.trace import (  # noqa: E402
    PER_LAYER_UNITS,
    Patches,
    Tracer,
    per_model_figures,
    self_times,
    step_times,
)
from run import END_TO_END_UNITS, WORKLOAD_NAMES  # noqa: E402


class TestPercentiles:
    def test_nearest_rank_returns_a_sample(self):
        values = [15, 20, 35, 40, 50]
        assert percentile(values, 5) == 15
        assert percentile(values, 30) == 20
        assert percentile(values, 40) == 20
        assert percentile(values, 50) == 35
        assert percentile(values, 100) == 50

    def test_order_of_input_does_not_matter(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)

    def test_samples_beyond_counts_strictly_above_the_rank(self):
        assert samples_beyond(100, 90) == 10
        assert samples_beyond(100, 95) == 5
        assert samples_beyond(20, 50) == 10

    def test_tail_percentile_needs_ten_samples_beyond(self):
        assert tail_percentile(39) is None
        assert tail_percentile(40) == 75.0
        assert tail_percentile(100) == 90.0
        assert tail_percentile(200) == 95.0
        assert tail_percentile(1000) == 99.0
        assert tail_percentile(10_000) == 99.9

    def test_summary_states_its_sample_count(self):
        values = [float(i) for i in range(1, 101)]
        s = summarize(values)
        assert s["n"] == 100 and s["min"] == 1.0
        assert s["mean"] == 50.5 and s["p50"] == 50.5
        assert s["tail_p"] == 90.0
        assert s["tail"] == 90.0
        short = summarize([1.0, 2.0, 6.0])
        assert short["n"] == 3 and short["p50"] == 2.0 and short["tail"] is None
        assert short["mean"] == 3.0 and short["min"] == 1.0


class TestQuartileSpread:
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 14.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        assert quartile_spread(values) == pytest.approx((q3 - q1) / med)

    def test_hand_computed_value(self):
        # exclusive quartiles of 1..9: Q1 = 2.5, median 5, Q3 = 7.5
        assert quartile_spread(list(range(1, 10))) == pytest.approx(1.0)

    def test_constant_values_have_no_spread(self):
        assert quartile_spread([4.0] * 6) == 0.0

    def test_zero_median_is_rejected(self):
        with pytest.raises(ValueError):
            quartile_spread([-1.0, 0.0, 0.0, 1.0])


class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        # root [0, 10] with children [1, 3] and [4, 8]; [4, 8] has child [5, 6]
        starts = [0.0, 1.0, 4.0, 5.0]
        ends = [10.0, 3.0, 8.0, 6.0]
        parents = [-1, 0, 0, 2]
        assert self_times(starts, ends, parents) == pytest.approx([4.0, 2.0, 3.0, 1.0])

    def test_overlapping_children_count_once(self):
        starts = [0.0, 1.0, 2.0]
        ends = [10.0, 4.0, 6.0]
        parents = [-1, 0, 0]
        assert self_times(starts, ends, parents)[0] == pytest.approx(5.0)

    def test_children_are_clipped_to_the_parent(self):
        starts = [2.0, 1.0]
        ends = [5.0, 3.0]
        parents = [-1, 0]
        assert self_times(starts, ends, parents)[0] == pytest.approx(2.0)

    def test_tracer_links_parents_and_self_time(self):
        ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
        tracer = Tracer(clock=lambda: next(ticks))
        root = tracer.open("root")
        a = tracer.open("child")
        tracer.close(a)
        b = tracer.open("child")
        tracer.close(b)
        tracer.close(root)
        assert list(tracer.parent) == [-1, 0, 0]
        assert tracer.spans_named("child") == [1, 2]
        assert tracer.has_ancestor(2, "root") and not tracer.has_ancestor(0, "root")
        assert self_times(tracer.start, tracer.end, tracer.parent) == pytest.approx(
            [6.0, 2.0, 2.0])

    def test_closing_out_of_order_is_an_error(self):
        tracer = Tracer()
        outer = tracer.open("outer")
        tracer.open("inner")
        with pytest.raises(RuntimeError):
            tracer.close(outer)


class TestPerModel:
    @staticmethod
    def two_rounds_of_two_models():
        """train(a) and train(b), twice; each trains with one or two steps."""
        ticks = iter(float(t) for t in range(100))
        tracer = Tracer(clock=lambda: next(ticks))
        for steps in ((1, 2), (1, 1)):
            for n in steps:
                train = tracer.open("training.train")
                for _ in range(n):
                    step = tracer.open("training.regularized_loss")
                    grad = tracer.open("autodiff.Tape.gradient_vector")
                    tracer.close(grad)
                    tracer.close(step)
                    tracer.n[step], tracer.n[grad] = 4.0, 40.0 * n
                    tracer.add("splines.tape_inputs", 10.0, train)
                    tracer.add("splines.tape_in_span", 5.0 if n == 2 else 10.0, train)
                tracer.close(train)
        return tracer

    def test_steps_belong_to_the_model_of_their_train_call(self):
        tracer = self.two_rounds_of_two_models()
        steps = step_times(tracer, ("a", "b"))
        assert len(steps["a"]) == 2 and len(steps["b"]) == 3
        assert all(t == 3.0 for ts in steps.values() for t in ts)

    def test_per_model_figures(self):
        tracer = self.two_rounds_of_two_models()
        tracer.add("splines.batch_inputs", 100.0)   # outside any train call
        figures = per_model_figures(tracer, ("a", "b"))
        assert figures["a"]["autodiff.tape_nodes_per_sample"] == pytest.approx(10.0)
        assert figures["b"]["autodiff.tape_nodes_per_sample"] == pytest.approx(200.0 / 12.0)
        assert figures["a"]["splines.in_span_frac"] == 1.0
        assert figures["b"]["splines.in_span_frac"] == pytest.approx(20.0 / 30.0)
        assert figures["b"]["training.step_ms_p50"] == pytest.approx(3e3)
        assert tracer.total("splines.tape_inputs") == 50.0
        assert tracer.total("splines.batch_inputs") == 100.0


def test_wrapper_time_outside_the_call_is_its_own():
    from benchlib.trace import _wrap

    # ticks: entered 0, span start 1, span end 5, after the note 8
    ticks = iter([0.0, 1.0, 5.0, 8.0])
    tracer = Tracer(clock=lambda: next(ticks))
    wrapped = _wrap(lambda x: x + 1, "f", tracer, None)
    assert wrapped(1) == 2
    assert tracer.own_s == 4.0


def test_wrappers_sit_where_callers_look_names_up():
    import numpy as np

    import frkan
    from frkan import layers, splines

    original = splines.basis_matrix
    method = layers.KANLayer.forward_batch
    tracer = Tracer()
    patches = Patches()
    patches.install(tracer)
    try:
        assert layers.basis_matrix is splines.basis_matrix is frkan.basis_matrix
        assert splines.basis_matrix is not original
        kv = splines.make_uniform_grid(-1.0, 1.0, 4, 1)
        layer = layers.KANLayer(1, 2, kv, np.ones((1, 2, kv.n_bases)),
                                np.ones((1, 2)), np.ones((1, 2)))
        layers.Network([layer]).forward_batch(np.zeros((3, 1)))
    finally:
        patches.remove()
    assert splines.basis_matrix is original and layers.basis_matrix is original
    assert layers.KANLayer.forward_batch is method
    (net_span,) = tracer.spans_named("layers.Network.forward_batch")
    (layer_span,) = tracer.spans_named("layers.KANLayer.forward_batch")
    (basis_span,) = tracer.spans_named("splines.basis_matrix")
    assert tracer.parent[layer_span] == net_span and tracer.parent[basis_span] == layer_span
    assert tracer.n[net_span] == 3 and tracer.n[basis_span] == 3


def test_benchmark_json_lists_what_the_harness_reports():
    from benchlib.workloads import WORKLOADS

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert WORKLOAD_NAMES == tuple(WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOAD_NAMES)
