"""Breakpoint detector soundness, bound formulas, constructions, audits."""

import numpy as np
import pytest

from frkan.autodiff import NonFiniteValue
from frkan.knots import (
    UnsupportedOrder,
    audit_network_knots,
    build_sawtooth_network,
    fixed_grid_knot_bounds,
    free_knot_bounds,
    mlp_knot_positions,
    network_bounds,
    predict_new_knots,
    relu_mlp_knot_bound,
    scan_breakpoints,
)
from frkan.layers import FRKANLayer, KANLayer, MLPLayer, Network
from frkan.splines import init_shift, make_uniform_grid


def _piecewise_linear(knots, slopes, y0=0.0):
    """f with given interior knots and per-piece slopes (len = len(knots)+1)."""
    knots = np.asarray(knots, dtype=float)
    slopes = np.asarray(slopes, dtype=float)

    def f(x):
        x = np.asarray(x, dtype=float)
        y = y0 + slopes[0] * x
        for k, kn in enumerate(knots):
            y = y + (slopes[k + 1] - slopes[k]) * np.maximum(x - kn, 0.0)
        return y

    return f


class TestBounds:
    def test_fixed_grid_examples(self):
        r = fixed_grid_knot_bounds(5, 3, 1)
        assert (r.lower, r.upper) == (8, 28)
        assert fixed_grid_knot_bounds(5, 3, 2).upper == 8 + 400
        r = fixed_grid_knot_bounds(2, 1, 1)
        assert (r.lower, r.upper) == (3, 5)

    def test_free_knot_examples(self):
        base = fixed_grid_knot_bounds(5, 3, 1)
        assert free_knot_bounds(5, 3, 1, 1).upper == base.upper
        assert free_knot_bounds(5, 3, 1, 2).upper == 2 * 8 + 40
        for h in (1, 2, 5):
            assert free_knot_bounds(5, 3, 1, h).lower == base.lower

    def test_relu_mlp_examples(self):
        assert relu_mlp_knot_bound(0, 5) == 5
        assert relu_mlp_knot_bound(5, 3) == 23
        assert relu_mlp_knot_bound(0, 1) == 1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            fixed_grid_knot_bounds(1, 1, 1)
        with pytest.raises(ValueError):
            relu_mlp_knot_bound(-1, 2)


class TestPredictNewKnots:
    def test_below_one_interval_adds_nothing(self):
        assert predict_new_knots([0.1, 0.3, 0.05], 0.4) == 0

    def test_sawtooth_segment(self):
        assert predict_new_knots([2.0], 0.4) == 5

    def test_exact_multiple_counts_once(self):
        assert predict_new_knots([0.4], 0.4) == 1

    def test_bad_dg(self):
        with pytest.raises(ValueError):
            predict_new_knots([1.0], 0.0)


class TestMLPKnotPositions:
    def test_single_neuron(self):
        layer = MLPLayer(np.array([[2.0]]), np.array([-1.0]))
        np.testing.assert_allclose(mlp_knot_positions(layer), [0.5])

    def test_dead_weight_skipped(self):
        layer = MLPLayer(np.array([[2.0, 0.0, -1.0]]), np.array([-1.0, 3.0, 1.0]))
        np.testing.assert_allclose(mlp_knot_positions(layer), [0.5, 1.0])


class TestScanBreakpoints:
    def test_absolute_value(self):
        report = scan_breakpoints(np.abs, -1, 1, samples=20_000)
        assert report.interior_count == 1
        assert abs(report.positions[0]) <= 1e-6
        assert report.slope_jumps[0] == pytest.approx(2.0, rel=1e-3)

    def test_affine_has_none(self):
        report = scan_breakpoints(lambda x: 3.0 * x + 2.0, -1, 1, samples=5_000)
        assert report.interior_count == 0

    def test_constant_has_none(self):
        report = scan_breakpoints(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                                  -1, 1, samples=2_000)
        assert report.interior_count == 0

    def test_nonfinite_rejected(self):
        def f(x):
            x = np.asarray(x, dtype=float)
            return np.where(x > 0.5, np.nan, x)

        with pytest.raises(NonFiniteValue):
            scan_breakpoints(f, -1, 1, samples=2_000)

    def test_scalar_only_callable_is_evaluated_point_by_point(self):
        report = scan_breakpoints(lambda x: x if x > 0.25 else 0.25, -1, 1, samples=2_000)
        assert report.interior_count == 1
        assert report.positions[0] == pytest.approx(0.25, abs=1e-6)

    def test_vectorised_callable_error_propagates(self):
        calls = []

        def f(x):
            calls.append(np.shape(x))
            raise ZeroDivisionError("inside the model")

        with pytest.raises(ZeroDivisionError):
            scan_breakpoints(f, -1, 1, samples=2_000)
        assert calls == [(2,)]

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            scan_breakpoints(np.abs, -1, 1, samples=100)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_detector_soundness_on_synthetic_functions(self, seed):
        rng = np.random.default_rng(seed)
        n_knots = int(rng.integers(5, 51))
        knots = np.sort(rng.uniform(-0.95, 0.95, size=n_knots))
        # enforce spacing well above the merge tolerance
        keep = np.concatenate([[True], np.diff(knots) > 5e-4])
        knots = knots[keep]
        slopes = rng.uniform(-1, 1, size=knots.size + 1)
        # jumps at least 10x the relative threshold: threshold is 1e-3*max|s|
        for k in range(knots.size):
            while abs(slopes[k + 1] - slopes[k]) < 10 * 1e-3 * np.max(np.abs(slopes)):
                slopes[k + 1] = rng.uniform(-1, 1)
        f = _piecewise_linear(knots, slopes)
        report = scan_breakpoints(f, -1, 1, samples=200_000)
        assert report.positions.size == knots.size  # precision and recall both 1
        np.testing.assert_allclose(report.positions, knots, atol=1e-6)

    def test_thread_env_does_not_change_results(self, monkeypatch):
        f = _piecewise_linear([-0.4, 0.1, 0.55], [1.0, -0.5, 0.8, -1.2])
        base = scan_breakpoints(f, -1, 1, samples=20_000)
        monkeypatch.setenv("FRKAN_THREADS", "3")
        threaded = scan_breakpoints(f, -1, 1, samples=20_000)
        np.testing.assert_array_equal(base.positions, threaded.positions)
        np.testing.assert_array_equal(base.slope_jumps, threaded.slope_jumps)

    def test_kan_single_layer_breakpoints_at_grid(self):
        rng = np.random.default_rng(3)
        kv = make_uniform_grid(-1, 1, 5, 1)
        layer = KANLayer(1, 1, kv, rng.normal(size=(1, 1, kv.n_bases)),
                         np.ones((1, 1)), np.zeros((1, 1)), silu_path=False)
        net = Network([layer])
        f = lambda t: net.forward_batch(np.asarray(t, dtype=float)[:, None])[:, 0]
        report = scan_breakpoints(f, -1, 1)
        assert report.interior_count == 4
        np.testing.assert_allclose(report.positions, [-0.6, -0.2, 0.2, 0.6], atol=1e-6)


class TestSawtoothConstruction:
    def test_requires_order_one(self):
        with pytest.raises(UnsupportedOrder):
            build_sawtooth_network(5, K=2)

    def test_layer1_shape(self):
        net = build_sawtooth_network(5, layer2_seed=0)
        layer1 = Network([net.modules[0]])
        f = lambda t: layer1.forward_batch(np.asarray(t, dtype=float)[:, None])[:, 0]
        report = scan_breakpoints(f, -1, 1)
        # G-1 interior breakpoints with alternating slope sign
        assert report.interior_count == 4
        signs = np.sign(report.slope_jumps)
        assert np.all(signs[::2] == signs[0]) and np.all(signs[1::2] == -signs[0])
        # output sweeps the full [-1, 1] band: every segment covers 2 = G*dg/...
        base = np.linspace(-1, 1, 6)
        vals = f(base[:-1])
        np.testing.assert_allclose(np.abs(vals), 1.0, atol=1e-12)
        # slope magnitude 2/dg between adjacent peaks
        assert abs(report.slope_jumps[0]) == pytest.approx(2 * 2.0 / 0.4, rel=1e-3)

    def test_composition_multiplies_knots(self):
        net = build_sawtooth_network(5, layer2_seed=0)
        audit = audit_network_knots(net)
        assert audit.measured_interior > 4
        assert audit.measured_with_boundary <= fixed_grid_knot_bounds(5, 1, 2).upper
        assert audit.upper_ok


class TestAudit:
    def _fixed_kan(self, rng, width, G):
        kv = make_uniform_grid(-1, 1, G, 1)
        return KANLayer(1, width, kv, rng.normal(size=(1, width, kv.n_bases)),
                        rng.normal(size=(1, width)), rng.normal(size=(1, width)))

    @pytest.mark.parametrize("width", [1, 8])
    def test_width_invariance(self, width):
        rng = np.random.default_rng(10)
        net = Network([self._fixed_kan(rng, width, G=5)])
        audit = audit_network_knots(net, samples=50_000)
        assert audit.measured_interior == 4
        assert audit.lower_ok and audit.upper_ok

    def test_free_shift_gain(self):
        rng = np.random.default_rng(4)
        G = 10
        kv = make_uniform_grid(-1, 1, G, 1)
        shifts = np.stack([init_shift(kv, 8.0, seed=s) for s in (1, 2)])
        layer = FRKANLayer(2, 1, 2, -1, 1, G, 1,
                           rng.normal(size=(2, G + 1)), shifts,
                           rng.normal(size=(2, 1)))
        audit = audit_network_knots(Network([layer]), samples=100_000)
        assert audit.measured_interior > G - 1
        assert audit.measured_with_boundary <= 2 * (G + 1)
        assert audit.bounds.formula_name == "free-knot"

    def test_affine_rescale_keeps_positions(self):
        rng = np.random.default_rng(6)
        net = Network([self._fixed_kan(rng, 3, G=5)])
        base = audit_network_knots(net, samples=50_000)
        scaled = Network([self._fixed_kan(rng, 3, G=5)])
        # alpha*f + beta: rescale combination weights, output shift is free
        scaled.modules[0].coefficients = net.modules[0].coefficients * (-2.5)
        scaled.modules[0].A_b = net.modules[0].A_b.copy()
        scaled.modules[0].A_s = net.modules[0].A_s * 0.0
        net.modules[0].A_s *= 0.0
        base = audit_network_knots(net, samples=50_000)
        after = audit_network_knots(scaled, samples=50_000)
        assert after.measured_interior == base.measured_interior
        np.testing.assert_allclose(after.report.positions, base.report.positions,
                                   atol=base.report.merge_tolerance)

    def test_silu_path_adds_no_breakpoints(self):
        rng = np.random.default_rng(8)
        kv = make_uniform_grid(-1, 1, 6, 1)
        coef = rng.normal(size=(1, 2, kv.n_bases))
        A_b = rng.normal(size=(1, 2))
        A_s = rng.normal(size=(1, 2))
        with_silu = Network([KANLayer(1, 2, kv, coef.copy(), A_b.copy(), A_s.copy())])
        without = Network([KANLayer(1, 2, kv, coef.copy(), A_b.copy(), A_s.copy(),
                                    silu_path=False)])
        a = audit_network_knots(with_silu, samples=50_000)
        b = audit_network_knots(without, samples=50_000)
        assert a.measured_interior == b.measured_interior
        np.testing.assert_allclose(a.report.positions, b.report.positions,
                                   atol=a.report.merge_tolerance)

    def test_higher_order_rejected(self):
        rng = np.random.default_rng(0)
        kv = make_uniform_grid(-1, 1, 4, 2)
        net = Network([KANLayer(1, 1, kv, rng.normal(size=(1, 1, kv.n_bases)),
                                np.ones((1, 1)), np.ones((1, 1)))])
        with pytest.raises(UnsupportedOrder):
            audit_network_knots(net)

    def test_relu_mlp_bound_formula(self):
        rng = np.random.default_rng(1)
        net = Network([
            MLPLayer(rng.normal(size=(1, 4)), rng.normal(size=4), "relu"),
            MLPLayer(rng.normal(size=(4, 1)), rng.normal(size=1), "identity"),
        ])
        bounds = network_bounds(net)
        assert bounds.formula_name == "relu-mlp"
        assert bounds.upper == relu_mlp_knot_bound(0, 4)
        audit = audit_network_knots(net, lo=-2.0, hi=2.0, samples=50_000)
        assert audit.measured_interior <= 4

    def test_report_json_shape(self):
        rng = np.random.default_rng(10)
        net = Network([self._fixed_kan(rng, 1, G=4)])
        audit = audit_network_knots(net, samples=50_000)
        doc = audit.to_dict()
        assert set(doc) >= {"interval", "positions", "slope_jumps",
                            "interior_count", "bounds", "pass"}
        assert doc["bounds"]["formula"] == "fixed-grid"
