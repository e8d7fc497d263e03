"""Breakpoint detector soundness, bound formulas, constructions, audits."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frkan.autodiff import NonFiniteValue
from frkan.knots import (
    UnsupportedOrder,
    _report,
    _runs,
    audit_network_knots,
    build_sawtooth_network,
    exact_breakpoints,
    fixed_grid_knot_bounds,
    free_knot_bounds,
    mlp_knot_positions,
    network_bounds,
    piecewise_linear_slice,
    predict_new_knots,
    relu_mlp_knot_bound,
    scan_breakpoints,
    slice_map,
)
from frkan.layers import FRKANLayer, GridConfig, KANLayer, MLPLayer, Network, init_network
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

    def test_kink_midway_between_samples(self):
        # the jump, 1.5x the threshold, splits into two second differences
        # of 0.75x it; only their sum clears the threshold
        t = np.linspace(-1, 1, 2_000)
        tau = 0.5 * (t[1000] + t[1001])
        f = _piecewise_linear([tau], [1.0, 1.0015], y0=-tau)
        report = scan_breakpoints(f, -1, 1, samples=2_000)
        assert report.interior_count == 1
        assert report.flagged_samples == 2
        np.testing.assert_allclose(report.positions, [tau], atol=1e-12)
        np.testing.assert_allclose(report.positions, [0.0010005], atol=1e-7)
        np.testing.assert_allclose(report.slope_jumps, [0.0015], rtol=1e-9)

    def test_smooth_curvature_between_half_and_full_threshold_is_no_kink(self):
        # every second difference of x**2 is about 0.67x the threshold, so
        # every adjacent pair sums past it; none stands alone
        report = scan_breakpoints(lambda x: x ** 2, -1, 1, samples=3_000)
        assert report.interior_count == 0
        assert report.flagged_samples == 0

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

    def test_relu_chain_counts_kinks_without_boundary_knots(self):
        # two neurons, both kinks inside the slice: exactly the chain's 2
        net = Network([MLPLayer(np.array([[1.0, -1.0]]), np.array([0.5, 0.5])),
                       MLPLayer(np.array([[1.0], [2.0]]), np.zeros(1), "identity")])
        audit = audit_network_knots(net, lo=-2.0, hi=2.0)
        assert audit.measured_interior == audit.measured_with_boundary == 2
        assert audit.bounds.upper == 2 and audit.passed

    def test_report_json_shape(self):
        rng = np.random.default_rng(10)
        net = Network([self._fixed_kan(rng, 1, G=4)])
        audit = audit_network_knots(net, samples=50_000)
        doc = audit.to_dict()
        assert set(doc) >= {"interval", "positions", "slope_jumps",
                            "interior_count", "bounds", "pass"}
        assert doc["bounds"]["formula"] == "fixed-grid"
        assert set(doc["detector"]) >= {"flagged_samples", "clusters", "merged",
                                        "refinement_passes"}


class TestAuditMemory:
    def test_200k_sample_audit_peak_is_bounded(self):
        # A hidden-SiLU stack takes the scanner, which evaluates the whole
        # 200k-point lattice; in row blocks that peaks near 13 MiB of
        # tracemalloc, against 86 MiB in one pass over all rows.
        net = init_network("in:2 -> frkan:8 -> frkan:1",
                           GridConfig(G=10, K=1, a=-1.0, b=1.0, h=2), seed=3, layernorm="off")
        tracemalloc.start()
        try:
            audit_network_knots(net, samples=200_000, lo=-1.0, hi=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20


class TestDetectorStatistics:
    def test_piecewise_linear_network_stops_before_the_depth(self):
        net = build_sawtooth_network(5, layer2_seed=0)
        report = scan_breakpoints(slice_map(net), -1.0, 1.0, samples=50_000)
        assert report.clusters >= report.interior_count > 4
        assert report.flagged_samples >= report.clusters
        assert 1 <= report.refinement_passes < report.refinement_depth

    def test_refinement_passes_count_the_stencil_evaluations(self):
        calls = []
        f = _piecewise_linear([-0.4, 0.1, 0.55], [1.0, -0.5, 0.8, -1.2])

        def counted(x):
            calls.append(np.size(x))
            return f(x)

        report = scan_breakpoints(counted, -1, 1, samples=20_000)
        stencils = [n for n in calls if n == 4 * report.clusters]
        assert report.refinement_passes == len(stencils) < report.refinement_depth

    def test_clusters_minus_merged_are_the_candidates_before_the_jump_filter(self):
        # Kink pairs 3e-4 apart are separate clusters but one merged candidate
        # at a 1e-3 tolerance: the pair at 0.2 adds its jumps, the pair at 0.5
        # cancels and is filtered out, the kink at -0.3 stands alone.
        d = 3e-4
        f = _piecewise_linear([-0.3, 0.2, 0.2 + d, 0.5, 0.5 + d],
                              [0.0, 1.0, 1.5, 2.0, 3.0, 2.0])
        report = scan_breakpoints(f, -1, 1, samples=100_000, merge_tolerance=1e-3)
        assert report.clusters == 5
        assert report.merged == 2
        assert report.clusters - report.merged == 3
        assert report.positions.size == 2
        np.testing.assert_allclose(report.positions, [-0.3, 0.2 + d / 2], atol=1e-6)


def _loop_runs(flagged):
    """The scanner's former loop: (first, last) of each run of adjacent points."""
    clusters = []
    if flagged.size:
        start = prev = flagged[0]
        for i in flagged[1:]:
            if i == prev + 1:
                prev = i
                continue
            clusters.append((start, prev))
            start = prev = i
        clusters.append((start, prev))
    return clusters


def _loop_report(lo, hi, positions, jumps, tol, thr, floor):
    """The scanner's former merge loop, threshold and counts, plus the exact
    path's nonzero-jump count: (positions, jumps, interior, merged, nonzero)."""
    merged_pos = []
    merged_jump = []
    for p, j in sorted(zip(positions, jumps)):
        if merged_pos and p - merged_pos[-1][-1] <= tol:
            merged_pos[-1].append(p)
            merged_jump[-1] += j
        else:
            merged_pos.append([p])
            merged_jump.append(j)
    final_pos = []
    final_jump = []
    nonzero = 0
    for group, j in zip(merged_pos, merged_jump):
        inside = lo + tol < float(np.mean(group)) < hi - tol
        nonzero += inside and abs(j) > floor
        if abs(j) > thr:
            final_pos.append(float(np.mean(group)))
            final_jump.append(j)
    pos_arr = np.array(final_pos)
    interior = int(np.sum((pos_arr > lo + tol) & (pos_arr < hi - tol))) if pos_arr.size else 0
    return pos_arr, np.array(final_jump), interior, len(positions) - len(merged_pos), nonzero


def _vector_report(lo, hi, candidates, jumps, tol, thr):
    """The exact path's former vectorised merge, on sorted candidates."""
    groups = np.flatnonzero(np.diff(candidates, prepend=-np.inf) > tol)
    sizes = np.diff(np.append(groups, candidates.size))
    pos = np.add.reduceat(candidates, groups) / sizes if groups.size else candidates
    jump = np.add.reduceat(jumps, groups) if groups.size else jumps
    interior = (pos > lo + tol) & (pos < hi - tol)
    keep = np.abs(jump) > thr
    return pos[keep], jump[keep], int(np.sum(keep & interior)), candidates.size - groups.size


class TestSharedReportStep:
    """``_runs`` and ``_report`` against the loops and the vectorised merge
    they replaced.  On dyadic values every sum is exact in any order, so
    ``_report`` must equal the loops exactly, ties at the tolerance, the
    thresholds and the interior edges included.  On other values merged
    sums run in ``np.add.reduceat``'s order, the exact path's, and equal
    its vectorised merge bit for bit (the loop summed left to right, which
    differs in the last bits for groups of 3 or more)."""

    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 80), max_size=40, unique=True))
    def test_runs_match_the_loop(self, points):
        flagged = np.array(sorted(points), dtype=np.intp)
        c0, c1 = _runs(flagged)
        assert list(zip(c0.tolist(), c1.tolist())) == _loop_runs(flagged)

    @staticmethod
    def _candidates(data, gap, jump):
        """Shuffled candidates: gaps on both sides of tol with exact ties,
        so chains of 3 or more form often, and jumps that may tie too."""
        gaps = data.draw(st.lists(gap, max_size=30))
        pos = -1.0 + np.cumsum([data.draw(gap), *gaps])
        jumps = np.array(data.draw(st.lists(jump, min_size=pos.size, max_size=pos.size)))
        shuffle = data.draw(st.permutations(range(pos.size)))
        return pos[shuffle], jumps[shuffle]

    @settings(max_examples=300)
    @given(data=st.data(), tol=st.sampled_from([2.0 ** -10, 2.0 ** -4]),
           thr=st.integers(0, 16), floor=st.integers(0, 8))
    def test_report_matches_the_loops(self, data, tol, thr, floor):
        u = tol / 8                       # gaps of 8u are exactly tol
        gap = (st.sampled_from([0, 8]) | st.integers(0, 24)).map(lambda k: k * u)
        jump = st.integers(-24, 24).map(lambda k: k / 8)
        pos, jumps = self._candidates(data, gap, jump)
        lo, hi, thr, floor = -1.0, -1.0 + 64 * tol, thr / 8, floor / 8
        report = _report(lo, hi, pos, jumps, tol, thr, floor)
        loop = _loop_report(lo, hi, pos.tolist(), jumps.tolist(), tol, thr, floor)
        np.testing.assert_array_equal(report.positions, loop[0])
        np.testing.assert_array_equal(report.slope_jumps, loop[1])
        assert (report.interior_count, report.merged, report.nonzero_jumps) == loop[2:]
        assert _report(lo, hi, pos, jumps, tol, thr).nonzero_jumps is None

    @settings(max_examples=200)
    @given(data=st.data(), tol=st.sampled_from([1e-3, 0.05]), thr=st.floats(0.0, 2.0))
    def test_report_matches_the_vectorised_merge(self, data, tol, thr):
        gap = st.one_of(st.just(0.0), st.floats(0.0, tol), st.floats(tol, 20 * tol))
        pos, jumps = self._candidates(data, gap, st.floats(-3, 3))
        lo, hi = -1.0, -1.0 + 10 * tol
        report = _report(lo, hi, pos, jumps, tol, thr)
        order = np.lexsort((jumps, pos))      # the vectorised merge took sorted input
        vector = _vector_report(lo, hi, pos[order], jumps[order], tol, thr)
        np.testing.assert_array_equal(report.positions, vector[0])
        np.testing.assert_array_equal(report.slope_jumps, vector[1])
        assert (report.interior_count, report.merged) == vector[2:]


def _spline_stack(rng, kind, G, widths, silu=False):
    """Random K=1 spline layers on [-1, 1] with the given widths, input first."""
    kv = make_uniform_grid(-1.0, 1.0, G, 1)
    mods = []
    for d, out in zip(widths, widths[1:]):
        if kind == "kan":
            mods.append(KANLayer(d, out, kv, rng.normal(size=(d, out, kv.n_bases)),
                                 rng.normal(size=(d, out)), rng.normal(size=(d, out)),
                                 silu_path=silu))
        else:
            h = int(rng.integers(1, d + 1))
            shifts = np.stack([init_shift(kv, 8.0, seed=int(rng.integers(1 << 30)))
                               for _ in range(h)])
            mods.append(FRKANLayer(d, out, h, -1.0, 1.0, G, 1, rng.normal(size=(h, G + 1)),
                                   shifts, rng.normal(size=(d, out)), silu_path=silu))
    return Network(mods)


def _relu_mlp(rng, widths):
    mods = [MLPLayer(rng.normal(size=(d, out)), rng.normal(size=out))
            for d, out in zip(widths, widths[1:])]
    mods.append(MLPLayer(rng.normal(size=(widths[-1], 1)), np.zeros(1), "identity"))
    return Network(mods)


class TestExactPath:
    def test_path_follows_the_network(self):
        rng = np.random.default_rng(0)
        assert piecewise_linear_slice(build_sawtooth_network(5, layer2_seed=0))
        assert piecewise_linear_slice(_relu_mlp(rng, [2, 4, 3]))
        # a SiLU shortcut is smooth on the last layer, but bends a hidden layer's pieces
        last_silu = _spline_stack(rng, "kan", 4, [1, 2, 1])
        last_silu.modules[0].silu_path = False
        assert piecewise_linear_slice(last_silu)
        hidden_silu = _spline_stack(rng, "frkan", 4, [2, 2, 1], silu=True)
        assert not piecewise_linear_slice(hidden_silu)
        with pytest.raises(UnsupportedOrder):
            exact_breakpoints(hidden_silu, -1.0, 1.0)

    def test_report_names_the_path(self):
        rng = np.random.default_rng(1)
        exact = audit_network_knots(_spline_stack(rng, "kan", 5, [1, 2, 1]))
        doc = exact.to_dict()
        assert doc["detector"]["method"] == "exact"
        assert doc["nonzero_jumps"] >= doc["interior_count"] > 0
        # no lattice ran
        assert doc["detector"]["samples"] == doc["detector"]["flagged_samples"] == 0
        assert doc["detector"]["clusters"] == doc["detector"]["refinement_passes"] == 0
        scanned = audit_network_knots(_spline_stack(rng, "kan", 5, [1, 2, 1], silu=True),
                                      samples=20_000).to_dict()
        assert scanned["detector"]["method"] == "scan"
        assert scanned["nonzero_jumps"] is None
        assert scanned["detector"]["samples"] == 20_000

    def test_sample_floor_holds_on_both_paths(self):
        rng = np.random.default_rng(2)
        for net in (build_sawtooth_network(4, layer2_seed=0),
                    _spline_stack(rng, "kan", 4, [1, 2, 1], silu=True)):
            with pytest.raises(ValueError):
                audit_network_knots(net, samples=999)

    def test_closed_forms(self):
        # one ReLU layer: kinks at -bias / w; a KAN layer: its interior grid points
        layer = MLPLayer(np.array([[2.0, -4.0, 1.0]]), np.array([-1.0, 1.0, 0.25]))
        net = Network([layer, MLPLayer(np.ones((3, 1)), np.zeros(1), "identity")])
        report = exact_breakpoints(net, -2.0, 2.0)
        np.testing.assert_array_equal(report.positions, mlp_knot_positions(layer))
        np.testing.assert_allclose(report.slope_jumps, [1.0, 4.0, 2.0])
        kv = make_uniform_grid(-1, 1, 5, 1)
        kan = Network([KANLayer(1, 1, kv, np.array([[[0.0, 1.0, -1.0, 2.0, 0.5, 3.0]]]),
                                np.ones((1, 1)), np.ones((1, 1)))])
        report = exact_breakpoints(kan, -1.0, 1.0)
        np.testing.assert_array_equal(report.positions, kv.base_points()[1:-1])
        np.testing.assert_allclose(report.slope_jumps, [-7.5, 12.5, -11.25, 10.0])
        assert report.interior_count == report.nonzero_jumps == 4

    def test_zero_spline_has_no_jumps(self):
        kv = make_uniform_grid(-1, 1, 5, 1)
        net = Network([KANLayer(1, 1, kv, np.zeros((1, 1, kv.n_bases)),
                                np.ones((1, 1)), np.ones((1, 1)))])
        report = exact_breakpoints(net, -1.0, 1.0)
        assert report.interior_count == report.nonzero_jumps == 0
        assert report.slope_threshold > 0.0   # the SiLU slope sets the scale

    def test_last_layer_silu_jumps_where_its_input_kinks(self):
        # relu(t) into silu: slope silu'(0) * 1 on the right, 0 on the left
        kv = make_uniform_grid(-4, 4, 4, 1)
        net = Network([MLPLayer(np.ones((1, 1)), np.zeros(1)),
                       KANLayer(1, 1, kv, np.zeros((1, 1, kv.n_bases)),
                                np.ones((1, 1)), np.full((1, 1), 3.0))])
        report = exact_breakpoints(net, -1.0, 1.0)
        np.testing.assert_array_equal(report.positions, [0.0])
        np.testing.assert_allclose(report.slope_jumps, [1.5])


def _cross_check_cases():
    for G in range(3, 9):
        for seed in range(3):
            yield f"sawtooth-G{G}-s{seed}", build_sawtooth_network(G, layer2_seed=seed), -1, 1
    rng = np.random.default_rng(3)        # criterion 3
    for G in (5, 10, 20):
        for width in (1, 8, 64):
            yield f"c3-G{G}-w{width}", _spline_stack(rng, "kan", G, [1, width], silu=True), -1, 1
    rng = np.random.default_rng(55)       # criterion 5
    kv = make_uniform_grid(-1.0, 1.0, 10, 1)
    shifts = np.stack([init_shift(kv, 8.0, seed=s) for s in (11, 29)])
    yield "c5", Network([FRKANLayer(2, 1, 2, -1.0, 1.0, 10, 1, rng.normal(size=(2, 11)),
                                    shifts, rng.normal(size=(2, 1)))]), -1, 1


def _random_family():
    rng = np.random.default_rng(66)
    for k in range(15):
        G, w = int(rng.integers(3, 9)), int(rng.integers(1, 4))
        if k % 3 == 0:
            yield f"kan-G{G}-w{w}", _spline_stack(rng, "kan", G, [1, w, 1]), -1, 1
        elif k % 3 == 1:
            yield f"frkan-G{G}-w{2 * w}", _spline_stack(rng, "frkan", G, [1, 2 * w, 1]), -1, 1
        else:
            yield f"mlp-w{4 * w}", _relu_mlp(rng, [1, 4 * w, 4 * w]), -2, 2


def _interior(report):
    tol = report.merge_tolerance
    return report.positions[(report.positions > report.lo + tol)
                            & (report.positions < report.hi - tol)]


class TestScannerCrossCheck:
    """The lattice scanner against the exact path on the same folded slice."""

    @pytest.mark.parametrize("net,lo,hi", [pytest.param(net, lo, hi, id=name)
                                           for name, net, lo, hi in _cross_check_cases()])
    def test_same_counts_and_positions(self, net, lo, hi):
        exact = exact_breakpoints(net, lo, hi)
        scan = scan_breakpoints(slice_map(net), lo, hi)
        assert scan.interior_count == exact.interior_count
        np.testing.assert_allclose(_interior(scan), _interior(exact),
                                   atol=exact.merge_tolerance)
        assert exact.slope_threshold == pytest.approx(scan.slope_threshold, rel=1e-3)

    def test_random_family_misses_only_what_the_lattice_cannot_resolve(self):
        # A kink between two samples splits its jump over two lattice second
        # differences, whose sum the scanner also tests, so it flags every
        # jump above its threshold; kinks a few samples apart share a cluster.
        misses = found = 0
        for name, net, lo, hi in _random_family():
            exact = exact_breakpoints(net, lo, hi)
            scan = scan_breakpoints(slice_map(net), lo, hi)
            tol, dt = exact.merge_tolerance, (hi - lo) / (scan.samples - 1)
            pos, jump = exact.positions, exact.slope_jumps
            inner = (pos > lo + tol) & (pos < hi - tol)
            gaps = np.diff(pos)
            spacing = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
            resolvable = inner & (np.abs(jump) > exact.slope_threshold) & (spacing > 4 * dt)
            got = _interior(scan)
            near = lambda p, others: others.size and np.min(np.abs(others - p)) <= tol
            assert all(near(p, pos) for p in got), f"{name}: a scanned breakpoint is not exact"
            assert all(near(p, got) for p in pos[resolvable]), f"{name}: missed a resolvable one"
            misses += int(np.sum(inner)) - got.size
            found += got.size
        assert found > 400 and misses <= 0.01 * found


class TestBoundProperties:
    """Exact counts against the paper's bounds.  The spline counts add the
    two boundary knots; the ReLU chain bounds the kinks themselves."""

    @settings(max_examples=60)
    @given(kind=st.sampled_from(["kan", "frkan"]), G=st.integers(2, 8),
           d_in=st.integers(1, 2), width=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_depth_one_spline_counts_lie_within_the_bounds(self, kind, G, d_in, width, seed):
        net = _spline_stack(np.random.default_rng(seed), kind, G, [d_in, width])
        bounds = network_bounds(net)
        n = exact_breakpoints(net, -1.0, 1.0).nonzero_jumps + 2
        assert bounds.lower <= n <= bounds.upper

    @settings(max_examples=60)
    @given(kind=st.sampled_from(["kan", "frkan"]), G=st.integers(3, 8),
           d_in=st.integers(1, 2), width=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_depth_two_spline_counts_lie_within_the_bounds(self, kind, G, d_in, width, seed):
        net = _spline_stack(np.random.default_rng(seed), kind, G, [d_in, width, 1])
        bounds = network_bounds(net)
        n = exact_breakpoints(net, -1.0, 1.0).nonzero_jumps + 2
        assert bounds.lower <= n <= bounds.upper

    @settings(max_examples=60)
    @given(widths=st.lists(st.integers(1, 5), min_size=1, max_size=2),
           d_in=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
    def test_relu_counts_lie_within_the_chain(self, widths, d_in, seed):
        net = _relu_mlp(np.random.default_rng(seed), [d_in, *widths])
        chain = network_bounds(net).upper
        assert exact_breakpoints(net, -3.0, 3.0).nonzero_jumps <= chain

    def test_fixed_grid_upper_bound_is_exceeded_at_G2(self):
        # Layer 1 sweeps [-3, 3] on each of its two pieces and crosses all
        # five of layer 2's knots (-2..2) both times: 10 interior knots, 12
        # with the boundary, against (G+K) + (G(G-1))^2 = 7.  Its own kink at
        # t=0 maps to x=-3, outside layer 2's knots, and leaves no jump.
        kv = make_uniform_grid(-1.0, 1.0, 2, 1)
        one, zero = np.ones((1, 1)), np.zeros((1, 1))
        net = Network([
            KANLayer(1, 1, kv, np.array([[[3.0, -3.0, 3.0]]]), one, zero, silu_path=False),
            KANLayer(1, 1, kv, np.array([[[1.0, -1.0, 2.0]]]), one, zero, silu_path=False)])
        audit = audit_network_knots(net)
        np.testing.assert_allclose(audit.report.positions,
                                   np.array([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]) / 6.0,
                                   atol=1e-15)
        assert audit.report.nonzero_jumps == audit.measured_interior == 10
        assert audit.bounds.upper == 7 and not audit.upper_ok
        scan = scan_breakpoints(slice_map(net), -1.0, 1.0)
        assert scan.interior_count == 10


class TestReadmeSnippet:
    def test_knot_auditing_block_prints_what_it_documents(self, capsys):
        """The README's "Knot auditing" code block, run as written.  It
        continues the quickstart, whose ``import numpy as np`` it uses."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Knot auditing", 1)[1].split("```python\n", 1)[1]
        block = block.split("```", 1)[0]
        assert "# 4 knots, bounds [6, 26]" in block
        scope = {"np": np}
        exec(block, scope)
        audit = scope["audit"]
        assert audit.measured_interior == 4
        assert (audit.bounds.lower, audit.bounds.upper) == (6, 26)
        assert capsys.readouterr().out.startswith("4 BoundResult(lower=6, upper=26,")
