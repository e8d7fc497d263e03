"""Knot vectors, basis properties, free shifts, and the smoothness penalty."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frkan.autodiff import DIVIDING_FLOOR, Tape, finite_difference_check
from frkan.splines import (
    InvalidRange,
    KnotVector,
    SplineGroup,
    TooFewCoefficients,
    apply_free_shift,
    basis,
    basis_k0,
    basis_matrix,
    basis_window,
    coeff_second_difference_penalty,
    init_shift,
    make_uniform_grid,
    penalty_on_tape,
    spline_eval,
    spline_on_tape,
    spline_values,
)


def _reference_basis(x, t, j, k):
    # Independent recursive evaluator used as a cross-check oracle.
    if k == 0:
        return 1.0 if t[j] <= x < t[j + 1] else 0.0
    acc = 0.0
    left_gap = t[j + k] - t[j]
    if left_gap != 0.0:
        acc += (x - t[j]) * _reference_basis(x, t, j, k - 1) / left_gap
    right_gap = t[j + k + 1] - t[j + 1]
    if right_gap != 0.0:
        acc += (t[j + k + 1] - x) * _reference_basis(x, t, j + 1, k - 1) / right_gap
    return acc


def _dense_basis(x, t, K):
    # The Cox-de Boor recursion over every basis at once, with the
    # library's guards: the reference the local kernel must match bit for bit.
    x = np.asarray(x, dtype=float)[:, None]
    t = np.asarray(t, dtype=float)
    B = ((x >= t[:-1]) & (x < t[1:])).astype(float)
    for k in range(1, K + 1):
        d1 = t[k:-1] - t[:-k - 1]
        d2 = t[k + 1:] - t[1:-k]
        ok1 = np.abs(d1) > DIVIDING_FLOOR
        ok2 = np.abs(d2) > DIVIDING_FLOOR
        w1 = np.where(ok1, (x - t[:-k - 1]) / np.where(ok1, d1, 1.0), 0.0)
        w2 = np.where(ok2, (t[k + 1:] - x) / np.where(ok2, d2, 1.0), 0.0)
        B = w1 * B[:, :-1] + w2 * B[:, 1:]
    return B


def _probe_points(t, rng):
    """Random points across and beyond the knot span, every knot, and the
    points just outside both ends."""
    t = np.asarray(t, dtype=float)
    width = t[-1] - t[0]
    return np.concatenate([rng.uniform(t[0] - 0.5 * width, t[-1] + 0.5 * width, 500),
                           t, np.nextafter(t, -np.inf), [t[0] - 1.0, t[-1] + 1.0]])


class TestUniformGrid:
    def test_small_grid_layout(self):
        kv = make_uniform_grid(-1, 1, 4, 1)
        assert kv.base_points().tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
        np.testing.assert_allclose(
            kv.effective_knots(), [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5], atol=0)
        assert kv.n_bases == 5

    def test_paper_scale_grid(self):
        kv = make_uniform_grid(-10, 10, 20, 3)
        assert kv.dg == 1.0
        assert kv.n_bases == 23
        assert kv.effective_knots().size == 20 + 1 + 2 * 3

    def test_degenerate_range_rejected(self):
        with pytest.raises(InvalidRange):
            make_uniform_grid(1, 1, 4, 1)
        with pytest.raises(InvalidRange):
            make_uniform_grid(2, 1, 4, 1)

    def test_zero_shift_is_identity(self):
        kv = make_uniform_grid(-3, 7, 6, 2)
        base = np.concatenate([kv.extension_points()[0], kv.base_points(),
                               kv.extension_points()[1]])
        assert apply_free_shift(kv).tolist() == base.tolist()


class TestFreeShift:
    def test_sorting_restores_order(self):
        kv = make_uniform_grid(0, 4, 4, 1)
        # interior points 1,2,3 shifted so that two of them swap
        kv.shift = np.array([0.0, 1.6, -0.1, -1.6, 0.0])
        knots = apply_free_shift(kv)
        assert np.all(np.diff(knots) > 0)
        # shifted multiset {0, 2.6, 1.9, 1.4, 4} sorted inside the extensions
        np.testing.assert_allclose(knots, [-1.0, 0.0, 1.4, 1.9, 2.6, 4.0, 5.0])

    def test_endpoints_stay_pinned(self):
        kv = make_uniform_grid(-2, 2, 5, 2)
        kv.shift = np.full(6, 0.3)
        knots = apply_free_shift(kv)
        assert knots[kv.K] == -2.0
        assert knots[kv.K + kv.G] == 2.0

    def test_min_gap_clamp_absorbs_collisions(self):
        kv = make_uniform_grid(0, 1, 4, 1)
        kv.shift = np.array([0.0, 0.25, 0.0, -0.25, 0.0])  # points 1 and 2 collide
        knots = apply_free_shift(kv)
        assert np.all(np.diff(knots) >= kv.min_gap * (1 - 1e-12))
        kv.assert_sorted()

    def test_init_shift_bound_and_determinism(self):
        kv = make_uniform_grid(-10, 10, 20, 3)
        s1 = init_shift(kv, 8.0, seed=11)
        s2 = init_shift(kv, 8.0, seed=11)
        assert s1.tolist() == s2.tolist()
        half = (kv.b - kv.a) / (8.0 * kv.G)
        assert half == 0.125
        assert np.max(np.abs(s1)) <= half
        kv.shift = s1
        knots = apply_free_shift(kv)
        assert np.all(np.diff(knots) > 0)
        displace = np.abs(knots - make_uniform_grid(-10, 10, 20, 3).effective_knots())
        assert np.max(displace) <= half

    def test_large_Z_recovers_fixed_grid(self):
        kv = make_uniform_grid(-1, 1, 5, 1)
        s = init_shift(kv, 1e12, seed=0)
        assert np.max(np.abs(s)) < 1e-12


class TestBasis:
    def test_indicator(self):
        t = [0.0, 0.5, 1.0]
        assert basis_k0(0.3, t, 0) == 1.0
        assert basis_k0(0.7, t, 0) == 0.0
        assert basis_k0(0.5, t, 0) == 0.0  # half-open at the right knot

    def test_hat_peak(self):
        kv = make_uniform_grid(0, 1, 4, 1)
        t = kv.effective_knots()
        # order-1 basis j peaks with value 1 at knot j+1
        for j in range(kv.n_bases):
            assert basis(t[j + 1], t, j, 1) == pytest.approx(1.0)

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_partition_of_unity(self, K, shifted):
        kv = make_uniform_grid(-2, 3, 7, K)
        if shifted:
            kv.shift = init_shift(kv, 8.0, seed=5)
        t = kv.effective_knots()
        x = np.linspace(kv.a, kv.b, 2001)
        sums = basis_matrix(x, t, K).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-9

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_nonnegative_and_local_support(self, K):
        kv = make_uniform_grid(-1, 1, 6, K)
        t = kv.effective_knots()
        x = np.linspace(t[0] - 0.5, t[-1] + 0.5, 1500)
        B = basis_matrix(x, t, K)
        assert np.all(B >= 0)
        for j in range(kv.n_bases):
            outside = (x < t[j]) | (x > t[j + K + 1])
            assert np.all(B[outside, j] == 0.0)

    def test_matches_reference_recursion(self):
        rng = np.random.default_rng(2)
        kv = make_uniform_grid(-1, 2, 5, 3)
        kv.shift = init_shift(kv, 8.0, seed=9)
        t = kv.effective_knots()
        xs = rng.uniform(t[0], t[-1], size=50)
        B = basis_matrix(xs, t, 3)
        for i, x in enumerate(xs):
            for j in range(kv.n_bases):
                assert B[i, j] == pytest.approx(_reference_basis(x, t, j, 3), abs=1e-12)


class TestBasisWindow:
    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("G", [1, 2, 5, 20])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_dense_scatter_is_bit_identical(self, K, G, shifted):
        kv = make_uniform_grid(-2, 3, G, K)
        if shifted:
            kv.shift = init_shift(kv, 2.0, seed=10 * G + K)
        t = kv.effective_knots()
        x = _probe_points(t, np.random.default_rng(G))
        assert np.array_equal(basis_matrix(x, t, K), _dense_basis(x, t, K))

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_repeated_knots_are_bit_identical(self, K):
        t = np.array([0, 0, .5, .5, .5, 1, 2, 2, 3])
        x = _probe_points(t, np.random.default_rng(K))
        assert np.array_equal(basis_matrix(x, t, K), _dense_basis(x, t, K))

    @pytest.mark.parametrize("K", [1, 3])
    def test_window_holds_the_dense_row(self, K):
        kv = make_uniform_grid(-1, 1, 6, K)
        kv.shift = init_shift(kv, 8.0, seed=4)
        t = kv.effective_knots()
        x = _probe_points(t, np.random.default_rng(7))
        m, W = basis_window(x, t, K)
        B = _dense_basis(x, t, K)
        outside = (x < t[0]) | (x >= t[-1])
        assert np.all(m[outside] == -1)
        assert np.all(W[outside] == 0.0)
        for n in np.flatnonzero(~outside):
            assert t[m[n]] <= x[n] < t[m[n] + 1]
            cols = m[n] - K + np.arange(K + 1)
            real = (cols >= 0) & (cols < kv.n_bases)
            assert np.array_equal(W[n, real], B[n, cols[real]])
            assert np.all(W[n, ~real] == 0.0)
            others = np.setdiff1d(np.arange(kv.n_bases), cols)
            assert np.all(B[n, others] == 0.0)

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_non_finite_inputs_give_nan_rows(self, K):
        t = make_uniform_grid(-1, 1, 5, K).effective_knots()
        x = np.array([0.25, np.nan, np.inf, -np.inf])
        B = basis_matrix(x, t, K)
        assert np.all(np.isfinite(B[0]))
        assert np.all(np.isnan(B[1:]))
        m, W = basis_window(x, t, K)
        assert np.all(np.isnan(W[1:]))

    @settings(max_examples=200, deadline=None)
    @given(K=st.integers(1, 3), G=st.integers(1, 20),
           a=st.floats(-50, 50), width=st.floats(1e-3, 100),
           data=st.data())
    def test_partition_of_unity_under_arbitrary_shifts(self, K, G, a, width, data):
        kv = make_uniform_grid(a, a + width, G, K)
        reach = 3.0 * width
        kv.shift = np.array(data.draw(st.lists(st.floats(-reach, reach),
                                               min_size=G + 1, max_size=G + 1)))
        t = kv.effective_knots()
        x = np.array(data.draw(st.lists(st.floats(kv.a, kv.b), min_size=1, max_size=50)))
        sums = basis_matrix(x, t, K).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-9


class TestSplineEval:
    def test_partition_gives_constant_one(self):
        kv = make_uniform_grid(-1, 1, 5, 2)
        sg = SplineGroup(kv, np.ones(kv.n_bases))
        x = np.linspace(-1, 1, 500)
        np.testing.assert_allclose(spline_eval(x, sg), 1.0, atol=1e-12)

    def test_alternating_coefficients_make_a_sawtooth(self):
        kv = make_uniform_grid(-1, 1, 5, 1)
        c = np.array([(-1.0) ** j for j in range(kv.n_bases)])
        sg = SplineGroup(kv, c)
        base = kv.base_points()
        vals = spline_eval(base[:-1], sg)  # right endpoint is half-open
        np.testing.assert_allclose(vals, [1, -1, 1, -1, 1], atol=1e-12)
        # slope between adjacent peaks is 2/dg = 5
        mids = (base[:-1] + base[1:]) / 2
        left = spline_eval(mids - 1e-6, sg)
        right = spline_eval(mids + 1e-6, sg)
        slopes = (right - left) / 2e-6
        np.testing.assert_allclose(np.abs(slopes), 2.0 / kv.dg, rtol=1e-6)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(42)
        kv = make_uniform_grid(-2, 2, 6, 3)
        kv.shift = init_shift(kv, 8.0, seed=3)
        c = rng.normal(size=kv.n_bases)
        sg = SplineGroup(kv, c)
        t = kv.effective_knots()
        xs = rng.uniform(-2.5, 2.5, size=200)
        got = spline_eval(xs, sg)
        naive = np.array([
            sum(c[j] * _reference_basis(x, t, j, 3) for j in range(kv.n_bases))
            for x in xs
        ])
        np.testing.assert_allclose(got, naive, atol=1e-12)

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("G", [1, 2, 5, 20])
    def test_spline_values_match_the_dense_reference(self, K, G):
        kv = make_uniform_grid(-2, 3, G, K)
        kv.shift = init_shift(kv, 2.0, seed=10 * G + K)
        t = kv.effective_knots()
        rng = np.random.default_rng(G + K)
        c = rng.normal(size=kv.n_bases)
        x = np.concatenate([_probe_points(t, rng), [np.nan, np.inf, -np.inf]])
        got = spline_values(x, t, K, c)
        finite = np.isfinite(x)
        want = _dense_basis(x[finite], t, K) @ c
        np.testing.assert_allclose(got[finite], want, rtol=1e-13, atol=1e-13)
        outside = finite & ((x < t[0]) | (x >= t[-1]))
        assert outside.sum() > 100 and np.all(got[outside] == 0.0)
        assert np.all(np.isnan(got[~finite]))
        # window slots that name no basis read 0, not a neighbouring coefficient
        c[:] = np.nan
        assert np.all(spline_values(x[outside], t, K, c) == 0.0)

    def test_coefficient_count_enforced(self):
        kv = make_uniform_grid(0, 1, 4, 2)
        with pytest.raises(TooFewCoefficients):
            SplineGroup(kv, np.ones(3))


class TestPenalty:
    def test_constant_coefficients(self):
        kv = make_uniform_grid(0, 1, 4, 1)
        assert coeff_second_difference_penalty(SplineGroup(kv, np.full(5, 2.5))) == 0.0

    def test_affine_coefficients(self):
        kv = make_uniform_grid(0, 1, 4, 1)
        sg = SplineGroup(kv, np.arange(5, dtype=float))
        assert coeff_second_difference_penalty(sg) == 0.0

    def test_alternating_example(self):
        kv = make_uniform_grid(0, 4, 4, 1)  # dg = 1
        sg = SplineGroup(kv, np.array([1.0, -1.0, 1.0, -1.0, 1.0]))
        assert coeff_second_difference_penalty(sg) == pytest.approx(48.0)

    def test_too_few(self):
        kv = make_uniform_grid(0, 1, 1, 1)
        with pytest.raises(TooFewCoefficients):
            coeff_second_difference_penalty(SplineGroup(kv, np.ones(2)))

    def test_tape_penalty_matches_value_path(self):
        rng = np.random.default_rng(0)
        kv = make_uniform_grid(-1, 3, 5, 2)
        c = rng.normal(size=kv.n_bases)
        sg = SplineGroup(kv, c)
        tp = Tape()
        tp.parameters_from(c)
        node = penalty_on_tape(tp, list(range(c.size)), kv.dg)
        assert tp.value(node) == pytest.approx(coeff_second_difference_penalty(sg), rel=1e-12)


class TestTapeSpline:
    def _flat_eval(self, kv, n_coef, K):
        """Loss builder over flat params [x, coefficients..., shift...]."""

        def f(params):
            x0 = params[0]
            coef = params[1:1 + n_coef]
            shift = params[1 + n_coef:]
            tp = Tape()
            tp.parameters_from(params)
            coef_ids = list(range(1, 1 + n_coef))
            shift_ids = list(range(1 + n_coef, params.size))
            kv2 = KnotVector(kv.a, kv.b, kv.G, kv.K, shift.copy())
            knot_ids, knot_vals = kv2.tape_knots(tp, shift_ids)
            root = spline_on_tape(tp, knot_ids, knot_vals, K, coef_ids, 0)
            assert tp.value(0) == x0
            return tp.value(root), tp.gradient_vector(root, params.size)

        return f

    def test_tape_value_matches_eval(self):
        rng = np.random.default_rng(8)
        kv = make_uniform_grid(-1, 1, 5, 3)
        kv.shift = init_shift(kv, 8.0, seed=2)
        c = rng.normal(size=kv.n_bases)
        sg = SplineGroup(kv, c)
        f = self._flat_eval(kv, kv.n_bases, kv.K)
        for x in rng.uniform(-1.3, 1.3, size=40):
            params = np.concatenate([[x], c, kv.shift])
            value, _ = f(params)
            assert value == pytest.approx(spline_eval(x, sg), abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        kv = make_uniform_grid(-1, 1, 5, 2)
        kv.shift = init_shift(kv, 8.0, seed=2)
        c = rng.normal(size=kv.n_bases)
        knots = kv.effective_knots()
        f = self._flat_eval(kv, kv.n_bases, kv.K)
        checked = 0
        for x in rng.uniform(-0.95, 0.95, size=12):
            if np.min(np.abs(knots - x)) < 1e-3:
                continue
            params = np.concatenate([[x], c, kv.shift])
            assert finite_difference_check(f, params, step=1e-5) < 1e-4
            checked += 1
        assert checked >= 8

    def test_outside_support_is_zero(self):
        kv = make_uniform_grid(-1, 1, 4, 1)
        tp = Tape()
        knot_ids, knot_vals = kv.tape_knots(tp, None)
        coef_ids = [tp.constant(1.0) for _ in range(kv.n_bases)]
        x = tp.constant(5.0)
        node = spline_on_tape(tp, knot_ids, knot_vals, kv.K, coef_ids, x)
        assert tp.value(node) == 0.0


class TestSortedInvariantUnderUpdates:
    @settings(max_examples=200, deadline=None)
    @given(K=st.integers(1, 3), G=st.integers(1, 20),
           a=st.floats(-50, 50), width=st.floats(1e-3, 100),
           data=st.data())
    def test_effective_knots_strictly_increase_under_arbitrary_shifts(self, K, G, a,
                                                                      width, data):
        kv = make_uniform_grid(a, a + width, G, K)
        reach = 3.0 * width
        kv.shift = np.array(data.draw(st.lists(st.floats(-reach, reach),
                                               min_size=G + 1, max_size=G + 1)))
        gaps = np.diff(kv.effective_knots())
        assert np.all(gaps > 0.0)
        assert np.all(gaps >= kv.min_gap * (1.0 - 1e-9))

    def test_random_walk_on_shift_keeps_knots_sorted(self):
        rng = np.random.default_rng(19)
        kv = make_uniform_grid(-5, 5, 8, 3)
        kv.shift = init_shift(kv, 8.0, seed=1)
        for _ in range(200):
            kv.shift = kv.shift + rng.normal(scale=0.4, size=kv.shift.shape)
            knots = kv.effective_knots()
            assert np.all(np.diff(knots) >= kv.min_gap * (1 - 1e-12))
            kv.assert_sorted()
