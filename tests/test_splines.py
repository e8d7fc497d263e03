"""Knot vectors, basis properties, free shifts, and the smoothness penalty."""

import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from frkan.autodiff import finite_difference_check
from frkan.splines import (
    DIVIDING_FLOOR,
    InvalidRange,
    KnotVector,
    SplineGroup,
    TooFewCoefficients,
    basis_matrix,
    init_shift,
    make_uniform_grid,
    pp_tables,
    second_difference_penalty,
    spline_eval,
    basis_window_on_tape,
    spline_values,
    window_backward,
    _window_columns,
    _window_levels,
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


def _shifted(kv, shift):
    # the effective knots of one shift vector
    return kv.knot_matrix([shift])[0]


def _clamp_gaps(g, min_gap):
    # The per-knot clamp chain that ``knot_matrix`` runs down the columns:
    # the reference it must match bit for bit, NaN included.
    out = g.copy()
    for i in range(1, out.size):
        lo = out[i - 1] + min_gap
        if lo - out[i - 1] < min_gap:
            lo = np.nextafter(lo, np.inf)
        if out[i] < lo:
            out[i] = lo
    return out


def _reference_knots(kv, shift):
    left, right = kv.extension_points()
    pts = kv.base_points()
    if kv.G > 1:
        pts[1:-1] += shift[1:-1]
    return _clamp_gaps(np.sort(np.concatenate([left, pts, right])), kv.min_gap)


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
            kv.row, [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5], atol=0)
        assert kv.n_bases == 5

    def test_paper_scale_grid(self):
        kv = make_uniform_grid(-10, 10, 20, 3)
        assert kv.dg == 1.0
        assert kv.n_bases == 23
        assert kv.row.size == 20 + 1 + 2 * 3

    def test_degenerate_range_rejected(self):
        with pytest.raises(InvalidRange):
            make_uniform_grid(1, 1, 4, 1)
        with pytest.raises(InvalidRange):
            make_uniform_grid(2, 1, 4, 1)

    def test_zero_shift_is_identity(self):
        kv = make_uniform_grid(-3, 7, 6, 2)
        base = np.concatenate([kv.extension_points()[0], kv.base_points(),
                               kv.extension_points()[1]])
        assert kv.knot_matrix([np.zeros(kv.G + 1)])[0].tolist() == base.tolist()


class TestFreeShift:
    def test_sorting_restores_order(self):
        kv = make_uniform_grid(0, 4, 4, 1)
        # interior points 1,2,3 shifted so that two of them swap
        knots = _shifted(kv, np.array([0.0, 1.6, -0.1, -1.6, 0.0]))
        assert np.all(np.diff(knots) > 0)
        # shifted multiset {0, 2.6, 1.9, 1.4, 4} sorted inside the extensions
        np.testing.assert_allclose(knots, [-1.0, 0.0, 1.4, 1.9, 2.6, 4.0, 5.0])

    def test_endpoints_stay_pinned(self):
        kv = make_uniform_grid(-2, 2, 5, 2)
        knots = _shifted(kv, np.full(6, 0.3))
        assert knots[kv.K] == -2.0
        assert knots[kv.K + kv.G] == 2.0

    def test_min_gap_clamp_absorbs_collisions(self):
        kv = make_uniform_grid(0, 1, 4, 1)
        knots = _shifted(kv, np.array([0.0, 0.25, 0.0, -0.25, 0.0]))  # points 1 and 2 collide
        assert np.all(np.diff(knots) >= kv.min_gap * (1 - 1e-12))
        kv.assert_sorted(knots)

    def test_init_shift_bound_and_determinism(self):
        kv = make_uniform_grid(-10, 10, 20, 3)
        s1 = init_shift(kv, 8.0, seed=11)
        s2 = init_shift(kv, 8.0, seed=11)
        assert s1.tolist() == s2.tolist()
        half = (kv.b - kv.a) / (8.0 * kv.G)
        assert half == 0.125
        assert np.max(np.abs(s1)) <= half
        knots = _shifted(kv, s1)
        assert np.all(np.diff(knots) > 0)
        displace = np.abs(knots - make_uniform_grid(-10, 10, 20, 3).row)
        assert np.max(displace) <= half

    def test_large_Z_recovers_fixed_grid(self):
        kv = make_uniform_grid(-1, 1, 5, 1)
        s = init_shift(kv, 1e12, seed=0)
        assert np.max(np.abs(s)) < 1e-12


class TestBasis:
    def test_hat_peak(self):
        kv = make_uniform_grid(0, 1, 4, 1)
        t = kv.row
        # order-1 basis j peaks with value 1 at knot j+1
        for j in range(kv.n_bases):
            assert _reference_basis(t[j + 1], t, j, 1) == pytest.approx(1.0)

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_partition_of_unity(self, K, shifted):
        kv = make_uniform_grid(-2, 3, 7, K)
        t = _shifted(kv, init_shift(kv, 8.0, seed=5)) if shifted else kv.row
        x = np.linspace(kv.a, kv.b, 2001)
        sums = basis_matrix(x, t, K).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-9

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_nonnegative_and_local_support(self, K):
        kv = make_uniform_grid(-1, 1, 6, K)
        t = kv.row
        x = np.linspace(t[0] - 0.5, t[-1] + 0.5, 1500)
        B = basis_matrix(x, t, K)
        assert np.all(B >= 0)
        for j in range(kv.n_bases):
            outside = (x < t[j]) | (x > t[j + K + 1])
            assert np.all(B[outside, j] == 0.0)

    def test_matches_reference_recursion(self):
        rng = np.random.default_rng(2)
        kv = make_uniform_grid(-1, 2, 5, 3)
        t = _shifted(kv, init_shift(kv, 8.0, seed=9))
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
        t = _shifted(kv, init_shift(kv, 2.0, seed=10 * G + K)) if shifted else kv.row
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
        t = _shifted(kv, init_shift(kv, 8.0, seed=4))
        x = _probe_points(t, np.random.default_rng(7))
        m, W = basis_window_on_tape(x, t, K)[:2]
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
        t = make_uniform_grid(-1, 1, 5, K).row
        x = np.array([0.25, np.nan, np.inf, -np.inf])
        B = basis_matrix(x, t, K)
        assert np.all(np.isfinite(B[0]))
        assert np.all(np.isnan(B[1:]))
        m, W = basis_window_on_tape(x, t, K)[:2]
        assert np.all(np.isnan(W[1:]))

    @settings(max_examples=200)
    @given(K=st.integers(1, 3), G=st.integers(1, 20),
           a=st.floats(-50, 50), width=st.floats(1e-3, 100),
           data=st.data())
    def test_partition_of_unity_under_arbitrary_shifts(self, K, G, a, width, data):
        kv = make_uniform_grid(a, a + width, G, K)
        reach = 3.0 * width
        t = _shifted(kv, np.array(data.draw(st.lists(st.floats(-reach, reach),
                                                     min_size=G + 1, max_size=G + 1))))
        x = np.array(data.draw(st.lists(st.floats(kv.a, kv.b), min_size=1, max_size=50)))
        sums = basis_matrix(x, t, K).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-9


def _in_spans(T, rows, spans, u):
    # a point of span spans[n] of knot row rows[n], at fraction u[n] of it
    lo, hi = T[rows, spans], T[rows, spans + 1]
    return np.minimum(lo + u * (hi - lo), np.nextafter(hi, -np.inf))


def _same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestInteriorShortPath:
    """A batch whose every input lies in an interior span skips the
    kernel's clamps and edge fix-up.  One more input that is not interior
    (an edge span, outside the knots, not finite) sends the same batch
    down the general path, and the rows both batches share must not
    change by a single bit, signed zeros included."""

    @settings(max_examples=150)
    @given(K=st.integers(1, 3), G=st.sampled_from([1, 2, 5, 20]), shifted=st.booleans(),
           extra=st.sampled_from(["left edge", "right edge", "below", "above", "last knot",
                                  "nan", "inf", "-inf"]),
           data=st.data())
    def test_shared_rows_are_byte_identical(self, K, G, shifted, extra, data):
        kv = make_uniform_grid(-2.0, 3.0, G, K)
        if shifted:
            seeds = data.draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=2, max_size=2))
            T = kv.knot_matrix([init_shift(kv, 2.0, seed=s) for s in seeds])
        else:
            T = np.stack([kv.row, kv.row])
        n = data.draw(st.integers(1, 30))
        def draw(elements):
            return np.array(data.draw(st.lists(elements, min_size=2 * n, max_size=2 * n)))

        spans = draw(st.integers(K, G + K - 1)).reshape(n, 2)
        u = draw(st.floats(0.0, 1.0, exclude_max=True)).reshape(n, 2)
        # column j reads knot row j, as in a cached FR-KAN forward
        cols = np.array([0, 1])
        X = _in_spans(T, cols, spans, u)
        g = data.draw(st.integers(0, 1))      # the knot row of the extra input
        t, v = T[g], data.draw(st.floats(0.0, 1.0, exclude_max=True))
        if "edge" in extra:     # one of the first or last K spans
            first = 0 if extra == "left edge" else G + K
            x_extra = _in_spans(T, g, data.draw(st.integers(first, first + K - 1)), v)
        else:
            x_extra = {"below": t[0] - 1.0 - v, "above": t[-1] + v, "last knot": t[-1],
                       "nan": np.nan, "inf": np.inf, "-inf": -np.inf}[extra]
        # the other column's extra input is interior
        Xa = np.vstack([X, X[:1]])
        Xa[-1, g] = x_extra
        spans_a = _window_columns(Xa, T, K, rows=cols)[0]
        assert K <= spans_a[:-2].min() and spans_a[:-2].max() <= G + K - 1
        assert not K <= spans_a[-2 + g] <= G + K - 1

        # one knot row: the kernel, spline values, the dense basis, the window's x gradient
        x, xa = X[:, g], Xa[:, g]
        (m, W), (ma, Wa) = _window_columns(x, t, K), _window_columns(xa, t, K)
        assert _same_bytes(m, ma[:n])
        assert all(_same_bytes(w, wa[:n]) for w, wa in zip(W, Wa))
        c = np.random.default_rng(K + G).normal(size=kv.n_bases)
        y, ya = spline_values(x, t, K, c), spline_values(xa, t, K, c)
        assert _same_bytes(y, ya[:n])
        if extra in ("below", "above", "last knot"):
            assert _same_bytes(ya[n:], np.zeros(1))    # +0, from m = -1
        assert _same_bytes(basis_matrix(x, t, K), basis_matrix(xa, t, K)[:n])
        gW = np.random.default_rng(n).normal(size=(2 * n, K + 1))
        _, W, back = basis_window_on_tape(x, t, K)
        _, Wa, back_a = basis_window_on_tape(xa, t, K)
        assert _same_bytes(W, Wa[:n])
        assert _same_bytes(back(gW[:n])[0], back_a(np.vstack([gW[:n], gW[:1]]))[0][:n])

        # a knot matrix, per column of a 2-D x and per input of a flat one;
        # the extra inputs send no gradient, so the knots' gradient holds too
        gWa = np.vstack([gW, np.zeros((2, K + 1))])
        for inputs, rows, inputs_a, rows_a in [
                (X, cols, Xa, cols),
                (X.ravel(), np.tile(cols, n), Xa.ravel(), np.tile(cols, n + 1))]:
            _, W, back = basis_window_on_tape(inputs, T, K, rows)
            _, Wa, back_a = basis_window_on_tape(inputs_a, T, K, rows_a)
            assert _same_bytes(W, Wa[:2 * n])
            (gx, gt), (gxa, gta) = back(gW), back_a(gWa)
            assert _same_bytes(gx.ravel(), gxa.ravel()[:2 * n])
            assert _same_bytes(gt, gta)


class TestLevelForm:
    """``_window_levels``, the training form with one (K+1, N) window, and
    ``_window_columns``, the column form of the uncached entries, give the
    same spans and window, byte for byte, signed zeros and NaN included."""

    @settings(max_examples=150)
    @given(K=st.integers(1, 3), G=st.sampled_from([1, 2, 5, 20]),
           Z=st.sampled_from([None, 8.0, 1.05]),
           extra=st.sampled_from([None, "left edge", "right edge", "below", "above",
                                  "last knot", "nan", "inf", "-inf"]),
           data=st.data())
    def test_both_forms_give_the_same_window(self, K, G, Z, extra, data):
        kv = make_uniform_grid(-2.0, 3.0, G, K)
        if Z is None:
            T = np.stack([kv.row, kv.row])
        else:
            seeds = data.draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=2, max_size=2))
            T = kv.knot_matrix([init_shift(kv, Z, seed=s) for s in seeds])
        n = data.draw(st.integers(1, 20))
        def draw(elements):
            return np.array(data.draw(st.lists(elements, min_size=3 * n, max_size=3 * n)))

        # column j reads knot row cols[j], as in a cached FR-KAN forward
        cols = np.array([0, 0, 1])
        X = _in_spans(T, cols, draw(st.integers(K, G + K - 1)).reshape(n, 3),
                      draw(st.floats(0.0, 1.0, exclude_max=True)).reshape(n, 3))
        if extra is not None:       # one input that is not interior
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2))
            t, v = T[cols[j]], data.draw(st.floats(0.0, 1.0, exclude_max=True))
            if "edge" in extra:     # one of the first or last K spans
                first = 0 if extra == "left edge" else G + K
                X[i, j] = _in_spans(T, cols[j], data.draw(st.integers(first, first + K - 1)), v)
            else:
                X[i, j] = {"below": t[0] - 1.0 - v, "above": t[-1] + v, "last knot": t[-1],
                           "nan": np.nan, "inf": np.inf, "-inf": -np.inf}[extra]
        for x, t, rows in [(X[:, :2].ravel(), T[0], None), (X[:, 2], T[1], None),
                           (X.ravel(), T, np.tile(cols, n)), (X, T, cols)]:
            m, W = _window_columns(x, t, K, rows)
            m_l, W_l, _, _, named = _window_levels(x, t, K, rows)
            assert _same_bytes(m, m_l)
            assert W_l.shape == (K + 1, m.size) and _same_bytes(np.stack(W), W_l)
            assert (named is None) == (K <= m.min() and m.max() <= G + K - 1)


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
        shift = init_shift(kv, 8.0, seed=3)
        c = rng.normal(size=kv.n_bases)
        sg = SplineGroup(kv, c, shift)
        t = _shifted(kv, shift)
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
        t = _shifted(kv, init_shift(kv, 2.0, seed=10 * G + K))
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


def _runtime_warnings(f, *args):
    """f(*args) and the messages of the RuntimeWarnings it raised."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = f(*args)
    return out, {str(w.message) for w in seen if issubclass(w.category, RuntimeWarning)}


class TestPPForm:
    """``spline_values`` evaluates the per-span polynomial (pp) form, which
    agrees with the Cox-de Boor recursion to rounding, also where a knot
    gap is pinned at min_gap and the conversion divides by it."""

    @settings(max_examples=120)
    @given(K=st.integers(1, 3), G=st.sampled_from([1, 2, 5, 20]),
           Z=st.sampled_from([None, 8.0, 1.05]), pin=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1), magnitude=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_matches_the_dense_recursion(self, K, G, Z, pin, seed, magnitude):
        kv = make_uniform_grid(-2.0, 3.0, G, K)
        rng = np.random.default_rng(seed)
        shifts = np.stack([np.zeros(G + 1) if Z is None else init_shift(kv, Z, rng)
                           for _ in range(2)])
        if pin and G > 1:   # an interior base point onto its (moved) neighbour
            base, j = kv.base_points(), rng.integers(1, G)
            k = j + rng.choice([-1, 1])
            shifts[0, j] = base[k] + (shifts[0, k] if 0 < k < G else 0.0) - base[j]
        T = kv.knot_matrix(shifts)
        t = T[0]
        if pin and G > 1:
            assert np.diff(t).min() < 1.01 * kv.min_gap
        c = magnitude * rng.normal(size=(2, kv.n_bases))
        # every knot with the floats just below and above it, every span's
        # midpoint (the edge spans too), random points across and beyond the
        # knots, and the non-finite inputs
        x = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
                            (t[:-1] + t[1:]) / 2, _probe_points(t, rng),
                            [np.nan, np.inf, -np.inf]])
        got, pp_warnings = _runtime_warnings(spline_values, x, t, K, c[0])
        _, recursion_warnings = _runtime_warnings(basis_matrix, x, t, K)
        assert pp_warnings <= recursion_warnings
        finite = np.isfinite(x)
        want = _dense_basis(x[finite], t, K) @ c[0]
        assert np.abs(got[finite] - want).max() <= 1e-13 * np.abs(c[0]).max()
        outside = finite & ((x < t[0]) | (x >= t[-1]))
        assert outside.any() and np.all(got[outside] == 0.0)
        assert np.all(np.isnan(got[~finite]))
        # a knot matrix converts row by row, as the rows one at a time do
        origin, Q = pp_tables(T, K, c)
        for g in range(2):
            origin_g, Q_g = pp_tables(T[g], K, c[g])
            assert _same_bytes(origin[g], origin_g) and _same_bytes(Q[:, g], Q_g)


class TestPenalty:
    def test_constant_coefficients(self):
        kv = make_uniform_grid(0, 1, 4, 1)
        assert second_difference_penalty(np.full(5, 2.5), kv.dg)[0] == 0.0

    def test_affine_coefficients(self):
        kv = make_uniform_grid(0, 1, 4, 1)
        assert second_difference_penalty(np.arange(5, dtype=float), kv.dg)[0] == 0.0

    def test_alternating_example(self):
        kv = make_uniform_grid(0, 4, 4, 1)  # dg = 1
        c = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        assert second_difference_penalty(c, kv.dg)[0] == pytest.approx(48.0)

    def test_too_few(self):
        kv = make_uniform_grid(0, 1, 1, 1)
        with pytest.raises(TooFewCoefficients):
            second_difference_penalty(np.ones(2), kv.dg)

    def test_array_penalty_sums_the_groups(self):
        rng = np.random.default_rng(0)
        kv = make_uniform_grid(-1, 3, 5, 2)
        c = rng.normal(size=(3, 2, kv.n_bases))
        value, grad = second_difference_penalty(c, kv.dg)
        rows = [second_difference_penalty(row, kv.dg)[0] for row in c.reshape(-1, kv.n_bases)]
        assert value == pytest.approx(sum(rows), rel=1e-12)
        assert grad.shape == c.shape


class TestTapeSpline:
    """``basis_window_on_tape`` and ``KnotVector.shift_gradient``: the
    window of a layer's training pass, its backward closure, and the map of
    knot gradients onto the shifts, under a spline contraction written here."""

    def _flat_eval(self, kv):
        """Loss builder over flat params [x, coefficients..., shift...]."""
        nb, K = kv.n_bases, kv.K

        def f(params):
            x, c, shifts = params[:1], params[1:1 + nb], params[None, 1 + nb:]
            plan = kv.knot_plan(shifts)
            m, W, backward = basis_window_on_tape(x, plan[0], K, np.zeros(1, dtype=np.intp))
            idx = np.clip(m[:, None] - K + np.arange(K + 1), 0, nb - 1)
            gx, gt = backward(c[idx])
            gc = np.bincount(idx.ravel(), W.ravel(), minlength=nb)
            gs = kv.shift_gradient(plan, gt)
            return (W * c[idx]).sum(), np.concatenate([gx, gc, gs.ravel()])

        return f

    def test_tape_value_matches_eval(self):
        rng = np.random.default_rng(8)
        kv = make_uniform_grid(-1, 1, 5, 3)
        shift = init_shift(kv, 8.0, seed=2)
        c = rng.normal(size=kv.n_bases)
        sg = SplineGroup(kv, c, shift)
        f = self._flat_eval(kv)
        for x in rng.uniform(-1.3, 1.3, size=40):
            params = np.concatenate([[x], c, shift])
            value, _ = f(params)
            assert value == pytest.approx(spline_eval(x, sg), abs=1e-12)

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_gradients_match_finite_differences(self, K):
        rng = np.random.default_rng(4)
        kv = make_uniform_grid(-1, 1, 5, K)
        shift = init_shift(kv, 8.0, seed=2)
        c = rng.normal(size=kv.n_bases)
        knots = _shifted(kv, shift)
        f = self._flat_eval(kv)
        checked = 0
        for x in rng.uniform(-0.95, 0.95, size=12):
            if np.min(np.abs(knots - x)) < 1e-3:
                continue
            params = np.concatenate([[x], c, shift])
            assert finite_difference_check(f, params, step=1e-5) < 1e-4
            checked += 1
        assert checked >= 8

    def test_outside_support_is_zero(self):
        kv = make_uniform_grid(-1, 1, 4, 1)
        m, W, backward = basis_window_on_tape(np.array([5.0]), kv.row, kv.K)
        assert m.tolist() == [-1] and not W.any()   # no value, no coefficient gradient
        gx, gt = backward(np.ones((1, kv.K + 1)))
        assert gx.tolist() == [0.0] and gt is None

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_bulk_window_matches_kernel(self, K):
        """Every input of every knot row at once, clamped rows and inputs
        outside the span included: the window is the kernel's, bit for bit."""
        rng = np.random.default_rng(K)
        kv = make_uniform_grid(-1, 1, 6, K)
        shifts = kv.dg * rng.integers(-2, 3, size=(3, kv.G + 1)) \
            + rng.uniform(-0.3, 0.3, size=(3, kv.G + 1)) * kv.min_gap
        knots = kv.knot_matrix(shifts)
        assert np.any(np.diff(knots) < 1.5 * kv.min_gap)   # the clamp moved knots
        x = rng.uniform(-2.5, 2.5, size=60)
        rows = rng.integers(0, 3, size=60)
        m, W, _ = basis_window_on_tape(x, knots, K, rows)
        for g in range(3):
            want_m, want_W = basis_window_on_tape(x[rows == g], knots[g], K)[:2]
            assert np.array_equal(m[rows == g], want_m)
            assert np.array_equal(W[rows == g], want_W)

    def test_knot_gradient_follows_the_clamp(self):
        """A knot the clamp raises sends its gradient to its predecessor's
        shift entry; a fixed point's knot sends none."""
        kv = make_uniform_grid(0, 4, 4, 1)
        shifts = np.array([[0.0, 0.0, 1.0, 0.0, 0.0]])
        knots = kv.knot_matrix(shifts)[0]
        # base point 2 moved onto base point 3, which the clamp raises by min_gap
        assert knots[1:6].tolist() == [0.0, 1.0, 3.0, 3.0 + kv.min_gap, 4.0]
        # knot -> the shift entry of the point it carries: knots 1 and 5 are
        # the fixed endpoints, and the raised knot 4 carries base point 2
        source = {2: 1, 3: 2, 4: 2}
        # inputs whose window slots all name a basis, in spans 1 to 4
        x = np.array([0.5, 1.5, 3.0 + kv.min_gap / 2, 3.0 + 2 * kv.min_gap, 3.5])
        m, _, backward = basis_window_on_tape(x, knots[None, :], 1, np.zeros(x.size, dtype=int))
        gW = np.random.default_rng(0).normal(size=(2, x.size))
        _, gt = backward(gW.T)
        gs = kv.shift_gradient(kv.knot_plan(shifts), gt)
        _, gT = window_backward(_window_levels(x, knots, 1)[2], 1, gW)
        want_t, want = np.zeros_like(knots), np.zeros(5)
        for n in range(x.size):
            for p in (1, 2):                 # window knot p is knot m - 1 + p
                k = m[n] - 1 + p
                want_t[k] += gT[p, n]
                if k in source:
                    want[source[k]] += gT[p, n]
        np.testing.assert_allclose(gt[0], want_t, rtol=1e-15, atol=0)
        assert gs.shape == (1, 5)
        np.testing.assert_allclose(gs[0], want, rtol=1e-15, atol=0)
        assert gs[0, 0] == gs[0, 3] == gs[0, 4] == 0.0 and gs[0, 1] != 0.0 != gs[0, 2]


class TestWindowBackward:
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_matches_central_differences(self, K):
        """The reverse levels give each basis's derivative for x and for
        every window knot, with one seed per slot on a leading axis."""
        rng = np.random.default_rng(10 + K)
        t = np.sort(rng.uniform(-2, 2, size=12))
        # spans whose window knots m-K..m+K+1 are all inside t
        x = rng.uniform(t[K], t[-K - 1], size=30)
        m, _, levels = _window_levels(x, t, K)[:3]
        gx, gT = window_backward(levels, K, np.eye(K + 1)[:, :, None] * np.ones(x.size))
        step = 1e-6

        def fd(bump):
            up, down = bump(step), bump(-step)
            return (basis_window_on_tape(*up, K)[1]
                    - basis_window_on_tape(*down, K)[1]).T / (2 * step)

        def close(got, want):
            return np.max(np.abs(got - want)) < 1e-6 * max(1.0, np.max(np.abs(got)))

        assert close(gx, fd(lambda h: (x + h, t)))
        for p in range(2 * K + 2):
            for n in range(x.size):
                def bump(h):
                    tb = t.copy()
                    tb[m[n] - K + p] += h
                    return x[n:n + 1], tb
                assert close(gT[:, p, n], fd(bump)[:, 0]), (p, n)


@st.composite
def _shifted_grids(draw):
    """((a, b, G, K), shifts): h = 1..8 shift rows that either move points
    by whole multiples of dg, so that they collide and get clamped, or by
    any amount within three grid widths; now and then one entry is NaN."""
    h, G, K = draw(st.integers(1, 8)), draw(st.integers(1, 24)), draw(st.integers(1, 3))
    a, width = draw(st.floats(-50, 50)), draw(st.floats(1e-3, 100))
    if draw(st.booleans()):
        dg = ((a + width) - a) / G
        shifts = draw(arrays(np.int64, (h, G + 1), elements=st.integers(-3, 3))) * dg
    else:
        reach = 3.0 * width
        shifts = draw(arrays(float, (h, G + 1), elements=st.floats(-reach, reach)))
    if draw(st.booleans()):
        shifts[draw(st.integers(0, h - 1)), draw(st.integers(0, G))] = np.nan
    return (a, a + width, G, K), shifts


class TestKnotMatrix:
    @settings(max_examples=300)
    @given(case=_shifted_grids())
    # a shifted point lands on an extension point, and min_gap added to the
    # knot before it rounds down to that knot's ulp
    @example(case=((8.0, 8.001, 3, 2), np.array([[0.0, 0.0, 0.001, 0.0]])))
    @example(case=((-1.0, 1.0, 4, 1), np.array([[0.0, 0.1, np.nan, -0.2, 0.0],
                                                [0.0, 0.5, 0.5, -0.5, 0.0]])))
    def test_rows_match_the_sequential_clamp(self, case):
        (a, b, G, K), shifts = case
        kv = make_uniform_grid(a, b, G, K)
        T = kv.knot_matrix(shifts)
        assert T.shape == (shifts.shape[0], G + 2 * K + 1)
        for row, shift in zip(T, shifts):
            assert np.array_equal(row, _reference_knots(kv, shift), equal_nan=True)
        assert np.array_equal(_shifted(kv, shifts[0]), T[0], equal_nan=True)

    @settings(max_examples=200)
    @given(a=st.floats(-50, 50), width=st.floats(1e-3, 100), G=st.integers(1, 24),
           K=st.integers(1, 3))
    @example(a=8.0, width=0.001, G=3, K=2)
    @example(a=-0.0, width=5.0, G=7, K=2)
    def test_zero_shift_row_is_the_grid_row_bit_for_bit(self, a, width, G, K):
        kv = make_uniform_grid(a, a + width, G, K)
        assert kv.knot_matrix(np.zeros((1, G + 1)))[0].tobytes() == kv.row.tobytes()

    def test_grid_is_an_immutable_value(self):
        kv = make_uniform_grid(-1.0, 1.0, 4, 2)
        with pytest.raises(FrozenInstanceError):
            kv.G = 5
        with pytest.raises(ValueError):
            kv.row[0] = 0.0
        assert kv == KnotVector(-1, 1, 4, 2)
        assert not hasattr(kv, "shift")

    def test_grid_below_float_resolution_is_rejected(self):
        # a spacing of 1/24 next to 1e15, whose float spacing is 0.125
        with pytest.raises(InvalidRange, match="G:"):
            make_uniform_grid(1e15, 1e15 + 1.0, 24, 1)

    @pytest.mark.parametrize("a,b,G,K", [(-1.7976931348623157e308, 1.0, 10, 1),
                                         (-1.0, 1.7976931348623157e308, 10, 1),
                                         (-1.79e308, -1e308, 1, 1)])
    def test_an_overflowing_width_or_extension_names_b(self, a, b, G, K):
        with pytest.raises(InvalidRange, match="^b: "):
            make_uniform_grid(a, b, G, K)

    def test_knot_matrix_gaps_are_checked_per_row(self):
        kv = make_uniform_grid(0.0, 1.0, 4, 1)
        T = kv.knot_matrix(np.array([[0.0, 0.25, 0.0, -0.25, 0.0], np.zeros(5)]))
        kv.assert_sorted(T)
        T[1, 3] = T[1, 2]
        with pytest.raises(InvalidRange):
            kv.assert_sorted(T)

    @pytest.mark.parametrize("a,b,G,K", [(0.0, 1.0, 0, 1), (0.0, 1.0, 3.5, 1),
                                         (0.0, 1.0, True, 1), (0.0, 1.0, 4, 0),
                                         (np.nan, 1.0, 4, 1), (0.0, np.inf, 4, 1),
                                         ("0", 1.0, 4, 1), (1.0, -1.0, 4, 1)])
    def test_grid_fields_are_validated(self, a, b, G, K):
        with pytest.raises(InvalidRange):
            make_uniform_grid(a, b, G, K)


class _FixedDraw:
    """Stands in for ``st.data()`` in an ``@example``: every draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy):
        return self.value


class TestSortedInvariantUnderUpdates:
    @settings(max_examples=200)
    @given(K=st.integers(1, 3), G=st.integers(1, 20),
           a=st.floats(-50, 50), width=st.floats(1e-3, 100),
           data=st.data())
    # a shifted point lands on an extension point, and the clamped gap is
    # tiny next to the knot it is added to
    @example(K=2, G=3, a=8.0, width=0.001, data=_FixedDraw([0.0, 0.0, 0.001, 0.0]))
    def test_effective_knots_strictly_increase_under_arbitrary_shifts(self, K, G, a,
                                                                      width, data):
        kv = make_uniform_grid(a, a + width, G, K)
        reach = 3.0 * width
        gaps = np.diff(_shifted(kv, np.array(data.draw(st.lists(
            st.floats(-reach, reach), min_size=G + 1, max_size=G + 1)))))
        assert np.all(gaps > 0.0)
        assert np.all(gaps >= kv.min_gap * (1.0 - 1e-9))

    def test_clamped_gap_next_to_a_large_knot_is_at_least_min_gap(self):
        # 8.001667 + min_gap rounds down to the ulp of the knot
        kv = make_uniform_grid(8.0, 8.001, 3, 2)
        knots = _shifted(kv, np.array([0.0, 0.0, 0.001, 0.0]))
        kv.assert_sorted(knots)
        assert np.diff(knots).min() >= kv.min_gap

    def test_random_walk_on_shift_keeps_knots_sorted(self):
        rng = np.random.default_rng(19)
        kv = make_uniform_grid(-5, 5, 8, 3)
        shift = init_shift(kv, 8.0, seed=1)
        for _ in range(200):
            shift = shift + rng.normal(scale=0.4, size=shift.shape)
            knots = _shifted(kv, shift)
            assert np.all(np.diff(knots) >= kv.min_gap * (1 - 1e-12))
            kv.assert_sorted(knots)
