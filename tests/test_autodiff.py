"""Tape records, the reverse sweep, and finite-difference agreement."""

import math

import numpy as np
import pytest

from frkan.autodiff import (
    DivisionNearZero,
    NonFiniteValue,
    Tape,
    finite_difference_check,
)


class TestRecord:
    def test_add_constants(self):
        tp = Tape()
        n = tp.add(tp.constant(2.0), tp.constant(3.0))
        assert tp.value(n) == 5.0

    def test_sigmoid_at_zero(self):
        tp = Tape()
        assert tp.value(tp.sigmoid(tp.constant(0.0))) == 0.5

    def test_division_by_zero_guarded(self):
        tp = Tape()
        one = tp.constant(1.0)
        zero = tp.constant(0.0)
        with pytest.raises(DivisionNearZero):
            tp.div(one, zero)

    def test_division_near_floor_guarded(self):
        tp = Tape()
        with pytest.raises(DivisionNearZero):
            tp.div(tp.constant(1.0), tp.constant(1e-13))

    def test_nonfinite_constant_rejected(self):
        tp = Tape()
        with pytest.raises(NonFiniteValue):
            tp.constant(float("nan"))
        with pytest.raises(NonFiniteValue):
            tp.parameter(float("inf"))

    def test_exp_overflow_raises(self):
        tp = Tape()
        with pytest.raises(NonFiniteValue):
            tp.exp(tp.constant(1e4))

    def test_log_domain(self):
        tp = Tape()
        with pytest.raises(NonFiniteValue):
            tp.log(tp.constant(-1.0))

    def test_error_names_the_op(self):
        tp = Tape()
        big = tp.constant([1.0, 1e200])
        with pytest.raises(NonFiniteValue, match="^mul"), np.errstate(over="ignore"):
            tp.mul(big, big)

    def test_masked_division_skips_the_floor(self):
        tp = Tape()
        q = tp.div(tp.constant([1.0, 1.0]), tp.constant([4.0, 0.0]),
                   where=np.array([True, False]))
        assert tp.values(q) == [0.25, 0.0]
        with pytest.raises(DivisionNearZero):
            tp.div(tp.constant([1.0, 1.0]), tp.constant([4.0, 0.0]),
                   where=np.array([False, True]))

    def test_record_count_is_one_per_op(self):
        tp = Tape()
        a = tp.constant(np.arange(1.0, 9.0))
        tp.sum(tp.mul(a, a))
        assert tp.record_count == 2 + 3   # constant, mul, then a tree over 8
        assert len(tp) == 8 + 8 + 4 + 2 + 1


class TestBackward:
    def test_square(self):
        tp = Tape()
        p = tp.parameter(3.0, handle="p")
        grads = tp.backward(tp.mul(p, p))
        assert grads["p"] == pytest.approx(6.0, abs=1e-15)

    def test_silu_gradient_at_zero(self):
        tp = Tape()
        p = tp.parameter(0.0, handle="p")
        grads = tp.backward(tp.silu(p))
        assert grads["p"] == pytest.approx(0.5, abs=1e-15)

    def test_unreachable_parameter_gets_zero(self):
        tp = Tape()
        p = tp.parameter(1.0, handle="used")
        q = tp.parameter(5.0, handle="unused")
        assert q >= 0
        grads = tp.backward(tp.mul(p, p))
        assert grads["unused"] == 0.0

    def test_max_tie_takes_first_branch(self):
        tp = Tape()
        a = tp.parameter(1.0, handle="a")
        b = tp.parameter(1.0, handle="b")
        grads = tp.backward(tp.maximum(a, b))
        assert grads == {"a": 1.0, "b": 0.0}

    def test_powi(self):
        tp = Tape()
        p = tp.parameter(2.0, handle="p")
        grads = tp.backward(tp.powi(p, 3))
        assert grads["p"] == pytest.approx(12.0)
        tp2 = Tape()
        p2 = tp2.parameter(3.0, handle="p")
        assert tp2.backward(tp2.powi(p2, 0))["p"] == 0.0

    def test_select_permutation_routes_gradients(self):
        tp = Tape()
        ps = [tp.parameter(v, handle=f"p{i}") for i, v in enumerate([3.0, 1.0, 2.0])]
        perm = [1, 2, 0]  # sorted order of the values
        # a permutation is a one-parent record with partial 1
        picked = np.array(ps)[perm]
        sel = tp.record("select", tp.value(picked), picked, 1.0)
        assert tp.values(sel) == [1.0, 2.0, 3.0]
        # weight the sorted outputs differently so routing is visible
        w = [tp.constant(c) for c in (10.0, 100.0, 1000.0)]
        acc = tp.add(tp.add(tp.mul(sel[0], w[0]), tp.mul(sel[1], w[1])),
                     tp.mul(sel[2], w[2]))
        grads = tp.backward(acc)
        assert grads == {"p0": 1000.0, "p1": 10.0, "p2": 100.0}

    def test_array_root_is_the_sum(self):
        tp = Tape()
        p = tp.parameter(1.5, handle="p")
        roots = tp.mul(tp.constant([1.0, 2.0, 3.0]), tp.mul(p, p))
        assert tp.backward(roots) == {"p": 18.0}

    def test_gradient_buffer_spans_tape(self):
        tp = Tape()
        p = tp.parameter(1.5)
        root = tp.exp(tp.mul(p, p))
        tp.backward(root)
        assert len(tp.last_gradient) == len(tp)


def _random_composite(params):
    """A fixed 5-parameter scalar expression mixing most primitives."""
    tp = Tape()
    first = tp.parameters_from(params)
    p = list(range(first, first + len(params)))
    t1 = tp.mul(tp.sin(p[0]), tp.exp(tp.mul(p[1], tp.constant(0.3))))
    t2 = tp.div(p[2], tp.add(tp.constant(2.0), tp.mul(p[3], p[3])))
    t3 = tp.sqrt(tp.add(tp.constant(1.0), tp.mul(p[4], p[4])))
    t4 = tp.sigmoid(tp.sub(t1, t2))
    t5 = tp.maximum(t3, tp.cos(p[0]))
    root = tp.add(tp.mul(t4, t5), tp.log(tp.add(t3, tp.constant(0.5))))
    return tp.value(root), tp.gradient_vector(root, len(params))


class TestFiniteDifferences:
    def test_polynomial_is_tight(self):
        def cube(params):
            tp = Tape()
            p = tp.parameter(params[0], handle=0)
            root = tp.powi(p, 3)
            return tp.value(root), np.array([tp.backward(root)[0]])

        assert finite_difference_check(cube, np.array([2.0]), step=1e-5) < 1e-8

    def test_composite_matches_central_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            params = rng.uniform(-1.5, 1.5, size=5)
            assert finite_difference_check(_random_composite, params, 1e-5) < 1e-4

    def test_nonfinite_evaluation_raises(self):
        def bad(params):
            if params[0] > 1.0:
                return float("nan"), np.array([0.0])
            return float(params[0]), np.array([1.0])

        with pytest.raises(NonFiniteValue):
            finite_difference_check(bad, np.array([1.0]), step=0.5)


class TestConcurrency:
    def test_distinct_tapes_on_distinct_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        def job(x0):
            tp = Tape()
            p = tp.parameter(x0, handle=0)
            root = tp.mul(tp.sin(p), p)
            return tp.backward(root)[0]

        xs = np.linspace(-2, 2, 32)
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(job, xs))
        want = [job(x) for x in xs]
        assert got == want


class TestAlgebraicInvariants:
    def test_backward_is_linear(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x0 = rng.uniform(-2, 2)
            a, b = rng.uniform(-3, 3, size=2)

            def f_graph(tp, x):
                return tp.mul(tp.sin(x), x)

            def g_graph(tp, x):
                return tp.exp(tp.mul(x, tp.constant(0.4)))

            tp = Tape()
            x = tp.parameter(x0, handle=0)
            gf = tp.backward(f_graph(tp, x))[0]
            tp = Tape()
            x = tp.parameter(x0, handle=0)
            gg = tp.backward(g_graph(tp, x))[0]
            tp = Tape()
            x = tp.parameter(x0, handle=0)
            combo = tp.add(tp.mul(tp.constant(a), f_graph(tp, x)),
                           tp.mul(tp.constant(b), g_graph(tp, x)))
            gc = tp.backward(combo)[0]
            expected = a * gf + b * gg
            assert abs(gc - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_recording_order_does_not_change_gradients(self):
        x0, y0 = 0.8, -1.3

        tp = Tape()
        x = tp.parameter(x0, handle="x")
        y = tp.parameter(y0, handle="y")
        left = tp.mul(tp.sin(x), y)
        right = tp.exp(tp.mul(x, y))
        g1 = tp.backward(tp.add(left, right))

        tp = Tape()
        y = tp.parameter(y0, handle="y")
        x = tp.parameter(x0, handle="x")
        right = tp.exp(tp.mul(x, y))
        left = tp.mul(tp.sin(x), y)
        g2 = tp.backward(tp.add(left, right))

        for k in ("x", "y"):
            assert abs(g1[k] - g2[k]) <= 1e-12 * max(1.0, abs(g1[k]))
