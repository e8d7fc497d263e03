"""Tape records, the reverse sweep, and finite-difference agreement.

Parameters are bound with ``parameters_from`` as nodes 0..P-1 and read
back with ``gradient_vector``, as the training loss does.
"""

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
            Tape().parameters_from([1.0, float("inf")])

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

    def test_record_count_is_one_per_op(self):
        tp = Tape()
        a = tp.constant(np.arange(1.0, 9.0))
        tp.sum(tp.mul(a, a))
        assert tp.record_count == 2 + 3   # constant, mul, then a tree over 8
        assert len(tp) == 8 + 8 + 4 + 2 + 1


class TestBackward:
    def test_square(self):
        tp = Tape()
        p = tp.parameters_from([3.0])
        assert tp.gradient_vector(tp.mul(p, p), 1)[0] == pytest.approx(6.0, abs=1e-15)

    def test_silu_gradient_at_zero(self):
        tp = Tape()
        p = tp.parameters_from([0.0])
        assert tp.gradient_vector(tp.silu(p), 1)[0] == pytest.approx(0.5, abs=1e-15)

    def test_unreachable_parameter_gets_zero(self):
        tp = Tape()
        tp.parameters_from([1.0, 5.0])
        assert tp.gradient_vector(tp.mul(0, 0), 2)[1] == 0.0

    def test_max_tie_takes_first_branch(self):
        tp = Tape()
        tp.parameters_from([1.0, 1.0])
        assert tp.gradient_vector(tp.maximum(0, 1), 2).tolist() == [1.0, 0.0]

    def test_select_permutation_routes_gradients(self):
        tp = Tape()
        tp.parameters_from([3.0, 1.0, 2.0])
        picked = np.array([1, 2, 0])  # sorted order of the values
        # a permutation is a one-parent record with partial 1
        sel = tp.record("select", tp.value(picked), picked, 1.0)
        assert tp.values(sel) == [1.0, 2.0, 3.0]
        # weight the sorted outputs differently so routing is visible
        acc = tp.sum(tp.mul(sel, tp.constant([10.0, 100.0, 1000.0])))
        assert tp.gradient_vector(acc, 3).tolist() == [1000.0, 10.0, 100.0]

    def test_array_root_is_the_sum(self):
        tp = Tape()
        p = tp.parameters_from([1.5])
        roots = tp.mul(tp.constant([1.0, 2.0, 3.0]), tp.mul(p, p))
        assert tp.gradient_vector(roots, 1).tolist() == [18.0]

    def test_fan_record_routes_each_partial(self):
        """A fan node has one parent per entry of its trailing axis, and
        the sweep scatters a whole fan record, repeated parents included."""
        tp = Tape()
        tp.parameters_from([2.0, 3.0, 5.0])
        parents = np.array([[0, 1, 2], [2, 2, 0]])
        fan = tp.record("fan", [1.0, 2.0], parents, [[1.0, 10.0, 100.0], [1.0, 2.0, 4.0]])
        assert tp.record_count == 2
        root = tp.mul(fan, tp.constant([1.0, -1.0]))
        assert tp.gradient_vector(root, 3).tolist() == [1.0 - 4.0, 10.0, 100.0 - 3.0]


def _random_composite(params):
    """A fixed 5-parameter scalar expression mixing most primitives."""
    tp = Tape()
    first = tp.parameters_from(params)
    p = list(range(first, first + len(params)))
    t1 = tp.mul(tp.sigmoid(p[0]), tp.exp(tp.mul(p[1], tp.constant(0.3))))
    t2 = tp.div(p[2], tp.add(tp.constant(2.0), tp.mul(p[3], p[3])))
    t3 = tp.sqrt(tp.add(tp.constant(1.0), tp.mul(p[4], p[4])))
    t4 = tp.sigmoid(tp.sub(t1, t2))
    t5 = tp.maximum(t3, tp.silu(p[0]))
    root = tp.add(tp.mul(t4, t5), tp.log(tp.add(t3, tp.constant(0.5))))
    return tp.value(root), tp.gradient_vector(root, len(params))


class TestFiniteDifferences:
    def test_polynomial_is_tight(self):
        def cube(params):
            tp = Tape()
            p = tp.parameters_from(params)
            root = tp.mul(tp.mul(p, p), p)
            return tp.value(root), tp.gradient_vector(root, 1)

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
            p = tp.parameters_from([x0])
            root = tp.mul(tp.exp(tp.mul(p, p)), p)
            return tp.gradient_vector(root, 1)[0]

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
                return tp.mul(tp.sigmoid(x), x)

            def g_graph(tp, x):
                return tp.exp(tp.mul(x, tp.constant(0.4)))

            def grad(build):
                tp = Tape()
                x = tp.parameters_from([x0])
                return tp.gradient_vector(build(tp, x), 1)[0]

            gf, gg = grad(f_graph), grad(g_graph)
            gc = grad(lambda tp, x: tp.add(tp.mul(tp.constant(a), f_graph(tp, x)),
                                           tp.mul(tp.constant(b), g_graph(tp, x))))
            expected = a * gf + b * gg
            assert abs(gc - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_recording_order_does_not_change_gradients(self):
        x0, y0 = 0.8, -1.3

        tp = Tape()
        x, y = tp.parameters_from([x0, y0]) + np.arange(2)
        left = tp.mul(tp.sigmoid(x), y)
        right = tp.exp(tp.mul(x, y))
        g1 = tp.gradient_vector(tp.add(left, right), 2)

        tp = Tape()
        y, x = tp.parameters_from([y0, x0]) + np.arange(2)
        right = tp.exp(tp.mul(x, y))
        left = tp.mul(tp.sigmoid(x), y)
        g2 = tp.gradient_vector(tp.add(left, right), 2)[::-1]

        assert np.all(np.abs(g1 - g2) <= 1e-12 * np.maximum(1.0, np.abs(g1)))
