"""Tape records, the reverse sweep, and finite-difference agreement.

Parameters are bound with ``parameters_from`` as nodes 0..P-1 and read
back with ``gradient_vector``, as the training loss does.  The sweep is
exercised through a few vector-Jacobian records defined here; the
library's own records are the layer operations, which
``tests/test_layers.py`` and ``tests/test_tape_properties.py`` check.
"""

import numpy as np
import pytest

from frkan.autodiff import (
    NonFiniteGradient,
    NonFiniteValue,
    Tape,
    finite_difference_check,
)
from frkan.layers import FRKANLayer, MLPLayer, Network
from frkan.training import regularized_loss


def _add(tp, a, b):
    return tp.record("add", tp.value(a) + tp.value(b), [a, b], lambda g: [g, g])


def _mul(tp, a, b):
    va, vb = tp.value(a), tp.value(b)
    return tp.record("mul", va * vb, [a, b], lambda g: [g * vb, g * va])


def _exp(tp, a):
    with np.errstate(over="ignore"):
        v = np.exp(tp.value(a))
    return tp.record("exp", v, [a], lambda g: [g * v])


def _sigmoid(tp, a):
    s = 1.0 / (1.0 + np.exp(-tp.value(a)))
    return tp.record("sigmoid", s, [a], lambda g: [g * s * (1.0 - s)])


def _sum(tp, a):
    a = np.asarray(a)
    return tp.record("sum", tp.value(a).sum(), [a], lambda g: [np.full(a.shape, g)])


class TestRecord:
    def test_add_constants(self):
        tp = Tape()
        n = _add(tp, tp.constant(2.0), tp.constant(3.0))
        assert tp.value(n) == 5.0

    def test_nonfinite_constant_rejected(self):
        tp = Tape()
        with pytest.raises(NonFiniteValue):
            tp.constant(float("nan"))
        with pytest.raises(NonFiniteValue):
            Tape().parameters_from([1.0, float("inf")])

    def test_exp_overflow_raises(self):
        tp = Tape()
        with pytest.raises(NonFiniteValue):
            _exp(tp, tp.constant(1e4))

    def test_error_names_the_op(self):
        tp = Tape()
        big = tp.constant([1.0, 1e200])
        with pytest.raises(NonFiniteValue, match="^mul"), np.errstate(over="ignore"):
            _mul(tp, big, big)

    def test_nonfinite_gradient_names_the_op(self):
        tp = Tape()
        p = tp.parameters_from([1.0])
        root = tp.record("blowup", tp.value(p), [p], lambda g: [g * np.inf])
        with pytest.raises(NonFiniteGradient, match="^blowup"):
            tp.gradient_vector(root, 1)

    def test_record_count_is_one_per_op(self):
        tp = Tape()
        a = tp.constant(np.arange(1.0, 9.0))
        _sum(tp, _mul(tp, a, a))
        assert tp.record_count == 3
        assert len(tp) == 8 + 8 + 1


class TestBackward:
    def test_square(self):
        tp = Tape()
        p = tp.parameters_from([3.0])
        assert tp.gradient_vector(_mul(tp, p, p), 1)[0] == pytest.approx(6.0, abs=1e-15)

    def test_silu_gradient_at_zero(self):
        """A layer's SiLU shortcut passes silu'(0) = 1/2 back to its input."""
        G, K = 4, 1
        fr = FRKANLayer(1, 1, 1, -1.0, 1.0, G, K, np.zeros((1, G + K)), np.zeros((1, G + 1)),
                        [[1.0]])
        net = Network([MLPLayer([[1.0]], [0.0], "identity"), fr])
        # out = silu(0) = 0, so d(out - 1)^2/d(bias) = -2 silu'(0)
        _, grad, _ = regularized_loss(net, np.zeros((1, 1)), np.ones(1), 0.0)
        assert grad[1] == pytest.approx(-1.0, abs=1e-15)

    def test_unreachable_parameter_gets_zero(self):
        tp = Tape()
        tp.parameters_from([1.0, 5.0])
        assert tp.gradient_vector(_mul(tp, 0, 0), 2)[1] == 0.0

    def test_max_tie_takes_first_branch(self):
        """A ReLU at z = 0 passes the gradient on, as max(z, 0) with the
        tie going to its first argument."""
        net = Network([MLPLayer([[1.0]], [0.0], "relu"),
                       MLPLayer([[1.0]], [0.0], "identity")])
        _, grad, _ = regularized_loss(net, np.zeros((1, 1)), np.ones(1), 0.0)
        # W0, bias0, W1, bias1; d(out - 1)^2/d(out) = -2
        assert grad.tolist() == [0.0, -2.0, 0.0, -2.0]

    def test_select_permutation_routes_gradients(self):
        tp = Tape()
        tp.parameters_from([3.0, 1.0, 2.0])
        picked = np.array([1, 2, 0])  # sorted order of the values
        sel = tp.record("select", tp.value(picked), [picked], lambda g: [g])
        assert tp.values(sel) == [1.0, 2.0, 3.0]
        # weight the sorted outputs differently so routing is visible
        acc = _sum(tp, _mul(tp, sel, tp.constant([10.0, 100.0, 1000.0])))
        assert tp.gradient_vector(acc, 3).tolist() == [1000.0, 10.0, 100.0]

    def test_array_root_is_the_sum(self):
        tp = Tape()
        p = tp.parameters_from([1.5])
        sq = _mul(tp, p, p)
        k = np.array([1.0, 2.0, 3.0])
        roots = tp.record("scale", k * tp.value(sq), [sq], lambda g: [(g * k).sum()])
        assert tp.gradient_vector(roots, 1).tolist() == [18.0]


def _random_composite(params):
    """A fixed 5-parameter scalar expression over the records above, with
    nodes that feed several later records."""
    tp = Tape()
    first = tp.parameters_from(params)
    p = list(range(first, first + len(params)))
    t1 = _mul(tp, _sigmoid(tp, p[0]), _exp(tp, _mul(tp, p[1], tp.constant(0.3))))
    t2 = _mul(tp, p[2], _exp(tp, _mul(tp, p[3], p[3])))
    t3 = _add(tp, tp.constant(1.0), _mul(tp, p[4], p[4]))
    t4 = _sigmoid(tp, _add(tp, t1, _mul(tp, t2, tp.constant(-1.0))))
    t5 = _mul(tp, t3, _mul(tp, p[0], _sigmoid(tp, p[0])))
    root = _add(tp, _mul(tp, t4, t5), _exp(tp, _mul(tp, t3, tp.constant(-0.5))))
    return tp.value(root), tp.gradient_vector(root, len(params))


class TestFiniteDifferences:
    def test_polynomial_is_tight(self):
        def cube(params):
            tp = Tape()
            p = tp.parameters_from(params)
            root = _mul(tp, _mul(tp, p, p), p)
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
            root = _mul(tp, _exp(tp, _mul(tp, p, p)), p)
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
                return _mul(tp, _sigmoid(tp, x), x)

            def g_graph(tp, x):
                return _exp(tp, _mul(tp, x, tp.constant(0.4)))

            def grad(build):
                tp = Tape()
                x = tp.parameters_from([x0])
                return tp.gradient_vector(build(tp, x), 1)[0]

            gf, gg = grad(f_graph), grad(g_graph)
            gc = grad(lambda tp, x: _add(tp, _mul(tp, tp.constant(a), f_graph(tp, x)),
                                         _mul(tp, tp.constant(b), g_graph(tp, x))))
            expected = a * gf + b * gg
            assert abs(gc - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_recording_order_does_not_change_gradients(self):
        x0, y0 = 0.8, -1.3

        tp = Tape()
        x, y = tp.parameters_from([x0, y0]) + np.arange(2)
        left = _mul(tp, _sigmoid(tp, x), y)
        right = _exp(tp, _mul(tp, x, y))
        g1 = tp.gradient_vector(_add(tp, left, right), 2)

        tp = Tape()
        y, x = tp.parameters_from([y0, x0]) + np.arange(2)
        right = _exp(tp, _mul(tp, x, y))
        left = _mul(tp, _sigmoid(tp, x), y)
        g2 = tp.gradient_vector(_add(tp, left, right), 2)[::-1]

        assert np.all(np.abs(g1 - g2) <= 1e-12 * np.maximum(1.0, np.abs(g1)))
