"""Layer forward semantics, network assembly, parameter counts, checkpoints."""

import hashlib
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frkan import splines, training
from frkan.autodiff import Tape
from frkan.layers import (
    EVAL_CHUNK_ROWS,
    BadArchitecture,
    CorruptCheckpoint,
    FRKANLayer,
    GridConfig,
    KANLayer,
    LayerNorm,
    MLPLayer,
    Network,
    _sigmoid,
    _silu as layers_silu,
    init_network,
    load_checkpoint,
    param_count,
    parse_descriptor,
    save_checkpoint,
    sum_outputs,
)
from frkan.splines import KnotVector, init_shift, make_uniform_grid
from frkan.tasks import generate_feynman
from frkan.training import TrainConfig, regularized_loss, train


def _silu(x):
    return x / (1.0 + np.exp(-x))


def _ref_basis(x, t, j, k):
    if k == 0:
        return 1.0 if t[j] <= x < t[j + 1] else 0.0
    acc = 0.0
    if t[j + k] != t[j]:
        acc += (x - t[j]) / (t[j + k] - t[j]) * _ref_basis(x, t, j, k - 1)
    if t[j + k + 1] != t[j + 1]:
        acc += (t[j + k + 1] - x) / (t[j + k + 1] - t[j + 1]) * _ref_basis(x, t, j + 1, k - 1)
    return acc


def _random_kan(rng, d_in, d_out, G=4, K=2, a=-2.0, b=2.0):
    kv = make_uniform_grid(a, b, G, K)
    return KANLayer(
        d_in, d_out, kv,
        rng.normal(size=(d_in, d_out, kv.n_bases)),
        rng.normal(size=(d_in, d_out)),
        rng.normal(size=(d_in, d_out)),
    )


def _random_frkan(rng, d_in, d_out, h, G=4, K=2, a=-2.0, b=2.0, Z=8.0):
    kv = make_uniform_grid(a, b, G, K)
    shifts = np.stack([init_shift(kv, Z, seed=int(rng.integers(1 << 30)))
                       for _ in range(h)])
    return FRKANLayer(d_in, d_out, h, a, b, G, K,
                      rng.normal(size=(h, G + K)), shifts,
                      rng.normal(size=(d_in, d_out)))


class TestKANForward:
    def test_zero_spline_zero_shortcut(self):
        kv = make_uniform_grid(-1, 1, 4, 2)
        layer = KANLayer(3, 2, kv, np.zeros((3, 2, kv.n_bases)),
                         np.ones((3, 2)), np.zeros((3, 2)))
        out = layer.forward_batch(np.array([[0.2, -0.5, 0.9]]))
        np.testing.assert_array_equal(out, 0.0)

    def test_silu_at_origin(self):
        kv = make_uniform_grid(-1, 1, 4, 2)
        layer = KANLayer(1, 1, kv, np.zeros((1, 1, kv.n_bases)),
                         np.zeros((1, 1)), np.ones((1, 1)))
        assert layer.forward_batch(np.array([[0.0]]))[0, 0] == 0.0

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(12)
        layer = _random_kan(rng, 3, 4)
        t = layer.kv.row
        nb = layer.kv.n_bases
        X = rng.uniform(-2.2, 2.2, size=(20, 3))
        got = layer.forward_batch(X)
        for n in range(X.shape[0]):
            for o in range(4):
                want = 0.0
                for i in range(3):
                    s = sum(layer.coefficients[i, o, j] * _ref_basis(X[n, i], t, j, 2)
                            for j in range(nb))
                    want += layer.A_b[i, o] * s + layer.A_s[i, o] * _silu(X[n, i])
                assert got[n, o] == pytest.approx(want, abs=1e-12)


class TestFRKANForward:
    def test_group_assignment_contiguous(self):
        rng = np.random.default_rng(0)
        layer = _random_frkan(rng, 8, 2, h=3)
        groups = [layer.group_of(i) for i in range(8)]
        assert groups == sorted(groups)
        assert set(groups) == {0, 1, 2}

    @staticmethod
    def _check_direct_summation(layer, X):
        got = layer.forward_batch(X)
        knots = [sg.shifted_knots() for sg in layer.spline_groups()]
        for n in range(X.shape[0]):
            for o in range(layer.d_out):
                want = 0.0
                for i in range(layer.d_in):
                    g = layer.group_of(i)
                    s = sum(layer.coefficients[g, j] * _ref_basis(X[n, i], knots[g], j, layer.kv.K)
                            for j in range(layer.kv.n_bases))
                    want += layer.A[i, o] * (s + _silu(X[n, i]))
                assert got[n, o] == pytest.approx(want, abs=1e-12)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(5)
        layer = _random_frkan(rng, 4, 3, h=2)
        self._check_direct_summation(layer, rng.uniform(-2.2, 2.2, size=(15, 4)))

    @pytest.mark.parametrize("d_in,h", [(5, 2), (7, 3), (8, 8), (3, 1)])
    def test_uneven_groups_match_direct_summation(self, d_in, h):
        # groups of unequal size: each column must reach its group_of(i) spline
        rng = np.random.default_rng(d_in * 10 + h)
        layer = _random_frkan(rng, d_in, 3, h=h)
        self._check_direct_summation(layer, rng.uniform(-2.2, 2.2, size=(12, d_in)))

    def test_collapses_to_kan_with_tied_weights(self):
        rng = np.random.default_rng(9)
        d_in, d_out, G, K = 3, 2, 5, 2
        kv = make_uniform_grid(-2, 2, G, K)
        coef = rng.normal(size=(d_in, G + K))
        A = rng.normal(size=(d_in, d_out))
        fr = FRKANLayer(d_in, d_out, d_in, -2, 2, G, K, coef,
                        np.zeros((d_in, G + 1)), A)
        kan = KANLayer(d_in, d_out, kv,
                       np.repeat(coef[:, None, :], d_out, axis=1), A.copy(), A.copy())
        X = rng.uniform(-2.5, 2.5, size=(30, d_in))
        np.testing.assert_allclose(fr.forward_batch(X), kan.forward_batch(X), atol=1e-12)

    def test_single_group_row_swap_symmetry(self):
        # With h=1 every input uses the same activation, so swapping two
        # input coordinates together with the matching rows of A is a no-op.
        rng = np.random.default_rng(3)
        layer = _random_frkan(rng, 4, 2, h=1)
        x = rng.uniform(-2, 2, size=(1, 4))
        base = layer.forward_batch(x)
        swapped = FRKANLayer(4, 2, 1, layer.kv.a, layer.kv.b, layer.kv.G, layer.kv.K,
                             layer.coefficients.copy(), layer.shifts.copy(),
                             layer.A[[1, 0, 2, 3]].copy())
        out = swapped.forward_batch(x[:, [1, 0, 2, 3]])
        np.testing.assert_allclose(out, base, atol=1e-12)


class TestNonFiniteInputs:
    def test_nan_and_inf_rows_propagate_through_spline_layers(self):
        rng = np.random.default_rng(6)
        X = np.array([[0.3, -0.4], [np.nan, 0.1], [0.5, np.inf], [-np.inf, 0.2]])
        for layer in (_random_kan(rng, 2, 3), _random_frkan(rng, 2, 3, h=2)):
            layer.silu_path = False
            Y = layer.forward_batch(X)
            assert np.all(np.isfinite(Y[0]))
            assert np.all(np.isnan(Y[1:]))


def _sigmoid_two_masks(x):
    # The sigmoid as two boolean-mask passes: the reference the one-pass
    # form must match bit for bit.
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_matches_two_mask_reference_bit_for_bit(self):
        special = np.array([0.0, -0.0, 1e-300, -1e-300, 800.0, -800.0, 1000.0, -1000.0,
                            np.inf, -np.inf, np.nan])
        x = np.concatenate([special, np.random.default_rng(17).normal(size=100_000)])
        want = _sigmoid_two_masks(x)
        assert np.array_equal(_sigmoid(x), want, equal_nan=True)
        with np.errstate(invalid="ignore"):   # -inf * 0
            assert np.array_equal(layers_silu(x), x * want, equal_nan=True)


class TestForwardLeavesInputsAlone:
    @pytest.mark.parametrize("make", [
        lambda rng: _random_kan(rng, 3, 4),
        lambda rng: _random_frkan(rng, 3, 4, h=2),
        lambda rng: MLPLayer(rng.normal(size=(3, 4)), rng.normal(size=4), "relu"),
        lambda rng: MLPLayer(rng.normal(size=(3, 4)), rng.normal(size=4), "identity"),
        lambda rng: LayerNorm(3),
    ], ids=["kan", "frkan", "mlp-relu", "mlp-identity", "layernorm"])
    def test_x_and_parameters_unchanged(self, make):
        rng = np.random.default_rng(23)
        layer = make(rng)
        params = layer.param_arrays()
        before = [(name, a.copy()) for name, a in params]
        X = rng.uniform(-2.5, 2.5, size=(9, 3))
        X0 = X.copy()
        layer.forward_batch(X)
        assert np.array_equal(X, X0)
        for (name, a), (_, a0) in zip(params, before):
            assert np.array_equal(a, a0), name


class TestMLPForward:
    def test_relu(self):
        layer = MLPLayer(np.eye(2), np.zeros(2), activation="relu")
        np.testing.assert_array_equal(
            layer.forward_batch(np.array([[-1.0, 2.0]])), [[0.0, 2.0]])

    def test_identity_affine(self):
        rng = np.random.default_rng(1)
        W = rng.normal(size=(3, 2))
        bias = rng.normal(size=2)
        layer = MLPLayer(W, bias, activation="identity")
        X = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(layer.forward_batch(X), X @ W + bias)

    def test_single_neuron_breakpoint(self):
        # w=2, b=-1: the ReLU kink sits where 2x - 1 = 0
        layer = MLPLayer(np.array([[2.0]]), np.array([-1.0]))
        below = layer.forward_batch(np.array([[0.499]]))[0, 0]
        above = layer.forward_batch(np.array([[0.501]]))[0, 0]
        assert below == 0.0 and above > 0.0


class TestLayerNorm:
    def test_normalizes_mean_and_variance(self):
        rng = np.random.default_rng(4)
        ln = LayerNorm(16)
        X = rng.normal(loc=3.0, scale=2.5, size=(50, 16))
        Y = ln.forward_batch(X)
        assert np.max(np.abs(Y.mean(axis=1))) <= 1e-9
        assert np.max(np.abs(Y.var(axis=1) - 1.0)) <= 1e-6


class TestTapeAgreesWithBatch:
    def test_every_layer_records_through_one_adapter(self):
        recorders = {cls.tape_forward for cls in (KANLayer, FRKANLayer, MLPLayer, LayerNorm)}
        assert len(recorders) == 1

    def test_mixed_network(self):
        rng = np.random.default_rng(21)
        net = Network([
            LayerNorm(3),
            _random_frkan(rng, 3, 4, h=2),
            _random_kan(rng, 4, 3),
            MLPLayer(rng.normal(size=(3, 2)), rng.normal(size=2), "relu"),
        ])
        X = rng.uniform(-2, 2, size=(8, 3))
        batch = net.forward_batch(X)
        tape = Tape()
        got = tape.value(net.tape_forward(tape, X))
        np.testing.assert_array_equal(got, batch)

    def test_silu_path_off(self):
        rng = np.random.default_rng(2)
        layer = _random_frkan(rng, 2, 2, h=2)
        layer.silu_path = False
        net = Network([layer])
        X = rng.uniform(-2, 2, size=(4, 2))
        batch = net.forward_batch(X)
        tape = Tape()
        got = tape.value(net.tape_forward(tape, X))
        np.testing.assert_array_equal(got, batch)


@st.composite
def _layer_cases(draw, kind):
    """(layer, X, gY): one layer of ``kind`` at K 1-3 whose FR-KAN shifts the
    clamp raises, and inputs inside the span, on knots and outside it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d_in, d_out, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    G, K = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    a = draw(st.floats(-2.0, 0.0))
    b = a + draw(st.floats(1.0, 4.0))
    kv = make_uniform_grid(a, b, G, K)
    silu = draw(st.booleans())
    if kind == "kan":
        layer = KANLayer(d_in, d_out, kv, rng.normal(size=(d_in, d_out, kv.n_bases)),
                         rng.normal(size=(d_in, d_out)), rng.normal(size=(d_in, d_out)),
                         silu_path=silu)
    elif kind == "frkan":
        h = draw(st.integers(1, d_in))
        moves = rng.integers(-2, 3, size=(h, G + 1)) * kv.dg
        moves[:, 1:3] = [kv.dg, 0.0]   # base point 1 lands on base point 2
        shifts = moves + rng.uniform(-0.3, 0.3, size=moves.shape) * kv.min_gap
        layer = FRKANLayer(d_in, d_out, h, a, b, G, K, rng.normal(size=(h, kv.n_bases)),
                           shifts, rng.normal(size=(d_in, d_out)), silu_path=silu)
        assert np.all(np.diff(layer.knots()).min(axis=1) < 1.5 * kv.min_gap)
    elif kind == "mlp":
        layer = MLPLayer(rng.normal(size=(d_in, d_out)), rng.normal(size=d_out),
                         draw(st.sampled_from(["relu", "identity"])))
    else:
        layer = LayerNorm(d_in)
        layer.gamma, layer.beta = rng.normal(size=d_in), rng.normal(size=d_in)
    # the knot row of each input column (the grid row where the layer has none)
    knots = (layer.knots()[layer.group_of(np.arange(d_in))] if kind == "frkan"
             else np.tile(kv.row, (d_in, 1)))
    lo, hi = kv.row[0], kv.row[-1]
    X = rng.uniform(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), size=(n, d_in))
    on = rng.random(size=X.shape) < 0.3
    cols = np.broadcast_to(np.arange(d_in), X.shape)
    X[on] = knots[cols[on], rng.integers(0, kv.row.size, size=on.sum())]
    return layer, X, rng.normal(size=(n, layer.d_out))


def _matches_differences(f, v, g, step=1e-10, tol=1e-4):
    """``g`` is the gradient of ``f()`` for every entry of the array ``v``:
    its central difference where f is smooth, and where f has a kink (an
    input on a knot of an order-1 spline) one of its one-sided differences.

    The step is far below the clamp's least knot gap (min_gap is at least
    1e-4 dg), across which a spline's slope can change by its whole range;
    the tolerance allows for the rounding of f over that step."""
    f0 = f()
    scale = tol * max(1.0, float(np.max(np.abs(g), initial=0.0))) + 1e-15 * abs(f0) / step
    for i in np.ndindex(v.shape):
        keep = v[i]
        v[i] = keep + step
        up = f()
        v[i] = keep - step
        down = f()
        v[i] = keep
        diffs = np.array([(up - down) / 2, up - f0, f0 - down]) / step
        if not np.any(np.abs(diffs - g[i]) <= scale):
            return False
    return True


class TestForwardBatchCacheAndBackward:
    """Each layer class: the cached forward is the plain one, and
    ``backward`` is the derivative of sum(forward_batch(X) * gY)."""

    @pytest.mark.parametrize("kind", ["kan", "frkan", "mlp", "ln"])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_cache_keeps_values_and_backward_matches_differences(self, kind, data):
        layer, X, gY = data.draw(_layer_cases(kind))
        cache = []
        Y = layer.forward_batch(X, cache)
        assert np.array_equal(Y, layer.forward_batch(X))
        gX, grads = layer.backward(cache, gY)
        assert cache == []
        assert [np.shape(g) for g in grads] == [arr.shape for _, arr in layer.param_arrays()]

        def f():
            return float((layer.forward_batch(X) * gY).sum())

        assert _matches_differences(f, X, gX), "X"
        for (name, arr), g in zip(layer.param_arrays(), grads):
            assert _matches_differences(f, arr, g), name


class TestOneRecordPerLayerOperation:
    """A training step records the parameters, the input, each layer once
    over the whole batch and the loss.  A spline layer's window backward
    gets the real upstream gradient, (K+1, M), with no axis of unit seeds."""

    @staticmethod
    def _expected(net, task):
        """Op names in recording order."""
        return (["parameter", "input"]
                + [f"layer {k} ({m.kind})" for k, m in enumerate(net.modules)]
                + ["loss (mse)" if task == "regression" else "loss (cross-entropy)"])

    @pytest.mark.parametrize("desc, grid, task", [
        ("in:2 -> frkan:8 -> out:1", GridConfig(G=20, K=3, a=-10.0, b=10.0, h=2),
         "regression"),
        ("in:2 -> kan:3 -> out:1", GridConfig(G=20, K=3, a=-10.0, b=10.0), "regression"),
        ("in:2 -> mlp:48 -> out:1", GridConfig(G=20, K=3, a=-10.0, b=10.0), "regression"),
        ("in:4 -> frkan:4 -> frkan:3", GridConfig(G=5, K=2, a=-1.0, b=1.0),
         "classification"),
    ])
    def test_records_and_window_gradient(self, desc, grid, task):
        regression = task == "regression"
        net = init_network(desc, grid, seed=1, layernorm="off" if regression else "auto")
        assert regression or [m.kind for m in net.modules] == ["frkan", "ln", "frkan"]
        rng = np.random.default_rng(1)
        n = 8
        X = rng.uniform(-1.0, 1.0, size=(n, net.d_in))
        y = rng.normal(size=n) if regression else rng.integers(0, net.d_out, size=n) * 1.0
        ops, seen = [], []
        record, backward = Tape.record, splines.window_backward

        def spy_record(tape, op, *args, **kwargs):
            ops.append(op)
            return record(tape, op, *args, **kwargs)

        def spy_backward(levels, K, gW, knots=True):
            seen.append(gW.shape)
            return backward(levels, K, gW, knots)

        with mock.patch.object(Tape, "record", spy_record), \
                mock.patch.object(splines, "window_backward", spy_backward):
            regularized_loss(net, X, y, 1e-3, task)
        assert ops == self._expected(net, task)
        assert len(ops) == len(net.modules) + 3
        # the reverse sweep meets the spline layers last to first
        assert seen == [(m.kv.K + 1, n * m.d_in) for m in net.modules[::-1]
                        if m.kind in ("kan", "frkan")]


def _same_window(a, b):
    """Whether two ``(m, W)`` windows hold the same bytes."""
    return all(u.tobytes() == v.tobytes() for u, v in zip(a, b))


def _cached_forward(net, X):
    Y, cache = X, []
    for m in net.modules:
        Y = m.forward_batch(Y, cache)
    return Y


@st.composite
def _stacks_and_updates(draw):
    """A random KAN/FR-KAN/MLP/LayerNorm stack with at least one FR-KAN
    layer (K 1-3, h 1-3), and a sequence of parameter updates."""
    K, G, h = draw(st.integers(1, 3)), draw(st.integers(2, 6)), draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(["kan", "frkan", "mlp", "ln"]), max_size=2))
    kinds.insert(draw(st.integers(0, len(kinds))), "frkan")
    tokens = [k if k == "ln" else f"{k}:{draw(st.integers(1, 3))}" for k in kinds]
    desc = " -> ".join([f"in:{draw(st.integers(1, 3))}"] + tokens + ["mlp:1"])
    net = init_network(desc, GridConfig(G=G, K=K, a=-1.0, b=1.0, h=h),
                       seed=draw(st.integers(0, 99)), layernorm="explicit")
    updates = draw(st.lists(st.sampled_from(["clamp", "shift", "coefficients", "rebind"]),
                            min_size=1, max_size=5))
    return net, updates, draw(st.integers(0, 2 ** 32 - 1))


def _update(net, kind, rng):
    """One update: through ``set_flat``, except ``rebind``, which gives an
    FR-KAN layer a new shift array."""
    layer = rng.choice([m for m in net.modules if m.kind == "frkan"])
    if kind == "rebind":
        layer.shifts = layer.shifts + rng.normal(scale=0.2 * layer.kv.dg,
                                                 size=layer.shifts.shape)
        return layer
    flat, off = net.get_flat(), 0
    target = "coefficients" if kind == "coefficients" else "shifts"
    for m, name, arr in net.param_arrays():
        if m is layer and name == target:
            view = flat[off:off + arr.size].reshape(arr.shape)
            if kind == "clamp":   # base point 1 lands on base point 2
                view[:] = layer.kv.dg * rng.integers(-2, 3, size=arr.shape)
                view[:, 1:3] = [layer.kv.dg, 0.0]
            else:
                view += rng.normal(scale=0.1 * (layer.kv.dg if name == "shifts" else 1.0),
                                   size=arr.shape)
        off += arr.size
    net.set_flat(flat)
    return layer


class TestKnotPlanFollowsTheShifts:
    """An FR-KAN layer builds its knot plan once per shift value; every
    kind of update invalidates it, so the network reads as a fresh copy."""

    @settings(max_examples=40)
    @given(case=_stacks_and_updates())
    def test_updates_match_a_fresh_copy(self, tmp_path_factory, case):
        net, updates, seed = case
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2.0, 2.0, size=(7, net.d_in))
        y = rng.normal(size=7)
        path = str(tmp_path_factory.mktemp("plan") / "net.json")
        for kind in updates:
            net.forward_batch(X)          # the old plan is cached here
            layer = _update(net, kind, rng)
            assert kind != "clamp" or np.diff(layer.knots()).min() < 1.5 * layer.kv.min_gap
            save_checkpoint(net, path)
            fresh = load_checkpoint(path)
            for m, f in zip(net.spline_layers(), fresh.spline_layers()):
                assert m.knots().tobytes() == f.knots().tobytes()
                with pytest.raises(ValueError):
                    m.knots()[0, 0] = 0.0
            assert net.forward_batch(X).tobytes() == fresh.forward_batch(X).tobytes()
            assert _cached_forward(net, X).tobytes() == _cached_forward(fresh, X).tobytes()
            for lam in (0.0, 1e-3):
                loss, g, _ = regularized_loss(net, X, y, lam)
                want, want_g, _ = regularized_loss(fresh, X, y, lam)
                assert loss == want and g.tobytes() == want_g.tobytes()


class TestFixedCostPerStep:
    """What a training step builds, counted by spies rather than timed."""

    def _net_and_data(self, desc):
        net = init_network(desc, GridConfig(G=6, K=3, a=-2.0, b=2.0, h=2), seed=3,
                           layernorm="off")
        return net, generate_feynman("I.6.2", 120, seed=3)

    def test_a_step_builds_each_knot_plan_once_in_the_sorted_check(self):
        net, data = self._net_and_data("in:2 -> frkan:4 -> frkan:3 -> out:1")
        phase, built = ["start"], []
        plan, check, loss = KnotVector.knot_plan, Network.assert_knots_sorted, \
            training.regularized_loss

        def spy_plan(kv, shifts):
            built.append(phase[0])
            return plan(kv, shifts)

        def in_phase(name, fn):
            def run(*args, **kwargs):
                phase[0] = name
                return fn(*args, **kwargs)
            return run

        steps = 4
        with mock.patch.object(KnotVector, "knot_plan", spy_plan), \
                mock.patch.object(Network, "assert_knots_sorted", in_phase("check", check)), \
                mock.patch.object(training, "regularized_loss", in_phase("loss", loss)):
            record, _ = train(net, data, TrainConfig(batch_size=16, max_steps=steps, lam=1e-3))
        assert len(record.steps) == steps
        # the first loss builds the initial plans; after that only the check builds
        layers = len(net.spline_layers())
        assert built == ["loss"] * layers + ["check"] * layers * steps

    def test_a_fixed_grid_builds_its_kernel_tables_once(self):
        net, data = self._net_and_data("in:2 -> kan:3 -> out:1")
        X, y = data.split("train")
        seen, levels = [], splines._window_levels

        def spy_levels(x, t, K, rows=None, tables=None):
            seen.append(tables)
            return levels(x, t, K, rows, tables)

        with mock.patch.object(splines, "_window_levels", spy_levels):
            for lo in (0, 16):
                regularized_loss(net, X[lo:lo + 16], y[lo:lo + 16], 1e-3)
        want = [m.kv.kernel_tables for m in net.spline_layers()] * 2
        assert len(seen) == len(want) == 4
        for (tp, dens), (want_tp, want_dens) in zip(seen, want):
            assert tp is want_tp and len(dens) == len(want_dens) == 3
            assert all(a is b for a, b in zip(dens, want_dens))
            assert not any(a.flags.writeable for a in (tp, *dens))

    def test_shifts_set_in_place_give_a_fresh_layers_window_and_gradients(self):
        """Nothing the kernel builds from a knot matrix outlives the shifts
        it came from: every window matches the column form on the same
        knots, and after an in-place update, a fresh layer's."""
        desc = "in:2 -> frkan:4 -> out:1"
        net, data = self._net_and_data(desc)
        X, y = data.split("train")
        X, y = X[:16], y[:16]
        windows, levels = [], splines._window_levels

        def spy_levels(x, t, K, rows=None, tables=None):
            out = levels(x, t, K, rows, tables)
            # the column form builds its own tables from the knots it is given
            m, W = splines._window_columns(x, t, K, rows)
            assert _same_window(out, (m, np.stack(W)))
            windows.append(out[:2])
            return out

        with mock.patch.object(splines, "_window_levels", spy_levels):
            regularized_loss(net, X, y, 1e-3)      # caches the old plan
            layer, flat = net.modules[0], net.get_flat()
            at = layer.A.size + layer.coefficients.size
            flat[at:at + layer.shifts.size] += np.random.default_rng(5).uniform(
                -0.3, 0.3, layer.shifts.size) * layer.kv.dg
            net.set_flat(flat)
            loss, g, _ = regularized_loss(net, X, y, 1e-3)
            fresh, _ = self._net_and_data(desc)
            fresh.set_flat(flat)
            want, want_g, _ = regularized_loss(fresh, X, y, 1e-3)
        layers = len(net.spline_layers())
        old, new, built = (windows[i:i + layers] for i in range(0, 3 * layers, layers))
        assert len(windows) == 3 * layers and not _same_window(old[0], new[0])
        assert all(map(_same_window, new, built))
        assert loss == want and g.tobytes() == want_g.tobytes()

    @pytest.mark.parametrize("desc", ["in:2 -> frkan:4 -> out:1", "in:2 -> kan:3 -> out:1"])
    def test_a_backward_sorts_nothing_and_a_fixed_grid_gets_no_knot_gradient(self, desc):
        net, data = self._net_and_data(desc)
        X, y = data.split("train")
        net.assert_knots_sorted()
        sorts, calls = [], []
        argsort, backward = np.argsort, splines.window_backward

        def spy_argsort(*args, **kwargs):
            sorts.append(1)
            return argsort(*args, **kwargs)

        def spy_backward(levels, K, gW, knots=True):
            gx, gT = backward(levels, K, gW, knots)
            full = backward(levels, K, gW, True)
            calls.append((knots, gT is None, gx.tobytes() == full[0].tobytes()))
            return gx, gT

        with mock.patch.object(np, "argsort", spy_argsort), \
                mock.patch.object(splines, "window_backward", spy_backward):
            regularized_loss(net, X[:16], y[:16], 1e-3)
        assert sorts == []
        fixed = net.modules[0].kind == "kan"
        assert calls == [(not fixed, fixed, True)] * len(net.modules)

    def test_a_spline_layer_takes_one_sigmoid_per_forward_and_backward(self):
        net, data = self._net_and_data("in:2 -> kan:3 -> frkan:4 -> out:1")
        X, y = data.split("train")
        calls = []

        def spy_sigmoid(x):
            calls.append(x.shape)
            return _sigmoid(x)

        with mock.patch("frkan.layers._sigmoid", spy_sigmoid):
            regularized_loss(net, X[:16], y[:16], 1e-3)
        assert calls == [(16, m.d_in) for m in net.spline_layers()]

    def test_the_sorted_check_reads_shifted_knots_only(self):
        net, _ = self._net_and_data("in:2 -> kan:3 -> frkan:4 -> out:1")
        checked, assert_sorted = [], KnotVector.assert_sorted

        def spy_assert_sorted(kv, knots):
            checked.append(knots.shape)
            return assert_sorted(kv, knots)

        with mock.patch.object(KnotVector, "assert_sorted", spy_assert_sorted):
            net.assert_knots_sorted()
        # the KAN layer's fixed row was checked when its grid was built
        assert checked == [m.knots().shape for m in net.spline_layers() if m.kind == "frkan"]
        assert len(checked) == 2


class TestSumOutputs:
    """Folding the output sum into the last layer, as the knot audit does."""

    def _check_folded(self, net, X):
        folded = sum_outputs(net)
        last = folded.modules[-1]
        assert type(last) is type(net.modules[-1]) and last.d_out == 1
        assert folded.modules[:-1] == net.modules[:-1]
        want = net.forward_batch(X).sum(axis=1)
        got = folded.forward_batch(X)[:, 0]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("silu", [True, False])
    def test_kan_last_layer(self, silu):
        rng = np.random.default_rng(0)
        kv = make_uniform_grid(-1, 1, 20, 1)
        layer = KANLayer(1, 64, kv, rng.normal(size=(1, 64, kv.n_bases)),
                         rng.normal(size=(1, 64)), rng.normal(size=(1, 64)),
                         silu_path=silu)
        self._check_folded(Network([layer]), np.linspace(-1.2, 1.2, 5001)[:, None])

    def test_kan_after_hidden_layers(self):
        rng = np.random.default_rng(1)
        net = Network([_random_frkan(rng, 3, 5, 2), _random_kan(rng, 5, 7)])
        self._check_folded(net, rng.uniform(-2.5, 2.5, size=(400, 3)))

    @pytest.mark.parametrize("silu", [True, False])
    def test_frkan_last_layer(self, silu):
        rng = np.random.default_rng(2)
        layer = _random_frkan(rng, 4, 6, 2)
        layer.silu_path = silu
        net = Network([_random_kan(rng, 2, 4), layer])
        self._check_folded(net, rng.uniform(-2.5, 2.5, size=(400, 2)))

    def test_identity_mlp_last_layer(self):
        rng = np.random.default_rng(3)
        net = Network([MLPLayer(rng.normal(size=(2, 8)), rng.normal(size=8)),
                       MLPLayer(rng.normal(size=(8, 5)), rng.normal(size=5), "identity")])
        self._check_folded(net, rng.uniform(-3, 3, size=(400, 2)))

    def test_relu_and_layernorm_last_layers_are_kept(self):
        rng = np.random.default_rng(4)
        for last in (MLPLayer(rng.normal(size=(3, 4)), rng.normal(size=4)),
                     LayerNorm(3)):
            net = Network([_random_kan(rng, 2, 3), last])
            folded = sum_outputs(net)
            assert folded.modules == net.modules
            X = rng.uniform(-2, 2, size=(50, 2))
            np.testing.assert_array_equal(folded.forward_batch(X), net.forward_batch(X))


class TestParamCount:
    def test_kan_example(self):
        rng = np.random.default_rng(0)
        layer = _random_kan(rng, 4, 3, G=5, K=3)
        counts = param_count(Network([layer]))
        entry = counts["layers"][0]
        assert entry["coefficients"] == 4 * 3 * 8
        assert entry["total"] == 120
        assert entry["combined_spline_weight_estimate"] == 108
        assert counts["total"] == 120

    def test_frkan_example(self):
        rng = np.random.default_rng(0)
        layer = _random_frkan(rng, 4, 3, h=2, G=5, K=3)
        counts = param_count(Network([layer]))
        assert counts["total"] == 12 + 2 * 8 + 2 * 6

    def test_mlp_example(self):
        layer = MLPLayer(np.zeros((4, 3)), np.zeros(3))
        assert param_count(Network([layer]))["total"] == 15

    def test_formulas_hold_for_random_architectures(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            d_in = int(rng.integers(1, 9))
            d_out = int(rng.integers(1, 9))
            G = int(rng.integers(2, 8))
            K = int(rng.integers(1, 4))
            h = int(rng.integers(1, d_in + 1))
            kan = _random_kan(rng, d_in, d_out, G=G, K=K)
            assert param_count(Network([kan]))["total"] == d_in * d_out * (G + K) + 2 * d_in * d_out
            fr = _random_frkan(rng, d_in, d_out, h=h, G=G, K=K)
            assert param_count(Network([fr]))["total"] == d_in * d_out + h * (G + K) + h * (G + 1)


class TestInitNetwork:
    def test_same_seed_is_bit_identical(self):
        grid = GridConfig(G=6, K=2, a=-3, b=3)
        n1 = init_network("in:3 -> frkan:8 -> out:2", grid, seed=5)
        n2 = init_network("in:3 -> frkan:8 -> out:2", grid, seed=5)
        np.testing.assert_array_equal(n1.get_flat(), n2.get_flat())

    @pytest.mark.parametrize("seed, grid, digest", [
        (0, GridConfig(), "2eadf59920b749f47b846fd0004a1cc40207475d858715869985d5058788691b"),
        (1, GridConfig(G=5, K=1, a=-1, b=1, h=3),
         "9ff9af40af262da3d4b2607d9b2a36e8240d95def28614db080eab760bf1a243"),
        (7, GridConfig(G=11, K=2, a=-3.5, b=7.0, Z=3.0),
         "3f776851c875099d5257702c9bbcb4cee56bd286a36f4eff21c6a2353b08d531"),
    ])
    def test_checkpoint_bytes_are_pinned(self, tmp_path, seed, grid, digest):
        """The draws of init_network (knot shifts through init_shift, one
        group at a time) keep every checkpoint byte."""
        path = tmp_path / "net.json"
        save_checkpoint(init_network("in:5 -> frkan:7 -> kan:3 -> frkan:2", grid, seed=seed),
                        str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_descriptor_example(self):
        net = init_network("in:2 -> frkan:64 -> out:1", GridConfig(G=4, K=2), seed=0)
        kinds = [m.kind for m in net.modules]
        assert kinds == ["frkan", "frkan"]
        assert (net.modules[0].d_in, net.modules[0].d_out) == (2, 64)
        assert (net.modules[1].d_in, net.modules[1].d_out) == (64, 1)

    def test_zero_width_rejected(self):
        with pytest.raises(BadArchitecture):
            init_network("in:2 -> frkan:0 -> out:1")
        with pytest.raises(BadArchitecture):
            parse_descriptor("in:0 -> mlp:3")

    @pytest.mark.parametrize("h", [0, -3, 1.5, True, "2"])
    def test_a_group_count_below_one_is_rejected_by_name(self, h):
        with pytest.raises(BadArchitecture, match="^h: need an integer >= 1"):
            GridConfig(h=h)

    def test_the_group_count_is_clamped_to_the_input_width(self):
        assert [GridConfig(h=h).groups_for(3) for h in (None, 1, 3, 7)] == [1, 1, 3, 3]
        assert GridConfig().groups_for(9) == 3

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(BadArchitecture):
            Network([_random_kan(rng, 2, 3), _random_kan(rng, 4, 1)])

    def test_auto_layernorm(self):
        # hidden spline layers of width >= 4 get a norm; the input layer
        # and narrow layers do not (per-sample norm of few features is lossy)
        net = init_network("in:4 -> frkan:4 -> frkan:2", GridConfig(G=4, K=1),
                           seed=1, layernorm="auto")
        assert [m.kind for m in net.modules] == ["frkan", "ln", "frkan"]
        net = init_network("in:4 -> frkan:3 -> frkan:2", GridConfig(G=4, K=1),
                           seed=1, layernorm="auto")
        assert [m.kind for m in net.modules] == ["frkan", "frkan"]

    def test_descriptor_round_trip(self):
        net = init_network("in:3 -> ln -> kan:5 -> mlp:2", GridConfig(G=4, K=1), seed=2)
        desc = net.descriptor
        net2 = init_network(desc, GridConfig(G=4, K=1), seed=2)
        assert net2.descriptor == desc


@st.composite
def _networks(draw, min_width=1):
    """A random stack of kan, frkan, mlp and ln layers, each spline layer on
    its own grid; FR-KAN shifts are small, large or whole multiples of dg.
    Every width, and each FR-KAN layer's group count, is at least
    ``min_width``."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = d_in = draw(st.integers(min_width, 4))
    modules = []
    for kind in draw(st.lists(st.sampled_from(["kan", "frkan", "mlp", "ln"]),
                              min_size=1, max_size=4)):
        if kind == "ln":
            ln = LayerNorm(d)
            ln.gamma, ln.beta = rng.normal(size=d), rng.normal(size=d)
            modules.append(ln)
            continue
        width = draw(st.integers(min_width, 4))
        if kind == "mlp":
            modules.append(MLPLayer(rng.normal(size=(d, width)), rng.normal(size=width),
                                    draw(st.sampled_from(["relu", "identity"]))))
        else:
            G, K = draw(st.integers(1, 8)), draw(st.integers(1, 3))
            a = draw(st.floats(-20, 20))
            b = a + draw(st.floats(1e-3, 40))
            silu = draw(st.booleans())
            kv = make_uniform_grid(a, b, G, K)
            if kind == "kan":
                modules.append(KANLayer(d, width, kv, rng.normal(size=(d, width, kv.n_bases)),
                                        rng.normal(size=(d, width)),
                                        rng.normal(size=(d, width)), silu_path=silu))
            else:
                h = draw(st.integers(min_width, d))
                scale = draw(st.sampled_from([0.1, 1.0, 3.0, "multiples"]))
                if scale == "multiples":
                    shifts = rng.integers(-2, 3, size=(h, G + 1)) * kv.dg
                else:
                    shifts = rng.uniform(-scale, scale, size=(h, G + 1)) * kv.dg
                modules.append(FRKANLayer(d, width, h, a, b, G, K,
                                          rng.normal(size=(h, kv.n_bases)), shifts,
                                          rng.normal(size=(d, width)), silu_path=silu))
        d = width
    return Network(modules), d_in


class TestEvaluationInBlocks:
    @pytest.mark.parametrize("n", [0, 1, EVAL_CHUNK_ROWS - 1, EVAL_CHUNK_ROWS,
                                   EVAL_CHUNK_ROWS + 1, 2 * EVAL_CHUNK_ROWS + 7])
    @settings(max_examples=10)
    @given(case=_networks(min_width=2))
    def test_blocks_match_one_pass_over_all_rows(self, n, case):
        # Every layer is row-wise, so up to one block the two are the same
        # computation.  Past it, only the last bits may move: the BLAS picks
        # a matrix-product kernel by the product's size, and a block's size
        # can pick another one than the whole input's.
        net, d_in = case
        X = np.random.default_rng(n).uniform(-30.0, 30.0, size=(n, d_in))
        want = X
        for m in net.modules:
            want = m.forward_batch(want)
        got = net.forward_batch(X)
        assert got.shape == want.shape == (n, net.d_out)
        if n <= EVAL_CHUNK_ROWS:
            assert np.array_equal(got, want, equal_nan=True)
        else:
            scale = np.abs(want[np.isfinite(want)]).max(initial=1.0)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def _mutated_checkpoint(tmp_path, net, mutate):
    """Save ``net``, apply ``mutate`` to the JSON document, return the path."""
    path = tmp_path / "net.json"
    save_checkpoint(net, str(path))
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    return str(path)


class TestCheckpoint:
    @settings(max_examples=60)
    @given(case=_networks())
    def test_round_trip_is_bit_exact(self, case):
        net, d_in = case
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
            save_checkpoint(net, first)
            back = load_checkpoint(first)
            save_checkpoint(back, second)
            with open(first, "rb") as f1, open(second, "rb") as f2:
                assert f1.read() == f2.read()
        assert back.descriptor == net.descriptor
        assert np.array_equal(back.get_flat(), net.get_flat())
        for m, n in zip(back.modules, net.modules):
            assert getattr(m, "silu_path", None) == getattr(n, "silu_path", None)
            assert getattr(m, "activation", None) == getattr(n, "activation", None)
        X = np.random.default_rng(0).uniform(-30.0, 30.0, size=(50, d_in))
        assert np.array_equal(back.forward_batch(X), net.forward_batch(X), equal_nan=True)
        for u, v in zip(back.spline_groups(), net.spline_groups(), strict=True):
            assert np.array_equal(u.shifted_knots(), v.shifted_knots())

    def test_round_trip_preserves_forward(self, tmp_path):
        rng = np.random.default_rng(8)
        net = Network([
            LayerNorm(2),
            _random_frkan(rng, 2, 4, h=2),
            MLPLayer(rng.normal(size=(4, 1)), rng.normal(size=1), "identity"),
        ])
        path = tmp_path / "net.json"
        save_checkpoint(net, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.descriptor == net.descriptor
        X = rng.uniform(-3, 3, size=(100, 2))
        np.testing.assert_array_equal(loaded.forward_batch(X), net.forward_batch(X))

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(8)
        net = Network([_random_kan(rng, 2, 2)])
        path = tmp_path / "net.json"
        save_checkpoint(net, str(path))
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_array_rejected(self, tmp_path, bad):
        rng = np.random.default_rng(8)
        net = Network([_random_kan(rng, 2, 2)])
        path = tmp_path / "net.json"
        save_checkpoint(net, str(path))
        doc = json.loads(path.read_text())
        doc["layers"][0]["A_s"]["data"][1] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpoint, match="A_s"):
            load_checkpoint(str(path))

    def test_kind_tag_enforced(self, tmp_path):
        rng = np.random.default_rng(8)
        net = Network([_random_kan(rng, 2, 2)])
        path = tmp_path / "net.json"
        save_checkpoint(net, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.modules[0].kind == "kan"
        assert isinstance(loaded.modules[0], KANLayer)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize("layer", [0, 1, 2])
    @pytest.mark.parametrize("field", ["d_in", "d_out"])
    @pytest.mark.parametrize("bad", ["x", None, 1.5, 2.0, True, 0, 5])
    def test_width_contradicting_the_arrays_is_named(self, tmp_path, layer, field, bad):
        # W is (3, 4) and (4, 4), the norm is 4 wide: no layer's width is
        # 5, 2 or 1, so every bad value contradicts the arrays
        rng = np.random.default_rng(8)
        net = Network([MLPLayer(rng.normal(size=(3, 4)), rng.normal(size=4)), LayerNorm(4),
                       MLPLayer(rng.normal(size=(4, 4)), rng.normal(size=4), "identity")])
        path = _mutated_checkpoint(
            tmp_path, net, lambda doc: doc["layers"][layer].__setitem__(field, bad))
        with pytest.raises(CorruptCheckpoint, match=rf"^layers\[{layer}\]: {field}: "):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", ["in:3 -> mlp:5", "in:3 -> mlp:4", "", None])
    def test_architecture_contradicting_the_layers_is_named(self, tmp_path, bad):
        rng = np.random.default_rng(8)
        net = Network([MLPLayer(rng.normal(size=(3, 4)), rng.normal(size=4)), LayerNorm(4)])
        assert net.descriptor == "in:3 -> mlp:4 -> ln"
        path = _mutated_checkpoint(
            tmp_path, net, lambda doc: doc.__setitem__("architecture", bad))
        with pytest.raises(CorruptCheckpoint, match="^architecture: "):
            load_checkpoint(path)

    def test_missing_architecture_is_named(self, tmp_path):
        net = Network([MLPLayer(np.ones((2, 1)), np.zeros(1), "identity")])
        path = _mutated_checkpoint(tmp_path, net, lambda doc: doc.pop("architecture"))
        with pytest.raises(CorruptCheckpoint, match="^architecture: None"):
            load_checkpoint(path)
