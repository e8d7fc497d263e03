"""Optimizer behavior, loss decomposition, training loops, divergence policy."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frkan.autodiff import NonFiniteGradient, NonFiniteValue, finite_difference_check
from frkan.layers import FRKANLayer, GridConfig, MLPLayer, Network, init_network
from frkan.tasks import DatasetSplit, generate_classification, generate_runge
from frkan.training import (
    AdamState,
    EmptySplit,
    TrainConfig,
    adam_step,
    evaluate,
    grid_range_experiment,
    hash_config,
    penalty_total,
    regularized_loss,
    smoothness_penalty,
    train,
)


def _toy_regression(n=64, d=2, seed=0, train_frac=0.5):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, d))
    y = X.sum(axis=1)
    idx = np.arange(n)
    cut = int(n * train_frac)
    return DatasetSplit(X, y, idx[:cut], idx[cut:], task="regression",
                        manifest={"id": "toy"})


class TestAdam:
    def test_zero_gradient_is_identity(self):
        p = np.array([1.0, -2.0, 3.0])
        state = AdamState.zeros(3)
        new, state = adam_step(p, np.zeros(3), state, lr=0.1)
        np.testing.assert_array_equal(new, p)

    def test_first_step_magnitude_is_lr(self):
        p = np.zeros(4)
        g = np.array([5.0, -0.3, 1e-4, 100.0])
        new, _ = adam_step(p, g, AdamState.zeros(4), lr=1e-3)
        np.testing.assert_allclose(np.abs(new), 1e-3, rtol=1e-4)
        assert np.all(np.sign(new) == -np.sign(g))

    def test_deterministic_sequence(self):
        rng = np.random.default_rng(0)
        grads = rng.normal(size=(100, 5))

        def run():
            p = np.ones(5)
            st = AdamState.zeros(5)
            for g in grads:
                p, st = adam_step(p, g, st, lr=1e-2)
            return p

        np.testing.assert_array_equal(run(), run())

    def test_state_shape_checked(self):
        with pytest.raises(ValueError):
            adam_step(np.zeros(3), np.zeros(3), AdamState.zeros(4), lr=0.1)


class TestRegularizedLoss:
    def _penalty48_net(self):
        # single group, coefficients (+1,-1,+1,-1,+1) on a dg=1 grid: penalty 48
        layer = FRKANLayer(1, 1, 1, 0.0, 4.0, 4, 1,
                           np.array([[1.0, -1.0, 1.0, -1.0, 1.0]]),
                           np.zeros((1, 5)), np.array([[1.0]]), silu_path=False)
        return Network([layer])

    def test_lambda_zero_is_task_loss_exactly(self):
        net = self._penalty48_net()
        X = np.array([[2.0]])
        y = np.array([0.25])
        loss0, _, parts = regularized_loss(net, X, y, 0.0, "regression")
        assert loss0 == parts["task_loss"]
        assert parts["penalty"] == pytest.approx(48.0, rel=1e-12)

    def test_penalty_example_sum(self):
        net = self._penalty48_net()
        X = np.array([[2.0]])
        pred = net.forward_batch(X)[0, 0]
        y = np.array([pred - np.sqrt(0.5)])  # task loss exactly 0.5
        loss, _, parts = regularized_loss(net, X, y, 1.0, "regression")
        assert parts["task_loss"] == pytest.approx(0.5, rel=1e-12)
        assert loss == pytest.approx(48.5, rel=1e-12)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(5)
        net = init_network("in:2 -> frkan:4 -> out:1", GridConfig(G=5, K=2, a=-3, b=3),
                           seed=3, layernorm="auto")
        X = rng.uniform(-2, 2, size=(6, 2))
        y = rng.normal(size=6)
        for lam in (1e-3, 0.37, 10.0):
            l0, _, p0 = regularized_loss(net, X, y, 0.0, "regression")
            l1, _, p1 = regularized_loss(net, X, y, lam, "regression")
            assert p1["penalty"] == p0["penalty"]
            diff = l1 - l0
            assert diff == pytest.approx(lam * p0["penalty"], rel=1e-12)

    def test_gradient_matches_fd_including_penalty_path(self):
        rng = np.random.default_rng(11)
        net = init_network("in:2 -> frkan:3 -> mlp:1", GridConfig(G=4, K=2, a=-3, b=3),
                           seed=6)
        X = rng.uniform(-2, 2, size=(5, 2))
        y = rng.normal(size=5)

        def f(params):
            net.set_flat(params)
            loss, grads, _ = regularized_loss(net, X, y, 0.01, "regression")
            return loss, grads

        assert finite_difference_check(f, net.get_flat(), 1e-5) < 1e-4

    def test_classification_loss_gradient(self):
        rng = np.random.default_rng(13)
        net = init_network("in:3 -> frkan:4 -> out:3", GridConfig(G=4, K=1, a=-3, b=3),
                           seed=2)
        X = rng.uniform(-2, 2, size=(6, 3))
        y = rng.integers(0, 3, size=6).astype(float)

        def f(params):
            net.set_flat(params)
            loss, grads, _ = regularized_loss(net, X, y, 0.0, "classification")
            return loss, grads

        assert finite_difference_check(f, net.get_flat(), 1e-5) < 1e-4

    def test_empty_batch(self):
        net = self._penalty48_net()
        with pytest.raises(EmptySplit):
            regularized_loss(net, np.zeros((0, 1)), np.zeros(0), 0.0, "regression")


@st.composite
def _spline_stacks(draw):
    """A small stack of KAN, FR-KAN and MLP layers with at least one spline
    layer, random G, K and range, and its parameters moved off the init."""
    kinds = draw(st.lists(st.sampled_from(["kan", "frkan", "mlp"]), min_size=1, max_size=3))
    if set(kinds) == {"mlp"}:
        kinds.append(draw(st.sampled_from(["kan", "frkan"])))
    widths = draw(st.lists(st.integers(1, 3), min_size=len(kinds), max_size=len(kinds)))
    d_in, seed = draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 16))
    a, width = draw(st.floats(-5.0, 0.0)), draw(st.floats(0.5, 10.0))
    grid = GridConfig(G=draw(st.integers(2, 8)), K=draw(st.integers(1, 3)), a=a, b=a + width)
    desc = " -> ".join([f"in:{d_in}"] + [f"{k}:{w}" for k, w in zip(kinds, widths)])
    net = init_network(desc, grid, seed=seed, layernorm="off")
    rng = np.random.default_rng(seed)
    net.set_flat(net.get_flat() + rng.normal(scale=0.5, size=net.n_params()))
    return net


class TestClosedFormPenalty:
    @settings(max_examples=40)
    @given(net=_spline_stacks())
    def test_gradient_matches_central_differences(self, net):
        _, grad = smoothness_penalty(net)
        p0, h = net.get_flat(), 1e-3
        fd = np.empty_like(p0)
        for i in range(p0.size):
            p = p0.copy()
            p[i] = p0[i] + h
            net.set_flat(p)
            up = penalty_total(net)
            p[i] = p0[i] - h
            net.set_flat(p)
            fd[i] = (up - penalty_total(net)) / (2.0 * h)
        net.set_flat(p0)
        assert np.max(np.abs(fd - grad)) <= 1e-7 * max(1.0, np.max(np.abs(grad)))

    @settings(max_examples=15)
    @given(net=_spline_stacks(), lam=st.floats(1e-4, 10.0))
    def test_loss_gradient_is_task_gradient_plus_lam_penalty_gradient(self, net, lam):
        rng = np.random.default_rng(1)
        X = rng.uniform(-3.0, 3.0, size=(3, net.d_in))
        y = rng.normal(size=(3, net.d_out))
        penalty, grad = smoothness_penalty(net)
        loss0, g0, _ = regularized_loss(net, X, y, 0.0, "regression")
        loss, g, parts = regularized_loss(net, X, y, lam, "regression")
        assert parts["penalty"] == penalty
        assert loss == pytest.approx(loss0 + lam * penalty, rel=1e-12)
        np.testing.assert_allclose(g, g0 + lam * grad, rtol=1e-12, atol=0.0)

    def test_a_non_finite_penalty_gradient_is_named(self, monkeypatch):
        # the tape checks its own gradient; the sum with the penalty's is
        # checked only when lam > 0 adds it
        net = init_network("in:2 -> kan:2 -> out:1", GridConfig(G=5, K=1, a=-2, b=2), seed=0)
        X, y = _toy_regression().split("train")
        monkeypatch.setattr("frkan.training.smoothness_penalty", lambda net, lam: (
            0.0, np.full(net.n_params(), np.inf) if lam else None))
        assert np.all(np.isfinite(regularized_loss(net, X, y, 0.0)[1]))
        with pytest.raises(NonFiniteGradient, match="^penalty gradient is not finite$"):
            regularized_loss(net, X, y, 1e-4)

    def test_an_overflowing_penalty_leaves_lam_zero_exact(self):
        # alternating +-1e154 coefficients square past the float range in
        # the penalty; A = 0 keeps them out of the forward pass
        net = init_network("in:2 -> frkan:3 -> frkan:1", GridConfig(G=5, K=2, a=-2, b=2),
                           seed=0, layernorm="off")
        first = net.modules[0]
        first.coefficients[:] = 1e154 * (-1.0) ** np.arange(first.coefficients.shape[1])
        first.A[:] = 0.0
        X, y = _toy_regression().split("train")
        loss, grads, parts = regularized_loss(net, X, y, 0.0)
        assert parts["penalty"] == np.inf
        assert loss == parts["task_loss"] and np.isfinite(loss)
        assert np.all(np.isfinite(grads))
        with pytest.raises(NonFiniteValue, match="^loss is inf$"):
            regularized_loss(net, X, y, 1e-4)


class TestEvaluate:
    def test_perfect_predictor(self):
        net = Network([MLPLayer(np.array([[1.0], [1.0]]), np.zeros(1), "identity")])
        data = _toy_regression()
        assert evaluate(net, data) == 0.0

    def test_constant_predictor_rmse_is_std(self):
        data = _toy_regression(n=400)
        _, yte = data.split("test")
        mean = yte.mean()
        net = Network([MLPLayer(np.zeros((2, 1)), np.array([mean]), "identity")])
        assert evaluate(net, data) == pytest.approx(yte.std(), rel=1e-12)

    def test_hand_computed_rmse(self):
        X = np.arange(5, dtype=float)[:, None]
        preds = np.array([1.0, 2.0, 2.0, 5.0, 3.0])
        labels = np.array([1.0, 1.0, 4.0, 1.0, 3.0])
        # predictor: identity readout of a rigged affine map is overkill;
        # feed the residuals through a zero net and compare directly
        net = Network([MLPLayer(np.zeros((1, 1)), np.zeros(1), "identity")])
        data = DatasetSplit(X, labels - preds, np.arange(2), np.arange(5),
                            task="regression", manifest={})
        want = np.sqrt(np.mean((labels - preds) ** 2))
        assert evaluate(net, data) == pytest.approx(want, rel=1e-12)

    def test_accuracy_and_empty(self):
        data = generate_classification(60, classes=2, d=2, seed=0)
        net = Network([MLPLayer(np.eye(2), np.zeros(2), "identity")])
        acc = evaluate(net, data)
        assert 0.0 <= acc <= 1.0
        empty = DatasetSplit(data.X, data.y, np.arange(60), np.arange(0),
                             task="classification", manifest={})
        with pytest.raises(EmptySplit):
            evaluate(net, empty)


class TestTrainLoop:
    def test_linear_target_sanity(self):
        data = _toy_regression(n=600, seed=1, train_frac=0.8)
        net = init_network("in:2 -> frkan:8 -> out:1", GridConfig(G=10, K=3),
                           seed=2024, layernorm="off")
        cfg = TrainConfig(epochs=20, batch_size=64, seed=2024, lam=0.0,
                          learning_rate=1e-2)
        record, net = train(net, data, cfg)
        assert record.nan_step is None
        assert record.final_metric < 0.05

    def test_mlp_baseline_parity_on_linear_target(self):
        data = _toy_regression(n=600, seed=1, train_frac=0.8)
        net = init_network("in:2 -> mlp:16 -> out:1", seed=2024)
        cfg = TrainConfig(epochs=40, batch_size=64, seed=2024, lam=0.0,
                          learning_rate=1e-2)
        record, _ = train(net, data, cfg)
        assert record.final_metric < 0.05

    def test_bit_level_determinism(self):
        data = generate_runge(200, seed=0)
        cfg = TrainConfig(epochs=3, batch_size=32, seed=7, lam=1e-3,
                          learning_rate=1e-3)

        def run():
            net = init_network("in:1 -> frkan:4 -> out:1",
                               GridConfig(G=6, K=2, a=-2, b=2), seed=7)
            record, net = train(net, data, cfg)
            return net.get_flat(), record.final_metric, record.config_hash

        p1, m1, h1 = run()
        p2, m2, h2 = run()
        np.testing.assert_array_equal(p1, p2)
        assert m1 == m2 and h1 == h2

    def test_nan_policy_halts_and_records(self):
        data = _toy_regression(n=64, seed=3)
        net = init_network("in:2 -> mlp:4 -> out:1", seed=0)
        # absurd learning rate forces an overflow within a few steps
        cfg = TrainConfig(epochs=50, batch_size=16, seed=0, lam=0.0,
                          learning_rate=1e150)
        record, _ = train(net, data, cfg)
        assert record.nan_step is not None
        assert len(record.steps) <= record.nan_step + 1

    def test_nan_cause_names_the_error(self, tmp_path):
        data = _toy_regression(n=64, seed=3)
        data.y[:] = 1e200    # the first residual's square overflows
        net = init_network("in:2 -> frkan:3 -> out:1", GridConfig(G=5, K=2, a=-2, b=2), seed=0)
        record, _ = train(net, data, TrainConfig(epochs=1, batch_size=16, seed=0, lam=0.0))
        assert record.nan_step == 0 and record.steps == []
        assert record.nan_cause.startswith(
            "NonFiniteValue: loss (mse) produced a non-finite value")
        summary = record.summary()
        assert summary["nan_step"] == 0 and summary["nan_cause"] == record.nan_cause
        clean, _ = train(init_network("in:2 -> mlp:3 -> out:1", seed=0), _toy_regression(),
                         TrainConfig(epochs=1, batch_size=16, seed=0))
        assert clean.nan_step is None and clean.summary()["nan_cause"] is None

    def test_nan_cause_names_the_layer(self):
        net = init_network("in:2 -> mlp:3 -> mlp:3 -> out:1", seed=0)
        net.modules[0].bias[:] = 1e200    # finite, and past the ReLU
        net.modules[1].W[:] = 1e200       # the hidden layer's product overflows
        record, _ = train(net, _toy_regression(n=64, seed=3),
                          TrainConfig(epochs=1, batch_size=16, seed=0, lam=0.0))
        assert record.nan_step == 0
        assert record.nan_cause.startswith(
            "NonFiniteValue: layer 1 (mlp) produced a non-finite value")

    def test_run_record_csv(self, tmp_path):
        data = generate_runge(100, seed=0)
        net = init_network("in:1 -> frkan:3 -> out:1",
                           GridConfig(G=5, K=1, a=-2, b=2), seed=1)
        cfg = TrainConfig(epochs=2, batch_size=32, seed=1, lam=1e-4)
        record, _ = train(net, data, cfg)
        path = tmp_path / "steps.csv"
        record.write_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,loss,metric,penalty,nan_flag"
        assert len(lines) == len(record.steps) + 1
        summary = record.summary()
        assert summary["nan_step"] is None
        assert summary["config_hash"] == record.config_hash

    def test_lambda_pressure_on_penalty(self):
        # paired runs: heavier smoothing weight ends with smaller penalty
        data = generate_runge(300, seed=5)
        finals = []
        for lam in (0.0, 1e-1):
            net = init_network("in:1 -> frkan:4 -> out:1",
                               GridConfig(G=8, K=2, a=-2, b=2), seed=9)
            cfg = TrainConfig(epochs=10, batch_size=32, seed=9, lam=lam,
                              learning_rate=3e-3)
            _, net = train(net, data, cfg)
            finals.append(penalty_total(net))
        assert finals[1] < finals[0]


class TestGridRangeExperiment:
    def test_depth_precondition(self):
        with pytest.raises(ValueError):
            grid_range_experiment([(-1, 1)], depth=2, steps=5, seed=0)

    def test_identical_seeds_share_non_shift_parameters(self):
        grid_small = GridConfig(G=6, K=2, a=-1, b=1)
        grid_large = GridConfig(G=6, K=2, a=-10, b=10)
        d = "in:4 -> frkan:4 -> frkan:4 -> frkan:3"
        n1 = init_network(d, grid_small, seed=11, silu=False, layernorm="auto")
        n2 = init_network(d, grid_large, seed=11, silu=False, layernorm="auto")
        for m1, m2 in zip(n1.modules, n2.modules):
            if m1.kind != "frkan":
                continue
            np.testing.assert_array_equal(m1.A, m2.A)
            np.testing.assert_array_equal(m1.coefficients, m2.coefficients)
            # shifts differ by the half-width ratio only
            ratio = (grid_large.b - grid_large.a) / (grid_small.b - grid_small.a)
            np.testing.assert_allclose(m2.shifts, m1.shifts * ratio, rtol=1e-12)

    def test_small_run_completes(self):
        results = grid_range_experiment([(-10, 10)], depth=3, steps=8, seed=1,
                                        classes=3, input_dim=3, width=3,
                                        G=5, K=2, n_samples=120, batch_size=16)
        rec = results[0]["record"]
        assert rec.nan_step is None
        assert len(rec.steps) == 8

    @pytest.mark.parametrize("rng_pair", [(-1.0, 1.0), (-10.0, 10.0)])
    def test_single_layer_is_stable_on_any_range(self, rng_pair):
        # instability needs depth: one spline layer stays finite everywhere
        a, b = rng_pair
        data = generate_classification(120, classes=3, d=3, seed=5)
        net = init_network("in:3 -> frkan:3", GridConfig(G=10, K=3, a=a, b=b),
                           seed=5, silu=False, layernorm="off")
        cfg = TrainConfig(epochs=10, batch_size=16, seed=5, lam=0.0,
                          task="classification", max_steps=40)
        record, _ = train(net, data, cfg)
        assert record.nan_step is None
        assert all(np.isfinite(r["loss"]) for r in record.steps)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", 0.0), ("learning_rate", -1e-3), ("learning_rate", np.nan),
        ("learning_rate", np.inf), ("learning_rate", True), ("lam", -1e-4), ("lam", np.nan),
        ("lam", np.inf), ("epochs", 0), ("epochs", 1.5), ("epochs", True),
        ("batch_size", 0), ("batch_size", 2.5), ("batch_size", False), ("max_steps", 0),
        ("max_steps", -3), ("max_steps", 2.5), ("max_steps", True), ("beta1", 1.0),
        ("beta1", -0.1), ("beta1", np.nan), ("beta1", True), ("beta2", 1.5), ("beta2", -1e-3),
        ("beta2", np.inf), ("eps", 0.0), ("eps", -1.0), ("eps", np.nan), ("eps", np.inf),
        ("seed", 2.5), ("seed", -1), ("seed", True), ("seed", None), ("seed", "7"),
    ])
    def test_bad_values_are_rejected_by_name(self, field, value):
        # Adam's beta1, beta2 and eps are module constants: setting one is
        # refused by name, whatever its value
        if field in ("beta1", "beta2", "eps"):
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'$"):
                TrainConfig(**{field: value})
            return
        with pytest.raises(ValueError, match=f"^{field}: "):
            TrainConfig(**{field: value})

    def test_integral_and_numpy_values_are_accepted(self):
        cfg = TrainConfig(learning_rate=np.float64(1e-2), lam=0, epochs=np.int64(2),
                          batch_size=16, max_steps=None, seed=np.int64(0))
        assert cfg.epochs == 2

    def test_max_steps_one_trains_exactly_one_step(self):
        net = Network([MLPLayer(np.ones((2, 1)), np.zeros(1), activation="identity")])
        record, _ = train(net, _toy_regression(), TrainConfig(epochs=3, batch_size=8,
                                                              max_steps=1))
        assert [r["step"] for r in record.steps] == [0]


class TestConfigHash:
    def test_stable_and_sensitive(self):
        a = hash_config({"x": 1, "y": [1, 2]})
        b = hash_config({"y": [1, 2], "x": 1})
        c = hash_config({"x": 2, "y": [1, 2]})
        assert a == b
        assert a != c


class TestReadmeQuickstart:
    def test_library_quickstart_runs_as_written(self, tmp_path, monkeypatch, capsys):
        """The README's "Library quickstart" code block, run as written in
        a scratch directory, where it leaves its checkpoint."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1]
        block = block.split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        scope = {}
        exec(block, scope)
        record, data = scope["record"], scope["data"]
        assert record.nan_step is None
        assert 0.0 < record.final_metric < np.std(data.split("test")[1])
        assert float(capsys.readouterr().out) == record.final_metric
        assert (tmp_path / "net.json").is_file()
