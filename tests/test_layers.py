"""Layer forward semantics, network assembly, parameter counts, checkpoints."""

import json

import numpy as np
import pytest

from frkan.autodiff import Tape
from frkan.layers import (
    BadArchitecture,
    CorruptCheckpoint,
    FRKANLayer,
    GridConfig,
    KANLayer,
    LayerNorm,
    MLPLayer,
    Network,
    init_network,
    load_checkpoint,
    param_count,
    parse_descriptor,
    save_checkpoint,
    sum_outputs,
)
from frkan.splines import init_shift, make_uniform_grid


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
        t = layer.kv.effective_knots()
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

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(5)
        layer = _random_frkan(rng, 4, 3, h=2)
        X = rng.uniform(-2.2, 2.2, size=(15, 4))
        got = layer.forward_batch(X)
        knots = [layer.group_kv(g).effective_knots() for g in range(2)]
        for n in range(X.shape[0]):
            for o in range(3):
                want = 0.0
                for i in range(4):
                    g = layer.group_of(i)
                    s = sum(layer.coefficients[g, j] * _ref_basis(X[n, i], knots[g], j, layer.K)
                            for j in range(layer.G + layer.K))
                    want += layer.A[i, o] * (s + _silu(X[n, i]))
                assert got[n, o] == pytest.approx(want, abs=1e-12)

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
        swapped = FRKANLayer(4, 2, 1, layer.a, layer.b, layer.G, layer.K,
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
        tb = net.bind_tape(tape)
        for n in range(X.shape[0]):
            ids = net.tape_forward(tape, tb, X[n])
            got = np.array(tape.values(ids))
            np.testing.assert_allclose(got, batch[n], rtol=1e-12, atol=1e-12)

    def test_silu_path_off(self):
        rng = np.random.default_rng(2)
        layer = _random_frkan(rng, 2, 2, h=2)
        layer.silu_path = False
        net = Network([layer])
        X = rng.uniform(-2, 2, size=(4, 2))
        batch = net.forward_batch(X)
        tape = Tape()
        tb = net.bind_tape(tape)
        for n in range(X.shape[0]):
            got = np.array(tape.values(net.tape_forward(tape, tb, X[n])))
            np.testing.assert_allclose(got, batch[n], rtol=1e-12, atol=1e-12)


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


class TestCheckpoint:
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
