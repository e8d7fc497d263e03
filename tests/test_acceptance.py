"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is fixed here; nothing is calibrated at
run time.
"""

import json
import time

import numpy as np
import pytest

from frkan.autodiff import finite_difference_check
from frkan.cli import main as cli_main
from frkan.knots import (
    audit_network_knots,
    build_sawtooth_network,
    fixed_grid_knot_bounds,
    free_knot_bounds,
)
from frkan.layers import (
    FRKANLayer,
    GridConfig,
    KANLayer,
    MLPLayer,
    Network,
    init_network,
    param_count,
)
from frkan.splines import basis_matrix, init_shift, make_uniform_grid
from frkan.tasks import generate_classification, generate_feynman, generate_runge
from frkan.training import (
    TrainConfig,
    grid_range_experiment,
    penalty_total,
    regularized_loss,
    train,
)


def _report(name, elapsed, budget, detail=""):
    print(f"PASS {name}: {detail} [{elapsed:.1f}s < {budget:.0f}s budget]")


class TestCriterion01PartitionOfUnity:
    def test_partition_of_unity(self):
        t0 = time.perf_counter()
        worst = 0.0
        for K in (1, 2, 3):
            for G in (5, 20):
                for shifted in (False, True):
                    kv = make_uniform_grid(-10.0, 10.0, G, K)
                    if shifted:
                        kv.shift = init_shift(kv, 8.0, seed=100 * K + G)
                    x = np.linspace(kv.a, kv.b, 10_000)
                    sums = basis_matrix(x, kv.effective_knots(), K).sum(axis=1)
                    dev = float(np.max(np.abs(sums - 1.0)))
                    worst = max(worst, dev)
                    assert dev <= 1e-9, (K, G, shifted, dev)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        _report("criterion 1 (partition of unity)", elapsed, 5,
                f"max |sum-1| = {worst:.2e} over K in 1..3, G in {{5,20}}")


def _random_network(rng):
    """1-3 layers, mixed kinds, small dims, K in 1..3."""
    n_layers = int(rng.integers(1, 4))
    dims = [int(rng.integers(1, 4))]
    for _ in range(n_layers):
        dims.append(int(rng.integers(1, 4)))
    K = int(rng.integers(1, 4))
    G = int(rng.integers(3, 6))
    modules = []
    for li in range(n_layers):
        d_in, d_out = dims[li], dims[li + 1]
        kind = ["kan", "frkan", "mlp"][int(rng.integers(0, 3))]
        if kind == "mlp":
            modules.append(MLPLayer(rng.normal(size=(d_in, d_out)) / np.sqrt(d_in),
                                    rng.normal(size=d_out) * 0.1,
                                    activation="relu" if li < n_layers - 1 else "identity"))
        elif kind == "kan":
            kv = make_uniform_grid(-3.0, 3.0, G, K)
            modules.append(KANLayer(
                d_in, d_out, kv,
                rng.normal(size=(d_in, d_out, kv.n_bases)) * 0.5,
                rng.normal(size=(d_in, d_out)), rng.normal(size=(d_in, d_out))))
        else:
            h = int(rng.integers(1, d_in + 1))
            kv = make_uniform_grid(-3.0, 3.0, G, K)
            shifts = np.stack([init_shift(kv, 8.0, seed=int(rng.integers(1 << 30)))
                               for _ in range(h)])
            modules.append(FRKANLayer(d_in, d_out, h, -3.0, 3.0, G, K,
                                      rng.normal(size=(h, G + K)) * 0.5, shifts,
                                      rng.normal(size=(d_in, d_out))))
        if li == 0 and n_layers > 1 and rng.random() < 0.4:
            from frkan.layers import LayerNorm
            ln = LayerNorm(d_out)
            ln.gamma = 1.0 + 0.1 * rng.normal(size=d_out)
            ln.beta = 0.1 * rng.normal(size=d_out)
            modules.append(ln)
            dims[li + 1] = d_out
    return Network(modules)


class TestCriterion02GradientOracle:
    def test_twenty_random_networks(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240)
        worst = 0.0
        classes_seen = set()
        for trial in range(20):
            net = _random_network(rng)
            for m, name, _ in net.param_arrays():
                classes_seen.add((m.kind, name))
            X = rng.uniform(-2.5, 2.5, size=(3, net.d_in))
            y = rng.normal(size=3)

            def f(params, net=net, X=X, y=y):
                net.set_flat(params)
                loss, grads, _ = regularized_loss(net, X, y, 1e-3, "regression")
                return loss, grads

            err = finite_difference_check(f, net.get_flat(), step=1e-5)
            worst = max(worst, err)
            assert err < 1e-4, (trial, net.descriptor, err)
        # every learnable parameter class was exercised
        kinds = {name for _, name in classes_seen}
        assert {"A", "A_b", "A_s", "coefficients", "shifts", "W", "bias"} <= kinds
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
        _report("criterion 2 (gradient oracle)", elapsed, 120,
                f"20 networks, max rel err = {worst:.2e}, classes = {sorted(kinds)}")


class TestCriterion03WidthInvariance:
    def test_width_invariance_of_knot_count(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(3)
        for G in (5, 10, 20):
            kv = make_uniform_grid(-1.0, 1.0, G, 1)
            interior = kv.base_points()[1:-1]
            counts = []
            for width in (1, 8, 64):
                layer = KANLayer(1, width, kv,
                                 rng.normal(size=(1, width, kv.n_bases)),
                                 rng.normal(size=(1, width)),
                                 rng.normal(size=(1, width)))
                audit = audit_network_knots(Network([layer]), samples=200_000)
                counts.append(audit.measured_interior)
                assert audit.measured_interior == G - 1, (G, width, audit.measured_interior)
                diffs = np.abs(audit.report.positions[:, None] - interior[None, :])
                assert np.all(diffs.min(axis=1) <= 1e-6), (G, width)
            assert len(set(counts)) == 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        _report("criterion 3 (width invariance)", elapsed, 60,
                "interior count = G-1 at grid points for widths {1,8,64}, G {5,10,20}")


class TestCriterion04ContainmentAndTightness:
    def test_sawtooth_and_random_containment(self):
        t0 = time.perf_counter()
        saw = build_sawtooth_network(5, K=1, layer2_seed=7)
        audit = audit_network_knots(saw, samples=200_000)
        upper = fixed_grid_knot_bounds(5, 1, 2).upper
        assert audit.measured_interior > 5 - 1
        assert audit.measured_with_boundary <= upper

        rng = np.random.default_rng(44)
        checked = 0
        for _ in range(100):
            G = int(rng.integers(3, 6))
            w = int(rng.integers(1, 4))
            kv1 = make_uniform_grid(-1.0, 1.0, G, 1)
            kv2 = make_uniform_grid(-1.0, 1.0, G, 1)
            l1 = KANLayer(1, w, kv1, rng.normal(size=(1, w, kv1.n_bases)),
                          rng.normal(size=(1, w)), rng.normal(size=(1, w)))
            l2 = KANLayer(w, 1, kv2, rng.normal(size=(w, 1, kv2.n_bases)),
                          rng.normal(size=(w, 1)), rng.normal(size=(w, 1)))
            net = Network([l1, l2])
            a = audit_network_knots(net, samples=50_000)
            assert a.measured_with_boundary <= fixed_grid_knot_bounds(G, 1, 2).upper, (G, w)
            checked += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        _report("criterion 4 (containment + tightness)", elapsed, 300,
                f"sawtooth interior {audit.measured_interior} > 4, <= {upper}; "
                f"{checked}/100 random nets contained")


class TestCriterion05FreeKnotGain:
    def test_free_shift_creates_knots(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(55)
        G, h = 10, 2
        kv = make_uniform_grid(-1.0, 1.0, G, 1)
        shifts = np.stack([init_shift(kv, 8.0, seed=s) for s in (11, 29)])
        layer = FRKANLayer(2, 1, h, -1.0, 1.0, G, 1,
                           rng.normal(size=(h, G + 1)), shifts,
                           rng.normal(size=(2, 1)))
        audit = audit_network_knots(Network([layer]), samples=200_000)
        analogue = h * (G + 1)  # h(G+K) for K=1
        assert audit.measured_interior > G - 1
        assert audit.measured_with_boundary <= analogue
        assert audit.measured_with_boundary <= free_knot_bounds(G, 1, 1, h).upper
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        _report("criterion 5 (free-knot gain)", elapsed, 60,
                f"interior {audit.measured_interior} > {G - 1}, "
                f"with boundary <= h(G+K) = {analogue}")


class TestCriterion06ApproximationOrdering:
    """FR-KAN vs MLP and KAN at equal parameter budgets and equal epochs.

    One shared recipe for all models and both equations: 40 epochs,
    batch 64, Adam lr 1e-2, no smoothness penalty, no layer norm (the
    nets are two layers deep; per-sample normalization is the deep-net
    stabilizer and measurably cripples narrow regression stacks), grid
    G=20, K=3 on [-10, 10], seed 2024, n=3000.  Widths are the nearest
    parameter-count matches.  Reported table RMSEs are reference points,
    not targets; only the ordering is asserted.
    """

    RECIPE = dict(learning_rate=1e-2, epochs=40, batch_size=64, lam=0.0,
                  seed=2024)

    def _train_one(self, eq, descriptor, h=None):
        data = generate_feynman(eq, 3000, seed=2024)
        grid = GridConfig(G=20, K=3, a=-10.0, b=10.0, h=h)
        net = init_network(descriptor, grid, seed=2024, layernorm="off")
        record, net = train(net, data, TrainConfig(**self.RECIPE))
        assert record.nan_step is None, (eq, descriptor)
        return record.final_metric, param_count(net)["total"]

    @pytest.mark.slow
    @pytest.mark.parametrize("eq,d_in,fr_width,fr_h,kan_width,mlp_width", [
        ("I.6.2", 2, 8, 2, 3, 48),
        ("I.18.4", 4, 12, 4, 3, 65),
    ])
    def test_frkan_beats_mlp_and_matches_kan(self, eq, d_in, fr_width, fr_h,
                                             kan_width, mlp_width):
        t0 = time.perf_counter()
        fr, fr_p = self._train_one(eq, f"in:{d_in} -> frkan:{fr_width} -> out:1",
                                   h=fr_h)
        kan, kan_p = self._train_one(eq, f"in:{d_in} -> kan:{kan_width} -> out:1")
        mlp, mlp_p = self._train_one(eq, f"in:{d_in} -> mlp:{mlp_width} -> out:1")
        # budgets matched to the nearest discrete width
        assert max(fr_p, kan_p, mlp_p) <= 1.2 * min(fr_p, kan_p, mlp_p), \
            (fr_p, kan_p, mlp_p)
        assert fr < mlp, f"{eq}: FR-KAN {fr:.5f} !< MLP {mlp:.5f}"
        assert fr <= 1.05 * kan, f"{eq}: FR-KAN {fr:.5f} > 1.05 x KAN {kan:.5f}"
        elapsed = time.perf_counter() - t0
        _report(f"criterion 6 ({eq})", elapsed, 300,
                f"rmse FR-KAN {fr:.5f} ({fr_p}p) < MLP {mlp:.5f} ({mlp_p}p), "
                f"FR/KAN = {fr / kan:.3f} (KAN {kan:.5f}, {kan_p}p)")


class TestCriterion07RegularizerEffect:
    def test_penalty_non_increasing_and_decomposition(self):
        t0 = time.perf_counter()
        data = generate_runge(1000, seed=2024)
        grid = GridConfig(G=10, K=3, a=-2.0, b=2.0)
        finals = []
        nets = []
        for lam in (0.0, 1e-3, 1e-1):
            net = init_network("in:1 -> frkan:1", grid, seed=2024, layernorm="off")
            cfg = TrainConfig(learning_rate=1e-2, epochs=20, batch_size=32,
                              lam=lam, seed=2024)
            _, net = train(net, data, cfg)
            finals.append(penalty_total(net))
            nets.append(net)
        assert finals[0] >= finals[1] >= finals[2], finals

        # decomposition at fixed parameters
        X, y = data.split("train")
        net = nets[0]
        l0, _, parts0 = regularized_loss(net, X[:64], y[:64], 0.0, "regression")
        for lam in (1e-3, 1e-1, 1.0):
            l1, _, parts1 = regularized_loss(net, X[:64], y[:64], lam, "regression")
            lhs = l1 - l0
            rhs = lam * parts0["penalty"]
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), (lam, lhs, rhs)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        _report("criterion 7 (regularizer effect)", elapsed, 300,
                f"penalty at convergence: {finals[0]:.3g} >= {finals[1]:.3g} "
                f">= {finals[2]:.3g}; decomposition exact")


class TestCriterion08GridRangeStability:
    @pytest.mark.slow
    def test_wide_range_stays_finite(self):
        t0 = time.perf_counter()
        results = grid_range_experiment(
            [(-1.0, 1.0), (-10.0, 10.0)], depth=4, steps=1000, seed=2024,
            classes=10, input_dim=10, width=8, G=20, K=3, n_samples=2000,
            batch_size=32, learning_rate=1e-3, lam=0.0)
        narrow, wide = results[0]["record"], results[1]["record"]
        # the wide-range run must finish every step with finite loss
        assert wide.nan_step is None
        assert len(wide.steps) == 1000
        assert all(np.isfinite(row["loss"]) for row in wide.steps)
        assert np.isfinite(wide.final_metric)
        # the narrow-range outcome is recorded, not required
        narrow_note = (f"nan_step={narrow.nan_step}" if narrow.nan_step is not None
                       else f"no NaN; final acc {narrow.final_metric:.3f} "
                            f"(vs wide {wide.final_metric:.3f})")
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0
        _report("criterion 8 (grid-range stability)", elapsed, 600,
                f"[-10,10] finished 1000/1000 steps finite, acc "
                f"{wide.final_metric:.3f}; [-1,1]: {narrow_note}")


class TestCriterion09ParameterCounts:
    def test_formulas_and_mlp_ratio(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(99)
        for _ in range(50):
            d_in = int(rng.integers(16, 513))
            d_out = int(rng.integers(16, 513))
            G, K = 20, 3
            h = -(-d_in // 4)
            kv = make_uniform_grid(-10, 10, G, K)
            kan = KANLayer(d_in, d_out, kv,
                           np.zeros((d_in, d_out, G + K)),
                           np.zeros((d_in, d_out)), np.zeros((d_in, d_out)))
            assert param_count(Network([kan]))["total"] == \
                d_in * d_out * (G + K) + 2 * d_in * d_out
            fr = FRKANLayer(d_in, d_out, h, -10, 10, G, K,
                            np.zeros((h, G + K)), np.zeros((h, G + 1)),
                            np.zeros((d_in, d_out)))
            fr_total = param_count(Network([fr]))["total"]
            assert fr_total == d_in * d_out + h * (G + K) + h * (G + 1)
            mlp = MLPLayer(np.zeros((d_in, d_out)), np.zeros(d_out))
            mlp_total = param_count(Network([mlp]))["total"]
            assert mlp_total == d_in * d_out + d_out
            assert fr_total <= 2 * mlp_total, (d_in, d_out, fr_total, mlp_total)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        _report("criterion 9 (parameter counts)", elapsed, 1,
                "50 random architectures exact; FR-KAN <= 2x MLP")


class TestCriterion10Determinism:
    def test_rerun_from_effective_config(self, tmp_path):
        t0 = time.perf_counter()
        out1 = tmp_path / "a"
        rc = cli_main(["approx", "--equation", "I.6.2", "--model", "frkan",
                       "--arch", "4", "--G", "6", "--K", "2", "--n", "120",
                       "--epochs", "3", "--batch", "32", "--seed", "2024",
                       "--out", str(out1)])
        assert rc == 0
        out2 = tmp_path / "b"
        rc = cli_main(["approx", "--config", str(out1 / "effective_config.json"),
                       "--out", str(out2)])
        assert rc == 0
        m1 = (out1 / "metrics.csv").read_bytes()
        m2 = (out2 / "metrics.csv").read_bytes()
        assert m1 == m2
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1["final_metric"] == s2["final_metric"]
        elapsed = time.perf_counter() - t0
        _report("criterion 10 (determinism)", elapsed, 60,
                "re-run from emitted config reproduces metrics bit-identically")
