"""Dataset generators, rejection handling, and the dataset cache."""

import numpy as np
import pytest

from frkan.tasks import (
    FEYNMAN_EQUATIONS,
    FeynmanSpec,
    RejectionOverflow,
    UnsupportedEquation,
    generate_classification,
    generate_feynman,
    generate_runge,
    save_dataset_csv,
)

# Independent re-implementations of every supported formula, written in a
# different style (per-sample math), used as the second evaluator.
import math

_SECOND_EVALUATORS = {
    "I.6.2": lambda r: math.exp(-0.5 * (r[0] / r[1]) ** 2) / math.sqrt(2 * math.pi) / r[1],
    "I.6.2b": lambda r: math.exp(-0.5 * ((r[0] - r[1]) / r[2]) ** 2) / math.sqrt(2 * math.pi) / r[2],
    "I.9.18": lambda r: (r[0] * r[1] * r[2]) /
                        sum((r[i + 1] - r[i]) ** 2 for i in (3, 5, 7)),
    "I.16.6": lambda r: (r[0] + r[1]) / (1 + (r[0] / r[2]) * (r[1] / r[2])),
    "I.18.4": lambda r: (r[0] * r[1] + r[2] * r[3]) / (r[0] + r[2]),
    "I.26.2": lambda r: math.asin(r[0] * math.sin(r[1])),
    "I.29.16": lambda r: math.sqrt((r[0] - r[1] * math.cos(r[2] - r[3])) ** 2 +
                                   (r[1] * math.sin(r[2] - r[3])) ** 2),
    "II.11.27": lambda r: (3 * r[0] * r[1] / (3 - r[0] * r[1])) * r[2] * r[3],
    "III.10.19": lambda r: math.sqrt((r[0] * r[1]) ** 2 + (r[0] * r[2]) ** 2 + (r[0] * r[3]) ** 2),
    "III.17.37": lambda r: r[0] + r[0] * r[1] * math.cos(r[2]),
}


class TestFeynman:
    def test_gaussian_at_origin(self):
        spec = FEYNMAN_EQUATIONS["I.6.2"]
        v = np.array([[0.0, 1.0]])
        assert spec.evaluate(v)[0] == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-12)

    def test_velocity_addition_zero(self):
        spec = FEYNMAN_EQUATIONS["I.16.6"]
        assert spec.evaluate(np.array([[0.0, 0.0, 2.0]]))[0] == 0.0

    def test_center_of_mass_symmetry(self):
        spec = FEYNMAN_EQUATIONS["I.18.4"]
        v = np.array([[2.0, 1.5, 2.0, 3.5]])  # equal masses
        assert spec.evaluate(v)[0] == pytest.approx((1.5 + 3.5) / 2)

    def test_unknown_equation(self):
        with pytest.raises(UnsupportedEquation):
            generate_feynman("I.30.3", 100, seed=0)

    def test_too_small_n(self):
        with pytest.raises(ValueError):
            generate_feynman("I.6.2", 5, seed=0)

    @pytest.mark.parametrize("eq_id", sorted(FEYNMAN_EQUATIONS))
    def test_two_implementation_oracle(self, eq_id):
        spec = FEYNMAN_EQUATIONS[eq_id]
        rng = np.random.default_rng(123)
        lo = np.array([r[0] for r in spec.ranges])
        hi = np.array([r[1] for r in spec.ranges])
        V = rng.uniform(lo, hi, size=(100, spec.arity))
        with np.errstate(all="ignore"):
            ours = spec.evaluate(V)
        second = _SECOND_EVALUATORS[eq_id]
        for row, got in zip(V, ours):
            want = None
            try:
                want = second(row)
            except ValueError:
                assert not np.isfinite(got)
                continue
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("eq_id", sorted(FEYNMAN_EQUATIONS))
    def test_all_labels_finite_and_split_shapes(self, eq_id):
        data = generate_feynman(eq_id, 200, seed=7)
        assert np.all(np.isfinite(data.y))
        assert np.all(np.isfinite(data.X))
        assert data.train_idx.size == 160 and data.test_idx.size == 40
        assert set(data.train_idx) & set(data.test_idx) == set()
        assert data.manifest["id"] == eq_id

    def test_seed_determinism(self):
        a = generate_feynman("I.18.4", 100, seed=3)
        b = generate_feynman("I.18.4", 100, seed=3)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_rejection_overflow_guard(self):
        FEYNMAN_EQUATIONS["__hostile__"] = FeynmanSpec(
            "__hostile__", ("x",), ((0.0, 1.0),), "nan",
            lambda v: np.full(v.shape[0], np.nan))
        try:
            with pytest.raises(RejectionOverflow):
                generate_feynman("__hostile__", 100, seed=0)
        finally:
            del FEYNMAN_EQUATIONS["__hostile__"]

    def test_normalization_round_trip(self):
        data = generate_feynman("I.29.16", 200, seed=9)
        norm = data.normalization
        X = data.X[data.test_idx]
        np.testing.assert_allclose(norm.apply(X) * norm.std + norm.mean, X, atol=1e-12)
        Xn = norm.apply(data.X[data.train_idx])
        np.testing.assert_allclose(Xn.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Xn.std(axis=0), 1.0, rtol=1e-12)


class TestRunge:
    def test_values(self):
        data = generate_runge(100, seed=0)
        np.testing.assert_allclose(data.y, 1.0 / (1.0 + 25.0 * data.X[:, 0] ** 2))
        x = np.array([0.0, 1.0, -1.0])
        y = 1.0 / (1.0 + 25.0 * x ** 2)
        assert y[0] == 1.0
        assert y[1] == y[2] == pytest.approx(1.0 / 26.0)

    def test_peak_at_zero(self):
        xs = np.linspace(-1, 1, 10001)
        ys = 1.0 / (1.0 + 25.0 * xs ** 2)
        assert xs[np.argmax(ys)] == pytest.approx(0.0, abs=1e-3)
        assert ys.max() == 1.0

    def test_determinism(self):
        a = generate_runge(50, seed=4)
        b = generate_runge(50, seed=4)
        np.testing.assert_array_equal(a.X, b.X)


class TestClassification:
    def test_two_class_linear_separability(self):
        data = generate_classification(2000, classes=2, d=4, seed=0)
        m0 = data.X[data.y == 0].mean(axis=0)
        m1 = data.X[data.y == 1].mean(axis=0)
        w = m1 - m0
        mid = (m0 + m1) / 2
        pred = (data.X - mid) @ w > 0
        acc = np.mean(pred == (data.y == 1))
        assert acc > 0.99

    def test_balanced_classes(self):
        data = generate_classification(1001, classes=3, d=4, seed=1)
        counts = np.bincount(data.y.astype(int))
        assert counts.max() - counts.min() <= 1

    def test_determinism_and_dims(self):
        a = generate_classification(100, classes=5, d=8, seed=2)
        b = generate_classification(100, classes=5, d=8, seed=2)
        np.testing.assert_array_equal(a.X, b.X)
        assert a.X.shape == (100, 8)
        with pytest.raises(ValueError):
            generate_classification(100, classes=5, d=3, seed=0)


class TestSplit:
    def test_an_unknown_split_is_rejected_by_name(self):
        data = generate_runge(20, seed=0)
        with pytest.raises(ValueError, match="'validation'"):
            data.split("validation")
        assert data.split("train")[0].shape == (16, 1)
        assert data.split("test")[0].shape == (4, 1)


class TestDatasetCache:
    def test_csv_cache_round_trips_through_loader(self, tmp_path):
        import json

        data = generate_feynman("I.18.4", 50, seed=2)
        csv_path = tmp_path / "d.csv"
        man_path = tmp_path / "d_manifest.json"
        save_dataset_csv(data, str(csv_path), str(man_path))
        manifest = json.loads(man_path.read_text())
        assert manifest["id"] == "I.18.4"
        assert manifest["arity"] == 4
        assert set(manifest) >= {"ranges", "formula", "seed", "n", "split_sizes"}
        # the label column reloads exactly; the split column tags rows
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "x0,x1,x2,x3,label,split"
        assert len(lines) == 51
        labels = np.array([float(l.split(",")[4]) for l in lines[1:]])
        np.testing.assert_array_equal(labels, data.y)
        assert sum(l.endswith("train") for l in lines[1:]) == data.train_idx.size
