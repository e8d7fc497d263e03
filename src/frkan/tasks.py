"""Dataset generators and the CSV cache of a generated dataset.

The function-approximation benchmark draws i.i.d. uniform inputs per
variable, evaluates a closed-form target, rejects any sample whose label
comes out NaN/Inf (resampling up to a hard cap), and splits 80/20.
Default input ranges are [1, 5] for positive-only physical quantities and
[-1, 1] for angles; a few equations pin tighter ranges to keep their
denominators away from 0, and the per-equation manifest records whatever
was used.
"""

from __future__ import annotations

import csv
import json
import zlib
from dataclasses import dataclass, field

import numpy as np


class UnsupportedEquation(Exception):
    pass


class RejectionOverflow(Exception):
    pass


@dataclass
class DatasetSplit:
    """Inputs, labels and train/test index sets."""

    X: np.ndarray
    y: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    task: str  # "regression" | "classification"
    manifest: dict = field(default_factory=dict)

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def split(self, which: str):
        if which not in ("train", "test"):
            raise ValueError(f"split: need 'train' or 'test', got {which!r}")
        idx = self.train_idx if which == "train" else self.test_idx
        return self.X[idx], self.y[idx]


def _train_test_split(n: int, train_frac: float = 0.8):
    cut = int(round(train_frac * n))
    return np.arange(cut), np.arange(cut, n)


@dataclass(frozen=True)
class FeynmanSpec:
    id: str
    variables: tuple
    ranges: tuple  # per-variable (lo, hi)
    formula: str
    evaluate: callable

    @property
    def arity(self) -> int:
        return len(self.variables)


def _gauss(theta, sigma):
    return np.exp(-theta ** 2 / (2.0 * sigma ** 2)) / np.sqrt(2.0 * np.pi * sigma ** 2)


def _gauss_shifted(theta, theta1, sigma):
    return np.exp(-(theta - theta1) ** 2 / (2.0 * sigma ** 2)) / np.sqrt(2.0 * np.pi * sigma ** 2)


_ANGLE = (-1.0, 1.0)
_POS = (1.0, 5.0)
_UNIT = (0.0, 1.0)

FEYNMAN_EQUATIONS = {}


def _register(id, variables, ranges, formula, fn):
    FEYNMAN_EQUATIONS[id] = FeynmanSpec(id, tuple(variables), tuple(ranges), formula, fn)


_register("I.6.2", ("theta", "sigma"), (_ANGLE, _POS),
          "exp(-theta^2/(2 sigma^2)) / sqrt(2 pi sigma^2)",
          lambda v: _gauss(v[:, 0], v[:, 1]))

_register("I.6.2b", ("theta", "theta1", "sigma"), (_ANGLE, _ANGLE, _POS),
          "exp(-(theta-theta1)^2/(2 sigma^2)) / sqrt(2 pi sigma^2)",
          lambda v: _gauss_shifted(v[:, 0], v[:, 1], v[:, 2]))

# coordinate pairs live in disjoint bands so the squared distance stays >= 3
_register("I.9.18", ("G", "m1", "m2", "x1", "x2", "y1", "y2", "z1", "z2"),
          (_POS, _POS, _POS, (1.0, 2.0), (3.0, 4.0), (1.0, 2.0), (3.0, 4.0), (1.0, 2.0), (3.0, 4.0)),
          "G m1 m2 / ((x2-x1)^2 + (y2-y1)^2 + (z2-z1)^2)",
          lambda v: v[:, 0] * v[:, 1] * v[:, 2] /
                    ((v[:, 4] - v[:, 3]) ** 2 + (v[:, 6] - v[:, 5]) ** 2 + (v[:, 8] - v[:, 7]) ** 2))

_register("I.16.6", ("u", "v", "c"), (_POS, _POS, _POS),
          "(u + v) / (1 + u v / c^2)",
          lambda v: (v[:, 0] + v[:, 1]) / (1.0 + v[:, 0] * v[:, 1] / v[:, 2] ** 2))

_register("I.18.4", ("m1", "r1", "m2", "r2"), (_POS, _POS, _POS, _POS),
          "(m1 r1 + m2 r2) / (m1 + m2)",
          lambda v: (v[:, 0] * v[:, 1] + v[:, 2] * v[:, 3]) / (v[:, 0] + v[:, 2]))

# arcsin leaves its domain for |n sin(theta2)| > 1; those draws are rejected
_register("I.26.2", ("n", "theta2"), (_POS, _ANGLE),
          "arcsin(n sin(theta2))",
          lambda v: np.arcsin(v[:, 0] * np.sin(v[:, 1])))

_register("I.29.16", ("x1", "x2", "theta1", "theta2"), (_POS, _POS, _ANGLE, _ANGLE),
          "sqrt(x1^2 + x2^2 - 2 x1 x2 cos(theta1 - theta2))",
          lambda v: np.sqrt(v[:, 0] ** 2 + v[:, 1] ** 2 -
                            2.0 * v[:, 0] * v[:, 1] * np.cos(v[:, 2] - v[:, 3])))

# n and alpha kept below 1 so the denominator 1 - n alpha / 3 stays positive
_register("II.11.27", ("n", "alpha", "eps", "Ef"), (_UNIT, _UNIT, _POS, _POS),
          "n alpha / (1 - n alpha / 3) * eps Ef",
          lambda v: v[:, 0] * v[:, 1] / (1.0 - v[:, 0] * v[:, 1] / 3.0) * v[:, 2] * v[:, 3])

_register("III.10.19", ("mu", "Bx", "By", "Bz"), (_POS, _POS, _POS, _POS),
          "mu sqrt(Bx^2 + By^2 + Bz^2)",
          lambda v: v[:, 0] * np.sqrt(v[:, 1] ** 2 + v[:, 2] ** 2 + v[:, 3] ** 2))

_register("III.17.37", ("beta", "alpha", "theta"), (_POS, _POS, _ANGLE),
          "beta (1 + alpha cos(theta))",
          lambda v: v[:, 0] * (1.0 + v[:, 1] * np.cos(v[:, 2])))


def generate_feynman(id: str, n: int, seed: int) -> DatasetSplit:
    """Sample one benchmark equation; rejected draws are resampled."""
    if id not in FEYNMAN_EQUATIONS:
        raise UnsupportedEquation(
            f"unknown equation {id!r}; supported: {sorted(FEYNMAN_EQUATIONS)}")
    if n < 10:
        raise ValueError(f"need n >= 10, got {n}")
    spec = FEYNMAN_EQUATIONS[id]
    rng = np.random.default_rng([seed, zlib.crc32(id.encode())])
    lo = np.array([r[0] for r in spec.ranges])
    hi = np.array([r[1] for r in spec.ranges])
    xs, ys = [], []
    drawn = accepted = 0
    while accepted < n:
        want = n - accepted
        with np.errstate(all="ignore"):
            V = rng.uniform(lo, hi, size=(max(want, 64), spec.arity))
            labels = spec.evaluate(V)
        ok = np.isfinite(labels)
        drawn += V.shape[0]
        accepted += int(ok.sum())
        xs.append(V[ok])
        ys.append(labels[ok])
        if drawn >= 10 * n and accepted < 0.1 * drawn:
            raise RejectionOverflow(
                f"{id}: {drawn - accepted}/{drawn} draws rejected (> 90%)")
    X = np.concatenate(xs)[:n]
    y = np.concatenate(ys)[:n]
    tr, te = _train_test_split(n)
    manifest = {"id": id, "arity": spec.arity,
                "ranges": [list(r) for r in spec.ranges],
                "formula": spec.formula, "seed": seed, "n": n,
                "split_sizes": [int(tr.size), int(te.size)],
                "exponent_convention": "negative (Gaussian) exponent in I.6.2 forms"}
    return DatasetSplit(X, y, tr, te, task="regression", manifest=manifest)


def generate_runge(n: int, seed: int) -> DatasetSplit:
    """x uniform on [-1, 1], label 1 / (1 + 25 x^2)."""
    if n < 10:
        raise ValueError(f"need n >= 10, got {n}")
    rng = np.random.default_rng([seed, 1931])
    X = rng.uniform(-1.0, 1.0, size=(n, 1))
    y = 1.0 / (1.0 + 25.0 * X[:, 0] ** 2)
    tr, te = _train_test_split(n)
    manifest = {"id": "runge", "arity": 1, "ranges": [[-1.0, 1.0]],
                "formula": "1 / (1 + 25 x^2)", "seed": seed, "n": n,
                "split_sizes": [int(tr.size), int(te.size)]}
    return DatasetSplit(X, y, tr, te, task="regression", manifest=manifest)


# the distance between every pair of class means
SEPARATION = 6.0


def generate_classification(n: int, classes: int, d: int, seed: int) -> DatasetSplit:
    """Unit-variance Gaussian blobs centered on a scaled simplex.

    Class means are centered one-hot vertices rescaled so every pair of
    means sits ``SEPARATION`` apart; class sizes are balanced within 1.
    """
    if classes < 2:
        raise ValueError(f"need classes >= 2, got {classes}")
    if d < classes:
        raise ValueError(f"need d >= classes to place the simplex, got d={d}")
    if n < classes:
        raise ValueError(f"need n >= classes, got {n}")
    rng = np.random.default_rng([seed, 777])
    eye = np.eye(classes, d)
    means = (eye - eye.mean(axis=0)) * (SEPARATION / np.sqrt(2.0))
    per = [n // classes + (1 if k < n % classes else 0) for k in range(classes)]
    X = np.concatenate([means[k] + rng.normal(size=(per[k], d)) for k in range(classes)])
    y = np.concatenate([np.full(per[k], k) for k in range(classes)]).astype(float)
    order = rng.permutation(n)
    X, y = X[order], y[order]
    tr, te = _train_test_split(n)
    manifest = {"id": f"blobs-{classes}c", "arity": d, "seed": seed, "n": n,
                "separation": SEPARATION,
                "split_sizes": [int(tr.size), int(te.size)]}
    return DatasetSplit(X, y, tr, te, task="classification", manifest=manifest)


def save_dataset_csv(data: DatasetSplit, csv_path: str, manifest_path: str | None = None):
    """Cache a generated dataset: feature/label CSV plus its manifest."""
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        cols = [f"x{i}" for i in range(data.n_features)] + ["label", "split"]
        w.writerow(cols)
        in_train = np.zeros(data.X.shape[0], dtype=bool)
        in_train[data.train_idx] = True
        for r in range(data.X.shape[0]):
            w.writerow([repr(float(v)) for v in data.X[r]]
                       + [repr(float(data.y[r])), "train" if in_train[r] else "test"])
    if manifest_path:
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(data.manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
