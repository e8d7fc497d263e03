"""Optimizer, regularized objective, deterministic training loops.

The loss is the task objective plus lambda times the summed
coefficient-smoothness penalty over every spline group in the network.
The task loss and its gradient come from recording the whole mini-batch
on one tape: the parameters, the input, one vector-Jacobian record per
layer, and one for the loss (MSE, or cross-entropy shifted by each row's
maximum).  The penalty is not on the tape: it is quadratic in the
coefficients, so its value and gradient have a closed form over each
layer's coefficient array (``smoothness_penalty``).  Evaluation metrics
use the vectorized forward path.  A non-finite loss or gradient halts the
run and records the step index and the error that stopped it, which
names the layer or the loss -- divergence is a measured outcome here,
not an error.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .autodiff import AutodiffError, NonFiniteGradient, NonFiniteValue, Tape
from .layers import SPLINE_KINDS, Network
from .splines import _count, _finite, second_difference_penalty
from .tasks import DatasetSplit


class EmptySplit(Exception):
    pass


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 1
    batch_size: int = 128
    lam: float = 1e-4
    seed: int = 2024
    task: str = "regression"  # "regression" (RMSE metric) or "classification" (accuracy)
    max_steps: int | None = None

    def __post_init__(self):
        checks = [("learning_rate", lambda v: _finite(v) and v > 0, "a finite number > 0"),
                  ("lam", lambda v: _finite(v) and v >= 0, "a finite number >= 0"),
                  ("epochs", _count, "an integer >= 1"), ("batch_size", _count, "an integer >= 1"),
                  ("seed", lambda v: _count(v, 0), "an integer >= 0")]
        if self.max_steps is not None:
            checks.append(("max_steps", _count, "an integer >= 1"))
        for name, ok, need in checks:
            if not ok(getattr(self, name)):
                raise ValueError(f"{name}: need {need}, got {getattr(self, name)!r}")
        if self.task not in ("regression", "classification"):
            raise ValueError(f"unknown task {self.task!r}")


def hash_config(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]


# -- losses ---------------------------------------------------------------------


def _tape_task_loss(tape: Tape, net: Network, X, y, task: str) -> np.ndarray:
    """Record the network and each sample's task loss over N, as one
    record; returns their ids.  The batch loss is their sum."""
    Z = net.tape_forward(tape, X)
    P = tape.value(Z)
    n, d = P.shape
    if task == "regression":
        R = P - np.reshape(y, (n, -1))
        sample = (R * R).sum(axis=1) * (1.0 / d) * (1.0 / n)
        scale = 2.0 / (d * n)
        return tape.record("loss (mse)", sample, [Z],
                           lambda g: [(scale * g)[:, None] * R])
    # cross-entropy, shifted by each row's maximum so exp cannot overflow
    rows, labels = np.arange(n), y.astype(int)
    top = P.max(axis=1)
    E = np.exp(P - top[:, None])
    sumexp = E.sum(axis=1)
    sample = (np.log(sumexp) + top - P[rows, labels]) * (1.0 / n)

    def vjp(g):
        G = E / sumexp[:, None]
        G[rows, labels] -= 1.0
        return [G * (g / n)[:, None]]

    return tape.record("loss (cross-entropy)", sample, [Z], vjp)


def smoothness_penalty(net: Network, lam: float = 1.0):
    """The smoothness penalty summed over every spline group, and lam
    times its gradient laid out like ``net.get_flat()``; with lam = 0 no
    gradient is computed, and None stands for it."""
    total, off = 0.0, 0
    grad = np.zeros(net.n_params()) if lam else None
    for m, name, arr in net.param_arrays():
        if m.kind in SPLINE_KINDS and name == "coefficients":
            p, g = second_difference_penalty(arr, m.kv.dg, grad is not None)
            total += p
            if grad is not None:
                grad[off:off + arr.size] = lam * g.ravel()
        off += arr.size
    return total, grad


def regularized_loss(net: Network, X: np.ndarray, y: np.ndarray, lam: float,
                     task: str = "regression"):
    """Loss value, flat gradient, and the (task, penalty) decomposition.

    total = task loss + lam * penalty, and the gradient is the task loss's
    tape gradient plus lam times the penalty's closed-form gradient; with
    lam = 0 the total equals the task loss exactly.
    """
    if X.shape[0] == 0:
        raise EmptySplit("empty batch")
    tape = Tape()
    # the tape checks every value and gradient
    with np.errstate(over="ignore", invalid="ignore"):
        penalty, penalty_grad = smoothness_penalty(net, lam)
        samples = _tape_task_loss(tape, net, X, y, task)
        task_loss = float(np.sum(tape.value(samples)))
        # at lam = 0 an infinite penalty must not turn the loss into 0 * inf
        loss = task_loss + lam * penalty if lam else task_loss
        if not np.isfinite(loss):
            raise NonFiniteValue(f"loss is {loss!r}")
        grads = tape.gradient_vector(samples, net.n_params())
        if penalty_grad is not None:
            grads += penalty_grad
            if not np.all(np.isfinite(grads)):
                raise NonFiniteGradient("penalty gradient is not finite")
    return loss, grads, {"task_loss": task_loss, "penalty": penalty}


def evaluate(net: Network, data: DatasetSplit) -> float:
    """RMSE (regression) or accuracy (classification) on the test split."""
    X, y = data.split("test")
    if X.shape[0] == 0:
        raise EmptySplit("test split is empty")
    preds = net.forward_batch(X)
    if data.task == "regression":
        err = preds[:, 0] - y if preds.shape[1] == 1 else preds - np.atleast_2d(y)
        return float(np.sqrt(np.mean(err ** 2)))
    return float(np.mean(np.argmax(preds, axis=1) == y.astype(int)))


# -- optimizer --------------------------------------------------------------------

# Adam's moment decay rates and denominator guard, fixed at the usual values
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def adam_step(params, grads, state: AdamState, lr: float):
    """Bias-corrected adaptive update; returns (new params, state)."""
    if state.m.shape != params.shape or state.v.shape != params.shape:
        raise ValueError("optimizer state does not match parameter shape")
    t = state.t + 1
    m = BETA1 * state.m + (1.0 - BETA1) * grads
    v = BETA2 * state.v + (1.0 - BETA2) * grads * grads
    m_hat = m / (1.0 - BETA1 ** t)
    v_hat = v / (1.0 - BETA2 ** t)
    new = params - lr * m_hat / (np.sqrt(v_hat) + EPS)
    return new, AdamState(m, v, t)


# -- run records -------------------------------------------------------------------


@dataclass
class RunRecord:
    config_hash: str
    steps: list = field(default_factory=list)   # dicts: step, loss, penalty, metric
    epoch_metrics: list = field(default_factory=list)
    nan_step: int | None = None
    nan_cause: str | None = None    # "<error class>: <message>" of the halting step
    wall_time: float = 0.0
    final_metric: float | None = None
    metric_name: str = "rmse"

    def write_csv(self, path: str):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "loss", "metric", "penalty", "nan_flag"])
            for row in self.steps:
                w.writerow([row["step"], repr(row["loss"]),
                            "" if row["metric"] is None else repr(row["metric"]),
                            repr(row["penalty"]),
                            1 if self.nan_step == row["step"] else 0])
            if self.nan_step is not None and all(
                    r["step"] != self.nan_step for r in self.steps):
                w.writerow([self.nan_step, "", "", "", 1])

    def summary(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "metric_name": self.metric_name,
            "final_metric": self.final_metric,
            "epoch_metrics": self.epoch_metrics,
            "nan_step": self.nan_step,
            "nan_cause": self.nan_cause,
            "completed_steps": len(self.steps),
            "wall_time_s": self.wall_time,
        }


def train(net: Network, data: DatasetSplit, config: TrainConfig,
          extra_hash: dict | None = None):
    """Seeded mini-batch training; returns (RunRecord, net).

    Shuffling draws from a stream dedicated to the run seed, effective
    knots are re-sorted by construction on every forward pass, and the
    sorted-knot invariant is asserted after each update.  A non-finite
    loss halts the run with nan_step and nan_cause set.  ``config.task``
    must be ``data.task``, else ValueError names ``task``.
    """
    t0 = time.perf_counter()
    # the loss follows the config and the reported metric the data
    if config.task != data.task:
        raise ValueError(f"task: the config trains {config.task!r}, but the data "
                         f"are {data.task!r}")
    Xtr, ytr = data.split("train")
    if Xtr.shape[0] == 0:
        raise EmptySplit("training split is empty")
    rng = np.random.default_rng([config.seed, 29])
    flat = net.get_flat()
    state = AdamState.zeros(flat.size)
    hash_payload = {"config": asdict(config), "data": data.manifest}
    if extra_hash:
        hash_payload.update(extra_hash)
    record = RunRecord(
        config_hash=hash_config(hash_payload),
        metric_name="rmse" if config.task == "regression" else "accuracy",
    )

    step = 0
    latest_metric = None
    done = False
    for epoch in range(config.epochs):
        perm = rng.permutation(Xtr.shape[0])
        for lo in range(0, Xtr.shape[0], config.batch_size):
            idx = perm[lo:lo + config.batch_size]
            try:
                loss, grads, parts = regularized_loss(
                    net, Xtr[idx], ytr[idx], config.lam, config.task)
            except AutodiffError as exc:
                record.nan_step = step
                record.nan_cause = f"{type(exc).__name__}: {exc}"
                done = True
                break
            flat, state = adam_step(flat, grads, state, config.learning_rate)
            if not np.all(np.isfinite(flat)):
                record.nan_step = step
                record.nan_cause = "NonFiniteValue: the Adam step left a parameter not finite"
                done = True
                break
            net.set_flat(flat)
            net.assert_knots_sorted()
            record.steps.append({"step": step, "loss": loss,
                                 "penalty": parts["penalty"],
                                 "metric": latest_metric})
            step += 1
            if config.max_steps is not None and step >= config.max_steps:
                done = True
                break
        if done:
            break
        latest_metric = evaluate(net, data)
        record.epoch_metrics.append({"epoch": epoch, "metric": latest_metric})

    if record.nan_step is None:
        record.final_metric = evaluate(net, data)
    record.wall_time = time.perf_counter() - t0
    return record, net


def penalty_total(net: Network) -> float:
    """Current smoothness penalty summed over every spline group."""
    return smoothness_penalty(net, 0.0)[0]


def grid_range_experiment(ranges, depth: int, steps: int, seed: int,
                          classes: int = 10, input_dim: int = 10,
                          width: int = 8, G: int = 20, K: int = 3,
                          n_samples: int = 2000, batch_size: int = 32,
                          learning_rate: float = 1e-3, lam: float = 0.0):
    """Train one architecture per grid range; divergence is the measurement.

    Identical seeds give identical initial parameters across ranges; only
    the knot scale differs.  The SiLU shortcut is disabled so stability is
    attributable to the spline path alone.
    """
    from .layers import GridConfig, init_network
    from .tasks import generate_classification

    if depth < 3:
        raise ValueError(f"need depth >= 3 to exercise instability, got {depth}")
    data = generate_classification(n_samples, classes, input_dim, seed)
    hidden = " -> ".join([f"frkan:{width}"] * (depth - 1))
    descriptor = f"in:{input_dim} -> {hidden} -> frkan:{classes}"
    results = []
    for a, b in ranges:
        grid = GridConfig(G=G, K=K, a=a, b=b)
        net = init_network(descriptor, grid, seed=seed, silu=False, layernorm="auto")
        epochs = max(1, -(-steps * batch_size // data.train_idx.size))
        config = TrainConfig(learning_rate=learning_rate, epochs=epochs,
                             batch_size=batch_size, lam=lam, seed=seed,
                             task="classification", max_steps=steps)
        record, net = train(net, data, config,
                            extra_hash={"grid_range": [a, b], "descriptor": descriptor})
        results.append({"range": [a, b], "record": record, "net": net})
    return results
