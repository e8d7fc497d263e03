"""The three benchmark workloads and their correctness gates.

approx-i62
    The criterion-6 recipe on Feynman I.6.2 (n=3000, G=20, K=3 on
    [-10, 10], batch 64, Adam lr 1e-2, lambda=0, no LayerNorm).  Each
    round trains the budget-matched models frkan:8 (h=2), kan:3 and
    mlp:48 for the same fixed three epochs (114 steps) each, with per-epoch
    test evaluation, then writes, reloads and exports each model.  This is
    the paper's headline experiment: about 95% of its time records and
    back-propagates the autodiff tape through the layers' tape_forward,
    and every spline input falls inside the knot span.  The dense
    basis_matrix only runs during evaluation.  Items 2(b) and 2(c) of the
    roadmap must show their gain here; 2(a) and 4 should not move it
    beyond the evaluation share.

stability-deep
    The criterion-8 shape: a 4-spline-layer FR-KAN classifier with auto
    LayerNorm and no SiLU shortcut, 10 classes x 10 dims, n=2000, batch
    32, lr 1e-3, G=20, K=3, trained for the same fixed 50 steps on grid
    range [-1, 1] and on [-10, 10].  The stack is deep, runs LayerNorm
    and the knot sort/shift path through four layers and uses the
    cross-entropy loss.  Inputs outside the knot span skip the basis
    window, so the two ranges record different tape sizes and run at
    different speeds; a batched kernel that evaluates every span costs
    the same on both, so its gain on one range and its cost on the other
    both show here.  Divergence detection (nan_step) runs on every step.

audit-200k
    The ``knots --checkpoint`` flow at the default 200k-sample lattice on
    five order-1 networks: a kan:64 single layer (criterion-3 shape), the
    sawtooth (criterion 4), a free-knot K=1 layer (criterion 5), a
    two-layer free-knot K=1 stack and a ReLU MLP.  Each network is saved,
    loaded, audited with audit_network_knots, its report written, and its
    activations exported with spline_eval.  No tape is recorded: time
    splits between basis_matrix, forward_batch and scan_breakpoints.
    Items 2(a) and 4 must show their gain here; 2(b) and 2(c) are
    predicted to leave it unchanged.

Every workload runs in one process with no worker threads and takes its
seed from the command line; the same seed gives the same inputs.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

# Library calls go through the module attributes, so a traced run sees
# every call where its wrappers are installed.
from frkan import knots, layers, splines, tasks, training

from .trace import step_times

# Central-difference step and tolerance of the gradient gate.  LayerNorm
# behind a narrow grid gives second derivatives near 1e12, so truncation
# error (proportional to step^2) needs a tiny step; rounding error stays
# near eps * |loss| / step, about 1e-7 of the largest gradient entry.
FD_STEP = 1e-8
FD_TOLERANCE = 1e-4          # of the largest gradient entry
EXPORT_SAMPLES = 2000        # rows per exported activation, as the CLI default


class Ops:
    """Attempted and failed operations, and the named checks behind them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.checks = 0

    def count(self, attempted: int, failed: int = 0, what: str = ""):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} failed")

    def check(self, what: str, ok: bool, detail: str = ""):
        self.checks += 1
        self.count(1, 0 if ok else 1, f"{what} {detail}".strip())


@dataclass
class Round:
    samples: float = 0.0     # training samples or lattice samples processed
    work_s: float = 0.0      # wall time of the timed calls
    quality: dict = field(default_factory=dict)


def check_reproduced(ops: Ops, rounds: list, prefix: str, what: str) -> dict:
    """The first round's ``prefix*`` figures, checked equal in every round."""
    first = {k: v for k, v in rounds[0].quality.items() if k.startswith(prefix)}
    ops.check(what, all({k: r.quality[k] for k in first} == first for r in rounds))
    return first


def round_medians(rounds: list, prefix: str) -> dict:
    return {k: float(np.median([r.quality[k] for r in rounds]))
            for k in rounds[0].quality if k.startswith(prefix)}


# -- shared checks ------------------------------------------------------------------


def batch_loss(net: layers.Network, X: np.ndarray, y: np.ndarray, task: str) -> float:
    """The task loss of ``regularized_loss`` (lambda=0) from forward_batch."""
    P = net.forward_batch(X)
    if task == "regression":
        r = P - y.reshape(len(y), -1)
        return float(np.mean(np.mean(r * r, axis=1)))
    z = P - P.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-np.mean(logp[np.arange(len(y)), y.astype(int)]))


def sample_coordinates(net: layers.Network, per_array: int | None, rng) -> np.ndarray:
    """Flat parameter indices: all of them, or up to ``per_array`` drawn
    from every parameter array so each parameter class is checked."""
    picks, off = [], 0
    for _, _, arr in net.param_arrays():
        idx = np.arange(off, off + arr.size)
        if per_array is not None and arr.size > per_array:
            idx = np.sort(rng.choice(idx, per_array, replace=False))
        picks.append(idx)
        off += arr.size
    return np.concatenate(picks)


def check_gradient(ops: Ops, label: str, net: layers.Network, X, y, task: str, coords):
    """Tape gradient at the current parameters against central differences
    of the forward_batch loss; the network is left unchanged."""
    loss, grad, _ = training.regularized_loss(net, X, y, 0.0, task)
    p0 = net.get_flat()
    fd = np.empty(len(coords))
    try:
        for k, i in enumerate(coords):
            p = p0.copy()
            p[i] = p0[i] + FD_STEP
            net.set_flat(p)
            up = batch_loss(net, X, y, task)
            p[i] = p0[i] - FD_STEP
            net.set_flat(p)
            down = batch_loss(net, X, y, task)
            fd[k] = (up - down) / (2.0 * FD_STEP)
    finally:
        net.set_flat(p0)
    scale = max(float(np.max(np.abs(grad))), 1e-300)
    err = float(np.max(np.abs(grad[coords] - fd))) / scale
    ops.check(f"{label} gradient vs central differences", err <= FD_TOLERANCE,
              f"(max err {err:.2e} of |g|max over {len(coords)} coords)")
    same = abs(loss - batch_loss(net, X, y, task)) <= 1e-12 * max(1.0, abs(loss))
    ops.check(f"{label} tape loss equals batch loss", same)


def export_activations(net: layers.Network) -> list:
    """Every spline group's curve over the extended knot span, as the
    export-activation command samples it."""
    curves = []
    for sg in net.spline_groups():
        kv = sg.knots
        xs = np.linspace(kv.a - kv.K * kv.dg, kv.b + kv.K * kv.dg, EXPORT_SAMPLES)
        curves.append(splines.spline_eval(xs, sg))
    return curves


def check_round_trip(ops: Ops, label: str, net: layers.Network, back: layers.Network,
                     X: np.ndarray):
    """A reloaded network must match the saved one bit for bit: parameters,
    outputs on X and exported activations."""
    same_flat = np.array_equal(back.get_flat(), net.get_flat())
    same_out = np.array_equal(back.forward_batch(X), net.forward_batch(X))
    same_curves = all(np.array_equal(u, v) for u, v in
                      zip(export_activations(back), export_activations(net)))
    ops.check(f"{label} checkpoint round trip",
              same_flat and same_out and same_curves,
              f"(params {same_flat}, outputs {same_out}, exports {same_curves})")


def save_and_reload(ops: Ops, label: str, net: layers.Network, path: str, X: np.ndarray):
    layers.save_checkpoint(net, path)
    check_round_trip(ops, label, net, layers.load_checkpoint(path), X)


def trained_samples(record, n_train: int, batch: int) -> int:
    """Training rows the completed steps consumed."""
    per_epoch = -(-n_train // batch)
    rows = 0
    for s in range(len(record.steps)):
        k = s % per_epoch
        rows += min(batch, n_train - k * batch)
    return rows


class Workload:
    """One workload.  The runner calls ``setup`` several times, then
    ``check_gradients`` once, then ``round`` until the run's time is up, and
    ``final_checks`` on the rounds.  ``expected_spans`` names the functions
    a traced run must see called, and ``labels`` the models a round trains,
    in order."""

    name = ""
    op_label = ""
    labels = ()
    expected_spans = frozenset()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def check_gradients(self, ops: Ops):
        """Gradient gate; a workload that trains nothing has none."""

    def op_samples(self, tracer, rounds: list) -> dict:
        """Latency samples in seconds of each part of one operation that
        covers the round's whole mix; the operation's time is the sum of
        the parts' medians."""
        raise NotImplementedError


class TrainingWorkload(Workload):
    """Trains each of ``models()`` for a fixed number of epochs per round,
    then saves, reloads and exports it."""

    op_label = "step (regularized_loss) of each model"
    TASK = "regression"
    FD_PER_ARRAY = None      # gradient-check every coordinate
    expected_spans = frozenset({
        "autodiff.Tape.gradient_vector", "training.train", "training.regularized_loss",
        "training.adam_step", "training.evaluate", "layers.Network.tape_forward",
        "layers.Network.set_flat", "layers.Network.assert_knots_sorted",
        "layers.FRKANLayer.tape_forward", "layers.FRKANLayer.forward_batch",
        "layers.save_checkpoint", "layers.load_checkpoint",
        "splines.basis_window_on_tape", "splines.basis_matrix", "splines.spline_eval",
    })

    def setup(self):
        """Data, the networks and one warm-up step each (an Adam update that
        is computed but not applied)."""
        self.data = self.generate()
        self.nets = self.models()
        X, y = self.data.split("train")
        for net in self.nets.values():
            _, grad, _ = training.regularized_loss(net, X[:self.BATCH], y[:self.BATCH],
                                                   0.0, self.TASK)
            training.adam_step(net.get_flat(), grad, training.AdamState.zeros(grad.size),
                               self.LR)

    def op_samples(self, tracer, rounds: list) -> dict:
        """Every training step of each model, from the step clock."""
        return step_times(tracer, self.labels)

    def check_gradients(self, ops: Ops):
        """Gradient gate at the initial parameters on the first batch."""
        X, y = self.data.split("train")
        rng = np.random.default_rng([self.seed, 8])
        for name, net in self.nets.items():
            check_gradient(ops, name, net, X[:self.BATCH], y[:self.BATCH], self.TASK,
                           sample_coordinates(net, self.FD_PER_ARRAY, rng))

    def round(self, ops: Ops) -> Round:
        out = Round()
        Xte, _ = self.data.split("test")
        n_train = self.data.train_idx.size
        config = training.TrainConfig(learning_rate=self.LR, epochs=self.EPOCHS,
                                      batch_size=self.BATCH, lam=0.0, seed=self.seed,
                                      task=self.TASK)
        planned = config.epochs * -(-n_train // config.batch_size)
        for name, net in self.models().items():
            t = time.perf_counter()
            record, net = training.train(net, self.data, config)
            elapsed = time.perf_counter() - t
            ops.count(planned, planned - len(record.steps),
                      f"{name} training steps (nan_step={record.nan_step})")
            rows = trained_samples(record, n_train, self.BATCH)
            out.samples += rows
            out.work_s += elapsed
            out.quality[f"{self.QUALITY}_{name}"] = record.final_metric
            out.quality[f"train_samples_per_s_{name}"] = rows / elapsed
            save_and_reload(ops, name, net, os.path.join(self.workdir, f"{name}.json"), Xte)
        return out

    def final_checks(self, ops: Ops, rounds: list) -> dict:
        first = check_reproduced(ops, rounds, self.QUALITY,
                                 "training rounds reproduce bit-identically")
        speeds = round_medians(rounds, "train_samples_per_s_")
        return {**{k: (v, self.QUALITY_UNIT) for k, v in first.items()},
                **{k: (v, "1/s") for k, v in speeds.items()}}


# -- approx-i62 --------------------------------------------------------------------


class ApproxI62(TrainingWorkload):
    name = "approx-i62"
    MODELS = (("frkan", "in:2 -> frkan:8 -> out:1", 2),
              ("kan", "in:2 -> kan:3 -> out:1", None),
              ("mlp", "in:2 -> mlp:48 -> out:1", None))
    labels = tuple(name for name, _, _ in MODELS)
    N = 3000
    EPOCHS = 3               # 114 steps; two leave the MLP too close to std(y_test)
    BATCH = 64
    LR = 1e-2
    QUALITY, QUALITY_UNIT = "test_rmse", "rmse"
    expected_spans = TrainingWorkload.expected_spans | {
        "layers.KANLayer.tape_forward", "layers.MLPLayer.tape_forward",
        "layers.KANLayer.forward_batch", "layers.MLPLayer.forward_batch",
        "tasks.generate_feynman",
    }

    def generate(self):
        return tasks.generate_feynman("I.6.2", self.N, seed=self.seed)

    def models(self) -> dict:
        return {name: layers.init_network(
                    desc, layers.GridConfig(G=20, K=3, a=-10.0, b=10.0, h=h),
                    seed=self.seed, layernorm="off")
                for name, desc, h in self.MODELS}

    def final_checks(self, ops: Ops, rounds: list) -> dict:
        out = super().final_checks(ops, rounds)
        std = float(np.std(self.data.split("test")[1]))
        for name, _, _ in self.MODELS:
            rmse = rounds[0].quality[f"test_rmse_{name}"]
            ops.check(f"{name} test RMSE below std(y_test)",
                      rmse is not None and rmse < std, f"({rmse!r} vs {std!r})")
        out["std_y_test"] = (std, "rmse")
        return out


# -- stability-deep ----------------------------------------------------------------


class StabilityDeep(TrainingWorkload):
    name = "stability-deep"
    DESCRIPTOR = "in:10 -> frkan:8 -> frkan:8 -> frkan:8 -> frkan:10"
    RANGES = (("narrow", -1.0, 1.0), ("wide", -10.0, 10.0))
    labels = tuple(name for name, _, _ in RANGES)
    N = 2000
    EPOCHS = 1               # 50 steps
    BATCH = 32
    LR = 1e-3
    TASK = "classification"
    QUALITY, QUALITY_UNIT = "accuracy", "frac"
    FD_PER_ARRAY = 16
    expected_spans = TrainingWorkload.expected_spans | {
        "layers.LayerNorm.tape_forward", "layers.LayerNorm.forward_batch",
        "tasks.generate_classification",
    }

    def generate(self):
        return tasks.generate_classification(self.N, 10, 10, self.seed)

    def models(self) -> dict:
        return {name: layers.init_network(
                    self.DESCRIPTOR, layers.GridConfig(G=20, K=3, a=a, b=b),
                    seed=self.seed, silu=False, layernorm="auto")
                for name, a, b in self.RANGES}


# -- audit-200k --------------------------------------------------------------------


class Audit200k(Workload):
    name = "audit-200k"
    op_label = "pass (load + audit + report write) over all five networks"
    SAMPLES = 200_000
    expected_spans = frozenset({
        "knots.audit_network_knots", "knots.scan_breakpoints",
        "layers.Network.forward_batch", "layers.KANLayer.forward_batch",
        "layers.FRKANLayer.forward_batch", "layers.MLPLayer.forward_batch",
        "layers.save_checkpoint", "layers.load_checkpoint",
        "splines.basis_matrix", "splines.spline_eval",
    })

    def _build(self) -> dict:
        rng = np.random.default_rng([self.seed, 4])

        def draw_seed():
            return int(rng.integers(1 << 30))

        kv20 = splines.make_uniform_grid(-1.0, 1.0, 20, 1)
        kan64 = layers.KANLayer(1, 64, kv20, rng.normal(size=(1, 64, kv20.n_bases)),
                                rng.normal(size=(1, 64)), rng.normal(size=(1, 64)))
        saw = knots.build_sawtooth_network(5, K=1, layer2_seed=draw_seed())
        kv10 = splines.make_uniform_grid(-1.0, 1.0, 10, 1)
        shifts = np.stack([splines.init_shift(kv10, 8.0, seed=draw_seed()) for _ in range(2)])
        free = layers.FRKANLayer(2, 1, 2, -1.0, 1.0, 10, 1, rng.normal(size=(2, 11)),
                                 shifts, rng.normal(size=(2, 1)))
        stack = layers.init_network("in:2 -> frkan:8 -> frkan:1",
                                    layers.GridConfig(G=10, K=1, a=-1.0, b=1.0, h=2),
                                    seed=draw_seed(), layernorm="off")
        mlp = [layers.MLPLayer(rng.normal(size=(2, 16)), rng.normal(size=16)),
               layers.MLPLayer(rng.normal(size=(16, 16)) / 4.0, rng.normal(size=16)),
               layers.MLPLayer(rng.normal(size=(16, 1)) / 4.0, np.zeros(1),
                               activation="identity")]
        return {"kan64": layers.Network([kan64]), "sawtooth": saw,
                "freeknot": layers.Network([free]), "freeknot2": stack,
                "relu_mlp": layers.Network(mlp)}

    def setup(self):
        """Build the five networks and run each forward once."""
        self.nets = self._build()
        probe = np.linspace(-1.0, 1.0, 1000)[:, None]
        for net in self.nets.values():
            net.forward_batch(probe * np.ones(net.d_in))

    def _check_audit(self, ops: Ops, name: str, net, audit):
        n = audit.measured_interior
        if name == "kan64":
            self._check_grid_knots(ops, net.modules[0], audit)
        elif name == "sawtooth":
            upper = knots.fixed_grid_knot_bounds(5, 1, 2).upper
            ops.check("sawtooth exceeds G-1 and stays within the bound",
                      n > 4 and audit.measured_with_boundary <= upper, f"({n} vs {upper})")
        elif name == "freeknot":
            with_boundary = audit.measured_with_boundary
            ok = (n > 9 and with_boundary <= 2 * 11
                  and with_boundary <= knots.free_knot_bounds(10, 1, 1, 2).upper)
            ops.check("free-knot layer exceeds G-1, at most h(G+K)", ok, f"({n})")
        else:
            ops.check(f"{name} knot count within its bounds", audit.passed, f"({n})")

    @staticmethod
    def _check_grid_knots(ops: Ops, layer, audit):
        """Criterion 3: a single K=1 layer's knots sit at its interior grid
        points.  The oracle is exact: the summed output's slope jumps at grid
        point k by sum_o A_b[o] (c[o,k+1] - 2 c[o,k] + c[o,k-1]) / dg.  Every
        point whose jump clears twice the detector's threshold must be found,
        and none below half of it may be."""
        c = layer.coefficients[0]
        jumps = layer.A_b[0] @ (c[:, 2:] - 2.0 * c[:, 1:-1] + c[:, :-2]) / layer.kv.dg
        grid = layer.kv.base_points()[1:-1]
        thr = audit.report.slope_threshold
        pos = audit.report.positions
        nearest = np.abs(pos[:, None] - grid[None, :]).argmin(axis=1)
        found = np.zeros(grid.size, dtype=bool)
        found[nearest] = True
        ok = (audit.measured_interior == pos.size == np.unique(nearest).size
              and bool(np.all(np.abs(pos - grid[nearest]) <= 1e-6))
              and bool(np.all(found[np.abs(jumps) >= 2.0 * thr]))
              and not np.any(found & (np.abs(jumps) <= 0.5 * thr)))
        ops.check("kan64 knots are its grid points with visible slope jumps", ok,
                  f"({audit.measured_interior} found, G-1 = {grid.size})")

    def round(self, ops: Ops) -> Round:
        out = Round()
        for name, net in self.nets.items():
            ckpt = os.path.join(self.workdir, f"{name}.json")
            report = os.path.join(self.workdir, f"{name}.knot_report.json")
            layers.save_checkpoint(net, ckpt)
            t = time.perf_counter()
            back = layers.load_checkpoint(ckpt)
            audit = knots.audit_network_knots(back, samples=self.SAMPLES, lo=-1.0, hi=1.0)
            with open(report, "w", encoding="utf-8") as fh:
                json.dump(audit.to_dict(), fh)
            op = time.perf_counter() - t
            ops.count(1, 0, f"{name} audit")
            out.work_s += op
            out.samples += self.SAMPLES
            out.quality[f"interior_{name}"] = audit.measured_interior
            out.quality[f"audit_ms_{name}"] = op * 1e3
            self._check_audit(ops, name, net, audit)
            lattice = np.linspace(-1.0, 1.0, 1000)[:, None] * np.ones(net.d_in)
            check_round_trip(ops, name, net, back, lattice)
        return out

    def op_samples(self, tracer, rounds: list) -> dict:
        """Each network's load + audit + report time, one sample a round."""
        return {k[len("audit_ms_"):]: [r.quality[k] / 1e3 for r in rounds]
                for k in rounds[0].quality if k.startswith("audit_ms_")}

    def final_checks(self, ops: Ops, rounds: list) -> dict:
        counts = check_reproduced(ops, rounds, "interior_",
                                  "audits reproduce identical counts across rounds")
        return {**{k: (v, "count") for k, v in counts.items()},
                **{k: (v, "ms") for k, v in round_medians(rounds, "audit_ms_").items()}}


WORKLOADS = {w.name: w for w in (ApproxI62, StabilityDeep, Audit200k)}
