"""Properties of the bulk tape over random small networks.

Random stacks of KAN, FR-KAN, MLP and LayerNorm layers (G 2-8, K 1-3),
with knot shifts that make the clamp move knots and inputs partly outside
the knot span, on both tasks:

* the ``regularized_loss`` gradient agrees with central differences of
  the ``forward_batch`` loss plus the penalty;
* a training step records the parameters, the input, one record per
  layer and the loss, at every batch size.

The examples are derandomized, so every run checks the same networks.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frkan.autodiff import Tape
from frkan.layers import GridConfig, init_network
from frkan.training import penalty_total, regularized_loss

FD_STEP = 1e-8
FD_TOLERANCE = 1e-4          # of the largest gradient entry
LAM = 1e-3


@st.composite
def _cases(draw):
    """(network, task, rng): a random stack whose FR-KAN points sit within
    a fraction of min_gap of another point, so the clamp moves knots."""
    G, K = draw(st.integers(2, 8)), draw(st.integers(1, 3))
    task = draw(st.sampled_from(["regression", "classification"]))
    kinds = draw(st.lists(st.sampled_from(["kan", "frkan", "mlp", "ln"]),
                          min_size=1, max_size=3))
    if all(k == "ln" for k in kinds):
        kinds.append("frkan")
    widths = draw(st.lists(st.integers(1, 3), min_size=len(kinds), max_size=len(kinds)))
    d_out = draw(st.integers(1, 2)) if task == "regression" else draw(st.integers(2, 3))
    tokens = [k if k == "ln" else f"{k}:{w}" for k, w in zip(kinds, widths)]
    last = next(t for t in reversed(tokens) if t != "ln")
    tokens.append(f"{last.split(':')[0]}:{d_out}")
    descriptor = " -> ".join([f"in:{draw(st.integers(1, 3))}"] + tokens)
    grid = GridConfig(G=G, K=K, a=-1.0, b=1.0, h=draw(st.integers(1, 3)))
    seed = draw(st.integers(0, 2 ** 16))
    net = init_network(descriptor, grid, seed=seed, layernorm="explicit")
    rng = np.random.default_rng(seed)
    for m in net.modules:
        if m.kind == "frkan":
            moves = rng.integers(-2, 3, size=m.shifts.shape) * m.kv.dg
            moves[:, 1:3] = [m.kv.dg, 0.0]   # base point 1 lands on base point 2
            m.shifts[:] = moves + rng.uniform(-0.3, 0.3, size=m.shifts.shape) * m.kv.min_gap
        elif m.kind == "ln":
            m.gamma[:] = rng.uniform(0.5, 1.5, size=m.d_in)
            m.beta[:] = rng.normal(scale=0.3, size=m.d_in)
    return net, task, rng


def _data(net, task, rng, n):
    """Inputs partly outside the first layer's knot span, and targets."""
    X = rng.uniform(-1.8, 1.8, size=(n, net.d_in))
    if task == "regression":
        return X, rng.normal(size=(n, net.d_out))
    return X, rng.integers(0, net.d_out, size=n).astype(float)


def _batch_loss(net, X, y, task):
    P = net.forward_batch(X)
    if task == "regression":
        task_loss = np.mean(np.mean((P - y) ** 2, axis=1))
    else:
        z = P - P.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        task_loss = -np.mean(logp[np.arange(len(y)), y.astype(int)])
    return task_loss + LAM * penalty_total(net)


@settings(max_examples=40)
@given(_cases())
def test_gradient_matches_central_differences(case):
    net, task, rng = case
    X, y = _data(net, task, rng, 6)
    for m in net.spline_layers():
        assert m.kind == "kan" or np.all(np.diff(m.knots()).min(axis=1) < 1.5 * m.kv.min_gap)
    loss, grad, _ = regularized_loss(net, X, y, LAM, task)
    assert abs(loss - _batch_loss(net, X, y, task)) <= 1e-12 * max(1.0, abs(loss))
    p0 = net.get_flat()
    fd = np.empty_like(p0)
    try:
        for i in range(p0.size):
            p = p0.copy()
            p[i] += FD_STEP
            net.set_flat(p)
            up = _batch_loss(net, X, y, task)
            p[i] = p0[i] - FD_STEP
            net.set_flat(p)
            fd[i] = (up - _batch_loss(net, X, y, task)) / (2.0 * FD_STEP)
    finally:
        net.set_flat(p0)
    scale = max(np.max(np.abs(grad)), 1e-300)
    assert np.max(np.abs(grad - fd)) <= FD_TOLERANCE * scale, net.descriptor


@settings(max_examples=25)
@given(_cases())
def test_record_count_does_not_depend_on_batch_size(case):
    net, task, rng = case
    counts = []
    gradient_vector = Tape.gradient_vector

    def spy(tape, root, count):
        counts.append(tape.record_count)
        return gradient_vector(tape, root, count)

    with mock.patch.object(Tape, "gradient_vector", spy):
        for n in (1, 8, 64):
            regularized_loss(net, *_data(net, task, rng, n), LAM, task)
    assert counts == [len(net.modules) + 3] * 3
