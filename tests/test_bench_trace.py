"""The benchmark's traced annotators against the library as it is now.

Only a traced bench run (``bench/run.py --trace 1``) runs the annotators
that read each spline layer's grid and the tape's inputs, so a library
change that breaks them shows here in seconds, not in a minute-long run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from frkan import training
from frkan.layers import FRKANLayer, KANLayer, Network
from frkan.splines import make_uniform_grid

TRACE_PY = Path(__file__).resolve().parents[1] / "bench" / "benchlib" / "trace.py"


def _load_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_annotators_count_spline_inputs():
    trace = _load_trace()
    rng = np.random.default_rng(3)
    kv = make_uniform_grid(-2.0, 2.0, 5, 2)
    fr = FRKANLayer(3, 2, 2, -2.0, 2.0, 5, 2, rng.normal(size=(2, kv.n_bases)),
                    rng.uniform(-0.1, 0.1, size=(2, 6)), rng.normal(size=(3, 2)))
    kan = KANLayer(2, 1, kv, rng.normal(size=(2, 1, kv.n_bases)), rng.normal(size=(2, 1)),
                   rng.normal(size=(2, 1)))
    X = rng.uniform(-3.0, 3.0, size=(4, 3))
    originals = (FRKANLayer.forward_batch, KANLayer.forward_batch, training.regularized_loss)
    tracer = trace.Tracer()
    patches = trace.Patches()
    patches.install(tracer)
    try:
        fr.forward_batch(X)
        kan.forward_batch(X[:, :2])
        training.regularized_loss(Network([fr, kan]), X[:2], np.zeros(2), 1e-3)
    finally:
        patches.remove()
    assert (FRKANLayer.forward_batch, KANLayer.forward_batch,
            training.regularized_loss) == originals
    # the training step runs each spline layer's forward_batch on its 2 rows too
    assert tracer.total("splines.batch_inputs") == X.size + X[:, :2].size + 2 * (3 + 2)
    assert tracer.total("splines.tape_inputs") == 2 * (3 + 2)
    assert 0 < tracer.total("splines.tape_in_span") <= tracer.total("splines.tape_inputs")
    for name in ("layers.FRKANLayer.forward_batch", "layers.KANLayer.forward_batch",
                 "layers.FRKANLayer.tape_forward", "layers.KANLayer.tape_forward",
                 "training.regularized_loss", "autodiff.Tape.gradient_vector"):
        assert tracer.spans_named(name), name
