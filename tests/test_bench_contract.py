"""The benchmark's traced contract against the library's training path.

A traced bench run (``bench/run.py --trace 1``) fails when a function its
workload names in ``expected_spans`` records no span, or when a wrapper's
annotator cannot read the call it wraps.  This test trains each
approx-i62 model shape, and a LayerNorm classifier, for two steps under
the same wrappers, so a library change that breaks the contract shows
here in seconds.  The benchmark's files are only read.
"""

import sys
from pathlib import Path

from frkan import layers, tasks, training

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
BATCH, STEPS = 8, 2
NOT_IN_TRAIN = {"layers.save_checkpoint", "layers.load_checkpoint", "splines.spline_eval",
                "tasks.generate_feynman"}


def _benchlib():
    """bench/benchlib's trace and workload modules, without writing bytecode."""
    sys.path.insert(0, str(BENCH_DIR))
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        from benchlib import trace, workloads
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(str(BENCH_DIR))
    return trace, workloads


def test_train_records_every_expected_span():
    trace, workloads = _benchlib()
    i62 = workloads.ApproxI62
    nets = [layers.init_network(desc, layers.GridConfig(G=20, K=3, a=-10.0, b=10.0, h=h),
                                seed=1, layernorm="off")
            for _, desc, h in i62.MODELS]
    classifier = layers.init_network("in:4 -> frkan:4 -> frkan:3",
                                     layers.GridConfig(G=5, K=2, a=-1.0, b=1.0),
                                     seed=1, layernorm="auto")
    assert [m.kind for m in classifier.modules] == ["frkan", "ln", "frkan"]
    regression = tasks.generate_feynman("I.6.2", 40, seed=1)
    classes = tasks.generate_classification(40, 3, 4, 1)
    tracer, patches = trace.Tracer(), trace.Patches()
    patches.install(tracer)
    try:
        for net in nets:
            training.train(net, regression, training.TrainConfig(
                batch_size=BATCH, max_steps=STEPS, lam=0.0, learning_rate=1e-2, seed=1))
        training.train(classifier, classes, training.TrainConfig(
            batch_size=BATCH, max_steps=STEPS, task="classification", seed=1))
    finally:
        patches.remove()

    expected = (i62.expected_spans | {"layers.LayerNorm.tape_forward",
                                      "layers.LayerNorm.forward_batch"}) - NOT_IN_TRAIN
    assert sorted(n for n in expected if not tracer.spans_named(n)) == []
    assert len(tracer.spans_named("training.regularized_loss")) == 4 * STEPS
    # every spline layer's tape_forward saw each of its N * d_in inputs once
    inputs = BATCH * STEPS * sum(m.d_in for net in nets + [classifier]
                                 for m in net.spline_layers())
    assert tracer.total("splines.tape_inputs") == inputs
    assert 0 < tracer.total("splines.tape_in_span") <= inputs
    assert all(tracer.n[i] > 0 for i in tracer.spans_named("autodiff.Tape.gradient_vector"))
    # one window per spline layer and step, one tape_forward per layer and step
    modules = [m for net in nets + [classifier] for m in net.modules]
    assert len(tracer.spans_named("splines.basis_window_on_tape")) == STEPS * sum(
        m.kind in ("kan", "frkan") for m in modules)
    for cls in ("KANLayer", "FRKANLayer", "MLPLayer", "LayerNorm"):
        recorded = tracer.spans_named(f"layers.{cls}.tape_forward")
        assert len(recorded) == STEPS * sum(type(m).__name__ == cls for m in modules), cls
        # the one value path: each recorded layer ran its own forward_batch
        training_forward = [i for i in tracer.spans_named(f"layers.{cls}.forward_batch")
                            if tracer.has_ancestor(i, "layers.Network.tape_forward")]
        assert [tracer.parent[i] for i in training_forward] == recorded, cls
