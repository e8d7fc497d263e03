"""Reverse-mode differentiation on a tape of vector-Jacobian records.

Each record appends a whole array of values to the tape in one call,
together with the id arrays of its parents and a *vjp*: a closure that
maps the gradient of the record's output to one gradient per parent id
array, in closed form.  A layer over a whole mini-batch (a spline layer
with its knots, basis window, contraction and combination weights, an
affine map, a normalization) is one record and so is the loss, so a
training step costs a fixed number of records whatever the batch size.
Values live in one growing buffer, so any node's value is an index away.
The reverse sweep visits the records last to first and adds each parent
gradient into its parents' entries; the ids within one parent array are
distinct, so a plain ``g[ids] += gp`` accumulates d(root)/d(parameter)
for the parameters bound by ``parameters_from``.

Every record checks every value: a non-finite value raises
``NonFiniteValue``, and a non-finite parent gradient raises
``NonFiniteGradient``.  Both messages name the record's op.
"""

from __future__ import annotations

import math

import numpy as np


class AutodiffError(Exception):
    pass


class NonFiniteValue(AutodiffError):
    """A recorded value came out NaN/Inf."""


class NonFiniteGradient(AutodiffError):
    """A gradient came out NaN/Inf during backward."""


def _ids(a) -> np.ndarray:
    return np.asarray(a, dtype=np.intp)


def _first_bad(arr) -> str:
    bad = arr[~np.isfinite(arr)]
    return f"{bad.size} of {arr.size}, first {float(bad.flat[0])!r}"


class Tape:
    """Append-only record of a computation, built a record at a time.

    A record's ids come back shaped like its values.  A tape is
    single-threaded; build one per loss evaluation.
    """

    __slots__ = ("_val", "_n", "_records")

    def __init__(self):
        self._val = np.empty(256)
        self._n = 0
        # (start, stop, shape, op, parents, vjp); vjp is None for a leaf
        self._records = []

    def __len__(self):
        return self._n

    @property
    def record_count(self) -> int:
        return len(self._records)

    def value(self, ids):
        """Values of ``ids``, shaped like them (a float for one id)."""
        return self._val[_ids(ids)]

    def values(self, ids) -> list:
        """Values of ``ids`` as a flat list of floats."""
        return self._val[_ids(ids)].ravel().tolist()

    def record(self, op: str, val, parents=(), vjp=None) -> np.ndarray:
        """Append one node per entry of ``val``; returns their ids, shaped like it.

        ``parents`` is a sequence of id arrays already on the tape, each
        holding distinct ids.  ``vjp(g)`` takes the gradient of the output,
        shaped like ``val``, and returns one gradient per parent array,
        each broadcastable to that array's shape.  A non-finite value
        raises ``NonFiniteValue`` naming ``op``.
        """
        val = np.asarray(val, dtype=float)
        if not np.isfinite(val).all():
            raise NonFiniteValue(f"{op} produced a non-finite value ({_first_bad(val)})")
        start = self._n
        stop = start + val.size
        if stop > self._val.size:
            grown = np.empty(max(2 * self._val.size, stop))
            grown[:start] = self._val[:start]
            self._val = grown
        self._val[start:stop] = val.ravel()
        self._records.append((start, stop, val.shape, op, [_ids(p) for p in parents], vjp))
        self._n = stop
        return np.arange(start, stop).reshape(val.shape)

    def constant(self, v) -> np.ndarray:
        return self.record("constant", v)

    def parameters_from(self, values) -> int:
        """Record a flat parameter vector as nodes 0..P-1 of an empty tape.

        Returns the id of the first node.  ``gradient_vector`` reads the
        gradient of these nodes.
        """
        if self._n:
            raise AutodiffError("bulk parameter binding requires an empty tape")
        self.record("parameter", np.asarray(values, dtype=float).ravel())
        return 0

    def gradient_vector(self, root, count: int) -> np.ndarray:
        """Dense gradient of ``root`` (the sum, for an array of roots) for
        the parameters bound via :meth:`parameters_from`."""
        root = _ids(root).ravel()
        if root.size == 0 or root.min() < 0 or root.max() >= self._n:
            raise AutodiffError(f"root {root} not on tape")
        g = np.zeros(self._n)
        np.add.at(g, root, 1.0)
        top = root.max()
        for start, stop, shape, op, parents, vjp in reversed(self._records):
            if start > top or vjp is None:
                continue
            for ids, gp in zip(parents, vjp(g[start:stop].reshape(shape))):
                if not np.isfinite(gp).all():
                    raise NonFiniteGradient(f"{op} produced a non-finite gradient "
                                            f"({_first_bad(np.asarray(gp))})")
                g[ids] += gp
        g = g[:count].copy()
        if not np.all(np.isfinite(g)):
            bad = int(np.flatnonzero(~np.isfinite(g))[0])
            raise NonFiniteGradient(f"gradient of parameter {bad} is not finite")
        return g


def finite_difference_check(f, params: np.ndarray, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f(params) -> (value, grad_vector)``; only the value part is used for
    the differencing, so the analytic gradient is checked against an
    estimate that never looks at it.  The relative error for coordinate i
    is ``|g_i - fd_i| / max(1, |g_i|)``.  The caller must keep the
    evaluation point away from kinks (max ties, span boundaries): central
    differences straddling a non-differentiable point are meaningless.
    """
    params = np.asarray(params, dtype=float)
    value, grad = f(params)
    grad = np.asarray(grad, dtype=float)
    if not (math.isfinite(value) and np.all(np.isfinite(grad))):
        raise NonFiniteValue("analytic evaluation is not finite")
    worst = 0.0
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + step
        fp = f(bumped)[0]
        bumped[i] = params[i] - step
        fm = f(bumped)[0]
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NonFiniteValue(f"function not finite at params +- step (coord {i})")
        fd = (fp - fm) / (2.0 * step)
        err = abs(grad[i] - fd) / max(1.0, abs(grad[i]))
        if err > worst:
            worst = err
    return worst
