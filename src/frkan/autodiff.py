"""Reverse-mode differentiation on a tape of scalar nodes, recorded in bulk.

Every node keeps its eagerly computed value plus its (parent id, local
partial) pairs.  Nodes are appended a *record* at a time: one call
appends a whole array of independent nodes whose parents all come earlier
on the tape, so a layer over a whole mini-batch costs a fixed number of
records whatever the batch size.  A record takes one of two edge forms:
up to two parents per node (the elementwise ops), or a fan of F parents
per node along a trailing axis (a spline's basis window and its
contraction, whose partials come in closed form).  A record keeps its
parents and partials as arrays; values live in one growing buffer, so any
node's value is an index away.  The reverse sweep visits the records
last to first and scatters ``g[record] * partial`` into the parents, with
one ``np.add.at`` per parent slot or per fan, which accumulates
d(root)/d(parameter) for the parameters bound by ``parameters_from``.

Every op checks every element: a non-finite value or partial raises
``NonFiniteValue``, and a division whose denominator is within
``DIVIDING_FLOOR`` of 0 raises ``DivisionNearZero``.  Error messages name
the op.
"""

from __future__ import annotations

import math

import numpy as np


class AutodiffError(Exception):
    pass


class DivisionNearZero(AutodiffError):
    """Denominator magnitude at or below the dividing floor."""


class NonFiniteValue(AutodiffError):
    """A recorded value or local partial came out NaN/Inf."""


class NonFiniteGradient(AutodiffError):
    """An accumulated gradient came out NaN/Inf during backward."""


# Below this magnitude a division is refused; spline code treats such
# terms as 0 (the 0/0 := 0 convention) instead of recording them.
DIVIDING_FLOOR = 1e-12


def _ids(a) -> np.ndarray:
    return np.asarray(a, dtype=np.intp)


class Tape:
    """Append-only record of a scalar computation, built a record at a time.

    Ops take node ids (an int or an array of ids) and broadcast them like
    NumPy; they return an id array of the broadcast shape (0-d for scalar
    operands).  A tape is single-threaded; build one per loss evaluation.
    """

    __slots__ = ("_val", "_n", "_records")

    def __init__(self):
        self._val = np.empty(256)
        self._n = 0
        # (start, stop, p1, w1, p2, w2); p1 is None for leaves, p2 for unary
        # ops and fans, and p1 is 2-D, one row per node, for a fan
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

    # -- records -----------------------------------------------------------

    def record(self, op: str, val, p1=None, w1=None, p2=None, w2=None) -> np.ndarray:
        """Append one node per entry of ``val``; returns their ids, shaped like it.

        ``p1``/``p2`` are parent ids and ``w1``/``w2`` the local partials,
        each broadcast to ``val``'s shape; every parent must already be on
        the tape.  A fan passes ``p1`` and ``w1`` with one more, trailing
        axis than ``val`` and no ``p2``: node i then has the parents
        ``p1[i, :]`` with the partials ``w1[i, :]``.  A non-finite value or
        partial raises ``NonFiniteValue`` naming ``op``.
        """
        val = np.asarray(val, dtype=float)
        for what, arr in (("value", val), ("partial", w1), ("partial", w2)):
            if arr is not None and not np.isfinite(arr).all():
                bad = np.asarray(arr)[~np.isfinite(arr)]
                raise NonFiniteValue(f"{op} produced a non-finite {what} "
                                     f"({bad.size} of {np.size(arr)}, first {bad.flat[0]!r})")
        start = self._n
        stop = start + val.size
        if stop > self._val.size:
            grown = np.empty(max(2 * self._val.size, stop))
            grown[:start] = self._val[:start]
            self._val = grown
        self._val[start:stop] = val.ravel()
        edges = []
        for p, w in ((p1, w1), (p2, w2)):
            if p is not None:
                p = _ids(p)
                fan = p.shape[val.ndim:]
                shape = val.shape + fan
                p = (p if p.shape == shape else np.broadcast_to(p, shape)).reshape(-1, *fan)
                if np.ndim(w):
                    w = np.asarray(w)
                    w = (w if w.shape == shape else np.broadcast_to(w, shape)).reshape(p.shape)
            edges += [p, w]
        self._records.append((start, stop, *edges))
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

    # -- primitive ops -------------------------------------------------------

    def add(self, a, b):
        return self.record("add", self.value(a) + self.value(b), a, 1.0, b, 1.0)

    def sub(self, a, b):
        return self.record("sub", self.value(a) - self.value(b), a, 1.0, b, -1.0)

    def mul(self, a, b):
        va, vb = self.value(a), self.value(b)
        return self.record("mul", va * vb, a, vb, b, va)

    def div(self, a, b):
        va, vb = self.value(a), self.value(b)
        small = np.abs(vb) <= DIVIDING_FLOOR
        if small.any():
            raise DivisionNearZero(f"div: |denominator| = {np.abs(vb)[small].flat[0]!r} "
                                   f"<= {DIVIDING_FLOOR}")
        inv = 1.0 / vb
        q = va * inv
        return self.record("div", q, a, inv, b, -q * inv)

    def maximum(self, a, b):
        # Subgradient at a tie goes to the first argument.
        va, vb = self.value(a), self.value(b)
        first = va >= vb
        return self.record("max", np.where(first, va, vb), a, first * 1.0, b, ~first * 1.0)

    def exp(self, a):
        with np.errstate(over="ignore"):
            v = np.exp(self.value(a))
        return self.record("exp", v, a, v)

    def log(self, a):
        va = self.value(a)
        if np.any(va <= 0.0):
            raise NonFiniteValue(f"log of non-positive value {np.min(va)!r}")
        return self.record("log", np.log(va), a, 1.0 / va)

    def sqrt(self, a):
        va = self.value(a)
        if np.any(va < 0.0):
            raise NonFiniteValue(f"sqrt of negative value {np.min(va)!r}")
        v = np.sqrt(va)
        if np.any(v == 0.0):
            raise NonFiniteValue("sqrt partial diverges at 0")
        return self.record("sqrt", v, a, 0.5 / v)

    def sigmoid(self, a):
        # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) otherwise
        va = self.value(a)
        e = np.exp(-np.abs(va))
        s = np.where(va >= 0.0, 1.0, e) / (1.0 + e)
        return self.record("sigmoid", s, a, s * (1.0 - s))

    def silu(self, a):
        """x * sigmoid(x), composed from the primitive set."""
        return self.mul(a, self.sigmoid(a))

    def sum(self, ids, axis: int = -1):
        """Sum along ``axis`` as a pairwise tree: ceil(log2(n)) add records."""
        ids = np.moveaxis(_ids(ids), axis, -1)
        while ids.shape[-1] > 1:
            even = ids.shape[-1] & ~1
            pairs = self.add(ids[..., 0:even:2], ids[..., 1:even:2])
            ids = np.concatenate([pairs, ids[..., even:]], axis=-1)
        return ids[..., 0]

    # -- reverse sweep -----------------------------------------------------

    def gradient_vector(self, root, count: int) -> np.ndarray:
        """Dense gradient of ``root`` (the sum, for an array of roots) for
        the parameters bound via :meth:`parameters_from`."""
        root = _ids(root).ravel()
        if root.size == 0 or root.min() < 0 or root.max() >= self._n:
            raise AutodiffError(f"root {root} not on tape")
        g = np.zeros(self._n)
        np.add.at(g, root, 1.0)
        top = root.max()
        for start, stop, p1, w1, p2, w2 in reversed(self._records):
            if start > top or p1 is None:
                continue
            gi = g[start:stop]
            if p1.ndim == 2:    # a fan
                gi = gi[:, None]
            np.add.at(g, p1, gi * w1)
            if p2 is not None:
                np.add.at(g, p2, gi * w2)
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
