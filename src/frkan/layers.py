"""Network layers and assembly.

Two kinds of spline layer coexist:

* ``KANLayer`` -- one spline per edge (d_in * d_out coefficient sets)
  sharing a single fixed knot grid, plus separate spline/shortcut
  combination weights A_b and A_s.
* ``FRKANLayer`` -- inputs are partitioned into h contiguous groups, each
  group owning one coefficient set and one learnable knot shift; a single
  weight matrix A multiplies spline-plus-shortcut jointly.

Both keep their grid -- [a, b], G and K -- in an immutable ``KnotVector``
named ``kv``.  A KAN layer is the fixed-grid case: one knot set, the grid
row ``kv.row``.  An FR-KAN layer shifts the grid once per group, by the
rows of ``shifts``: its ``knot_plan()`` is built once per shift value and
shared by ``knots()``, the forward pass and the shift gradient.

Every layer computes its output in one place, ``forward_batch(X,
cache=None)``, over a whole sample matrix.  Without a cache it serves
metrics, scanning and export, and does only the forward work; an FR-KAN
layer then evaluates its splines in pp form, which agrees with the
cached path's recursion to rounding, not bit for bit.  Given a
list, it appends what the layer's ``backward(cache, gY)`` needs; that
pops the entry and returns the gradient for X and one gradient per
parameter array, in ``param_arrays`` order, in closed form.  A cached
spline layer evaluates its basis window over all its knot sets in one
kernel call, one knot row per column block, keeping the levels.

Training records the network on an autodiff tape.  Each layer's
``tape_forward`` is the one shared adapter ``_record_layer``: it runs
``forward_batch`` with a cache on the input read from the tape and
records the output as one vector-Jacobian record, named "layer <index>
(<kind>)", whose vjp is ``backward``.  ``Network.tape_forward`` binds the
parameters itself, so a mini-batch costs one record per layer.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape
from .splines import (
    InvalidRange,
    KnotVector,
    SplineGroup,
    _count,
    basis_matrix,
    basis_window_on_tape,
    init_shift,
    make_uniform_grid,
    pp_tables,
    pp_values,
    scatter_window,
    window_bases,
)

CHECKPOINT_SCHEMA = 1
# Rows per block of the cache-free ``Network.forward_batch`` and of the knot
# scanner's lattice.  Every layer is row-wise, so blocks bound the
# intermediates' memory and change no value beyond the last bits of a matrix
# product whose BLAS kernel depends on its size: past one block, outputs may
# differ in their last bits from one pass over all rows, or from another
# block size (the audit lattices read the same at 8k and 16k).  Of 2k to 32k
# rows, 8k ran a 200k-sample hidden-SiLU audit fastest (in:2 -> frkan:8 ->
# frkan:1; medians of 38 interleaved audits on a 2-vCPU Xeon: 46.1, 44.1,
# 43.6, 65.1 and 70.7 ms at 2k, 4k, 8k, 16k and 32k).  From 16k up, glibc
# trims and refaults each block's temporaries: about 14,800 minor faults per
# audit, against about 400 at 8k.
EVAL_CHUNK_ROWS = 8192


class BadArchitecture(Exception):
    pass


class CorruptCheckpoint(Exception):
    pass


def _check_widths(**widths):
    """Raise BadArchitecture naming the first width that is not an integer >= 1."""
    for name, v in widths.items():
        if not _count(v):
            raise BadArchitecture(f"{name}: need an integer >= 1, got {v!r}")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) otherwise, so
    # exp never overflows; exp(-|x|) is the one exponential either needs.
    # In place, with one block temporary: exp(-|x|) lies in [0, 1], so its
    # maximum with (x >= 0) is 1 where x >= 0 and itself elsewhere, NaN kept.
    e = np.abs(x, dtype=float)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    np.maximum(e, x >= 0, out=e)
    e /= d
    return e


def _silu(x: np.ndarray) -> np.ndarray:
    # x first, as in x * sigmoid(x): a product of two NaNs keeps the first's bits
    s = _sigmoid(x)
    return np.multiply(x, s, out=s)


def _silu_slope(x: np.ndarray, s=None) -> np.ndarray:
    """The derivative of silu: sigmoid(x) (1 + x (1 - sigmoid(x))); ``s``
    is sigmoid(x) when the caller has it."""
    if s is None:
        s = _sigmoid(x)
    d = 1.0 - s
    np.multiply(x, d, out=d)
    d += 1.0
    return np.multiply(s, d, out=d)


def _record_layer(self, tape, bind, label, xs):
    """A layer's training record: ``forward_batch``, with a cache, of the
    values of the flat input ids ``xs``, recorded as one record named
    ``label`` whose parents are ``xs`` and the parameter ids ``bind`` (one
    id array per ``param_arrays`` entry, in order) and whose vjp is
    ``backward``.  Returns the flat output ids, row-major over the batch.

    Every layer class holds it as its ``tape_forward``, which the
    benchmark's tracer times per class; it can go with the tape (ROADMAP,
    item 2).
    """
    cache = []
    Y = self.forward_batch(tape.value(xs).reshape(-1, self.d_in), cache)

    def vjp(gY):
        gX, grads = self.backward(cache, gY)
        return [gX.ravel(), *grads]

    return tape.record(label, Y, [xs, *bind.values()], vjp).ravel()


class LayerNorm:
    """Per-sample normalization with affine rescale; eps keeps the
    normalized variance within 1e-8 of 1 for unit-scale inputs."""

    kind = "ln"
    eps = 1e-8

    def __init__(self, dim: int):
        _check_widths(d_in=dim)
        self.d_in = self.d_out = dim
        self.gamma = np.ones(dim)
        self.beta = np.zeros(dim)

    def param_arrays(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def param_items(self):
        return {"norm_gamma": self.d_in, "norm_beta": self.d_in}

    def _normalize(self, X):
        """(x - mean) / sqrt(var + eps) of each row, and the 1 / sqrt(var + eps)."""
        diff = X - X.mean(axis=1, keepdims=True)
        rstd = 1.0 / np.sqrt((diff * diff).mean(axis=1, keepdims=True) + self.eps)
        return diff * rstd, rstd

    def forward_batch(self, X, cache=None):
        xhat, rstd = self._normalize(X)
        if cache is not None:
            cache.append((xhat, rstd))
        return self.gamma * xhat + self.beta

    def backward(self, cache, gY):
        xhat, rstd = cache.pop()
        gxhat = gY * self.gamma
        gX = rstd * (gxhat - gxhat.mean(axis=1, keepdims=True)
                     - xhat * (gxhat * xhat).mean(axis=1, keepdims=True))
        return gX, [(gY * xhat).sum(axis=0), gY.sum(axis=0)]

    tape_forward = _record_layer


class KANLayer:
    """Per-edge learnable splines over one shared fixed grid plus a
    weighted SiLU shortcut."""

    kind = "kan"

    def __init__(self, d_in, d_out, kv: KnotVector, coefficients, A_b, A_s,
                 silu_path: bool = True):
        _check_widths(d_in=d_in, d_out=d_out)
        self.d_in, self.d_out = d_in, d_out
        self.kv = kv
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.A_b = np.asarray(A_b, dtype=float)
        self.A_s = np.asarray(A_s, dtype=float)
        self.silu_path = silu_path
        nb = kv.n_bases
        if self.coefficients.shape != (d_in, d_out, nb):
            raise BadArchitecture(f"coefficients must be {(d_in, d_out, nb)}")
        if self.A_b.shape != (d_in, d_out) or self.A_s.shape != (d_in, d_out):
            raise BadArchitecture(f"A_b/A_s must be {(d_in, d_out)}")

    def param_arrays(self):
        return [("A_b", self.A_b), ("A_s", self.A_s),
                ("coefficients", self.coefficients)]

    def param_items(self):
        nb = self.kv.n_bases
        return {
            "A_b": self.d_in * self.d_out,
            "A_s": self.d_in * self.d_out if self.silu_path else 0,
            "coefficients": self.d_in * self.d_out * nb,
            # the combined spline-plus-weight convention counts (G+K+1) per edge
            "combined_spline_weight_estimate": self.d_in * self.d_out * (nb + 1),
        }

    def knots(self) -> np.ndarray:
        """The shared grid's knot row as a one-row knot matrix."""
        return self.kv.row[None, :]

    def spline_groups(self):
        return [SplineGroup(self.kv, self.coefficients[i, o])
                for i in range(self.d_in) for o in range(self.d_out)]

    def _edge_weights(self):
        """coefficients * A_b laid out (i, b, o)."""
        return (self.coefficients * self.A_b[:, :, None]).transpose(0, 2, 1)

    def forward_batch(self, X, cache=None):
        # Every edge leaving input i shares its basis row, so the dense basis
        # of all inputs, laid out (n, i*b), meets all edges in one matmul.
        x, nb = X.ravel(), self.kv.n_bases
        E = self._edge_weights().reshape(-1, self.d_out)
        # the backward reads the SiLU's sigmoid too
        s = _sigmoid(X) if self.silu_path else None
        S = X * s if self.silu_path else None
        if cache is None:
            B = basis_matrix(x, self.knots()[0], self.kv.K)
        else:
            m, W, window_back = basis_window_on_tape(x, self.kv, self.kv.K)
            B, flat = scatter_window(x, m, W, nb)
            cache.append((X, B, flat, E, S, s, window_back))
        B = B.reshape(X.shape[0], self.d_in * nb)
        out = B @ E
        if self.silu_path:
            out = out + S @ self.A_s
        return out

    def backward(self, cache, gO):
        X, B, flat, E, S, s, window_back = cache.pop()
        shape = (self.d_in, self.kv.n_bases, self.d_out)
        gM = (B.reshape(len(X), -1).T @ gO).reshape(shape).transpose(0, 2, 1)  # (i, o, b)
        gB = gO @ E.T
        gX = window_back(gB.ravel().take(flat.T).T)[0].reshape(X.shape)
        gA_s = np.zeros_like(self.A_s)
        if self.silu_path:
            gX = gX + (gO @ self.A_s.T) * _silu_slope(X, s)
            gA_s = S.T @ gO
        return gX, [(gM * self.coefficients).sum(axis=2), gA_s, gM * self.A_b[:, :, None]]

    tape_forward = _record_layer


class FRKANLayer:
    """Grouped free-knot splines with one shared combination weight.

    Input i belongs to group floor(i * h / d_in); the group's coefficients
    and (sorted) shifted knots are shared by every input in the block.
    """

    kind = "frkan"

    def __init__(self, d_in, d_out, h, a, b, G, K, coefficients, shifts, A,
                 silu_path: bool = True):
        _check_widths(d_in=d_in, d_out=d_out, h=h)
        if h > d_in:
            raise BadArchitecture(f"group count h={h} must be in [1, d_in={d_in}]")
        self.d_in, self.d_out, self.h = d_in, d_out, h
        self.kv = make_uniform_grid(a, b, G, K)
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.shifts = np.asarray(shifts, dtype=float)
        self.A = np.asarray(A, dtype=float)
        self.silu_path = silu_path
        nb = self.kv.n_bases
        if self.coefficients.shape != (h, nb):
            raise BadArchitecture(f"coefficients must be {(h, nb)}")
        if self.shifts.shape != (h, self.kv.G + 1):
            raise BadArchitecture(f"shifts must be {(h, self.kv.G + 1)}")
        if self.A.shape != (d_in, d_out):
            raise BadArchitecture(f"A must be {(d_in, d_out)}")
        self._plan = (None, None)   # the knot plan and the shifts it was built from
        self._pp = (None, None, None)   # the plan and coefficients converted, the pp tables

    def group_of(self, i):
        return i * self.h // self.d_in

    def group_columns(self, g: int) -> slice:
        """The inputs of group g: group_of(i) == g exactly for i in
        [ceil(g d_in / h), ceil((g+1) d_in / h))."""
        return slice(-(-g * self.d_in // self.h), -(-(g + 1) * self.d_in // self.h))

    def param_arrays(self):
        return [("A", self.A), ("coefficients", self.coefficients),
                ("shifts", self.shifts)]

    def param_items(self):
        return {
            "A": self.d_in * self.d_out,
            "coefficients": self.h * self.kv.n_bases,
            "shifts": self.h * (self.kv.G + 1),
        }

    def knot_plan(self):
        """``kv.knot_plan`` of the current shifts, read-only.  It is built
        once per distinct shift value, cached on the shifts' contents, so an
        update in place (``set_flat``) and a new array both rebuild it."""
        key = (self.shifts.shape, self.shifts.tobytes())
        if self._plan[0] != key:
            plan = self.kv.knot_plan(self.shifts)
            for a in plan:
                a.flags.writeable = False
            self._plan = (key, plan)
        return self._plan[1]

    def knots(self) -> np.ndarray:
        """Row g: the effective knots of group g (read-only)."""
        return self.knot_plan()[0]

    def pp_form(self):
        """``pp_tables`` of the groups' knots and coefficients, read-only,
        cached like ``knot_plan`` on the plan and the coefficients' contents,
        so the blocks of one cache-free pass share one conversion."""
        plan = self.knot_plan()
        key = (self.coefficients.shape, self.coefficients.tobytes())
        if self._pp[0] is not plan or self._pp[1] != key:
            tables = pp_tables(plan[0], self.kv.K, self.coefficients)
            for a in tables:
                a.flags.writeable = False
            self._pp = (plan, key, tables)
        return self._pp[2]

    def spline_groups(self):
        return [SplineGroup(self.kv, coef, shift)
                for shift, coef in zip(self.shifts, self.coefficients)]

    def forward_batch(self, X, cache=None):
        plan, K = self.knot_plan(), self.kv.K
        if cache is None:
            # Evaluation, scanning and export, with no window and no
            # recursion: every group's pp form, converted once per call,
            # then per group one span search and a Horner loop over its
            # columns, which are contiguous rows of X.T.  The SiLU term
            # comes first, into the output, so no second block-sized
            # temporary stays alive (glibc would trim and refault it).
            XT = np.ascontiguousarray(X.T, dtype=float)
            origin, Q = self.pp_form()
            pre = _silu(XT) if self.silu_path else np.zeros_like(XT)
            for g in range(self.h):
                cols = self.group_columns(g)
                x = XT[cols]
                pre[cols] += pp_values(x.ravel(), plan[0][g], origin[g], Q[:, g]).reshape(x.shape)
            return pre.T @ self.A
        # one knot row per column block: the group of each input column
        rows = self.group_of(np.arange(self.d_in))
        m, W, window_back = basis_window_on_tape(X, plan[0], K, rows)
        # window slots that name no basis are 0, so their coefficient
        # index is clipped onto a neighbour; terms sum left to right,
        # slot-major (K+1, M) like the window, each slot contiguous
        nb = self.kv.n_bases
        flat = window_bases(m, nb, K).reshape(X.shape + (K + 1,)) + rows[:, None] * nb
        flat = flat.reshape(-1, K + 1)
        c = self.coefficients.ravel().take(flat.T)
        terms = W.T * c
        pre = terms[0]
        for r in range(1, K + 1):
            pre += terms[r]
        pre = pre.reshape(X.shape)
        s = _sigmoid(X) if self.silu_path else None
        if self.silu_path:
            pre += X * s
        cache.append((X, plan, pre, flat, W, c, s, window_back))
        return pre @ self.A

    def backward(self, cache, gO):
        X, plan, pre, flat, W, c, s, window_back = cache.pop()
        gpre = gO @ self.A.T
        gy = gpre.reshape(-1, 1)
        gc = np.bincount(flat.ravel(), (gy * W).ravel(), minlength=self.coefficients.size)
        gx, gt = window_back((gy.T * c).T)
        gX = gx.reshape(X.shape)
        if self.silu_path:
            gX = gX + gpre * _silu_slope(X, s)
        return gX, [pre.T @ gO, gc.reshape(self.coefficients.shape),
                    self.kv.shift_gradient(plan, gt)]

    tape_forward = _record_layer


class MLPLayer:
    """Affine map with an optional ReLU; the piecewise-linear baseline."""

    kind = "mlp"

    def __init__(self, W, bias, activation="relu"):
        self.W = np.asarray(W, dtype=float)
        self.bias = np.asarray(bias, dtype=float)
        if self.W.ndim != 2 or self.bias.shape != (self.W.shape[1],):
            raise BadArchitecture(f"W/bias shapes inconsistent: {self.W.shape}, {self.bias.shape}")
        if activation not in ("relu", "identity"):
            raise BadArchitecture(f"unknown activation {activation!r}")
        self.d_in, self.d_out = self.W.shape
        self.activation = activation

    def param_arrays(self):
        return [("W", self.W), ("bias", self.bias)]

    def param_items(self):
        return {"W": self.d_in * self.d_out, "bias": self.d_out}

    def forward_batch(self, X, cache=None):
        Z = X @ self.W
        Z += self.bias
        relu = self.activation == "relu"
        if cache is not None:
            # at z = 0 the subgradient takes the z branch of max(z, 0)
            cache.append((X, Z >= 0.0 if relu else None))
        if relu:
            np.maximum(Z, 0.0, out=Z)
        return Z

    def backward(self, cache, gZ):
        X, on = cache.pop()
        if on is not None:
            gZ = gZ * on
        return gZ @ self.W.T, [X.T @ gZ, gZ.sum(axis=0)]

    tape_forward = _record_layer


SPLINE_KINDS = ("kan", "frkan")


class Network:
    """An ordered stack of modules with compatible dimensions."""

    def __init__(self, modules):
        if not modules:
            raise BadArchitecture("network needs at least one layer")
        for prev, nxt in zip(modules, modules[1:]):
            if prev.d_out != nxt.d_in:
                raise BadArchitecture(
                    f"dimension mismatch: {prev.kind}:{prev.d_out} -> {nxt.kind}:{nxt.d_in}")
        self.modules = modules

    @property
    def d_in(self):
        return self.modules[0].d_in

    @property
    def d_out(self):
        return self.modules[-1].d_out

    @property
    def descriptor(self) -> str:
        parts = [f"in:{self.d_in}"]
        for m in self.modules:
            parts.append("ln" if m.kind == "ln" else f"{m.kind}:{m.d_out}")
        return " -> ".join(parts)

    def spline_layers(self):
        return [m for m in self.modules if m.kind in SPLINE_KINDS]

    def spline_groups(self):
        out = []
        for m in self.spline_layers():
            out.extend(m.spline_groups())
        return out

    def assert_knots_sorted(self):
        # a fixed grid row is read-only and was checked when its KnotVector
        # was built, so only shifted knots need the check
        for m in self.spline_layers():
            if m.kind == "frkan":
                m.kv.assert_sorted(m.knots())

    # -- parameter plumbing ------------------------------------------------

    def param_arrays(self):
        for m in self.modules:
            for name, arr in m.param_arrays():
                yield m, name, arr

    def n_params(self) -> int:
        return sum(arr.size for _, _, arr in self.param_arrays())

    def get_flat(self) -> np.ndarray:
        return np.concatenate([arr.ravel() for _, _, arr in self.param_arrays()])

    def set_flat(self, flat: np.ndarray):
        off = 0
        for _, _, arr in self.param_arrays():
            arr.flat[:] = flat[off:off + arr.size]
            off += arr.size
        if off != flat.size:
            raise BadArchitecture(f"flat vector has {flat.size} entries, expected {off}")

    # -- forward paths -------------------------------------------------------

    def forward_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty((len(X), self.d_out))
        for lo in range(0, len(X), EVAL_CHUNK_ROWS):
            Y = X[lo:lo + EVAL_CHUNK_ROWS]
            for m in self.modules:
                Y = m.forward_batch(Y)
            out[lo:lo + EVAL_CHUNK_ROWS] = Y
        return out

    def tape_forward(self, tape: Tape, X) -> np.ndarray:
        """Record the forward pass of every row of ``X`` on an empty tape;
        returns the (N, d_out) ids of the outputs.

        The parameters become nodes 0..P-1, laid out like ``get_flat``, then
        come the input and one record per module.
        """
        tape.parameters_from(self.get_flat())
        X = np.atleast_2d(np.asarray(X, dtype=float))
        xs = tape.record("input", X).ravel()
        off = 0
        for k, m in enumerate(self.modules):
            bind = {}
            for name, arr in m.param_arrays():
                bind[name] = np.arange(off, off + arr.size).reshape(arr.shape)
                off += arr.size
            # records are named after their layer, so an error says where it arose
            xs = m.tape_forward(tape, bind, f"layer {k} ({m.kind})", xs)
        return xs.reshape(len(X), self.d_out)


def sum_outputs(net: Network) -> Network:
    """A network whose outputs, summed, equal the sum of ``net``'s outputs.

    The sum is linear in the last layer's output weights, so a KAN, FR-KAN
    or identity-MLP last layer takes it in and computes one column: a KAN
    layer sums its edges' weighted coefficients (A_b becomes 1) and its
    A_s, an FR-KAN layer sums A, an identity MLP sums W and its bias.  A
    ReLU-MLP or LayerNorm last layer is kept as it is.  The result shares
    every other layer with ``net``.
    """
    last = net.modules[-1]
    if last.kind == "kan":
        coef = np.einsum("iob,io->ib", last.coefficients, last.A_b)[:, None, :]
        last = KANLayer(last.d_in, 1, last.kv, coef, np.ones((last.d_in, 1)),
                        last.A_s.sum(axis=1, keepdims=True), silu_path=last.silu_path)
    elif last.kind == "frkan":
        last = FRKANLayer(last.d_in, 1, last.h, last.kv.a, last.kv.b, last.kv.G, last.kv.K,
                          last.coefficients, last.shifts,
                          last.A.sum(axis=1, keepdims=True), silu_path=last.silu_path)
    elif last.kind == "mlp" and last.activation == "identity":
        last = MLPLayer(last.W.sum(axis=1, keepdims=True), last.bias.sum(keepdims=True),
                        activation="identity")
    return Network(net.modules[:-1] + [last])


# -- construction --------------------------------------------------------------


@dataclass
class GridConfig:
    """Spline grid settings shared by every spline layer of a network."""

    G: int = 20
    K: int = 3
    a: float = -10.0
    b: float = 10.0
    h: int | None = None  # None: ceil(d_in / 4) per layer
    Z: float = 8.0

    def __post_init__(self):
        try:   # the grid's own checks name the field: a, b, G or K
            make_uniform_grid(self.a, self.b, self.G, self.K)
        except InvalidRange as exc:
            raise BadArchitecture(str(exc)) from None
        # shifts start inside +-(b - a) / (Z * G)
        if not self.Z > 0:
            raise BadArchitecture(f"Z: need Z > 0, got {self.Z!r}")
        if self.h is not None:
            _check_widths(h=self.h)

    def groups_for(self, d_in: int) -> int:
        """h, or ceil(d_in / 4) when h is None, clamped to d_in."""
        return min(self.h or -(-d_in // 4), d_in)


def parse_descriptor(desc: str):
    """Parse ``in:2 -> frkan:64 -> out:1`` into (d_in, [tokens]).

    Tokens are ``("ln",)`` or ``(kind, width)``.  A trailing ``out:<d>``
    produces a final layer of the most recent kind (mlp when none).
    """
    parts = [p.strip() for p in desc.replace("→", "->").split("->")]
    if not parts or not parts[0].startswith("in:"):
        raise BadArchitecture(f"descriptor must start with 'in:<d>': {desc!r}")

    def _width(token, label):
        try:
            w = int(token)
        except ValueError:
            raise BadArchitecture(f"bad width in {label!r}") from None
        if w < 1:
            raise BadArchitecture(f"width must be positive in {label!r}")
        return w

    d_in = _width(parts[0][3:], parts[0])
    tokens = []
    last_kind = "mlp"
    for idx, part in enumerate(parts[1:]):
        if part == "ln":
            tokens.append(("ln",))
            continue
        if ":" not in part:
            raise BadArchitecture(f"bad descriptor token {part!r}")
        kind, _, w = part.partition(":")
        if kind == "out":
            if idx != len(parts) - 2:
                raise BadArchitecture("'out:' is only allowed as the final token")
            tokens.append((last_kind, _width(w, part)))
        elif kind in ("kan", "frkan", "mlp"):
            tokens.append((kind, _width(w, part)))
            last_kind = kind
        else:
            raise BadArchitecture(f"unknown layer kind {kind!r}")
    if not any(len(t) == 2 for t in tokens):
        raise BadArchitecture(f"descriptor has no layers: {desc!r}")
    return d_in, tokens


def init_network(descriptor: str, grid: GridConfig | None = None, seed: int = 0,
                 silu: bool = True, layernorm: str = "explicit") -> Network:
    """Build and initialize a network from its descriptor.

    Deterministic in ``seed``.  Coefficients start near zero
    (N(0, 0.1/sqrt(G+K))) so the SiLU shortcut dominates early training;
    combination weights use uniform fan-in scaling; knot shifts start
    uniform inside +-(b-a)/(Z*G).  ``layernorm="auto"`` inserts a
    normalization before each spline layer with at least 2 inputs.
    """
    grid = grid or GridConfig()
    if layernorm not in ("explicit", "auto", "off"):
        raise BadArchitecture(f"unknown layernorm mode {layernorm!r}")
    d_in, tokens = parse_descriptor(descriptor)
    rng = np.random.default_rng(seed)
    modules = []
    d = d_in
    for tok in tokens:
        if tok == ("ln",):
            if layernorm != "off":
                modules.append(LayerNorm(d))
            continue
        kind, width = tok
        # hidden spline layers get a norm; the input layer does not, and
        # neither do narrow ones -- per-sample normalization keeps only
        # d-2 dimensions, so at d=2 nothing but sign(x1-x2) survives
        if layernorm == "auto" and kind in SPLINE_KINDS and d >= 4 and modules:
            modules.append(LayerNorm(d))
        if kind == "mlp":
            W = rng.uniform(-1, 1, size=(d, width)) / np.sqrt(d)
            modules.append(MLPLayer(W, np.zeros(width), activation="relu"))
        elif kind == "kan":
            kv = make_uniform_grid(grid.a, grid.b, grid.G, grid.K)
            coef = rng.normal(size=(d, width, kv.n_bases)) * (0.1 / np.sqrt(kv.n_bases))
            A_b = rng.uniform(-1, 1, size=(d, width)) / np.sqrt(d)
            A_s = rng.uniform(-1, 1, size=(d, width)) / np.sqrt(d)
            modules.append(KANLayer(d, width, kv, coef, A_b, A_s, silu_path=silu))
        else:
            h = grid.groups_for(d)
            kv = make_uniform_grid(grid.a, grid.b, grid.G, grid.K)
            coef = rng.normal(size=(h, kv.n_bases)) * (0.1 / np.sqrt(kv.n_bases))
            shifts = np.stack([init_shift(kv, grid.Z, rng) for _ in range(h)])
            A = rng.uniform(-1, 1, size=(d, width)) / np.sqrt(d)
            modules.append(FRKANLayer(d, width, h, grid.a, grid.b, grid.G, grid.K,
                                      coef, shifts, A, silu_path=silu))
        d = width
    net = Network(modules)
    if net.modules[-1].kind == "mlp":
        net.modules[-1].activation = "identity"
    return net


def param_count(net: Network) -> dict:
    """Itemized parameter counts per layer plus class totals."""
    layers = []
    totals = {}
    for m in net.modules:
        items = m.param_items()
        entry = {"kind": m.kind, "d_in": m.d_in, "d_out": m.d_out, **items}
        counted = {k: v for k, v in items.items() if not k.endswith("_estimate")}
        entry["total"] = sum(counted.values())
        layers.append(entry)
        for k, v in counted.items():
            totals[k] = totals.get(k, 0) + v
    return {"layers": layers, "totals": totals, "total": sum(totals.values())}


# -- checkpoint serialization ---------------------------------------------------


def _encode_array(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape),
            "data": [format(v, ".17g") for v in arr.ravel()]}


def _decode_array(obj, name: str) -> np.ndarray:
    try:
        shape = tuple(obj["shape"])
        data = np.array([float(s) for s in obj["data"]], dtype=float)
        data = data.reshape(shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptCheckpoint(f"bad array field {name!r}: {exc}") from None
    if not np.all(np.isfinite(data)):
        raise CorruptCheckpoint(f"bad array field {name!r}: non-finite value "
                                f"{data[~np.isfinite(data)][0]!r}")
    return data


def save_checkpoint(net: Network, path: str):
    doc = {"schema_version": CHECKPOINT_SCHEMA, "architecture": net.descriptor,
           "layers": []}
    for m in net.modules:
        entry = {"kind": m.kind, "d_in": m.d_in, "d_out": m.d_out}
        if m.kind in SPLINE_KINDS:
            entry.update(G=m.kv.G, K=m.kv.K, a=m.kv.a, b=m.kv.b)
            if m.kind == "frkan":
                entry["h"] = m.h
            entry["silu"] = m.silu_path
        elif m.kind == "mlp":
            entry["activation"] = m.activation
        for name, arr in m.param_arrays():
            entry[name] = _encode_array(arr)
        doc["layers"].append(entry)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def _check_grid_sizes(G, K, coefficients, shifts=None):
    """G and K against the arrays they size, before a grid of G intervals
    is built: a huge G would allocate its knot row first."""
    if not (_count(G) and _count(K)):
        return   # the grid names the bad field
    if shifts is not None and shifts.shape[-1:] != (G + 1,):
        raise BadArchitecture(f"G: {G} contradicts the shifts' shape {shifts.shape}")
    if coefficients.shape[-1:] != (G + K,):
        raise BadArchitecture(f"G + K: {G + K} contradicts the coefficients' shape "
                              f"{coefficients.shape}")


def load_checkpoint(path: str) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CorruptCheckpoint(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CorruptCheckpoint(f"need an object holding 'layers', got {type(doc).__name__}")
    if doc.get("schema_version") != CHECKPOINT_SCHEMA:
        raise CorruptCheckpoint(f"schema_version: need {CHECKPOINT_SCHEMA!r}, "
                                f"got {doc.get('schema_version')!r}")
    modules = []
    entries = doc.get("layers")
    if not isinstance(entries, list):
        raise CorruptCheckpoint(f"layers: need a list, got {entries!r}")
    for idx, e in enumerate(entries):
        label = f"layers[{idx}]"
        if not isinstance(e, dict):
            raise CorruptCheckpoint(f"{label}: need an object, got {e!r}")
        try:
            kind = e["kind"]
            if kind == "ln":
                gamma, beta = _decode_array(e["gamma"], "gamma"), _decode_array(e["beta"], "beta")
                # before LayerNorm allocates d_in entries
                if gamma.shape != (e["d_in"],) or beta.shape != (e["d_in"],):
                    raise CorruptCheckpoint(f"{label}: d_in: {e['d_in']!r} needs gamma and beta "
                                            f"of shape ({e['d_in']!r},), got {gamma.shape}, "
                                            f"{beta.shape}")
                m = LayerNorm(e["d_in"])
                m.gamma, m.beta = gamma, beta
            elif kind in SPLINE_KINDS:
                silu = e["silu"]
                if not isinstance(silu, bool):
                    raise CorruptCheckpoint(f"{label}: silu: need true or false, got {silu!r}")
                coef = _decode_array(e["coefficients"], "coefficients")
                shifts = _decode_array(e["shifts"], "shifts") if kind == "frkan" else None
                _check_grid_sizes(e["G"], e["K"], coef, shifts)
                if kind == "kan":
                    m = KANLayer(e["d_in"], e["d_out"],
                                 make_uniform_grid(e["a"], e["b"], e["G"], e["K"]), coef,
                                 _decode_array(e["A_b"], "A_b"),
                                 _decode_array(e["A_s"], "A_s"), silu_path=silu)
                else:
                    m = FRKANLayer(e["d_in"], e["d_out"], e["h"], e["a"], e["b"],
                                   e["G"], e["K"], coef, shifts,
                                   _decode_array(e["A"], "A"), silu_path=silu)
            elif kind == "mlp":
                m = MLPLayer(_decode_array(e["W"], "W"),
                             _decode_array(e["bias"], "bias"),
                             activation=e["activation"])
            else:
                raise CorruptCheckpoint(f"{label}: unknown layer kind {kind!r}")
            _check_widths(d_in=e["d_in"], d_out=e["d_out"])
            for field in ("d_in", "d_out"):
                if e[field] != getattr(m, field):
                    raise BadArchitecture(f"{field}: {e[field]} contradicts the arrays' "
                                          f"{getattr(m, field)}")
        except KeyError as exc:
            raise CorruptCheckpoint(f"{label}: missing field {exc}") from None
        except (TypeError, ValueError, InvalidRange, BadArchitecture) as exc:
            # a grid field the layer cannot use names itself (a, b, G or K)
            raise CorruptCheckpoint(f"{label}: {exc}") from None
        modules.append(m)
    try:
        net = Network(modules)
    except BadArchitecture as exc:
        raise CorruptCheckpoint(str(exc)) from None
    if doc.get("architecture") != net.descriptor:
        raise CorruptCheckpoint(f"architecture: {doc.get('architecture')!r} contradicts "
                                f"the layers' {net.descriptor!r}")
    return net
