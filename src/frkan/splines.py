"""B-spline knot vectors, basis evaluation, free-knot shifts, smoothness penalty.

Grid convention: G intervals on [a, b] give G+1 base points; K extra
points per side extend the grid at the uniform spacing dg = (b-a)/G, for
G+1+2K knots and G+K basis functions of order K.

Free shifts: a ``KnotVector`` is an immutable grid that holds no shift.
It builds its unshifted knot ``row`` once, and ``knot_matrix(shifts)``
builds every shifted knot set from it, so each caller passes its shifts
in: an FR-KAN layer one row per group, a ``SplineGroup`` its own shift.
A shift vector has one entry per base point (G+1 of them), but only
interior base points actually move -- the two endpoint base points stay
pinned at a and b so the basis partition of unity keeps holding on all
of [a, b] no matter how the shifts train.  The shifted points are sorted
together with the (fixed) extension points and consecutive gaps are
clamped to a minimum, so effective knots are always strictly increasing.

Basis evaluation: one array kernel finds each input's knot span and
evaluates only the K+1 bases that can be nonzero there (de Boor's local
recursion, with the Cox-de Boor formulas and guards, so values are
bit-identical to the full recursion).  It works in column form, one array
per window slot, and gathers each level's denominators once: slot r's
second denominator t[j+k+1] - t[j+1] is slot r+1's first.
``basis_window`` stacks the columns into an (N, K+1) window,
``spline_values`` weights each column by its gathered coefficient and sums
them, and ``basis_matrix`` is the window scattered into the dense
(N, G+K) array, for callers that share one basis row across many
coefficient sets.  ``basis_window_on_tape`` records the same levels on an
autodiff tape for every input of a layer at once, over the knots that
``KnotVector.tape_knots`` records, and ``spline_on_tape`` contracts the
recorded window with the coefficients.

Smoothness penalty: ``second_difference_penalty`` gives the penalty of a
whole coefficient array and its closed-form gradient.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .autodiff import DIVIDING_FLOOR


class InvalidRange(Exception):
    pass


class TooFewCoefficients(Exception):
    pass


# Minimum gap between consecutive effective knots, as a fraction of dg.
MIN_GAP_FACTOR = 1e-4


def _count(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1


def _finite(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


@dataclass(frozen=True)
class KnotVector:
    """A grid range [a, b], G intervals and order K: an immutable value.

    ``row`` holds the unshifted knots, built once at construction.
    ``knot_matrix`` builds every shifted knot set from it; a shift is
    always passed in, never stored here.
    """

    a: float
    b: float
    G: int
    K: int
    row: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        checks = (("a", _finite, "a finite number"), ("b", _finite, "a finite number"),
                  ("G", _count, "an integer >= 1"), ("K", _count, "an integer >= 1"))
        for name, ok, need in checks:
            if not ok(getattr(self, name)):
                raise InvalidRange(f"{name}: need {need}, got {getattr(self, name)!r}")
        if not self.a < self.b:
            raise InvalidRange(f"b: need b > a, got [{self.a!r}, {self.b!r}]")
        for name, cast in (("a", float), ("b", float), ("G", int), ("K", int)):
            object.__setattr__(self, name, cast(getattr(self, name)))
        left, right = self.extension_points()
        row = np.concatenate([left, self.base_points(), right])
        # the clamp of knot_matrix leaves this row as it is: it is the
        # zero-shift knot set, bit for bit
        if np.any(row[1:] < self._floor(row[:-1])):
            raise InvalidRange(f"G: {self.G} intervals on [{self.a!r}, {self.b!r}] "
                               "are below the float resolution of the range")
        row.flags.writeable = False
        object.__setattr__(self, "row", row)

    @property
    def dg(self) -> float:
        return (self.b - self.a) / self.G

    @property
    def n_bases(self) -> int:
        return self.G + self.K

    @property
    def min_gap(self) -> float:
        return MIN_GAP_FACTOR * self.dg

    def base_points(self) -> np.ndarray:
        pts = self.a + np.arange(self.G + 1) * self.dg
        pts[0] = self.a
        pts[-1] = self.b
        return pts

    def extension_points(self):
        dg = self.dg
        left = self.a - dg * np.arange(self.K, 0, -1)
        right = self.b + dg * np.arange(1, self.K + 1)
        return left, right

    def _floor(self, prev):
        """The least knot allowed after ``prev``: prev + min_gap, one ulp up
        where that sum rounds down to the ulp of a knot far larger than the
        gap, so a stored gap is at least min_gap."""
        min_gap = self.min_gap
        lo = prev + min_gap
        return np.where(lo - prev < min_gap, np.nextafter(lo, np.inf), lo)

    def knot_matrix(self, shifts) -> np.ndarray:
        """Effective knots, one row per row of a (rows, G+1) shift matrix.

        Interior base points of ``row`` move by their shift, and each row
        is sorted with the extension points.  Left to right, a knot below
        the ``_floor`` of its clamped predecessor is raised to it, and a
        NaN knot stays.  The chain runs down the columns for all rows at
        once, from the first column it changes.
        """
        shifts = np.asarray(shifts, dtype=float)
        t = np.tile(self.row, (len(shifts), 1))
        t[:, self.K + 1:self.K + self.G] += shifts[:, 1:-1]
        t.sort(axis=1)
        low = np.flatnonzero((t[:, 1:] < self._floor(t[:, :-1])).any(axis=0))
        for i in range(low[0] + 1 if low.size else t.shape[1], t.shape[1]):
            lo = self._floor(t[:, i - 1])
            t[:, i] = np.where(t[:, i] < lo, lo, t[:, i])
        return t

    def assert_sorted(self, knots):
        """Raise InvalidRange unless every gap of ``knots`` (a knot row, or
        each row of a knot matrix) is at least min_gap."""
        gaps = np.diff(knots, axis=-1)
        if not np.all(gaps >= self.min_gap):
            raise InvalidRange(f"effective knots degenerate: min gap {gaps.min()!r}")

    def tape_knots(self, tape, shift_ids=None) -> np.ndarray:
        """Record the knots on ``tape``: an (h, G+2K+1) id matrix.

        ``shift_ids`` is an (h, G+1) id matrix of the shift entries, one
        row per knot set; with ``shift_ids=None`` the grid row is recorded
        as one constant knot set.  Values come from ``knot_matrix``, so
        they are the knots ``forward_batch`` uses, bit for bit.  Each knot
        has one parent with partial 1: the point the clamp chain carries to
        it after the stable sort, which is a shift entry for a moved
        interior base point and a constant for a fixed one (the active-max
        derivative of the clamp).  Endpoint shift entries get no gradient.
        """
        if shift_ids is None:
            return tape.constant(self.row[None, :])
        K, G = self.K, self.G
        shift_ids = np.asarray(shift_ids)
        knots = self.knot_matrix(tape.value(shift_ids))
        points = np.tile(self.row, (len(knots), 1))
        points[:, K + 1:K + G] += tape.value(shift_ids[:, 1:-1])
        order = np.argsort(points, axis=1, kind="stable")
        # a knot the clamp raised carries its predecessor's point
        kept = knots == np.take_along_axis(points, order, axis=1)
        cols = np.arange(knots.shape[1])
        carried = np.maximum.accumulate(np.where(kept, cols, 0), axis=1)
        source = np.take_along_axis(order, carried, axis=1)
        moved = (source > K) & (source < K + G)
        fixed = tape.constant(self.row)
        shift_of = np.take_along_axis(shift_ids, np.clip(source - K, 0, G), axis=1)
        return tape.record("knots", knots, np.where(moved, shift_of, fixed[source]), 1.0)


def make_uniform_grid(a: float, b: float, G: int, K: int) -> KnotVector:
    """Equispaced base points on [a, b]."""
    return KnotVector(a=a, b=b, G=G, K=K)


def init_shift(kv: KnotVector, Z: float, seed) -> np.ndarray:
    """Draw i.i.d. uniform shifts with half-width (b - a) / (Z * G).

    The raw draws are scale-free uniforms on [-1, 1]; two grids sharing a
    seed therefore differ only by the half-width factor.
    """
    if Z <= 0:
        raise InvalidRange(f"need Z > 0, got {Z}")
    half = (kv.b - kv.a) / (Z * kv.G)
    rng = np.random.default_rng(seed)
    return half * rng.uniform(-1.0, 1.0, size=kv.G + 1)


# -- basis evaluation --------------------------------------------------------


def _window_columns(x: np.ndarray, t: np.ndarray, K: int):
    """``basis_window`` in column form: ``(m, [K+1 arrays])``; x flat, K >= 1."""
    n_bases = t.size - K - 1
    m = np.searchsorted(t, x, side="right") - 1
    inside = (m >= 0) & (m < t.size - 1)
    m = np.where(inside, m, -1)
    # Knots padded with K edge copies per side: padded index p = j + K, so
    # every window index is in bounds.  Padded knots only reach window
    # slots that name no basis, which are zeroed at the end.
    tp = np.pad(t, K, mode="edge")
    base = np.maximum(m, 0)
    xs = np.where(inside, x, t[0])
    # Window knot p is tp[base + p], and x lies in [knot K, knot K+1):
    # left[p] = x - knot p for 1 <= p <= K, right[q] = knot K+1+q - x for
    # q < K.  No level reads left[0] or right[K].
    left = [None] + [xs - tp[p:].take(base) for p in range(1, K + 1)]
    right = [tp[p:].take(base) - xs for p in range(K + 1, 2 * K + 1)]
    W = []
    for k in range(1, K + 1):
        # A denominator within DIVIDING_FLOOR of 0 becomes inf, so its
        # weight is +0 as in the full recursion: numerators are >= 0.
        # Slot r's second denominator t[j+k+1] - t[j+1] is slot r+1's
        # first, so level k gathers its k distinct denominators once.
        d = tp[k:] - tp[:-k]
        d = np.where(np.abs(d) > DIVIDING_FLOOR, d, np.inf)
        den = {p: d[p:].take(base) for p in range(K - k + 1, K + 1)}
        nxt = []
        for r in range(k + 1):
            p = K - k + r   # padded index of basis m - k + r, relative to base
            v = None
            if r > 0:
                v = left[p] / den[p]
                if k > 1:   # the order-0 basis W[0] is 1
                    v *= W[r - 1]
            if r < k:
                w2 = right[r] / den[p + 1]
                if k > 1:
                    w2 *= W[r]
                v = w2 if v is None else v + w2
            nxt.append(v)
        W = nxt
    # Only rows outside the span or in its first or last K spans hold slots
    # that name no basis.  valid[m + 1, r]: slot r of span m names a basis
    # (row 0: no span).
    edge = np.flatnonzero((m < K) | (m > n_bases - 1))
    cols = np.arange(-1, t.size - 1)[:, None] - K + np.arange(K + 1)
    valid = ((cols >= 0) & (cols < n_bases))[m[edge] + 1]
    bad = edge[~np.isfinite(x[edge])]   # non-finite x has no span: m = -1
    for r, w in enumerate(W):
        w[edge] *= valid[:, r]
        w[bad] = np.nan
    return m, W


def basis_window(x: np.ndarray, knots: np.ndarray, K: int):
    """The K+1 possibly-nonzero order-K bases at each x (de Boor's local recursion).

    Returns ``(m, W)``: ``m[n]`` is the span index with
    ``knots[m] <= x[n] < knots[m+1]``, or -1 when no half-open span holds
    x[n]; ``W[n, r]`` is basis ``m[n] - K + r``.  Window entries naming no
    basis (index below 0 or above len(knots)-K-2) are 0, rows outside the
    span are 0, and rows with non-finite x are NaN so bad inputs keep
    propagating.  Each value is computed with the same operations, in the
    same order and with the same ``DIVIDING_FLOOR`` guards as the Cox-de
    Boor recursion over all bases, so it is bit-identical to it.
    """
    x = np.asarray(x, dtype=float).ravel()
    m, W = _window_columns(x, np.asarray(knots, dtype=float), K)
    return m, np.stack(W, axis=1)


def basis_matrix(x: np.ndarray, knots: np.ndarray, K: int) -> np.ndarray:
    """All order-K basis values at once: shape (len(x), len(knots)-K-1).

    The dense scatter of ``basis_window``; rows with non-finite x are NaN.
    """
    x = np.asarray(x, dtype=float).ravel()
    m, W = basis_window(x, knots, K)
    n_bases = len(knots) - K - 1
    # Window slots that name no basis hold 0, so clipping them onto a
    # neighbouring column and summing leaves every basis value unchanged.
    cols = np.clip(m[:, None] - K + np.arange(K + 1), 0, n_bases - 1)
    flat = cols + np.arange(0, x.size * n_bases, n_bases)[:, None]
    B = np.bincount(flat.ravel(), W.ravel(), minlength=x.size * n_bases)
    B = B.reshape(x.size, n_bases).astype(float, copy=False)  # int when x is empty
    B[~np.isfinite(x)] = np.nan
    return B


def basis_window_on_tape(tape, knot_ids, K: int, x_ids, rows):
    """Record ``basis_window`` of every input at once; returns ``(m, W)``.

    ``knot_ids`` is an (h, n_knots) id matrix of knot sets and input n uses
    row ``rows[n]``.  ``m`` is as in ``basis_window`` and ``W`` an (M, K+1)
    id array of the window's bases.  The levels run in column form as in
    ``_window_columns``, one record per op over all inputs and window
    slots, so the record count depends on K alone.  A term whose
    denominator t[j+k] - t[j] is within ``DIVIDING_FLOOR`` of 0 is 0 with
    zero partials, as are the last level's slots that name no basis and
    rows outside the span, so no gradient reaches what the window does
    not use.  Outside the span the levels run on x = t[0], so a far-out
    input cannot overflow a lane that is masked anyway.
    """
    x_ids = np.asarray(x_ids).ravel()
    rows = np.asarray(rows).ravel()
    t = tape.value(knot_ids)
    x = tape.value(x_ids)
    n_knots = t.shape[1]
    n_bases = n_knots - K - 1
    m = (t[rows] <= x[:, None]).sum(axis=1) - 1
    inside = (m >= 0) & (m < n_knots - 1)
    m = np.where(inside, m, -1)
    base = np.maximum(m, 0)
    xs = np.where(inside, x, t[rows, 0])[:, None]
    dx = inside[:, None] * 1.0
    # Padded knot p + K is knot p, edge copies beyond; window knot p of input
    # n is padded knot base[n] + p, and x lies in [window knot K, K+1).
    padded = np.clip(np.arange(-K, n_knots + K), 0, n_knots - 1)
    tp, ip = t[:, padded], np.asarray(knot_ids)[:, padded]
    width = tp.shape[1]
    at = (rows * width + base)[:, None]
    left, right = at + np.arange(1, K + 1), at + np.arange(K + 1, 2 * K + 1)
    # numerators: columns p - 1 hold x - knot p (1 <= p <= K), columns K + q
    # hold knot K+1+q - x (q < K)
    x_col = x_ids[:, None]
    num = tape.record(
        "basis numerator",
        np.concatenate([xs - tp.ravel()[left], tp.ravel()[right] - xs], axis=1),
        np.concatenate([np.broadcast_to(x_col, left.shape), ip.ravel()[right]], axis=1),
        np.concatenate([np.broadcast_to(dx, left.shape), np.ones(right.shape)], axis=1),
        np.concatenate([ip.ravel()[left], np.broadcast_to(x_col, right.shape)], axis=1),
        np.concatenate([-np.ones(left.shape), np.broadcast_to(-dx, right.shape)], axis=1))
    # denominators t[p+k] - t[p] of every knot set and level, one record
    den = tape.sub(np.concatenate([ip[:, k:].ravel() for k in range(1, K + 1)]),
                   np.concatenate([ip[:, :-k].ravel() for k in range(1, K + 1)]))
    # valid[r]: slot r names a basis (rows outside the span name none)
    slot = m[:, None] - K + np.arange(K + 1)
    valid = inside[:, None] & (slot >= 0) & (slot < n_bases)
    W, off = None, 0
    for k in range(1, K + 1):
        # Slot s + 1's left term and slot s's right term share the
        # denominator at window position q = K - k + 1 + s.
        q = K - k + 1 + np.arange(k)
        d = den[off + (rows * (width - k))[:, None] + base[:, None] + q]
        off += len(t) * (width - k)
        d = np.concatenate([d, d], axis=1)
        live = tape.value(d) > DIVIDING_FLOOR
        if k == K:
            live &= np.concatenate([valid[:, 1:], valid[:, :-1]], axis=1)
        ratio = tape.div(num[:, np.concatenate([q - 1, K + np.arange(k)])], d, where=live)
        if k == 1:
            W = ratio[:, ::-1]      # the order-0 basis is 1
            continue
        terms = tape.mul(ratio, np.concatenate([W, W], axis=1))
        inner = tape.add(terms[:, :k - 1], terms[:, k + 1:])
        W = np.concatenate([terms[:, k:k + 1], inner, terms[:, k - 1:k]], axis=1)
    return m, W


@dataclass
class SplineGroup:
    """One activation: a grid, its G+K combination coefficients and its
    knot shift (None: the unshifted grid)."""

    knots: KnotVector
    coefficients: np.ndarray
    shift: np.ndarray | None = None

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.knots.n_bases,):
            raise TooFewCoefficients(
                f"need {self.knots.n_bases} coefficients, got {self.coefficients.shape}")

    def __call__(self, x):
        return spline_eval(x, self)

    def shifted_knots(self) -> np.ndarray:
        """The group's effective knots: the grid row, moved by ``shift``."""
        if self.shift is None:
            return self.knots.row
        return self.knots.knot_matrix([self.shift])[0]


def spline_values(x, knots: np.ndarray, K: int, coefficients: np.ndarray) -> np.ndarray:
    """sum_j c_j B_{j,K}(x) elementwise, shaped like x.

    Weights each window column by its gathered coefficient and sums the
    K+1 products left to right; window slots that name no basis are 0 and
    add nothing.
    """
    m, W = _window_columns(np.asarray(x, dtype=float).ravel(),
                           np.asarray(knots, dtype=float), K)
    # Padded entry m + 1 + r is coefficient m - K + r, and 0 where that
    # names no basis.
    padded = np.concatenate([np.zeros(K + 1), coefficients, np.zeros(K)])
    y = W[0]
    y *= padded.take(m + 1)
    for r in range(1, K + 1):
        W[r] *= padded.take(m + 1 + r)
        y += W[r]
    return y.reshape(np.shape(x))


def spline_eval(x, sg: SplineGroup):
    """sum_j c_j B_{j,K}(x); scalar in, scalar out (arrays broadcast)."""
    y = spline_values(x, sg.shifted_knots(), sg.knots.K, sg.coefficients)
    return float(y) if np.ndim(x) == 0 else y


def spline_on_tape(tape, knot_ids, K: int, coef_ids, x_ids, rows):
    """Record sum_j c_j B_{j,K}(x) at every input, over its basis window.

    ``coef_ids`` holds each input's coefficient ids, shaped (M, ..., G+K);
    the result has shape (M, ...).  Knot rows are as in
    ``basis_window_on_tape``.  Window slots that name no basis are 0 with
    no gradient, so their coefficient index is clipped onto a neighbour.
    """
    m, W = basis_window_on_tape(tape, knot_ids, K, x_ids, rows)
    coef_ids = np.asarray(coef_ids)
    lead = (len(m),) + (1,) * (coef_ids.ndim - 2) + (K + 1,)
    idx = np.clip(m[:, None] - K + np.arange(K + 1), 0, coef_ids.shape[-1] - 1)
    c = np.take_along_axis(coef_ids, idx.reshape(lead), axis=-1)
    return tape.sum(tape.mul(c, W.reshape(lead)), axis=-1)


# -- smoothness penalty -------------------------------------------------------


def second_difference_penalty(c, dg: float):
    """The smoothness penalty of coefficient rows and its gradient.

    P sums ((c[j-1] - 2 c[j] + c[j+1]) / dg^2)^2 along the last axis of
    ``c`` and over every row.  It is zero exactly when each row is affine
    in j and positive otherwise, and drives the learned splines toward a
    continuous second derivative.  Returns ``(P, dP/dc)``, where
    dP/dc = 2 D^T D c / dg^4 for the second-difference operator D.
    """
    c = np.asarray(c, dtype=float)
    if c.shape[-1] < 3:
        raise TooFewCoefficients(f"need at least 3 coefficients, got {c.shape[-1]}")
    dg2 = dg ** 2
    d2 = (c[..., :-2] - 2.0 * c[..., 1:-1] + c[..., 2:]) / dg2
    w = d2 * (2.0 / dg2)
    grad = np.zeros_like(c)
    grad[..., :-2] += w
    grad[..., 1:-1] -= 2.0 * w
    grad[..., 2:] += w
    return float(np.sum(d2 * d2)), grad


def coeff_second_difference_penalty(sg: SplineGroup) -> float:
    """The smoothness penalty of one spline group's coefficients."""
    return second_difference_penalty(sg.coefficients, sg.knots.dg)[0]
