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

Basis evaluation: one array kernel, ``_window_columns``, finds each
input's knot span and evaluates only the K+1 bases that can be nonzero
there (de Boor's local recursion, with the Cox-de Boor formulas and
guards, so values are bit-identical to the full recursion).  It works in
column form, one array per window slot, and gathers each level's
denominators once: slot r's second denominator t[j+k+1] - t[j+1] is slot
r+1's first.  It is the only level recursion here.  ``basis_window``
stacks the columns into an (N, K+1) window, ``spline_values`` weights
each column by its gathered coefficient and sums them, and
``basis_matrix`` is the window scattered into the dense (N, G+K) array
(``scatter_window``), for callers that share one basis row across many
coefficient sets.  Asked to, the kernel keeps each level's ratios, and
``window_backward`` runs the levels in reverse for the gradient with
respect to x and the window's knots.  ``basis_window_on_tape`` is the
kernel call that keeps the levels, over one knot row or a knot matrix;
its backward scatters the window knots' gradients onto the knot matrix,
and ``KnotVector.shift_gradient`` carries those onto the shifts through
the clamp.

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
        t = self._points(shifts)
        t.sort(axis=1)
        low = np.flatnonzero((t[:, 1:] < self._floor(t[:, :-1])).any(axis=0))
        for i in range(low[0] + 1 if low.size else t.shape[1], t.shape[1]):
            lo = self._floor(t[:, i - 1])
            t[:, i] = np.where(t[:, i] < lo, lo, t[:, i])
        return t

    def _points(self, shifts):
        """Each row of ``row`` with its interior base points moved by the
        matching shift row: the points ``knot_matrix`` sorts."""
        shifts = np.asarray(shifts, dtype=float)
        t = np.tile(self.row, (len(shifts), 1))
        t[:, self.K + 1:self.K + self.G] += shifts[:, 1:-1]
        return t

    def shift_gradient(self, shifts, knots, gknots):
        """The gradient for a (rows, G+1) shift matrix, given the gradient
        ``gknots`` for its knot matrix ``knots = knot_matrix(shifts)``.

        Each knot sends its gradient, with one ``bincount``, to the shift
        entry of the point the clamp chain carries to it after the stable
        sort (the active-max derivative of the clamp); a knot carrying a
        fixed point sends none.
        """
        K, G = self.K, self.G
        points = self._points(shifts)
        order = np.argsort(points, axis=1, kind="stable")
        # a knot the clamp raised carries its predecessor's point
        kept = knots == np.take_along_axis(points, order, axis=1)
        carried = np.maximum.accumulate(np.where(kept, np.arange(knots.shape[1]), 0), axis=1)
        source = np.take_along_axis(order, carried, axis=1)
        moved = (source > K) & (source < K + G)
        # point K + j of row r is moved by shift entry (r, j)
        entry = (source - K + (G + 1) * np.arange(len(points))[:, None])[moved]
        shape = (len(points), G + 1)
        return np.bincount(entry, gknots[moved], minlength=shape[0] * shape[1]).reshape(shape)

    def assert_sorted(self, knots):
        """Raise InvalidRange unless every gap of ``knots`` (a knot row, or
        each row of a knot matrix) is at least min_gap."""
        gaps = np.diff(knots, axis=-1)
        if not np.all(gaps >= self.min_gap):
            raise InvalidRange(f"effective knots degenerate: min gap {gaps.min()!r}")


def make_uniform_grid(a: float, b: float, G: int, K: int) -> KnotVector:
    """Equispaced base points on [a, b]."""
    return KnotVector(a=a, b=b, G=G, K=K)


def init_shift(kv: KnotVector, Z: float, seed) -> np.ndarray:
    """Draw i.i.d. uniform shifts with half-width (b - a) / (Z * G).

    The raw draws are scale-free uniforms on [-1, 1]; two grids sharing a
    seed therefore differ only by the half-width factor.  ``seed`` may be
    a ``np.random.Generator``, which the draw advances.
    """
    if Z <= 0:
        raise InvalidRange(f"need Z > 0, got {Z}")
    half = (kv.b - kv.a) / (Z * kv.G)
    rng = np.random.default_rng(seed)
    return half * rng.uniform(-1.0, 1.0, size=kv.G + 1)


# -- basis evaluation --------------------------------------------------------


def _window_columns(x: np.ndarray, t: np.ndarray, K: int, levels=None, rows=None):
    """``basis_window`` in column form: ``(m, [K+1 arrays])``; x flat, K >= 1.

    With ``rows``, ``t`` is an (h, n_knots) knot matrix and input n uses
    row ``rows[n]``.  Passed a list, ``levels`` receives one entry per
    level k for ``window_backward``: its k denominators, its left and
    right ratios (one per denominator) and the level below.
    """
    n_knots = t.shape[-1]
    n_bases = n_knots - K - 1
    if rows is None:
        m = np.searchsorted(t, x, side="right") - 1
        first = t[0]
    else:
        m = np.empty(x.shape, dtype=np.intp)
        for g, row in enumerate(t):
            at = rows == g
            m[at] = np.searchsorted(row, x[at], side="right") - 1
        first = t[rows, 0]
    inside = (m >= 0) & (m < n_knots - 1)
    m = np.where(inside, m, -1)
    # Knots padded with K edge copies per side: padded index p = j + K, so
    # every window index is in bounds.  Padded knots only reach window
    # slots that name no basis, which are zeroed at the end.  Padded rows
    # lie end to end, and no window reaches into the next row.
    tp = t[..., np.clip(np.arange(-K, n_knots + K), 0, n_knots - 1)].ravel()
    base = np.maximum(m, 0)
    if rows is not None:
        base += rows * (n_knots + 2 * K)
    xs = np.where(inside, x, first)
    # Window knot p is tp[base + p], and x lies in [knot K, knot K+1):
    # left[p] = x - knot p for 1 <= p <= K, right[q] = knot K+1+q - x for
    # q < K.  No level reads left[0] or right[K].
    left = [None] + [xs - tp[p:].take(base) for p in range(1, K + 1)]
    right = [tp[p:].take(base) - xs for p in range(K + 1, 2 * K + 1)]
    W = [1.0]   # the order-0 basis
    for k in range(1, K + 1):
        # A denominator within DIVIDING_FLOOR of 0 becomes inf, so its
        # weight is +0 as in the full recursion: numerators are >= 0.
        # Denominator j, knot p+k - knot p at p = K-k+1+j, divides slot
        # j+1's left term and slot j's right term, so level k gathers its
        # k distinct denominators once.
        d = tp[k:] - tp[:-k]
        d = np.where(np.abs(d) > DIVIDING_FLOOR, d, np.inf)
        den = [d[p:].take(base) for p in range(K - k + 1, K + 1)]
        lo, ro, nxt = [], [], []
        for j in range(k):
            # b before a: the last b is dropped before a new array is made,
            # which keeps the peak memory of summing slot by slot
            b = right[j] / den[j]               # slot j's right ratio
            a = left[K - k + 1 + j] / den[j]    # slot j+1's left ratio
            if levels is not None:
                lo.append(a)
                ro.append(b)
                a, b = a * W[j], b * W[j]
            elif k > 1:
                a *= W[j]
                b *= W[j]
            if j:
                nxt[j] += b
            else:
                nxt.append(b)
            nxt.append(a)
        if levels is not None:
            levels.append((den, lo, ro, W))
        W = nxt
    # Only rows outside the span or in its first or last K spans hold slots
    # that name no basis.  valid[m + 1, r]: slot r of span m names a basis
    # (row 0: no span).
    edge = np.flatnonzero((m < K) | (m > n_bases - 1))
    cols = np.arange(-1, n_knots - 1)[:, None] - K + np.arange(K + 1)
    valid = ((cols >= 0) & (cols < n_bases))[m[edge] + 1]
    bad = edge[~np.isfinite(x[edge])]   # non-finite x has no span: m = -1
    for r, w in enumerate(W):
        w[edge] *= valid[:, r]
        w[bad] = np.nan
    return m, W


def window_backward(levels, K: int, gW):
    """The levels of ``_window_columns`` run in reverse.

    ``gW`` is the gradient of the window, shaped (..., K+1, N), with any
    leading seed axes; a slot the kernel zeroed (one that names no basis,
    or a row outside the span) must have zero gradient.  Returns
    ``(gx, gT)``: the gradient for x, shaped (..., N), and for the padded
    window knots 0..2K+1, shaped (..., 2K+2, N).  A ratio (x - knot p)/D
    or (knot p+k - x)/D with D = knot p+k - knot p sends its gradient to
    x, to both knots and, through D, to both knots again.  A guarded
    denominator is inf, so its terms send nothing.
    """
    gx = 0.0
    gT = np.zeros(gW.shape[:-2] + (2 * K + 2, gW.shape[-1]))
    for k in range(K, 0, -1):
        # (k, N) arrays; the order-0 level below level 1 is [1.0]
        den, lo, ro, W = (np.asarray(v) for v in levels[k - 1])
        wi = W / den
        # denominator j's left ratio feeds slot j+1, its right ratio slot j
        g_hi, g_lo = gW[..., 1:, :], gW[..., :-1, :]
        ai, bi = g_hi * wi, g_lo * wi
        gd = ai * lo + bi * ro      # minus the gradient for D
        gx = gx + (ai - bi).sum(axis=-2)
        gT[..., K - k + 1:K + 1, :] += gd - ai
        gT[..., K + 1:K + k + 1, :] += bi - gd
        gW = g_hi * lo + g_lo * ro
    return gx, gT


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


def scatter_window(x: np.ndarray, m: np.ndarray, W: np.ndarray, n_bases: int):
    """The (N, K+1) window ``W`` of spans ``m`` scattered into the dense
    (N, n_bases) basis, and the flat index in it of each window slot;
    rows with non-finite x are NaN."""
    K = W.shape[1] - 1
    # Window slots that name no basis hold 0, so clipping them onto a
    # neighbouring column and summing leaves every basis value unchanged.
    cols = np.clip(m[:, None] - K + np.arange(K + 1), 0, n_bases - 1)
    flat = cols + np.arange(0, x.size * n_bases, n_bases)[:, None]
    B = np.bincount(flat.ravel(), W.ravel(), minlength=x.size * n_bases)
    B = B.reshape(x.size, n_bases).astype(float, copy=False)  # int when x is empty
    B[~np.isfinite(x)] = np.nan
    return B, flat


def basis_matrix(x: np.ndarray, knots: np.ndarray, K: int) -> np.ndarray:
    """All order-K basis values at once: shape (len(x), len(knots)-K-1).

    The dense scatter of ``basis_window``; rows with non-finite x are NaN.
    """
    x = np.asarray(x, dtype=float).ravel()
    return scatter_window(x, *basis_window(x, knots, K), len(knots) - K - 1)[0]


def basis_window_on_tape(x: np.ndarray, t: np.ndarray, K: int, rows=None):
    """``basis_window`` of every flat input ``x`` at once, and its backward.

    ``t`` is one knot row, or with ``rows`` an (h, n_knots) knot matrix
    whose row ``rows[n]`` input n uses.  One ``_window_columns`` call,
    keeping its levels, gives ``m`` as in ``basis_window`` and the (M, K+1)
    window ``W``.  Returns ``(m, W, backward)``.  ``backward(gW)`` zeroes
    the gradient of every slot that names no basis (all slots of a row
    outside the span), runs ``window_backward`` and returns ``(gx, gt)``:
    window knots 1..2K send their gradient to their knot of the knot
    matrix, with one ``bincount``, and ``gt`` is shaped like ``t``.  A
    single knot row is a fixed grid, and its ``gt`` is None.

    The function keeps its name because the benchmark's tracer
    (``bench/benchlib/trace.py``) times it on every training step; the name
    can go once the benchmark names the backward path (ROADMAP, item 1).
    """
    levels = []
    m, W = _window_columns(x, t, K, levels, rows)
    n_knots = t.shape[-1]
    slot = m - K + np.arange(K + 1)[:, None]
    used = (slot >= 0) & (slot < n_knots - K - 1)

    def backward(gW):
        gx, gT = window_backward(levels, K, gW.T * used)
        if rows is None:
            return gx, None
        # window knot p of input n is knot base + p - K of its row, edge copies beyond
        knot = np.clip(np.maximum(m, 0) + np.arange(1 - K, K + 1)[:, None], 0, n_knots - 1)
        knot += rows * n_knots
        gt = np.bincount(knot.ravel(), gT[1:-1].ravel(), minlength=t.size)
        return gx, gt.reshape(t.shape)

    return m, np.stack(W, axis=1), backward


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
