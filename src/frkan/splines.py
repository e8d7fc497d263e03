"""B-spline knot vectors, basis evaluation, free-knot shifts, smoothness penalty.

Grid convention: G intervals on [a, b] give G+1 base points; K extra
points per side extend the grid at the uniform spacing dg = (b-a)/G, for
G+1+2K knots and G+K basis functions of order K.

Free shifts: a ``KnotVector`` is an immutable grid that holds no shift.
It builds its unshifted knot ``row`` once, and ``knot_plan(shifts)``
builds every shifted knot set from it, with the clamp's sources that
``shift_gradient`` reads, so each caller passes its shifts in: an FR-KAN
layer one row per group (and caches the plan), a ``SplineGroup`` its own.
A shift vector has one entry per base point (G+1 of them), but only
interior base points actually move -- the two endpoint base points stay
pinned at a and b so the basis partition of unity keeps holding on all
of [a, b] however the shifts train.  The shifted points are sorted with
the extension points and gaps clamped, so knots strictly increase.

Basis evaluation: de Boor's local recursion finds each input's knot span
and evaluates only the K+1 bases that can be nonzero there, with the
Cox-de Boor formulas and guards, so values are bit-identical to the full
recursion.  One loop, ``_cox_de_boor``, runs it over a knot set's kernel
tables (padded knots and each level's guarded denominators, built with
one gather and one guard; a ``KnotVector`` builds its row's once), and
``_window_levels`` adds the span search and edge fix-up.  A batch whose
every input lies in an interior span (K <= m <= G+K-1) needs no clamp and
no fix-up, and skips both.

Spline values come in two forms:

* the pp form (``pp_tables``, ``pp_values``): each knot set's spline,
  converted once per call into one polynomial per span, then per input
  one span search, K+2 gathers and a Horner loop.  It serves the
  cache-free values, ``spline_values`` and the cache-free FR-KAN forward,
  and agrees with the recursion to rounding, not bit for bit;
* the level form, ``_cox_de_boor``, behind the pp conversion at the knots
  and, through ``_window_levels``, ``basis_matrix`` (scattered by
  ``scatter_window``) and training's ``basis_window_on_tape``, which keeps
  the levels: ``window_backward`` runs them in reverse for the gradient
  with respect to x and the window's knots, and
  ``KnotVector.shift_gradient`` carries the knots' gradient onto the
  shifts through the clamp.

Smoothness penalty: ``second_difference_penalty`` gives the penalty of a
whole coefficient array and its closed-form gradient.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np


class InvalidRange(Exception):
    pass


class TooFewCoefficients(Exception):
    pass


# Minimum gap between consecutive effective knots, as a fraction of dg.
MIN_GAP_FACTOR = 1e-4
# Below this magnitude the basis kernel treats a denominator as 0 and its
# term as 0 (the 0/0 := 0 convention) instead of dividing.
DIVIDING_FLOOR = 1e-12


def _count(v, least=1) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= least


def _finite(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


@dataclass(frozen=True)
class KnotVector:
    """A grid range [a, b], G intervals and order K: an immutable value.

    ``row`` holds the unshifted knots, built once at construction.
    ``knot_plan`` builds every shifted knot set from it; a shift is
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
        reach = self.K * self.dg    # the extension points reach a - reach and b + reach
        if not all(map(math.isfinite, (self.b - self.a, self.a - reach, self.b + reach))):
            raise InvalidRange(f"b: [{self.a!r}, {self.b!r}] with its {self.K} extension "
                               "points per side overflows")
        left, right = self.extension_points()
        row = np.concatenate([left, self.base_points(), right])
        # the clamp of knot_plan leaves this row as it is: it is the
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

    @functools.cached_property
    def kernel_tables(self):
        """``row``'s ``_kernel_tables``, read-only, built once for every step."""
        tables = _kernel_tables(self.row, self.K)
        for a in (tables[0], *tables[1]):
            a.flags.writeable = False
        return tables

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
        return np.nextafter(lo, np.inf, out=lo, where=lo - prev < min_gap)

    def knot_plan(self, shifts):
        """``(knots, moved, entry)``: the effective knots of a
        (rows, G+1) shift matrix, one row per shift row, and what
        ``shift_gradient`` needs of them.

        Interior base points of ``row`` move by their shift, and each row
        is sorted with the extension points.  Left to right, a knot below
        the ``_floor`` of its clamped predecessor is raised to it, and a
        NaN knot stays.  The chain runs down the columns for all rows at
        once, from the first column it changes.  A knot carries the point
        the stable sort brings to it or, if raised, its predecessor's.
        ``moved`` marks the knots that carry an interior base point, and
        ``entry`` is the flat index of each one's shift in the shifts.
        """
        K, G = self.K, self.G
        points = np.repeat(self.row[None, :], len(shifts), axis=0)
        points[:, K + 1:K + G] += np.asarray(shifts, dtype=float)[:, 1:-1]
        order = np.argsort(points, axis=1, kind="stable")
        ordered = np.sort(points, axis=1)
        t = ordered.copy()
        low = np.flatnonzero((t[:, 1:] < self._floor(t[:, :-1])).any(axis=0))
        for i in range(low[0] + 1 if low.size else t.shape[1], t.shape[1]):
            lo = self._floor(t[:, i - 1])
            t[:, i] = np.where(t[:, i] < lo, lo, t[:, i])
        carried = np.maximum.accumulate(np.where(t == ordered, np.arange(t.shape[1]), 0), axis=1)
        source = order[np.arange(len(t))[:, None], carried]
        moved = (source > K) & (source < K + G)
        # point K + j of row r is moved by shift entry (r, j)
        entry = (source - K + (G + 1) * np.arange(len(t))[:, None])[moved]
        return t, moved, entry

    def knot_matrix(self, shifts) -> np.ndarray:
        """The effective knots of ``knot_plan``."""
        return self.knot_plan(shifts)[0]

    def shift_gradient(self, plan, gknots):
        """The gradient for a (rows, G+1) shift matrix, given the gradient
        ``gknots`` for the knots of its ``knot_plan``: each knot sends its
        gradient, with one ``bincount``, to the shift that moves the point
        it carries (the active-max derivative of the clamp); a knot
        carrying a fixed point sends none."""
        _, moved, entry = plan
        shape = (len(gknots), self.G + 1)
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


@functools.lru_cache(maxsize=64)
def _tables(n_knots: int, K: int):
    """The kernel's read-only index tables for rows of n_knots knots:
    ``pad``, the knot at each padded index p = j + K (K edge copies per
    side), and at row m + 1 (row 0: no span) ``valid``, whether each window
    slot of span m names a basis, and ``bases``, that basis clipped."""
    pad = np.clip(np.arange(-K, n_knots + K), 0, n_knots - 1)
    slots = np.arange(-1, n_knots - 1)[:, None] - K + np.arange(K + 1)
    n_bases = n_knots - K - 1
    valid = (slots >= 0) & (slots < n_bases)
    bases = np.clip(slots, 0, n_bases - 1)
    for a in (pad, valid, bases):
        a.flags.writeable = False
    return pad, valid, bases


@functools.lru_cache(maxsize=64)
def _level_index(n_rows: int, n_knots: int, K: int):
    """The read-only (K+1, L) flat index, into an (n_rows, n_knots) knot
    matrix, of padded knot p + k at row k (padded rows end to end, L of
    them in all; past the last padded knot, the last).  Row 0 maps each
    padded knot to its knot, for the backward's knot gradients."""
    flat = (_tables(n_knots, K)[0] + n_knots * np.arange(n_rows)[:, None]).ravel()
    at = flat[np.minimum(np.arange(flat.size) + np.arange(K + 1)[:, None], flat.size - 1)]
    at.flags.writeable = False
    return at


def _kernel_tables(t: np.ndarray, K: int):
    """A knot row's or matrix's padded knots ``tp`` (rows end to end) and
    each level k's denominators ``tp[p+k] - tp[p]``, one within
    DIVIDING_FLOOR of 0 made inf, so its weight is +0 (numerators are >= 0).
    One gather and one guard build every level; level k's last k entries
    pair a padded knot with the last one, and no window reads them."""
    T = t.take(_level_index(t.size // t.shape[-1], t.shape[-1], K))
    d = T[1:] - T[0]
    return T[0], list(np.where(np.abs(d) > DIVIDING_FLOOR, d, np.inf))


def _spans(x: np.ndarray, t: np.ndarray, K: int, rows):
    """``(m, base, xs, interior)``, flat: ``m[n]`` is the span with
    ``t[m] <= x[n] < t[m+1]``, or -1 when no half-open span holds x[n];
    window knot p of x[n] is padded knot ``base[n] + p`` (a padded copy
    only meets slots that name no basis), and ``xs`` is x, or the first
    knot of its row where m = -1.

    When every span is interior (K <= m <= n_bases - 1), ``m`` and x feed
    the window as they are: the clamp into the span would leave both
    unchanged and the edge fix-up would touch no row, so skipping them
    leaves every value, signed zeros included, as the general path gives
    it.  With ``rows``, each run of equal entries searches its block of x's
    last axis as one slice.
    """
    n_knots = t.shape[-1]
    if rows is None:
        m = np.searchsorted(t, x, side="right") - 1
    else:
        m = np.empty(x.shape, dtype=np.intp)
        cuts = [0, *(np.flatnonzero(rows[1:] != rows[:-1]) + 1).tolist(), len(rows)]
        for lo, hi in zip(cuts, cuts[1:]) if len(rows) else ():
            m[..., lo:hi] = np.searchsorted(t[rows[lo]], x[..., lo:hi], side="right") - 1
    # NaN sorts past the last knot, so a non-finite x is never interior.
    interior = bool(m.size) and K <= m.min() and m.max() <= n_knots - K - 2
    if interior:
        base, xs = m, x
    else:
        inside = (m >= 0) & (m < n_knots - 1)
        m = np.where(inside, m, -1)
        base = np.maximum(m, 0)
        xs = np.where(inside, x, t[0] if rows is None else t[rows, 0])
    if rows is not None:    # padded rows lie end to end; no window crosses one
        base = base + rows * (n_knots + 2 * K)
    return m.ravel(), base.ravel(), xs.ravel(), interior


def _fix_edges(W, m: np.ndarray, x: np.ndarray, K: int, n_bases: int):
    """Zero each window slot of ``W`` (K+1 rows over the inputs) that names
    no basis, and make every slot of a non-finite x NaN so bad inputs keep
    propagating.  Only rows outside the span or in its first or last K
    spans hold such slots; non-finite x has no span (m = -1)."""
    edge = np.flatnonzero((m < K) | (m > n_bases - 1))
    if edge.size:
        named = _tables(n_bases + K + 1, K)[1][m[edge] + 1]
        bad = edge[~np.isfinite(x.ravel()[edge])]
        for r, w in enumerate(W):
            w[edge] *= named[:, r]
            w[bad] = np.nan


def _cox_de_boor(xs, base, tp, dens, K: int, levels=None):
    """The (K+1, N) window at ``xs``, row r holding slot r, before any edge
    fix-up; window knot p is padded knot ``base + p`` of the kernel tables
    ``tp`` and ``dens``.

    Level k's denominator j (knot p+k - knot p, p = K-k+1+j) divides slot
    j's right ratio b_j and slot j+1's left ratio a_j, and slot j sums
    a_{j-1} W_{j-1} + b_j W_j in that order: the operations, order and
    guards of the recursion over all bases, so the values are
    bit-identical to it.  A ``levels`` list gets each level's (k, N)
    denominators, left and right ratios and the level below (1.0 at
    k = 1), for ``window_backward``.
    """
    # x lies in [knot K, knot K+1): left[p-1] = x - knot p for 1 <= p <= K,
    # right[q] = knot K+1+q - x for q < K.
    at = base + np.arange(1, K + 1)[:, None]
    left, right = tp.take(at), tp[K:].take(at)
    # in place: a large N's fresh arrays cost page faults, not just copies
    np.subtract(xs, left, out=left)
    right -= xs
    W = 1.0     # the order-0 basis
    for k in range(1, K + 1):
        den = dens[k - 1].take(at[K - k:])
        b, a = right[:k] / den, left[K - k:] / den
        if levels is not None:
            levels.append((den, a, b, W))
        if k == 1:
            nxt = np.concatenate((b, a))
        else:
            nxt = np.empty((k + 1, xs.size))
            np.multiply(b[0], W[0], out=nxt[0])
            np.multiply(a, W, out=nxt[1:])
            nxt[1:k] += b[1:] * W[1:]
        W = nxt
    return W


def _window_levels(x: np.ndarray, t: np.ndarray, K: int, rows=None, tables=None,
                   levels=None):
    """The window of K+1 possibly-nonzero order-K bases at each x:
    ``(m, W, base, interior)``, flat; K >= 1.

    ``m``, ``base`` and ``interior`` are ``_spans``', and ``W[r, n]`` of the
    (K+1, N) window is basis ``m[n] - K + r``: 0 for a slot naming no basis
    or a row outside the span, NaN for non-finite x.  ``t`` is one knot
    row for flat ``x``; with ``rows`` an (h, n_knots) knot matrix, input n
    (or column n of a 2-D x) using row ``rows[n]``.  ``tables`` are ``t``'s
    ``_kernel_tables``; ``levels`` goes to ``_cox_de_boor``.
    """
    tp, dens = _kernel_tables(t, K) if tables is None else tables
    m, base, xs, interior = _spans(x, t, K, rows)
    W = _cox_de_boor(xs, base, tp, dens, K, levels)
    if not interior:
        _fix_edges(W, m, x, K, t.shape[-1] - K - 1)
    return m, W, base, interior


def window_backward(levels, K: int, gW, knots=True):
    """The levels of ``_cox_de_boor`` run in reverse.

    ``gW`` is the gradient of the window, shaped (..., K+1, N), with any
    leading seed axes; a slot the kernel zeroed (one that names no basis,
    or a row outside the span) must have zero gradient.  Returns
    ``(gx, gT)``: the gradient for x, shaped (..., N), and for the padded
    window knots 0..2K+1, shaped (..., 2K+2, N), or None without
    ``knots`` (a fixed grid), which skips that half.  A ratio (x - knot
    p)/D or (knot p+k - x)/D with D = knot p+k - knot p sends its gradient
    to x, to both knots and, through D, to both knots again.  A guarded
    denominator is inf, so its terms send nothing.
    """
    gx = 0.0
    gT = np.zeros(gW.shape[:-2] + (2 * K + 2, gW.shape[-1])) if knots else None
    for k in range(K, 0, -1):
        den, lo, ro, W = levels[k - 1]
        wi = W / den
        # denominator j's left ratio feeds slot j+1, its right ratio slot j
        g_hi, g_lo = gW[..., 1:, :], gW[..., :-1, :]
        ai, bi = g_hi * wi, g_lo * wi
        gx = gx + (ai - bi).sum(axis=-2)
        if knots:
            gd = ai * lo + bi * ro      # minus the gradient for D
            gT[..., K - k + 1:K + 1, :] += gd - ai
            gT[..., K + 1:K + k + 1, :] += bi - gd
        if k > 1:   # no level reads the order-0 window's gradient
            gW = g_hi * lo + g_lo * ro
    return gx, gT


def scatter_window(x: np.ndarray, m: np.ndarray, W: np.ndarray, n_bases: int):
    """The (N, K+1) window ``W`` of spans ``m`` scattered into the dense
    (N, n_bases) basis, and the flat index in it of each window slot;
    rows with non-finite x are NaN."""
    # Window slots that name no basis hold 0, so clipping them onto a
    # neighbouring column and summing leaves every basis value unchanged.
    flat = window_bases(m, n_bases, W.shape[1] - 1)
    flat += np.arange(0, x.size * n_bases, n_bases)[:, None]
    B = np.bincount(flat.ravel(), W.ravel(), minlength=x.size * n_bases)
    B = B.reshape(x.size, n_bases).astype(float, copy=False)  # int when x is empty
    B[~np.isfinite(x)] = np.nan
    return B, flat


def window_bases(m: np.ndarray, n_bases: int, K: int) -> np.ndarray:
    """The (N, K+1) basis index of each window slot of spans ``m``, with a
    slot that names no basis clipped into range."""
    return _tables(n_bases + K + 1, K)[2][m + 1]


def basis_matrix(x: np.ndarray, knots: np.ndarray, K: int) -> np.ndarray:
    """All order-K basis values at once: shape (len(x), len(knots)-K-1).

    The ``_window_levels`` window, with no levels kept, scattered densely;
    non-finite x gives NaN rows.
    """
    x = np.asarray(x, dtype=float).ravel()
    m, W = _window_levels(x, np.asarray(knots, dtype=float), K)[:2]
    return scatter_window(x, m, W.T, len(knots) - K - 1)[0]


def basis_window_on_tape(x: np.ndarray, t, K: int, rows=None):
    """The ``_window_levels`` window of every input ``x`` and its backward.

    ``t`` is a knot row, or a ``KnotVector`` (its row, with the tables it
    built once), and ``x`` flat; or with ``rows`` an (h, n_knots) knot
    matrix, read as in ``_window_levels``.  Returns ``(m, W, backward)``,
    ``W`` the (M, K+1) window over the flat inputs (a view of the level
    form's).  ``backward(gW)`` zeroes the gradient of each slot that names
    no basis, runs ``window_backward`` and returns ``(gx, gt)``: window
    knots 1..2K send their gradient to their knot of the knot matrix, with
    one ``bincount``, and ``gt`` is shaped like ``t``.  A single knot row
    is a fixed grid: its ``gt`` is None and the knots' half is skipped.

    The function keeps its name because the benchmark's tracer
    (``bench/benchlib/trace.py``) times it on every training step; the name
    can go once the benchmark names the backward path (ROADMAP, item 1).
    """
    tables, levels = None, []
    if isinstance(t, KnotVector):
        tables, t = t.kernel_tables, t.row
    m, W, base, interior = _window_levels(x, t, K, rows, tables, levels)

    def backward(gW):
        gW = gW.T if interior else gW.T * _tables(t.shape[-1], K)[1][m + 1].T
        gx, gT = window_backward(levels, K, gW, rows is not None)
        if rows is None:
            return gx, None
        # row 0 of the level index maps each padded knot to its knot
        knot = _level_index(len(t), t.shape[-1], K)[0]
        at = knot.take(base + np.arange(1, 2 * K + 1)[:, None])
        gt = np.bincount(at.ravel(), gT[1:-1].ravel(), minlength=t.size)
        return gx, gt.reshape(t.shape)

    return m, W.T, backward


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

    def shifted_knots(self) -> np.ndarray:
        """The group's effective knots: the grid row, moved by ``shift``."""
        if self.shift is None:
            return self.knots.row
        return self.knots.knot_matrix([self.shift])[0]


def pp_tables(t: np.ndarray, K: int, c: np.ndarray):
    """The per-span polynomial (pp) form of sum_j c_j B_{j,K} on a knot
    row ``t`` with its coefficients ``c``, or on every row of a knot matrix
    with one coefficient row each: ``(origin, Q)``.

    Span i = searchsorted(t, x, side="right") of a row holds the x in
    [t[i-1], t[i]), where the spline is sum_k Q[k, ..., i] u^k with
    u = x - origin[..., i], origin[..., i] = t[i-1] and Q[k, ..., i] =
    s^(k)(t[i-1]+)/k!.  Spans 0 and n_knots lie outside the knots: their
    entries are 0 (origin t[0] and t[-1]).  ``origin`` is shaped like
    ``t`` with one more column, ``Q`` is (K+1,) + origin's shape.

    This is de Boor's B-form to pp-form conversion (``bsplpp``, *A
    Practical Guide to Splines*, 1978).  The derivative of a degree-deg
    spline has coefficients deg (c_i - c_{i-1}) / (t_{i+deg} - t_i),
    i = 0..n_bases (c_{-1} = c_{n_bases} = 0), on the same knots, with a
    gap within DIVIDING_FLOOR of 0 taken as inf, as in the kernel; level k
    also divides by k, so it holds the coefficients of s^(k)/k!.  Column k
    is that spline at the knots, from ``_cox_de_boor`` with no levels kept,
    and the degree-0 column reads its coefficients.
    """
    t, d = np.asarray(t, dtype=float), np.asarray(c, dtype=float)
    n, lead = t.shape[-1], t.shape[:-1]
    x, row = t[..., :-1].ravel(), np.arange(t.size // n)[:, None]
    Q = np.zeros((K + 1,) + lead + (n + 1,))
    for k in range(K):
        deg = K - k
        # Knot j of a row starts span j, so its window knot p is padded knot
        # j + p, and slot r names coefficient j - deg + r: entry j + 1 + r of
        # the row between deg + 1 leading and deg trailing zeros.  A slot
        # that names no basis reads a 0, so no edge fix-up is needed.
        W = _cox_de_boor(x, (np.arange(n - 1) + (n + 2 * deg) * row).ravel(),
                         *_kernel_tables(t, deg), deg)
        padded = np.zeros(lead + (n + deg,))
        padded[..., deg + 1:n] = d
        at = (np.arange(1, n) + (n + deg) * row).ravel() + np.arange(deg + 1)[:, None]
        y = (W * padded.ravel().take(at)).sum(axis=0)     # slot by slot, in order
        Q[k, ..., 1:n] = y.reshape(lead + (n - 1,))
        gap = t[..., deg:] - t[..., :n - deg]
        gap = np.where(np.abs(gap) > DIVIDING_FLOOR, gap, np.inf)
        # c_i - c_{i-1} for i = 0..n_bases, with the padding's zeros at both ends
        d = (padded[..., deg + 1:n + 1] - padded[..., deg:n]) * (deg / (k + 1)) / gap
    Q[K, ..., 1:n] = d
    return np.concatenate([t[..., :1], t], axis=-1), Q


def pp_values(x: np.ndarray, t: np.ndarray, origin: np.ndarray, Q: np.ndarray):
    """The spline of one knot row's ``pp_tables`` at each flat x: one span
    search, K+2 gathers and a Horner loop.

    An x outside the knots reads a zero row with u = 0, so it gives +0,
    and a non-finite x gives NaN, as the recursion does; when every x lies
    inside the knots, there is nothing to fix.
    """
    i = np.searchsorted(t, x, side="right")
    u = origin.take(i)
    np.subtract(x, u, out=u)
    bad = None
    if i.size and not (i.min() >= 1 and i.max() < t.size):
        edge = np.flatnonzero((i == 0) | (i == t.size))
        u[edge] = 0.0     # no inf * 0 in the loop
        bad = edge[~np.isfinite(x[edge])]
    y = Q[-1].take(i)
    for q in Q[-2::-1]:
        y *= u
        y += q.take(i)
    if bad is not None:
        y[bad] = np.nan
    return y


def spline_values(x, knots: np.ndarray, K: int, coefficients: np.ndarray) -> np.ndarray:
    """sum_j c_j B_{j,K}(x) elementwise, shaped like x: 0 outside the
    knots, NaN at a non-finite x.

    Evaluated in pp form (``pp_tables`` and ``pp_values``), so it agrees
    with the recursion to rounding, within 1e-13 of max|c|, not bit for bit.
    """
    t = np.asarray(knots, dtype=float)
    origin, Q = pp_tables(t, K, coefficients)
    return pp_values(np.asarray(x, dtype=float).ravel(), t, origin, Q).reshape(np.shape(x))


def spline_eval(x, sg: SplineGroup):
    """sum_j c_j B_{j,K}(x); scalar in, scalar out (arrays broadcast)."""
    y = spline_values(x, sg.shifted_knots(), sg.knots.K, sg.coefficients)
    return float(y) if np.ndim(x) == 0 else y


# -- smoothness penalty -------------------------------------------------------


def second_difference_penalty(c, dg: float, gradient=True):
    """The smoothness penalty of coefficient rows and its gradient.

    P sums ((c[j-1] - 2 c[j] + c[j+1]) / dg^2)^2 along the last axis of
    ``c`` and over every row.  It is zero exactly when each row is affine
    in j and positive otherwise, and drives the learned splines toward a
    continuous second derivative.  Returns ``(P, dP/dc)``, where
    dP/dc = 2 D^T D c / dg^4 for the second-difference operator D, or
    ``(P, None)`` without ``gradient``.
    """
    c = np.asarray(c, dtype=float)
    if c.shape[-1] < 3:
        raise TooFewCoefficients(f"need at least 3 coefficients, got {c.shape[-1]}")
    dg2 = dg ** 2
    d2 = (c[..., :-2] - 2.0 * c[..., 1:-1] + c[..., 2:]) / dg2
    if not gradient:
        return float(np.sum(d2 * d2)), None
    w = d2 * (2.0 / dg2)
    grad = np.zeros_like(c)
    grad[..., :-2] += w
    grad[..., 1:-1] -= 2.0 * w
    grad[..., 2:] += w
    return float(np.sum(d2 * d2)), grad
