"""B-spline knot vectors, basis evaluation, free-knot shifts, smoothness penalty.

Grid convention: G intervals on [a, b] give G+1 base points; K extra
points per side extend the grid at the uniform spacing dg = (b-a)/G, for
G+1+2K knots and G+K basis functions of order K.

Free shifts: the learnable shift vector has one entry per base point
(G+1 of them), but only interior base points actually move -- the two
endpoint base points stay pinned at a and b so the basis partition of
unity keeps holding on all of [a, b] no matter how the shifts train.
The shifted points are sorted together with the (fixed) extension points
and consecutive gaps are clamped to a minimum, so effective knots are
always strictly increasing.

Basis evaluation: ``basis_window`` is the one array kernel.  It finds each
input's knot span and evaluates only the K+1 bases that can be nonzero
there (de Boor's local recursion, with the Cox-de Boor formulas and
guards, so values are bit-identical to the full recursion).
``spline_values`` contracts a window with its K+1 coefficients, and
``basis_matrix`` is the window scattered into the dense (N, G+K) array,
for callers that share one basis row across many coefficient sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import DIVIDING_FLOOR, Tape, locate_span


class InvalidRange(Exception):
    pass


class TooFewCoefficients(Exception):
    pass


# Minimum gap between consecutive effective knots, as a fraction of dg.
MIN_GAP_FACTOR = 1e-4


@dataclass
class KnotVector:
    """A grid range, its learnable shift, and the derived sorted knots."""

    a: float
    b: float
    G: int
    K: int
    shift: np.ndarray = None  # (G+1,), entries 0 and G have no effect

    def __post_init__(self):
        if self.b <= self.a:
            raise InvalidRange(f"need b > a, got [{self.a}, {self.b}]")
        if self.G < 1 or self.K < 1:
            raise InvalidRange(f"need G >= 1 and K >= 1, got G={self.G}, K={self.K}")
        if self.shift is None:
            self.shift = np.zeros(self.G + 1)
        self.shift = np.asarray(self.shift, dtype=float)
        if self.shift.shape != (self.G + 1,):
            raise InvalidRange(f"shift must have {self.G + 1} entries")

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

    def shifted_points(self) -> np.ndarray:
        """Base points with the interior shift applied (endpoints pinned)."""
        pts = self.base_points()
        if self.G > 1:
            pts[1:-1] += self.shift[1:-1]
        return pts

    def effective_knots(self) -> np.ndarray:
        """Sorted, gap-clamped knot positions (plain values, no gradients)."""
        left, right = self.extension_points()
        g = np.sort(np.concatenate([left, self.shifted_points(), right]))
        return _clamp_gaps(g, self.min_gap)

    def assert_sorted(self):
        g = self.effective_knots()
        gaps = np.diff(g)
        # clamped gaps equal min_gap only up to the rounding of (x + gap) - x
        if not np.all(gaps >= self.min_gap * (1.0 - 1e-9)):
            raise InvalidRange(f"effective knots degenerate: min gap {gaps.min()!r}")

    def tape_knots(self, tape: Tape, shift_ids=None):
        """Record the shift-sort-clamp transform; returns (ids, values).

        ``shift_ids`` holds G+1 tape node ids for the shift entries (the
        endpoint entries are ignored, matching the pinned semantics).
        With ``shift_ids=None`` the knots are recorded as constants.
        """
        left, right = self.extension_points()
        base = self.base_points()
        ids = [tape.constant(v) for v in left]
        ids.append(tape.constant(base[0]))
        for i in range(1, self.G):
            if shift_ids is None:
                ids.append(tape.constant(base[i] + self.shift[i]))
            else:
                ids.append(tape.add(tape.constant(base[i]), shift_ids[i]))
        ids.append(tape.constant(base[-1]))
        ids.extend(tape.constant(v) for v in right)

        vals = tape.values(ids)
        perm = np.argsort(vals, kind="stable")
        sorted_ids = tape.select_permutation(ids, perm.tolist())

        gap_id = tape.constant(self.min_gap)
        out = [sorted_ids[0]]
        for i in range(1, len(sorted_ids)):
            out.append(tape.maximum(sorted_ids[i], tape.add(out[-1], gap_id)))
        return out, tape.values(out)


def _clamp_gaps(g: np.ndarray, min_gap: float) -> np.ndarray:
    # Sequential max keeps untouched knots bit-identical to their inputs;
    # the same chain is recorded on the tape path.
    out = g.copy()
    for i in range(1, out.size):
        lo = out[i - 1] + min_gap
        if out[i] < lo:
            out[i] = lo
    return out


def make_uniform_grid(a: float, b: float, G: int, K: int) -> KnotVector:
    """Equispaced base points on [a, b] with zero shift."""
    return KnotVector(a=float(a), b=float(b), G=int(G), K=int(K))


def apply_free_shift(kv: KnotVector) -> np.ndarray:
    """Sorted effective knots after applying the learnable shift."""
    return kv.effective_knots()


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


def basis_k0(x: float, knots, j: int) -> float:
    """Order-0 indicator: 1 on [knot_j, knot_{j+1}), else 0."""
    return 1.0 if knots[j] <= x < knots[j + 1] else 0.0


def basis(x: float, knots, j: int, k: int) -> float:
    """Cox-de Boor recursion; 0/0 terms resolve to 0."""
    if k == 0:
        return basis_k0(x, knots, j)
    v = 0.0
    d1 = knots[j + k] - knots[j]
    if abs(d1) > DIVIDING_FLOOR:
        v += (x - knots[j]) / d1 * basis(x, knots, j, k - 1)
    d2 = knots[j + k + 1] - knots[j + 1]
    if abs(d2) > DIVIDING_FLOOR:
        v += (knots[j + k + 1] - x) / d2 * basis(x, knots, j + 1, k - 1)
    return v


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
    t = np.asarray(knots, dtype=float)
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
    # left[p] = x - knot p for p <= K, right[q] = knot K+1+q - x.
    left = [xs - tp[p:].take(base) for p in range(K + 1)]
    right = [tp[p:].take(base) - xs for p in range(K + 1, 2 * K + 2)]
    W = [np.ones(x.size)]
    for k in range(1, K + 1):
        # A denominator within DIVIDING_FLOOR of 0 becomes inf, so its
        # weight is +0 as in the full recursion: numerators are >= 0.
        d1 = tp[k:] - tp[:-k]
        d2 = tp[k + 1:] - tp[1:-k]
        d1 = np.where(np.abs(d1) > DIVIDING_FLOOR, d1, np.inf)
        d2 = np.where(np.abs(d2) > DIVIDING_FLOOR, d2, np.inf)
        nxt = []
        for r in range(k + 1):
            p = K - k + r   # padded index of basis m - k + r, relative to base
            v = None
            if r > 0:
                v = left[p] / d1[p:].take(base) * W[r - 1]
            if r < k:
                w2 = right[r] / d2[p:].take(base) * W[r]
                v = w2 if v is None else v + w2
            nxt.append(v)
        W = nxt
    W = np.stack(W, axis=1)
    # Only rows outside the span or in its first or last K spans hold slots
    # that name no basis.  valid[m + 1, r]: slot r of span m names a basis
    # (row 0: no span).
    edge = np.flatnonzero((m < K) | (m > n_bases - 1))
    cols = np.arange(-1, t.size - 1)[:, None] - K + np.arange(K + 1)
    valid = (cols >= 0) & (cols < n_bases)
    W[edge] *= valid[m[edge] + 1]
    W[edge[~np.isfinite(x[edge])]] = np.nan   # non-finite x has no span: m = -1
    return m, W


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


def basis_window_on_tape(tape: Tape, knot_ids, knot_values, K: int, x_id: int):
    """Record the K+1 possibly-nonzero basis values at x.

    Returns ``(m, {j: node id})`` where m is the span index, or None when
    x falls outside the knot span (all bases vanish there).  Bases outside
    the window are identically zero near x and are simply not recorded.
    """
    x = tape.value(x_id)
    m = locate_span(knot_values, x)
    if m is None:
        return None
    level = {m: tape.constant(1.0)}
    for k in range(1, K + 1):
        nxt = {}
        for j in range(m - k, m + 1):
            if j < 0 or j + k + 1 >= len(knot_ids):
                continue
            terms = []
            bj = level.get(j)
            if bj is not None and knot_values[j + k] - knot_values[j] > DIVIDING_FLOOR:
                num = tape.sub(x_id, knot_ids[j])
                den = tape.sub(knot_ids[j + k], knot_ids[j])
                terms.append(tape.mul(tape.div(num, den), bj))
            bj1 = level.get(j + 1)
            if bj1 is not None and knot_values[j + k + 1] - knot_values[j + 1] > DIVIDING_FLOOR:
                num = tape.sub(knot_ids[j + k + 1], x_id)
                den = tape.sub(knot_ids[j + k + 1], knot_ids[j + 1])
                terms.append(tape.mul(tape.div(num, den), bj1))
            if terms:
                node = terms[0]
                for t_ in terms[1:]:
                    node = tape.add(node, t_)
                nxt[j] = node
        level = nxt
    return m, level


@dataclass
class SplineGroup:
    """One activation: a knot vector plus its G+K combination coefficients."""

    knots: KnotVector
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.knots.n_bases,):
            raise TooFewCoefficients(
                f"need {self.knots.n_bases} coefficients, got {self.coefficients.shape}")

    def __call__(self, x):
        return spline_eval(x, self)


def spline_values(x, knots: np.ndarray, K: int, coefficients: np.ndarray) -> np.ndarray:
    """sum_j c_j B_{j,K}(x) elementwise, shaped like x.

    Gathers the K+1 coefficients of each input's basis window and takes a
    row dot; window slots that name no basis are 0 and add nothing.
    """
    m, W = basis_window(x, knots, K)
    # Padded entry m + 1 + r is coefficient m - K + r, and 0 where that
    # names no basis, so row m + 1 of the sliding window is span m's window.
    padded = np.concatenate([np.zeros(K + 1), coefficients, np.zeros(K)])
    C = sliding_window_view(padded, K + 1)[m + 1]
    return np.einsum("nr,nr->n", W, C).reshape(np.shape(x))


def spline_eval(x, sg: SplineGroup):
    """sum_j c_j B_{j,K}(x); scalar in, scalar out (arrays broadcast)."""
    y = spline_values(x, sg.knots.effective_knots(), sg.knots.K, sg.coefficients)
    return float(y) if np.ndim(x) == 0 else y


def spline_on_tape(tape: Tape, knot_ids, knot_values, K: int, coef_ids, x_id: int) -> int:
    """Record sum_j c_j B_{j,K}(x) using only the active basis window."""
    win = basis_window_on_tape(tape, knot_ids, knot_values, K, x_id)
    if win is None:
        return tape.constant(0.0)
    _, bases = win
    acc = None
    for j in sorted(bases):
        term = tape.mul(coef_ids[j], bases[j])
        acc = term if acc is None else tape.add(acc, term)
    return acc if acc is not None else tape.constant(0.0)


# -- smoothness penalty -------------------------------------------------------


def coeff_second_difference_penalty(sg: SplineGroup) -> float:
    """Squared second differences of the coefficients, scaled by 1/dg^2.

    Zero exactly when the coefficient sequence is affine in j, positive
    otherwise; drives the learned spline toward a continuous second
    derivative.
    """
    c = sg.coefficients
    if c.size < 3:
        raise TooFewCoefficients(f"need at least 3 coefficients, got {c.size}")
    dg2 = sg.knots.dg ** 2
    d2 = (c[:-2] - 2.0 * c[1:-1] + c[2:]) / dg2
    return float(np.sum(d2 * d2))


def penalty_on_tape(tape: Tape, coef_ids, dg: float) -> int:
    if len(coef_ids) < 3:
        raise TooFewCoefficients(f"need at least 3 coefficients, got {len(coef_ids)}")
    inv_dg2 = tape.constant(1.0 / dg ** 2)
    two = tape.constant(2.0)
    acc = None
    for j in range(1, len(coef_ids) - 1):
        d2 = tape.sub(tape.add(coef_ids[j - 1], coef_ids[j + 1]),
                      tape.mul(two, coef_ids[j]))
        term = tape.mul(d2, d2)
        acc = term if acc is None else tape.add(acc, term)
    return tape.mul(acc, tape.mul(inv_dg2, inv_dg2))
