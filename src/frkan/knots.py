"""Breakpoint detection and knot-count bound calculators.

A breakpoint (knot) of a piecewise-linear scalar map is a point where the
one-sided slopes differ.  A network audit looks at the sum of the outputs
along a 1-D slice t * direction.  That sum is folded into the
last layer where it is linear in the output weights (KAN, FR-KAN,
identity MLP), so every path works on one output column.  Detection is
restricted to order-1 splines and ReLU networks; higher-order splines hide
their knots behind K-1 continuous derivatives.

Two detectors find candidate breakpoints with their jumps, and both hand
them to ``_report``, the one step that merges, thresholds and counts:

* ``exact_breakpoints`` -- linear-region propagation.  It applies when
  every module before the last is a K=1 spline layer without the SiLU
  shortcut or an MLP (ReLU or identity), and the last is a K=1 spline
  layer (SiLU allowed) or an MLP.  The slice is held as breakpoints plus,
  on each piece, each layer input in the form alpha + beta * t.  A spline
  layer splits a piece where an input crosses one of its effective knots
  (an FR-KAN input: its own group's knots), at t = (knot - alpha) / beta,
  and a ReLU where its pre-activation is zero; a spline's affine form on
  a piece is read from its pp form, ``splines.pp_tables`` at K=1.  The
  output slope is carried forward piece by piece, and the jump at a
  breakpoint is the right slope minus the left one; a last-layer SiLU adds
  A_s * silu'(x) * (change of the input's slope) where its input kinks.
* ``scan_breakpoints`` -- a uniform sample lattice, for every other stack
  and for any callable mapping an array of points to one value each.
  Slope jumps above the threshold seed candidate brackets, each bracket is
  narrowed by intersecting the linear pieces on both sides, and refinement
  stops once no candidate moves by more than the resolution (hi-lo)/2^40.
  The depth 40 is a constant, not a parameter; the report shows it as
  ``detector.refinement_depth``.  The scanner keeps only the lattice's
  values, 8 bytes a sample: it evaluates the callable on one
  ``EVAL_CHUNK_ROWS`` block of points at a time and flags the samples
  block by block in buffers allocated once per scan, so its memory is the
  values plus one block (about 9.5 bytes a sample at 2M samples).

Candidates closer than the merge tolerance (a fraction of the slice
width) are merged and their jumps summed; a merged breakpoint counts when
its jump exceeds RELATIVE_SLOPE_THRESHOLD times the largest slope on the
slice.  ``audit_network_knots`` picks the exact path whenever it applies.
The report's ``detector.method`` says which path ran; the lattice
statistics (samples, flagged samples, clusters, refinement passes) are 0
on the exact path, and only the exact path fills ``nonzero_jumps``, the
interior breakpoints whose jump is nonzero at any size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import NonFiniteValue
from .layers import (EVAL_CHUNK_ROWS, SPLINE_KINDS, KANLayer, MLPLayer, Network, _silu_slope,
                     sum_outputs)
from .splines import make_uniform_grid, pp_tables


class UnsupportedOrder(Exception):
    pass


DEFAULT_SAMPLES = 200_000
MIN_SAMPLES = 1000
RELATIVE_SLOPE_THRESHOLD = 1e-3   # x max slope estimate
RELATIVE_MERGE_TOLERANCE = 1e-5   # x scan width
REFINEMENT_DEPTH = 40            # bisection resolution (hi-lo)/2^40
# x max slope: smaller exact jumps are the rounding noise of smooth points
RELATIVE_ROUNDING_FLOOR = 1e-9
# silu''(x) = s(1-s)(2 + x(1-2s)), s = sigmoid(x), vanishes where x tanh(x/2) = 2
SILU_INFLECTION = 2.3993572805154675


@dataclass
class BoundResult:
    lower: int
    upper: int
    formula_name: str

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")


def fixed_grid_knot_bounds(G: int, K: int, L: int) -> BoundResult:
    """Knot-count bounds for a depth-L fixed-grid spline network.

    Lower bound G+K; the upper bound adds the literal product reading
    (G(G-1))^L, which is loose for L=1.  It does not hold for every stack:
    at G=2, K=1, L=2 it reads 7, but two width-1 KAN layers on [-1, 1],
    the first with coefficients (3, -3, 3), sweep [-3, 3] twice and cross
    all five of the second layer's knots each time, for 10 interior knots
    (12 with the boundary).  A hidden output that leaves [a, b] crosses the
    extension knots too, and width multiplies the crossings.  The paper's
    premise (output range, width) waits for its full text, which this
    project does not hold, so the formula is kept as read and not widened.
    """
    if G < 2 or K < 1 or L < 1:
        raise ValueError(f"need G >= 2, K >= 1, L >= 1; got G={G}, K={K}, L={L}")
    return BoundResult(G + K, (G + K) + (G * (G - 1)) ** L, "fixed-grid")


def free_knot_bounds(G: int, K: int, L: int, h: int) -> BoundResult:
    """Bounds when each of h groups carries its own shifted grid.

    The upper bound h(G+K) + (hG(G-1))^L equals the fixed-grid bound at
    h=1, and so does the G=2, L=2 counterexample in
    ``fixed_grid_knot_bounds``: of random depth-2 FR-KAN stacks with G=2
    (N(0, 1) coefficients, widths 1-3), 72 of 256 with h=1 exceed it, and
    none of 344 with h of 2 or 3 did.  Its premise waits for the paper's
    full text as well.
    """
    if h < 1:
        raise ValueError(f"need h >= 1, got {h}")
    base = fixed_grid_knot_bounds(G, K, L)
    return BoundResult(base.lower, h * (G + K) + (h * G * (G - 1)) ** L, "free-knot")


def relu_mlp_knot_bound(m_prev: int, n: int) -> int:
    """One ReLU layer: keep up to m_prev knots, add up to n*(m_prev+1)."""
    if m_prev < 0 or n < 1:
        raise ValueError(f"need m_prev >= 0 and n >= 1, got {m_prev}, {n}")
    return m_prev + n * (m_prev + 1)


def mlp_knot_positions(layer: MLPLayer) -> np.ndarray:
    """ReLU kink positions -bias/w of a single-input layer's neurons."""
    if layer.d_in != 1:
        raise ValueError("knot positions are defined for single-input layers")
    w = layer.W[0]
    live = w != 0.0
    return np.sort(-layer.bias[live] / w[live])


# -- detector -------------------------------------------------------------------


@dataclass
class BreakpointReport:
    lo: float
    hi: float
    positions: np.ndarray
    slope_jumps: np.ndarray
    interior_count: int
    merge_tolerance: float
    slope_threshold: float
    merged: int               # candidates absorbed into a neighbour by the merge
    samples: int = 0
    refinement_depth: int = 0
    flagged_samples: int = 0  # lattice points flagged, alone or as a pair
    clusters: int = 0         # runs of adjacent flagged points, one candidate each
    refinement_passes: int = 0  # stencil passes run, at most refinement_depth
    method: str = "scan"      # "exact": propagated pieces, no lattice ran
    nonzero_jumps: int | None = None   # exact path: interior jumps of any size
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "interval": [self.lo, self.hi],
            "positions": self.positions.tolist(),
            "slope_jumps": self.slope_jumps.tolist(),
            "interior_count": self.interior_count,
            "nonzero_jumps": self.nonzero_jumps,
            "detector": {
                "method": self.method,
                "samples": self.samples,
                "slope_threshold": self.slope_threshold,
                "merge_tolerance": self.merge_tolerance,
                "refinement_depth": self.refinement_depth,
                "flagged_samples": self.flagged_samples,
                "clusters": self.clusters,
                "merged": self.merged,
                "refinement_passes": self.refinement_passes,
            },
            "notes": self.notes,
        }


def _report(lo, hi, candidates, jumps, tol, thr, floor=None, **detector) -> BreakpointReport:
    """The one merge, threshold and count step of both detectors.

    Sorted by position and then jump, candidates closer than ``tol`` to
    their predecessor chain into one group, placed at the mean of its
    positions and carrying the sum of its jumps; a group is kept when its
    |jump| exceeds ``thr``.  With a ``floor``, ``nonzero_jumps`` counts
    the interior groups whose |jump| exceeds it.  ``detector`` holds the
    report's other fields.
    """
    order = np.lexsort((jumps, candidates))
    candidates, jumps = candidates[order], jumps[order]
    starts = np.flatnonzero(np.diff(candidates, prepend=-np.inf) > tol)
    sizes = np.diff(starts, append=candidates.size)
    pos = np.add.reduceat(candidates, starts) / sizes if starts.size else candidates
    jump = np.add.reduceat(jumps, starts) if starts.size else jumps
    interior = (pos > lo + tol) & (pos < hi - tol)
    keep = np.abs(jump) > thr
    nonzero = None if floor is None else int(np.sum(interior & (np.abs(jump) > floor)))
    return BreakpointReport(
        lo=float(lo), hi=float(hi), positions=pos[keep], slope_jumps=jump[keep],
        interior_count=int(np.sum(keep & interior)), merge_tolerance=float(tol),
        slope_threshold=float(thr), merged=int(candidates.size - starts.size),
        nonzero_jumps=nonzero, **detector)


def _runs(flagged):
    """First and last index of each run of consecutive flagged points."""
    return (flagged[np.diff(flagged, prepend=flagged[:1] - 2) > 1],
            flagged[np.diff(flagged, append=flagged[-1:] + 2) > 1])


def _values(f, pts):
    """f at an array of points, one value each."""
    y = np.asarray(f(pts), dtype=float)
    if y.shape != pts.shape:
        raise ValueError(f"f must map {pts.shape} points to one value each, got shape {y.shape}; "
                         "np.vectorize wraps a scalar function")
    return y


def _lattice(lo, hi, samples, idx):
    """Points ``idx`` of ``np.linspace(lo, hi, samples)``, bit for bit: idx
    times the step, plus lo, and hi at the last index."""
    lo, hi = float(lo), float(hi)
    t = idx * ((hi - lo) / (samples - 1))
    t += lo
    t[idx == samples - 1] = hi
    return t


def _lattice_values(f, lo, hi, samples):
    """f on the lattice, one ``EVAL_CHUNK_ROWS`` block of points per call,
    the lattice step, and the largest |slope| between neighbouring samples."""
    y = np.empty(samples)
    dt = np.diff(_lattice(lo, hi, samples, np.arange(2)))[0]
    slopes = np.empty(min(EVAL_CHUNK_ROWS, samples))
    max_slope = 0.0
    for i0 in range(0, samples, EVAL_CHUNK_ROWS):
        i1 = min(i0 + EVAL_CHUNK_ROWS, samples)
        t = _lattice(lo, hi, samples, np.arange(i0, i1))
        block = y[i0:i1]
        block[:] = _values(f, t)
        finite = np.isfinite(block)
        if not finite.all():
            raise NonFiniteValue(f"function not finite near x={t[~finite][0]!r}")
        run = y[max(i0 - 1, 0):i1]      # with the sample before the block
        s = np.subtract(run[1:], run[:-1], out=slopes[:run.size - 1])
        s /= dt
        max_slope = max(max_slope, float(np.max(np.abs(s, out=s))))
    return y, dt, max_slope


def _flagged(y, dt, thr):
    """Indices k of the flagged second differences d2[k] of the samples
    ``y``, found one block at a time in buffers allocated once.

    d2[k] is flagged when |d2[k]| > thr, or when it belongs to a pair: a
    kink between two samples splits its jump over two adjacent second
    differences, so a pair whose sum clears the threshold, though neither
    does alone, flags both when it stands alone, with both outer
    neighbours below half the threshold.  A smooth curve whose second
    differences all sit between thr/2 and thr has no such pair.  A block
    reads two second differences past each end, where the pairs touching
    it find their quiet neighbours.
    """
    n2 = y.size - 2
    size = min(EVAL_CHUNK_ROWS, n2) + 4
    s, d2, a = np.empty(size + 1), np.empty(size), np.empty(size)
    big, small, pair = np.empty(size, bool), np.empty(size, bool), np.empty(size - 1, bool)
    quiet = np.empty(size + 2, bool)
    found = []
    for k0 in range(0, n2, EVAL_CHUNK_ROWS):
        k1 = min(k0 + EVAL_CHUNK_ROWS, n2)
        e0, e1 = max(k0 - 2, 0), min(k1 + 2, n2)     # d2[e0:e1], slopes e0..e1
        m = e1 - e0
        sl = np.subtract(y[e0 + 1:e1 + 2], y[e0:e1 + 1], out=s[:m + 1])
        sl /= dt
        dd = np.subtract(sl[1:], sl[:-1], out=d2[:m])
        ad = np.abs(dd, out=a[:m])
        bg = np.greater(ad, thr, out=big[:m])
        sm = np.logical_not(bg, out=small[:m])
        q = quiet[:m + 2]
        q[0] = q[-1] = True     # the lattice's ends; at a block edge only pairs outside it
        np.less(ad, 0.5 * thr, out=q[1:-1])
        pr = pair[:m - 1]
        both = np.add(dd[:-1], dd[1:], out=a[:m - 1])    # |d2| is no longer needed
        np.greater(np.abs(both, out=both), thr, out=pr)
        pr &= sm[:-1]
        pr &= sm[1:]
        pr &= q[:-3]
        pr &= q[3:]
        bg[:-1] |= pr
        bg[1:] |= pr
        found.append(np.flatnonzero(bg[k0 - e0:k1 - e0]) + k0)
    return np.concatenate(found)


def scan_breakpoints(f, lo: float, hi: float, samples: int = DEFAULT_SAMPLES,
                     merge_tolerance: float | None = None) -> BreakpointReport:
    """Locate slope discontinuities of a piecewise-linear scalar map ``f``,
    which takes an array of points and returns one value per point.

    ``f`` sees the lattice ``np.linspace(lo, hi, samples)`` one
    ``EVAL_CHUNK_ROWS`` block at a time; only its values stay, 8 bytes a
    sample, and the flags are found block by block.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"need samples >= {MIN_SAMPLES}, got {samples}")
    if hi <= lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    y, dt, max_slope = _lattice_values(f, lo, hi, samples)
    thr = RELATIVE_SLOPE_THRESHOLD * max_slope
    tol = merge_tolerance if merge_tolerance is not None else RELATIVE_MERGE_TOLERANCE * (hi - lo)

    flagged = _flagged(y, dt, thr)
    c0, c1 = _runs(flagged)       # one candidate bracket [L, R] per run
    L, R = _lattice(lo, hi, samples, c0), _lattice(lo, hi, samples, c1 + 2)
    tau = 0.5 * (L + R)
    w = 0.5 * (R - L) + dt
    jumps = (y[c1 + 2] - y[c1 + 1]) / dt - (y[c0 + 1] - y[c0]) / dt
    passes = 0
    if c0.size:
        # Refine each bracket by intersecting the linear pieces on both
        # sides of the kink.  The stencil (tau-2w, tau-w, tau+w, tau+2w)
        # gives the one-sided slopes; the intersection of those two lines
        # is exact for piecewise-linear input and immune to any smooth
        # background (e.g. a SiLU shortcut) whose curvature cancels.
        # Each pass halves the localization width w, down to the bisection
        # resolution (hi-lo)/2^REFINEMENT_DEPTH, and the loop ends once no
        # candidate moves by more than that resolution: for piecewise-linear
        # input the first intersection is already exact.
        min_width = max((hi - lo) / 2.0 ** REFINEMENT_DEPTH,
                        8 * np.finfo(float).eps * max(abs(lo), abs(hi), 1.0))
        for _ in range(REFINEMENT_DEPTH):
            vals = _values(f, np.concatenate([tau - 2 * w, tau - w, tau + w, tau + 2 * w]))
            A2, A1, B1, B2 = vals.reshape(4, -1)
            s_l = (A1 - A2) / w
            s_r = (B2 - B1) / w
            denom = s_l - s_r
            safe = np.abs(denom) > 1e-12 * (np.abs(s_l) + np.abs(s_r) + 1.0)
            u = np.where(safe,
                         (B1 - A1 - w * (s_l + s_r)) / np.where(safe, denom, 1.0),
                         0.0)
            moved = np.clip(tau + np.clip(u, -w, w), L, R)
            passes += 1
            converged = np.max(np.abs(moved - tau)) <= min_width
            tau = moved
            if converged or np.max(w) <= min_width:
                break
            w = np.maximum(w / 2.0, min_width)

    return _report(lo, hi, tau, jumps, tol, thr, samples=samples,
                   refinement_depth=REFINEMENT_DEPTH, flagged_samples=int(flagged.size),
                   clusters=int(c0.size), refinement_passes=passes)


# -- exact path ---------------------------------------------------------------------


def _crossings(T, alpha, beta, cuts):
    """(piece, t) wherever a column of alpha + beta * t crosses a value of
    the sorted ``cuts`` strictly inside its piece [T[p], T[p+1]]."""
    x0 = alpha + beta * T[:-1, None]
    x1 = alpha + beta * T[1:, None]
    first = np.searchsorted(cuts, np.minimum(x0, x1), side="right").ravel()
    last = np.searchsorted(cuts, np.maximum(x0, x1), side="left").ravel()
    n = np.maximum(last - first, 0)
    cell = np.repeat(np.arange(n.size), n)        # flat (piece, column) of each crossing
    k = first[cell] + np.arange(cell.size) - np.repeat(np.cumsum(n) - n, n)
    p = cell // alpha.shape[1]
    t = (cuts[k] - alpha.ravel()[cell]) / beta.ravel()[cell]
    return p, np.clip(t, T[p], T[p + 1])


def _refine(T, alpha, beta, col_cuts):
    """Split the pieces wherever a column block crosses its cuts.

    ``col_cuts`` pairs a column slice with its sorted cut values.  Returns
    the new breakpoints, each new piece's parent piece and its midpoint.
    """
    found = [_crossings(T, alpha[:, cols], beta[:, cols], cuts)[1] for cols, cuts in col_cuts]
    refined = np.unique(np.concatenate([T, *found]))
    mid = 0.5 * (refined[:-1] + refined[1:])
    parent = np.minimum(np.searchsorted(T, mid, side="right") - 1, T.size - 2)
    return refined, parent, mid


def _pieces_through(mod, T, alpha, beta):
    """Push the pieces through one module.

    Returns the refined breakpoints, the module's input forms on the new
    pieces and its output forms (alpha, beta) on them.
    """
    if mod.kind == "mlp":
        za, zb = alpha @ mod.W + mod.bias, beta @ mod.W
        if mod.activation == "relu":
            T, parent, mid = _refine(T, za, zb, [(slice(None), np.zeros(1))])
            alpha, beta, za, zb = alpha[parent], beta[parent], za[parent], zb[parent]
            on = za + zb * mid[:, None] > 0.0
            za, zb = za * on, zb * on
        return T, alpha, beta, za, zb
    # Order 1: each spline is affine on its spans, so on a piece it reads
    # Q[0, i] + Q[1, i] (x - origin[i]) at span i = searchsorted(t, x,
    # side="right") of its pp form, which is 0 outside the knots.  pp row
    # r[j, o] holds input j's spline into output o: a KAN layer's A_b-scaled
    # edge on the shared knot row, an FR-KAN input's group (one output).
    knots = mod.knots()
    if mod.kind == "kan":
        c = (mod.coefficients * mod.A_b[:, :, None]).reshape(-1, mod.kv.n_bases)
        origin, Q = pp_tables(np.broadcast_to(knots, (len(c), knots.shape[1])), 1, c)
        r = np.arange(len(c)).reshape(mod.d_in, mod.d_out)
        col_knots = [(slice(None), knots[0])]
    else:
        origin, Q = mod.pp_form()
        r = mod.group_of(np.arange(mod.d_in))[:, None]
        col_knots = [(mod.group_columns(g), knots[g]) for g in range(mod.h)]
    T, parent, mid = _refine(T, alpha, beta, col_knots)
    alpha, beta = alpha[parent], beta[parent]
    shape = alpha.shape + (r.shape[1],)
    ya, yb = np.empty(shape), np.empty(shape)
    for cols, t in col_knots:
        x = alpha[:, cols] + beta[:, cols] * mid[:, None]
        at = r[cols], np.searchsorted(t, x, side="right")[..., None]   # (P, cols, outputs)
        ya[:, cols] = Q[(0,) + at] + Q[(1,) + at] * (alpha[:, cols, None] - origin[at])
        yb[:, cols] = Q[(1,) + at] * beta[:, cols, None]
    if mod.kind == "kan":
        return T, alpha, beta, ya.sum(axis=1), yb.sum(axis=1)
    return T, alpha, beta, ya[..., 0] @ mod.A, yb[..., 0] @ mod.A


def piecewise_linear_slice(net: Network) -> bool:
    """Whether ``exact_breakpoints`` applies: every module before the last
    is an MLP or a SiLU-free K=1 spline layer, and the last is an MLP or a
    K=1 spline layer, whose SiLU shortcut adds no breakpoint."""
    def ok(m, last):
        if m.kind == "mlp":
            return True
        if m.kind not in SPLINE_KINDS:
            return False
        return m.kv.K == 1 and (last or not m.silu_path)

    *hidden, last = net.modules
    return all(ok(m, False) for m in hidden) and ok(last, True)


def exact_breakpoints(net: Network, lo: float, hi: float,
                      direction=None) -> BreakpointReport:
    """Breakpoints of the summed-output slice, propagated piece by piece.

    Counts with ``_report``, like the scanner; the threshold's largest
    slope is taken over the pieces between merged breakpoints (the ones
    inside a merge are narrower than the tolerance), at their ends and,
    with a last-layer SiLU, where a SiLU input crosses an inflection
    point of silu.
    """
    if not piecewise_linear_slice(net):
        raise UnsupportedOrder("the exact path needs K=1 spline or MLP layers and "
                               "no SiLU shortcut before the last layer")
    if hi <= lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    direction = _slice_direction(net, direction)
    tol = RELATIVE_MERGE_TOLERANCE * (hi - lo)
    T = np.array([lo, hi], dtype=float)
    alpha, beta = np.zeros((1, direction.size)), direction[None, :]
    summed = sum_outputs(net)
    for mod in summed.modules:
        T, xa, xb, alpha, beta = _pieces_through(mod, T, alpha, beta)
    slope = beta.sum(axis=1)
    candidates = T[1:-1]
    jumps = np.diff(slope)

    last = summed.modules[-1]
    w = None
    if last.kind in SPLINE_KINDS and last.silu_path:
        w = (last.A_s if last.kind == "kan" else last.A).sum(axis=1)
        x = xa[1:] + xb[1:] * candidates[:, None]
        jumps = jumps + (_silu_slope(x) * np.diff(xb, axis=0)) @ w

    def derivative(p, t):
        d = slope[p]
        if w is not None:
            d = d + (xb[p] * _silu_slope(xa[p] + xb[p] * t[:, None])) @ w
        return np.abs(d)

    # pieces 1..P-2 no wider than the tolerance lie inside one merged group
    width = np.diff(T)
    between = np.flatnonzero(width > tol)
    between = np.union1d(between, [0, width.size - 1])
    seen = [derivative(between, T[between]), derivative(between, T[between + 1])]
    if w is not None:
        p, t = _crossings(T, xa, xb, np.array([-SILU_INFLECTION, SILU_INFLECTION]))
        inner = np.isin(p, between)
        seen.append(derivative(p[inner], t[inner]))
    max_slope = float(np.concatenate(seen).max())
    thr = RELATIVE_SLOPE_THRESHOLD * max_slope

    return _report(lo, hi, candidates, jumps, tol, thr, RELATIVE_ROUNDING_FLOOR * max_slope,
                   method="exact")


# -- constructions and audits -----------------------------------------------------


def build_sawtooth_network(G: int, K: int = 1, a: float = -1.0, b: float = 1.0,
                           layer2_seed: int = 0) -> Network:
    """Two stacked width-1 spline layers tuned to multiply knot counts.

    Layer 1 alternates coefficients +-1 so its output sweeps the whole
    grid range on every segment; layer 2 draws coefficients uniformly from
    [0, 1].  Both layers drop the SiLU shortcut and use an identity
    combination weight.
    """
    if K != 1:
        raise UnsupportedOrder(f"the construction needs order 1, got K={K}")
    if G < 2:
        raise ValueError(f"need G >= 2, got {G}")
    kv = make_uniform_grid(a, b, G, 1)
    nb = kv.n_bases
    c1 = np.array([(-1.0) ** j for j in range(nb)]).reshape(1, 1, nb)
    one = np.ones((1, 1))
    zero = np.zeros((1, 1))
    layer1 = KANLayer(1, 1, kv, c1, one.copy(), zero.copy(), silu_path=False)
    rng = np.random.default_rng(layer2_seed)
    c2 = rng.uniform(0.0, 1.0, size=nb).reshape(1, 1, nb)
    kv2 = make_uniform_grid(a, b, G, 1)
    layer2 = KANLayer(1, 1, kv2, c2, one.copy(), zero.copy(), silu_path=False)
    return Network([layer1, layer2])


@dataclass
class KnotAudit:
    report: BreakpointReport
    bounds: BoundResult
    measured_interior: int
    measured_with_boundary: int
    lower_ok: bool
    upper_ok: bool

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok

    def to_dict(self) -> dict:
        doc = self.report.to_dict()
        doc["bounds"] = {"lower": self.bounds.lower, "upper": self.bounds.upper,
                         "formula": self.bounds.formula_name}
        doc["measured_with_boundary"] = self.measured_with_boundary
        doc["pass"] = self.passed
        doc["checks"] = {"lower_ok": self.lower_ok, "upper_ok": self.upper_ok}
        return doc


def network_bounds(net: Network) -> BoundResult:
    """Bound formula matching the network's layer mix."""
    splines = net.spline_layers()
    if not splines:
        m = 0
        for mod in net.modules:
            if mod.kind == "mlp" and mod.activation == "relu":
                m = relu_mlp_knot_bound(m, mod.d_out)
        return BoundResult(0, m, "relu-mlp")
    Gs = {m.kv.G for m in splines}
    Ks = {m.kv.K for m in splines}
    if len(Gs) != 1 or len(Ks) != 1:
        raise ValueError("knot bounds need a uniform grid across spline layers")
    G, K, L = Gs.pop(), Ks.pop(), len(splines)
    hs = [m.h for m in splines if m.kind == "frkan"]
    if hs:
        return free_knot_bounds(G, K, L, max(hs))
    return fixed_grid_knot_bounds(G, K, L)


def _slice_direction(net: Network, direction):
    d_in = net.d_in
    direction = np.ones(d_in) if direction is None else np.asarray(direction, dtype=float)
    if direction.shape != (d_in,):
        raise ValueError(f"slice direction must have shape ({d_in},)")
    return direction


def slice_map(net: Network, direction=None):
    """The audited scalar map t -> sum of net(t * direction) over the
    outputs, batched over t and run through one folded output column."""
    direction = _slice_direction(net, direction)
    summed = sum_outputs(net)

    def f(ts):
        return summed.forward_batch(np.multiply.outer(ts, direction)).sum(axis=1)

    return f


def audit_network_knots(net: Network, direction=None,
                        lo: float | None = None, hi: float | None = None,
                        samples: int = DEFAULT_SAMPLES) -> KnotAudit:
    """Count the breakpoints of a 1-D slice and compare to the bounds.

    The scalar map is the sum of outputs at t * direction.  A
    piecewise-linear slice (``piecewise_linear_slice``) takes the exact
    path; any other stack is scanned on a ``samples``-point lattice.  The
    interior count is reported as measured; a spline bound comparison adds
    the two boundary knots at the grid edges (for K=1 the single-layer
    count G+K splits as G-1 interior plus 2 boundary), while the ReLU
    chain bound counts the kinks themselves.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"need samples >= {MIN_SAMPLES}, got {samples}")
    # the smooth SiLU shortcut is allowed: it adds no breakpoints
    for m in net.modules:
        if m.kind == "ln":
            raise UnsupportedOrder("layer normalization is not piecewise linear; "
                                   "audit supports raw spline/ReLU stacks only")
        if m.kind in SPLINE_KINDS and m.kv.K != 1:
            raise UnsupportedOrder(f"audit needs K=1 spline layers, got K={m.kv.K}")

    direction = _slice_direction(net, direction)
    splines = net.spline_layers()
    if splines and (lo is None or hi is None):
        grid = splines[0].kv
        lo = grid.a if lo is None else lo
        hi = grid.b if hi is None else hi
    if lo is None or hi is None:
        raise ValueError("lo/hi are required for networks without spline layers")

    if piecewise_linear_slice(net):
        report = exact_breakpoints(net, lo, hi, direction)
    else:
        report = scan_breakpoints(slice_map(net, direction), lo, hi, samples=samples)
    bounds = network_bounds(net)
    # the ReLU chain counts kinks themselves; the spline counts G+K include
    # the two boundary knots
    boundary = 0 if bounds.formula_name == "relu-mlp" else 2
    report.notes["counting"] = ("interior breakpoints exclude the slice endpoints; "
                                f"bound comparison adds {boundary} boundary knots")
    report.notes["upper_bound_reading"] = ("product term read literally as "
                                           "(G(G-1))^L; loose for L=1")
    measured = report.interior_count
    adjusted = measured + boundary
    return KnotAudit(
        report=report, bounds=bounds, measured_interior=measured,
        measured_with_boundary=adjusted,
        lower_ok=bounds.lower <= adjusted,
        upper_ok=adjusted <= bounds.upper,
    )
