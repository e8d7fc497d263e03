"""Empirical breakpoint detection and knot-count bound calculators.

A breakpoint (knot) of a piecewise-linear scalar map is a point where the
one-sided slopes differ.  The detector works on a uniform sample lattice:
slope jumps above a threshold seed candidate brackets, each bracket is
narrowed by intersecting the linear pieces on both sides, and nearby
candidates are merged.  Refinement stops once no candidate moves by more
than the resolution (hi-lo)/2^refinement_depth, and the report records
what the detector did: flagged lattice samples, clusters, candidates
absorbed by the merge and refinement passes run.

A network audit scans the sum of the outputs along a 1-D slice.  That sum
is folded into the last layer where it is linear in the output weights
(KAN, FR-KAN, identity MLP), so the lattice runs through one output
column instead of all of them.  Detection is restricted to order-1
splines and ReLU networks; higher-order splines hide their knots behind
K-1 continuous derivatives and slope scans cannot see them.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import floor

import numpy as np

from .autodiff import NonFiniteValue
from .layers import KANLayer, MLPLayer, Network, sum_outputs
from .splines import make_uniform_grid


class UnsupportedOrder(Exception):
    pass


DEFAULT_SAMPLES = 200_000
RELATIVE_SLOPE_THRESHOLD = 1e-3   # x max slope estimate
RELATIVE_MERGE_TOLERANCE = 1e-5   # x scan width
DEFAULT_REFINEMENT_DEPTH = 40


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
    (G(G-1))^L, which is loose for L=1 but safe for containment checks.
    """
    if G < 2 or K < 1 or L < 1:
        raise ValueError(f"need G >= 2, K >= 1, L >= 1; got G={G}, K={K}, L={L}")
    return BoundResult(G + K, (G + K) + (G * (G - 1)) ** L, "fixed-grid")


def free_knot_bounds(G: int, K: int, L: int, h: int) -> BoundResult:
    """Bounds when each of h groups carries its own shifted grid."""
    if h < 1:
        raise ValueError(f"need h >= 1, got {h}")
    base = fixed_grid_knot_bounds(G, K, L)
    return BoundResult(base.lower, h * (G + K) + (h * G * (G - 1)) ** L, "free-knot")


def relu_mlp_knot_bound(m_prev: int, n: int) -> int:
    """One ReLU layer: keep up to m_prev knots, add up to n*(m_prev+1)."""
    if m_prev < 0 or n < 1:
        raise ValueError(f"need m_prev >= 0 and n >= 1, got {m_prev}, {n}")
    return m_prev + n * (m_prev + 1)


def predict_new_knots(output_deltas, dg: float) -> int:
    """New knots a layer can create: sum of floor(|dy| / dg) per segment.

    A segment only contributes once its output sweep reaches a full grid
    interval; a tiny epsilon absorbs float noise on exact multiples.
    """
    if dg <= 0:
        raise ValueError(f"need dg > 0, got {dg}")
    return sum(max(0, floor(abs(d) / dg + 1e-9)) for d in output_deltas)


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
    samples: int
    refinement_depth: int
    flagged_samples: int      # lattice points whose slope jump passed the threshold
    clusters: int             # runs of adjacent flagged points, one candidate each
    merged: int               # candidates absorbed into a neighbour by the merge
    refinement_passes: int    # stencil passes run, at most refinement_depth
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "interval": [self.lo, self.hi],
            "positions": self.positions.tolist(),
            "slope_jumps": self.slope_jumps.tolist(),
            "interior_count": self.interior_count,
            "detector": {
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


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get("FRKAN_THREADS", "1")))
    except ValueError:
        return 1


def _make_evaluator(f, lo: float, hi: float):
    """Wrap f so it maps an ndarray of points to an ndarray of values.

    A scalar-only callable raises TypeError or ValueError on the array
    probe and is then evaluated point by point; any other error is the
    callable's own failure and propagates.
    """
    probe = np.array([lo, 0.5 * (lo + hi)])
    try:
        out = np.asarray(f(probe), dtype=float)
        if out.shape == probe.shape:
            return lambda pts: np.asarray(f(pts), dtype=float)
    except (TypeError, ValueError):
        pass
    return lambda pts: np.array([float(f(p)) for p in pts])


def _eval_lattice(evalf, pts: np.ndarray) -> np.ndarray:
    threads = _thread_count()
    if threads <= 1 or pts.size < 4 * threads:
        return evalf(pts)
    # disjoint chunks with one overlapping sample; merged back in order
    bounds = np.linspace(0, pts.size, threads + 1, dtype=int)
    chunks = [pts[max(0, s - 1):e] for s, e in zip(bounds[:-1], bounds[1:])]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(evalf, chunks))
    parts = [p if i == 0 else p[1:] for i, p in enumerate(parts)]
    return np.concatenate(parts)


def scan_breakpoints(f, lo: float, hi: float, samples: int = DEFAULT_SAMPLES,
                     slope_threshold: float | None = None,
                     merge_tolerance: float | None = None,
                     refinement_depth: int = DEFAULT_REFINEMENT_DEPTH) -> BreakpointReport:
    """Locate slope discontinuities of a piecewise-linear scalar map."""
    if samples < 1000:
        raise ValueError(f"need samples >= 1000, got {samples}")
    if hi <= lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    evalf = _make_evaluator(f, lo, hi)
    t = np.linspace(lo, hi, samples)
    y = _eval_lattice(evalf, t)
    if not np.all(np.isfinite(y)):
        bad = t[~np.isfinite(y)][0]
        raise NonFiniteValue(f"function not finite near x={bad!r}")

    dt = t[1] - t[0]
    slopes = np.diff(y) / dt
    max_slope = float(np.max(np.abs(slopes))) if slopes.size else 0.0
    thr = slope_threshold if slope_threshold is not None else RELATIVE_SLOPE_THRESHOLD * max_slope
    tol = merge_tolerance if merge_tolerance is not None else RELATIVE_MERGE_TOLERANCE * (hi - lo)

    jumps = np.diff(slopes)
    flagged = np.flatnonzero(np.abs(jumps) > thr)

    clusters = []
    if flagged.size:
        start = prev = flagged[0]
        for i in flagged[1:]:
            if i == prev + 1:
                prev = i
                continue
            clusters.append((start, prev))
            start = prev = i
        clusters.append((start, prev))

    positions = []
    cluster_jumps = []
    passes = 0
    if clusters:
        # Refine each bracket by intersecting the linear pieces on both
        # sides of the kink.  The stencil (tau-2w, tau-w, tau+w, tau+2w)
        # gives the one-sided slopes; the intersection of those two lines
        # is exact for piecewise-linear input and immune to any smooth
        # background (e.g. a SiLU shortcut) whose curvature cancels.
        # Each pass halves the localization width w, down to the bisection
        # resolution (hi-lo)/2^refinement_depth, and the loop ends once no
        # candidate moves by more than that resolution: for piecewise-linear
        # input the first intersection is already exact.
        L = np.array([t[c0] for c0, _ in clusters])
        R = np.array([t[c1 + 2] for _, c1 in clusters])
        cluster_jumps = [float(slopes[c1 + 1] - slopes[c0]) for c0, c1 in clusters]
        tau = 0.5 * (L + R)
        w = 0.5 * (R - L) + dt
        min_width = max((hi - lo) / 2.0 ** refinement_depth,
                        8 * np.finfo(float).eps * max(abs(lo), abs(hi), 1.0))
        for _ in range(refinement_depth):
            vals = evalf(np.concatenate([tau - 2 * w, tau - w, tau + w, tau + 2 * w]))
            n = tau.size
            A2, A1 = vals[:n], vals[n:2 * n]
            B1, B2 = vals[2 * n:3 * n], vals[3 * n:]
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
        positions = tau.tolist()

    # merge nearby candidates; jumps of merged knots accumulate
    merged_pos = []
    merged_jump = []
    for p, j in sorted(zip(positions, cluster_jumps)):
        if merged_pos and p - merged_pos[-1][-1] <= tol:
            merged_pos[-1].append(p)
            merged_jump[-1] += j
        else:
            merged_pos.append([p])
            merged_jump.append(j)
    final_pos = []
    final_jump = []
    for group, j in zip(merged_pos, merged_jump):
        if abs(j) > thr:
            final_pos.append(float(np.mean(group)))
            final_jump.append(j)

    pos_arr = np.array(final_pos)
    jump_arr = np.array(final_jump)
    interior = int(np.sum((pos_arr > lo + tol) & (pos_arr < hi - tol))) if pos_arr.size else 0
    return BreakpointReport(
        lo=float(lo), hi=float(hi), positions=pos_arr, slope_jumps=jump_arr,
        interior_count=interior, merge_tolerance=float(tol),
        slope_threshold=float(thr), samples=samples,
        refinement_depth=refinement_depth, flagged_samples=int(flagged.size),
        clusters=len(clusters), merged=len(positions) - len(merged_pos),
        refinement_passes=passes,
    )


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def network_bounds(net: Network) -> BoundResult:
    """Bound formula matching the network's layer mix."""
    splines = net.spline_layers()
    if not splines:
        m = 0
        for mod in net.modules:
            if mod.kind == "mlp" and mod.activation == "relu":
                m = relu_mlp_knot_bound(m, mod.d_out)
        return BoundResult(0, m, "relu-mlp")
    Gs = {(m.kv.G if m.kind == "kan" else m.G) for m in splines}
    Ks = {(m.kv.K if m.kind == "kan" else m.K) for m in splines}
    if len(Gs) != 1 or len(Ks) != 1:
        raise ValueError("knot bounds need a uniform grid across spline layers")
    G, K, L = Gs.pop(), Ks.pop(), len(splines)
    hs = [m.h for m in splines if m.kind == "frkan"]
    if hs:
        return free_knot_bounds(G, K, L, max(hs))
    return fixed_grid_knot_bounds(G, K, L)


def audit_network_knots(net: Network, direction=None, anchor=None,
                        lo: float | None = None, hi: float | None = None,
                        samples: int = DEFAULT_SAMPLES,
                        refinement_depth: int = DEFAULT_REFINEMENT_DEPTH) -> KnotAudit:
    """Scan a 1-D affine slice of the network and compare to the bounds.

    The scalar map is the sum of outputs at anchor + t * direction; the
    sum is folded into the last layer where it is linear (``sum_outputs``),
    so the lattice is scanned as one output column.  The interior count
    is reported as measured; the bound comparison adds the two boundary
    knots at the grid edges (for K=1 the single-layer count G+K splits as
    G-1 interior plus 2 boundary).
    """
    # the smooth SiLU shortcut is allowed: it adds no breakpoints
    for m in net.modules:
        if m.kind == "ln":
            raise UnsupportedOrder("layer normalization is not piecewise linear; "
                                   "audit supports raw spline/ReLU stacks only")
        if m.kind == "kan" and m.kv.K != 1:
            raise UnsupportedOrder(f"audit needs K=1 spline layers, got K={m.kv.K}")
        if m.kind == "frkan" and m.K != 1:
            raise UnsupportedOrder(f"audit needs K=1 spline layers, got K={m.K}")

    d_in = net.d_in
    direction = np.ones(d_in) if direction is None else np.asarray(direction, dtype=float)
    anchor = np.zeros(d_in) if anchor is None else np.asarray(anchor, dtype=float)
    if direction.shape != (d_in,) or anchor.shape != (d_in,):
        raise ValueError(f"slice direction/anchor must have shape ({d_in},)")

    splines = net.spline_layers()
    if splines and (lo is None or hi is None):
        first = splines[0]
        a = first.kv.a if first.kind == "kan" else first.a
        b = first.kv.b if first.kind == "kan" else first.b
        lo = a if lo is None else lo
        hi = b if hi is None else hi
    if lo is None or hi is None:
        raise ValueError("lo/hi are required for networks without spline layers")

    summed = sum_outputs(net)

    def f(ts):
        X = anchor[None, :] + np.asarray(ts, dtype=float)[:, None] * direction[None, :]
        return summed.forward_batch(X).sum(axis=1)

    report = scan_breakpoints(f, lo, hi, samples=samples,
                              refinement_depth=refinement_depth)
    report.notes["counting"] = ("interior breakpoints exclude the scan endpoints; "
                                "bound comparison adds the 2 boundary knots")
    report.notes["upper_bound_reading"] = ("product term read literally as "
                                           "(G(G-1))^L; loose for L=1")
    bounds = network_bounds(net)
    measured = report.interior_count
    adjusted = measured + 2
    return KnotAudit(
        report=report, bounds=bounds, measured_interior=measured,
        measured_with_boundary=adjusted,
        lower_ok=bounds.lower <= adjusted,
        upper_ok=adjusted <= bounds.upper,
    )
