"""The streamed scanner against the whole-lattice one it replaced.

``scan_breakpoints`` evaluates and flags its lattice one
``EVAL_CHUNK_ROWS`` block at a time.  ``whole_lattice_scan`` below is the
scanner as it was before: one ``np.linspace`` array, every slope and
second difference at once.  Both must give the same report, byte for
byte, and the same ``NonFiniteValue`` message, at sample counts on both
sides of a block edge.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frkan.autodiff import NonFiniteValue
from frkan.knots import (
    MIN_SAMPLES,
    REFINEMENT_DEPTH,
    RELATIVE_MERGE_TOLERANCE,
    RELATIVE_SLOPE_THRESHOLD,
    _report,
    _runs,
    _values,
    scan_breakpoints,
)
from frkan.layers import EVAL_CHUNK_ROWS, _silu

B = EVAL_CHUNK_ROWS
SAMPLE_COUNTS = [1000, B - 1, B, B + 1, 2 * B + 7]


def whole_lattice_scan(f, lo, hi, samples, merge_tolerance=None):
    """The scanner before streaming, kept as the reference."""
    if samples < MIN_SAMPLES:
        raise ValueError(f"need samples >= {MIN_SAMPLES}, got {samples}")
    if hi <= lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    t = np.linspace(lo, hi, samples)
    y = _values(f, t)
    if not np.all(np.isfinite(y)):
        bad = t[~np.isfinite(y)][0]
        raise NonFiniteValue(f"function not finite near x={bad!r}")

    dt = t[1] - t[0]
    slopes = np.diff(y) / dt
    max_slope = float(np.max(np.abs(slopes))) if slopes.size else 0.0
    thr = RELATIVE_SLOPE_THRESHOLD * max_slope
    tol = merge_tolerance if merge_tolerance is not None else RELATIVE_MERGE_TOLERANCE * (hi - lo)

    d2 = np.diff(slopes)
    big = np.abs(d2) > thr
    quiet = np.pad(np.abs(d2) < 0.5 * thr, 1, constant_values=True)
    pair = ((np.abs(d2[:-1] + d2[1:]) > thr) & ~big[:-1] & ~big[1:]
            & quiet[:-3] & quiet[3:])
    big[:-1] |= pair
    big[1:] |= pair
    flagged = np.flatnonzero(big)
    c0, c1 = _runs(flagged)
    L, R = t[c0], t[c1 + 2]
    tau = 0.5 * (L + R)
    w = 0.5 * (R - L) + dt
    jumps = slopes[c1 + 1] - slopes[c0]
    passes = 0
    if c0.size:
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


def _outcome(scan, f, lo, hi, samples):
    """The report as sorted JSON, or the NonFiniteValue message."""
    try:
        return json.dumps(scan(f, lo, hi, samples).to_dict(), sort_keys=True)
    except NonFiniteValue as err:
        return f"NonFiniteValue: {err}"


@st.composite
def scan_cases(draw):
    """A sample count, a range and a callable: x plus kinks at, midway
    between or anywhere between two samples (most a few samples from one
    block edge, with jumps around the threshold, where the pair rule and
    its quiet neighbours decide), a SiLU background, and sometimes NaN
    past a point."""
    n = draw(st.sampled_from(SAMPLE_COUNTS))
    lo = draw(st.floats(-3.0, 1.0))
    hi = lo + draw(st.floats(0.5, 4.0))
    t = np.linspace(lo, hi, n)
    near_edges = [k + d for k in range(B, n, B) for d in range(-4, 5)
                  if 2 <= k + d <= n - 4] or [n // 2]
    centre = draw(st.sampled_from(near_edges))
    index = st.one_of(st.integers(max(centre - 3, 2), min(centre + 3, n - 4)),
                      st.integers(2, n - 4))
    offset = st.one_of(st.just(0.5), st.just(0.0), st.floats(0.0, 1.0))
    jump = st.one_of(st.floats(0.3e-3, 2.5e-3), st.floats(-2.5e-3, -0.3e-3), st.floats(-1.0, 1.0))
    kinks = draw(st.lists(st.tuples(index, offset, jump), max_size=6))
    taus = np.array([t[i] + u * (t[i + 1] - t[i]) for i, u, _ in kinks])
    jumps = np.array([j for _, _, j in kinks])
    a = draw(st.sampled_from([0.0, 0.05, 0.5]))
    b = draw(st.floats(0.5, 30.0))
    nan_from = draw(st.none() | st.builds(lambda i: float(t[min(i, n - 1)]), index))

    def f(x):
        y = x + np.maximum(x[:, None] - taus, 0.0) @ jumps + a * _silu(b * x)
        if nan_from is not None:
            y[x > nan_from] = np.nan
        return y

    return n, lo, hi, f


class TestStreamedScanner:
    @settings(max_examples=120)
    @given(scan_cases())
    def test_report_and_error_match_the_whole_lattice_scan(self, case):
        n, lo, hi, f = case
        assert _outcome(scan_breakpoints, f, lo, hi, n) == _outcome(whole_lattice_scan, f, lo, hi, n)

    @settings(max_examples=40)
    @given(n=st.sampled_from(SAMPLE_COUNTS), a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6))
    @example(n=B + 1, a=-1.7, b=0.35)   # (n-1) steps from lo fall short of hi
    def test_blocks_are_linspace_bit_for_bit(self, n, a, b):
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            return
        blocks = []

        def f(x):
            blocks.append(x.copy())
            return np.zeros_like(x)

        scan_breakpoints(f, lo, hi, n)
        assert [b.size for b in blocks] == [min(B, n - i) for i in range(0, n, B)]
        assert np.concatenate(blocks).tobytes() == np.linspace(lo, hi, n).tobytes()

    def test_kink_on_each_side_of_a_block_edge(self):
        # a pair-rule kink midway between samples B-2 and B-1: its two
        # second differences straddle the first block's last flag, and
        # its quiet neighbours lie in the next block
        t = np.linspace(-1.0, 1.0, 2 * B + 7)
        taus = np.array([0.5 * (t[k] + t[k + 1]) for k in (B - 3, B - 2, B - 1, B)])
        for tau in taus:
            def f(x, tau=tau):
                return x + 1.5e-3 * np.maximum(x - tau, 0.0)

            streamed = scan_breakpoints(f, -1.0, 1.0, t.size)
            assert streamed.interior_count == 1 and streamed.flagged_samples == 2
            assert _outcome(scan_breakpoints, f, -1.0, 1.0, t.size) == \
                _outcome(whole_lattice_scan, f, -1.0, 1.0, t.size)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_pair_with_a_loud_neighbour_across_a_block_edge(self, side):
        # a pair-rule kink midway between samples p+1 and p+2 and, beside
        # its second differences p and p+1, a kink on a sample whose
        # second difference is 0.6x the threshold: not quiet, so the pair
        # does not stand alone; the block that flags the pair must see it
        n = 2 * B + 7
        t = np.linspace(-1.0, 1.0, n)
        for p in range(B - 4, B + 2):
            loud = p if side == "left" else p + 3
            taus = np.array([t[loud], 0.5 * (t[p + 1] + t[p + 2])])
            jumps = np.array([0.6e-3, 1.5e-3])

            def f(x, taus=taus):
                return x + np.maximum(x[:, None] - taus, 0.0) @ jumps

            assert _outcome(scan_breakpoints, f, -1.0, 1.0, n) == \
                _outcome(whole_lattice_scan, f, -1.0, 1.0, n)
            assert scan_breakpoints(f, -1.0, 1.0, n).flagged_samples == 0
