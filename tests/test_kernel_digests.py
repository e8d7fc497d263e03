"""Bit-identity of the basis kernel: SHA-256 digests of its outputs.

Each case is one of 24 grids (K 1-3, G 1/2/5/20, the unshifted grid row
or a two-row knot matrix with shifts drawn at Z=8 and Z=1.05) with fixed
inputs: random points across and beyond the knots, every knot and the
float just below it, NaN and +-inf, and a batch whose every input lies
in an interior span.  The digest covers ``basis_matrix`` on every knot
row, and ``basis_window_on_tape``'s ``(m, W, gx, gt)`` over one knot
row, a knot matrix with one row per input and one with one row per
column of a 2-D x.  ``spline_values`` is not pinned: it evaluates the
per-span polynomial form, which agrees with the recursion to rounding
(``tests/test_splines.py`` bounds it).

The pinned digests were taken before the kernel last changed; a change
that moves any value by one bit (a signed zero, a NaN's payload) breaks
them.  The path uses no BLAS and no ``exp``, so the digests do not depend
on the BLAS build.  To re-pin them after a deliberate change of values,
run ``PYTHONPATH=src python tests/test_kernel_digests.py``.
"""

import hashlib

import numpy as np
import pytest

from frkan.splines import (
    basis_matrix,
    basis_window_on_tape,
    init_shift,
    make_uniform_grid,
)

GRIDS = [(K, G, shifted) for K in (1, 2, 3) for G in (1, 2, 5, 20)
         for shifted in (False, True)]

DIGESTS = {
    (1, 1, False): "c720d749bf4e87fe36bd907c3958ce0502ea9b01ced7e651ffa0958dbbae6d61",
    (1, 1, True): "09bc296b092e666a9611dd0350498e0117dd3c01913e3c5211b2c453aa2eb318",
    (1, 2, False): "1a5b33d2c3b45a696352e2e8b3c407d5d7db54db19a2024f5876b600a6f036d4",
    (1, 2, True): "1ee04f9315fc1c664065c79c74f021a1c462d64442679f46e8a5bf1555ed9a1d",
    (1, 5, False): "905624cdb75b6668741d75706dd8aaca734abf10619e242087c74e8f6022850b",
    (1, 5, True): "6d3b98f424e7ec2be8271130d218d8b403a2bdd312c51ee00ce46f2d097324b5",
    (1, 20, False): "22100172cfef856410a7c593b4e0532b9bfcd15df231bbc8609039814982ff54",
    (1, 20, True): "f08b4de4a280904eb0a348faf420c76c60a150fa4fb7791bd8bb1b8f53c4d37b",
    (2, 1, False): "7b897d03f264de104c3ab81b5b23dc9e2e44277f4d9ce7ef62817c1c9c9bdaf8",
    (2, 1, True): "88fe01c4cb70c41b9ed98cecf6f5a5cba163d9f6acdc489bc1579ab6e0b60808",
    (2, 2, False): "3e1a567191b8ff73a1e860f2ad7e31ef2942df16fdaa0300414459b9f0f8fa61",
    (2, 2, True): "c366c804778ccf75624d80cc308e40edc143e4ede43d99fe2062831639cf372f",
    (2, 5, False): "91d730299754ce08ed9362f1193258fb6404c4221f85f91d9ee03c0b67e2adb1",
    (2, 5, True): "3338f8539fd6f0acbb9afe3178080befb5ca1bf8ea290a873a2768a684041b53",
    (2, 20, False): "21b3f1ba832794dda229929dee82e4fe3e4bd43903b2504e810e84b26b0e4596",
    (2, 20, True): "3422f1c4a107f2257aeb12426595db0c80c22686b7862155def2981353a99ee5",
    (3, 1, False): "a4bbe40b9c6d457737c537343acc2593bbf2469c855159bdc0941a4665fcf7ff",
    (3, 1, True): "d8ebefb02e1362e5183105a3989341fd53061ea70e03b51deba6b9d289a68e4b",
    (3, 2, False): "2ef2c724acd08ebff9924b3dc44c4974297c00db2a5570f3c4f25763fd29ddbb",
    (3, 2, True): "3328b3e44bd420fbef2bfcecb208ea571ec10318b646a59ab6cd985eb6b47124",
    (3, 5, False): "84fb070bbd104f3fb3381120d1029c00741b71c95aa73e7a120d454dec633584",
    (3, 5, True): "6228fb408e08f63a4f97f3ccce4412f14a3198403d3671587bdd57e85cc05d13",
    (3, 20, False): "8b733486a265c54197468654e37bd20907dbba912d0225c1cd127bddacb58ac5",
    (3, 20, True): "70d521c374433647c2e495ec51b5e8beea17be06c792e3d6727055a30601ff74",
}


def _grid(K, G, shifted):
    kv = make_uniform_grid(-2.0, 3.0, G, K)
    if not shifted:
        return kv, kv.row[None, :]
    seed = 10 * G + K
    return kv, kv.knot_matrix([init_shift(kv, 8.0, seed), init_shift(kv, 1.05, seed + 1)])


def _inputs(T, K, G, rng):
    """Points across, beyond and on the knots of every row, non-finite
    points, and (separately) points in interior spans of every row."""
    general = [np.array([np.nan, np.inf, -np.inf])]
    for t in T:
        width = t[-1] - t[0]
        general += [rng.uniform(t[0] - 0.5 * width, t[-1] + 0.5 * width, 40),
                    t, np.nextafter(t, -np.inf)]
    general = np.concatenate(general)
    rows = rng.integers(0, len(T), size=24)
    spans = rng.integers(K, G + K, size=24)
    lo, hi = T[rows, spans], T[rows, spans + 1]
    interior = np.minimum(lo + rng.uniform(0.0, 1.0, 24) * (hi - lo),
                          np.nextafter(hi, -np.inf))
    return general, interior


def _interior_columns(T, K, G, cols, n, rng):
    """An (n, len(cols)) batch whose column j lies in interior spans of knot row cols[j]."""
    spans = rng.integers(K, G + K, size=(n, len(cols)))
    lo, hi = T[cols, spans], T[cols, spans + 1]
    return np.minimum(lo + rng.uniform(0.0, 1.0, (n, len(cols))) * (hi - lo),
                      np.nextafter(hi, -np.inf))


def _window(h, x, T, K, rows, rng):
    m, W, backward = basis_window_on_tape(x, T, K, rows)
    gx, gt = backward(rng.normal(size=W.shape))
    h.update(b"window")
    for a in (m, W, gx) + (() if gt is None else (gt,)):
        h.update(np.ascontiguousarray(a).tobytes())


def kernel_digest(K, G, shifted):
    kv, T = _grid(K, G, shifted)
    rng = np.random.default_rng(100 * G + K + 7 * shifted)
    general, interior = _inputs(T, K, G, rng)
    h = hashlib.sha256()
    for t in T:
        for x in (general, interior):
            h.update(basis_matrix(x, t, K).tobytes())
            _window(h, x, t, K, None, rng)
    for x in (general, interior):
        _window(h, x, T, K, rng.integers(0, len(T), size=x.size), rng)
    # one knot row per contiguous column block, as a cached FR-KAN forward
    cols = np.repeat(np.arange(len(T)), 2)
    X = _interior_columns(T, K, G, cols, 9, rng)
    _window(h, X, T, K, cols, rng)
    X[4, -1] = general[rng.integers(0, general.size)]
    X[7, 0] = T[0, -1]
    _window(h, X, T, K, cols, rng)
    return h.hexdigest()


@pytest.mark.parametrize("K, G, shifted", GRIDS)
def test_kernel_outputs_keep_their_digest(K, G, shifted):
    assert kernel_digest(K, G, shifted) == DIGESTS[K, G, shifted]


if __name__ == "__main__":
    for grid in GRIDS:
        print(f"    {grid}: \"{kernel_digest(*grid)}\",")
