"""Bit-identity of the basis kernel: SHA-256 digests of its outputs.

Each case is one of 24 grids (K 1-3, G 1/2/5/20, the unshifted grid row
or a two-row knot matrix with shifts drawn at Z=8 and Z=1.05) with fixed
inputs: random points across and beyond the knots, every knot and the
float just below it, NaN and +-inf, and a batch whose every input lies
in an interior span.  The digest covers ``basis_matrix`` and
``spline_values`` on every knot row, and ``basis_window_on_tape``'s
``(m, W, gx, gt)`` over one knot row, a knot matrix with one row per
input and one with one row per column of a 2-D x.

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
    spline_values,
)

GRIDS = [(K, G, shifted) for K in (1, 2, 3) for G in (1, 2, 5, 20)
         for shifted in (False, True)]

DIGESTS = {
    (1, 1, False): "291b72b22dcac2866120e28b040087a79e6b4a0089f37f6ae34b80c0e65cedfa",
    (1, 1, True): "0eb8e831edb8d6febfd8dab848b48c0270e884f6fbeb437de4d30062cdaa27cd",
    (1, 2, False): "886fc2c928b372f53e648cd06a8da32215c33495fe7d7dd3e52fc08679912fd3",
    (1, 2, True): "f43f678ae6600eae77a108831dc98467fad8b66da078f967b2e17befaa1b3120",
    (1, 5, False): "cca23bc2c9f3b9a96471b1aa72a375ccb562720192d5e332e1da871e5fcd059e",
    (1, 5, True): "982fee441d25ed9f120f558b46ba4276097fb9ad652b92766afd6cce75a8e2f2",
    (1, 20, False): "c99a13c857b7dde72df0b56a8899222947453a7d05987f2453e9be6bc7157ec8",
    (1, 20, True): "a5e28c40b1a80d794da18d03c143d4bdd49e9f67c9e6744ac811c0fc20f134d8",
    (2, 1, False): "41c9c5aff7fef408d043f366cdd851bfd53380e188287b7050ba58996cf0bfea",
    (2, 1, True): "0c56cb4904c12e06f902018bf56350fd539d917f580d18a8d3550e89bef433e5",
    (2, 2, False): "43919e8b1ba9f69e632b048cb773ed32c17565ecda5fd56525c8dacf00ed7f39",
    (2, 2, True): "b17cd5cc0d679843e04c00d57ac180aa469e626d026cf191375c5cf16d2d11f8",
    (2, 5, False): "b327f53e31644a4ce12832adb9696bd71b671d21d3f56cc843bbc2a0735ac4a9",
    (2, 5, True): "ee42308e763de3470f21ea9a8a2333b8bd65975b9458e9dc88adf6f68b57595f",
    (2, 20, False): "3cb55aa870ac78c6f170c54ac0cfb6286ca7a7f8363e97d7a94d1b833b3f2dd4",
    (2, 20, True): "1fe44cef4ad52c9ea456e87adb4361b341cd21b2ee4ca507da08f7b2da100337",
    (3, 1, False): "bdebd9cb4d6a587795e3f499811de02154c1e73760a973e89268b63c4170c831",
    (3, 1, True): "0d5c272dbde1524acb48d15b7a32bb637d516047ede14a6e9066282917f5da0b",
    (3, 2, False): "fe4687677f5d5c5ce2d160c508639e09f911346d27ff9ea42fb2dd4e9ce1a832",
    (3, 2, True): "06da2e5fa4ba44b0f99d834346c489f19501982dc4dab98605e37b59eb40adbb",
    (3, 5, False): "98a5f7bf454e46a39b3bd128d9ee456ba40bca4e39222b6918b930ed03d2478a",
    (3, 5, True): "dcfc2f919f4b2b35c8e77939d8a769cc627e04b6bbd115e5a5f6be20cecdf75b",
    (3, 20, False): "1a27bb88cd5ecc2f43b6d0da782342bb2ee29026a08013becbe3aad83443e035",
    (3, 20, True): "7f7cd10fdb173c7463b10081b7d71539acd3ad815168cc7ee2a7c809aa9460fe",
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
        c = rng.normal(size=kv.n_bases)
        for x in (general, interior):
            h.update(basis_matrix(x, t, K).tobytes())
            h.update(spline_values(x, t, K, c).tobytes())
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
