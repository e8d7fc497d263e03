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
(``tests/test_splines.py`` bounds it).  The conversion into that form is:
``PP_DIGESTS`` covers ``pp_tables``' ``(origin, Q)`` on the same grids,
with fixed coefficients, for each knot row and for the knot matrix.
``EXACT_DIGESTS`` covers ``exact_breakpoints``' reports (``to_dict``,
JSON with sorted keys) on seeded random K=1 stacks of KAN, FR-KAN (shifts
at Z 8, 1.05 and 0.3) and ReLU/identity MLP layers, four slices each,
some reaching past [a, b]; odd seeds keep the last layer's SiLU.
``SCAN_DIGESTS`` covers ``scan_breakpoints``' reports at 200k samples on
seeded random K=1 KAN and FR-KAN stacks whose hidden layers keep the
SiLU, so the exact path does not apply: one slice along each input axis
of the summed output, ``slice_map``, over a range that may pass [a, b].

The pinned digests were taken before the kernel last changed,
``EXACT_DIGESTS`` before the exact path read ``pp_tables``, and
``SCAN_DIGESTS`` while the scanner still evaluated its whole lattice in
one array; a change that moves any value by one bit (a signed zero, a
NaN's payload) breaks them.  The kernel uses no BLAS and no ``exp``, so
its digests do not depend on the BLAS build; the exact path's and the
scanner's matrix products and SiLU do, so ``EXACT_DIGESTS`` and
``SCAN_DIGESTS`` hold for one numpy build.  To re-pin them after a
deliberate change of values, run
``PYTHONPATH=src python tests/test_kernel_digests.py``.
"""

import hashlib
import json

import numpy as np
import pytest

from frkan.knots import exact_breakpoints, scan_breakpoints, slice_map
from frkan.layers import FRKANLayer, KANLayer, MLPLayer, Network
from frkan.splines import (
    basis_matrix,
    basis_window_on_tape,
    init_shift,
    make_uniform_grid,
    pp_tables,
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

PP_DIGESTS = {
    (1, 1, False): "787b19f9159b82e47f8d02abc9014cc126857291813d5ba6aa45e98897aa5162",
    (1, 1, True): "88dd0173588ca6d8b88438b4c6ac93ffefd4f5a6e2c76b162343f76d5879fc14",
    (1, 2, False): "29da6ddbf5c61b7aff1ce6104d9949f53cfd04ea2cdc68f3f9c6d01bf9a99ccb",
    (1, 2, True): "51eaf6f84a7cd1bb9949ce6faa0abdcd4cd9a5adb0bada193d9b15928ae53041",
    (1, 5, False): "0e427017bc39355c991cb737a5579752e3a69dcfeaebf4d1cf60cd4981207345",
    (1, 5, True): "b2c38df813a1324778aca1348235dc232e267627ca2527222b6866eefe1e164d",
    (1, 20, False): "ab581c98f529e92972e2a01d2ba49985705aa71fd66eb037770b875a968144d8",
    (1, 20, True): "d8268761b3c6dc06efe4afe611ccbb9aee0fd5fed06a2198812bfade5c9627d2",
    (2, 1, False): "062b8194a33c7e69c062aaa50425e3236a7f51573b1778719708f9a4eb7f40fb",
    (2, 1, True): "f9984fa0b2414f641147d7e2e52a678081154a473593511e3340011b3f627500",
    (2, 2, False): "3e7bcb5abcfc0cca2ee80e632dc25e25b99382ac27f12a59e31730457a1ee3c3",
    (2, 2, True): "d2d9df5b50e0a4f7fe70b8235e6f941893420704e3e371e96f28f4f14d2db76d",
    (2, 5, False): "42b0fe7a8566fe0ceca117ce48fddd8577b881c433a7a85facd6c6675f063a65",
    (2, 5, True): "dd399f89e639c5b77c8d7f30106446a51104e627c25adc48f00a323f4bd5cf7e",
    (2, 20, False): "8238eb96662d0b76a7c6dd50b03f3e4aacf775b2f3124fcab9a7a19a989abffa",
    (2, 20, True): "8896f6fbdbee035e911574a919a40a0fcdc1a65ce038245dd2001920f8b3cbf0",
    (3, 1, False): "ae98e807a069ced315d038aff45cf7284682f9c03c70e4f0d552fc0adc53e68a",
    (3, 1, True): "0d96bfc9b473fd237de82b54944d8aef815681444e3a4e182d580072e0b5c07c",
    (3, 2, False): "83923015aade275f654835328f49bbcb12e306c561eb3d311c21a43ad74cbe19",
    (3, 2, True): "80b4670f2bf1bc88dbaed11ef49603dc085a9c454db34e8ff3ff428f6ed74c18",
    (3, 5, False): "a8921c85a25b202d84fc0efcdc9be7cdd038e9235756ef0214d1bb7fb9fc4c33",
    (3, 5, True): "77cfdbd41c9ab9b6266db9eeb3633babeee83bae31a542767f6eaaddc4684a6f",
    (3, 20, False): "d076ea7d5dc757aa840fdb4b67665491a34039e0d64d514262cc3592a9117366",
    (3, 20, True): "9ab6ff0837cb87acb250ca6351ecdca35572aa877d57e5b100f3017dec7bdb74",
}

EXACT_SEEDS = range(16)

EXACT_DIGESTS = {
    0: "19c3f8275ffa76fc68c4927e9c92a36a813ee7d54c27243445c433292fc22d59",
    1: "eb838f7232cb981d17ad00da208f5d948882b7806b52e38609b796b7d01fc388",
    2: "d8255f31a86b42f403622addd9ca3e5e6a6a0e102b93ea7ff47e104e2b594fff",
    3: "49d6384c3ac1e8362bec349b4ec4acf03046a84aa2c0460a665430c92648e9c3",
    4: "982b6fa1af9d73c8a0c3bce6f7b46673b45579f27ad1e0a5291d7832c778e888",
    5: "2f8cb7d347e205c3ad7755bf0c3a2aa96c4e89355d58d9628b8708c7f718a891",
    6: "871c3c24744f914c078fafd458ceafc79a5020f690d2fb36e79ec3cfb190c729",
    7: "49a40dd5ccc5c9a89607ceb998e15804f50c446d7c2862c9f1bfe49c3cd581c3",
    8: "d447809ca50f57bb31f777b713730f6ccfa8f25530f46590439b15388ad49edd",
    9: "dbed8f2f64269dc6431ed240bf064d76811e47493d987ffc1665ebd03dee8a71",
    10: "5c3cff6b97568370857e169a2eaacc1738834092c87f8256f31ea0b4e1ed2ff5",
    11: "2db578fcb6a3f0ad97d2b3110a4e09f21e873fdc7a272829e772449a925a9984",
    12: "0f2caacd8c54f27b5d35062ca896aebe2bdd12bed01a2f4739efcfd52fd95a8c",
    13: "5a9f203b30842239a3b259c249890df5528ca629d74d39e16a0223c4d2a97cc3",
    14: "0b6d795476d61281c9f3799bdc83e44b8fef0334b0df97b54ab694966380fa92",
    15: "1a0c57a5335ab1b55ce8efb7506024a87d44841aaf48a6946fd1142ceeee7ca2",
}


SCAN_SEEDS = range(12)

SCAN_DIGESTS = {
    0: "a71c9865017487f7e457333b8998214eddebfe1957e3e9fb3cd372613164d539",
    1: "abfb66ab46cb0e866d0f18635cb0f8a9b2c3bdaeff90c459d56139ef108de3f8",
    2: "4d1fa377bc585eb340993e9c8d8475b7483de3cad548ebacbc0fc126633d0bef",
    3: "6e816502d3ba90c5ea83e545c81a7c0213d9cf672548cd19a9675a521bf3a7fe",
    4: "a20032f38f97b0c624003b77a73d26fa9b569b0736ae9c0e1640b1754794688b",
    5: "0ce966b134b16e66a4af64ea7937509ebed3fb9570e6147a61713b909d9997c9",
    6: "71ee21ad9b60823d46e94fde49f4dd19cc092524bba1ddc6aaa28a983d7c85b0",
    7: "edff973a3ca145ae1d68d968bf6c74a8ae6edcda643a590fe55289b3cd4678f7",
    8: "b605dd12a14d24948df6c23cf03d47b7439bc7d4d85a1f7ba07f5012d967f026",
    9: "c90a83101112a87a0524cff432c2329e37004dbde0eaea430875c47be525dee4",
    10: "bb6fe5ac2835fbbaecde200333efb5b40a98a92a159da39e44a0b95a018d9f41",
    11: "e99d46e667a0ac55b8f2b8ab4b295e67bed6220af56d29b27784be38d99dc0fe",
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


def pp_digest(K, G, shifted):
    kv, T = _grid(K, G, shifted)
    C = np.random.default_rng(100 * G + K + 7 * shifted).normal(size=(len(T), kv.n_bases))
    h = hashlib.sha256()
    for t, c in [*zip(T, C), (T, C)]:
        for a in pp_tables(t, K, c):
            h.update(a.tobytes())
    return h.hexdigest()


def _k1_stack(rng, last_silu):
    """A random stack the exact path takes: K=1 spline and MLP layers."""
    kv = make_uniform_grid(-1.0, 1.0, int(rng.integers(2, 9)), 1)
    widths = [int(w) for w in rng.integers(1, 4, size=int(rng.integers(2, 5)))]
    mods = []
    for k, (d, o) in enumerate(zip(widths, widths[1:])):
        silu = last_silu and k == len(widths) - 2
        kind = str(rng.choice(["kan", "frkan", "relu", "identity"]))
        if kind == "kan":
            mods.append(KANLayer(d, o, kv, rng.normal(size=(d, o, kv.n_bases)),
                                 rng.normal(size=(d, o)), rng.normal(size=(d, o)),
                                 silu_path=silu))
        elif kind == "frkan":
            h = int(rng.integers(1, d + 1))
            shifts = np.stack([init_shift(kv, rng.choice([8.0, 1.05, 0.3]), rng)
                               for _ in range(h)])
            mods.append(FRKANLayer(d, o, h, -1.0, 1.0, kv.G, 1, rng.normal(size=(h, kv.n_bases)),
                                   shifts, rng.normal(size=(d, o)), silu_path=silu))
        else:
            mods.append(MLPLayer(rng.normal(size=(d, o)), rng.normal(size=o), kind))
    return Network(mods)


def exact_digest(seed):
    rng = np.random.default_rng(seed)
    net = _k1_stack(rng, seed % 2 == 1)
    h = hashlib.sha256()
    for _ in range(4):
        lo = rng.uniform(-3.0, 0.0)
        direction = None if rng.random() < 0.25 else rng.normal(size=net.d_in)
        report = exact_breakpoints(net, lo, lo + rng.uniform(0.1, 4.0), direction)
        h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def _silu_stack(rng):
    """A random K=1 stack of KAN and FR-KAN layers, every one with the
    SiLU shortcut, so its slice goes to the scanner."""
    G = int(rng.integers(2, 9))
    kv = make_uniform_grid(-1.0, 1.0, G, 1)
    widths = [int(w) for w in rng.integers(1, 4, size=int(rng.integers(3, 5)))]
    mods = []
    for d, o in zip(widths, widths[1:]):
        if rng.random() < 0.5:
            mods.append(KANLayer(d, o, kv, rng.normal(size=(d, o, kv.n_bases)),
                                 rng.normal(size=(d, o)), rng.normal(size=(d, o))))
        else:
            h = int(rng.integers(1, d + 1))
            shifts = np.stack([init_shift(kv, rng.choice([8.0, 1.05, 0.3]), rng)
                               for _ in range(h)])
            mods.append(FRKANLayer(d, o, h, -1.0, 1.0, G, 1, rng.normal(size=(h, kv.n_bases)),
                                   shifts, rng.normal(size=(d, o))))
    return Network(mods)


def scan_digest(seed):
    rng = np.random.default_rng([seed, 28])
    net = _silu_stack(rng)
    h = hashlib.sha256()
    for axis in np.eye(net.d_in):
        lo = rng.uniform(-1.5, -0.5)
        report = scan_breakpoints(slice_map(net, axis), lo, lo + rng.uniform(1.0, 2.5),
                                  samples=200_000)
        h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("K, G, shifted", GRIDS)
def test_kernel_outputs_keep_their_digest(K, G, shifted):
    assert kernel_digest(K, G, shifted) == DIGESTS[K, G, shifted]


@pytest.mark.parametrize("K, G, shifted", GRIDS)
def test_pp_tables_keep_their_digest(K, G, shifted):
    assert pp_digest(K, G, shifted) == PP_DIGESTS[K, G, shifted]


@pytest.mark.parametrize("seed", EXACT_SEEDS)
def test_exact_reports_keep_their_digest(seed):
    assert exact_digest(seed) == EXACT_DIGESTS[seed]


@pytest.mark.parametrize("seed", SCAN_SEEDS)
def test_scan_reports_keep_their_digest(seed):
    assert scan_digest(seed) == SCAN_DIGESTS[seed]


if __name__ == "__main__":
    for name, digest in (("DIGESTS", kernel_digest), ("PP_DIGESTS", pp_digest)):
        print(f"{name} = {{")
        for grid in GRIDS:
            print(f"    {grid}: \"{digest(*grid)}\",")
        print("}")
    for name, digest, seeds in (("EXACT_DIGESTS", exact_digest, EXACT_SEEDS),
                                ("SCAN_DIGESTS", scan_digest, SCAN_SEEDS)):
        print(f"{name} = {{")
        for seed in seeds:
            print(f"    {seed}: \"{digest(seed)}\",")
        print("}")
