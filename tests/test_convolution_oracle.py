"""Differential tests: the two exact integer convolution paths and `poly_pow`.

`rings._exact_convolve_int` sends sparse inputs (nnz(a) * nnz(b) at most the
output cell count) to `_convolve_sparse`, which sums the pairwise products of
nonzero cells, and denser ones to `_convolve_packed`, the big-int packing.
Each path is checked on its own against a brute-force convolution on Python
integers, and `poly_pow`, which every ring reaches through that one function,
against repeated multiplication by the dict-convolution oracle.
"""

import numpy as np
import pytest

from modshift import GFRing, ShiftPolynomial, ZmodRing, frobenius_power, make_ring, parse_rule
from modshift import rings
from modshift.errors import InvalidParameterError
from modshift.rings import _convolve_packed, _convolve_sparse, _exact_convolve_int
from modshift.rng import CounterRng
from modshift.shiftpoly import from_rule, identity_poly, poly_pow

from test_shiftpoly import naive_poly_mul, random_poly

PATHS = {"sparse": _convolve_sparse, "packed": _convolve_packed}


def brute_convolve(a, b):
    """Full convolution on Python integers: one shifted copy of b per cell of a."""
    out = np.zeros(tuple(sa + sb - 1 for sa, sb in zip(a.shape, b.shape)), dtype=object)
    bo = b.astype(object)
    for idx in np.ndindex(a.shape):
        if a[idx]:
            out[tuple(slice(i, i + s) for i, s in zip(idx, b.shape))] += int(a[idx]) * bo
    return out


def _box(shape, density, high, seed):
    """An int64 box with about `density` of its cells set to codes in [1, high)."""
    rng = CounterRng(seed, stream=17)
    size = int(np.prod(shape))
    values = rng.uniform_codes(0, (size,), high - 1) + 1
    keep = rng.uniform_codes(1, (size,), 1000) < int(1000 * density)
    return np.where(keep, values, 0).astype(np.int64).reshape(shape)


def _check(path, a, b):
    got = PATHS[path](a, b)
    assert got.dtype == np.int64
    want = brute_convolve(a, b)
    assert got.shape == want.shape
    assert got.tolist() == want.tolist()


SHAPES = [
    ((7,), (5,)),
    ((1,), (9,)),
    ((4, 6), (3, 5)),
    ((5, 1), (1, 4)),
    ((3, 4, 2), (2, 3, 3)),
    ((1, 1, 1), (2, 2, 2)),
]


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("shapes", SHAPES, ids=str)
@pytest.mark.parametrize("density", [0.15, 0.6, 1.0])
def test_paths_match_brute_force(path, shapes, density):
    sa, sb = shapes
    a = _box(sa, density, 7, seed=len(sa) + 1)
    b = _box(sb, density, 65521, seed=len(sb) + 2)
    _check(path, a, b)


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("shapes", SHAPES, ids=str)
def test_all_zero_boxes(path, shapes):
    sa, sb = shapes
    a = np.zeros(sa, dtype=np.int64)
    b = _box(sb, 0.5, 5, seed=3)
    _check(path, a, b)
    _check(path, b, a)
    _check(path, a, np.zeros(sb, dtype=np.int64))


@pytest.mark.parametrize("path", sorted(PATHS))
def test_single_cells(path):
    _check(path, np.array([3], dtype=np.int64), np.array([4], dtype=np.int64))
    _check(path, np.array([[2]], dtype=np.int64), _box((3, 4), 0.5, 9, seed=4))
    a = np.zeros((3, 1, 4), dtype=np.int64)
    a[2, 0, 1] = 5
    b = np.zeros((2, 3, 2), dtype=np.int64)
    b[1, 2, 0] = 7
    _check(path, a, b)


def _crossover_pair(nnz_b):
    """1-D inputs with nnz(a) * nnz(b) = 4 * nnz_b against 20 output cells."""
    a = np.array([1, 2, 3, 4], dtype=np.int64)
    b = np.zeros(17, dtype=np.int64)
    b[np.linspace(0, 16, nnz_b).astype(int)] = np.arange(1, nnz_b + 1)
    assert np.count_nonzero(b) == nnz_b
    return a, b


@pytest.mark.parametrize(
    "nnz_b, path", [(4, "sparse"), (5, "sparse"), (6, "packed"), (17, "packed")]
)
def test_dispatch_at_the_crossover(monkeypatch, nnz_b, path):
    a, b = _crossover_pair(nnz_b)
    calls = []
    for name, fn in (("sparse", _convolve_sparse), ("packed", _convolve_packed)):
        monkeypatch.setattr(
            rings, f"_convolve_{name}", lambda x, y, _n=name, _f=fn: calls.append(_n) or _f(x, y)
        )
    got = _exact_convolve_int(a, b)
    assert calls == [path]
    assert got.tolist() == brute_convolve(a, b).tolist()
    for name in PATHS:
        _check(name, a, b)


def test_overflow_is_refused_on_both_paths():
    big = np.array([3037000500], dtype=np.int64)  # big**2 > 2**63
    for fn in PATHS.values():
        with pytest.raises(InvalidParameterError, match="overflow"):
            fn(big, big)
    with pytest.raises(InvalidParameterError, match="overflow"):
        _exact_convolve_int(big, big)


def test_sparse_guard_counts_nonzero_cells():
    # One nonzero 2**31 in a box of 4, squared: every output value is at most
    # 2**62, which the sparse guard accepts; the packed guard, which counts
    # the box, refuses it.
    a = np.array([0, 1 << 31, 0, 0], dtype=np.int64)
    got = _convolve_sparse(a, a)
    assert got.tolist() == brute_convolve(a, a).tolist()
    assert int(got.max()) == 1 << 62
    with pytest.raises(InvalidParameterError, match="overflow"):
        _convolve_packed(a, a)
    assert _exact_convolve_int(a, a).tolist() == got.tolist()


def test_inputs_are_not_mutated():
    a = _box((4, 5), 0.3, 11, seed=8)
    b = _box((3, 3), 0.9, 11, seed=9)
    a0, b0 = a.copy(), b.copy()
    for fn in (*PATHS.values(), _exact_convolve_int):
        fn(a, b)
        assert np.array_equal(a, a0) and np.array_equal(b, b0)


# -- poly_pow against repeated dict-convolution ----------------------------------------

POW_RINGS = [
    ZmodRing(2),
    ZmodRing(3),
    ZmodRing(4),
    ZmodRing(5),
    ZmodRing(6),
    GFRing(2, 2),
    GFRing(3, 2),
    make_ring("prod:[zmod:2;zmod:3]"),
]


def _naive_pow(f, t):
    acc = identity_poly(f.ring, f.dims)
    for _ in range(t):
        acc = naive_poly_mul(acc, f)
    return acc


@pytest.mark.parametrize("ring", POW_RINGS, ids=lambda r: r.descriptor()[:14])
@pytest.mark.parametrize("dims, n_terms", [((1, 0), 3), ((1, 1), 4), ((2, 0), 6), ((0, 1), 2)])
def test_poly_pow_matches_repeated_naive_mul(ring, dims, n_terms):
    f = random_poly(ring, dims, n_terms, seed=n_terms + 7 * dims[1])
    acc = identity_poly(ring, dims)
    for t in range(0, 10):
        assert poly_pow(f, t) == acc, t
        acc = naive_poly_mul(acc, f)


@pytest.mark.parametrize("ring", POW_RINGS, ids=lambda r: r.descriptor()[:14])
def test_poly_pow_sparse_powers_match_naive_mul(ring):
    # Two far-apart terms keep every square on the sparse path.
    f = ShiftPolynomial.from_terms(ring, (1, 1), {(0, 0): ring.one, (5, 3): ring.size - 1})
    for t in (11, 16, 17):
        assert poly_pow(f, t) == _naive_pow(f, t)


@pytest.mark.parametrize(
    "rule_text, k",
    [
        ("rule ring=zmod:3 rank=1 dims=1,1 H=(0,0):1;(1,1):2", 6),
        ("rule ring=zmod:5 rank=1 dims=1,1 H=(-1,0):2;(0,1):3", 4),
    ],
)
def test_deep_rules_match_frobenius_power(rule_text, k):
    rule = parse_rule(rule_text)
    p = rule.ring.characteristic
    assert poly_pow(from_rule(rule), p**k) == frobenius_power(rule, k)


def test_poly_pow_really_multiplies():
    # Over Z/4 the characteristic is not prime: (1 + x)**2 keeps its middle term.
    ring = ZmodRing(4)
    f = ShiftPolynomial.from_terms(ring, (1, 0), {(0,): 1, (1,): 1})
    assert poly_pow(f, 2).terms == (((0,), 1), ((1,), 2), ((2,), 1))


def test_products_are_canonical_python_ints():
    ring = ZmodRing(5)
    f = random_poly(ring, (1, 1), 5, seed=2)
    g = poly_pow(f, 7)
    assert g == ShiftPolynomial.from_terms(ring, g.dims, dict(g.terms))
    assert list(g.terms) == sorted(g.terms)
    for off, c in g.terms:
        assert type(c) is int and 0 < c < ring.size
        assert type(off) is tuple and all(type(x) is int for x in off)
