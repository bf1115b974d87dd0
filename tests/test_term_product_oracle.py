"""Differential tests: products on term arrays and packed table-ring sums.

`poly_mul` multiplies sparse polynomials on term arrays (`rings.term_product`,
then `Ring.run_sums` per offset) and denser ones on coefficient boxes.  The
box product that every product used before (`oracles.box_poly_mul`) is the
reference, and the dict convolution where no box fits.  Table rings (GF and
product rings) sum stencil terms in packed bit fields of their additive
digits; the generic sum with two table gathers per term
(`oracles.generic_weighted_sum`) and the reduce-each stencil are the
reference.  The checkerboard residue table is checked against
`config_from_function`, and the CRT conjugacy check on narrow codes against
the per-trial loop.
"""

import dataclasses
import pathlib

import numpy as np
import pytest

from modshift import GFRing, ModuleSpec, ProductRing, WindowSpec, ZmodRing, make_ring, parse_rule
from modshift import crt, rings, shiftpoly
from modshift.bundled import checkerboard_system, torsion_demo_system
from modshift.experiment import frobenius_check, parse_experiment
from modshift.kernels import coset_from_cocycle
from modshift.lattice import checkerboard_config, config_from_function, coordinate_sum_images
from modshift.rng import CounterRng
from modshift.shiftpoly import (
    ShiftPolynomial,
    frobenius_power,
    from_rule,
    poly_mul,
    poly_pow_charp,
    stencil,
)

from oracles import box_poly_mul, generic_weighted_sum, per_trial_conjugacy, reduce_each_batch
from test_properties import RING_POOL
from test_shiftpoly import naive_poly_mul, random_poly

ROOT = pathlib.Path(__file__).resolve().parent.parent
POOL = RING_POOL + [ZmodRing(4)]  # GF(9) is in RING_POOL


def _ids(ring):
    return ring.descriptor()[:14]


def _canonical(poly):
    assert list(poly.terms) == sorted(poly.terms)
    assert poly == ShiftPolynomial.from_terms(poly.ring, poly.dims, dict(poly.terms))
    for off, c in poly.terms:
        assert type(c) is int and 0 < c < poly.ring.size
        assert type(off) is tuple and all(type(x) is int for x in off)


@pytest.fixture(params=["auto", "terms"])
def path(request, monkeypatch):
    """`auto` lets `poly_mul` choose; `terms` reports every output box as huge,
    so every product, however dense, runs on term arrays."""
    if request.param == "terms":
        monkeypatch.setattr(shiftpoly, "prod", lambda _: 1 << 80)
    return request.param


# -- products on term arrays -----------------------------------------------------------


@pytest.mark.parametrize("ring", POOL, ids=_ids)
@pytest.mark.parametrize("dims", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (1, 2)])
def test_term_products_match_box_products(ring, dims, path):
    for seed, (na, nb) in enumerate([(1, 1), (1, 4), (3, 3), (6, 2), (8, 8)]):
        a = random_poly(ring, dims, na, seed=3 * seed + 1)
        b = random_poly(ring, dims, nb, seed=3 * seed + 2, span=3)
        got = poly_mul(a, b)
        assert got == box_poly_mul(a, b) == naive_poly_mul(a, b)
        _canonical(got)


@pytest.mark.parametrize("ring", POOL, ids=_ids)
def test_products_that_cancel_to_fewer_terms(ring, path):
    # (1 + x)(1 - x) = 1 - x**2: the middle offset's two products cancel.
    minus = ring.neg(ring.one)
    a = ShiftPolynomial.from_terms(ring, (1, 1), {(0, 0): ring.one, (1, 2): ring.one})
    b = ShiftPolynomial.from_terms(ring, (1, 1), {(0, 0): ring.one, (1, 2): minus})
    got = poly_mul(a, b)
    assert got == box_poly_mul(a, b) == naive_poly_mul(a, b)
    assert got.support == ((0, 0), (2, 4))
    _canonical(got)


@pytest.mark.parametrize("ring", [r for r in POOL if not r.is_field], ids=_ids)
def test_products_that_cancel_to_zero(ring, path):
    x, y = next(
        (x, y) for x in range(1, ring.size) for y in range(1, ring.size) if ring.mul(x, y) == 0
    )
    a = ShiftPolynomial.from_terms(ring, (2, 0), {(0, 0): x, (-1, 3): x, (2, 2): x})
    b = ShiftPolynomial.from_terms(ring, (2, 0), {(0, -4): y, (1, 1): y})
    got = poly_mul(a, b)
    assert got.is_zero and got.terms == ()
    assert got == box_poly_mul(a, b)


def _crossover_pair(ring, nnz_b):
    """1-D polynomials with nnz(a) * nnz(b) = 4 * nnz_b against 20 output cells."""
    a = ShiftPolynomial.from_terms(ring, (1, 0), {(i,): ring.one for i in range(4)})
    picks = np.linspace(0, 16, nnz_b).astype(int).tolist()
    b = ShiftPolynomial.from_terms(ring, (1, 0), {(i,): ring.size - 1 for i in picks})
    assert len(b.terms) == nnz_b
    return a, b


@pytest.mark.parametrize("ring", [ZmodRing(3), ZmodRing(4), GFRing(3, 2)], ids=_ids)
@pytest.mark.parametrize("nnz_b, on_terms", [(4, True), (5, True), (6, False), (17, False)])
def test_dispatch_just_below_at_and_above_the_crossover(monkeypatch, ring, nnz_b, on_terms):
    a, b = _crossover_pair(ring, nnz_b)
    calls = []
    real = shiftpoly.term_product
    monkeypatch.setattr(shiftpoly, "term_product", lambda *args: calls.append(1) or real(*args))
    got = poly_mul(a, b)
    assert bool(calls) == on_terms
    assert got == box_poly_mul(a, b) == naive_poly_mul(a, b)
    _canonical(got)


FROBENIUS_RULES = [
    "rule ring=zmod:2 rank=1 dims=1,1 H=(-1,0):1;(0,0):1;(0,1):1",
    "rule ring=zmod:3 rank=1 dims=1,1 H=(-1,0):2;(0,1):1;(1,1):1",
    "rule ring=gf:2:2:1,1,1 rank=1 dims=2,0 H=(0,0):2;(1,-1):3",
]


@pytest.mark.parametrize("rule_text", FROBENIUS_RULES)
def test_frobenius_dilated_factor_at_p_to_the_40(rule_text):
    # At p**40 the output box has more than 2**63 cells (and over Z/3 the
    # offsets themselves pass int64), so no linear key can be formed.
    rule = parse_rule(rule_text)
    p = rule.ring.characteristic
    f, frob = from_rule(rule), frobenius_power(rule, 40)
    assert poly_pow_charp(f, p**40) == frob
    for a, b in ((frob, f), (f, frob), (frob, frob)):
        got = poly_mul(a, b)
        assert got == naive_poly_mul(a, b)
        _canonical(got)
    assert poly_pow_charp(f, p**40 + 1) == naive_poly_mul(frob, f)


def test_offsets_whose_sums_leave_int64():
    ring = ZmodRing(5)
    a = ShiftPolynomial.from_terms(ring, (1, 0), {(1 << 62,): 2, (0,): 1})
    b = ShiftPolynomial.from_terms(ring, (1, 0), {(1 << 62,): 3, (-(1 << 62),): 4})
    got = poly_mul(a, b)
    assert got.terms == (((-(1 << 62),), 4), ((0,), 3), ((1 << 62,), 3), ((1 << 63,), 1))
    assert got == naive_poly_mul(a, b)
    _canonical(got)


def _frobenius_rules():
    """(rule, ks) of every frobenius-check step in the bundled configs and the
    perfbench workloads, and of the bundled systems."""
    out = [(checkerboard_system().rule, (1, 2, 3)), (torsion_demo_system().rule, (1, 2, 3))]
    paths = sorted((ROOT / "src" / "modshift" / "configs").glob("*.cfg"))
    paths += sorted((ROOT / "perfbench" / "workloads").glob("*.cfg"))
    for cfg in paths:
        for _, step in parse_experiment(cfg.read_text()).steps:
            if step["kind"] == "frobenius-check":
                out.append((step["rule"], tuple(step["ks"])))
    return out


@pytest.mark.parametrize("rule, ks", _frobenius_rules(), ids=lambda x: str(x)[:40])
def test_frobenius_check_verdicts_unchanged(monkeypatch, rule, ks):
    torus = (7,) * (rule.dims[0] + rule.dims[1])
    got = [frobenius_check(rule, k, torus, 1, seed=3) for k in ks]
    assert all(c["structural"] and c["applied"] for c in got)
    monkeypatch.setattr(shiftpoly, "poly_mul", box_poly_mul)
    assert [frobenius_check(rule, k, torus, 1, seed=3) for k in ks] == got


def test_integer_sparse_convolution_uses_the_term_kernel(monkeypatch):
    calls = []
    real = rings.term_product
    monkeypatch.setattr(rings, "term_product", lambda *args: calls.append(1) or real(*args))
    a = np.zeros((5, 4), dtype=np.int64)
    a[0, 0], a[4, 3] = 7, 9
    got = rings._exact_convolve_int(a, a)
    assert calls == [1]
    want = np.zeros((9, 7), dtype=np.int64)
    want[0, 0], want[4, 3], want[8, 6] = 49, 126, 81
    assert np.array_equal(got, want)


# -- packed table-ring sums ------------------------------------------------------------

TABLE_RINGS = [
    GFRing(2, 2),
    GFRing(3, 2),
    GFRing(2, 3),
    ProductRing([ZmodRing(2), ZmodRing(5)]),
    make_ring("prod:[zmod:2;zmod:3]"),
]
# Eight one-bit digits: 300 terms need 72 bits of fields, so the sum reduces in chunks.
CHUNKED = make_ring("prod:[zmod:2;zmod:2;zmod:2;zmod:2;zmod:2;zmod:2;zmod:2;zmod:2]")


def _values(ring, count, extents, seed):
    return CounterRng(seed, stream=23).uniform_codes(0, (count,) + extents + (1,), ring.size)


def _coeffs(ring, n, seed):
    return [int(c) for c in CounterRng(seed, stream=29).uniform_codes(0, (n,), ring.size)]


def _grid_poly(ring, n_terms, seed):
    """n_terms distinct offsets of a 20-wide grid, with random coefficients."""
    coeffs = _coeffs(ring, n_terms, seed)
    coeffs = [c or ring.one for c in coeffs]
    offsets = [(i % 20 - 3, i // 20 - 1) for i in range(n_terms)]
    return ShiftPolynomial.from_terms(ring, (2, 0), dict(zip(offsets, coeffs)))


@pytest.mark.parametrize(
    "ring, n_terms",
    [(r, n) for r in TABLE_RINGS for n in (1, 2, 3, 64)] + [(CHUNKED, 300)],
    ids=lambda x: _ids(x) if isinstance(x, rings.Ring) else str(x),
)
@pytest.mark.parametrize("mode", ["exact", "torus"])
@pytest.mark.parametrize("narrow", [False, True], ids=["int64", "narrow"])
def test_table_ring_stencils_match_the_reduce_each_sum(ring, n_terms, mode, narrow):
    poly = _grid_poly(ring, n_terms, seed=n_terms)
    window = WindowSpec((2, 0), (-2, 1), (26, 20))
    values = _values(ring, 2, window.extents, seed=n_terms + 1)
    values[0] = ring.size - 1
    want_window, want = reduce_each_batch(poly, window, values, mode, ring)
    if narrow:
        values = values.astype(ring.sum_dtype(n_terms))
    got_window, got = stencil(poly.terms, values, window, mode, ring)
    assert got_window == want_window
    assert got.dtype == values.dtype and np.array_equal(got, want)


@pytest.mark.parametrize(
    "ring, n_terms",
    [(r, n) for r in TABLE_RINGS for n in (1, 2, 3, 64)]
    + [(CHUNKED, 300), (make_ring("prod:[zmod:3;zmod:3;zmod:3;zmod:3;zmod:3]"), 5000)],
    ids=lambda x: _ids(x) if isinstance(x, rings.Ring) else str(x),
)
def test_weighted_sum_matches_the_generic_sum(ring, n_terms):
    arrays = _values(ring, n_terms, (3, 4), seed=n_terms)[..., 0]
    coeffs = _coeffs(ring, n_terms, seed=n_terms + 1)
    want = generic_weighted_sum(ring, coeffs, list(arrays))
    for dtype in (np.int64, ring.sum_dtype(n_terms)):
        got = ring.weighted_sum(coeffs, iter(arrays.astype(dtype)))
        assert got.dtype == dtype and np.array_equal(got, want)


@pytest.mark.parametrize("n_terms, folds", [(255, 1), (256, 3), (300, 3), (600, 5)])
def test_chunked_reduction_is_decided_from_the_bound(monkeypatch, n_terms, folds):
    # Eight 8-bit fields hold 255 terms.  Past that the chunk halves until its
    # fields fit in 64 bits (256 -> 128, 300 -> 150, 600 -> 150); after the
    # first chunk each adds chunk - 1 terms to the reduced fields, and the
    # codes are read off once more at the end.  Zero and full codes reduce
    # equally often.
    calls = []
    real = rings._fold_fields
    monkeypatch.setattr(rings, "_fold_fields", lambda *args: calls.append(1) or real(*args))
    for fill in (0, CHUNKED.size - 1):
        calls.clear()
        arrays = np.full((n_terms, 5), fill, dtype=np.uint8)
        got = CHUNKED.weighted_sum([CHUNKED.one] * n_terms, arrays)
        assert len(calls) == folds
        assert np.array_equal(got, generic_weighted_sum(CHUNKED, [CHUNKED.one] * n_terms, arrays))


@pytest.mark.parametrize("ring", TABLE_RINGS + [CHUNKED], ids=_ids)
def test_run_sums_add_each_run_in_the_ring(ring):
    codes = _values(ring, 40, (), seed=5)[:, 0]
    starts = np.array([0, 1, 2, 7, 30, 39])
    got = ring.run_sums(codes, starts)
    ends = list(starts[1:]) + [len(codes)]
    want = [generic_weighted_sum(ring, [ring.one] * (e - s), codes[s:e, None])[0] for s, e in zip(starts, ends)]
    assert got.dtype == np.int64 and got.tolist() == [int(w) for w in want]


# -- checkerboard residue table ----------------------------------------------------------


@pytest.mark.parametrize(
    "ring_text",
    ["gf:2:2:1,1,1", "gf:3:2", "prod:[zmod:4;zmod:6]", "prod:[zmod:2;gf:2:2:1,1,1]", "zmod:7"],
)
@pytest.mark.parametrize(
    "dims, origin, extents",
    [((2, 0), (-5, -3), (4, 6)), ((1, 1), (-9, 2), (3, 5)), ((3, 0), (-1, 0, -2), (2, 3, 2)),
     ((1, 0), (-40, ), (31,))],
)
def test_coordinate_sum_images_match_config_from_function(ring_text, dims, origin, extents):
    ring = make_ring(ring_text)
    module = ModuleSpec(ring, 2)
    window = WindowSpec(dims, origin, extents)
    want = config_from_function(module, window, lambda site: ring.from_int(sum(site)))
    got = coordinate_sum_images(ring, window)
    assert got.dtype == np.int64 and np.array_equal(got, want.values[..., 0])
    assert checkerboard_config(module, window) == want
    c0, a = ring.one, ring.size - 1
    coset = config_from_function(
        module, window, lambda site: ring.add(c0, ring.mul(ring.from_int(sum(site)), a))
    )
    assert coset_from_cocycle(c0, a, window, module) == coset


# -- CRT conjugacy on narrow codes -------------------------------------------------------


def test_conjugacy_on_narrow_codes_matches_the_per_trial_loop():
    rule = parse_rule("rule ring=prod:[gf:2:2:1,1,1;zmod:3] rank=1 dims=1,0 H=(0):5;(1):10;(3):7")
    deco = crt.decompose_ring(rule.ring)
    assert crt.conjugacy_check(rule, deco, trials=30, torus_extents=(9,), seed=4).ok
    fwd = deco.forward_table.copy()
    fwd[7, 0] = 2  # 7 = (3, 1) should map to 3 in GF(4)
    bad = dataclasses.replace(deco, forward_table=fwd)
    res = crt.conjugacy_check(rule, bad, trials=30, torus_extents=(9,), seed=4)
    assert not res.ok
    assert res.counterexample == per_trial_conjugacy(rule, bad, 30, (9,), 4)


def test_conjugacy_plans_each_stencil_once_per_block_shape(monkeypatch):
    # 4096 cells a trial run in blocks of 16 trials: 40 trials give two block shapes.
    rule = parse_rule("rule ring=zmod:30 rank=1 dims=1,0 H=(-1):7;(0):1;(1):29")
    deco = crt.decompose_ring(rule.ring)
    plans = []
    real = crt.TorusStencil
    monkeypatch.setattr(crt, "TorusStencil", lambda *args: plans.append(args[-1]) or real(*args))
    assert crt.conjugacy_check(rule, deco, trials=40, torus_extents=(4096,), seed=1).ok
    shapes = sorted(set(plans))
    assert len(shapes) == 2 and len(plans) == 2 * (1 + deco.n_components)
