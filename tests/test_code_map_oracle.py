"""Differential tests: the stencil layer's code maps against the gathers they replaced.

Three code maps run as arithmetic on narrow codes, and each must give the
codes and the dtype of the map it replaced, bit for bit:

- `TorusStencil` on a batch of at most `SMALL_TORUS_CELL_TERMS` cells x terms,
  once applied for more than one step, steps by one gather, one dot and one
  table lookup.  It is compared with the padded-view step (the same plan with
  the constant set to 0) and with the reduce-each `np.roll` oracle, on 1-D,
  2-D and 3-D tori at rank 1 and 2, with offsets beyond the extents and
  Frobenius-dilated ones, on batches on both sides of the constant, for p**k
  steps and then for one step;
- `Ring.weighted_sum` of a characteristic-2 ring XORs bit planes; it is
  compared with `oracles.packed_gather_weighted_sum`, the packed-field gather
  every table ring took before;
- `CrtDecomposition.forward_arr` reduces or regroups codes; it is compared
  with `oracles.TableForwardDecomposition`, which gathers from `forward_table`.
"""

import dataclasses
import zlib
from fractions import Fraction

import numpy as np
import pytest

from modshift import shiftpoly
from modshift.crt import conjugacy_check, decompose_ring, project_measure, split_config
from modshift.lattice import WindowConfig, WindowSpec, code_dtype
from modshift.measures import bernoulli, point_mass, pushforward
from modshift.rings import GFRing, MixedRadix, ModuleSpec, is_prime, make_ring
from modshift.shiftpoly import (
    SMALL_TORUS_CELL_TERMS,
    LocalRule,
    ShiftPolynomial,
    TorusStencil,
    frobenius_power,
    from_rule,
)

from oracles import (
    generic_weighted_sum,
    packed_gather_weighted_sum,
    per_trial_conjugacy,
    reduce_each_batch,
    table_forward,
)

GF256 = "gf:2:8:1,1,0,1,1,0,0,0,1"
RINGS = [
    "zmod:2", "zmod:3", "zmod:5", "zmod:6", "zmod:30", "gf:2:2", "gf:2:3", "gf:2:4", GF256,
    "gf:3:2", "prod:[zmod:2;gf:2:2:1,1,1]", "prod:[gf:2:2:1,1,1;zmod:3]",
]
CHAR2_RINGS = ["gf:2:1", "gf:2:2", "gf:2:3", "gf:2:4", GF256, "prod:[zmod:2;gf:2:2:1,1,1]",
               "prod:[gf:2:3;zmod:2;gf:2:2:1,1,1]"]
# (dims, extents): 1-D, 2-D and 3-D tori.
TORI = [((1, 0), (7,)), ((1, 1), (5, 4)), ((2, 1), (3, 4, 2))]


def _rng(*key):
    return np.random.default_rng(zlib.crc32(repr(key).encode()))


def _terms(ring, dims, extents, n_terms, seed):
    """Distinct offsets up to twice the extents either way (N-axis ones nonnegative)
    with nonzero coefficients."""
    gen = _rng(ring.descriptor(), dims, n_terms, seed)
    terms = {}
    while len(terms) < n_terms:
        off = tuple(
            int(gen.integers(0 if i >= dims[0] else -2 * n, 2 * n + 1)) for i, n in enumerate(extents)
        )
        terms[off] = int(gen.integers(1, ring.size))
    return tuple(terms.items())


def _batch(ring, count, extents, rank, seed, dtype=None):
    values = _rng(ring.descriptor(), count, extents, rank, seed).integers(
        0, ring.size, (count,) + extents + (rank,)
    )
    return values.astype(dtype or code_dtype(ring))


def _step_count(ring):
    """p**k steps in prime characteristic, else a few."""
    p = ring.characteristic
    return p ** max(1, (8).bit_length() // p.bit_length()) if is_prime(p) else 6


def _roll_oracle(terms, window, ring, values, steps):
    poly = ShiftPolynomial.from_terms(ring, window.dims, dict(terms))
    out = values.astype(np.int64)
    for _ in range(steps):
        _, out = reduce_each_batch(poly, window, out, "torus", ring)
    return out


def _padded_plan(monkeypatch, *args):
    monkeypatch.setattr(shiftpoly, "SMALL_TORUS_CELL_TERMS", 0)
    try:
        return TorusStencil(*args)
    finally:
        monkeypatch.undo()


# -- one-lookup torus steps -----------------------------------------------------------------


@pytest.mark.parametrize("ring_text", RINGS)
@pytest.mark.parametrize("dims, extents", TORI, ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("rank", [1, 2])
def test_small_batch_lookup_equals_the_padded_step_and_the_roll_oracle(ring_text, dims, extents, rank,
                                                                       monkeypatch):
    ring = make_ring(ring_text)
    window = WindowSpec(dims, (0,) * len(extents), extents)
    n_terms = 2 if ring.size ** 3 > shiftpoly.SMALL_TORUS_TABLE else 3
    terms = _terms(ring, dims, extents, n_terms, seed=rank)
    values = _batch(ring, 2, extents, rank, seed=1)
    plan = TorusStencil(terms, window, ring, values.shape)
    padded = _padded_plan(monkeypatch, terms, window, ring, values.shape)
    assert plan.small and not padded.small
    for steps in (_step_count(ring), 1):
        want = _roll_oracle(terms, window, ring, values, steps)
        for dtype in (values.dtype, np.int64):
            got = plan.apply(values.astype(dtype), steps)
            slow = padded.apply(values.astype(dtype), steps)
            assert got.dtype == slow.dtype == dtype
            assert np.array_equal(got, slow) and np.array_equal(got, want)
        assert plan.table is not None and padded.table is None


def test_one_step_builds_no_table():
    ring = make_ring("zmod:5")
    window = WindowSpec((1, 1), (0, 0), (5, 4))
    terms = _terms(ring, (1, 1), (5, 4), 2, seed=2)
    values = _batch(ring, 2, (5, 4), 1, seed=2)
    plan = TorusStencil(terms, window, ring, values.shape)
    once = plan.apply(values)
    assert plan.small and plan.table is None
    assert np.array_equal(plan.apply(values, 2), plan.apply(once))
    assert plan.table is not None
    assert np.array_equal(plan.apply(values), once)


@pytest.mark.parametrize("ring_text", [r for r in RINGS if is_prime(make_ring(r).characteristic)])
@pytest.mark.parametrize("dims, extents", TORI, ids=["1d", "2d", "3d"])
def test_frobenius_dilated_offsets_on_both_plans(ring_text, dims, extents, monkeypatch):
    ring = make_ring(ring_text)
    module = ModuleSpec(ring, 2)
    offsets, coeffs = zip(*_terms(ring, dims, extents, 2, seed=9))
    rule = LocalRule(module, dims, offsets, coeffs)
    window = WindowSpec(dims, (0,) * len(extents), extents)
    values = _batch(ring, 1, extents, 2, seed=3)
    for k in (1, 3):
        frob = frobenius_power(rule, k)  # offsets p**k * h, far beyond the extents
        plan = TorusStencil(frob.terms, window, ring, values.shape)
        padded = _padded_plan(monkeypatch, frob.terms, window, ring, values.shape)
        want = _roll_oracle(frob.terms, window, ring, values, 2)
        naive = TorusStencil(from_rule(rule).terms, window, ring, values.shape)
        got = plan.apply(values, 2)
        assert plan.table is not None and got.dtype == values.dtype
        assert np.array_equal(got, want) and np.array_equal(padded.apply(values, 2), want)
        assert np.array_equal(naive.apply(values, 2 * ring.characteristic**k), want)
        assert naive.table is not None


@pytest.mark.parametrize("ring_text", ["zmod:3", "zmod:30", "gf:2:2", "gf:3:2"])
@pytest.mark.parametrize("dims, extents", TORI[:2], ids=["1d", "2d"])
def test_batches_on_both_sides_of_the_small_batch_constant(ring_text, dims, extents, monkeypatch):
    ring = make_ring(ring_text)
    window = WindowSpec(dims, (0,) * len(extents), extents)
    terms = _terms(ring, dims, extents, 2, seed=4)
    cells = int(np.prod(extents))
    at_most = SMALL_TORUS_CELL_TERMS // (2 * cells)
    for count, small in ((at_most, True), (at_most + 1, False)):
        values = _batch(ring, count, extents, 1, seed=count)
        plan = TorusStencil(terms, window, ring, values.shape)
        monkeypatch.setattr(shiftpoly, "SMALL_TORUS_CELL_TERMS", 0 if small else 1 << 30)
        other = TorusStencil(terms, window, ring, values.shape)
        monkeypatch.undo()
        for steps in (_step_count(ring), 1):
            got = plan.apply(values, steps)
            assert got.dtype == values.dtype
            assert np.array_equal(got, other.apply(values, steps))
        assert (plan.table is not None) == small and (other.table is None) == small
        assert np.array_equal(plan.apply(values), _roll_oracle(terms, window, ring, values, 1))


def test_a_table_past_the_bound_keeps_the_padded_step():
    ring = make_ring(GF256)
    window = WindowSpec((1, 0), (0,), (8,))
    values = _batch(ring, 1, (8,), 1, seed=2)
    two, three = (_terms(ring, (1, 0), (8,), n, seed=1) for n in (2, 3))
    for terms in (two, three):
        plan = TorusStencil(terms, window, ring, values.shape)
        assert np.array_equal(plan.apply(values, 3), _roll_oracle(terms, window, ring, values, 3))
        assert plan.small == (terms is two)
        assert (plan.table.size == 1 << 16) if terms is two else plan.table is None


# -- characteristic 2 by XOR ------------------------------------------------------------------


@pytest.mark.parametrize("ring_text", CHAR2_RINGS)
@pytest.mark.parametrize("n_terms", [1, 2, 3, 17])
def test_xor_weighted_sum_equals_the_packed_gather(ring_text, n_terms):
    ring = make_ring(ring_text)
    gen = _rng(ring_text, n_terms)
    coeffs = gen.integers(0, ring.size, n_terms).tolist()
    coeffs[0] = ring.one
    arrays = gen.integers(0, ring.size, (n_terms, 6, 5))
    arrays[:, 0] = ring.size - 1
    want = generic_weighted_sum(ring, coeffs, list(arrays))
    for dtype in (np.uint8, np.uint16, np.int64):
        if np.iinfo(dtype).max < ring.size - 1:
            continue
        typed = arrays.astype(dtype)
        got = ring.weighted_sum(coeffs, iter(typed))
        gathered = packed_gather_weighted_sum(ring, coeffs, typed)
        assert got.dtype == gathered.dtype == dtype
        assert np.array_equal(got, gathered) and np.array_equal(got, want)
    # Strided views, the first array narrow and the rest int64.
    views = [arrays[0, :, ::2].astype(code_dtype(ring))] + [a[:, ::2] for a in arrays[1:]]
    got = ring.weighted_sum(coeffs, views)
    assert got.dtype == code_dtype(ring)
    assert np.array_equal(got, packed_gather_weighted_sum(ring, coeffs, views))


@pytest.mark.parametrize("ring_text", CHAR2_RINGS)
def test_xor_weighted_sum_of_zero_coefficients_is_zero(ring_text):
    ring = make_ring(ring_text)
    arrays = np.full((3, 4), ring.size - 1, dtype=np.uint8)
    got = ring.weighted_sum([0, 0, 0], arrays)
    assert got.dtype == np.uint8 and not got.any()
    got = ring.weighted_sum([0, ring.one], arrays)
    assert np.array_equal(got, arrays[1])


def test_characteristic_2_builds_no_gather_table(monkeypatch):
    def no_table(self):
        raise AssertionError("the packed gather table was built")

    for text in (GF256, "gf:2:2", "prod:[zmod:2;gf:2:2:1,1,1]"):
        ring = make_ring(text)
        codes = (np.arange(256) % ring.size).astype(np.uint8).reshape(16, 16)
        want = packed_gather_weighted_sum(ring, [ring.size - 1, 1], [codes] * 2)
        monkeypatch.setattr(MixedRadix, "all_digits", no_table)
        assert np.array_equal(ring.weighted_sum([ring.size - 1, 1], [codes] * 2), want)
        monkeypatch.undo()
    with pytest.raises(AssertionError, match="gather table"):
        monkeypatch.setattr(MixedRadix, "all_digits", no_table)
        GFRing(3, 2).weighted_sum([1, 2], [np.arange(9, dtype=np.uint8)] * 2)


# -- the CRT forward map ------------------------------------------------------------------------


@pytest.mark.parametrize("ring_text", [
    "zmod:6", "zmod:30", "zmod:210", "zmod:12", "zmod:65498", "zmod:5", "zmod:8", "gf:3:2",
    "prod:[gf:2:2:1,1,1;zmod:3]", "prod:[zmod:3;zmod:2;zmod:5;gf:2:2:1,1,1]", "prod:[zmod:4;zmod:9;zmod:2]",
])
def test_forward_map_equals_the_table_gather(ring_text):
    ring = make_ring(ring_text)
    deco = decompose_ring(ring)
    table = table_forward(deco)
    codes = _rng(ring_text).integers(0, ring.size, (40, 3))
    codes[0] = ring.size - 1
    for dtype in (np.uint8, np.uint16, np.int64):
        if np.iinfo(dtype).max < ring.size - 1:
            continue
        for j in range(deco.n_components):
            got = deco.forward_arr(codes.astype(dtype), j)
            assert got.dtype == dtype and np.array_equal(got, table.forward_arr(codes, j))
    assert all(np.array_equal(deco.forward_arr(np.arange(ring.size), j), deco.forward_table[:, j])
               for j in range(deco.n_components))
    scalars = [int(c) for c in codes[:, 0]]
    got, want = deco.split_arrays(scalars), table.split_arrays(scalars)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]


@pytest.mark.parametrize("rule_text, torus", [
    ("rule ring=zmod:30 rank=1 dims=1,0 H=(-1):7;(0):1;(1):29", (64,)),
    ("rule ring=zmod:6 rank=2 dims=1,1 H=(0,0):1;(1,0):5;(0,1):1", (5, 4)),
    ("rule ring=prod:[gf:2:2:1,1,1;zmod:3] rank=1 dims=1,0 H=(0):5;(1):10;(3):7", (9,)),
    ("rule ring=zmod:5 rank=1 dims=1,0 H=(0):1;(2):3", (8,)),
])
def test_conjugacy_reads_the_forward_map_not_the_table(rule_text, torus):
    rule = shiftpoly.parse_rule(rule_text)
    deco = decompose_ring(rule.ring)
    want = per_trial_conjugacy(rule, deco, 12, torus, 5)
    assert want is None
    assert conjugacy_check(rule, table_forward(deco), trials=12, torus_extents=torus, seed=5).ok
    blank = dataclasses.replace(deco, forward_table=np.zeros_like(deco.forward_table))
    assert conjugacy_check(rule, blank, trials=12, torus_extents=torus, seed=5).ok


@pytest.mark.parametrize("ring_text", ["zmod:6", "prod:[gf:2:2:1,1,1;zmod:3]"])
def test_split_and_projections_equal_the_table_gather(ring_text):
    ring = make_ring(ring_text)
    deco = decompose_ring(ring)
    table = table_forward(deco)
    module = ModuleSpec(ring, 2)
    window = WindowSpec((1, 0), (0,), (3,))
    values = _batch(ring, 1, (3,), 2, seed=8)[0]
    cfg = WindowConfig(window, module, values, "torus")
    assert split_config(cfg, deco) == split_config(cfg, table)
    weights = _rng(ring_text).integers(1, 5, module.size).tolist()
    biased = bernoulli(module, window, [Fraction(w, sum(weights)) for w in weights], seed=2)
    line = WindowSpec((1, 0), (0,), (9,))
    scalar = ModuleSpec(ring, 1)
    rule = LocalRule(scalar, (1, 0), ((0,), (1,)), (ring.one, ring.size - 1))
    # Bernoulli, enumerated words and (9 sites are past the enumeration cap) sampled draws.
    sampled = pushforward(bernoulli(scalar, line, [Fraction(1, ring.size)] * ring.size, seed=1), rule, 1)
    for mu in (biased, point_mass(cfg), sampled):
        for j in range(deco.n_components):
            got, want = project_measure(mu, deco, j), project_measure(mu, table, j)
            assert type(got) is type(want)
            if hasattr(got, "probs"):
                assert got.probs == want.probs
            assert np.array_equal(got.draw_values(0, 50), want.draw_values(0, 50))
