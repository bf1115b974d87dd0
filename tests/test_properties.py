"""Algebraic-law property tests over randomly drawn elements and windows."""

import re
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modshift import (
    GFRing,
    InvalidParameterError,
    MixedRadix,
    ModuleSpec,
    OutOfWindowError,
    ProductRing,
    ShiftPolynomial,
    WindowConfig,
    WindowSpec,
    ZmodRing,
    apply_poly,
    config_add,
    decode_config,
    encode_config,
    parse_ring,
    poly_mul,
    recurrent_power_sums,
    shift_config,
    stable_power_subring,
    subring_closure,
)
from modshift.rings import GF_DEFAULT_MODULI
from oracles import loop_gf_tables

RING_POOL = [
    ZmodRing(2),
    ZmodRing(3),
    ZmodRing(6),
    ZmodRing(12),
    GFRing(2, 2),
    GFRing(3, 2),
    GFRing(2, 3),
    ProductRing([ZmodRing(2), ZmodRing(5)]),
]

rings = st.sampled_from(RING_POOL)
COMMON = settings(deadline=None, derandomize=True, max_examples=60)


@COMMON
@given(rings, st.data())
def test_ring_laws_pointwise(ring, data):
    elem = st.integers(min_value=0, max_value=ring.size - 1)
    a, b, c = data.draw(elem), data.draw(elem), data.draw(elem)
    assert ring.add(a, b) == ring.add(b, a)
    assert ring.mul(a, b) == ring.mul(b, a)
    assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
    assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
    assert ring.add(a, ring.neg(a)) == 0
    assert ring.mul(a, ring.one) == a
    assert ring.sub(a, b) == ring.add(a, ring.neg(b))


@COMMON
@given(rings, st.data())
def test_closure_monotone_and_idempotent(ring, data):
    elem = st.integers(min_value=0, max_value=ring.size - 1)
    gens1 = data.draw(st.lists(elem, min_size=1, max_size=3))
    extra = data.draw(elem)
    c1 = subring_closure(ring, gens1)
    c2 = subring_closure(ring, gens1 + [extra])
    assert c1 <= c2
    assert subring_closure(ring, c1) == c1


def _poly_strategy(ring, dims):
    axes = dims[0] + dims[1]

    def build(entries):
        terms = {}
        for *off, coef in entries:
            off = tuple(
                o if i < dims[0] else abs(o) for i, o in enumerate(off)
            )
            if coef % ring.size:
                terms[off] = coef % ring.size
        if not terms:
            terms[(0,) * axes] = ring.one
        return ShiftPolynomial.from_terms(ring, dims, terms)

    entry = st.tuples(
        *([st.integers(min_value=-2, max_value=2)] * axes),
        st.integers(min_value=1, max_value=ring.size - 1),
    )
    return st.lists(entry, min_size=1, max_size=4).map(build)


@COMMON
@given(rings, st.data())
def test_poly_ring_laws(ring, data):
    dims = data.draw(st.sampled_from([(1, 0), (1, 1)]))
    polys = _poly_strategy(ring, dims)
    f, g, h = data.draw(polys), data.draw(polys), data.draw(polys)
    assert poly_mul(f, g) == poly_mul(g, f)
    assert poly_mul(poly_mul(f, g), h) == poly_mul(f, poly_mul(g, h))


@COMMON
@given(rings, st.data())
def test_apply_is_multiplicative_on_torus(ring, data):
    dims = (1, 1)
    polys = _poly_strategy(ring, dims)
    f, g = data.draw(polys), data.draw(polys)
    mod = ModuleSpec(ring, 1)
    win = WindowSpec(dims, (0, 0), (7, 7))
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    from modshift.rng import CounterRng

    vals = CounterRng(seed, stream=2).uniform_codes(0, win.extents + (1,), ring.size)
    cfg = WindowConfig(win, mod, vals, "torus")
    assert apply_poly(poly_mul(f, g), cfg) == apply_poly(f, apply_poly(g, cfg))


@COMMON
@given(rings, st.data())
def test_config_roundtrip_and_shift_additivity(ring, data):
    mod = ModuleSpec(ring, data.draw(st.integers(min_value=1, max_value=2)))
    win = WindowSpec((1, 1), (data.draw(st.integers(-3, 3)), 0), (5, 4))
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    from modshift.rng import CounterRng

    vals = CounterRng(seed, stream=4).uniform_codes(0, win.extents + (mod.rank,), ring.size)
    cfg = WindowConfig(win, mod, vals, "torus")
    assert decode_config(encode_config(cfg)) == cfg
    u = data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    v = data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    uv = tuple(a + b for a, b in zip(u, v))
    assert shift_config(shift_config(cfg, u), v) == shift_config(cfg, uv)
    # shifts are additive-group homomorphisms
    other = WindowConfig(win, mod, CounterRng(seed + 1, stream=4).uniform_codes(0, win.extents + (mod.rank,), ring.size), "torus")
    assert shift_config(config_add(cfg, other), u) == config_add(
        shift_config(cfg, u), shift_config(other, u)
    )


def _divmod_digits(code, radices):
    """Little-endian digits of code by repeated divmod: place 0 first."""
    digits = []
    for r in radices:
        code, d = divmod(code, r)
        digits.append(d)
    return tuple(digits)


def _check_codec(codec, encode, decode, join, split, data):
    """Scalar and array codes of `codec` against the divmod reference."""
    radices, size = codec.radices, codec.size
    assert size == prod(radices)
    codes = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=20))
    want = [_divmod_digits(c, radices) for c in codes]
    assert [decode(c) for c in codes] == want
    assert [encode(d) for d in want] == codes
    digits = split(np.array(codes, dtype=np.int64))
    assert digits.shape == (len(codes), len(radices)) and digits.tolist() == [list(d) for d in want]
    joined = join(digits)
    assert joined.dtype == np.int64 and joined.tolist() == codes
    for bad in (-1, size):
        with pytest.raises(InvalidParameterError):
            decode(bad)
    if radices:
        with pytest.raises(InvalidParameterError):
            encode((radices[0],) + want[0][1:])
    if size <= 1 << 12:
        table = codec.all_digits()
        assert table.dtype == np.min_scalar_type(max(radices, default=1) - 1)
        # Row i is code i's digits: the first digit varies fastest.
        assert table.tolist() == [list(_divmod_digits(i, radices)) for i in range(size)]
        assert np.array_equal(table, split(np.arange(size)))
        assert codec.join(table).tolist() == list(range(size))


@COMMON
@given(rings, st.integers(min_value=1, max_value=3), st.data())
def test_module_codes_round_trip(ring, rank, data):
    mod = ModuleSpec(ring, rank)
    assert mod.codec.radices == (ring.size,) * rank
    _check_codec(mod.codec, mod.encode, mod.decode, mod.pack_arr, mod.unpack_arr, data)


@COMMON
@given(
    st.one_of(
        st.lists(st.integers(min_value=2, max_value=12), max_size=4),
        st.lists(st.integers(min_value=2, max_value=1 << 16), max_size=4).filter(
            lambda radices: prod(radices) < 1 << 63
        ),
    ),
    st.data(),
)
def test_mixed_radix_round_trip(radices, data):
    codec = MixedRadix(radices)
    _check_codec(codec, codec.encode, codec.decode, codec.join, codec.split, data)


@st.composite
def windows(draw):
    axes = draw(st.integers(min_value=1, max_value=3))
    D = draw(st.integers(min_value=0, max_value=axes))
    origin = tuple(
        draw(st.integers(min_value=-4, max_value=4) if i < D else st.integers(min_value=0, max_value=4))
        for i in range(axes)
    )
    extents = tuple(draw(st.lists(st.integers(min_value=1, max_value=5), min_size=axes, max_size=axes)))
    return WindowSpec((D, axes - D), origin, extents)


@COMMON
@given(windows(), st.data())
def test_flat_indices_match_the_site_order(win, data):
    sites = list(win.sites())
    assert np.array_equal(win.flat_indices(sites), np.arange(win.n_sites))
    picks = data.draw(st.lists(st.sampled_from(sites), max_size=6))
    assert win.flat_indices(picks).tolist() == [sites.index(s) for s in picks]
    axis = data.draw(st.integers(min_value=0, max_value=win.axes - 1))
    lo, hi = win.origin[axis], win.origin[axis] + win.extents[axis]
    site = list(data.draw(st.sampled_from(sites)))
    site[axis] = data.draw(st.sampled_from([lo - 7, lo - 1, hi, hi + 3]))
    outside = tuple(site)
    with pytest.raises(OutOfWindowError, match=re.escape(f"site {outside}")):
        win.flat_indices(picks + [outside])
    short = outside[:-1] if data.draw(st.booleans()) else outside + (0,)
    with pytest.raises(InvalidParameterError, match=re.escape(f"site {short}")):
        win.flat_indices(picks + [short, outside])


# -- scalar ring ops are the array ops on one checked code ------------------------

SCALAR_RINGS = RING_POOL + [ZmodRing(65521), parse_ring("prod:[zmod:3;gf:2:2:1,1,1]")]


def _sample_codes(ring, count=64):
    """Every code of a ring of at most `count` elements, else 0, 1, |R|-1 and seeded others."""
    if ring.size <= count:
        return np.arange(ring.size, dtype=np.int64)
    drawn = np.random.default_rng(0).choice(ring.size, count - 3, replace=False)
    return np.unique(np.concatenate([[0, 1, ring.size - 1], drawn])).astype(np.int64)


@pytest.mark.parametrize("ring", SCALAR_RINGS, ids=lambda r: r.descriptor())
def test_scalar_ops_equal_array_ops(ring):
    codes = _sample_codes(ring)
    a, b = codes[:, None], codes[None, :]
    tables = {
        "add": ring.add_arr(a, b),
        "mul": ring.mul_arr(a, b),
        "sub": ring.sub_arr(a, b),
        "pair_exponent": ring.pair_exponent_arr(a, b),
    }
    negs = ring.neg_arr(codes)
    for i, x in enumerate(codes.tolist()):
        assert ring.neg(x) == negs[i]
        for name, table in tables.items():
            row = [getattr(ring, name)(x, y) for y in codes.tolist()]
            assert all(type(v) is int for v in row)
            assert row == table[i].tolist(), (name, x)


SCALAR_CALLS = {
    "add(x, 0)": lambda r, x: r.add(x, 0),
    "add(0, x)": lambda r, x: r.add(0, x),
    "neg(x)": lambda r, x: r.neg(x),
    "mul(x, 1)": lambda r, x: r.mul(x, r.one),
    "mul(1, x)": lambda r, x: r.mul(r.one, x),
    "sub(x, 0)": lambda r, x: r.sub(x, 0),
    "sub(0, x)": lambda r, x: r.sub(0, x),
    "pow(x, 0)": lambda r, x: r.pow(x, 0),
    "pow(x, 3)": lambda r, x: r.pow(x, 3),
    "pair_exponent(x, 1)": lambda r, x: r.pair_exponent(x, r.one),
    "pair_exponent(1, x)": lambda r, x: r.pair_exponent(r.one, x),
    "unit_inverse(x)": lambda r, x: r.unit_inverse(x),
    "is_unit(x)": lambda r, x: r.is_unit(x),
    "inverse(x)": lambda r, x: r.inverse(x),
}


@pytest.mark.parametrize("descriptor", ["zmod:5", "gf:2:2:1,1,1", "prod:[zmod:2;zmod:3]"])
@pytest.mark.parametrize("call", SCALAR_CALLS)
def test_scalar_entry_points_refuse_codes_outside_the_ring(descriptor, call):
    ring = parse_ring(descriptor)
    for bad in (-1, ring.size):
        message = f"{bad} is not an element code of {descriptor}"
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            SCALAR_CALLS[call](ring, bad)


@pytest.mark.parametrize(
    "descriptor, coeffs", [("zmod:5", [7]), ("gf:2:2:1,1,1", [5]), ("zmod:3", [1, -1])]
)
@pytest.mark.parametrize("fn", [recurrent_power_sums, stable_power_subring, subring_closure])
def test_power_subrings_refuse_coefficients_outside_the_ring(descriptor, coeffs, fn):
    with pytest.raises(
        InvalidParameterError, match=re.escape(f"is not an element code of {descriptor}")
    ):
        fn(parse_ring(descriptor), coeffs)


@pytest.mark.parametrize(
    "p, k", sorted(pk for pk in GF_DEFAULT_MODULI if pk[0] ** pk[1] <= GFRing.MAX_ORDER)
)
def test_gf_tables_equal_the_loop_construction(p, k):
    ring = GFRing(p, k)
    inverse, trace = loop_gf_tables(ring)
    assert ring._inv_table.tolist() == inverse.tolist()
    assert ring._trace_table.tolist() == trace.tolist()
