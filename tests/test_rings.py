import numpy as np
import pytest

from modshift import (
    GFRing,
    InvalidParameterError,
    ModuleSpec,
    ProductRing,
    ReducibleModulusError,
    UnsupportedCharacteristicError,
    ZmodRing,
    make_ring,
    parse_ring,
    recurrent_power_sums,
    stable_power_subring,
    subring_closure,
)

SMALL_RINGS = [
    ZmodRing(2),
    ZmodRing(3),
    ZmodRing(6),
    GFRing(2, 2),
    GFRing(3, 2),
    GFRing(2, 3),
    ProductRing([ZmodRing(2), ZmodRing(3)]),
]


def test_zmod2_forced_arithmetic():
    r = ZmodRing(2)
    assert sorted(r.elements()) == [0, 1]
    assert r.add(1, 1) == 0


def test_zmod6_characteristic():
    assert ZmodRing(6).characteristic == 6


def test_gf4_multiplicative_group_cyclic():
    # exhaustive multiplication-table check: the three nonzero elements
    # form a cyclic group of order 3
    f4 = GFRing(2, 2)
    nonzero = [1, 2, 3]
    for g in (2, 3):
        powers = {1}
        x = g
        for _ in range(2):
            powers.add(x)
            x = f4.mul(x, g)
        assert x == 1  # g**3 == 1
        assert powers == set(nonzero)


def test_characteristic_product_lcm():
    ring = ProductRing([ZmodRing(2), ZmodRing(3)])
    # independent oracle: smallest c with c*1 = 0 by explicit accumulation
    c, acc = 0, ring.zero
    while True:
        acc = ring.add(acc, ring.one)
        c += 1
        if acc == ring.zero:
            break
    assert c == 6 == ring.characteristic


def test_gf32_characteristic():
    assert GFRing(3, 2).characteristic == 3


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.descriptor())
def test_ring_axioms_exhaustive(ring):
    n = ring.size
    codes = np.arange(n, dtype=np.int64)
    a = codes[:, None, None]
    b = codes[None, :, None]
    c = codes[None, None, :]
    assert np.array_equal(ring.add_arr(a, b), ring.add_arr(b, a))
    assert np.array_equal(ring.mul_arr(a, b), ring.mul_arr(b, a))
    assert np.array_equal(
        ring.add_arr(ring.add_arr(a, b), c), ring.add_arr(a, ring.add_arr(b, c))
    )
    assert np.array_equal(
        ring.mul_arr(ring.mul_arr(a, b), c), ring.mul_arr(a, ring.mul_arr(b, c))
    )
    assert np.array_equal(
        ring.mul_arr(a, ring.add_arr(b, c)),
        ring.add_arr(ring.mul_arr(a, b), ring.mul_arr(a, c)),
    )
    # additive inverses and multiplicative unity
    assert np.array_equal(ring.add_arr(codes, ring.neg_arr(codes)), np.zeros(n, dtype=np.int64))
    assert np.array_equal(ring.mul_arr(codes, np.int64(ring.one)), codes)


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.descriptor())
def test_is_unit_agrees_with_exhaustive_search(ring):
    for x in ring.elements():
        inverses = [y for y in ring.elements() if ring.mul(x, y) == ring.one]
        assert ring.is_unit(x) == bool(inverses)
        if inverses:
            assert ring.inverse(x) in inverses


def test_unit_examples():
    z6 = ZmodRing(6)
    assert z6.is_unit(5) and z6.inverse(5) == 5
    assert not z6.is_unit(2)
    f4 = GFRing(2, 2)
    assert all(f4.is_unit(x) for x in range(1, 4))


def test_reducible_modulus_reports_factor():
    with pytest.raises(ReducibleModulusError) as err:
        GFRing(2, 2, [1, 0, 1])  # x^2 + 1 = (x+1)^2 over Z/2
    assert err.value.factor == (1, 1)


def test_invalid_modulus_parameters():
    with pytest.raises(InvalidParameterError):
        ZmodRing(1)
    with pytest.raises(InvalidParameterError):
        GFRing(4, 2)
    with pytest.raises(InvalidParameterError):
        GFRing(2, 2, [1, 1])  # wrong degree


def test_ring_descriptor_roundtrip():
    for ring in SMALL_RINGS:
        assert parse_ring(ring.descriptor()) == ring
    assert make_ring("zmod:6").size == 6
    with pytest.raises(InvalidParameterError):
        parse_ring("ring:nope")


def _closure_oracle(ring, gens):
    # independent fixed-point iteration over explicit python sets
    current = set(gens)
    while True:
        fresh = set()
        for x in current:
            for y in current:
                fresh.add(ring.add(x, y))
                fresh.add(ring.mul(x, y))
        if fresh <= current:
            return current
        current |= fresh


def test_subring_closure_examples():
    assert subring_closure(ZmodRing(5), [1]) == frozenset(range(5))
    z6 = ZmodRing(6)
    assert subring_closure(z6, [2]) == frozenset({0, 2, 4})
    assert subring_closure(z6, [2]) == frozenset(_closure_oracle(z6, [2]))
    assert subring_closure(GFRing(2, 2), [1]) == frozenset({0, 1})


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.descriptor())
def test_subring_closure_idempotent_monotone(ring):
    gens = [ring.one, ring.size - 1]
    closed = subring_closure(ring, gens)
    assert subring_closure(ring, closed) == closed
    smaller = subring_closure(ring, [ring.one])
    assert smaller <= closed
    assert 0 in closed


def test_stable_power_subring_examples():
    assert stable_power_subring(ZmodRing(2), [1, 1, 1]) == frozenset({0, 1})
    assert stable_power_subring(ZmodRing(3), [1, 2]) == frozenset({0, 1, 2})
    f4 = GFRing(2, 2)
    g = 2  # a generator of the unit group
    # oracle: direct closure computation per power level until stabilization
    gens = [g, g]
    chains = []
    for _ in range(4):
        chains.append(_closure_oracle(f4, gens))
        gens = [f4.mul(x, x) for x in gens]
    assert stable_power_subring(f4, [g, g]) == frozenset(chains[-1])
    assert stable_power_subring(f4, [g, g]) == frozenset(range(4))


def test_stable_power_subring_requires_prime_characteristic():
    with pytest.raises(UnsupportedCharacteristicError):
        stable_power_subring(ZmodRing(6), [1])
    with pytest.raises(InvalidParameterError):
        stable_power_subring(ZmodRing(3), [0, 1])


def _recurrent_oracle(ring, coeffs, horizon=64):
    p = ring.characteristic
    values = []
    state = list(coeffs)
    for _ in range(horizon):
        state = [ring.pow(c, p) for c in state]
        total = 0
        for c in state:
            total = ring.add(total, c)
        values.append(ring.sub(total, ring.one))
    # elements in every sufficiently-late suffix
    tail = set(values[horizon // 2 :])
    later = set(values[3 * horizon // 4 :])
    assert later <= tail
    return frozenset(later)


def test_recurrent_power_sums_examples():
    assert recurrent_power_sums(ZmodRing(2), [1, 1, 1]) == frozenset({0})
    assert recurrent_power_sums(ZmodRing(3), [1, 1]) == frozenset({1})
    f4 = GFRing(2, 2)
    got = recurrent_power_sums(f4, [2, 3])
    assert got == _recurrent_oracle(f4, [2, 3])


@pytest.mark.parametrize(
    "ring,coeffs",
    [
        (ZmodRing(5), [2, 3, 4]),
        (GFRing(3, 2), [2, 5]),
        (GFRing(2, 3), [3, 6, 7]),
    ],
    ids=["z5", "gf9", "gf8"],
)
def test_recurrent_power_sums_vs_horizon_oracle(ring, coeffs):
    assert recurrent_power_sums(ring, coeffs) == _recurrent_oracle(ring, coeffs)


@pytest.mark.parametrize("code", [6, -1])
def test_product_ring_decode_refuses_codes_out_of_range(code):
    ring = ProductRing([ZmodRing(2), ZmodRing(3)])
    with pytest.raises(InvalidParameterError):
        ring.codec.decode(code)
    with pytest.raises(InvalidParameterError):
        ModuleSpec(ring, 1).decode(code)


def test_product_ring_size_cap_counts_past_int64():
    # 65536**4 = 2**64 would wrap to 0 in an int64 product.
    with pytest.raises(InvalidParameterError, match="capped"):
        ProductRing([ZmodRing(65536)] * 4)


def test_module_scalar_action_bilinear_exhaustive():
    ring = ZmodRing(3)
    mod = ModuleSpec(ring, 2)
    elems = [mod.decode(c) for c in range(mod.size)]
    for r in ring.elements():
        for s in ring.elements():
            for a in elems:
                for b in elems:
                    left = tuple(ring.mul(r, ring.add(x, y)) for x, y in zip(a, b))
                    right = tuple(
                        ring.add(ring.mul(r, x), ring.mul(r, y)) for x, y in zip(a, b)
                    )
                    assert left == right
                rs = ring.add(r, s)
                left = tuple(ring.mul(rs, x) for x in a)
                right = tuple(ring.add(ring.mul(r, x), ring.mul(s, x)) for x in a)
                assert left == right
