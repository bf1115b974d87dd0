import cmath
from fractions import Fraction

import pytest

from modshift import (
    CharacterSpec,
    GFRing,
    InvalidParameterError,
    OutOfWindowError,
    ModuleSpec,
    ProductRing,
    RootSum,
    WindowConfig,
    WindowSpec,
    ZmodRing,
    all_characters,
    config_add,
    cyclotomic_polynomial,
    format_character,
    parse_character,
)
from modshift.rng import CounterRng
from oracles import exponent_of_config

KNOWN_CYCLOTOMICS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("L,expected", sorted(KNOWN_CYCLOTOMICS.items()))
def test_cyclotomic_polynomials(L, expected):
    assert cyclotomic_polynomial(L) == expected


def test_rootsum_basic_identities():
    s = RootSum.zero(3)
    for e in range(3):
        s.add_weight(e, Fraction(1, 3))
    assert s.is_zero()
    assert RootSum.one(6).is_one()
    assert not RootSum.monomial(6, 2).is_one()
    assert RootSum.monomial(6, 2).modulus_is_one()
    v = RootSum.monomial(4, 1) * RootSum.monomial(4, 3)
    assert v.is_one()  # i * (-i) = 1
    half = RootSum.monomial(2, 0, Fraction(1, 2))
    assert (half + half).is_one()
    assert half.equals_rational(Fraction(1, 2))
    assert abs(RootSum.monomial(12, 5).to_complex() - cmath.exp(2j * cmath.pi * 5 / 12)) < 1e-12


def test_rootsum_modulus_of_mixture():
    # (1 + zeta_4)/2 has modulus sqrt(2)/2: neither 0 nor 1
    v = RootSum(4, [Fraction(1, 2), Fraction(1, 2), 0, 0])
    assert not v.is_zero() and not v.is_one()
    assert not v.modulus_is_one()
    m2 = v.modulus_squared()
    assert m2.equals_rational(Fraction(1, 2))


def test_rootsum_order_mismatch():
    with pytest.raises(InvalidParameterError):
        RootSum.one(2) * RootSum.one(3)


@pytest.mark.parametrize(
    "ring", [ZmodRing(6), GFRing(2, 2), ProductRing([ZmodRing(2), ZmodRing(3)])],
    ids=lambda r: r.descriptor(),
)
def test_character_homomorphism(ring):
    module = ModuleSpec(ring, 1)
    win = WindowSpec((1, 0), (0,), (4,))
    rng = CounterRng(17, stream=43)
    a = WindowConfig(win, module, rng.uniform_codes(0, (4, 1), ring.size))
    b = WindowConfig(win, module, rng.uniform_codes(100, (4, 1), ring.size))
    chi = CharacterSpec.build(module, win, {(0,): ring.size - 1, (2,): 1})
    ea = exponent_of_config(chi, a)
    eb = exponent_of_config(chi, b)
    eab = exponent_of_config(chi, config_add(a, b))
    assert eab == (ea + eb) % ring.char_exponent


def test_gf_pairing_nondegenerate():
    f4 = GFRing(2, 2)
    # for every nonzero dual there must be an element pairing nontrivially
    for u in range(1, 4):
        assert any(f4.pair_exponent(u, a) for a in range(4))


def test_all_characters_enumeration():
    module = ModuleSpec(ZmodRing(2), 1)
    win = WindowSpec((1, 1), (0, 0), (3, 2))
    chars = list(all_characters(module, win))
    assert len(chars) == 64
    assert chars[0].is_trivial
    assert len({format_character(c) for c in chars}) == 64


def test_character_text_roundtrip():
    module = ModuleSpec(ZmodRing(6), 1)
    win = WindowSpec((1, 1), (0, 0), (3, 2))
    chi = CharacterSpec.build(module, win, {(0, 0): 2, (2, 1): 5})
    again = parse_character(format_character(chi), module, win)
    assert again == chi
    assert parse_character("trivial", module, win).is_trivial


def test_character_sites_need_every_coordinate():
    module = ModuleSpec(ZmodRing(2), 1)
    line = WindowSpec((1, 0), (0,), (4,))
    with pytest.raises(InvalidParameterError, match=r"site \(1, 5\)"):
        parse_character("(1,5):1", module, line)
    plane = WindowSpec((2, 0), (0, 0), (4, 4))
    with pytest.raises(InvalidParameterError, match=r"site \(1,\)"):
        parse_character("(1):1", module, plane)
    with pytest.raises(OutOfWindowError, match=r"site \(4,\)"):
        parse_character("(0):1;(4):1", module, line)
    assert parse_character("(1,3):1", module, plane).sites() == ((1, 3),)
