import numpy as np
import pytest

from modshift import (
    ConfigParseError,
    DomainExhaustedError,
    GFRing,
    InvalidParameterError,
    LocalRule,
    ModuleSpec,
    ProductRing,
    RingMismatchError,
    ShiftPolynomial,
    UnsupportedCharacteristicError,
    WindowConfig,
    WindowSpec,
    ZmodRing,
    apply_poly,
    config_add,
    format_rule,
    from_rule,
    frobenius_power,
    parse_rule,
    poly_mul,
    poly_pow,
    poly_pow_charp,
    restrict_config,
)
from modshift.rng import CounterRng
from modshift.shiftpoly import identity_poly, iterate_rule


def naive_poly_mul(a, b):
    """Dict-convolution oracle built only on scalar ring ops."""
    ring = a.ring
    acc = {}
    for off1, c1 in a.terms:
        for off2, c2 in b.terms:
            off = tuple(x + y for x, y in zip(off1, off2))
            acc[off] = ring.add(acc.get(off, 0), ring.mul(c1, c2))
    return ShiftPolynomial.from_terms(ring, a.dims, {k: v for k, v in acc.items() if v})


def random_poly(ring, dims, n_terms, seed, span=2):
    rng = CounterRng(seed, stream=41)
    axes = dims[0] + dims[1]
    raw = rng.uniform_codes(0, (n_terms, axes + 1), max(ring.size, 2 * span + 1))
    terms = {}
    for row in raw:
        off = []
        for i in range(axes):
            x = int(row[i]) % (2 * span + 1) - span
            if i >= dims[0]:
                x = abs(x) % (span + 1)
            off.append(x)
        c = int(row[-1]) % ring.size
        if c:
            terms[tuple(off)] = c
    if not terms:
        terms[(0,) * axes] = ring.one
    return ShiftPolynomial.from_terms(ring, dims, terms)


RINGS = [ZmodRing(2), ZmodRing(3), ZmodRing(5), ZmodRing(6), GFRing(2, 2),
         ProductRing([ZmodRing(2), ZmodRing(3)])]


def test_from_rule_roundtrip(cb_system):
    poly = from_rule(cb_system.rule)
    assert poly.term_map() == dict(zip(cb_system.rule.offsets, cb_system.rule.coeffs))
    ident = LocalRule(cb_system.module, (1, 1), ((0, 0),), (1,))
    assert from_rule(ident) == identity_poly(cb_system.ring, (1, 1))


def test_local_rule_validation():
    mod = ModuleSpec(ZmodRing(2), 1)
    with pytest.raises(InvalidParameterError):
        LocalRule(mod, (1, 1), ((0, -1),), (1,))  # negative N offset
    with pytest.raises(InvalidParameterError):
        LocalRule(mod, (1, 0), ((0,), (0,)), (1, 1))  # duplicate offset
    with pytest.raises(InvalidParameterError):
        LocalRule(mod, (1, 0), ((0,),), (0,))  # zero coefficient


def test_poly_mul_identity_and_examples():
    z2 = ZmodRing(2)
    f = random_poly(z2, (1, 0), 3, seed=1)
    assert poly_mul(f, identity_poly(z2, (1, 0))) == f
    onepx2 = ShiftPolynomial.from_terms(z2, (1, 0), {(0,): 1, (1,): 1})
    assert poly_mul(onepx2, onepx2).term_map() == {(0,): 1, (2,): 1}
    z3 = ZmodRing(3)
    onepx3 = ShiftPolynomial.from_terms(z3, (1, 0), {(0,): 1, (1,): 1})
    assert poly_mul(onepx3, onepx3).term_map() == {(0,): 1, (1,): 2, (2,): 1}


def test_poly_mul_ring_mismatch():
    a = ShiftPolynomial.from_terms(ZmodRing(2), (1, 0), {(0,): 1})
    b = ShiftPolynomial.from_terms(ZmodRing(3), (1, 0), {(0,): 1})
    with pytest.raises(RingMismatchError):
        poly_mul(a, b)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.descriptor())
@pytest.mark.parametrize("dims", [(1, 0), (1, 1)], ids=["1d", "2d"])
def test_poly_mul_matches_naive_oracle(ring, dims):
    for seed in range(4):
        a = random_poly(ring, dims, 4, seed=seed)
        b = random_poly(ring, dims, 3, seed=seed + 100)
        assert poly_mul(a, b) == naive_poly_mul(a, b)


def test_poly_pow_examples():
    z2 = ZmodRing(2)
    f = ShiftPolynomial.from_terms(z2, (1, 0), {(0,): 1, (1,): 1})
    assert poly_pow(f, 1) == f
    cubed = naive_poly_mul(naive_poly_mul(f, f), f)
    assert poly_pow(f, 3) == cubed
    assert poly_pow(f, 3).term_map() == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}
    assert poly_pow(f, 4).term_map() == {(0,): 1, (4,): 1}
    assert poly_pow(f, 0) == identity_poly(z2, (1, 0))
    with pytest.raises(InvalidParameterError):
        poly_pow(f, -1)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.descriptor())
def test_poly_pow_matches_iterated_mul(ring):
    f = random_poly(ring, (1, 0), 3, seed=7)
    acc = identity_poly(ring, (1, 0))
    for t in range(5):
        assert poly_pow(f, t) == acc
        acc = naive_poly_mul(acc, f)


def test_frobenius_examples(cb_system):
    z2 = ZmodRing(2)
    mod2 = ModuleSpec(z2, 1)
    rule = LocalRule(mod2, (1, 0), ((0,), (1,)), (1, 1))
    assert frobenius_power(rule, 1).term_map() == {(0,): 1, (2,): 1}
    z3 = ZmodRing(3)
    rule3 = LocalRule(ModuleSpec(z3, 1), (1, 0), ((0,), (1,)), (1, 2))
    assert frobenius_power(rule3, 1).term_map() == {(0,): 1, (3,): 2}
    assert frobenius_power(cb_system.rule, 2).term_map() == {
        (0, 0): 1,
        (0, 4): 1,
        (4, 0): 1,
    }


@pytest.mark.parametrize(
    "ring", [ZmodRing(2), ZmodRing(3), ZmodRing(5), GFRing(2, 2)], ids=lambda r: r.descriptor()
)
@pytest.mark.parametrize("k", [1, 2])
def test_frobenius_equals_poly_pow(ring, k):
    mod = ModuleSpec(ring, 1)
    rng = CounterRng(1234 + k, stream=17)
    for seed in range(5):
        offs = [(-1,), (0,), (2,)]
        coeffs = [
            1 + int(x) % (ring.size - 1)
            for x in rng.uniform_codes(seed * 8, (3,), max(ring.size - 1, 1))
        ]
        rule = LocalRule(mod, (1, 0), tuple(offs), tuple(coeffs))
        assert frobenius_power(rule, k) == poly_pow(from_rule(rule), ring.characteristic**k)


def test_frobenius_requires_prime_characteristic():
    rule = LocalRule(ModuleSpec(ZmodRing(6), 1), (1, 0), ((0,),), (1,))
    with pytest.raises(UnsupportedCharacteristicError):
        frobenius_power(rule, 1)
    f = from_rule(rule)
    with pytest.raises(UnsupportedCharacteristicError):
        poly_pow_charp(f, 4)


@pytest.mark.parametrize("ring", [ZmodRing(3), ZmodRing(5), GFRing(2, 2)], ids=lambda r: r.descriptor())
def test_charp_power_path_matches_square_multiply(ring):
    zero = ShiftPolynomial.from_terms(ring, (1, 0), {})
    for f in (random_poly(ring, (1, 0), 3, seed=3), zero):
        for t in (0, 1, 2, 7, 12, 26):
            assert poly_pow_charp(f, t) == poly_pow(f, t)
    assert poly_pow_charp(zero, 0) == identity_poly(ring, (1, 0)) and poly_pow_charp(zero, 5).is_zero


def test_apply_identity_and_fixed_point(cb_system):
    win = WindowSpec((1, 1), (0, 0), (8, 8))
    cb = cb_system.checkerboard(win, mode="torus")
    ident = identity_poly(cb_system.ring, (1, 1))
    assert apply_poly(ident, cb) == cb
    assert apply_poly(from_rule(cb_system.rule), cb) == cb


def test_apply_power_equals_iteration_exact_mode():
    ring = ZmodRing(5)
    mod = ModuleSpec(ring, 1)
    rule = LocalRule(mod, (1, 0), ((-1,), (0,), (1,)), (2, 1, 3))
    win = WindowSpec((1, 0), (0,), (21,))
    rng = CounterRng(11, stream=13)
    vals = rng.uniform_codes(0, win.extents + (1,), 5)
    cfg = WindowConfig(win, mod, vals)
    for t in (1, 2, 4):
        fast = apply_poly(poly_pow(from_rule(rule), t), cfg)
        naive = iterate_rule(rule, cfg, t)
        assert fast == naive


def test_apply_homomorphism_and_linearity():
    ring = ZmodRing(3)
    mod = ModuleSpec(ring, 2)
    dims = (1, 1)
    f = random_poly(ring, dims, 3, seed=21)
    g = random_poly(ring, dims, 2, seed=22)
    win = WindowSpec(dims, (0, 0), (9, 9))
    rng = CounterRng(5, stream=19)
    a = WindowConfig(win, mod, rng.uniform_codes(0, win.extents + (2,), 3), "torus")
    b = WindowConfig(win, mod, rng.uniform_codes(10**6, win.extents + (2,), 3), "torus")
    assert apply_poly(poly_mul(f, g), a) == apply_poly(f, apply_poly(g, a))
    assert apply_poly(f, config_add(a, b)) == config_add(apply_poly(f, a), apply_poly(f, b))
    # exact mode homomorphism on the common shrunken window
    a_exact = WindowConfig(win, mod, a.values, "exact")
    lhs = apply_poly(poly_mul(f, g), a_exact)
    rhs = apply_poly(f, apply_poly(g, a_exact))
    assert lhs.window == rhs.window and lhs == rhs


def test_apply_domain_exhausted():
    ring = ZmodRing(2)
    mod = ModuleSpec(ring, 1)
    rule = LocalRule(mod, (1, 0), ((0,), (5,)), (1, 1))
    cfg = WindowConfig(WindowSpec((1, 0), (0,), (4,)), mod, np.zeros((4, 1), dtype=np.int64))
    with pytest.raises(DomainExhaustedError):
        apply_poly(from_rule(rule), cfg)


def test_torus_agrees_with_exact_away_from_seam(cb_system):
    win = WindowSpec((1, 1), (0, 0), (12, 12))
    rng = CounterRng(77, stream=23)
    vals = rng.uniform_codes(0, win.extents + (1,), 2)
    torus_cfg = WindowConfig(win, cb_system.module, vals, "torus")
    exact_cfg = WindowConfig(win, cb_system.module, vals, "exact")
    poly = from_rule(cb_system.rule)
    torus_out = apply_poly(poly, torus_cfg)
    exact_out = apply_poly(poly, exact_cfg)
    interior = restrict_config(
        WindowConfig(win, cb_system.module, torus_out.values, "exact"), exact_out.window
    )
    assert np.array_equal(interior.values, exact_out.values)


def test_rule_text_roundtrip(cb_system):
    text = format_rule(cb_system.rule)
    parsed = parse_rule(text)
    assert parsed == cb_system.rule
    ktext = format_rule(cb_system.constraint, prefix="kernel")
    assert parse_rule(ktext, expect_prefix="kernel") == cb_system.constraint
    with pytest.raises(ConfigParseError):
        parse_rule("rule ring=zmod:2 H=(0):1")  # missing rank
    with pytest.raises(ConfigParseError):
        parse_rule("wrong ring=zmod:2 rank=1 H=(0):1")
    legacy = parse_rule("rule ring=zmod:2 rank=1 H=(0,1):1;(1,0):1")
    assert legacy.dims == (2, 0)
