import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from modshift import (
    ConjugacyResult,
    InvalidParameterError,
    LocalRule,
    ModuleSpec,
    ProductRing,
    UnsupportedCharacteristicError,
    WindowConfig,
    WindowSpec,
    ZmodRing,
    component_rule,
    conjugacy_check,
    constant_config,
    decompose_ring,
    merge_config,
    merge_product_bernoulli,
    point_mass,
    project_measure,
    shift_config,
    split_config,
    uniform_bernoulli,
)
from modshift.rng import CounterRng


@pytest.fixture(scope="module")
def z6_deco():
    return decompose_ring(ZmodRing(6))


def test_z6_components_and_forward(z6_deco):
    assert [r.descriptor() for r in z6_deco.component_rings] == ["zmod:2", "zmod:3"]
    assert z6_deco.forward(5) == (1, 2)
    assert not z6_deco.degenerate


def test_z6_bijective_and_homomorphic_all_pairs(z6_deco):
    ring = ZmodRing(6)
    for a in range(6):
        assert z6_deco.inverse(z6_deco.forward(a)) == a
        for b in range(6):
            fa, fb = z6_deco.forward(a), z6_deco.forward(b)
            fsum = z6_deco.forward(ring.add(a, b))
            fprod = z6_deco.forward(ring.mul(a, b))
            for j, comp in enumerate(z6_deco.component_rings):
                assert fsum[j] == comp.add(fa[j], fb[j])
                assert fprod[j] == comp.mul(fa[j], fb[j])


def test_component_characteristics_and_ideals(z6_deco):
    assert [r.characteristic for r in z6_deco.component_rings] == [2, 3]
    inter = set(range(6))
    for ideal in z6_deco.ideals:
        inter &= ideal
    assert inter == {0}


def test_zmod30_three_components():
    deco = decompose_ring(ZmodRing(30))
    assert [r.characteristic for r in deco.component_rings] == [2, 3, 5]
    for a in range(30):
        assert deco.inverse(deco.forward(a)) == a


def test_prime_characteristic_degenerate():
    deco = decompose_ring(ZmodRing(7))
    assert deco.degenerate and deco.n_components == 1


@pytest.mark.parametrize("m, prime_power", [(4, (2, 2)), (9, (3, 2)), (7, (7, 1))])
def test_prime_power_characteristic_degenerate_label(m, prime_power):
    deco = decompose_ring(ZmodRing(m))
    assert deco.degenerate and deco.n_components == 1
    assert deco.prime_powers == (prime_power,)


@pytest.mark.parametrize("m", [4, 9])
def test_prime_power_refused_up_front(m):
    from modshift import KernelShiftSpec, torsion_free_check, window_kernel

    rule = LocalRule(ModuleSpec(ZmodRing(m), 1), (1, 1), ((0, 0), (1, 0), (0, 1)), (1, 1, 1))
    spec = KernelShiftSpec(rule)
    window = WindowSpec((1, 1), (0, 0), (3, 3))
    with pytest.raises(UnsupportedCharacteristicError, match="not squarefree"):
        window_kernel(spec, window)
    with pytest.raises(UnsupportedCharacteristicError, match="not squarefree"):
        torsion_free_check(spec, window, 2)


def test_decompose_ring_memoized_read_only():
    deco = decompose_ring(ZmodRing(30))
    assert decompose_ring(ZmodRing(30)) is deco
    for table in (deco.forward_table, deco.inverse_table):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1


def test_product_ring_decomposition():
    ring = ProductRing([ZmodRing(2), ZmodRing(3)])
    deco = decompose_ring(ring)
    assert [r.characteristic for r in deco.component_rings] == [2, 3]
    for a in range(6):
        assert deco.inverse(deco.forward(a)) == a
    nested = ProductRing([ZmodRing(6), ZmodRing(2)])
    with pytest.raises(UnsupportedCharacteristicError):
        decompose_ring(nested)


def test_split_merge_roundtrip(z6_deco):
    mod = ModuleSpec(ZmodRing(6), 1)
    win = WindowSpec((1, 1), (0, 0), (4, 3))
    rng = CounterRng(8, stream=3)
    cfg = WindowConfig(win, mod, rng.uniform_codes(0, win.extents + (1,), 6))
    parts = split_config(cfg, z6_deco)
    assert merge_config(parts, z6_deco) == cfg
    const5 = constant_config(mod, win, 5)
    p2, p3 = split_config(const5, z6_deco)
    assert np.all(p2.values == 1) and np.all(p3.values == 2)
    zero = constant_config(mod, win, 0)
    for part in split_config(zero, z6_deco):
        assert not part.values.any()


def test_split_commutes_with_shift(z6_deco):
    mod = ModuleSpec(ZmodRing(6), 1)
    win = WindowSpec((2, 0), (0, 0), (6, 6))
    rng = CounterRng(4, stream=5)
    cfg = WindowConfig(win, mod, rng.uniform_codes(0, win.extents + (1,), 6), "torus")
    for v in [(1, 0), (0, 2), (3, 4), (-1, -2)]:
        lhs = split_config(shift_config(cfg, v), z6_deco)
        rhs = [shift_config(part, v) for part in split_config(cfg, z6_deco)]
        assert all(a == b for a, b in zip(lhs, rhs))


def test_split_is_additive(z6_deco):
    ring = ZmodRing(6)
    mod = ModuleSpec(ring, 1)
    win = WindowSpec((1, 0), (0,), (7,))
    rng = CounterRng(5, stream=7)
    a = WindowConfig(win, mod, rng.uniform_codes(0, (7, 1), 6))
    b = WindowConfig(win, mod, rng.uniform_codes(50, (7, 1), 6))
    from modshift import config_add

    lhs = split_config(config_add(a, b), z6_deco)
    for j, part in enumerate(lhs):
        pa = split_config(a, z6_deco)[j]
        pb = split_config(b, z6_deco)[j]
        assert part == config_add(pa, pb)


def test_component_rule_and_conjugacy(z6_deco):
    mod = ModuleSpec(ZmodRing(6), 1)
    rule = LocalRule(mod, (1, 0), ((0,), (1,)), (1, 5))
    comp0 = component_rule(rule, z6_deco, 0)
    comp1 = component_rule(rule, z6_deco, 1)
    assert comp0.coeffs == (1, 1) and comp1.coeffs == (1, 2)
    res = conjugacy_check(rule, z6_deco, trials=100, torus_extents=(32,), seed=9)
    assert res.ok and res.trials == 100


def test_conjugacy_identity_rule_trivially_true(z6_deco):
    mod = ModuleSpec(ZmodRing(6), 1)
    ident = LocalRule(mod, (1, 0), ((0,),), (1,))
    assert conjugacy_check(ident, z6_deco, trials=10, torus_extents=(16,), seed=1).ok


def test_conjugacy_detects_corruption(z6_deco):
    # corrupt the forward table for one code and expect a located counterexample
    bad_fwd = z6_deco.forward_table.copy()
    bad_fwd[5, 1] = 1  # 5 should map to (1, 2)
    bad = dataclasses.replace(z6_deco, forward_table=bad_fwd)
    mod = ModuleSpec(ZmodRing(6), 1)
    rule = LocalRule(mod, (1, 0), ((0,), (1,)), (1, 5))
    res = conjugacy_check(rule, bad, trials=20, torus_extents=(16,), seed=2)
    assert isinstance(res, ConjugacyResult) and not res.ok
    assert res.counterexample is not None
    assert set(res.counterexample) == {"trial", "component", "site"}


def test_project_uniform_bernoulli(z6_deco):
    mod = ModuleSpec(ZmodRing(6), 1)
    win = WindowSpec((1, 0), (0,), (5,))
    mu = uniform_bernoulli(mod, win, seed=2)
    p0 = project_measure(mu, z6_deco, 0)
    p1 = project_measure(mu, z6_deco, 1)
    assert p0.probs == (Fraction(1, 2),) * 2
    assert p1.probs == (Fraction(1, 3),) * 3
    with pytest.raises(InvalidParameterError):
        project_measure(mu, z6_deco, 2)


def test_project_refuses_a_decomposition_of_another_ring(z6_deco):
    mu = uniform_bernoulli(ModuleSpec(ZmodRing(10), 1), WindowSpec((1, 0), (0,), (3,)))
    with pytest.raises(InvalidParameterError, match="differs from decomposition source"):
        project_measure(mu, z6_deco, 0)


def test_project_point_mass(z6_deco):
    mod = ModuleSpec(ZmodRing(6), 1)
    win = WindowSpec((1, 0), (0,), (3,))
    pm = point_mass(constant_config(mod, win, 5))
    p0 = project_measure(pm, z6_deco, 0)
    p1 = project_measure(pm, z6_deco, 1)
    assert p0.cylinder_probability({(1,): (1,)}) == 1
    assert p1.cylinder_probability({(1,): (2,)}) == 1


def test_product_joining_reconstructs_uniform(z6_deco):
    mod = ModuleSpec(ZmodRing(6), 1)
    win = WindowSpec((1, 0), (0,), (4,))
    mu = uniform_bernoulli(mod, win, seed=3)
    comps = [project_measure(mu, z6_deco, j) for j in range(2)]
    rebuilt = merge_product_bernoulli(comps, z6_deco)
    assert rebuilt.probs == mu.probs
    # exact two-site distribution comparison
    for a in range(6):
        for b in range(6):
            pins = {(0,): (a,), (2,): (b,)}
            assert rebuilt.cylinder_probability(pins) == mu.cylinder_probability(pins)


def test_project_kernel_haar(z6_deco):
    from modshift import KernelShiftSpec, kernel_haar

    mod = ModuleSpec(ZmodRing(6), 1)
    spec = KernelShiftSpec(LocalRule(mod, (1, 0), ((0,), (1,), (2,)), (1, 1, 1)))
    win = WindowSpec((1, 0), (0,), (5,))
    mu = kernel_haar(spec, win, seed=4)
    p0 = project_measure(mu, z6_deco, 0)
    # component-0 measure is the kernel Haar of the mod-2 rule
    comp_spec = KernelShiftSpec(component_rule(spec.constraint, z6_deco, 0))
    direct = kernel_haar(comp_spec, win, seed=4)
    assert p0.same_distribution(direct)


def test_project_coset_haar(z6_deco):
    from modshift import KernelShiftSpec, coset_haar, coset_from_cocycle

    mod6 = ModuleSpec(ZmodRing(6), 1)
    # constants lie in the kernel of 1 + sigma + ... wait: use the difference rule,
    # whose kernel is the constants; linear configurations are then coset reps
    spec = KernelShiftSpec(LocalRule(mod6, (1, 0), ((0,), (1,)), (1, 5)))
    win = WindowSpec((1, 0), (0,), (6,))
    rep = coset_from_cocycle(0, 1, win, mod6)  # c_m = m mod 6
    mu = coset_haar(rep, spec, seed=3)
    p1 = project_measure(mu, z6_deco, 1)
    # a component pin is the preimage event over the source ring
    for v in range(3):
        preimages = [code for code in range(6) if z6_deco.forward(code)[1] == v]
        want = sum(
            (mu.cylinder_probability({(2,): (code,)}) for code in preimages),
            start=Fraction(0),
        )
        assert p1.cylinder_probability({(2,): (v,)}) == want
    draws = p1.draw_values(0, 100)
    assert draws.max() < 3


def test_project_sampled_measure(z6_deco):
    from modshift import TransformedMeasure

    mod = ModuleSpec(ZmodRing(6), 1)
    win = WindowSpec((1, 0), (0,), (4,))
    mu = uniform_bernoulli(mod, win, seed=6)
    sampled = TransformedMeasure(mu, lambda batch: batch, win, mod, label="as-sampled")
    proj = project_measure(sampled, z6_deco, 1)
    assert not proj.is_exact
    draws = proj.draw_values(0, 200)
    assert 0 <= draws.min() and draws.max() < 3
    # projection of the draws equals draws of the projection
    src = sampled.draw_values(0, 200)
    assert np.array_equal(z6_deco.forward_table[src, 1], draws)
