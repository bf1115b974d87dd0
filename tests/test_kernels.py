import re
import tracemalloc

import numpy as np
import pytest

from modshift import (
    InfeasiblePinError,
    InvalidParameterError,
    KernelShiftSpec,
    LocalRule,
    ModuleSpec,
    WindowConfig,
    WindowSpec,
    ZmodRing,
    coboundary,
    config_add,
    config_scale,
    constant_config,
    coset_from_cocycle,
    coset_shift_check,
    enumerate_kernel_words,
    extension_certificate,
    invariance_and_surjectivity_check,
    kernel_membership,
    make_ring,
    restrict_config,
    scaled_coset_in_kernel,
    shift_config,
    submodule_condition_check,
    topological_mixing_check,
    torsion_free_check,
    window_kernel,
)
from modshift.errors import KERNEL_CELL_CAP, ResourceLimitError
from modshift.kernels import draw_kernel_words
from modshift.rng import CounterRng


from oracles import brute_kernel_words


def as_config(spec, window, flat_word):
    vals = np.array(flat_word, dtype=np.int64).reshape(window.extents + (1,))
    return WindowConfig(window, spec.module, vals)


def test_window_kernel_count_vs_enumeration(cb_system):
    w6 = cb_system.six_site_window()
    basis = window_kernel(cb_system.kernel, w6)
    brute = brute_kernel_words(cb_system.kernel, w6)
    assert basis.solution_count == 32 == len(brute)
    words = enumerate_kernel_words(basis)
    got = {tuple(int(v) for v in words[i, :, 0]) for i in range(words.shape[0])}
    assert got == set(brute)


def test_window_too_small_gives_full_space(cb_system):
    tiny = WindowSpec((1, 1), (0, 0), (2, 1))
    basis = window_kernel(cb_system.kernel, tiny)
    assert basis.solution_count == 2 ** tiny.n_sites


def test_identity_constraint_forces_zero():
    mod = ModuleSpec(ZmodRing(2), 1)
    ident = KernelShiftSpec(LocalRule(mod, (1, 0), ((0,),), (1,)))
    win = WindowSpec((1, 0), (0,), (5,))
    basis = window_kernel(ident, win)
    assert basis.solution_count == 1
    assert kernel_membership(ident, constant_config(mod, win, 0))
    assert not kernel_membership(ident, constant_config(mod, win, 1))


def test_membership_examples(cb_system):
    w6 = cb_system.six_site_window()
    basis = window_kernel(cb_system.kernel, w6)
    words = enumerate_kernel_words(basis)
    zero = as_config(cb_system.kernel, w6, [0] * 6)
    assert kernel_membership(cb_system.kernel, zero)
    s = config_add(
        as_config(cb_system.kernel, w6, words[1, :, 0]),
        as_config(cb_system.kernel, w6, words[2, :, 0]),
    )
    assert kernel_membership(cb_system.kernel, s)
    cb = restrict_config(cb_system.checkerboard(cb_system.window(4, 3)), w6)
    # oracle: direct stencil sum of the checkerboard at the only anchor is 1
    assert not kernel_membership(cb_system.kernel, cb)


def test_submodule_condition(cb_system):
    w6 = cb_system.six_site_window()
    basis = window_kernel(cb_system.kernel, w6)
    assert submodule_condition_check(basis, (1, 1, 1))
    # coset words: NOT closed under two-term sums
    words = enumerate_kernel_words(basis)
    cb = restrict_config(cb_system.checkerboard(cb_system.window(4, 3)), w6)
    coset_words = cb_system.ring.add_arr(words, cb.flat()[None, :, :])
    assert not submodule_condition_check((coset_words, cb_system.module), (1, 1))
    # full space trivially closed
    full = window_kernel(cb_system.kernel, WindowSpec((1, 1), (0, 0), (2, 1)))
    assert submodule_condition_check(full, (1, 1, 1))


def test_invariance_and_surjectivity(cb_system):
    w6 = cb_system.six_site_window()
    assert invariance_and_surjectivity_check(cb_system.rule, cb_system.kernel, w6) == (True, True)
    assert invariance_and_surjectivity_check(cb_system.constraint, cb_system.kernel, w6) == (True, False)
    ident = LocalRule(cb_system.module, (1, 1), ((0, 0),), (1,))
    assert invariance_and_surjectivity_check(ident, cb_system.kernel, w6) == (True, True)


def test_coboundary_examples(cb_system):
    win = cb_system.window(8, 6)
    const = constant_config(cb_system.module, win, 1)
    for d in coboundary(const, [(1, 0), (0, 1), (2, 1)]):
        assert not d.values.any()
    cb = cb_system.checkerboard(win)
    d10, d11 = coboundary(cb, [(1, 0), (1, 1)])
    assert np.all(d10.values == 1)
    assert np.all(d11.values == 0)


def test_cocycle_type_derivation(cb_system):
    from modshift import Cocycle

    win = cb_system.window(12, 10)
    cb = cb_system.checkerboard(win)
    cocycle = Cocycle.from_coboundary(cb)
    # derived values agree with direct coboundaries on the common window
    for m in [(1, 0), (0, 2), (2, 1), (1, 3)]:
        derived = cocycle.value_at(m)
        (direct,) = coboundary(cb, [m])
        common = derived.window.intersect(direct.window)
        assert restrict_config(derived, common) == restrict_config(direct, common)
    # the linear cocycle with a = 1 rebuilds the checkerboard's coboundary
    linear = Cocycle.linear(1, win, cb_system.module)
    for m in [(1, 0), (2, 1)]:
        derived = linear.value_at(m)
        assert np.all(derived.values == sum(m) % 2)
    assert cocycle.check_law(cb, [((1, 0), (0, 1)), ((2, 1), (1, 1))])


def test_cocycle_law_on_random_config(cb_system):
    win = cb_system.window(10, 8)
    rng = CounterRng(3, stream=91)
    cfg = WindowConfig(win, cb_system.module, rng.uniform_codes(0, win.extents + (1,), 2))
    u, v = (2, 1), (1, 2)
    (b_u,) = coboundary(cfg, [u])
    (b_v,) = coboundary(cfg, [v])
    (b_uv,) = coboundary(cfg, [tuple(a + b for a, b in zip(u, v))])
    shifted = shift_config(b_u, v)
    common = b_uv.window.intersect(shifted.window)
    common = common.intersect(b_v.window)
    lhs = restrict_config(b_uv, common)
    rhs = config_add(restrict_config(shifted, common), restrict_config(b_v, common))
    assert lhs == rhs


def test_coset_from_cocycle_checkerboard(cb_system):
    win = cb_system.window(6, 4)
    built = coset_from_cocycle(0, 1, win, cb_system.module)
    assert built == cb_system.checkerboard(win)
    assert coset_from_cocycle(0, 0, win, cb_system.module) == constant_config(cb_system.module, win, 0)
    inverted = coset_from_cocycle(1, 1, win, cb_system.module)
    assert np.array_equal(inverted.values, (1 - built.values) % 2)


def test_coset_from_cocycle_coboundary_roundtrip(cb_system):
    # the built configuration's coboundary along v is the constant (sum v) * a
    win = cb_system.window(9, 7)
    built = coset_from_cocycle(1, 1, win, cb_system.module)
    for v in [(1, 0), (0, 1), (2, 1)]:
        (d,) = coboundary(built, [v])
        expect = (sum(v)) % 2
        assert np.all(d.values == expect)


def test_coset_shift_check(cb_system):
    win = cb_system.window(10, 6)
    cb = cb_system.checkerboard(win)
    assert coset_shift_check(cb, cb_system.kernel)
    # kernel members themselves pass
    basis = window_kernel(cb_system.kernel, win)
    draw = draw_kernel_words(basis, 1, seed=5)[0]
    member = WindowConfig(win, cb_system.module, draw.reshape(win.extents + (1,)))
    assert kernel_membership(cb_system.kernel, member)
    assert coset_shift_check(member, cb_system.kernel)
    # a generic word fails; oracle: find a coboundary with nonzero residual
    rng = CounterRng(9, stream=37)
    bad = WindowConfig(win, cb_system.module, rng.uniform_codes(0, win.extents + (1,), 2))
    assert not coset_shift_check(bad, cb_system.kernel)


def test_torsion_free_check(cb_system, torsion_system):
    w6 = cb_system.six_site_window()
    assert torsion_free_check(cb_system.kernel, w6, 0) is False
    assert torsion_free_check(cb_system.kernel, w6, 1) is True
    # full space: vacuously torsion free even for scalar 0
    tiny = WindowSpec((1, 1), (0, 0), (2, 1))
    assert torsion_free_check(cb_system.kernel, tiny, 0) is True
    w9 = torsion_system.window(9)
    assert torsion_free_check(torsion_system.kernel, w9, 1) is True
    assert torsion_free_check(torsion_system.kernel, w9, 0) is False


def test_scaled_coset_in_kernel(cb_system, torsion_system):
    win = cb_system.window(8, 4)
    cb = cb_system.checkerboard(win)
    assert scaled_coset_in_kernel(cb, cb_system.kernel, 0)  # 0*c = 0 in S
    # z3 instance: candidates in S pass scalar 1, candidates outside fail
    w12 = torsion_system.window(12)
    mod3 = torsion_system.module
    spec3 = torsion_system.kernel
    constant1 = constant_config(mod3, w12, 1)
    linear = coset_from_cocycle(0, 1, w12, mod3)
    quadratic_vals = np.array(
        [[(m * (m - 1) // 2) % 3] for m in range(12)], dtype=np.int64
    )
    quadratic = WindowConfig(w12, mod3, quadratic_vals)
    assert kernel_membership(spec3, constant1) and kernel_membership(spec3, linear)
    assert not kernel_membership(spec3, quadratic)
    assert coset_shift_check(quadratic, spec3)  # a genuine nontrivial coset shift
    assert scaled_coset_in_kernel(constant1, spec3, 1)
    assert scaled_coset_in_kernel(linear, spec3, 1)
    assert not scaled_coset_in_kernel(quadratic, spec3, 1)


SCALAR_RINGS = ["zmod:3", "gf:2:2", "prod:[zmod:2;zmod:3]"]


def _scalar_case(desc):
    module = ModuleSpec(make_ring(desc), 1)
    window = WindowSpec((1, 0), (0,), (4,))
    one = module.ring.one
    spec = KernelShiftSpec(LocalRule(module, (1, 0), ((0,), (1,)), (one, one)))
    return module, window, spec, constant_config(module, window, one)


@pytest.mark.parametrize("desc", SCALAR_RINGS)
def test_scalars_outside_the_ring_are_refused(desc):
    module, window, spec, word = _scalar_case(desc)
    pattern = rf"is not an element code of {re.escape(desc)}"
    for bad in (-1, module.ring.size):
        with pytest.raises(InvalidParameterError, match=pattern):
            config_scale(bad, word)
        with pytest.raises(InvalidParameterError, match=pattern):
            scaled_coset_in_kernel(word, spec, bad)
        with pytest.raises(InvalidParameterError, match=pattern):
            coset_from_cocycle(bad, 0, window, module)
        with pytest.raises(InvalidParameterError, match=pattern):
            coset_from_cocycle(0, (bad,), window, module)


@pytest.mark.parametrize("desc", SCALAR_RINGS)
def test_scalars_inside_the_ring_scale_codewise(desc):
    module, window, _, word = _scalar_case(desc)
    ring = module.ring
    for scalar in range(ring.size):
        want = [ring.mul(scalar, int(v)) for v in word.values.ravel()]
        assert config_scale(scalar, word).values.ravel().tolist() == want
        built = coset_from_cocycle(scalar, 0, window, module)
        assert built == constant_config(module, window, scalar)


def test_topological_mixing(cb_system):
    w2 = WindowSpec((1, 1), (0, 0), (2, 1))
    word = constant_config(cb_system.module, w2, 1)
    pairs = [((0, 0), word), ((0, 1), word), ((1, 0), word)]
    assert topological_mixing_check(cb_system.kernel, pairs, 8)
    # single offset: always satisfiable for kernel words
    assert topological_mixing_check(cb_system.kernel, [((0, 0), word)], 3)
    # identity kernel: nonzero pins infeasible as non-kernel words
    mod = ModuleSpec(ZmodRing(2), 1)
    ident = KernelShiftSpec(LocalRule(mod, (1, 0), ((0,),), (1,)))
    w1 = WindowSpec((1, 0), (0,), (1,))
    nonzero = constant_config(mod, w1, 1)
    with pytest.raises(InvalidParameterError):
        topological_mixing_check(ident, [((1,), nonzero)], 4)
    zero = constant_config(mod, w1, 0)
    assert topological_mixing_check(ident, [((1,), zero), ((0,), zero)], 4)
    # conflicting pins at n where windows collide
    wide = constant_config(cb_system.module, WindowSpec((1, 1), (0, 0), (3, 1)), 0)
    mixed = coset_from_cocycle(0, 0, WindowSpec((1, 1), (0, 0), (3, 1)), cb_system.module)
    vals = mixed.values.copy()
    vals[0, 0, 0] = 1  # still needs to be a kernel word? use kernel words that clash
    # two copies of different kernel words pinned at the same sites
    w6 = cb_system.six_site_window()
    words = enumerate_kernel_words(window_kernel(cb_system.kernel, w6))
    a = WindowConfig(w6, cb_system.module, words[1].reshape(w6.extents + (1,)))
    b = WindowConfig(w6, cb_system.module, words[2].reshape(w6.extents + (1,)))
    with pytest.raises(InfeasiblePinError):
        topological_mixing_check(cb_system.kernel, [((0, 0), a), ((0, 0), b)], 5)


def test_a_kernel_box_past_the_cell_cap_is_refused_before_any_array(cb_system):
    # Pins at (0,0), (-n,0), (n,0) and (0,n) on the parity kernel: at n = 2048 the
    # box has 4097 x 2049 sites and 8,193 free ones, about 6.9e10 cells.
    one = WindowSpec((1, 1), (0, 0), (1, 1))
    pairs = [((0, 0), constant_config(cb_system.module, one, 1))] + [
        (h, constant_config(cb_system.module, one, 0)) for h in ((-1, 0), (1, 0), (0, 1))
    ]
    cells = 4097 * 2049 * (4097 * 2049 - 4095 * 2048)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=f"needs {cells} cells") as refusal:
            topological_mixing_check(cb_system.kernel, pairs, 2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert refusal.value.required == cells > KERNEL_CELL_CAP and peak < 1 << 20


def test_topological_mixing_refuses_offset_of_wrong_arity(cb_system):
    word = constant_config(cb_system.module, WindowSpec((1, 1), (0, 0), (1, 1)), 0)
    for bad in ((1,), (1, 0, 7)):
        message = rf"offset \({bad[0]},.*has length {len(bad)}, not D\+E = 2"
        with pytest.raises(InvalidParameterError, match=message):
            topological_mixing_check(cb_system.kernel, [((0, 0), word), (bad, word)], 3)


def test_extension_certificate(cb_system, torsion_system):
    assert extension_certificate(cb_system.kernel, cb_system.six_site_window())
    assert extension_certificate(cb_system.kernel, cb_system.window(5, 3))
    assert extension_certificate(torsion_system.kernel, torsion_system.window(6))


def test_kernel_words_closed_under_ring_action(cb_system):
    w6 = cb_system.six_site_window()
    basis = window_kernel(cb_system.kernel, w6)
    words = enumerate_kernel_words(basis)
    ring = cb_system.ring
    keys = {words[i].tobytes() for i in range(words.shape[0])}
    for i in range(words.shape[0]):
        for j in range(words.shape[0]):
            assert ring.add_arr(words[i], words[j]).tobytes() in keys
        assert ring.mul_arr(np.int64(1), words[i]).tobytes() in keys


def test_composite_kernel_splits(cb_system):
    # kernel over zmod(6): dimension counts multiply across prime components
    mod6 = ModuleSpec(ZmodRing(6), 1)
    spec6 = KernelShiftSpec(LocalRule(mod6, (1, 0), ((0,), (1,), (2,)), (1, 1, 1)))
    win = WindowSpec((1, 0), (0,), (4,))
    basis = window_kernel(spec6, win)
    brute = brute_kernel_words(spec6, win)
    assert basis.solution_count == len(brute)
    words = enumerate_kernel_words(basis)
    got = {tuple(int(v) for v in words[i, :, 0]) for i in range(words.shape[0])}
    assert got == set(brute)
    assert torsion_free_check(spec6, win, 5) is True
    assert torsion_free_check(spec6, win, 3) is False  # 3 kills the z3 part

def test_gf_field_window_kernel():
    from modshift import GFRing

    f4 = GFRing(2, 2)
    mod = ModuleSpec(f4, 1)
    g = 2
    spec = KernelShiftSpec(LocalRule(mod, (1, 0), ((0,), (1,)), (1, g)))
    win = WindowSpec((1, 0), (0,), (4,))
    basis = window_kernel(spec, win)
    brute = brute_kernel_words(spec, win)
    assert basis.solution_count == len(brute) == 4
    words = enumerate_kernel_words(basis)
    got = {tuple(int(v) for v in words[i, :, 0]) for i in range(words.shape[0])}
    assert got == set(brute)
    assert torsion_free_check(spec, win, 3) is True  # every nonzero scalar is a unit
    assert extension_certificate(spec, win)


def test_negative_origin_window_kernel(cb_system):
    # Z-axis origins may be negative; the N axis floor clips anchors at zero
    win = WindowSpec((1, 1), (-4, 0), (4, 3))
    basis = window_kernel(cb_system.kernel, win)
    brute = brute_kernel_words(cb_system.kernel, win)
    assert basis.solution_count == len(brute)
    shifted = WindowSpec((1, 1), (-4, 2), (4, 3))
    basis2 = window_kernel(cb_system.kernel, shifted)
    assert basis2.solution_count == basis.solution_count  # translation invariance


def test_rank2_module_kernel(cb_system):
    mod = ModuleSpec(ZmodRing(2), 2)
    spec = KernelShiftSpec(LocalRule(mod, (1, 0), ((0,), (1,)), (1, 1)))
    win = WindowSpec((1, 0), (0,), (3,))
    basis = window_kernel(spec, win)
    # scalar dim 1 (all-equal words), two components -> 4 solutions
    assert basis.solution_count == 4
    words = enumerate_kernel_words(basis)
    for i in range(words.shape[0]):
        cfg = WindowConfig(win, mod, words[i].reshape(win.extents + (2,)))
        assert kernel_membership(spec, cfg)


def test_topological_mixing_names_the_first_clash_and_refuses_other_dims(cb_system):
    w6 = cb_system.six_site_window()
    words = enumerate_kernel_words(window_kernel(cb_system.kernel, w6))
    a, b = (WindowConfig(w6, cb_system.module, words[i].reshape(w6.extents + (1,))) for i in (2, 1))
    with pytest.raises(InfeasiblePinError, match=r"site \(1, 0\) pinned to both \(1,\) and \(0,\)"):
        topological_mixing_check(cb_system.kernel, [((0, 0), a), ((1, 0), b)], 1)
    line = constant_config(cb_system.module, WindowSpec((1, 0), (0,), (3,)), 0)
    with pytest.raises(InvalidParameterError, match=r"does not have the kernel's dims \(1, 1\)"):
        topological_mixing_check(cb_system.kernel, [((1, 0), line)], 2)
    with pytest.raises(InvalidParameterError, match=r"does not have the kernel's dims"):
        kernel_membership(cb_system.kernel, line)
