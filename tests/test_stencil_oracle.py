"""Differential tests: the single stencil engine against the reduce-each oracles.

`stencil` accumulates unreduced and reduces once (over Z/m) or adds packed
additive digits (GF and product rings), and every caller (`apply_poly`, `constraint_residual`,
`batch_membership`, the batched Frobenius and CRT checks) goes through it.
Ring arithmetic is exact, so each must equal the original evaluation, which
reduces after every multiply and every add, bit for bit.  The torus path
writes one wrap-padded copy in the ring's narrowest sum dtype; the `np.roll`
oracle checks it at offsets far beyond the extents, at every dtype boundary
and over many steps of narrow codes.
"""

import dataclasses
from fractions import Fraction
from itertools import product as iter_product

import numpy as np
import pytest

from modshift import GFRing, KernelShiftSpec, ModuleSpec, WindowSpec, ZmodRing
from modshift.crt import component_map_verdicts, conjugacy_check, decompose_ring
from modshift.errors import DRAW_CAP, DomainExhaustedError, DrawLimitError, InvalidParameterError
from modshift.experiment import frobenius_check
from modshift.kernels import batch_membership, constraint_matrix, constraint_residual
from modshift.lattice import WindowConfig, checkerboard_config, config_from_function
from modshift.rings import Ring, make_ring
from modshift.rng import CounterRng
from modshift.shiftpoly import (
    LocalRule,
    ShiftPolynomial,
    TorusStencil,
    apply_poly,
    frobenius_power,
    from_rule,
    iterate_rule,
    parse_rule,
    poly_pow,
    stencil,
)

from oracles import (
    generic_weighted_sum,
    pairwise_crt_verdicts,
    per_anchor_constraint_matrix,
    per_trial_conjugacy,
    reduce_each_apply,
    reduce_each_batch,
    reduce_each_membership,
    reduce_each_residual,
    translated_window_stencil,
)

RINGS = [
    ZmodRing(2),
    ZmodRing(3),
    ZmodRing(5),
    ZmodRing(6),
    ZmodRing(210),
    ZmodRing(65521),
    GFRing(2, 2),
    GFRing(3, 2),
    make_ring("prod:[zmod:2;zmod:3]"),
]

# (dims, origin, extents, offsets).  N-axis offsets are nonnegative, as local
# rules require.
CASES = {
    # Z x N with the N-axis output origin clipped from -1 to 0.
    "zn_clip": ((1, 1), (-3, 0), (7, 6), ((-1, 1), (0, 2), (1, 3), (2, 1))),
    # Z^2 with negative origins.
    "zz_negative": ((2, 0), (-2, -5), (5, 4), ((0, 0), (-1, 1), (2, -1))),
    # N only, away from the boundary.
    "n_origin": ((0, 1), (3,), (9,), ((0,), (2,), (5,))),
    # N only, output origin clipped from -1 to 0.
    "n_clip": ((0, 1), (1,), (9,), ((2,), (4,))),
    # The stencil is wider than the window: no anchor at all.
    "wider": ((1, 1), (0, 0), (3, 4), ((0, 0), (4, 0))),
    # The stencil fits, but clipping to N empties the anchor window.
    "n_clip_empties": ((0, 1), (0,), (2,), ((2,), (3,))),
}


def _ids(ring):
    return ring.descriptor().split(":")[0] + str(ring.size)


def _coeffs(ring, n, seed):
    """n nonzero ring codes; the first is one, to reach the unit-coefficient path."""
    raw = CounterRng(seed, stream=3).uniform_codes(0, (n,), ring.size - 1) + 1
    raw[0] = ring.one
    return [int(c) for c in raw]


def _values(ring, count, extents, rank, seed):
    return CounterRng(seed, stream=4).uniform_codes(0, (count,) + tuple(extents) + (rank,), ring.size)


def _poly(ring, case, seed):
    dims, _, _, offsets = CASES[case]
    return ShiftPolynomial.from_terms(ring, dims, dict(zip(offsets, _coeffs(ring, len(offsets), seed))))


@pytest.mark.parametrize("ring", RINGS, ids=_ids)
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("mode", ["torus", "exact"])
@pytest.mark.parametrize("rank", [1, 2])
def test_stencil_and_apply_poly_match_oracle(ring, case, mode, rank):
    dims, origin, extents, _ = CASES[case]
    window = WindowSpec(dims, origin, extents)
    poly = _poly(ring, case, seed=len(case))
    values = _values(ring, 3, extents, rank, seed=rank)
    try:
        want_window, want = reduce_each_batch(poly, window, values, mode, ring)
    except DomainExhaustedError:
        assert mode == "exact"
        with pytest.raises(DomainExhaustedError):
            stencil(poly.terms, values, window, mode, ring)
        with pytest.raises(DomainExhaustedError):
            apply_poly(poly, WindowConfig(window, ModuleSpec(ring, rank), values[0], mode))
        return
    got_window, got = stencil(poly.terms, values, window, mode, ring)
    assert got_window == want_window
    assert got.dtype == np.int64 and np.array_equal(got, want)
    module = ModuleSpec(ring, rank)
    for i in range(values.shape[0]):
        cfg = WindowConfig(window, module, values[i], mode)
        assert apply_poly(poly, cfg) == reduce_each_apply(poly, cfg)


# (dims, origin, extents, per-axis offset ranges): each box of offsets holds 64 terms.
WIDE_CASES = {
    "zn_clip": ((1, 1), (-3, 0), (13, 12), ((-4, 4), (1, 9))),  # N-axis anchors clipped at 0
    "zz_negative": ((2, 0), (-6, -2), (11, 9), ((-4, 4), (-3, 5))),
    "znn": ((1, 2), (2, 0, 1), (6, 7, 5), ((-2, 2), (0, 4), (0, 4))),
}


@pytest.mark.parametrize("ring", RINGS, ids=_ids)
@pytest.mark.parametrize("case", sorted(WIDE_CASES))
@pytest.mark.parametrize("dtype", [np.int64, np.uint16])
def test_64_term_exact_stencil_matches_translated_windows(ring, case, dtype):
    dims, origin, extents, ranges = WIDE_CASES[case]
    offsets = list(iter_product(*(range(lo, hi) for lo, hi in ranges)))
    assert len(offsets) == 64
    terms = list(zip(offsets, _coeffs(ring, len(offsets), seed=len(case))))
    window = WindowSpec(dims, origin, extents)
    values = _values(ring, 3, extents, 2, seed=7).astype(dtype)
    want_window, want = translated_window_stencil(terms, values, window, ring)
    got_window, got = stencil(terms, values, window, "exact", ring)
    assert got_window == want_window
    assert got.dtype == want.dtype == dtype and np.array_equal(got, want)


@pytest.mark.parametrize("mode", ["torus", "exact"])
def test_zero_polynomial_gives_zeros_on_the_same_window(mode):
    ring = ZmodRing(5)
    window = WindowSpec((1, 1), (-2, 1), (4, 3))
    poly = ShiftPolynomial.from_terms(ring, (1, 1), {})
    values = _values(ring, 2, window.extents, 1, seed=8)
    want_window, want = reduce_each_batch(poly, window, values, mode, ring)
    got_window, got = stencil(poly.terms, values, window, mode, ring)
    assert got_window == want_window == window
    assert np.array_equal(got, want) and not got.any()


@pytest.mark.parametrize("ring", RINGS, ids=_ids)
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("rank", [1, 2])
def test_constraint_residual_and_batch_membership_match_oracle(ring, case, rank):
    dims, origin, extents, offsets = CASES[case]
    window = WindowSpec(dims, origin, extents)
    module = ModuleSpec(ring, rank)
    spec = KernelShiftSpec(
        LocalRule(module, dims, offsets, tuple(_coeffs(ring, len(offsets), seed=rank)))
    )
    values = _values(ring, 5, extents, rank, seed=len(case))
    values[0] = 0  # one member for sure
    for i in range(values.shape[0]):
        cfg = WindowConfig(window, module, values[i])
        got, want = constraint_residual(spec, cfg), reduce_each_residual(spec, cfg)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)
    flat = values.reshape(values.shape[0], window.n_sites, rank)
    got = batch_membership(spec, window, flat)
    assert np.array_equal(got, reduce_each_membership(spec, window, flat))
    assert got[0]


@pytest.mark.parametrize("ring", RINGS, ids=_ids)
@pytest.mark.parametrize("case", sorted(CASES))
def test_constraint_matrix_matches_per_anchor_loop(ring, case):
    dims, origin, extents, offsets = CASES[case]
    window = WindowSpec(dims, origin, extents)
    spec = KernelShiftSpec(
        LocalRule(ModuleSpec(ring), dims, offsets, tuple(_coeffs(ring, len(offsets), seed=3)))
    )
    got = constraint_matrix(spec, window)
    want = per_anchor_constraint_matrix(spec, window)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "rule_text, window",
    [
        (
            "rule ring=zmod:2 rank=1 dims=1,1 H=(-1,0):1;(0,0):1;(1,0):1;(0,1):1",
            WindowSpec((1, 1), (0, 0), (32, 32)),
        ),
        (
            "rule ring=zmod:3 rank=1 dims=2,0 H=(0,0):1;(1,0):2;(0,1):1",
            WindowSpec((2, 0), (-4, 7), (9, 11)),
        ),
        ("rule ring=zmod:5 rank=1 dims=1,0 H=(-2):4;(3):1", WindowSpec((1, 0), (10,), (17,))),
        (
            "rule ring=zmod:2 rank=1 dims=1,2 H=(0,0,0):1;(1,0,1):1;(0,2,1):1",
            WindowSpec((1, 2), (-1, 0, 2), (4, 5, 3)),
        ),
    ],
)
def test_constraint_matrix_matches_per_anchor_loop_on_larger_windows(rule_text, window):
    spec = KernelShiftSpec(parse_rule(rule_text))
    got = constraint_matrix(spec, window)
    assert got.shape[0] > 0
    assert np.array_equal(got, per_anchor_constraint_matrix(spec, window))


# -- weighted sums and matrix combinations -----------------------------------------------


@pytest.mark.parametrize("ring", RINGS, ids=_ids)
def test_weighted_sum_matches_generic_loop(ring):
    arrays = _values(ring, 6, (7, 5), 2, seed=11)
    coeffs = [0, ring.one] + _coeffs(ring, 4, seed=12)
    want = generic_weighted_sum(ring, coeffs, list(arrays))
    got = ring.weighted_sum(coeffs, iter(arrays))
    assert got.dtype == np.int64 and np.array_equal(got, want)
    # One term, unit coefficient: the result is a fresh array equal to the input.
    single = ring.weighted_sum([ring.one], [arrays[0]])
    assert np.array_equal(single, arrays[0]) and not np.shares_memory(single, arrays[0])


@pytest.mark.parametrize("ring", RINGS, ids=_ids)
@pytest.mark.parametrize("shape", [(4, 0, 6), (1, 1, 1), (9, 5, 13), (3, 40, 7)])
def test_lincomb_matches_generic_loop(ring, shape):
    count, nb, ncols = shape
    coefs = CounterRng(13, stream=5).uniform_codes(0, (count, nb), ring.size)
    rows = CounterRng(14, stream=5).uniform_codes(0, (nb, ncols), ring.size)
    got = ring.lincomb(coefs, rows)
    assert got.dtype == np.int64 and np.array_equal(got, Ring.lincomb(ring, coefs, rows))


def test_lincomb_int64_branch_matches_generic_loop():
    # 2100 * 65520**2 > 2**53, so Z/65521 leaves the float64 matmul.
    ring = ZmodRing(65521)
    coefs = CounterRng(15, stream=5).uniform_codes(0, (3, 2100), ring.size)
    rows = CounterRng(16, stream=5).uniform_codes(0, (2100, 4), ring.size)
    assert np.array_equal(ring.lincomb(coefs, rows), Ring.lincomb(ring, coefs, rows))


# -- batched Frobenius and CRT checks ----------------------------------------------------


@pytest.mark.parametrize(
    "rule_text, k, torus",
    [
        ("rule ring=zmod:3 rank=1 dims=1,1 H=(0,0):1;(1,1):2", 1, (6, 5)),
        ("rule ring=gf:2:2:1,1,1 rank=2 dims=0,1 H=(0):2;(1):3", 2, (9,)),
        ("rule ring=prod:[zmod:2;gf:2:2:1,1,1] rank=1 dims=1,0 H=(-1):5;(2):1", 1, (7,)),
    ],
)
def test_frobenius_check_matches_per_config_loop(rule_text, k, torus):
    rule = parse_rule(rule_text)
    p = rule.ring.characteristic
    frob = frobenius_power(rule, k)
    power = poly_pow(from_rule(rule), p**k)
    window = WindowSpec(rule.dims, (0,) * len(torus), torus)
    draws = CounterRng(4, stream=71).uniform_codes(5, (3,) + torus + (rule.module.rank,), rule.ring.size)
    applied = True
    for i in range(3):
        cfg = WindowConfig(window, rule.module, draws[i], "torus")
        naive = cfg
        for _ in range(p**k):
            naive = reduce_each_apply(from_rule(rule), naive)
        if reduce_each_apply(frob, cfg) != naive or reduce_each_apply(power, cfg) != naive:
            applied = False
    want = {"k": k, "structural": frob == power, "applied": applied}
    assert frobenius_check(rule, k, torus, 3, seed=4, start=5) == want
    assert frobenius_check(rule, k, None, 3, seed=4) == {**want, "applied": True}


def _corrupted_z6():
    deco = decompose_ring(ZmodRing(6))
    fwd = deco.forward_table.copy()
    fwd[5, 1] = 1  # 5 should map to (1, 2)
    return dataclasses.replace(deco, forward_table=fwd)


@pytest.mark.parametrize(
    "rule_text, corrupt, torus",
    [
        ("rule ring=zmod:6 rank=1 dims=1,0 H=(0):1;(1):5", False, (16,)),
        ("rule ring=zmod:6 rank=1 dims=1,0 H=(0):1;(1):5", True, (16,)),
        ("rule ring=zmod:6 rank=2 dims=1,1 H=(0,0):1;(1,0):5;(0,1):1", True, (5, 4)),
        ("rule ring=zmod:30 rank=1 dims=1,0 H=(-1):7;(0):1;(1):29", False, (32,)),
    ],
)
def test_conjugacy_reports_the_first_counterexample(rule_text, corrupt, torus):
    rule = parse_rule(rule_text)
    deco = _corrupted_z6() if corrupt else decompose_ring(rule.ring)
    res = conjugacy_check(rule, deco, trials=20, torus_extents=torus, seed=2)
    assert res.counterexample == per_trial_conjugacy(rule, deco, 20, torus, 2)
    assert res.ok == (not corrupt)
    assert conjugacy_check(rule, deco, trials=0, torus_extents=torus).ok


@pytest.mark.parametrize("ring_text", ["zmod:6", "zmod:30", "prod:[gf:2:2:1,1,1;zmod:3]"])
def test_component_map_verdicts_match_pairwise_loop(ring_text):
    ring = make_ring(ring_text)
    deco = decompose_ring(ring)
    swapped = deco.inverse_table.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    relabelled = deco.forward_table.copy()
    relabelled[:, 0] = (relabelled[:, 0] + 1) % deco.component_rings[0].size
    for variant in (
        deco,
        dataclasses.replace(deco, inverse_table=swapped),
        dataclasses.replace(deco, forward_table=relabelled),
    ):
        inverse_ok, add_ok, _ = component_map_verdicts(variant, ring.size)
        got = (bool(inverse_ok.all()), bool(add_ok.all()))
        assert got == pairwise_crt_verdicts(ring, variant)
    assert got == (False, False)


def test_conjugacy_counterexample_in_a_later_batch():
    # 256 cells a trial run in batches of 256 trials; with one corrupted code
    # out of 65521 the first counterexample under this seed is trial 368.
    rule = parse_rule("rule ring=zmod:65521 rank=1 dims=1,0 H=(0):1;(1):2")
    deco = decompose_ring(rule.ring)
    fwd = deco.forward_table.copy()
    fwd[777, 0] = 778
    bad = dataclasses.replace(deco, forward_table=fwd)
    res = conjugacy_check(rule, bad, trials=400, torus_extents=(256,), seed=24)
    assert res.counterexample == per_trial_conjugacy(rule, bad, 400, (256,), 24)
    assert res.counterexample["trial"] == 368


def test_conjugacy_counterexample_in_the_last_partial_batch():
    # 1024 cells a trial run in batches of 64 trials, each drawn at its own
    # counter offset; 120 trials leave a last batch of 56, whose final trial
    # holds the first counterexample under this seed (one corrupted code of 65498).
    rule = parse_rule("rule ring=zmod:65498 rank=1 dims=1,0 H=(0):3")
    deco = decompose_ring(rule.ring)
    fwd = deco.forward_table.copy()
    fwd[65497, 0] ^= 1
    bad = dataclasses.replace(deco, forward_table=fwd)
    res = conjugacy_check(rule, bad, trials=120, torus_extents=(1024,), seed=13)
    assert res.counterexample == per_trial_conjugacy(rule, bad, 120, (1024,), 13)
    assert res.counterexample["trial"] == 119
    assert conjugacy_check(rule, bad, trials=119, torus_extents=(1024,), seed=13).ok


def test_conjugacy_refuses_negative_and_oversized_trial_counts():
    rule = parse_rule("rule ring=zmod:6 rank=1 dims=1,0 H=(0):1;(1):5")
    deco = decompose_ring(rule.ring)
    with pytest.raises(InvalidParameterError, match="trials"):
        conjugacy_check(rule, deco, trials=-1, torus_extents=(4,))
    with pytest.raises(DrawLimitError, match="draw cap") as info:
        conjugacy_check(rule, deco, trials=DRAW_CAP // 4 + 1, torus_extents=(4,))
    assert info.value.required == DRAW_CAP + 4


# -- checkerboard from one coordinate-sum array --------------------------------------------


@pytest.mark.parametrize(
    "ring_text", ["zmod:2", "zmod:6", "gf:3:2:1,0,1", "prod:[zmod:2;zmod:3]", "zmod:65521"]
)
@pytest.mark.parametrize(
    "dims, origin, extents",
    [((1, 1), (-5, 0), (7, 4)), ((2, 1), (-3, -1, 2), (3, 4, 2)), ((1, 0), (-70000,), (6,))],
)
@pytest.mark.parametrize("rank", [1, 2])
def test_checkerboard_matches_per_site_evaluation(ring_text, dims, origin, extents, rank):
    ring = make_ring(ring_text)
    module = ModuleSpec(ring, rank)
    window = WindowSpec(dims, origin, extents)
    want = config_from_function(module, window, lambda site: ring.from_int(sum(site)), "torus")
    got = checkerboard_config(module, window, "torus")
    assert got == want and got.values.tobytes() == want.values.tobytes()


# -- torus stencils: one wrap-padded copy in the ring's narrowest sum dtype --------------

# (dims, extents, offsets): offsets at, beyond and far beyond the extents, both signs.
TORUS_CASES = {
    "at_extent": ((2, 0), (5, 4), ((5, 0), (0, -4), (-5, 4), (1, 1))),
    "beyond_extent": ((2, 0), (5, 4), ((7, -9), (-11, 6), (0, 0), (23, 1))),
    "far_beyond": ((1, 0), (7,), ((7 * 1000 + 3,), (-7 * 999 - 2,), (1,))),
    "extent_one_axis": ((1, 1), (1, 6), ((0, 0), (3, 1), (-2, 7))),
    "all_extent_one": ((2, 0), (1, 1), ((0, 0), (1, -1), (5, 2))),
    "even_half_turn": ((1, 1), (6, 4), ((3, 0), (-3, 2), (0, 1))),
}

# Rings on each side of every dtype boundary of n_terms * (m-1)**2.
BOUNDARY_RINGS = [ZmodRing(m) for m in (2, 16, 17, 256, 257, 65521, 65536)]


@pytest.mark.parametrize("ring", RINGS, ids=_ids)
@pytest.mark.parametrize("case", sorted(TORUS_CASES))
@pytest.mark.parametrize("count, rank", [(1, 1), (3, 2)])
def test_torus_stencil_matches_roll_oracle(ring, case, count, rank):
    dims, extents, offsets = TORUS_CASES[case]
    window = WindowSpec(dims, (0,) * len(extents), extents)
    poly = ShiftPolynomial.from_terms(
        ring, dims, dict(zip(offsets, _coeffs(ring, len(offsets), seed=count)))
    )
    values = _values(ring, count, extents, rank, seed=rank)
    _, want = reduce_each_batch(poly, window, values, "torus", ring)
    got_window, got = stencil(poly.terms, values, window, "torus", ring)
    assert got_window == window
    assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("ring", BOUNDARY_RINGS, ids=_ids)
@pytest.mark.parametrize("n_terms", [1, 2, 3, 4])
def test_torus_stencil_on_each_side_of_the_dtype_boundaries(ring, n_terms):
    offsets = [(0, 0), (1, -1), (-2, 3), (4, 5)][:n_terms]
    window = WindowSpec((2, 0), (0, 0), (6, 5))
    coeffs = [ring.size - 1] * n_terms  # every term at its largest, (m-1)**2
    poly = ShiftPolynomial.from_terms(ring, (2, 0), dict(zip(offsets, coeffs)))
    values = _values(ring, 2, window.extents, 1, seed=n_terms)
    values[0] = ring.size - 1
    plan = TorusStencil(poly.terms, window, ring, values.shape)
    assert plan.dtype == ring.sum_dtype(n_terms)
    _, want = reduce_each_batch(poly, window, values, "torus", ring)
    _, got = stencil(poly.terms, values, window, "torus", ring)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    narrow = plan.apply(values.astype(plan.dtype))
    assert narrow.dtype == plan.dtype and np.array_equal(narrow, want)


@pytest.mark.parametrize(
    "m, n_terms, dtype",
    [
        (2, 255, np.uint8), (2, 256, np.uint16),
        (16, 1, np.uint8), (16, 2, np.uint16), (17, 1, np.uint16),
        (256, 1, np.uint16), (256, 2, np.uint32), (257, 1, np.uint32),
        (65521, 1, np.uint32), (65521, 2, np.int64), (65536, 1, np.uint32), (65536, 2, np.int64),
    ],
)
def test_sum_dtype_is_the_narrowest_holding_the_unreduced_sum(m, n_terms, dtype):
    assert ZmodRing(m).sum_dtype(n_terms) == np.dtype(dtype)


@pytest.mark.parametrize("ring", [r for r in RINGS if r.kind != "zmod"], ids=_ids)
def test_table_rings_sum_in_their_narrowest_code_dtype(ring):
    assert ring.sum_dtype(1) == ring.sum_dtype(64) == ring.sum_dtype(1 << 20) == np.dtype(np.uint8)
    assert make_ring("prod:[zmod:251;zmod:256]").sum_dtype(3) == np.dtype(np.uint16)


def test_weighted_sum_refuses_a_dtype_too_narrow_for_the_sum():
    ring = ZmodRing(17)
    arrays = _values(ring, 2, (4,), 1, seed=2).astype(np.uint8)
    with pytest.raises(InvalidParameterError):
        ring.weighted_sum([1], arrays)
    got = ring.weighted_sum([3, 5], arrays.astype(np.uint16))
    assert got.dtype == np.uint16
    assert np.array_equal(got, generic_weighted_sum(ring, [3, 5], list(arrays)))


@pytest.mark.parametrize(
    "rule_text, torus",
    [
        ("rule ring=zmod:3 rank=1 dims=1,1 H=(0,0):1;(1,1):2", (16, 16)),
        ("rule ring=zmod:5 rank=1 dims=1,1 H=(-1,0):2;(0,1):3", (7, 5)),
        ("rule ring=zmod:2 rank=2 dims=1,0 H=(-1):1;(0):1;(1):1", (9,)),
        ("rule ring=gf:2:2:1,1,1 rank=1 dims=0,1 H=(0):2;(1):3", (13,)),
        ("rule ring=prod:[zmod:2;gf:2:2:1,1,1] rank=1 dims=2,0 H=(0,0):5;(1,0):1;(0,1):7", (4, 3)),
    ],
)
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_frobenius_terms_on_small_tori_match_roll_oracle(rule_text, torus, k):
    # p**k * h is far beyond the extents; the centred residues wrap it back.
    rule = parse_rule(rule_text)
    poly = frobenius_power(rule, k)
    window = WindowSpec(rule.dims, (0,) * len(torus), torus)
    values = _values(rule.ring, 2, torus, rule.module.rank, seed=k)
    _, want = reduce_each_batch(poly, window, values, "torus", rule.ring)
    _, got = stencil(poly.terms, values, window, "torus", rule.ring)
    assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("ring", RINGS + BOUNDARY_RINGS, ids=_ids)
def test_narrow_iteration_equals_int64_oracle_steps(ring):
    window = WindowSpec((1, 1), (0, 0), (5, 4))
    poly = ShiftPolynomial.from_terms(
        ring, (1, 1), dict(zip(((-1, 0), (0, 1), (2, 3)), _coeffs(ring, 3, seed=6)))
    )
    values = _values(ring, 3, window.extents, 2, seed=7)
    want = values
    for _ in range(9):
        _, want = reduce_each_batch(poly, window, want, "torus", ring)
    plan = TorusStencil(poly.terms, window, ring, values.shape)
    got = plan.apply(values, 9)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    narrow = plan.apply(values.astype(plan.dtype), 9)
    assert narrow.dtype == plan.dtype and np.array_equal(narrow, want)
    assert plan.apply(values, 0) is values


@pytest.mark.parametrize("ring", RINGS, ids=_ids)
@pytest.mark.parametrize("rank", [1, 2])
def test_iterate_rule_matches_reduce_each_steps_on_tori(ring, rank):
    module = ModuleSpec(ring, rank)
    rule = LocalRule(module, (1, 1), ((0, 0), (1, 0), (-3, 2)), tuple(_coeffs(ring, 3, seed=rank)))
    window = WindowSpec((1, 1), (-2, 1), (6, 5))
    cfg = WindowConfig(window, module, _values(ring, 1, window.extents, rank, seed=9)[0], "torus")
    want = cfg
    for t in range(6):
        assert iterate_rule(rule, cfg, t) == want
        want = reduce_each_apply(from_rule(rule), want)


def test_iterate_rule_runs_one_plan_on_tori_and_shrinks_exact_windows(monkeypatch):
    from modshift import shiftpoly

    ring = ZmodRing(3)
    module = ModuleSpec(ring)
    rule = LocalRule(module, (1, 0), ((0,), (1,)), (1, 2))
    window = WindowSpec((1, 0), (0,), (12,))
    values = _values(ring, 1, window.extents, 1, seed=3)[0]
    exact = WindowConfig(window, module, values, "exact")
    want_exact = exact
    for _ in range(4):
        want_exact = reduce_each_apply(from_rule(rule), want_exact)
    torus = WindowConfig(window, module, values, "torus")
    want_torus = torus
    for _ in range(27):
        want_torus = reduce_each_apply(from_rule(rule), want_torus)
    calls = []
    real = shiftpoly.apply_poly
    monkeypatch.setattr(shiftpoly, "apply_poly", lambda *a: calls.append(1) or real(*a))
    assert iterate_rule(rule, torus, 27) == want_torus and calls == []
    got = iterate_rule(rule, exact, 4)
    assert got == want_exact and got.window.extents == (8,) and len(calls) == 4


def _torus_callers():
    """Each caller of the torus path on int64 codes: its code array or verdict."""
    ring = ZmodRing(5)
    module = ModuleSpec(ring, 2)
    rule = LocalRule(module, (1, 1), ((-1, 0), (0, 1), (3, 2)), (2, 1, 4))
    poly = from_rule(rule)
    window = WindowSpec((1, 1), (0, 0), (6, 5))
    values = _values(ring, 2, window.extents, 2, seed=1)
    cfg = WindowConfig(window, module, values[0], "torus")
    return {
        "stencil": lambda: stencil(poly.terms, values, window, "torus", ring)[1],
        "plan": lambda: TorusStencil(poly.terms, window, ring, values.shape).apply(values, 3),
        "apply_poly": lambda: apply_poly(poly, cfg).values,
        "iterate_rule": lambda: iterate_rule(rule, cfg, 3).values,
        "frobenius_check": lambda: frobenius_check(rule, 1, window.extents, 2, seed=3)["applied"],
        "conjugacy_check": lambda: conjugacy_check(
            rule, decompose_ring(ring), trials=3, torus_extents=(6, 5)
        ).ok,
    }


@pytest.mark.parametrize("caller", sorted(_torus_callers()))
def test_torus_callers_give_int64_and_never_roll(caller, monkeypatch):
    want = _torus_callers()[caller]()

    def no_roll(*args, **kwargs):
        raise AssertionError("np.roll called on the torus path")

    monkeypatch.setattr(np, "roll", no_roll)
    got = _torus_callers()[caller]()
    if isinstance(want, np.ndarray):
        assert want.dtype == got.dtype == np.int64 and np.array_equal(got, want)
    else:
        assert got is want is True


def test_torus_stencil_keeps_the_dtype_it_is_given():
    ring = ZmodRing(3)
    window = WindowSpec((1, 0), (0,), (10,))
    terms = (((0,), 1), ((4,), 2))
    values = _values(ring, 2, window.extents, 1, seed=4)
    _, want = reduce_each_batch(
        ShiftPolynomial.from_terms(ring, (1, 0), dict(terms)), window, values, "torus", ring
    )
    for dtype in (np.int64, np.uint8, np.uint16, np.int32):
        _, got = stencil(terms, values.astype(dtype), window, "torus", ring)
        assert got.dtype == dtype and np.array_equal(got, want)


# -- exact stencils: the torus mode's dtype rule -----------------------------------------

# Each boundary ring with every unsigned input dtype that holds its largest code.
EXACT_DTYPE_CASES = [
    (ring, dtype)
    for ring in BOUNDARY_RINGS
    for dtype in (np.uint8, np.uint16, np.uint32)
    if np.iinfo(dtype).max >= ring.size - 1
]


@pytest.mark.parametrize(
    "ring, dtype", EXACT_DTYPE_CASES, ids=[f"{_ids(r)}-{np.dtype(d)}" for r, d in EXACT_DTYPE_CASES]
)
@pytest.mark.parametrize("n_terms", [1, 2, 3, 4])
def test_exact_stencil_keeps_narrow_codes_at_the_largest_codes(ring, dtype, n_terms):
    # The zn_clip offsets: the N-axis output origin is clipped from -1 to 0.
    dims, origin, extents, offsets = CASES["zn_clip"]
    window = WindowSpec(dims, origin, extents)
    coeffs = [ring.size - 1] * n_terms  # every term at its largest, (m-1)**2
    poly = ShiftPolynomial.from_terms(ring, dims, dict(zip(offsets[:n_terms], coeffs)))
    values = _values(ring, 3, extents, 2, seed=n_terms)
    values[0] = ring.size - 1
    want_window, want = reduce_each_batch(poly, window, values, "exact", ring)
    assert want_window.origin[1] == 0
    got_window, got = stencil(poly.terms, values.astype(dtype), window, "exact", ring)
    assert got_window == want_window
    assert got.dtype == dtype and np.array_equal(got, want)
    _, wide = stencil(poly.terms, values, window, "exact", ring)
    assert wide.dtype == np.int64 and np.array_equal(wide, want)


@pytest.mark.parametrize("mode", ["exact", "torus"])
def test_stencil_refuses_a_dtype_too_narrow_for_the_codes(mode):
    window = WindowSpec((1, 0), (0,), (6,))
    terms = (((0,), 1), ((1,), 2))
    for ring, dtype in [(ZmodRing(257), np.uint8), (ZmodRing(200), np.int8), (ZmodRing(2), np.bool_)]:
        values = np.zeros((1, 6, 1), dtype=dtype)
        with pytest.raises(InvalidParameterError, match="cannot hold the codes of"):
            stencil(terms, values, window, mode, ring)
    _, out = stencil(terms, np.full((1, 6, 1), 255, dtype=np.uint8), window, mode, ZmodRing(256))
    assert out.dtype == np.uint8 and (out == (3 * 255) % 256).all()


def _exact_callers():
    """Each exact-mode caller of the stencil on int64 codes: (result, reduce-each oracle)."""
    from modshift.measures import CosetHaarMeasure, SubgroupHaarMeasure
    from modshift import bernoulli, point_mass, pushforward, uniform_bernoulli

    ring = ZmodRing(5)
    module = ModuleSpec(ring, 2)
    rule = LocalRule(module, (1, 1), ((-1, 0), (0, 1), (3, 2)), (2, 1, 4))
    poly = from_rule(rule)
    spec = KernelShiftSpec(rule)
    window = WindowSpec((1, 1), (-2, 0), (9, 7))
    values = _values(ring, 3, window.extents, 2, seed=5)
    values[1] = 0
    cfg = WindowConfig(window, module, values[0])
    words = values.reshape(3, -1, 2)
    scalar = ModuleSpec(ring, 1)
    scalar_rule = LocalRule(scalar, (1, 0), ((0,), (1,)), (1, 3))
    line = WindowSpec((1, 0), (0,), (6,))
    # 5**9 words exceed the enumeration cap, so this pushforward is sampled.
    long_line = WindowSpec((1, 0), (0,), (9,))
    biased = bernoulli(scalar, long_line, [Fraction(1, 2)] + [Fraction(1, 8)] * 4, seed=3)
    coset = CosetHaarMeasure(cfg, SubgroupHaarMeasure.full_space(module, window, seed=1))
    return {
        "apply_poly": (
            lambda: apply_poly(poly, cfg).values,
            lambda: reduce_each_apply(poly, cfg).values,
        ),
        "constraint_residual": (
            lambda: constraint_residual(spec, cfg),
            lambda: reduce_each_residual(spec, cfg),
        ),
        "batch_membership": (
            lambda: batch_membership(spec, window, words),
            lambda: reduce_each_membership(spec, window, words),
        ),
        "pushforward_subgroup": (
            lambda: pushforward(uniform_bernoulli(scalar, line, seed=1), scalar_rule, 1).spans[0].basis,
            None,
        ),
        "pushforward_coset": (
            lambda: pushforward(coset, rule, 1).rep.values,
            lambda: reduce_each_apply(poly, cfg).values,
        ),
        "pushforward_words": (
            lambda: pushforward(point_mass(cfg), rule, 1).words[0][0],
            lambda: reduce_each_apply(poly, cfg).values.reshape(-1, 2),
        ),
        "pushforward_sampled": (
            lambda: pushforward(biased, scalar_rule, 1).draw_values(0, 4),
            lambda: reduce_each_batch(
                from_rule(scalar_rule), long_line, biased.draw_values(0, 4).reshape(4, 9, 1), "exact", ring
            )[1].reshape(4, -1, 1),
        ),
    }


@pytest.mark.parametrize("caller", sorted(_exact_callers()))
def test_exact_callers_give_int64(caller, monkeypatch):
    from modshift import kernels, measures, shiftpoly

    seen = []
    for module in (kernels, measures, shiftpoly):
        real = module.stencil

        def spy(terms, values, window, mode, ring, real=real):
            out_window, out = real(terms, values, window, mode, ring)
            seen.append((mode, values.dtype, out.dtype))
            return out_window, out

        monkeypatch.setattr(module, "stencil", spy)
    got_fn, want_fn = _exact_callers()[caller]
    got = got_fn()
    assert seen and all(s == ("exact", np.int64, np.int64) for s in seen)
    if caller == "batch_membership":
        want = want_fn()
        assert want.any() and not want.all() and np.array_equal(got, want)
        return
    assert got.dtype == np.int64
    if want_fn is not None:
        assert np.array_equal(got, want_fn())
