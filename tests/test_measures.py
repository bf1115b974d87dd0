import math
import re
from fractions import Fraction

import numpy as np
import pytest

from modshift import (
    CharacterSpec,
    ConfigParseError,
    InvalidCosetError,
    InvalidParameterError,
    LocalRule,
    MissingTrivialCharacterError,
    ModuleSpec,
    SubgroupHaarMeasure,
    WindowConfig,
    WindowSpec,
    ZmodRing,
    all_characters,
    bernoulli,
    block_entropy,
    constant_config,
    coset_from_cocycle,
    coset_haar,
    fourier,
    fourier_sweep,
    haar_criterion,
    kernel_haar,
    make_ring,
    mixing_statistic,
    point_mass,
    pushforward,
    rigidity_experiment,
    uniform_bernoulli,
    window_kernel,
)
from modshift.kernels import KernelShiftSpec, enumerate_kernel_words
from modshift.measures import CosetHaarMeasure, ExactWordMeasure, default_t_schedule
from modshift.rng import CounterRng
from modshift.shiftpoly import apply_poly, from_rule, parse_rule, poly_pow


# The zeroth-row counting oracle lives in oracles.py: members of the parity
# kernel are the space-time diagrams of the XOR-of-three rule, so pinned-site
# probabilities are 2**-rank of linear forms over the zeroth row.
from oracles import exponent_of_config, zeroth_row_probability


@pytest.fixture(scope="module")
def eta6(cb_system):
    return kernel_haar(cb_system.kernel, cb_system.six_site_window(), seed=11)


def test_uniform_single_site_exact():
    mod = ModuleSpec(ZmodRing(2), 1)
    win = WindowSpec((1, 0), (0,), (1,))
    mu = uniform_bernoulli(mod, win, seed=0)
    assert mu.cylinder_probability({(0,): (0,)}) == Fraction(1, 2)
    assert mu.cylinder_probability({(0,): (1,)}) == Fraction(1, 2)


def test_uniform_two_site_words():
    mod = ModuleSpec(ZmodRing(2), 1)
    win = WindowSpec((1, 0), (0,), (2,))
    mu = uniform_bernoulli(mod, win, seed=0)
    for a in (0, 1):
        for b in (0, 1):
            assert mu.cylinder_probability({(0,): (a,), (1,): (b,)}) == Fraction(1, 4)
    words = dict((vals.tobytes(), p) for vals, p in mu.enumerate_words())
    assert len(words) == 4 and all(p == Fraction(1, 4) for p in words.values())


def test_uniform_empirical_frequency_within_3_stderr():
    mod = ModuleSpec(ZmodRing(2), 1)
    win = WindowSpec((1, 0), (0,), (1,))
    mu = uniform_bernoulli(mod, win, seed=123)
    n = 100_000
    draws = mu.draw_values(0, n)
    freq = float((draws[:, 0, 0] == 0).mean())
    assert abs(freq - 0.5) <= 3.0 * math.sqrt(0.25 / n)


def test_draws_are_pure_functions_of_index():
    mod = ModuleSpec(ZmodRing(6), 1)
    win = WindowSpec((1, 0), (0,), (5,))
    mu = uniform_bernoulli(mod, win, seed=9)
    whole = mu.draw_values(0, 100)
    parts = np.concatenate([mu.draw_values(0, 37), mu.draw_values(37, 63)])
    assert np.array_equal(whole, parts)
    again = uniform_bernoulli(mod, win, seed=9).draw_values(0, 100)
    assert np.array_equal(whole, again)


def test_kernel_haar_point_mass_for_identity_kernel():
    from modshift import KernelShiftSpec

    mod = ModuleSpec(ZmodRing(2), 1)
    ident = KernelShiftSpec(LocalRule(mod, (1, 0), ((0,),), (1,)))
    win = WindowSpec((1, 0), (0,), (4,))
    mu = kernel_haar(ident, win, seed=5)
    assert mu.subgroup_size() == 1
    draws = mu.draw_values(0, 10)
    assert not draws.any()
    assert mu.cylinder_probability({(0,): (0,)}) == 1
    assert mu.cylinder_probability({(0,): (1,)}) == 0


def test_kernel_haar_uniform_over_32(cb_system, eta6):
    w6 = cb_system.six_site_window()
    words = enumerate_kernel_words(window_kernel(cb_system.kernel, w6))
    # every kernel word has exact probability 1/32
    for i in range(words.shape[0]):
        pins = {
            site: tuple(int(v) for v in words[i, j])
            for j, site in enumerate(w6.sites())
        }
        assert eta6.cylinder_probability(pins) == Fraction(1, 32)
    # MC frequencies within 3 sigma of 1/32
    n = 100_000
    draws = eta6.draw_values(0, n)
    keys = {words[i].tobytes(): i for i in range(words.shape[0])}
    counts = np.zeros(32, dtype=np.int64)
    for k in range(n):
        counts[keys[draws[k].tobytes()]] += 1
    p = 1 / 32
    sigma = math.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(counts / n - p) <= 3 * sigma + 1e-12)


def test_kernel_haar_single_site_marginal_uniform(cb_system, eta6):
    for site in cb_system.six_site_window().sites():
        assert eta6.cylinder_probability({site: (0,)}) == Fraction(1, 2)


def test_coset_zero_rep_equals_kernel_haar(cb_system, eta6):
    w6 = cb_system.six_site_window()
    zero = constant_config(cb_system.module, w6, 0)
    mu = coset_haar(zero, cb_system.kernel, seed=11)
    for pins in ({(0, 0): (1,)}, {(1, 0): (0,), (2, 1): (1,)}):
        assert mu.cylinder_probability(pins) == eta6.cylinder_probability(pins)


def test_coset_draws_never_in_kernel(cb_system):
    w6 = cb_system.six_site_window()
    cb = cb_system.checkerboard(w6)
    mu = coset_haar(cb, cb_system.kernel, seed=4)
    draws = mu.draw_values(0, 10_000)
    words = enumerate_kernel_words(window_kernel(cb_system.kernel, w6))
    kernel_keys = {words[i].tobytes() for i in range(words.shape[0])}
    for k in range(10_000):
        assert draws[k].tobytes() not in kernel_keys


def test_coset_requires_valid_representative(cb_system):
    win = cb_system.window(8, 4)
    from modshift.rng import CounterRng

    rng = CounterRng(2, stream=53)
    bad = WindowConfig(win, cb_system.module, rng.uniform_codes(0, win.extents + (1,), 2))
    with pytest.raises(InvalidCosetError):
        coset_haar(bad, cb_system.kernel, seed=0)


def test_pushforward_t0_identity(cb_system, eta6):
    assert pushforward(eta6, cb_system.rule, 0) is eta6


def test_pushforward_uniform_invariant_units():
    for desc, coeffs in [("zmod:2", (1, 1)), ("zmod:3", (1, 2)), ("zmod:6", (1, 5))]:
        from modshift import make_ring

        ring = make_ring(desc)
        mod = ModuleSpec(ring, 1)
        rule = LocalRule(mod, (1, 0), ((0,), (1,)), coeffs)
        src = WindowSpec((1, 0), (0,), (6,))
        tgt = WindowSpec((1, 0), (0,), (3,))
        mu = pushforward(uniform_bernoulli(mod, src, seed=1), rule, 2).marginal(tgt)
        assert mu.same_distribution(SubgroupHaarMeasure.full_space(mod, tgt, seed=1))


def test_pushforward_kernel_haar_matches_enumeration_oracle(cb_system):
    # oracle: enumerate the kernel on the expanded window, push each word
    # through the rule, and aggregate the exact output distribution
    w6 = cb_system.six_site_window()
    big = cb_system.window(6, 4)
    eta_big = kernel_haar(cb_system.kernel, big, seed=7)
    pushed = pushforward(eta_big, cb_system.rule, 1).marginal(w6)

    words = enumerate_kernel_words(window_kernel(cb_system.kernel, big))
    from modshift import apply_poly, from_rule, restrict_config

    poly = from_rule(cb_system.rule)
    agg = {}
    n = words.shape[0]
    for i in range(n):
        cfg = WindowConfig(big, cb_system.module, words[i].reshape(big.extents + (1,)))
        out = restrict_config(apply_poly(poly, cfg), w6)
        agg[out.word_key()] = agg.get(out.word_key(), 0) + 1
    oracle = {k: Fraction(v, n) for k, v in agg.items()}
    enumerated = {
        vals.tobytes(): p for vals, p in pushed.enumerate_words()
    }
    assert enumerated == oracle


def test_coset_pushforward_over_a_field_powers_the_rule_once(cb_system, monkeypatch):
    from modshift import measures
    from modshift.shiftpoly import apply_poly, from_rule, poly_pow_charp

    window = cb_system.window(12, 6)
    mu = coset_haar(cb_system.checkerboard(window), cb_system.kernel, seed=5)
    calls = []

    def counting(f, t):
        calls.append(t)
        return poly_pow_charp(f, t)

    monkeypatch.setattr(measures, "poly_pow_charp", counting)
    pushed = pushforward(mu, cb_system.rule, 4)
    assert calls == [4]
    monkeypatch.undo()
    # The same measure as pushing the subgroup and the representative apart.
    sub = pushforward(mu.subgroup, cb_system.rule, 4)
    assert pushed.window == sub.window and pushed.subgroup.provenance == sub.provenance
    assert [s.ring for s in pushed.subgroup.spans] == [s.ring for s in sub.spans]
    for got, want in zip(pushed.subgroup.spans, sub.spans):
        assert np.array_equal(got.basis, want.basis)
    rep = apply_poly(poly_pow_charp(from_rule(cb_system.rule), 4), mu.rep)
    assert pushed.rep == rep and pushed.rep.values.tobytes() == rep.values.tobytes()


COMPOSITE_RINGS = [("zmod:6", 1), ("zmod:30", 2), ("prod:[zmod:2;zmod:3]", 1)]


def _composite_coset(desc, rank, length):
    """A coset of a three-term kernel over a composite ring, with a seeded representative."""
    ring = make_ring(desc)
    module = ModuleSpec(ring, rank)
    one = ring.one
    spec = KernelShiftSpec(LocalRule(module, (1, 0), ((0,), (1,), (2,)), (one, one, one)))
    win = WindowSpec((1, 0), (0,), (length,))
    codes = CounterRng(1, stream=5).uniform_codes(0, win.extents + (rank,), ring.size)
    rule = LocalRule(module, (1, 0), ((0,), (1,)), (one, one))
    return rule, CosetHaarMeasure(WindowConfig(win, module, codes), kernel_haar(spec, win, seed=3))


@pytest.mark.parametrize("desc,rank", COMPOSITE_RINGS)
def test_composite_coset_pushforward_matches_the_full_ring_image(desc, rank):
    # The Haar path pushes each field component of the representative; the
    # independent side powers the rule over the whole ring.
    schedule = default_t_schedule(make_ring(desc))
    rule, mu = _composite_coset(desc, rank, max(schedule) + 4)
    for t in schedule[1:]:
        pushed = pushforward(mu, rule, t)
        assert isinstance(pushed, CosetHaarMeasure)
        want = apply_poly(poly_pow(from_rule(rule), t), mu.rep)
        assert pushed.rep == want and pushed.window == want.window
        sub = pushforward(mu.subgroup, rule, t)
        assert pushed.subgroup.same_distribution(sub)
        assert (pushed.subgroup.label, pushed.subgroup.provenance) == (sub.label, sub.provenance)
        assert not pushed.subgroup.rep_codes.any()


@pytest.mark.parametrize("desc,rank", COMPOSITE_RINGS)
def test_coset_draws_are_subgroup_draws_plus_the_representative(desc, rank):
    _, mu = _composite_coset(desc, rank, 9)
    ring = mu.module.ring
    for sel in (None, [0], [8, 2, 2]):
        idx = np.arange(9) if sel is None else np.array(sel)
        want = ring.add_arr(mu.subgroup.draw_values(7, 50, sel), mu.rep.flat()[idx])
        assert np.array_equal(mu.draw_values(7, 50, sel), want)


@pytest.mark.parametrize("desc,rank", COMPOSITE_RINGS)
def test_same_distribution_compares_cosets(desc, rank):
    _, mu = _composite_coset(desc, rank, 9)
    ring = mu.module.ring
    word = mu.subgroup.draw(3)
    assert word.values.any()
    moved = WindowConfig(mu.window, mu.module, ring.add_arr(mu.rep.values, word.values))
    other = constant_config(mu.module, mu.window, ring.one)
    assert mu.same_distribution(CosetHaarMeasure(moved, mu.subgroup))
    assert mu.subgroup.same_distribution(CosetHaarMeasure(word, mu.subgroup))
    assert not mu.same_distribution(CosetHaarMeasure(other, mu.subgroup))
    assert not mu.subgroup.same_distribution(CosetHaarMeasure(other, mu.subgroup))
    assert not mu.same_distribution(mu.subgroup) and not mu.subgroup.same_distribution(mu)


def test_coset_of_a_translated_handle_is_refused(cb_system):
    win = cb_system.window(4, 3)
    mu = CosetHaarMeasure(cb_system.checkerboard(win), kernel_haar(cb_system.kernel, win))
    with pytest.raises(InvalidParameterError, match="translated handle, not a subgroup"):
        CosetHaarMeasure(cb_system.checkerboard(win), mu)


def test_fourier_trivial_is_one(cb_system, eta6):
    w6 = cb_system.six_site_window()
    trivial = CharacterSpec.build(cb_system.module, w6, {})
    r = fourier(eta6, trivial)
    assert r.root_sum.is_one() and r.value == 1.0 + 0j


def test_fourier_uniform_single_site_zero():
    mod = ModuleSpec(ZmodRing(6), 1)
    win = WindowSpec((1, 0), (0,), (2,))
    mu = uniform_bernoulli(mod, win, seed=0)
    for u in range(1, 6):
        chi = CharacterSpec.build(mod, win, {(0,): u})
        assert fourier(mu, chi).root_sum.is_zero()


def test_fourier_kernel_site_char_zero_vs_enumeration(cb_system, eta6):
    w6 = cb_system.six_site_window()
    chi = CharacterSpec.build(cb_system.module, w6, {(0, 0): 1})
    r = fourier(eta6, chi)
    assert r.root_sum.is_zero()
    # enumeration oracle
    words = enumerate_kernel_words(window_kernel(cb_system.kernel, w6))
    total = 0
    for i in range(words.shape[0]):
        total += (-1) ** int(words[i, 0, 0])
    assert total == 0


def test_fourier_site_outside_window_raises(cb_system, eta6):
    big = cb_system.window(10, 10)
    chi = CharacterSpec.build(cb_system.module, big, {(9, 9): 1})
    from modshift import OutOfWindowError

    with pytest.raises(OutOfWindowError):
        fourier(eta6, chi)


def test_sampled_fourier_converges_seed_sweep(cb_system):
    # |sampled - exact| <= 4 * stderr in at least 99% of 100 seeds
    w6 = cb_system.six_site_window()
    chi = CharacterSpec.build(cb_system.module, w6, {(0, 0): 1, (1, 0): 1})
    hits = 0
    n = 2000
    for seed in range(100):
        mu = kernel_haar(cb_system.kernel, w6, seed=seed)
        exact = fourier(mu, chi).value
        sampled = fourier(mu, chi, budget=n)
        if abs(sampled.value - exact) <= 4.0 * sampled.stderr:
            hits += 1
    assert hits >= 99


def test_fourier_modulus_bounded_and_trivial_one(cb_system, eta6):
    w6 = cb_system.six_site_window()
    chars = list(all_characters(cb_system.module, w6))
    for mu in (eta6, uniform_bernoulli(cb_system.module, w6, seed=8)):
        for chi in chars:
            exact = fourier(mu, chi)
            assert exact.modulus <= 1.0 + 1e-12
            sampled = fourier(mu, chi, budget=500)
            assert sampled.modulus <= 1.0 + 1e-12
            if chi.is_trivial:
                assert exact.root_sum.is_one()
                assert sampled.value == 1.0 + 0j


def test_rigidity_report_reproducible(cb_system):
    win = cb_system.window(6, 4)
    chars = list(all_characters(cb_system.module, cb_system.window(2, 1)))

    def run():
        mu = uniform_bernoulli(cb_system.module, win, seed=5)
        return rigidity_experiment(
            cb_system.rule, mu, chars, t_schedule=[0, 1, 2], budget="exact"
        ).to_dict()

    assert run() == run()


def test_haar_criterion_sweeps(cb_system, eta6):
    w6 = cb_system.six_site_window()
    chars = list(all_characters(cb_system.module, w6))
    kernel_sweep = [fourier(eta6, chi) for chi in chars]
    assert haar_criterion(kernel_sweep).consistent
    uni = uniform_bernoulli(cb_system.module, w6, seed=1)
    uni_sweep = [fourier(uni, chi) for chi in chars]
    assert haar_criterion(uni_sweep).consistent
    assert uni_sweep[0].root_sum.is_one()
    assert all(r.root_sum.is_zero() for r in uni_sweep[1:])
    with pytest.raises(MissingTrivialCharacterError):
        haar_criterion(kernel_sweep[1:])


def test_haar_criterion_coset_moduli(cb_system):
    w6 = cb_system.six_site_window()
    chars = list(all_characters(cb_system.module, w6))
    mu = coset_haar(cb_system.checkerboard(w6), cb_system.kernel, seed=2)
    sweep = [fourier(mu, chi) for chi in chars]
    assert haar_criterion(sweep, criterion="coset").consistent
    assert not haar_criterion(sweep, criterion="subgroup").consistent
    assert any(
        r.root_sum.modulus_is_one() and not r.root_sum.is_one() for r in sweep
    )


def test_haar_criterion_refuses_an_unknown_criterion(cb_system):
    # A typo was once judged as 'coset' on an exact sweep (consistent here)
    # and as 'subgroup' on sampled results (inconsistent here).
    w6 = cb_system.six_site_window()
    mu = coset_haar(cb_system.checkerboard(w6), cb_system.kernel, seed=2)
    sampled = [fourier(mu, chi, 20000) for chi in all_characters(cb_system.module, w6)]
    for results in (fourier_sweep(mu, w6), sampled):
        assert haar_criterion(results, criterion="coset").consistent
        for typo in ("subgrop", "", "Coset"):
            with pytest.raises(InvalidParameterError, match=f"unknown Haar criterion {typo!r}"):
                haar_criterion(results, criterion=typo)


def test_haar_sweep_step_refuses_an_unknown_criterion_before_sweeping(monkeypatch):
    from modshift import experiment

    def refuse(*args):
        raise AssertionError("the measure was built")

    monkeypatch.setattr(experiment, "_step_measure", refuse)
    text = ("[experiment]\nseed = 1\n\n[step typo]\nkind = haar-sweep\nmeasure = uniform\n"
            "ring = zmod:2\nextents = 2\ncriterion = subgrop\n")
    with pytest.raises(ConfigParseError, match=r"\[step typo\] bad value for 'criterion': 'subgrop'"):
        experiment.run_experiment(experiment.parse_experiment(text))


def test_coset_fourier_is_phase_times_kernel_fourier(cb_system, eta6):
    # factorization of the translate: coefficient of the coset measure equals
    # the character's value at the representative times the kernel coefficient
    from modshift import RootSum

    w6 = cb_system.six_site_window()
    rep = cb_system.checkerboard(w6)
    mu = coset_haar(rep, cb_system.kernel, seed=2)
    for chi in all_characters(cb_system.module, w6):
        lhs = fourier(mu, chi).root_sum
        base = fourier(eta6, chi).root_sum
        phase = RootSum.monomial(base.L, exponent_of_config(chi, rep))
        assert (lhs - phase * base).is_zero()


def test_biased_bernoulli_moduli_strictly_between(cb_system):
    w1 = WindowSpec((1, 1), (0, 0), (1, 1))
    mu = bernoulli(
        cb_system.module, w1, [Fraction(3, 4), Fraction(1, 4)], seed=3
    )
    chi = CharacterSpec.build(cb_system.module, w1, {(0, 0): 1})
    r = fourier(mu, chi)
    assert not r.root_sum.is_zero() and not r.root_sum.is_one()
    assert not r.root_sum.modulus_is_one()
    assert abs(r.value - 0.5) < 1e-12
    verdict = haar_criterion(
        [fourier(mu, CharacterSpec.build(cb_system.module, w1, {})), r]
    )
    assert not verdict.consistent


def test_haar_sweep_composite_ring():
    # kernel Haar over zmod(6): the sweep runs in 6th-root arithmetic and the
    # coefficients still land exactly in {0,1}
    from modshift import KernelShiftSpec, make_ring

    ring = make_ring("zmod:6")
    mod = ModuleSpec(ring, 1)
    spec = KernelShiftSpec(LocalRule(mod, (1, 0), ((0,), (1,)), (1, 5)))
    win = WindowSpec((1, 0), (0,), (3,))
    mu = kernel_haar(spec, win, seed=4)  # kernel = constants, 6 words
    assert mu.subgroup_size() == 6
    sweep = [fourier(mu, chi) for chi in all_characters(mod, win)]
    assert haar_criterion(sweep).consistent
    assert sum(r.root_sum.is_one() for r in sweep) == 36  # annihilator of the diagonal
    # a coset translate keeps moduli in {0,1} but picks up 6th-root phases
    rep = coset_from_cocycle(0, 1, win, mod)
    mu_c = coset_haar(rep, spec, seed=4)
    csweep = [fourier(mu_c, chi) for chi in all_characters(mod, win)]
    assert haar_criterion(csweep, criterion="coset").consistent
    phases = [
        r for r in csweep if r.root_sum.modulus_is_one() and not r.root_sum.is_one()
    ]
    assert phases
    # some phase is a primitive 6th or 3rd root, not just a sign
    assert any(abs(r.value.imag) > 1e-9 for r in phases)


def test_mixing_product_measure_exact_zero():
    mod = ModuleSpec(ZmodRing(2), 1)
    win = WindowSpec((1, 0), (0,), (12,))
    mu = uniform_bernoulli(mod, win, seed=0)
    site = WindowSpec((1, 0), (0,), (1,))
    word = constant_config(mod, site, 0)
    res = mixing_statistic(mu, [((0,), word), ((1,), word)], 5)
    assert res.exact and res.deviation == 0.0
    assert res.observed_fraction == Fraction(1, 4) == res.product_fraction


def test_mixing_refuses_offset_of_wrong_arity(cb_system):
    mu = uniform_bernoulli(cb_system.module, cb_system.window(9, 9), seed=0)
    word = constant_config(cb_system.module, WindowSpec((1, 1), (0, 0), (1, 1)), 0)
    for bad in ((1,), (1, 0, 7)):
        message = rf"offset \({bad[0]},.*has length {len(bad)}, not D\+E = 2"
        with pytest.raises(InvalidParameterError, match=message):
            mixing_statistic(mu, [((0, 0), word), (bad, word)], 1)


def test_mixing_point_mass():
    mod = ModuleSpec(ZmodRing(2), 1)
    win = WindowSpec((1, 0), (0,), (8,))
    pm = point_mass(constant_config(mod, win, 0))
    site = WindowSpec((1, 0), (0,), (1,))
    word = constant_config(mod, site, 0)
    res = mixing_statistic(pm, [((0,), word), ((1,), word)], 3)
    assert res.observed == 1.0 and res.product == 1.0 and res.deviation == 0.0


def test_mixing_kernel_haar_matches_zeroth_row_oracle(cb_system):
    W = WindowSpec((1, 1), (0, 0), (17, 17))
    mu = kernel_haar(cb_system.kernel, W, seed=42)
    site = WindowSpec((1, 1), (0, 0), (1, 1))
    offsets = [(0, 0), (0, 1), (1, 0)]
    for value in (0, 1):
        word = constant_config(cb_system.module, site, value)
        pairs = [(h, word) for h in offsets]
        for n in (1, 2, 3, 4, 8, 16):
            res = mixing_statistic(mu, pairs, n)
            joint_pins = {(n * h[0], n * h[1]): (value,) for h in offsets}
            oracle_joint = zeroth_row_probability(joint_pins)
            oracle_prod = zeroth_row_probability({(0, 0): (value,)}) ** 3
            assert res.observed_fraction == oracle_joint
            assert res.product_fraction == oracle_prod


def test_mixing_multisite_words_match_oracle(cb_system):
    # two-site horizontal words see genuine constraints at small n
    W = WindowSpec((1, 1), (0, 0), (13, 13))
    mu = kernel_haar(cb_system.kernel, W, seed=21)
    wordwin = WindowSpec((1, 1), (0, 0), (2, 1))
    w00 = constant_config(cb_system.module, wordwin, 0)
    vals = np.zeros((2, 1, 1), dtype=np.int64)
    vals[1, 0, 0] = 1
    w01 = WindowConfig(wordwin, cb_system.module, vals)
    pairs = [((0, 0), w00), ((0, 1), w01), ((1, 0), w01)]
    for n in (1, 2, 4):
        res = mixing_statistic(mu, pairs, n)
        joint = {}
        for h, word in pairs:
            for site in word.window.sites():
                joint[(site[0] + n * h[0], site[1] + n * h[1])] = word.value_at(site)
        oracle_joint = zeroth_row_probability(joint)
        prod = Fraction(1)
        for _, word in pairs:
            prod *= zeroth_row_probability(
                {site: word.value_at(site) for site in word.window.sites()}
            )
        assert res.observed_fraction == oracle_joint
        assert res.product_fraction == prod


def test_mixing_deviation_decays_to_zero(cb_system):
    # 2x2-site words correlate at short range (the joint event can even be
    # infeasible) and decorrelate exactly once the translates clear the
    # stencil couplings
    W = WindowSpec((1, 1), (0, 0), (20, 20))
    mu = kernel_haar(cb_system.kernel, W, seed=3)
    ww = WindowSpec((1, 1), (0, 0), (2, 2))
    zero = constant_config(cb_system.module, ww, 0)
    v = np.zeros((2, 2, 1), dtype=np.int64)
    v[0, 1, 0] = 1
    v[1, 0, 0] = 1
    other = WindowConfig(ww, cb_system.module, v)
    pairs = [((0, 0), zero), ((0, 1), other), ((1, 0), other)]
    devs = {}
    for n in (1, 2, 3, 4, 8, 16):
        res = mixing_statistic(mu, pairs, n)
        devs[n] = res
        # cross-check against the zeroth-row oracle
        joint = {}
        feasible = True
        for h, word in pairs:
            for site in word.window.sites():
                key = (site[0] + n * h[0], site[1] + n * h[1])
                val = word.value_at(site)
                if key in joint and joint[key] != val:
                    feasible = False
                joint[key] = val
        oracle = zeroth_row_probability(joint) if feasible else Fraction(0)
        assert res.observed_fraction == oracle
    assert devs[1].deviation != 0.0 and devs[2].deviation != 0.0
    for n in (4, 8, 16):
        assert devs[n].deviation == 0.0
        assert devs[n].observed_fraction == devs[n].product_fraction


def test_mixing_monte_carlo_agrees(cb_system):
    W = WindowSpec((1, 1), (0, 0), (9, 9))
    mu = kernel_haar(cb_system.kernel, W, seed=6)
    site = WindowSpec((1, 1), (0, 0), (1, 1))
    word = constant_config(cb_system.module, site, 0)
    pairs = [(h, word) for h in [(0, 0), (0, 1), (1, 0)]]
    exact = mixing_statistic(mu, pairs, 4)
    mc = mixing_statistic(mu, pairs, 4, budget=100_000)
    assert abs(mc.deviation - exact.deviation) <= 4.0 * mc.stderr


def test_block_entropy_examples():
    mod2 = ModuleSpec(ZmodRing(2), 1)
    win = WindowSpec((1, 0), (0,), (8,))
    mu = uniform_bernoulli(mod2, win, seed=14)
    block = WindowSpec((1, 0), (0,), (2,))
    h = block_entropy(mu, block, n_samples=100_000)
    assert abs(h - 1.0) <= 0.02
    assert block_entropy(mu, block) == 1.0  # exact product path
    pm = point_mass(constant_config(mod2, win, 1))
    assert block_entropy(pm, block) == 0.0
    assert block_entropy(pm, block, n_samples=1000) == 0.0
    mod6 = ModuleSpec(ZmodRing(6), 1)
    mu6 = uniform_bernoulli(mod6, win, seed=15)
    h6 = block_entropy(mu6, block, n_samples=100_000)
    assert abs(h6 - math.log2(6)) <= 0.03


def test_block_entropy_kernel_haar_exact(cb_system, eta6):
    # subgroup marginal entropy: log2 |projection| / sites
    w6 = cb_system.six_site_window()
    h = block_entropy(eta6, w6)
    assert abs(h - 5.0 / 6.0) < 1e-12


def test_rigidity_experiment_uniform_consistent(cb_system):
    win = cb_system.window(6, 4)
    mu = uniform_bernoulli(cb_system.module, win, seed=1)
    sweep_win = cb_system.window(2, 1)
    chars = list(all_characters(cb_system.module, sweep_win))
    report = rigidity_experiment(
        cb_system.rule, mu, chars, t_schedule=[0, 1, 2], budget="exact"
    )
    assert report.classification == "consistent-with-coset-haar"
    assert report.all_units
    nontrivial = [
        row for row in report.fourier_rows if row["chi"] != "trivial"
    ]
    assert all(abs(row["modulus"]) < 1e-9 for row in nontrivial)


def test_rigidity_experiment_coset_consistent(cb_system):
    win = cb_system.window(8, 5)
    mu = coset_haar(cb_system.checkerboard(win), cb_system.kernel, seed=2)
    sweep_win = cb_system.window(2, 2)
    chars = list(all_characters(cb_system.module, sweep_win))
    site = WindowSpec((1, 1), (0, 0), (1, 1))
    word = constant_config(cb_system.module, site, 0)
    pairs = [(h, word) for h in cb_system.rule.offsets]
    report = rigidity_experiment(
        cb_system.rule, mu, chars, t_schedule=[0, 1, 2], n_schedule=[1, 2],
        budget="exact", mixing_pairs=pairs,
    )
    assert report.classification == "consistent-with-coset-haar"
    for row in report.fourier_rows:
        assert min(abs(row["modulus"]), abs(row["modulus"] - 1.0)) < 1e-9


def test_rigidity_experiment_biased_inconsistent(cb_system):
    win = cb_system.window(6, 4)
    mu = bernoulli(cb_system.module, win, [Fraction(3, 4), Fraction(1, 4)], seed=3)
    sweep_win = cb_system.window(2, 1)
    chars = list(all_characters(cb_system.module, sweep_win))
    report = rigidity_experiment(
        cb_system.rule, mu, chars, t_schedule=[0], budget="exact"
    )
    assert report.classification == "inconsistent"
    t0 = [v for v in report.verdicts if v["t"] == 0][0]
    assert not t0["consistent"] and t0["violations"]


def test_rigidity_experiment_sampled_path(cb_system):
    # torus-mode coset measure: pushforwards stay sampled, classification
    # still lands on consistent within 4*stderr
    win = cb_system.window(8, 8)
    rep = cb_system.checkerboard(win, mode="torus")
    sub = kernel_haar(cb_system.kernel, win, seed=9)
    from modshift import CosetHaarMeasure, TransformedMeasure

    coset = CosetHaarMeasure(rep, sub)
    sampled = TransformedMeasure(coset, lambda b: b, win, cb_system.module, "sampled-coset")
    sampled.mode = "torus"
    sweep_win = cb_system.window(2, 1)
    chars = list(all_characters(cb_system.module, sweep_win))
    report = rigidity_experiment(
        cb_system.rule, sampled, chars, t_schedule=[0, 1], budget=20000
    )
    assert report.classification in ("consistent-with-coset-haar", "inconclusive")
    assert all(not row["exact"] for row in report.fourier_rows)
    for row in report.fourier_rows:
        dist = min(abs(row["modulus"]), abs(row["modulus"] - 1.0))
        assert dist <= 4.0 * row["stderr"] + 1e-9


def test_exact_word_measure_validation():
    mod = ModuleSpec(ZmodRing(2), 1)
    win = WindowSpec((1, 0), (0,), (2,))
    vals = np.zeros((2, 1), dtype=np.int64)
    with pytest.raises(InvalidParameterError):
        ExactWordMeasure(mod, win, [(vals, Fraction(1, 2))])


@pytest.mark.parametrize(
    "words, message",
    [
        ([(np.array([[5], [7], [9], [-1]]), 1)], "word 0 is not 4 integer codes in [0,3)"),
        ([(np.zeros((4, 1), dtype=np.int64), Fraction(1, 2)),
          (np.zeros((2, 1), dtype=np.int64), Fraction(1, 2))],
         "word 1 is not 4 integer codes in [0,3)"),
        ([(np.full((4, 1), 0.5), 1)], "word 0 is not 4 integer codes"),
        ([(np.zeros((4, 1), dtype=np.int64), 2), (np.ones((4, 1), dtype=np.int64), -1)],
         "word 1 has negative probability -1"),
    ],
)
def test_exact_word_measure_refuses_bad_words(words, message):
    mod = ModuleSpec(ZmodRing(3), 1)
    win = WindowSpec((1, 0), (0,), (4,))
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        ExactWordMeasure(mod, win, words)


def test_exact_word_measure_reads_words_as_sites_by_rank():
    mod = ModuleSpec(ZmodRing(3), 2)
    win = WindowSpec((1, 0), (0,), (3,))
    word = np.arange(6) % 3
    mu = ExactWordMeasure(mod, win, [(word, 1)])
    assert mu.words[0][0].shape == (3, 2)
    assert mu.draw_values(0, 2).tolist() == [word.reshape(3, 2).tolist()] * 2


# -- sample counts below one ---------------------------------------------------------


@pytest.fixture
def sampled_case(cb_system):
    win = cb_system.window(4, 4)
    return cb_system.module, win, uniform_bernoulli(cb_system.module, win, seed=1)


@pytest.mark.parametrize("count", [0, -5])
def test_fourier_sample_budget_below_one(sampled_case, count):
    module, win, mu = sampled_case
    chi = CharacterSpec.build(module, win, {(0, 0): 1})
    with pytest.raises(InvalidParameterError, match=f"sample budget must be >= 1, got {count}"):
        fourier(mu, chi, count)


@pytest.mark.parametrize("count", [0, -5])
def test_mixing_sample_budget_below_one(sampled_case, count):
    module, win, mu = sampled_case
    word = constant_config(module, WindowSpec((1, 1), (0, 0), (1, 1)), 0)
    with pytest.raises(InvalidParameterError, match=f"sample budget must be >= 1, got {count}"):
        mixing_statistic(mu, [((0, 1), word)], 1, budget=count)


@pytest.mark.parametrize("count", [0, -5])
def test_block_entropy_sample_count_below_one(sampled_case, count):
    module, win, mu = sampled_case
    with pytest.raises(InvalidParameterError, match=f"n_samples must be >= 1, got {count}"):
        block_entropy(mu, WindowSpec((1, 1), (0, 0), (2, 2)), n_samples=count)


# n_samples=None asks block_entropy for the exact entropy.
@pytest.mark.parametrize("call,budget", [
    (call, budget) for call in ("fourier", "mixing", "entropy")
    for budget in ("exac", None, 2.5, np.float64(3.0), "3", Fraction(4))
    if call != "entropy" or budget is not None
])
def test_sample_budgets_must_be_integers(sampled_case, call, budget):
    module, win, mu = sampled_case
    chi = CharacterSpec.build(module, win, {(0, 0): 1})
    word = constant_config(module, WindowSpec((1, 1), (0, 0), (1, 1)), 0)
    name = "n_samples" if call == "entropy" else "sample budget"
    with pytest.raises(InvalidParameterError, match=re.escape(f"{name} must be an integer, got {budget!r}")):
        if call == "fourier":
            fourier(mu, chi, budget)
        elif call == "mixing":
            mixing_statistic(mu, [((0, 1), word)], 1, budget=budget)
        else:
            block_entropy(mu, WindowSpec((1, 1), (0, 0), (2, 2)), n_samples=budget)


def test_numpy_integer_sample_budgets_are_counts(sampled_case):
    module, win, mu = sampled_case
    chi = CharacterSpec.build(module, win, {(0, 0): 1})
    assert fourier(mu, chi, np.int64(3)) == fourier(mu, chi, 3)
    block = WindowSpec((1, 1), (0, 0), (2, 2))
    assert block_entropy(mu, block, n_samples=np.int32(40)) == block_entropy(mu, block, n_samples=40)


def test_experiment_step_with_zero_samples():
    from modshift.experiment import parse_experiment, run_experiment

    text = (
        "[experiment]\nseed = 1\n\n[step blocks]\nkind = entropy\nring = zmod:2\n"
        "extents = 4\nblock-extents = 2\nsamples = 0\nexpected = 1\n"
    )
    with pytest.raises(InvalidParameterError, match="n_samples must be >= 1, got 0"):
        run_experiment(parse_experiment(text))


def _z3_line_handles():
    """One handle of each exact kind on 4 sites of zmod:3."""
    mod = ModuleSpec(ZmodRing(3), 1)
    win = WindowSpec((1, 0), (0,), (4,))
    spec = KernelShiftSpec(parse_rule("kernel ring=zmod:3 rank=1 dims=1,0 H=(0):1;(1):1", "kernel"))
    rep = WindowConfig(win, mod, np.array([[1], [0], [2], [1]], dtype=np.int64))
    return {
        "bernoulli": bernoulli(mod, win, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]),
        "subgroup": kernel_haar(spec, win),
        "words": ExactWordMeasure(mod, win, [(rep.flat(), Fraction(2, 3)),
                                             (constant_config(mod, win, 2).flat(), Fraction(1, 3))]),
        "coset": CosetHaarMeasure(rep, kernel_haar(spec, win)),
    }


@pytest.mark.parametrize("kind", ["bernoulli", "subgroup", "words", "coset"])
@pytest.mark.parametrize("value", [(-1,), (5,), (2, 7), ()], ids=repr)
def test_malformed_pin_values_are_refused_by_every_handle(kind, value):
    mu = _z3_line_handles()[kind]
    with pytest.raises(InvalidParameterError, match=r"pin at site \(0,\)"):
        mu.cylinder_probability({(0,): value})
    with pytest.raises(InvalidParameterError, match=r"pin at site \(2,\)"):
        mu.cylinder_probability({(1,): (0,), (2,): value})


@pytest.mark.parametrize("kind", ["bernoulli", "subgroup", "words", "coset"])
def test_valid_pins_match_word_enumeration(kind):
    mu = _z3_line_handles()[kind]
    words = list(mu.enumerate_words())
    for pins in [{}, {(0,): (1,)}, {(3,): (2,), (1,): (0,)}, {(0,): (2,), (1,): (1,), (2,): (2,)}]:
        want = sum(
            (p for vals, p in words if all(tuple(vals[s[0]]) == v for s, v in pins.items())),
            start=Fraction(0),
        )
        assert mu.cylinder_probability(pins) == want
    with pytest.raises(InvalidParameterError, match=r"site \(1, 0\)"):
        mu.cylinder_probability({(1, 0): (0,)})


def test_valid_pins_keep_their_fractions():
    got = {k: mu.cylinder_probability({(0,): (1,)}) for k, mu in _z3_line_handles().items()}
    assert got == {"bernoulli": Fraction(1, 3), "subgroup": Fraction(1, 3),
                   "words": Fraction(2, 3), "coset": Fraction(1, 3)}
