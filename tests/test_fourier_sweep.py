"""Differential tests of the single Fourier engine and the fast draw paths.

Every fast path is compared bit for bit with the code it replaces.  The one
exact Fourier engine (`measures._coefficients`) answers `fourier`,
`fourier_sweep` and `rigidity_experiment`; each is checked against the
per-character oracle `oracles.per_character_fourier` (the original
per-handle methods) for rows, coefficients, verdicts, reports and error
messages.  Column-selected draws are checked against full draws sliced, and
the int64 row keys against `np.unique(axis=0)`.
"""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modshift.measures as measures
from modshift import (
    CharacterSpec,
    ConfigParseError,
    CosetHaarMeasure,
    InvalidParameterError,
    KernelShiftSpec,
    LocalRule,
    MixedRadix,
    ModuleSpec,
    OutOfWindowError,
    ResourceLimitError,
    SubgroupHaarMeasure,
    UnsupportedCharacteristicError,
    WindowConfig,
    WindowSpec,
    all_characters,
    bernoulli,
    block_entropy,
    checkerboard_config,
    coset_haar,
    fourier,
    fourier_sweep,
    haar_criterion,
    kernel_haar,
    make_ring,
    point_mass,
    pushforward,
    rigidity_experiment,
    uniform_bernoulli,
)
from modshift.chars import LabelBuffer, character_codes, format_character, sweep_labels
from modshift.crt import _verify_bijection, decompose_ring, field_decomposition
from modshift.experiment import parse_experiment, run_experiment
from modshift.measures import ExactWordMeasure, TransformedMeasure
from modshift.rng import CounterRng
from oracles import (bernoulli_class_root_sums, character_labels, per_character_fourier,
                     per_character_rigidity, per_result_haar_criterion)


def _win(extents, origin=None):
    origin = origin or (0,) * len(extents)
    dims = (len(extents), 0) if len(extents) == 1 else (1, len(extents) - 1)
    return WindowSpec(dims, tuple(origin), tuple(extents))


def _dump(obj):
    # repr of a float round-trips exactly and tells -0.0 from 0.0.
    return json.dumps(obj, sort_keys=True)


def _check_sweep(mu, window, criteria=("subgroup", "coset")):
    """Sweep and per-character oracle agree on every row, coefficient and verdict."""
    results = [per_character_fourier(mu, chi) for chi in all_characters(mu.module, window)]
    sweep = fourier_sweep(mu, window)
    assert len(sweep) == len(results)
    assert _dump(sweep.rows(t=0)) == _dump([r.row(t=0) for r in results])
    for i, r in enumerate(results):
        assert sweep.root_sums[sweep.class_ids[i]].weights == r.root_sum.weights
    verdicts = {}
    for criterion in criteria:
        want = per_result_haar_criterion(results, criterion=criterion).to_dict()
        got = haar_criterion(sweep, criterion=criterion).to_dict()
        assert _dump(got) == _dump(want)
        verdicts[criterion] = got
    return sweep, verdicts


# -- cases -------------------------------------------------------------------


def _parity_kernel():
    mod = ModuleSpec(make_ring("zmod:2"), 1)
    rule = LocalRule(mod, (1, 1), ((-1, 0), (0, 0), (1, 0), (0, 1)), (1, 1, 1, 1))
    return KernelShiftSpec(rule)


def _rank2_subgroup(ring_text):
    """A Haar measure on a 2-dimensional subgroup of (R^2)^3 (R a field)."""
    ring = make_ring(ring_text)
    mod = ModuleSpec(ring, 2)
    win = _win((3,))
    rows = np.array([[1, 0, 1, 1, 0, 2], [0, 1, 2, 0, 1, 1]], dtype=np.int64) % ring.size
    span = measures._FieldSpan(ring, measures._echelonize(ring, rows, 6))
    return SubgroupHaarMeasure(mod, win, [span], seed=3)


def test_kernel_haar_zmod2(cb_system):
    mu = kernel_haar(cb_system.kernel, cb_system.six_site_window(), seed=1)
    _, verdicts = _check_sweep(mu, mu.window)
    assert verdicts["subgroup"]["consistent"]


def test_kernel_haar_partial_sweep_window():
    spec = _parity_kernel()
    mu = kernel_haar(spec, WindowSpec((1, 1), (0, 0), (4, 3)), seed=2)
    _check_sweep(mu, WindowSpec((1, 1), (1, 0), (3, 2)))


def test_coset_haar_nonunit_phase(cb_system):
    window = cb_system.six_site_window()
    rep = checkerboard_config(cb_system.module, window)
    mu = coset_haar(rep, cb_system.kernel, seed=1)
    sweep, verdicts = _check_sweep(mu, window)
    assert verdicts["coset"]["consistent"]
    assert not verdicts["subgroup"]["consistent"]  # phases of -1
    assert verdicts["subgroup"]["violations"]
    assert any(rs.modulus_is_one() and not rs.is_one() for rs in sweep.root_sums)


def test_uniform_bernoulli_zmod3():
    mu = uniform_bernoulli(ModuleSpec(make_ring("zmod:3"), 1), _win((5,)), seed=0)
    sweep, verdicts = _check_sweep(mu, mu.window)
    assert verdicts["subgroup"]["consistent"]
    assert len(sweep.root_sums) < len(sweep)  # one coefficient per multiset


def test_biased_bernoulli_inconsistent():
    mod = ModuleSpec(make_ring("zmod:3"), 1)
    mu = bernoulli(mod, _win((4,)), [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    _, verdicts = _check_sweep(mu, mu.window)
    assert not verdicts["subgroup"]["consistent"]
    assert not verdicts["coset"]["consistent"]


def test_gf4_bernoulli_and_haar():
    ring = make_ring("gf:2:2:1,1,1")
    mod = ModuleSpec(ring, 1)
    _check_sweep(uniform_bernoulli(mod, _win((3,))), _win((3,)))
    _check_sweep(bernoulli(mod, _win((2,)), [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]), _win((2,)))
    spec = KernelShiftSpec(LocalRule(mod, (1, 0), ((0,), (1,)), (1, 2)))
    mu = kernel_haar(spec, _win((3,)), seed=5)
    sweep, verdicts = _check_sweep(mu, mu.window)
    assert verdicts["subgroup"]["consistent"]
    # |annihilator| = |dual| / |subgroup| = 4**3 / 4
    assert sum(sweep.root_sums[k].is_one() for k in sweep.class_ids) == 16


def test_zmod6_crt_kernel_and_coset():
    from modshift import coset_from_cocycle

    mod = ModuleSpec(make_ring("zmod:6"), 1)
    spec = KernelShiftSpec(LocalRule(mod, (1, 0), ((0,), (1,)), (1, 5)))
    win = _win((3,))
    _check_sweep(kernel_haar(spec, win, seed=4), win)
    rep = coset_from_cocycle(0, 1, win, mod)
    _, verdicts = _check_sweep(coset_haar(rep, spec, seed=4), win)
    assert verdicts["coset"]["consistent"]


@pytest.mark.parametrize("ring_text", ["zmod:3", "gf:2:2:1,1,1"])
def test_rank2_subgroup_and_coset(ring_text):
    mu = _rank2_subgroup(ring_text)
    _check_sweep(mu, mu.window)
    vals = (np.arange(6, dtype=np.int64).reshape(3, 2) * 5 + 1) % mu.module.ring.size
    rep = WindowConfig(mu.window, mu.module, vals, "exact")
    _check_sweep(CosetHaarMeasure(rep, mu), mu.window)


def test_product_ring_full_space():
    mod = ModuleSpec(make_ring("prod:[zmod:2;zmod:3]"), 1)
    win = _win((3,))
    _check_sweep(SubgroupHaarMeasure.full_space(mod, win), win)
    _check_sweep(uniform_bernoulli(mod, win), win)


def test_exact_word_measure_fallback(cb_system):
    window = cb_system.six_site_window()
    pm = point_mass(checkerboard_config(cb_system.module, window))
    assert isinstance(pm, ExactWordMeasure)
    _, verdicts = _check_sweep(pm, window)
    assert verdicts["coset"]["consistent"]


def test_exact_word_measure_sweep():
    # Unequal weights on repeated and distinct words, rank 2 over a CRT ring.
    mod = ModuleSpec(make_ring("zmod:6"), 2)
    win = _win((2,))
    vals = CounterRng(4, stream=9).uniform_codes(0, (7, 2, 2), 6)
    probs = [Fraction(k, 28) for k in range(1, 8)]
    mu = ExactWordMeasure(mod, win, [(vals[i % 5], p) for i, p in enumerate(probs)])
    _check_sweep(mu, win)
    _check_sweep(mu, _win((1,), (1,)))
    gf4 = ModuleSpec(make_ring("gf:2:2:1,1,1"), 1)
    spec = KernelShiftSpec(LocalRule(gf4, (1, 0), ((0,), (1,)), (1, 2)))
    kern = kernel_haar(spec, _win((3,)), seed=5)
    _check_sweep(ExactWordMeasure(gf4, kern.window, kern.enumerate_words()), kern.window)


def test_word_sweep_chunks_agree(monkeypatch):
    mod = ModuleSpec(make_ring("zmod:3"), 1)
    win = _win((4,))
    vals = CounterRng(5, stream=9).uniform_codes(0, (2, 4, 1), 3)
    mu = ExactWordMeasure(mod, win, [(vals[0], Fraction(1, 3)), (vals[1], Fraction(2, 3))])
    whole = fourier_sweep(mu, win)
    monkeypatch.setattr(measures, "_SWEEP_CHUNK_CELLS", 20)
    chunked = fourier_sweep(mu, win)
    assert len(chunked.root_sums) > len(whole.root_sums)  # classes are per chunk
    assert _dump(whole.rows()) == _dump(chunked.rows())


def test_sweep_chunks_agree(monkeypatch):
    spec = _parity_kernel()
    mu = kernel_haar(spec, WindowSpec((1, 1), (0, 0), (3, 3)), seed=2)
    whole = fourier_sweep(mu, mu.window)
    monkeypatch.setattr(measures, "_SWEEP_CHUNK_CELLS", 7)
    chunked = fourier_sweep(mu, mu.window)
    assert np.array_equal(whole.class_ids, chunked.class_ids)
    assert _dump(whole.rows()) == _dump(chunked.rows())


def _outcome(call):
    """The exception type and message a call raises, or the weights it returns."""
    try:
        return call().root_sum.weights
    except Exception as exc:
        return type(exc), str(exc)


def test_sweep_errors_match_per_character_path(cb_system):
    mu = kernel_haar(cb_system.kernel, cb_system.six_site_window(), seed=1)
    window = mu.window
    wide = WindowSpec((1, 1), (0, 0), (4, 2))
    with pytest.raises(ResourceLimitError):
        fourier_sweep(mu, window, limit=10)
    handles = [
        mu,
        coset_haar(checkerboard_config(cb_system.module, window), cb_system.kernel, seed=1),
        bernoulli(cb_system.module, window, [Fraction(1, 3), Fraction(2, 3)]),
        point_mass(checkerboard_config(cb_system.module, window)),
        TransformedMeasure(mu, lambda x: x, window, mu.module, "sampled"),
    ]
    for handle in handles:
        chars = list(all_characters(handle.module, wide))
        # The sweep fails as the per-character oracle does on its first
        # failing character: the trivial one for a sampled handle, before any
        # site is looked at; for an exact one, the first that leaves the window.
        outcomes = [_outcome(lambda: per_character_fourier(handle, chi)) for chi in chars]
        with pytest.raises(OutOfWindowError if handle.is_exact else measures.InvalidParameterError) as got:
            fourier_sweep(handle, wide)
        assert (type(got.value), str(got.value)) == next(o for o in outcomes if isinstance(o, tuple))
        for chi, want in zip(chars, outcomes):
            assert _outcome(lambda: fourier(handle, chi)) == want


def test_sweep_verdict_demands_trivial_coefficient_one():
    # No probability measure breaks this; a hand-built sweep checks the guard.
    from modshift import FourierResult, FourierSweep, RootSum

    mod = ModuleSpec(make_ring("zmod:2"), 1)
    win = _win((2,))
    chars = list(all_characters(mod, win))
    coefs = [RootSum.zero(2)] * len(chars)
    results = [FourierResult(chi, rs.to_complex(), 0.0, root_sum=rs) for chi, rs in zip(chars, coefs)]
    sweep = FourierSweep(mod, win, character_codes(mod, win), np.zeros(len(chars), dtype=np.int64), (coefs[0],))
    want = per_result_haar_criterion(results).to_dict()
    assert not want["consistent"] and len(want["violations"]) == 1
    assert _dump(haar_criterion(sweep).to_dict()) == _dump(want)


def test_sweep_verdict_builds_one_table(monkeypatch):
    from modshift import FourierSweep

    mod = ModuleSpec(make_ring("zmod:2"), 1)
    win = _win((6,))
    sweep = fourier_sweep(bernoulli(mod, win, [Fraction(1, 3), Fraction(2, 3)]), win)
    want = [sweep.row(i) for i in range(1, len(sweep))]  # every nontrivial coefficient is 3**-k
    calls = []
    original = FourierSweep.table
    monkeypatch.setattr(FourierSweep, "table", lambda self, **extra: calls.append(1) or original(self, **extra))
    verdict = haar_criterion(sweep)
    assert len(calls) == 1
    assert list(verdict.violations) == want and len(want) == 63
    calls.clear()
    assert haar_criterion(fourier_sweep(uniform_bernoulli(mod, win), win)).consistent
    assert not calls


# Coefficients on both sides of the verdict's tests: exactly 0, 1 or a phase,
# an arbitrary rational root sum; sampled values at, near and far from 0 and 1.
_VERDICT_CHARS = list(all_characters(ModuleSpec(make_ring("zmod:3"), 1), _win((2,))))
_SAMPLED_PARTS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 3e-10, 1 - 3e-10, 0.97, 0.02]),
                           st.floats(-1.5, 1.5))


@st.composite
def _verdict_class(draw):
    from modshift import FourierResult, RootSum

    L = draw(st.sampled_from([2, 3, 6]))
    kind = draw(st.sampled_from(["zero", "one", "phase", "weights", "sampled"]))
    if kind == "sampled":
        value = complex(draw(_SAMPLED_PARTS), draw(st.sampled_from([0.0, 1e-10, 0.3, -0.02])))
        return FourierResult(None, value, draw(st.sampled_from([0.0, 1e-4, 0.01, 0.25])))
    if kind == "weights":
        rs = RootSum(L, [Fraction(draw(st.integers(-2, 4)), 4) for _ in range(L)])
    elif kind == "phase":
        rs = RootSum.monomial(L, draw(st.integers(1, L - 1)))
    else:
        rs = RootSum.zero(L) if kind == "zero" else RootSum.one(L)
    return FourierResult(None, rs.to_complex(), 0.0, rs)


def _outcome_of(call):
    try:
        return _dump(call().to_dict())
    except Exception as exc:
        return type(exc), str(exc)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(st.lists(_verdict_class(), min_size=1, max_size=4), st.data(),
       st.sampled_from(["subgroup", "coset"]), st.booleans(), st.sampled_from([1e-9, 0.05]))
def test_class_verdict_matches_per_result_oracle(classes, data, criterion, with_trivial, tol):
    # Row i holds character i (row 0 the trivial one) or, without the trivial
    # row, character i + 1; rows share classes as a sweep's characters do.
    n_rows = data.draw(st.integers(1, len(_VERDICT_CHARS) - 1))
    ids = np.array(data.draw(st.lists(st.integers(0, len(classes) - 1),
                                      min_size=n_rows, max_size=n_rows)))
    chars = _VERDICT_CHARS[0 if with_trivial else 1:][:n_rows]
    results = [dataclasses.replace(classes[k], chi=chi) for chi, k in zip(chars, ids)]
    want = _outcome_of(lambda: per_result_haar_criterion(results, criterion, tol))
    assert _outcome_of(lambda: haar_criterion(results, criterion, tol)) == want
    table = measures.FourierTable([format_character(chi) for chi in chars], ids,
                                  [c._template() for c in classes], {"t": 3})
    trivial = [0] if with_trivial else []
    got = _outcome_of(lambda: measures._haar_verdict(classes, ids, trivial, criterion, tol, lambda: table))
    assert got == want


def test_character_codes_and_labels_follow_all_characters():
    mod = ModuleSpec(make_ring("zmod:3"), 2)
    win = WindowSpec((1, 1), (-1, 2), (2, 1))
    chars = list(all_characters(mod, win))
    codes = character_codes(mod, win)
    assert codes.shape == (len(chars), 4) and codes.dtype == np.uint8
    sites = list(win.sites())
    for chi, row in zip(chars, codes):
        duals = {s: tuple(int(x) for x in row[2 * i:2 * i + 2]) for i, s in enumerate(sites)}
        assert dict(chi.duals) == {s: d for s, d in duals.items() if any(d)}
    assert character_labels(mod, win) == [format_character(chi) for chi in chars]


def _labels_of(buffer):
    return [buffer[i] for i in range(len(buffer))]


@pytest.mark.parametrize("ring,rank,extents,origin", [
    ("zmod:2", 1, (6,), (0,)),
    ("zmod:2", 1, (1,), (-7,)),
    ("zmod:3", 1, (7,), (-3,)),
    ("zmod:2", 1, (4, 3), (-2, 1)),
    ("zmod:2", 1, (3, 2, 2), (-11, 0, 4)),
    ("zmod:3", 2, (2, 1), (-1, 2)),
    ("zmod:5", 2, (3,), (-120,)),
    ("zmod:210", 1, (2,), (-3,)),
    ("zmod:210", 1, (1, 2), (10, 0)),
    ("gf:2:2:1,1,1", 1, (3, 2), (-4, 5)),
    ("gf:2:2:1,1,1", 2, (2,), (0,)),
])
def test_sweep_labels_match_the_label_list(ring, rank, extents, origin):
    mod = ModuleSpec(make_ring(ring), rank)
    dims = (len(extents), 0) if len(extents) == 1 else (1, len(extents) - 1)
    win = WindowSpec(dims, origin, extents)
    labels = sweep_labels(mod, win)
    want = character_labels(mod, win)
    assert _labels_of(labels) == want
    assert want == [format_character(chi) for chi in all_characters(mod, win)]


def test_label_buffer_indexes_and_takes_like_a_list():
    texts = ["trivial", 'a"b\\c', "x,\r", "é,\n", "\ud800", "", "(0,1):1", "tab\there"]
    labels = LabelBuffer.encode(texts)
    assert len(labels) == len(texts) and _labels_of(labels) == texts
    assert [labels[i] for i in range(-len(texts), 0)] == texts
    assert labels[np.int64(2)] == texts[2]
    for bad in (len(texts), -len(texts) - 1):
        with pytest.raises(IndexError):
            labels[bad]
    rows = np.array([6, 0, 6, 3])
    taken = labels.take(rows)
    assert _labels_of(taken) == [texts[i] for i in rows] and taken.data is labels.data
    empty = LabelBuffer.encode([])
    assert len(empty) == 0 and _labels_of(empty) == []


def _biased(ring, extents, seed):
    mod = ModuleSpec(make_ring(ring), 1)
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 5, mod.size)
    weights[rng.integers(mod.size)] += 1  # not all zero
    probs = [Fraction(int(w), int(weights.sum())) for w in weights]
    return bernoulli(mod, _win(extents), probs)


@pytest.mark.parametrize("ring,extents", [
    ("zmod:2", (8,)), ("zmod:3", (6,)), ("gf:2:2:1,1,1", (5,)), ("zmod:6", (4,)),
    ("zmod:6", (2, 2)), ("zmod:3", (1, 3)),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bernoulli_root_sums_match_the_class_product_loop(ring, extents, seed):
    mu = _biased(ring, extents, seed)
    sites = list(mu.window.sites())
    codes = character_codes(mu.module, mu.window)
    want_ids, want = bernoulli_class_root_sums(mu, sites, codes)
    got_ids, got = measures._coefficients(mu, sites, codes)
    assert (got_ids == want_ids).all()
    assert [rs.weights for rs in got] == [rs.weights for rs in want]
    assert all(type(w) is Fraction for rs in got for w in rs.weights)
    # A character list whose classes skip prefixes the sweep would have built.
    rows = np.random.default_rng(seed).permutation(codes.shape[0])[:25]
    want_ids, want = bernoulli_class_root_sums(mu, sites, codes[rows])
    got_ids, got = measures._coefficients(mu, sites, codes[rows])
    assert (got_ids == want_ids).all()
    assert [rs.weights for rs in got] == [rs.weights for rs in want]


# -- merged generators over GF(p**k) -----------------------------------------------


def test_gf4_subgroup_fourier_matches_enumeration():
    # A span over GF(4) is closed under multiplication by x, so a character
    # trivial on the basis rows alone need not annihilate the subgroup.
    ring = make_ring("gf:2:2:1,1,1")
    mod = ModuleSpec(ring, 1)
    win = _win((2,))
    spec = KernelShiftSpec(LocalRule(mod, (1, 0), ((0,), (1,)), (1, 2)))
    for mu in (SubgroupHaarMeasure.full_space(mod, win), kernel_haar(spec, _win((3,)))):
        words = ExactWordMeasure(mu.module, mu.window, mu.enumerate_words())
        for chi in all_characters(mu.module, mu.window):
            structural = fourier(mu, chi).root_sum
            enumerated = fourier(words, chi).root_sum
            assert (structural - enumerated).is_zero()
    one_site = SubgroupHaarMeasure.full_space(mod, _win((1,)))
    values = [fourier(one_site, chi).root_sum for chi in all_characters(mod, _win((1,)))]
    assert values[0].is_one() and all(v.is_zero() for v in values[1:])


# -- column-selected draws ---------------------------------------------------------


def _full_draw_reference(mu, start, count):
    """Every window column, as draws were computed before column selection."""
    comp = []
    for si, span in enumerate(mu.spans):
        nb = span.dim
        if not nb:
            comp.append(np.zeros((count, span.basis.shape[1]), dtype=np.int64))
            continue
        coefs = CounterRng(mu.seed, stream=31 + si).uniform_codes(start * nb, (count, nb), span.ring.size)
        flat = np.zeros((count, span.basis.shape[1]), dtype=np.int64)
        for i in range(nb):
            flat = span.ring.add_arr(flat, span.ring.mul_arr(coefs[:, i][:, None], span.basis[i][None, :]))
        comp.append(flat)
    merged = mu.decomposition.merge_arrays(comp)
    return merged.reshape(count, mu.window.n_sites, mu.module.rank)


def _draw_cases(cb_system):
    window = cb_system.six_site_window()
    kern = kernel_haar(cb_system.kernel, window, seed=7)
    coset = coset_haar(checkerboard_config(cb_system.module, window), cb_system.kernel, seed=7)
    z6 = ModuleSpec(make_ring("zmod:6"), 1)
    z6_spec = KernelShiftSpec(LocalRule(z6, (1, 0), ((0,), (1,), (2,)), (1, 5, 1)))
    gf4 = ModuleSpec(make_ring("gf:2:2:1,1,1"), 1)
    gf4_spec = KernelShiftSpec(LocalRule(gf4, (1, 0), ((0,), (1,), (2,)), (1, 2, 3)))
    return [
        kern,
        coset,
        kernel_haar(z6_spec, _win((7,)), seed=7),
        kernel_haar(gf4_spec, _win((7,)), seed=7),
        _rank2_subgroup("zmod:3"),
        SubgroupHaarMeasure(  # the trivial subgroup: no basis rows at all
            ModuleSpec(make_ring("zmod:3"), 1), _win((4,)),
            [measures._FieldSpan(make_ring("zmod:3"), np.zeros((0, 4), dtype=np.int64))],
        ),
    ]


def test_selected_draws_equal_full_draws_sliced(cb_system):
    for mu in _draw_cases(cb_system):
        n = mu.window.n_sites
        full = mu.draw_values(5, 300)
        sub = mu.subgroup if isinstance(mu, CosetHaarMeasure) else mu
        if not isinstance(mu, CosetHaarMeasure):
            assert np.array_equal(full, _full_draw_reference(sub, 5, 300))
        for sel in ([0], [n - 1, 0], [1, 1, n - 2], list(range(n))):
            got = mu.draw_values(5, 300, sel)
            assert got.dtype == full.dtype
            assert np.array_equal(got, full[:, sel, :])


# -- 1-D entropy keys ------------------------------------------------------------


def _entropy_reference(mu, block, n):
    sel = [mu.window.index_of(s) for s in block.sites()]
    flat = mu.draw_values(0, n, sel).reshape(n, -1)
    _, counts = np.unique(flat, axis=0, return_counts=True)
    freqs = counts.astype(np.float64) / float(n)
    return float(-(freqs * np.log2(freqs)).sum()) / len(sel)


@pytest.mark.parametrize(
    "ring_text,extents,block",
    [
        ("zmod:2", (16,), (8,)),  # key path
        ("zmod:3", (6,), (4,)),  # key path, odd base
        ("zmod:65521", (4,), (3,)),  # key path, 65521**3 < 2**62
        ("zmod:65521", (5,), (4,)),  # 65521**4 >= 2**62: np.unique(axis=0)
    ],
)
def test_block_entropy_keys_match_row_unique(ring_text, extents, block):
    mod = ModuleSpec(make_ring(ring_text), 1)
    mu = bernoulli(mod, _win(extents), [Fraction(1, mod.size)] * mod.size, seed=3) \
        if mod.size < 100 else uniform_bernoulli(mod, _win(extents), seed=3)
    n = 3000
    assert block_entropy(mu, _win(block), n_samples=n) == _entropy_reference(mu, _win(block), n)


def test_unique_rows_falls_back_past_the_key_range():
    # 2**64 in base 3 has 41 digits: a 45-column row has no int64 key, so the
    # codec refuses 45 base-3 places and the rows are compared as rows.
    digits = np.zeros(45, dtype=np.int64)
    n = 1 << 64
    for j in range(44, -1, -1):
        n, digits[j] = divmod(n, 3)
    rows = np.stack([digits, np.zeros(45, dtype=np.int64), digits])
    with pytest.raises(InvalidParameterError):
        MixedRadix((3,) * 45)
    first, inverse = measures._unique_rows(rows, 3, return_index=True, return_inverse=True)
    assert first.tolist() == [1, 0] and inverse.tolist() == [1, 0, 1]
    narrow = rows[:, 6:]  # 3**39 < 2**62: keys
    want = np.unique(narrow, axis=0, return_index=True, return_inverse=True)[1:]
    got = measures._unique_rows(narrow, 3, return_index=True, return_inverse=True)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_mixed_radix_keys_sort_like_rows():
    rows = CounterRng(9, stream=2).uniform_codes(0, (500, 4), 5)
    keys = MixedRadix((5,) * 4).join(rows[:, ::-1])
    order = np.lexsort(rows.T[::-1])
    assert np.array_equal(np.argsort(keys, kind="stable"), order)


# -- CRT bijection check -----------------------------------------------------------


@pytest.mark.parametrize("ring_text", ["zmod:6", "zmod:210", "zmod:2310", "prod:[gf:2:2:1,1,1;zmod:3]"])
def test_verify_bijection_accepts_true_decompositions(ring_text):
    _verify_bijection(decompose_ring(make_ring(ring_text)))


def test_verify_bijection_rejects_broken_maps():
    deco = decompose_ring(make_ring("zmod:210"))
    inv = deco.inverse_table.copy()
    inv[[0, 1]] = inv[[1, 0]]
    with pytest.raises(AssertionError, match="inverse"):
        _verify_bijection(dataclasses.replace(deco, inverse_table=inv))
    # Relabel component 0 (zmod:2) by 0 <-> 1: still a bijection, no longer a homomorphism.
    fwd = deco.forward_table.copy()
    fwd[:, 0] = 1 - fwd[:, 0]
    idx = np.zeros(210, dtype=np.int64)
    for j in reversed(range(fwd.shape[1])):
        idx = idx * deco.component_rings[j].size + fwd[:, j]
    inv = np.zeros_like(deco.inverse_table)
    inv[idx] = np.arange(210)
    with pytest.raises(AssertionError, match=r"homomorphism at \(0,0\)"):
        _verify_bijection(dataclasses.replace(deco, forward_table=fwd, inverse_table=inv))


# -- pushforward over a non-field prime power ------------------------------------------


def test_pushforward_uniform_zmod4_enumerates():
    mod = ModuleSpec(make_ring("zmod:4"), 1)
    rule = LocalRule(mod, (1, 0), ((0,), (1,)), (1, 1))
    pushed = pushforward(uniform_bernoulli(mod, _win((6,)), seed=1), rule, 1)
    assert isinstance(pushed, ExactWordMeasure)
    assert pushed.window.n_sites == 5
    # x -> (x_i + x_{i+1}) maps (Z/4)^6 onto (Z/4)^5, four to one.
    assert len(pushed.words) == 4**5
    assert all(p == Fraction(1, 4**5) for _, p in pushed.words)
    for refused in ("zmod:4", "prod:[zmod:6;zmod:2]"):
        with pytest.raises(UnsupportedCharacteristicError):
            field_decomposition(make_ring(refused))
    assert field_decomposition(make_ring("zmod:6")).n_components == 2


def test_pushforward_uniform_squarefree_stays_structural():
    mod = ModuleSpec(make_ring("zmod:6"), 1)
    rule = LocalRule(mod, (1, 0), ((0,), (1,)), (1, 5))
    pushed = pushforward(uniform_bernoulli(mod, _win((6,)), seed=1), rule, 1)
    assert isinstance(pushed, SubgroupHaarMeasure)


# -- typed config errors -------------------------------------------------------------


@pytest.mark.parametrize(
    "step,key",
    [
        ("kind = kernel-count\nextents = 3 2\nexpected = 4", "kernel"),
        ("kind = haar-sweep\nmeasure = kernel\nextents = 3 2", "kernel"),
        ("kind = entropy\nring = zmod:2\nextents = 4\nblock-extents = 2", "expected"),
    ],
)
def test_missing_required_key_names_section_and_key(step, key):
    with pytest.raises(ConfigParseError, match=rf"\[step broken\] missing required key '{key}'"):
        parse_experiment(f"[experiment]\nseed = 1\n\n[step broken]\n{step}\n")


def test_malformed_integer_names_section_and_key():
    with pytest.raises(ConfigParseError, match=r"\[experiment\] bad value for 'seed'"):
        parse_experiment("[experiment]\nseed = x\n")
    text = (
        "[experiment]\nseed = 1\n\n[step counted]\nkind = kernel-count\n"
        "kernel = kernel ring=zmod:2 rank=1 dims=1,0 H=(0):1;(1):1\nextents = 3\nexpected = many\n"
    )
    with pytest.raises(ConfigParseError, match=r"\[step counted\] bad value for 'expected'"):
        run_experiment(parse_experiment(text))
    text = "[experiment]\nseed = 1\n\n[step one]\nkind = haar-sweep\nring = zmod:2\ndims = 1\nextents = 3\n"
    with pytest.raises(ConfigParseError, match=r"\[step one\] bad value for 'dims': '1'"):
        run_experiment(parse_experiment(text))


# -- rigidity experiments on the engine --------------------------------------------


def _rigidity_case(ring_text, kind):
    """(rule, measure, characters, t schedule) over one ring, for one kind of measure."""
    mod = ModuleSpec(make_ring(ring_text), 1)
    q = mod.size
    rule = LocalRule(mod, (1, 0), ((0,), (1,)), (1, q - 1))
    spec = KernelShiftSpec(LocalRule(mod, (1, 0), ((0,), (1,)), (q - 1, 1)))
    chars = list(all_characters(mod, _win((2,))))
    if kind == "biased":
        probs = [Fraction(1, 2**(k + 1)) for k in range(q - 1)] + [Fraction(1, 2**(q - 1))]
        return rule, bernoulli(mod, _win((3,)), probs, seed=2), chars, [0, 1]
    win = _win((5,))
    if kind == "uniform":
        mu = uniform_bernoulli(mod, win, seed=2)
    elif kind == "kernel":
        mu = kernel_haar(spec, win, seed=2)
    else:
        rep = WindowConfig(win, mod, (np.arange(5, dtype=np.int64) % q).reshape(5, 1), "exact")
        mu = CosetHaarMeasure(rep, kernel_haar(spec, win, seed=2))
    return rule, mu, chars, [0, 1, 2, 3]


@pytest.mark.parametrize("kind", ["uniform", "biased", "kernel", "coset"])
@pytest.mark.parametrize("ring_text", ["zmod:6", "gf:2:2:1,1,1"])
def test_rigidity_reports_match_per_character_oracle(ring_text, kind):
    rule, mu, chars, ts = _rigidity_case(ring_text, kind)
    got = rigidity_experiment(rule, mu, chars, t_schedule=ts)
    want = per_character_rigidity(rule, mu, chars, t_schedule=ts)
    assert _dump(got.to_dict()) == _dump(want.to_dict())
    assert all(row["exact"] for row in got.fourier_rows)


def test_rigidity_errors_match_per_character_oracle():
    rule, mu, chars, _ = _rigidity_case("zmod:6", "biased")
    wide = CharacterSpec.build(mu.module, mu.window, {(2,): 1, (1,): 5})
    for call in (rigidity_experiment, per_character_rigidity):
        # The t=2 window is one site wide: the first character that leaves it
        # raises, naming its first site outside.
        with pytest.raises(OutOfWindowError, match=r"character site \(1,\) outside"):
            call(rule, mu, chars, t_schedule=[0, 2])
        with pytest.raises(OutOfWindowError, match=r"character site \(1,\) outside"):
            call(rule, mu, [chars[0], wide, chars[1]], t_schedule=[0, 2])
        with pytest.raises(measures.MissingTrivialCharacterError):
            call(rule, mu, [], t_schedule=[0, 1])


def test_bernoulli_character_list_beyond_the_key_range():
    # 45 sites of zmod:3: 3**45 >= 2**62, so the multisets are compared as rows.
    mod = ModuleSpec(make_ring("zmod:3"), 1)
    win = _win((45,))
    mu = bernoulli(mod, win, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], seed=1)
    sites = list(win.sites())
    duals = CounterRng(8, stream=4).uniform_codes(0, (12, 45), 3)
    duals[3] = duals[0][::-1]  # a permutation: the same multiset, the same class
    chars = [CharacterSpec.build(mod, win, {}), CharacterSpec.build(mod, win, {sites[44]: 2})]
    chars += [CharacterSpec.build(mod, win, dict(zip(sites, map(int, row)))) for row in duals]
    class_ids, root_sums = measures._coefficients(mu, *measures._character_rows(chars, 1))
    assert class_ids[5] == class_ids[2] and len(root_sums) == len(chars) - 1
    for chi, k in zip(chars, class_ids):
        assert root_sums[k].weights == per_character_fourier(mu, chi).root_sum.weights
    rule = LocalRule(mod, (1, 0), ((0,), (1,)), (1, 1))
    got = rigidity_experiment(rule, mu, chars, t_schedule=[0])
    want = per_character_rigidity(rule, mu, chars, t_schedule=[0])
    assert _dump(got.to_dict()) == _dump(want.to_dict())
