"""The blocked counter-grid draw kernel against the counter arrays it replaced.

`CounterRng.uniform_codes` and `uniform_from_cdf` compute every draw a block of
cells at a time, in place.  The oracles in `oracles.py` are the original
formulas: an explicit uint64 counter array, mixed by the array `_mix` and
reduced by `%` or `searchsorted`.  Every case must agree bit for bit,
including counters that wrap past 2**64, grids on both sides of each block
boundary, and empty, unsorted and duplicated columns.  Oversized draws and
start rows that do not fit in 64 bits are refused before anything is
allocated.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modshift import (
    DrawLimitError,
    InvalidParameterError,
    KernelShiftSpec,
    LocalRule,
    ModuleSpec,
    WindowConfig,
    WindowSpec,
    bernoulli,
    kernel_haar,
    make_ring,
    uniform_bernoulli,
)
from modshift.errors import DRAW_CAP
from modshift.experiment import parse_experiment, run_experiment
from modshift.measures import CosetHaarMeasure, ExactWordMeasure
from modshift.rings import MixedRadix
from modshift.rng import _BLOCK, CounterRng, cdf_thresholds
from oracles import (
    counter_bernoulli_draw,
    counter_grid,
    counter_haar_draw,
    counter_uint64,
    counter_uniform_codes,
    counter_uniform_from_cdf,
    counter_word_draw,
)

ORACLE = settings(deadline=None, derandomize=True, max_examples=120)
MODULI = [2, 3, 4, 6, 1 << 30, 1 << 63]
TOP = 1 << 64


def _rows_near_block(width):
    """Row counts just below, at and above one and two blocks of `width` columns."""
    per_block = max(1, _BLOCK // max(width, 1))
    return st.sampled_from([0, 1, per_block - 1, per_block, per_block + 1, 2 * per_block + 1])


@st.composite
def grids(draw):
    """(row start, count, stride, columns) with columns drawn from [0, stride]."""
    stride = draw(st.sampled_from([0, 1, 3, 8, 23, _BLOCK + 1]))
    columns = draw(st.lists(st.integers(0, stride), max_size=6))
    count = draw(_rows_near_block(len(columns)))
    # Rows near 2**64 / stride make (start + i) * stride wrap past 2**64.
    near_wrap = TOP // max(stride, 1) - draw(st.integers(1, 4))
    start = draw(st.one_of(st.integers(0, 1 << 20), st.just(near_wrap), st.integers(0, TOP - 1)))
    return start, count, stride, columns


@ORACLE
@given(grids(), st.sampled_from(MODULI), st.integers(0, 1 << 70), st.integers(0, 200))
def test_grid_codes_match_the_counter_array(grid, modulus, seed, stream):
    start, count, stride, columns = grid
    rng = CounterRng(seed, stream)
    got = rng.uniform_codes(start * stride, (count, stride), modulus, columns=np.array(columns, dtype=np.int64))
    want = counter_grid(rng, start, count, stride, columns, modulus=modulus)
    assert got.dtype == np.int64 and got.shape == (count, len(columns))
    assert np.array_equal(got, want)


@ORACLE
@given(grids(), st.lists(st.integers(1, 9), min_size=1, max_size=5), st.integers(0, 99))
def test_grid_cdf_codes_match_the_counter_array(grid, weights, seed):
    start, count, stride, columns = grid
    rng = CounterRng(seed, stream=1)
    thresholds = cdf_thresholds([Fraction(w) for w in weights])
    got = rng.uniform_from_cdf(start * stride, (count, stride), thresholds, columns=columns)
    want = counter_grid(rng, start, count, stride, columns, thresholds=thresholds)
    assert got.dtype == np.int64 and np.array_equal(got, want)


@st.composite
def flat_draws(draw):
    """(start, shape) of a row-major draw whose cell count sits near a block boundary."""
    tail = draw(st.sampled_from([(), (1,), (3,), (2, 5)]))
    width = int(np.prod(tail, dtype=np.int64))
    lead = draw(_rows_near_block(1)) // max(width, 1) + draw(st.integers(-1, 1))
    start = draw(st.one_of(st.integers(0, 1 << 20), st.integers(TOP - 2 * _BLOCK, TOP - 1)))
    return start, (max(lead, 0),) + tail


@ORACLE
@given(flat_draws(), st.sampled_from(MODULI), st.integers(0, 99))
def test_row_major_codes_match_the_counter_array(draw, modulus, seed):
    start, shape = draw
    rng = CounterRng(seed, stream=7)
    got = rng.uniform_codes(start, shape, modulus)
    assert got.dtype == np.int64 and np.array_equal(got, counter_uniform_codes(rng, start, shape, modulus))


@ORACLE
@given(flat_draws(), st.lists(st.integers(0, 9), min_size=2, max_size=6).filter(any), st.integers(0, 99))
def test_row_major_cdf_codes_match_the_counter_array(draw, weights, seed):
    start, shape = draw
    rng = CounterRng(seed, stream=3)
    thresholds = cdf_thresholds([Fraction(w) for w in weights])
    got = rng.uniform_from_cdf(start, shape, thresholds)
    assert np.array_equal(got, counter_uniform_from_cdf(rng, start, shape, thresholds))
    # A zero weight is a code that is never drawn.
    assert not np.isin(got, [i for i, w in enumerate(weights) if not w]).any()


def test_a_draw_equal_to_a_threshold_counts_that_mark():
    rng = CounterRng(5, stream=3)
    marks = np.sort(rng.uint64(np.arange(10, 16, dtype=np.uint64)))
    got = rng.uniform_from_cdf(10, (6,), marks)
    assert sorted(got.tolist()) == [1, 2, 3, 4, 5, 6]
    assert np.array_equal(got, counter_uniform_from_cdf(rng, 10, (6,), marks))
    grid = rng.uniform_from_cdf(8, (2, 2), marks, columns=[3, 2, 0, 1])
    assert np.array_equal(grid, counter_grid(rng, 4, 2, 2, [3, 2, 0, 1], thresholds=marks))


@given(st.lists(st.integers(0, TOP - 1), max_size=40), st.integers(0, 99))
@settings(deadline=None, derandomize=True, max_examples=60)
def test_uint64_matches_the_counter_formula(counters, seed):
    rng = CounterRng(seed, stream=2)
    counters = np.array(counters, dtype=np.uint64)
    assert np.array_equal(rng.uint64(counters), counter_uint64(rng, counters))


# -- measure draws ----------------------------------------------------------------

RINGS = ["zmod:2", "zmod:3", "gf:2:2", "zmod:6"]


def _measures(desc, rank, length):
    """Uniform and biased Bernoulli, kernel Haar, a coset and a word measure."""
    ring = make_ring(desc)
    module = ModuleSpec(ring, rank)
    win = WindowSpec((1, 0), (0,), (length,))
    one = ring.one
    spec = KernelShiftSpec(LocalRule(module, (1, 0), ((0,), (1,), (2,)), (one, one, one)))
    haar = kernel_haar(spec, win, seed=3)
    rep = CounterRng(1, stream=5).uniform_codes(0, win.extents + (rank,), ring.size)
    weights = [Fraction(1 + (c % 3), 1) for c in range(module.size)]
    probs = [w / sum(weights) for w in weights]
    words = [
        (CounterRng(2, stream=9).uniform_codes(10 * k, (length, rank), ring.size), Fraction(k + 1, 10))
        for k in range(4)
    ]
    return {
        "uniform": (uniform_bernoulli(module, win, seed=4), counter_bernoulli_draw),
        "biased": (bernoulli(module, win, probs, seed=5), counter_bernoulli_draw),
        "haar": (haar, counter_haar_draw),
        "coset": (CosetHaarMeasure(WindowConfig(win, module, rep), haar), counter_haar_draw),
        "words": (ExactWordMeasure(module, win, words, seed=6), counter_word_draw),
    }


@pytest.fixture(scope="module", params=[(d, r) for d in RINGS for r in (1, 2)], ids=str)
def measures(request):
    desc, rank = request.param
    return _measures(desc, rank, 7)


@settings(deadline=None, derandomize=True, max_examples=25)
@given(
    start=st.one_of(st.integers(0, 1 << 20), st.integers(TOP // 7 - 3, TOP // 7 - 1)),
    count=st.sampled_from([0, 1, 5, _BLOCK // 7 + 1, _BLOCK // 2 + 1]),
    sel=st.one_of(st.none(), st.lists(st.integers(0, 6), max_size=5)),
)
def test_measure_draws_match_the_counter_arrays(measures, start, count, sel):
    for name, (mu, oracle) in measures.items():
        got = mu.draw_values(start, count, sel)
        want = oracle(mu, start, count, sel)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


# -- refusals -------------------------------------------------------------------


def test_oversized_grids_are_refused_before_allocating():
    rng = CounterRng(0)
    for args, kwargs in [
        ((0, (DRAW_CAP + 1,), 2), {}),
        ((0, (10**20, 32, 1), 6), {}),
        ((0, (10**13, 23), 2), {"columns": np.arange(23)}),
        ((0, (10**20, 8), 2), {"columns": np.arange(8)}),
    ]:
        with pytest.raises(DrawLimitError, match="draw cap") as info:
            rng.uniform_codes(*args, **kwargs)
        assert info.value.required > DRAW_CAP
    # The cap counts the computed cells, not the grid the columns are taken from.
    assert rng.uniform_codes(0, (4, DRAW_CAP), 2, columns=[1]).shape == (4, 1)


def test_negative_extents_and_start_rows_outside_64_bits_are_refused():
    rng = CounterRng(0)
    for start, shape, columns in [(-1, (3,), None), (TOP, (3,), None), (-5, (2, 5), [0]),
                                  (TOP * 5, (2, 5), [0]), (0, (-1, 32, 1), None),
                                  (0, (-2, 5), [0]), (0, (2, -5), [0])]:
        with pytest.raises(InvalidParameterError, match="fit in 64 bits"):
            rng.uniform_codes(start, shape, 2, columns=columns)
    # The last 64-bit row is a valid start, and its counters wrap.
    assert rng.uniform_codes((TOP - 1) * 5, (2, 5), 2, columns=[4]).shape == (2, 1)
    with pytest.raises(InvalidParameterError, match="fit in 64 bits"):
        uniform_bernoulli(ModuleSpec(make_ring("zmod:2"), 1), WindowSpec((1, 0), (0,), (4,))).draw_values(TOP, 2)


def test_modulus_outside_the_int64_codes_is_refused():
    for modulus in (0, (1 << 63) + 1):
        with pytest.raises(InvalidParameterError, match="modulus"):
            CounterRng(0).uniform_codes(0, (4,), modulus)


def _one_step(kind_lines):
    text = "[experiment]\nname = huge\nseed = 1\n\n[step huge]\n" + kind_lines
    return run_experiment(parse_experiment(text))["steps"][0]


KERNEL = "kernel ring=zmod:2 rank=1 dims=1,1 H=(-1,0):1;(0,0):1;(1,0):1;(0,1):1"


@pytest.mark.parametrize("step", [
    "kind = crt-check\nring = zmod:6\nrule = rule ring=zmod:6 rank=1 dims=1,0 H=(0):1;(1):5\n"
    "trials = 99999999999999999999\n",
    "kind = crt-check\nring = zmod:6\nrule = rule ring=zmod:6 rank=1 dims=1,0 H=(0):1;(1):5\n"
    "trials = 1000000000000\n",
    "kind = entropy\nmeasure = uniform\nring = zmod:2\ndims = 1 0\nextents = 16\n"
    "block-extents = 8\nsamples = 99999999999999999999\nexpected = 1.0\n",
    f"kind = mixing\nmeasure = kernel\nkernel = {KERNEL}\norigin = 0 0\nextents = 17 17\n"
    "offsets = (0,0);(0,1);(1,0)\nn-schedule = 16\nbudget = 10000000000000\n",
], ids=["crt-trials-1e20", "crt-trials-1e12", "entropy-samples-1e20", "mixing-budget-1e13"])
def test_oversized_step_draws_are_failed_steps_with_no_force_hint(step):
    result = _one_step(step)
    assert result["pass"] is False
    assert result["error"].startswith("resource limit: draw of ")
    assert "draw cap" in result["error"] and "--force" not in result["error"]


# -- single-radix split ---------------------------------------------------------------


@pytest.mark.parametrize("radix", [2, 6, 1 << 40])
def test_single_radix_split_is_a_fresh_copy_of_the_codes(radix):
    codes = CounterRng(3).uniform_codes(0, (4, 5), radix)
    digits = MixedRadix((radix,)).split(codes)
    assert digits.shape == (4, 5, 1) and digits.dtype == np.int64
    assert np.array_equal(digits[..., 0], codes)
    assert np.array_equal(MixedRadix((radix, 2)).split(codes)[..., :1], digits)
    digits[...] = 0
    assert codes.any()
