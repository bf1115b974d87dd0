"""Monte Carlo statistics read in blocks of draws against the whole draw.

`mixing_statistic`, `block_entropy`, sampled `fourier` and
`crt.conjugacy_check` reduce their draws a block at a time (`rng.draw_blocks`),
since draws [start + r0, start + r0 + n) are rows r0..r0+n of the draws from
`start`.  The oracles in `oracles.py` are the original bodies, which drew
everything first.  Every case must agree exactly, for every kind of handle,
for blocks of one draw, of seven draws and of the default size; a draw the
whole call would refuse is refused first, with the same error, before
anything is allocated; and the memory of a streamed statistic does not grow
with its budget.
"""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from modshift import (
    CharacterSpec,
    DrawLimitError,
    GFRing,
    InvalidParameterError,
    KernelShiftSpec,
    LocalRule,
    ModuleSpec,
    WindowConfig,
    WindowSpec,
    ZmodRing,
    bernoulli,
    block_entropy,
    fourier,
    kernel_haar,
    mixing_statistic,
    pushforward,
    uniform_bernoulli,
)
from modshift import kernels, rng
from modshift.crt import conjugacy_check, decompose_ring
from modshift.errors import DRAW_CAP
from modshift.measures import CosetHaarMeasure, ExactWordMeasure, SubgroupHaarMeasure
from modshift.rings import sorted_unique
from modshift.shiftpoly import parse_rule

from oracles import (
    batched_conjugacy,
    whole_draw_entropy,
    whole_draw_fourier,
    whole_draw_mixing,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIMS = (1, 1)
OFFSETS = ((-1, 0), (0, 0), (1, 0), (0, 1))
# (ring, rank, kernel coefficients); every coefficient is a unit in each field component.
RINGS = {
    "zmod2": (ZmodRing(2), 1, (1, 1, 1, 1)),
    "zmod6": (ZmodRing(6), 1, (1, 5, 1, 1)),
    "gf4": (GFRing(2, 2), 2, (1, 2, 3, 1)),
}
HANDLES = ["subgroup-haar", "coset-haar", "uniform", "biased", "words", "transformed"]
BLOCKS = {"one": lambda cells: 1, "seven": lambda cells: 7, "default": None}


def _handle(kind, ring_id):
    ring, rank, coeffs = RINGS[ring_id]
    module = ModuleSpec(ring, rank)
    window = WindowSpec(DIMS, (0, 0), (6, 5))
    gen = np.random.default_rng(sorted(RINGS).index(ring_id))
    if kind in ("subgroup-haar", "coset-haar"):
        sub = kernel_haar(KernelShiftSpec(LocalRule(module, DIMS, OFFSETS, coeffs)), window, seed=3)
        if kind == "subgroup-haar":
            return sub
        rep = gen.integers(0, ring.size, window.extents + (rank,))
        return CosetHaarMeasure(WindowConfig(window, module, rep), sub)
    if kind == "uniform":
        return uniform_bernoulli(module, window, seed=4)
    probs = [Fraction(i + 1, module.size * (module.size + 1) // 2) for i in range(module.size)]
    if kind == "biased":
        return bernoulli(module, window, probs, seed=5)
    if kind == "words":
        words = [(gen.integers(0, ring.size, window.n_sites * rank), Fraction(w, 10)) for w in (1, 2, 3, 4)]
        return ExactWordMeasure(module, window, words, seed=6)
    rule = LocalRule(module, DIMS, ((0, 0), (1, 0)), (1, coeffs[1]))
    pushed = pushforward(bernoulli(module, window, probs, seed=7), rule, 1, limit=1)
    assert not pushed.is_exact  # the sampled fallback
    return pushed


def _pairs(mu):
    gen = np.random.default_rng(11)
    word_window = WindowSpec(DIMS, (0, 0), (2, 1))
    values = gen.integers(0, mu.module.ring.size, word_window.extents + (mu.module.rank,))
    word = WindowConfig(word_window, mu.module, values)
    return [((0, 0), word), ((0, 1), word), ((1, 0), word)]


@pytest.fixture(params=list(BLOCKS), ids=list(BLOCKS))
def blocks(request, monkeypatch):
    rows = BLOCKS[request.param]
    if rows is not None:
        monkeypatch.setattr(rng, "_block_rows", rows)
    return request.param


@pytest.mark.parametrize("ring_id", list(RINGS))
@pytest.mark.parametrize("kind", HANDLES)
def test_streamed_statistics_equal_the_whole_draw(kind, ring_id, blocks):
    mu = _handle(kind, ring_id)
    budget = 123 if blocks == "one" else 1000
    pairs = _pairs(mu)
    for n in (0, 1):
        got = mixing_statistic(mu, pairs, n, budget=budget, start=5)
        assert got == whole_draw_mixing(mu, pairs, n, budget, start=5)
    block = WindowSpec(DIMS, (1, 1), (2, 2))
    assert block_entropy(mu, block, budget, start=9) == whole_draw_entropy(mu, block, budget, start=9)
    gen = np.random.default_rng(13)
    duals = {site: tuple(int(x) for x in gen.integers(1, mu.module.ring.size, mu.module.rank))
             for site in [(0, 0), (2, 1), (4, 3)]}
    for chi in (CharacterSpec.build(mu.module, mu.window, duals),
                CharacterSpec.build(mu.module, mu.window, {})):
        got = fourier(mu, chi, budget, start=2)
        want = whole_draw_fourier(mu, chi, budget, start=2)
        assert (got.value, got.stderr) == (want.value, want.stderr)


@pytest.mark.parametrize("ring_id", ["zmod2", "gf4"])
def test_entropy_rows_too_wide_for_a_key_equal_the_whole_draw(ring_id, blocks):
    # 2**63 and 4**34 keys overflow int64: the rows are compared as rows.
    ring, rank, _ = RINGS[ring_id]
    module = ModuleSpec(ring, rank)
    window = WindowSpec((1, 0), (0,), (70,))
    block = WindowSpec((1, 0), (3,), (63 if ring.size == 2 else 17,))
    assert ring.size ** (block.n_sites * rank) >= 1 << 62
    probs = [Fraction(1, 8), Fraction(7, 8)] if module.size == 2 else None
    mu = bernoulli(module, window, probs, seed=1) if probs else uniform_bernoulli(module, window, seed=1)
    word = [(np.zeros(70 * rank, dtype=np.int64), Fraction(1, 2)),
            (np.ones(70 * rank, dtype=np.int64), Fraction(1, 2))]
    for handle in (mu, ExactWordMeasure(module, window, word, seed=2)):
        assert block_entropy(handle, block, 300) == whole_draw_entropy(handle, block, 300)


@pytest.mark.parametrize("rule_text, torus", [
    ("rule ring=zmod:6 rank=1 dims=1,0 H=(0):1;(1):5", (32,)),
    ("rule ring=zmod:30 rank=2 dims=1,1 H=(-1,0):7;(0,0):1;(1,1):29", (5, 4)),
])
@pytest.mark.parametrize("corrupt", [False, True])
def test_streamed_conjugacy_equals_the_batched_draw(rule_text, torus, corrupt, blocks):
    rule = parse_rule(rule_text)
    deco = decompose_ring(rule.ring)
    if corrupt:  # code 2 is no coefficient, so every component rule stays valid
        fwd = deco.forward_table.copy()
        fwd[2, 0] = (fwd[2, 0] + 1) % deco.component_rings[0].size
        deco = dataclasses.replace(deco, forward_table=fwd)
    res = conjugacy_check(rule, deco, trials=40, torus_extents=torus, seed=3)
    assert (res.ok, res.counterexample) == batched_conjugacy(rule, deco, 40, torus, 3)
    assert res.ok == (not corrupt)


def test_blocks_cover_the_draw_in_order(monkeypatch):
    monkeypatch.setattr(rng, "_block_rows", lambda cells: 7)
    got = list(rng.draw_blocks(30, [4], 4, lambda r0, n: (r0, n)))
    assert got == [(r0, (r0, min(7, 30 - r0))) for r0 in range(0, 30, 7)]
    monkeypatch.undo()
    assert rng._block_rows(1) == rng._DRAW_BLOCK and rng._block_rows(1 << 20) == 1


# -- refused before anything is allocated ----------------------------------------------


def _mixing_17():
    spec = KernelShiftSpec(LocalRule(ModuleSpec(ZmodRing(2), 1), DIMS, OFFSETS, (1, 1, 1, 1)))
    mu = kernel_haar(spec, WindowSpec(DIMS, (0, 0), (17, 17)), seed=1)
    word = WindowConfig(WindowSpec(DIMS, (0, 0), (1, 1)), mu.module, np.zeros((1, 1, 1), dtype=np.int64))
    return mu, [((0, 0), word), ((0, 1), word), ((1, 0), word)]


def _refusals():
    """(name, streamed call, whole-draw call) for an over-cap draw of each consumer."""
    mu, pairs = _mixing_17()
    over = DRAW_CAP + 1  # draws of at least one cell each
    uni = uniform_bernoulli(ModuleSpec(ZmodRing(2), 1), WindowSpec((1, 0), (0,), (16,)), seed=1)
    block = WindowSpec((1, 0), (0,), (8,))
    chi = CharacterSpec.build(uni.module, uni.window, {(3,): 1})
    rule = parse_rule("rule ring=zmod:6 rank=1 dims=1,0 H=(0):1;(1):5")
    pushed = pushforward(bernoulli(ModuleSpec(ZmodRing(6), 1), WindowSpec((1, 0), (0,), (16,)),
                                   [Fraction(1, 12)] * 4 + [Fraction(1, 3)] * 2, seed=2),
                         rule, 3, limit=1)
    pushed_chi = CharacterSpec.build(pushed.module, pushed.window, {(2,): 1})
    deco = decompose_ring(rule.ring)
    return [
        ("mixing", lambda: mixing_statistic(mu, pairs, 16, budget=over),
         lambda: whole_draw_mixing(mu, pairs, 16, over)),
        ("entropy", lambda: block_entropy(uni, block, DRAW_CAP // 8 + 1),
         lambda: whole_draw_entropy(uni, block, DRAW_CAP // 8 + 1)),
        ("fourier", lambda: fourier(uni, chi, over), lambda: whole_draw_fourier(uni, chi, over)),
        ("pushforward", lambda: fourier(pushed, pushed_chi, DRAW_CAP // 16 + 1),
         lambda: whole_draw_fourier(pushed, pushed_chi, DRAW_CAP // 16 + 1)),
        ("conjugacy", lambda: conjugacy_check(rule, deco, trials=DRAW_CAP // 4 + 1, torus_extents=(4,)),
         lambda: batched_conjugacy(rule, deco, DRAW_CAP // 4 + 1, (4,), 0)),
    ]


@pytest.mark.parametrize("case", range(5), ids=[name for name, _, _ in _refusals()])
def test_over_cap_draws_are_refused_first_with_the_whole_draws_error(case):
    _, streamed, whole = _refusals()[case]
    with pytest.raises(DrawLimitError) as want:
        whole()
    tracemalloc.start()
    try:
        with pytest.raises(DrawLimitError) as got:
            streamed()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(got.value) == str(want.value) and "draw cap" in str(got.value)
    assert got.value.required == want.value.required > DRAW_CAP
    assert peak < 1 << 20


# -- memory and imports -------------------------------------------------------------------


def _mixing_peak(budget):
    mu, pairs = _mixing_17()
    tracemalloc.start()
    try:
        mixing_statistic(mu, pairs, 16, budget=budget)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_mixing_memory_does_not_grow_with_the_budget():
    small, large = _mixing_peak(10**5), _mixing_peak(10**6)
    assert large < 2 * small, (small, large)


def test_the_haar_workload_does_not_load_numpy_ma():
    code = (
        "import sys, tempfile\n"
        "from modshift import experiment\n"
        f"text = open({os.path.join(ROOT, 'perfbench', 'workloads', 'haar.cfg')!r}).read()\n"
        "report = experiment.run_experiment(experiment.parse_experiment(text))\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    experiment.write_report(report, out, text)\n"
        "assert all(step['pass'] for step in report['steps'])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("values", [[], [5], [3, 1, 3, 2, 1, 1], list(range(9, -1, -1)) * 3])
def test_sorted_unique_is_np_unique(values):
    values = np.array(values, dtype=np.int64)
    got = sorted_unique(values)
    assert got.dtype == values.dtype and np.array_equal(got, np.unique(values))


# -- one propagation per kernel Haar measure --------------------------------------------


def test_kernel_haar_propagates_once_and_refuses_a_foreign_window(monkeypatch):
    spec = KernelShiftSpec(LocalRule(ModuleSpec(ZmodRing(6), 2), DIMS, OFFSETS, (1, 5, 1, 1)))
    window = WindowSpec(DIMS, (0, 0), (6, 5))
    leads = []
    propagate = kernels._propagate

    def counting(spec, window, lead):
        leads.append(lead)
        return propagate(spec, window, lead)

    monkeypatch.setattr("modshift.measures._propagate", counting)
    mu = kernel_haar(spec, window, seed=4)
    assert leads == ["last"]
    want = SubgroupHaarMeasure.from_window_basis(kernels.window_kernel(spec, window), seed=4)
    assert mu.label == want.label and mu.seed == want.seed
    assert all(np.array_equal(a.basis, b.basis) for a, b in zip(mu.spans, want.spans))
    foreign = WindowSpec((2, 0), (0, 0), (6, 5))
    with pytest.raises(InvalidParameterError, match="does not have the kernel's dims") as got:
        kernel_haar(spec, foreign)
    with pytest.raises(InvalidParameterError) as want:
        kernels.window_kernel(spec, foreign)
    assert str(got.value) == str(want.value)
