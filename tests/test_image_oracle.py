"""The one image path of a measure, against the branches it replaced.

`pushforward` powers the rule once.  A Haar handle maps each field
component's span by the power's nonzero codes in that component, and the
representative over the whole ring; every other handle goes through
`measures._image`, as does `crt.project_measure` outside its Bernoulli and
Haar branches.  The oracles in `oracles.py` are the original branches: the
per-component route, which powered `crt.component_rule` in each component,
and the word-list and sampled branches of `pushforward` and
`project_measure`.  Where the per-component route refuses a rule (a
coefficient vanishes in a component), the Haar image is compared with the
enumerated pushforward of the same measure's words.
"""

from fractions import Fraction

import numpy as np
import pytest

from modshift import (
    CosetHaarMeasure,
    ExactWordMeasure,
    KernelShiftSpec,
    LocalRule,
    ModuleSpec,
    SubgroupHaarMeasure,
    TransformedMeasure,
    WindowConfig,
    WindowSpec,
    bernoulli,
    decompose_ring,
    kernel_haar,
    make_ring,
    point_mass,
    project_measure,
    pushforward,
)
from modshift.crt import conjugacy_check
from modshift.errors import InvalidParameterError
from modshift.experiment import parse_experiment, run_experiment
from modshift.kernels import invariance_and_surjectivity_check
from modshift.measures import default_t_schedule
from modshift.rng import CounterRng
from modshift.shiftpoly import parse_rule

from oracles import branch_projection, branch_pushforward, per_component_haar_pushforward

HAAR_RINGS = ["zmod:2", "gf:2:2", "zmod:6", "zmod:30", "prod:[zmod:2;zmod:3]"]


def _haar_handles(desc, rank, length):
    """Kernel and coset Haar handles of 1 + x + x^2, and the rule 1 + u x for a unit u."""
    ring = make_ring(desc)
    module = ModuleSpec(ring, rank)
    one, unit = ring.one, ring.size - 1  # size - 1 is a unit in every field component
    spec = KernelShiftSpec(LocalRule(module, (1, 0), ((0,), (1,), (2,)), (one, one, one)))
    win = WindowSpec((1, 0), (0,), (length,))
    sub = kernel_haar(spec, win, seed=3)
    codes = CounterRng(1, stream=5).uniform_codes(0, win.extents + (rank,), ring.size)
    rule = LocalRule(module, (1, 0), ((-1,), (0,)), (one, unit))
    return rule, [sub, CosetHaarMeasure(WindowConfig(win, module, codes), sub)]


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("desc", HAAR_RINGS)
def test_haar_image_equals_the_per_component_route(desc, rank):
    schedule = [t for t in default_t_schedule(make_ring(desc)) if t]
    rule, handles = _haar_handles(desc, rank, max(schedule) + 4)
    for mu in handles:
        for t in schedule:
            pushed = pushforward(mu, rule, t)
            window, bases, rep = per_component_haar_pushforward(mu, rule, t)
            assert type(pushed) is type(mu) and pushed.window == window
            assert [s.basis.tobytes() for s in pushed.spans] == [b.tobytes() for b in bases]
            assert pushed.rep_codes.tobytes() == rep.reshape(pushed.rep_codes.shape).tobytes()
            assert pushed.label == f"{mu.label}->t{t}"


def _distribution(mu):
    out = {}
    for word, p in mu.enumerate_words():
        key = np.asarray(word, dtype=np.int64).tobytes()
        out[key] = out.get(key, Fraction(0)) + p
    return out


VANISHING = ["H=(0):2;(1):1", "H=(0):3;(1):2", "H=(0):2;(1):4"]


@pytest.mark.parametrize("rank,length,top", [(1, 5, 3), (2, 2, 1)])
@pytest.mark.parametrize("stencil", VANISHING)
def test_vanishing_coefficients_push_like_the_enumerated_words(stencil, rank, length, top):
    module = ModuleSpec(make_ring("zmod:6"), rank)
    rule = parse_rule(f"rule ring=zmod:6 rank={rank} dims=1,0 {stencil}")
    win = WindowSpec((1, 0), (0,), (length,))
    full = SubgroupHaarMeasure.full_space(module, win, seed=2)
    spec = KernelShiftSpec(LocalRule(module, (1, 0), ((0,), (1,)), (1, 5)))  # constants
    for mu in (full, kernel_haar(spec, win, seed=3)):
        words = ExactWordMeasure(module, win, mu.enumerate_words(), seed=mu.seed)
        for t in range(1, top + 1):
            with pytest.raises(InvalidParameterError, match="vanishes in component"):
                per_component_haar_pushforward(mu, rule, t)
            pushed = pushforward(mu, rule, t)
            enumerated = pushforward(words, rule, t)
            assert isinstance(pushed, SubgroupHaarMeasure)
            assert pushed.window == enumerated.window
            assert _distribution(pushed) == _distribution(enumerated)


def test_a_component_with_no_terms_maps_to_zero():
    module = ModuleSpec(make_ring("zmod:6"), 1)
    rule = parse_rule("rule ring=zmod:6 rank=1 dims=1,0 H=(0):2;(1):4")
    pushed = pushforward(SubgroupHaarMeasure.full_space(module, WindowSpec((1, 0), (0,), (5,))),
                         rule, 2)
    assert [s.dim for s in pushed.spans] == [0, 3]  # zero on Z/2, onto on Z/3


def _same_handle(got, want, label=None):
    """Equal type, window, module, mode, seed, provenance and label; equal words for an
    exact handle and equal draws, whole and at a site selection, for a sampled one."""
    assert type(got) is type(want)
    assert (got.window, got.module, got.mode, got.seed) == (want.window, want.module,
                                                            want.mode, want.seed)
    assert got.provenance == want.provenance
    assert got.label == (want.label if label is None else label)
    if isinstance(want, ExactWordMeasure):
        assert [(w.tobytes(), p) for w, p in got.words] == [(w.tobytes(), p) for w, p in want.words]
    for sel in (None, [0], [1, 0, 1]):
        a, b = got.draw_values(5, 40, sel), want.draw_values(5, 40, sel)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _word_measures(desc, rank):
    ring = make_ring(desc)
    module = ModuleSpec(ring, rank)
    win = WindowSpec((1, 0), (0,), (5,))
    codes = CounterRng(9, stream=2).uniform_codes(0, (5,) + win.extents + (rank,), ring.size)
    probs = [Fraction(k, 15) for k in range(1, 6)]
    words = ExactWordMeasure(module, win, list(zip(codes, probs)), seed=4, label="five")
    n = module.size
    biased = bernoulli(module, win, [Fraction(2, n + 1)] + [Fraction(1, n + 1)] * (n - 1), seed=6)
    sampled = TransformedMeasure(words, lambda batch: batch, win, module, "as-sampled")
    return module, [point_mass(WindowConfig(win, module, codes[0]), seed=1), words, sampled, biased]


@pytest.mark.parametrize("desc,rank", [("zmod:6", 1), ("zmod:30", 2), ("prod:[zmod:2;zmod:3]", 1)])
def test_projection_equals_the_branch_projection(desc, rank):
    module, handles = _word_measures(desc, rank)
    deco = decompose_ring(module.ring)
    for mu in handles[:3]:
        for j in range(deco.n_components):
            _same_handle(project_measure(mu, deco, j), branch_projection(mu, deco, j))


@pytest.mark.parametrize("desc,rank", [("zmod:6", 1), ("zmod:30", 2), ("zmod:4", 1)])
def test_enumerated_and_sampled_pushforwards_equal_the_branches(desc, rank):
    module, handles = _word_measures(desc, rank)
    one = module.ring.one
    rule = LocalRule(module, (1, 0), ((0,), (1,)), (one, module.ring.size - 1))
    for mu in handles:
        for t, limit in ((1, 1 << 20), (2, 1 << 20), (3, 1)):
            got, want = pushforward(mu, rule, t, limit), branch_pushforward(mu, rule, t, limit)
            _same_handle(got, want, f"{mu.label}->t{t}")


RULE6 = "rule ring=zmod:6 rank=1 dims=1,0 H=(0):2;(1):1"
STEPS = f"""[experiment]
name = vanishing
seed = 1

[step crt]
kind = crt-check
ring = zmod:6
rule = {RULE6}
trials = 20
torus = 16

[step invariance]
kind = invariance-check
rule = {RULE6}
kernel = kernel ring=zmod:6 rank=1 dims=1,0 H=(0):1;(1):5
extents = 6
expected = true false

[step push]
kind = pushforward-invariance
rule = {RULE6}
extents = 8
target-extents = 4
t = 3
"""


def test_a_coefficient_vanishing_in_a_component_passes_every_check():
    report = run_experiment(parse_experiment(STEPS))
    assert [(s["name"], s["pass"]) for s in report["steps"]] == [
        ("crt", True), ("invariance", True), ("push", True)]
    rule = parse_rule(RULE6)
    spec = KernelShiftSpec(parse_rule("rule ring=zmod:6 rank=1 dims=1,0 H=(0):1;(1):5"))
    window = WindowSpec((1, 0), (0,), (6,))
    assert invariance_and_surjectivity_check(rule, spec, window) == (True, False)
    assert conjugacy_check(rule, decompose_ring(rule.ring), trials=20, torus_extents=(16,)).ok
