"""The k-fold mixing event, built once, against the pin dicts it replaced.

`lattice.pin_union` places each word on its window translated by n*h and
merges the pins, naming the first pin that clashes.  `mixing_statistic`
(exact, and sampled at two budgets) and `topological_mixing_check` both read
it.  The oracles in `oracles.py` build the same event from one dict per word
(`_pins_from_word`, `_merge_pins`).  Every case must give the same result bit
for bit, or the same error type and message: overlapping translated words
that agree and that clash, an offset of the wrong arity, a word that leaves
the window, and two faults at once, where the first check to fail must be the
same one.
"""

import itertools
import random

import numpy as np
import pytest

from modshift import (
    ModuleSpec,
    WindowConfig,
    WindowSpec,
    ZmodRing,
    coset_haar,
    kernel_haar,
    mixing_statistic,
    topological_mixing_check,
    uniform_bernoulli,
)
from modshift.errors import ModshiftError
from modshift.lattice import constant_config, pin_union

from oracles import pinned_mixing_statistic, pinned_topological_check


def _outcome(fn, *args):
    """The result of the call, or the type and message of the `ModshiftError` it raises."""
    try:
        return fn(*args)
    except ModshiftError as exc:
        return type(exc).__name__, str(exc)


def _word(module, origin, extents, codes):
    """A word on Z x N (two coordinates) or on Z (one)."""
    window = WindowSpec((1, 1) if len(origin) == 2 else (1, 0), origin, extents)
    values = np.array(codes, dtype=np.int64).reshape(extents + (module.rank,))
    return WindowConfig(window, module, values)


def _cb_measures(cb_system):
    window = cb_system.window(6, 4)
    return [
        uniform_bernoulli(cb_system.module, window, seed=3),
        kernel_haar(cb_system.kernel, window, seed=4),
        coset_haar(cb_system.checkerboard(window), cb_system.kernel, seed=5),
    ]


def _cb_cases(cb_system):
    """(pairs, n) over the checkerboard system's Z x N lattice."""
    module = cb_system.module
    ones = _word(module, (0, 0), (2, 1), [1, 1])
    one_zero = _word(module, (0, 0), (2, 1), [1, 0])
    corner = _word(module, (1, 1), (1, 1), [0])
    far = _word(module, (7, 0), (1, 1), [1])
    other_ring = constant_config(ModuleSpec(ZmodRing(3), 1), WindowSpec((1, 1), (0, 0), (1, 1)), 2)
    return [
        ([((0, 0), ones), ((1, 0), ones)], 1),  # overlap at (1, 0), agreeing
        ([((0, 0), one_zero), ((1, 0), one_zero)], 1),  # overlap at (1, 0), clashing
        ([((0, 0), one_zero), ((1, 0), one_zero), ((0, 1), corner)], 2),  # disjoint
        ([((0, 0), ones), ((0, 1), corner), ((1, 1), ones)], 1),  # three words, one overlap
        ([((0, 0), corner), ((0, 0), corner)], 3),  # one word twice on the same sites
        ([((0, 0), ones), ((1,), ones)], 1),  # offset of the wrong arity
        ([((0, 0), ones), ((1, 0, 7), ones)], 1),
        ([((0, 0), ones), ((1, 0), ones)], 5),  # translated word leaves the window
        ([((0, 0), one_zero), ((1, 0), one_zero), ((0, 1), ones)], 4),  # clash and leaves
        ([((0, 0), ones), ((0, 0), far)], 1),  # untranslated word outside the window
        ([((1, 0), far), ((1,), ones)], 1),  # outside, then the wrong arity
        ([((0, 0), ones), ((0, 1), other_ring)], 1),  # word of another module
        ([((0, 0), ones)], -1),
        ([], 2),
    ]


@pytest.mark.parametrize("budget", ["exact", 64, 1000])
def test_mixing_statistic_matches_pin_dicts(cb_system, budget):
    outcomes = set()
    for mu in _cb_measures(cb_system):
        for pairs, n in _cb_cases(cb_system):
            got = _outcome(mixing_statistic, mu, pairs, n, budget)
            want = _outcome(pinned_mixing_statistic, mu, pairs, n, budget)
            assert got == want, (mu.label, pairs, n)
            outcomes.add(got[0] if isinstance(got, tuple) else got.observed > 0)
    # A clash is an observed 0; the refusals are each reached.
    assert outcomes == {True, False, "InvalidParameterError", "OutOfWindowError", "RingMismatchError"}


@pytest.mark.parametrize("budget", ["exact", 64, 1000])
def test_mixing_statistic_matches_pin_dicts_on_rank_two(budget):
    module = ModuleSpec(ZmodRing(3), 2)
    mu = uniform_bernoulli(module, WindowSpec((1, 0), (0,), (8,)), seed=9)
    pair = _word(module, (0,), (2,), [1, 2, 0, 1])
    shifted = _word(module, (0,), (2,), [0, 1, 2, 2])
    for pairs, n in [
        ([((0,), pair), ((1,), pair)], 1),  # (1,): (0, 1) against (1, 2)
        ([((0,), pair), ((1,), shifted)], 1),  # (1,): (0, 1) against (0, 1)
        ([((0,), pair), ((2,), shifted), ((-1,), pair)], 1),
        ([((0,), pair), ((3,), pair)], 3),
    ]:
        got = _outcome(mixing_statistic, mu, pairs, n, budget)
        assert got == _outcome(pinned_mixing_statistic, mu, pairs, n, budget), (pairs, n)


def test_topological_mixing_matches_pin_dicts(cb_system):
    module = cb_system.module
    words = [_word(module, (0, 0), (2, 1), codes) for codes in itertools.product(range(2), repeat=2)]
    offsets = [(0, 0), (1, 0), (0, 1)]
    cases = [
        (list(zip(hs, ws)), n)
        for k in (2, 3)
        for hs in itertools.combinations(offsets, k)
        for ws in itertools.product(words, repeat=k)
        for n in (1, 2)
    ]
    cases = random.Random(7).sample(cases, 40)
    # a and b are kernel words of the six-site window, c is not.
    a, b, c = (_word(module, (0, 0), (3, 2), codes)
               for codes in ([0, 1, 1, 1, 0, 0], [1, 0, 0, 1, 0, 0], [1, 0, 1, 0, 1, 0]))
    other_ring = constant_config(ModuleSpec(ZmodRing(3), 1), cb_system.six_site_window(), 0)
    cases += [
        ([((0, 0), a), ((1, 0), b)], 1),  # clash at (1, 1)
        ([((0, 0), words[1]), ((1,), words[1])], 2),  # offset of the wrong arity
        ([((0, 0), words[0]), ((1, 0), c)], 1),  # not a kernel word
        ([((0, 0), c), ((1,), words[0])], 1),  # not a kernel word, then the wrong arity
        ([((0, 0), words[0]), ((0, 1), other_ring)], 1),
        ([((0, 0), words[0])], 0),
        ([], 1),
    ]
    outcomes = set()
    for pairs, n in cases:
        got = _outcome(topological_mixing_check, cb_system.kernel, pairs, n)
        assert got == _outcome(pinned_topological_check, cb_system.kernel, pairs, n), (pairs, n)
        outcomes.add(got if isinstance(got, bool) else got[0])
    # The cases reach every outcome: feasible, infeasible, and each refusal.
    assert outcomes == {True, False, "InfeasiblePinError", "InvalidParameterError", "RingMismatchError"}


def test_topological_mixing_matches_pin_dicts_over_z3(torsion_system):
    spec = torsion_system.kernel
    module = spec.module
    words = [_word(module, (0,), (2,), codes) for codes in itertools.product(range(3), repeat=2)]
    rng = random.Random(11)
    outcomes = set()
    for _ in range(40):
        k = rng.choice((2, 3))
        pairs = [((rng.randrange(3),), rng.choice(words)) for _ in range(k)]
        n = rng.choice((1, 2))
        got = _outcome(topological_mixing_check, spec, pairs, n)
        assert got == _outcome(pinned_topological_check, spec, pairs, n), (pairs, n)
        outcomes.add(got if isinstance(got, bool) else got[0])
    assert outcomes == {True, False, "InfeasiblePinError"}
    not_kernel = _word(module, (0,), (3,), [1, 1, 0])
    pairs = [((0,), words[4]), ((1,), not_kernel)]
    assert _outcome(topological_mixing_check, spec, pairs, 1) == _outcome(
        pinned_topological_check, spec, pairs, 1
    ) == ("InvalidParameterError", "pinned word is not in the window kernel")


def test_pin_union_keeps_the_first_pin_of_each_site_and_names_the_first_clash():
    module = ModuleSpec(ZmodRing(5), 1)
    a = _word(module, (0,), (3,), [1, 2, 3])
    b = _word(module, (0,), (3,), [3, 4, 0])
    pins, clash = pin_union([((2,), a), ((0,), b)])  # a on 2..4, then b on 0..2: site 2 holds 1, then 0
    assert list(pins.items()) == [((2,), (1,)), ((3,), (2,)), ((4,), (3,)), ((0,), (3,)), ((1,), (4,))]
    assert clash == ((2,), (1,), (0,))
    pins, clash = pin_union([((2,), a), ((0,), _word(module, (0,), (3,), [3, 4, 1]))])
    assert clash is None and list(pins) == [(2,), (3,), (4,), (0,), (1,)]
    assert pin_union([]) == ({}, None)
