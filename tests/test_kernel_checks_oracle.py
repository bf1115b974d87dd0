"""The kernel checks read from the kernel's Haar handle, against the solvers they replaced.

`topological_mixing_check` decides the k-fold event nonempty when it has
positive mass under the kernel's Haar measure on the pins' bounding box; the
oracle is its original constraint solve (`solved_topological_check` in
`oracles.py`).  Both must give the same verdict, or the same error type and
message, for kernels over Z/2, Z/6 and GF(4) at ranks 1 and 2, at
separations up to 32, with pins that can be held, pins that cannot, and pins
that clash.  The closure of an explicit word set is checked on every tuple up
to a fixed cap, the coset check tests one fixed vector set, and a separation
past the int64 coordinate range is refused.
"""

import random

import numpy as np
import pytest

from modshift import (
    KernelShiftSpec,
    ModuleSpec,
    WindowConfig,
    WindowSpec,
    ZmodRing,
    extension_certificate,
    kernel_haar,
    mixing_statistic,
    parse_rule,
    topological_mixing_check,
    window_kernel,
)
from modshift.errors import InvalidParameterError, ModshiftError, ResourceLimitError
from modshift.kernels import (
    _check_vectors,
    coboundary,
    coset_shift_check,
    draw_kernel_words,
    kernel_membership,
    submodule_condition_check,
)
from modshift.lattice import constant_config
from modshift.rings import make_ring

from oracles import solved_topological_check
from test_closure_oracle import _spec

SEPARATIONS = (1, 2, 4, 8, 16, 32)


def _outcome(fn, *args):
    """The result of the call, or the type and message of the `ModshiftError` it raises."""
    try:
        return fn(*args)
    except ModshiftError as exc:
        return type(exc).__name__, str(exc)


def _kernel_words(spec, window):
    """Up to 16 distinct kernel words of the window, drawn uniformly."""
    words = np.unique(draw_kernel_words(window_kernel(spec, window), 16, seed=5), axis=0)
    shape = window.extents + (spec.module.rank,)
    return [WindowConfig(window, spec.module, word.reshape(shape)) for word in words]


# Each kernel with the window of its words and the offsets they are placed at: a
# two-term rule on Z, whose kernel words are fixed by one site, and the four-term
# space-time rule on Z x N, whose words may be placed along the Z axis.
KERNELS = [
    ((1, 0), [(0,), (1,)], WindowSpec((1, 0), (0,), (2,)), [(0,), (1,), (3,)]),
    ((1, 1), [(-1, 0), (0, 0), (1, 0), (0, 1)], WindowSpec((1, 1), (0, 0), (3, 2)),
     [(0, 0), (1, 0), (2, 0)]),
]


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("text", ["zmod:2", "zmod:6", "gf:2:2"])
def test_topological_mixing_matches_the_constraint_solve(text, rank):
    rng = random.Random(f"{text}-{rank}")
    outcomes = set()
    for dims, offsets, word_window, places in KERNELS:
        spec = _spec(make_ring(text), rank, dims, offsets)
        words = _kernel_words(spec, word_window)
        for n in SEPARATIONS:
            cases = []
            for _ in range(6):
                k = rng.choice((2, 3))
                cases.append([(h, rng.choice(words)) for h in rng.sample(places, k)])
            a, b = rng.sample(words, 2)
            cases.append([(places[0], a), (places[0], b)])  # two words on the same sites clash
            for pairs in cases:
                got = _outcome(topological_mixing_check, spec, pairs, n)
                assert got == _outcome(solved_topological_check, spec, pairs, n), (pairs, n)
                outcomes.add(got if isinstance(got, bool) else got[0])
    assert outcomes == {True, False, "InfeasiblePinError"}


def test_topological_mixing_matches_the_constraint_solve_on_refusals(cb_system):
    spec = cb_system.kernel
    word = constant_config(spec.module, WindowSpec((1, 1), (0, 0), (1, 1)), 1)
    not_kernel = WindowConfig(cb_system.six_site_window(), spec.module,
                              np.array([1, 0, 1, 0, 1, 0]).reshape(3, 2, 1))
    for pairs, n in [
        ([((0, 0), word), ((1,), word)], 2),
        ([((0, 0), word), ((1, 0), not_kernel)], 4),
        ([((0, 0), word)], 0),
        ([((1, 0), word)], 2**63),
        ([], 8),
    ]:
        got = _outcome(topological_mixing_check, spec, pairs, n)
        assert got == _outcome(solved_topological_check, spec, pairs, n), (pairs, n)


# -- closure of an explicit word set ---------------------------------------------------


def test_word_set_above_the_tuple_cap_is_refused():
    module = ModuleSpec(ZmodRing(2), 1)
    words = np.zeros((363, 1, 1), dtype=np.int64)  # 363**2 = 131769 tuples, above 2**17
    with pytest.raises(ResourceLimitError, match="needs 131769 tuples, above the cap 131072") as info:
        submodule_condition_check((words, module), [1, 1])
    assert info.value.required == 131769
    assert submodule_condition_check((words[:2], module), [1, 1])


# -- the coset check's vectors ----------------------------------------------------------


def test_coset_check_on_the_torus_reads_the_drawn_vectors():
    module = ModuleSpec(ZmodRing(2), 1)
    spec = KernelShiftSpec(parse_rule("kernel ring=zmod:2 rank=1 dims=1,0 H=(0):1;(2):1",
                                      expect_prefix="kernel"))
    window = WindowSpec((1, 0), (0,), (5,))
    config = WindowConfig(window, module, np.array([0, 0, 1, 1, 0]).reshape(5, 1), "torus")
    assert kernel_membership(spec, coboundary(config, [(1,)])[0])  # the generator passes
    assert not kernel_membership(spec, coboundary(config, [(-1,)])[0])  # a drawn vector fails
    assert coset_shift_check(config, spec) is False


@pytest.mark.parametrize(
    "dims, vectors",
    [
        ((2, 0), [(1, 0), (0, 1), (1, 0), (-1, -1), (2, -1), (-2, 1)]),
        ((1, 1), [(1, 0), (0, 1), (1, 2), (-1, 1), (2, 1), (-2, 0)]),
        ((0, 2), [(1, 0), (0, 1), (0, 2), (1, 1), (1, 1)]),
    ],
)
def test_coset_check_vectors_are_the_generators_and_four_drawn(dims, vectors):
    assert _check_vectors(WindowSpec(dims, (0, 0), (3, 3))) == vectors


# -- separations past the int64 coordinate range ------------------------------------------


@pytest.mark.parametrize(
    "offset, n, message",
    [
        ((1, 0), 2**63, r"offset \(1, 0\) at n = 9223372036854775808 is past the int64"),
        ((2, 0), 2**62, r"offset \(2, 0\) at n = 4611686018427387904 is past the int64"),
        ((-1, 0), 2**63 + 1, r"offset \(-1, 0\) at n = 9223372036854775809 is past the int64"),
        ((1, 0), 2**63 - 1,
         r"word on .* translated by \(9223372036854775807, 0\) is past the int64"),
    ],
)
def test_separation_past_int64_is_refused(cb_system, offset, n, message):
    spec = cb_system.kernel
    word = constant_config(spec.module, WindowSpec((1, 1), (0, 0), (2, 1)), 0)
    pairs = [((0, 0), word), (offset, word)]
    with pytest.raises(InvalidParameterError, match=message):
        topological_mixing_check(spec, pairs, n)
    with pytest.raises(InvalidParameterError, match=message):
        mixing_statistic(kernel_haar(spec, cb_system.window(6, 4)), pairs, n)


# -- the extension certificate's layers ----------------------------------------------------


@pytest.mark.parametrize(
    "layers, message",
    [(-1, "layers must be >= 1, got -1"), (0, "layers must be >= 1, got 0"),
     (1.5, "layers must be an integer, got 1.5"), ("2", "layers must be an integer, got '2'")],
)
def test_extension_certificate_refuses_layers_below_one(cb_system, layers, message):
    with pytest.raises(InvalidParameterError, match=message):
        extension_certificate(cb_system.kernel, cb_system.window(5, 3), layers)


def test_extension_certificate_takes_any_integer_layers(cb_system):
    window = cb_system.window(5, 3)
    assert all(extension_certificate(cb_system.kernel, window, layers)
               for layers in (1, 2, np.int64(3)))
