"""One field split: `crt.field_decomposition` decides for every entry point.

A ring that splits into finite fields is accepted everywhere with the same
components (a field is its own single component); any other ring is refused
by window kernels, torsion checks and full-space Haar measures with the same
error, and uniform Bernoulli pushforward falls back to enumeration.  The word
enumerations are compared with the original field-or-split forks in
`oracles`.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import modshift
from modshift import (
    ExactWordMeasure,
    InvalidParameterError,
    KernelShiftSpec,
    LocalRule,
    ModuleSpec,
    SubgroupHaarMeasure,
    UnsupportedCharacteristicError,
    WindowSpec,
    enumerate_kernel_words,
    field_decomposition,
    kernel_haar,
    make_ring,
    pushforward,
    torsion_free_check,
    uniform_bernoulli,
    window_kernel,
)
from oracles import forked_kernel_words, forked_subgroup_words

WINDOW = WindowSpec((1, 0), (0,), (3,))


def _spec(ring, rank=1):
    """The kernel of x_i - x_{i+1} over ring^rank: one free site per component."""
    coeffs = (ring.one, ring.neg(ring.one))
    return KernelShiftSpec(LocalRule(ModuleSpec(ring, rank), (1, 0), ((0,), (1,)), coeffs))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("zmod:4", "not squarefree"),
        ("zmod:9", "not squarefree"),
        ("prod:[zmod:2;zmod:2]", "has prime characteristic but is not a field"),
        ("prod:[zmod:2;zmod:2;zmod:3]", "which is not a field"),
        ("prod:[zmod:6;zmod:2]", "prime-power characteristic"),
    ],
)
def test_refused_rings_raise_one_error_everywhere(text, fragment):
    ring = make_ring(text)
    spec = _spec(ring)
    with pytest.raises(UnsupportedCharacteristicError, match=fragment) as first:
        field_decomposition(ring)
    message = str(first.value)
    entry_points = [
        lambda: window_kernel(spec, WINDOW),
        lambda: torsion_free_check(spec, WINDOW, 1),
        lambda: SubgroupHaarMeasure.full_space(spec.module, WINDOW),
    ]
    for call in entry_points:
        with pytest.raises(UnsupportedCharacteristicError) as err:
            call()
        assert str(err.value) == message
    pushed = pushforward(uniform_bernoulli(spec.module, WINDOW, seed=1), spec.constraint, 1)
    assert isinstance(pushed, ExactWordMeasure)
    assert pushed.window.n_sites == 2 and sum(p for _, p in pushed.words) == 1


@pytest.mark.parametrize(
    "text,components",
    [
        ("zmod:2", ["zmod:2"]),
        ("gf:2:2", [make_ring("gf:2:2").descriptor()]),
        ("zmod:6", ["zmod:2", "zmod:3"]),
        ("zmod:210", ["zmod:2", "zmod:3", "zmod:5", "zmod:7"]),
        ("prod:[zmod:2;zmod:3]", ["zmod:2", "zmod:3"]),
    ],
)
def test_accepted_rings_list_their_field_components(text, components):
    ring = make_ring(text)
    deco = field_decomposition(ring)
    assert [r.descriptor() for r in deco.component_rings] == components
    assert deco.degenerate == ring.is_field
    basis = window_kernel(_spec(ring), WINDOW)
    assert basis.decomposition is deco
    assert [r.descriptor() for r, _, _ in basis.components] == components
    mu = SubgroupHaarMeasure.full_space(ModuleSpec(ring, 1), WINDOW)
    assert mu.decomposition is deco and len(mu.spans) == len(components)


def test_field_merge_returns_its_input():
    deco = field_decomposition(make_ring("zmod:5"))
    values = np.arange(5, dtype=np.int64)
    assert deco.merge_arrays([values]) is values
    assert deco.merge_product([values]) is values


def test_span_count_must_match_components():
    mu = SubgroupHaarMeasure.full_space(ModuleSpec(make_ring("zmod:6"), 1), WINDOW)
    with pytest.raises(InvalidParameterError, match="1 spans for the 2 field components"):
        SubgroupHaarMeasure(mu.module, mu.window, mu.spans[:1])


@pytest.mark.parametrize("text", ["zmod:2", "gf:2:2", "zmod:6", "zmod:30"])
@pytest.mark.parametrize("rank", [1, 2])
def test_enumerations_equal_forked_oracles(text, rank):
    ring = make_ring(text)
    basis = window_kernel(_spec(ring, rank), WINDOW)
    got = enumerate_kernel_words(basis)
    want = forked_kernel_words(basis)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    one_site = WindowSpec((1, 0), (0,), (1,))
    for mu in (kernel_haar(basis.spec, WINDOW, seed=2),
               SubgroupHaarMeasure.full_space(ModuleSpec(ring, rank), one_site)):
        pairs = list(mu.enumerate_words())
        words, p = forked_subgroup_words(mu)
        assert np.array_equal(np.stack([w for w, _ in pairs]), words)
        assert all(q == p for _, q in pairs)


@pytest.mark.parametrize("text", ["zmod:3", "zmod:6", "gf:2:2"])
def test_torsion_scalar_must_be_a_ring_code(text):
    spec = _spec(make_ring(text))
    for scalar in (7, -1, spec.ring.size):
        with pytest.raises(InvalidParameterError, match=f"scalar {scalar} is not an element code"):
            torsion_free_check(spec, WINDOW, scalar)
    assert torsion_free_check(spec, WINDOW, 1) is True


@pytest.mark.parametrize(
    "name",
    ["bundled", "chars", "cli", "crt", "errors", "experiment", "kernels", "lattice",
     "linalg", "measures", "rings", "rng", "shiftpoly"],
)
def test_each_module_imports_alone(name):
    src = os.path.dirname(os.path.dirname(modshift.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", f"import modshift.{name}"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
