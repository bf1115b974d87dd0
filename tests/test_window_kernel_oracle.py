"""Window kernels by propagation against the eliminations they replaced.

`window_kernel` propagates each kernel from its free sites; the oracle is the
original elimination of the whole constraint matrix (`constraint_matrix`, then
`rref`, then `nullspace_from_rref`).  Both must give the same basis arrays and
free site tuples bit for bit.  The elimination-free `torsion_free_check` and
the `extension_certificate` ranked at the window's free sites are compared
with their rank- and nullspace-based originals the same way.  A window or a
rule of other dims than the kernel's is refused with a typed error that
names both.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modshift import (
    GFRing,
    InvalidParameterError,
    KernelShiftSpec,
    LocalRule,
    ModuleSpec,
    SubgroupHaarMeasure,
    WindowSpec,
    ZmodRing,
    enumerate_kernel_words,
    extension_certificate,
    invariance_and_surjectivity_check,
    parse_rule,
    pushforward,
    torsion_free_check,
    window_kernel,
)
from modshift.errors import DomainExhaustedError, OutOfWindowError
from modshift.kernels import constraint_matrix
from oracles import (
    brute_kernel_words,
    eliminated_haar_spans,
    eliminated_window_kernel,
    nullspace_extension_certificate,
    rank_torsion_free_check,
    two_basis_invariance_check,
)

KERNEL_RINGS = [ZmodRing(2), ZmodRing(3), ZmodRing(5), GFRing(2, 2), ZmodRing(6), ZmodRing(30)]
TORSION_RINGS = [ZmodRing(6), ZmodRing(210), ZmodRing(3), GFRing(2, 2)]
HAAR_RINGS = [ZmodRing(2), ZmodRing(3), GFRing(2, 2), ZmodRing(6), ZmodRing(210)]
DIMS = [(1, 0), (2, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 1)]
ORACLE = settings(deadline=None, derandomize=True, max_examples=150)


def units(ring):
    return [c for c in range(1, ring.size) if ring.is_unit(c)]


@st.composite
def kernel_cases(draw, ring_pool, max_terms=4, with_zero=False, max_rank=2):
    """(spec, window): a rule with unit coefficients and a window of its dims.

    Z-axis offsets lie in [-1, 1] and N-axis offsets in [0, 2]; with
    `with_zero` the rule has the zero offset, so every axis's offset range
    contains 0 (what `brute_kernel_words` assumes of its anchors).
    """
    ring = draw(st.sampled_from(ring_pool))
    dims = draw(st.sampled_from(DIMS))
    axes = sum(dims)
    bounds = [(-1, 1)] * dims[0] + [(0, 2)] * dims[1]
    offset = st.tuples(*(st.integers(lo, hi) for lo, hi in bounds))
    offsets = draw(st.lists(offset, min_size=1, max_size=max_terms, unique=True))
    if with_zero and (0,) * axes not in offsets:
        offsets = [(0,) * axes] + offsets[: max_terms - 1]
    coeffs = [draw(st.sampled_from(units(ring))) for _ in offsets]
    rank = draw(st.integers(1, max_rank))
    spec = KernelShiftSpec(LocalRule(ModuleSpec(ring, rank), dims, tuple(offsets), tuple(coeffs)))
    origin = [draw(st.integers(-2, 2)) for _ in range(dims[0])] + [
        draw(st.integers(0, 2)) for _ in range(dims[1])
    ]
    top = 6 if axes < 3 else 4
    extents = [draw(st.integers(1, top)) for _ in range(axes)]
    return spec, WindowSpec(dims, tuple(origin), tuple(extents))


def assert_same_kernel(spec, window):
    got = window_kernel(spec, window).components
    want = eliminated_window_kernel(spec, window)
    assert len(got) == len(want)
    for (ring, basis, free), (want_ring, want_basis, want_free) in zip(got, want):
        assert ring == want_ring
        assert free == want_free
        assert basis.dtype == want_basis.dtype == np.int64
        assert basis.shape == want_basis.shape
        assert np.array_equal(basis, want_basis)


@ORACLE
@given(kernel_cases(KERNEL_RINGS))
def test_window_kernel_matches_elimination(case):
    assert_same_kernel(*case)


PARITY = "H=(-1,0):1;(0,0):1;(1,0):1;(0,1):1"
BLOCK = "H=(0,0):1;(1,0):1;(0,1):1;(1,1):1"
CUBE = "H=" + ";".join(
    f"({a},{b},{c}):1" for a in (0, 1) for b in (0, 1) for c in (0, 1)
)


@pytest.mark.parametrize(
    "text, extents",
    [
        # the parity kernel: the first axis singles out its lead term
        (f"ring=zmod:3 dims=1,1 {PARITY}", (13, 11)),
        (f"ring=zmod:210 dims=1,1 {PARITY}", (9, 8)),
        # no axis has a unique extreme term: lexicographic weights
        (f"ring=zmod:3 dims=1,1 {BLOCK}", (12, 12)),
        (f"ring=gf:2:2 dims=0,2 {BLOCK}", (7, 9)),
        (f"ring=zmod:2 dims=1,2 {CUBE}", (4, 5, 3)),
        # single-term rules: every anchored site is forced to 0
        ("ring=zmod:5 dims=1,1 H=(1,1):3", (6, 4)),
        ("ring=gf:2:2 dims=2,1 H=(0,-1,2):2", (3, 4, 4)),
        ("ring=zmod:30 dims=0,1 H=(0):7", (5,)),
    ],
)
def test_window_kernel_matches_elimination_on_named_rules(text, extents):
    spec = KernelShiftSpec(parse_rule(f"kernel rank=1 {text}", expect_prefix="kernel"))
    window = WindowSpec(spec.dims, (0,) * len(extents), extents)
    assert_same_kernel(spec, window)


def test_single_term_rule_forces_anchored_sites_to_zero():
    spec = KernelShiftSpec(parse_rule("kernel ring=zmod:3 rank=1 dims=1,1 H=(1,1):2", expect_prefix="kernel"))
    window = WindowSpec((1, 1), (0, 0), (4, 3))
    ((_, basis, free),) = window_kernel(spec, window).components
    # anchors (-1..2, 0..1) fix every site with t >= 1; only the row t = 0 stays free
    assert free == (0, 3, 6, 9)
    assert np.array_equal(basis, np.eye(window.n_sites, dtype=np.int64)[list(free)])


@pytest.mark.parametrize(
    "text, extents",
    [
        (f"ring=zmod:2 dims=1,1 {PARITY}", (2, 5)),
        (f"ring=gf:2:2 dims=1,1 {BLOCK}", (1, 6)),
        ("ring=zmod:30 dims=1,0 H=(-1):1;(0):1;(1):7", (2,)),
    ],
)
def test_window_smaller_than_stencil_gives_identity_basis(text, extents):
    spec = KernelShiftSpec(parse_rule(f"kernel rank=1 {text}", expect_prefix="kernel"))
    window = WindowSpec(spec.dims, (0,) * len(extents), extents)
    assert constraint_matrix(spec, window).shape == (0, window.n_sites)
    for _, basis, free in window_kernel(spec, window).components:
        assert free == tuple(range(window.n_sites))
        assert np.array_equal(basis, np.eye(window.n_sites, dtype=np.int64))
    assert_same_kernel(spec, window)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(kernel_cases(KERNEL_RINGS, max_terms=3, with_zero=True))
def test_window_kernel_matches_brute_force_on_tiny_windows(case):
    spec, window = case
    extents = list(window.extents)
    while spec.ring.size ** np.prod(extents) > 4096:
        extents[int(np.argmax(extents))] -= 1
    window = WindowSpec(window.dims, window.origin, tuple(extents))
    basis = window_kernel(spec, window)
    brute = brute_kernel_words(spec, window)
    assert basis.solution_count == len(brute) ** spec.module.rank
    if spec.module.rank == 1:
        words = enumerate_kernel_words(basis)
        assert {tuple(int(v) for v in w[:, 0]) for w in words} == set(brute)


@ORACLE
@given(kernel_cases(HAAR_RINGS, max_rank=3))
def test_kernel_haar_spans_match_elimination(case):
    basis = window_kernel(*case)
    got = SubgroupHaarMeasure.from_window_basis(basis).spans
    want = eliminated_haar_spans(basis)
    assert len(got) == len(want)
    for span, want_basis in zip(got, want):
        assert span.basis.dtype == want_basis.dtype
        assert np.array_equal(span.basis, want_basis)


def scalars(ring):
    """Ring codes with 0 and every non-unit drawn often."""
    nonunits = [c for c in range(ring.size) if not ring.is_unit(c)]
    return st.one_of(st.sampled_from(nonunits), st.integers(0, ring.size - 1))


@ORACLE
@given(kernel_cases(TORSION_RINGS), st.data())
def test_torsion_free_check_matches_rank_comparison(case, data):
    spec, window = case
    scalar = data.draw(scalars(spec.ring))
    assert torsion_free_check(spec, window, scalar) is rank_torsion_free_check(spec, window, scalar)


@ORACLE
@given(kernel_cases(TORSION_RINGS), st.integers(1, 2))
def test_extension_certificate_matches_nullspace_projection(case, layers):
    spec, window = case
    assert extension_certificate(spec, window, layers) == nullspace_extension_certificate(
        spec, window, layers
    )


@pytest.mark.parametrize(
    "window",
    [
        WindowSpec((2, 0), (0, 0), (4, 4)),  # same axis count, other split
        WindowSpec((1, 0), (0,), (5,)),  # too few axes
        WindowSpec((1, 2), (0, 0, 0), (3, 3, 3)),  # too many axes
    ],
    ids=str,
)
@pytest.mark.parametrize(
    "call",
    [
        lambda spec, w: window_kernel(spec, w),
        lambda spec, w: torsion_free_check(spec, w, 0),
        lambda spec, w: extension_certificate(spec, w),
        lambda spec, w: constraint_matrix(spec, w),
        lambda spec, w: invariance_and_surjectivity_check(spec.constraint, spec, w),
    ],
    ids=["window_kernel", "torsion_free_check", "extension_certificate", "constraint_matrix",
         "invariance_and_surjectivity_check"],
)
def test_window_of_other_dims_is_refused(cb_system, window, call):
    with pytest.raises(InvalidParameterError, match=r"does not have the kernel's dims \(1, 1\)"):
        call(cb_system.kernel, window)


@pytest.mark.parametrize(
    "text, was",
    [
        ("dims=2,1 H=(0,0,0):1;(1,0,0):1", ValueError),  # numpy's broadcast error
        ("dims=1,0 H=(0):1;(1):1", InvalidParameterError),  # "origin/extents length != D+E"
        ("dims=2,0 H=(0,-1):1;(0,0):1", OutOfWindowError),  # same axis count, other split
        ("dims=2,0 H=(0,-3):1;(0,0):1", DomainExhaustedError),
    ],
)
def test_rule_of_other_dims_is_refused_naming_both(cb_system, text, was):
    """A rule must have the dims of the kernel, or of the window it pushes a measure
    over; the original check failed on each of these in its own way."""
    rule = parse_rule(f"rule ring=zmod:2 rank=1 {text}", expect_prefix="rule")
    spec, window = cb_system.kernel, cb_system.window(3, 3)
    with pytest.raises(was):
        two_basis_invariance_check(rule, spec, window)
    with pytest.raises(InvalidParameterError) as got:
        invariance_and_surjectivity_check(rule, spec, window)
    assert str(got.value) == f"rule dims {rule.dims} differ from the kernel's dims (1, 1)"
    with pytest.raises(InvalidParameterError) as got:
        pushforward(SubgroupHaarMeasure.from_kernel(spec, window), rule, 1)
    assert str(got.value) == f"rule dims {rule.dims} differ from the window's dims (1, 1)"
