"""Window kernel sizes read from the anchor geometry, against the propagated rows.

`window_kernel` answers `solution_count`, `scalar_dims` and `free_sites` from
the anchor window alone: every anchor fixes one distinct site in each field
component, so each component has dimension n_sites - n_anchors.  The rows are
propagated only when `components` is first read.  The oracles are the
original count and dimensions read from those rows (`basis_solution_count`,
`basis_scalar_dims`) and the rows' own free sites, on Z/2, Z/3, GF(4),
`zmod:6` and `zmod:210` at ranks 1 and 2, on 1-D, 2-D and Z x N^2 windows,
with windows that hold no anchor and single-term rules.  A refused ring or a
vanishing component coefficient raises at the call, with the propagation's
error class and text.

The invariance check holds its invariance flag by construction, and it and
the extension certificate rank their images only at the window's free sites.
Both are compared with their originals (`two_basis_invariance_check`, which
pushes the whole basis through the rule, and `nullspace_extension_certificate`)
on random kernels and rules over Z/2, Z/3, Z/5, GF(4), `zmod:6`, `zmod:30` and
`zmod:210`, verdicts and any refusal alike.  The frontier tests bound the memory
traced by `tracemalloc`, not wall time.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modshift import (
    GFRing,
    KernelShiftSpec,
    LocalRule,
    ModuleSpec,
    WindowSpec,
    ZmodRing,
    enumerate_kernel_words,
    extension_certificate,
    invariance_and_surjectivity_check,
    parse_rule,
    window_kernel,
)
from modshift.cli import main
from modshift.errors import (
    ENUMERATION_CAP,
    KERNEL_CELL_CAP,
    InvalidParameterError,
    ModshiftError,
    ResourceLimitError,
    UnsupportedCharacteristicError,
)
from modshift.experiment import parse_experiment, run_experiment
from modshift.kernels import _propagate

from oracles import (
    basis_scalar_dims,
    basis_solution_count,
    nullspace_extension_certificate,
    two_basis_invariance_check,
)
from test_window_kernel_oracle import kernel_cases, units

GEOMETRY_RINGS = [ZmodRing(2), ZmodRing(3), GFRing(2, 2), ZmodRing(6), ZmodRing(210)]
INVARIANCE_RINGS = GEOMETRY_RINGS + [ZmodRing(5), ZmodRing(30)]
GRID_DIMS = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (1, 2)]
ORACLE = settings(deadline=None, derandomize=True, max_examples=150)
PARITY = "kernel ring=zmod:2 rank=1 dims=1,1 H=(-1,0):1;(0,0):1;(1,0):1;(0,1):1"
PARITY_RULE = "rule ring=zmod:2 rank=1 dims=1,1 H=(0,0):1;(0,1):1;(1,0):1"


def _outcome(fn, *args):
    """The result of the call, or the type and message of the `ModshiftError` it raises."""
    try:
        return fn(*args)
    except ModshiftError as exc:
        return type(exc).__name__, str(exc)


def assert_geometry_matches_rows(spec, window):
    basis = window_kernel(spec, window)
    count, dims, free = basis.solution_count, basis.scalar_dims(), basis.free_sites
    assert "components" not in vars(basis)  # nothing above built a row
    assert count == basis_solution_count(basis)
    assert dims == basis_scalar_dims(basis)
    assert free == tuple(comp_free for _, _, comp_free in basis.components)
    return basis


@ORACLE
@given(kernel_cases(GEOMETRY_RINGS))
def test_geometry_count_matches_the_rows(case):
    assert_geometry_matches_rows(*case)


def _grid_rule(ring, dims, rank, single):
    """A single-term rule at (1, ..., 1), or the zero offset and every unit vector."""
    axes = sum(dims)
    unit = units(ring)[-1]
    if single:
        return LocalRule(ModuleSpec(ring, rank), dims, ((1,) * axes,), (unit,))
    offsets = [(0,) * axes] + [tuple(int(i == j) for j in range(axes)) for i in range(axes)]
    coeffs = [ring.one] + [unit] * axes
    return LocalRule(ModuleSpec(ring, rank), dims, tuple(offsets), tuple(coeffs))


@pytest.mark.parametrize("ring", GEOMETRY_RINGS, ids=lambda r: r.descriptor())
@pytest.mark.parametrize("dims", GRID_DIMS, ids=str)
@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("single", [False, True], ids=["spread", "single-term"])
def test_geometry_count_matches_the_rows_on_the_grid(ring, dims, rank, single):
    spec = KernelShiftSpec(_grid_rule(ring, dims, rank, single))
    axes = sum(dims)
    top = 5 if axes < 3 else 3
    anchored = []
    for origin, extents in (((0,) * axes, (1,) * axes), ((1,) * axes, (top,) * axes),
                            ((0,) * axes, (2,) + (top,) * (axes - 1))):
        window = WindowSpec(dims, origin, extents)
        basis = assert_geometry_matches_rows(spec, window)
        anchored.append(basis.dim < window.n_sites)
        assert basis.solution_count == ring.size ** (basis.dim * rank)
    # A one-site window holds no anchor of a spread rule, nor of the single-term rule on N.
    assert anchored[0] is (single and dims[1] == 0)
    assert anchored[1]


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("kernel ring=zmod:4 rank=1 dims=1,0 H=(0):1;(1):1", UnsupportedCharacteristicError,
         "characteristic 4 of zmod:4 is not squarefree; exact per-field methods are unavailable"),
        ("kernel ring=zmod:6 rank=2 dims=1,1 H=(0,0):3;(1,0):1;(0,1):5", InvalidParameterError,
         "a coefficient vanishes in component zmod:3; "
         "kernel propagation needs every component coefficient to be a unit"),
        ("kernel ring=zmod:210 rank=1 dims=1,0 H=(-1):7;(0):1", InvalidParameterError,
         "a coefficient vanishes in component zmod:7; "
         "kernel propagation needs every component coefficient to be a unit"),
    ],
)
@pytest.mark.parametrize("large", [False, True], ids=["small", "past-the-cell-cap"])
def test_refusals_come_at_the_call_with_the_propagation_error(text, error, message, large):
    spec = KernelShiftSpec(parse_rule(text, expect_prefix="kernel"))
    axes = sum(spec.dims)
    extents = 1 << (29 // axes + 1) if large else 2
    window = WindowSpec(spec.dims, (0,) * axes, (extents,) * axes)
    with pytest.raises(error) as got:
        window_kernel(spec, window)
    assert type(got.value) is error and str(got.value) == message
    if large:  # no row is built, so the ring is judged before the cell cap
        assert window.n_sites > KERNEL_CELL_CAP
        return
    with pytest.raises(error) as want:
        _propagate(spec, window, "first")
    assert type(want.value) is error and str(want.value) == message


@st.composite
def invariance_cases(draw):
    """(rule, spec, window): a rule of the kernel's module and dims, any coefficient codes.

    Rule offsets lie in [-2, 2] on a Z axis and in [0, 2] on an N axis, so a rule
    may skip the window's first N rows; a `LocalRule` refuses a negative N-axis
    offset.  The original check's `OutOfWindowError` and `DomainExhaustedError`
    came only from a rule of other dims, which is refused now
    (`test_rule_of_other_dims_is_refused_naming_both`).
    """
    spec, window = draw(kernel_cases(INVARIANCE_RINGS, max_terms=3))
    dims, ring = spec.dims, spec.ring
    bounds = [(-2, 2)] * dims[0] + [(0, 2)] * dims[1]
    offset = st.tuples(*(st.integers(lo, hi) for lo, hi in bounds))
    offsets = draw(st.lists(offset, min_size=1, max_size=3, unique=True))
    coeffs = [draw(st.integers(1, ring.size - 1)) for _ in offsets]
    return LocalRule(spec.module, dims, tuple(offsets), tuple(coeffs)), spec, window


@ORACLE
@given(invariance_cases())
def test_invariance_check_matches_the_two_basis_check(case):
    assert _outcome(invariance_and_surjectivity_check, *case) == _outcome(
        two_basis_invariance_check, *case
    )


@ORACLE
@given(invariance_cases(), st.integers(1, 2))
def test_extension_certificate_matches_the_nullspace_projection(case, layers):
    _, spec, window = case
    assert _outcome(extension_certificate, spec, window, layers) == _outcome(
        nullspace_extension_certificate, spec, window, layers
    )


def test_an_invariance_step_with_a_rule_of_other_dims_fails_typed():
    config = parse_experiment(f"""[experiment]
name = dims
seed = 1

[step other_dims]
kind = invariance-check
rule = rule ring=zmod:2 rank=1 dims=2,1 H=(0,0,0):1;(1,0,0):1
kernel = {PARITY}
extents = 4 4
expected = true true
""")
    (step,) = run_experiment(config)["steps"]
    assert not step["pass"]
    assert step["error"] == (
        "InvalidParameterError: rule dims (2, 1) differ from the kernel's dims (1, 1)"
    )


# -- the size frontier, bounded in traced memory ------------------------------------


def test_parity_kernel_count_at_2048_squared_traces_under_a_megabyte():
    config = parse_experiment(f"""[experiment]
name = frontier
seed = 1

[step parity_2048]
kind = kernel-count
kernel = {PARITY}
extents = 2048 2048
expected = {2 ** 6142}
""")
    tracemalloc.start()
    try:
        report = run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (step,) = report["steps"]
    assert step["pass"] and step["count"] == 2**6142
    assert peak < 1 << 20


@pytest.mark.parametrize("verdict", ["invariance", "extension"])
def test_parity_verdicts_at_128_squared_trace_under_96_mib(verdict):
    """The free-site rank keeps both verdicts near the one propagation of the grown
    window: about 56 MiB each, where the whole-window images took 156 and the Haar
    marginal 194 MiB."""
    spec = KernelShiftSpec(parse_rule(PARITY, expect_prefix="kernel"))
    window = WindowSpec((1, 1), (0, 0), (128, 128))
    tracemalloc.start()
    try:
        if verdict == "invariance":
            got = invariance_and_surjectivity_check(parse_rule(PARITY_RULE), spec, window)
        else:
            got = extension_certificate(spec, window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == ((True, True) if verdict == "invariance" else True)
    assert peak < 96 << 20


def test_enumeration_above_its_limit_refuses_before_any_row():
    spec = KernelShiftSpec(parse_rule(PARITY, expect_prefix="kernel"))
    basis = window_kernel(spec, WindowSpec((1, 1), (0, 0), (2048, 2048)))
    assert 2048**2 * basis.dim > KERNEL_CELL_CAP  # reading the rows would be refused too
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=f"words, above the cap {ENUMERATION_CAP};") as got:
            enumerate_kernel_words(basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.value.required == 2**6142
    assert "components" not in vars(basis) and peak < 1 << 20


def test_cli_shift_kernel_answers_at_2048_squared(capsys):
    code = main(["shift", "kernel", "--kernel", PARITY, "--extents", "2048,2048"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["solution_count"] == 2**6142 and out["scalar_dims"] == [6142]
    # The lead term (-1, 0) fixes every site but the last column and the last two rows.
    want = np.ones((2048, 2048), dtype=bool)
    want[:2046, :2047] = False
    assert out["free_sites"] == [np.flatnonzero(want).tolist()]
