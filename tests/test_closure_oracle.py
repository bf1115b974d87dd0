"""Differential tests: the submodule closure check against the int64 draw check.

`submodule_condition_check` decides a `WindowBasis` from its rows alone: in
each field component where some generator's image is nonzero, every row must
pass that component's rule, tested with one `batch_membership`, and no word
is drawn or enumerated.  The oracle is the original int64 check in
`oracles.py`, which draws or enumerates kernel words and sums them; every
verdict must equal it, on intact bases and on bases changed in one field
component at a time, for generators that vanish in some component too.  The
words that `enumerate_kernel_words` and `draw_kernel_words` give from a basis
cast to narrow codes must still equal the int64 words.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modshift import KernelShiftSpec, WindowSpec, ZmodRing, crt, parse_rule, window_kernel
from modshift.errors import InvalidParameterError
from modshift.experiment import parse_experiment, run_experiment
from modshift.kernels import draw_kernel_words, enumerate_kernel_words, submodule_condition_check
from modshift.rings import Ring, make_ring
from modshift.rng import CounterRng

from oracles import int64_draw_kernel_words, int64_kernel_words, int64_submodule_condition
from test_window_kernel_oracle import KERNEL_RINGS, kernel_cases

RING_TEXTS = [
    "zmod:2",
    "zmod:3",
    "zmod:5",
    "zmod:6",
    "zmod:210",
    "zmod:65521",
    "gf:2:2",
    "gf:3:2",
    "prod:[zmod:2;zmod:3]",
]
SPLIT_RING_TEXTS = ["zmod:6", "zmod:210", "prod:[zmod:2;zmod:3]"]

CAP = 1 << 17


def _spec(ring, rank, dims, offsets):
    """A kernel whose last coefficient is the largest unit code, the others one."""
    unit = max(c for c in range(ring.size) if ring.is_unit(c))
    coeffs = [ring.one] * (len(offsets) - 1) + [unit]
    terms = ";".join(
        "(" + ",".join(str(x) for x in off) + f"):{c}" for off, c in zip(offsets, coeffs)
    )
    text = f"kernel ring={ring.descriptor()} rank={rank} dims={dims[0]},{dims[1]} H={terms}"
    return KernelShiftSpec(parse_rule(text, expect_prefix="kernel"))


def _exhaustive_case(ring, rank):
    """A one-dimensional kernel per component, and as many generators as the cap allows."""
    basis = window_kernel(_spec(ring, rank, (1, 0), [(0,), (1,)]), WindowSpec((1, 0), (0,), (3,)))
    gens = [1, ring.size - 1, min(2, ring.size - 1)]
    while basis.solution_count ** len(gens) > CAP:
        gens.pop()
    return basis, gens


def _sampled_case(ring, rank):
    offsets = [(-1, 0), (0, 0), (1, 0), (0, 1)]
    basis = window_kernel(_spec(ring, rank, (1, 1), offsets), WindowSpec((1, 1), (-2, 0), (6, 5)))
    return basis, [1, ring.size - 1, min(2, ring.size - 1)]


CASES = [
    (text, rank, branch)
    for text in RING_TEXTS
    for rank in (1, 2)
    for branch in ("exhaustive", "sampled")
    # 65521**2 words at rank 2 leave no exhaustive tuple under the cap.
    if not (text == "zmod:65521" and rank == 2 and branch == "exhaustive")
]


def _case(text, rank, branch):
    ring = make_ring(text)
    basis, gens = (_exhaustive_case if branch == "exhaustive" else _sampled_case)(ring, rank)
    limit = CAP if branch == "exhaustive" else 0
    assert gens and (basis.solution_count ** len(gens) <= limit) == (branch == "exhaustive")
    return ring, basis, gens, limit


def _replaced(basis, components):
    """A copy of the basis whose rows, which `window_kernel` builds on first read, are
    `components` instead."""
    out = copy.copy(basis)
    out.__dict__["components"] = tuple(components)
    return out


def _with_rows(basis, j, rows):
    """The basis with the scalar rows of field component j replaced."""
    comps = list(basis.components)
    comps[j] = (comps[j][0], rows, comps[j][2])
    return _replaced(basis, comps)


def _tampered(basis, j=0):
    """The basis with one entry of component j's first row moved off the kernel at the middle site."""
    ring, rows, _ = basis.components[j]
    rows = rows.copy()
    site = basis.window.n_sites // 2
    rows[0, site] = ring.add(int(rows[0, site]), ring.one)
    return _with_rows(basis, j, rows)


def _vanishing_gens(ring, j):
    """Up to two nonzero generator codes whose image in field component j is zero,
    such as (2, 4) over zmod:6 for its Z/2 component."""
    table = crt.field_decomposition(ring).forward_table
    return [c for c in range(1, ring.size) if table[c, j] == 0][:2]


@pytest.mark.parametrize("text, rank, branch", CASES)
def test_narrow_words_equal_int64_words(text, rank, branch):
    ring, basis, gens, _ = _case(text, rank, branch)
    dtype = ring.sum_dtype(len(gens))
    narrow = _replaced(basis, (
        (comp_ring, rows.astype(dtype), free) for comp_ring, rows, free in basis.components
    ))
    if branch == "exhaustive":
        want = int64_kernel_words(basis)
        got = enumerate_kernel_words(narrow)
        assert got.dtype == dtype and np.array_equal(got, want)
        return
    for seed in (2024, 2031, 2038):
        want = int64_draw_kernel_words(basis, 300, seed, start=5)
        got = draw_kernel_words(narrow, 300, seed, start=5)
        assert got.dtype == dtype and np.array_equal(got, want)
        wide = draw_kernel_words(basis, 300, seed, start=5)
        assert wide.dtype == np.int64 and np.array_equal(wide, want)


@pytest.mark.parametrize("text, rank, branch", CASES)
def test_closure_verdict_equals_int64_verdict(text, rank, branch):
    _, basis, gens, limit = _case(text, rank, branch)
    kwargs = dict(max_exhaustive=limit, samples=300, seed=11)
    assert submodule_condition_check(basis, gens) is True
    assert int64_submodule_condition(basis, gens, **kwargs) is True
    tampered = _tampered(basis)
    assert submodule_condition_check(tampered, gens) is False
    assert int64_submodule_condition(tampered, gens, **kwargs) is False


SPLIT_CASES = [
    (text, j, rank, branch)
    for text in SPLIT_RING_TEXTS
    for j in range(crt.field_decomposition(make_ring(text)).n_components)
    for rank in (1, 2)
    for branch in ("exhaustive", "sampled")
]


@pytest.mark.parametrize("text, j, rank, branch", SPLIT_CASES)
def test_tampering_each_component_equals_int64_verdict(text, j, rank, branch):
    """A change in component j opens the set iff some generator's image there is nonzero."""
    ring, basis, gens, limit = _case(text, rank, branch)
    kwargs = dict(max_exhaustive=limit, samples=300, seed=11)
    tampered = _tampered(basis, j)
    vanishing = _vanishing_gens(ring, j)
    assert vanishing
    for some_gens, closed in ((gens, False), (vanishing, True), ([0], True)):
        assert submodule_condition_check(tampered, some_gens) is closed
        assert int64_submodule_condition(tampered, some_gens, **kwargs) is closed


@settings(deadline=None, derandomize=True, max_examples=150)
@given(kernel_cases(KERNEL_RINGS), st.data())
def test_closure_verdict_matches_int64_oracle(case, data):
    spec, window = case
    # Grown by the stencil's span on each axis, the window holds at least one anchor.
    span = np.ptp(np.array(spec.constraint.offsets), axis=0).tolist()
    basis = window_kernel(spec, window.expanded([0] * window.axes, span))
    ring = basis.spec.ring
    # Counted down from the top code, so that 0 and the non-units are drawn but not most often.
    code = st.integers(0, ring.size - 1).map(lambda c: ring.size - 1 - c)
    gens = data.draw(st.lists(code, min_size=1, max_size=3))
    j = data.draw(st.integers(0, len(basis.components) - 1))
    comp_ring, rows, free = basis.components[j]
    intact = data.draw(st.booleans())
    if rows.size and not intact:
        rows = rows.copy()
        i = data.draw(st.integers(0, rows.shape[0] - 1))
        # A fixed site lies in some in-window constraint, so a change there leaves the kernel.
        fixed = sorted(set(range(rows.shape[1])) - set(free))
        sites = st.integers(0, rows.shape[1] - 1)
        site = data.draw(st.one_of(st.sampled_from(fixed), sites) if fixed else sites)
        rows[i, site] = comp_ring.add(int(rows[i, site]), data.draw(st.integers(1, comp_ring.size - 1)))
        basis = _with_rows(basis, j, rows)
    assert submodule_condition_check(basis, gens) is int64_submodule_condition(
        basis, gens, samples=300, seed=11
    )


@pytest.mark.parametrize(
    "text, gens",
    [("zmod:2", (1, 1, 1)), ("zmod:6", (2, 4)), ("zmod:6", (3,)), ("zmod:6", (1,)),
     ("zmod:210", (6, 10)), ("prod:[zmod:2;zmod:3]", (1, 2)), ("gf:2:2", (3,))],
)
def test_closure_tests_basis_rows_without_drawing(text, gens, monkeypatch):
    from modshift import kernels

    ring = make_ring(text)
    basis, _ = _sampled_case(ring, 1)
    want = int64_submodule_condition(basis, gens)
    table = crt.field_decomposition(ring).forward_table
    live = [j for j in range(table.shape[1]) if table[list(gens), j].any()]
    seen = []
    real = kernels.batch_membership

    def spy(spec, window, values):
        seen.append((spec, values))
        return real(spec, window, values)

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    monkeypatch.setattr(kernels, "batch_membership", spy)
    monkeypatch.setattr(kernels, "draw_kernel_words", refuse("draw_kernel_words"))
    monkeypatch.setattr(kernels, "enumerate_kernel_words", refuse("enumerate_kernel_words"))
    monkeypatch.setattr(CounterRng, "uniform_codes", refuse("uniform_codes"))
    assert submodule_condition_check(basis, gens) is want is True
    assert len(seen) == len(live)
    for j, (spec, values) in zip(live, seen):
        comp_ring, rows, _ = basis.components[j]
        assert spec.ring == comp_ring
        assert values.shape == rows.shape + (1,) and np.array_equal(values[..., 0], rows)


# -- generators must be element codes ----------------------------------------------------


@pytest.mark.parametrize(
    "text, bad",
    [("gf:2:2", 4), ("gf:2:2", 5), ("gf:2:2", -1), ("zmod:3", 3), ("zmod:3", -1),
     ("zmod:6", 6), ("zmod:6", 7), ("zmod:6", -1)],
)
def test_generator_outside_the_codes_is_refused(text, bad):
    ring = make_ring(text)
    basis, _ = _exhaustive_case(ring, 1)
    message = (
        f"generator {bad} is not an element code of {ring.descriptor()} "
        f"\\(codes are 0..{ring.size - 1}\\)"
    )
    with pytest.raises(InvalidParameterError, match=message):
        submodule_condition_check(basis, [1, bad])
    words = enumerate_kernel_words(basis)
    with pytest.raises(InvalidParameterError, match=message):
        submodule_condition_check((words, basis.module), [bad])
    assert submodule_condition_check(basis, [1, ring.size - 1])


def test_kernel_count_step_refuses_an_out_of_range_generator():
    text = """
[experiment]
name = gens
seed = 1

[step closure]
kind = kernel-count
kernel = kernel ring=zmod:3 rank=1 dims=1,1 H=(-1,0):1;(0,0):1;(1,0):1;(0,1):2
origin = 0 0
extents = 4 3
expected = 6561
submodule-gens = 1 3
"""
    with pytest.raises(InvalidParameterError, match=r"generator 3 is not an element code of zmod:3"):
        run_experiment(parse_experiment(text))
    report = run_experiment(parse_experiment(text.replace("1 3", "1 2")))
    (step,) = report["steps"]
    assert step["submodule_condition"] is True and step["pass"] is True


# -- the three exact tiers of the Z/q matmul ---------------------------------------------


def _spy_matmul(monkeypatch):
    seen = []
    real = np.matmul

    def spy(a, b, *args, **kwargs):
        seen.append(a.dtype)
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return seen


def test_float32_tier_at_two_to_the_24_minus_one(monkeypatch):
    # 1864135 * 3**2 = 2**24 - 1: the largest bound float32 holds exactly.
    ring, n = ZmodRing(4), 1864135
    assert n * 3**2 == (1 << 24) - 1
    seen = _spy_matmul(monkeypatch)
    coefs = np.full((2, n), 3, dtype=np.int64)
    rows = np.full((n, 3), 3, dtype=np.int64)
    got = ring.lincomb(coefs, rows)
    assert seen == [np.dtype(np.float32)]
    assert got.dtype == np.int64 and (got == (9 * n) % 4).all()
    # Random codes against int64 arithmetic (the generic loop over 1.8M rows is too slow).
    coefs = CounterRng(1, stream=9).uniform_codes(0, (2, n), 4)
    rows = CounterRng(2, stream=9).uniform_codes(0, (n, 3), 4)
    want = (coefs @ rows) % 4
    assert np.array_equal(ring.lincomb(coefs, rows), want)
    narrow = ring.lincomb(coefs.astype(np.uint8), rows.astype(np.uint8))
    assert narrow.dtype == np.uint8 and np.array_equal(narrow, want)


@pytest.mark.parametrize("q, n", [(4097, 1), (1025, 16), (65, 4096)])
def test_float64_tier_from_two_to_the_24(q, n, monkeypatch):
    ring = ZmodRing(q)
    assert n * (q - 1) ** 2 == 1 << 24
    coefs = np.full((3, n), q - 1, dtype=np.int64)
    coefs[1] = CounterRng(3, stream=9).uniform_codes(0, (n,), q)
    rows = np.full((n, 5), q - 1, dtype=np.int64)
    want = Ring.lincomb(ring, coefs, rows)
    seen = _spy_matmul(monkeypatch)
    got = ring.lincomb(coefs, rows)
    assert seen == [np.dtype(np.float64)]
    assert got.dtype == np.int64 and np.array_equal(got, want)
    narrow = ring.lincomb(coefs.astype(np.uint16), rows.astype(np.uint16))
    assert narrow.dtype == np.uint16 and np.array_equal(narrow, want)


@pytest.mark.parametrize("n, tier", [(2098176, np.float64), (2098177, np.int64)])
def test_int64_tier_from_two_to_the_53(n, tier, monkeypatch):
    # 2098176 * 65520**2 < 2**53 <= 2098177 * 65520**2.
    q = 65521
    assert (n * (q - 1) ** 2 >= 1 << 53) == (tier is np.int64)
    ring = ZmodRing(q)
    coefs = np.full((2, n), q - 1, dtype=np.uint16)
    coefs[1] = CounterRng(4, stream=9).uniform_codes(0, (n,), q)
    rows = np.full((n, 1), q - 1, dtype=np.uint16)
    seen = _spy_matmul(monkeypatch)
    got = ring.lincomb(coefs, rows)
    assert seen == [np.dtype(tier)] and got.dtype == np.uint16
    # (q-1)**2 = 1 mod q, so the all-largest row sums to n mod q.
    assert int(got[0, 0]) == n % q
    assert int(got[1, 0]) == sum(int(c) * (q - 1) for c in coefs[1].tolist()) % q
