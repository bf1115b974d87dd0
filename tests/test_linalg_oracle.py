"""Differential tests: the field-specific elimination paths against dense_rref.

The reduced row echelon form is unique, so the packed GF(2) path, the
single-reduction Z/p path and the table path for GF(p**k) must reproduce the
dense oracle bit for bit, along with everything derived from it.  The pivot
loop that skips empty columns a block at a time is also held to the
column-by-column loop it replaced (`column_rref`), on wide matrices with few
pivots and on every accepted input dtype.
"""

from fractions import Fraction
from itertools import chain

import numpy as np
import pytest

from modshift import (
    GFRing,
    InvalidParameterError,
    KernelShiftSpec,
    WindowConfig,
    WindowSpec,
    ZmodRing,
    linalg,
)
from modshift.crt import component_rule
from modshift.kernels import constraint_matrix, window_kernel
from modshift.linalg import nullspace, rank, rref, solve_affine
from modshift.measures import CosetHaarMeasure, kernel_haar
from modshift.rings import make_ring
from modshift.rng import CounterRng
from modshift.shiftpoly import parse_rule

from oracles import (
    column_rref,
    dense_nullspace,
    dense_rref,
    dense_solve_affine,
    solved_pinned_probability,
)

FIELDS = [
    ZmodRing(2),
    ZmodRing(3),
    ZmodRing(5),
    ZmodRing(65521),
    GFRing(2, 2),
    GFRing(3, 2),
    GFRing(2, 1),
    GFRing(5, 1),
]

# (rows, cols, density): empty, all-zero, tall, wide, square, and wider than
# two packed 64-bit words.
SHAPES = [
    (0, 0, 1.0),
    (0, 5, 1.0),
    (5, 0, 1.0),
    (4, 6, 0.0),
    (1, 1, 1.0),
    (12, 5, 1.0),
    (5, 12, 1.0),
    (9, 9, 0.3),
    (20, 140, 0.5),
    (70, 150, 0.05),
    (140, 131, 0.02),
]


def random_matrix(ring, rows, cols, seed, density=1.0):
    rng = CounterRng(seed, stream=67)
    vals = rng.uniform_codes(0, (rows, cols), ring.size)
    if density < 1.0:
        keep = rng.uniform_codes(rows * cols + 1, (rows, cols), 1000) < int(1000 * density)
        vals = np.where(keep, vals, 0)
    return vals


def ring_matmul(ring, a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(a.shape[1]):
        out = ring.add_arr(out, ring.mul_arr(a[:, k, None], b[k][None, :]))
    return out


def rank_deficient(ring, rows, cols, inner, seed):
    return ring_matmul(
        ring,
        random_matrix(ring, rows, inner, seed),
        random_matrix(ring, inner, cols, seed + 1),
    )


def cases(ring):
    for seed, (rows, cols, density) in enumerate(SHAPES):
        yield random_matrix(ring, rows, cols, seed, density)
    yield rank_deficient(ring, 10, 8, 3, 40)
    yield rank_deficient(ring, 6, 135, 4, 42)
    yield rank_deficient(ring, 135, 70, 5, 44)


def kernel_shaped(ring):
    """Few rows and thousands of columns, nonzero only in the `live` columns:
    zero runs of 64 and more across word boundaries, live columns at word
    edges and in the last column, all-zero matrices, and (rank-deficient)
    columns that are nonzero only above the current pivot row."""
    cols = 2500
    lives = [
        [0, 1, 63, 64, 200, 1000, 1100, cols - 1],
        [70, 127, 128, 191, 1024, 2047, 2100],
        [cols - 1],
        [],
        [3 + 97 * k for k in range(25)],
    ]
    for seed, live in enumerate(lives):
        rows = 30 if len(live) > 10 else 6
        for m_live in (
            random_matrix(ring, rows, len(live), 300 + seed),
            rank_deficient(ring, rows, len(live), 2, 310 + seed),
        ):
            m = np.zeros((rows, cols), dtype=np.int64)
            m[:, live] = m_live
            yield m


def assert_same_rref(m, ring):
    """rref(m) equals dense_rref(m) and leaves m alone; returns the pivots."""
    frozen = m.copy()
    frozen.setflags(write=False)
    got, got_piv = rref(frozen, ring)
    want, want_piv = dense_rref(frozen, ring)
    assert got.dtype == np.int64
    assert got_piv == want_piv
    assert np.array_equal(got, want)
    assert np.array_equal(frozen, m)
    return want_piv


@pytest.mark.parametrize("ring", FIELDS, ids=lambda r: r.descriptor())
def test_rref_rank_nullspace_match_dense_oracle(ring):
    for m in cases(ring):
        before = m.copy()
        assert_same_rref(m, ring)
        assert rank(m, ring) == len(dense_rref(m, ring)[1])
        got = nullspace(m, ring)
        want = dense_nullspace(m, ring)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(m, before)


@pytest.mark.parametrize("ring", FIELDS, ids=lambda r: r.descriptor())
def test_kernel_shaped_matrices_match_both_oracles(ring):
    for m in kernel_shaped(ring):
        pivots = assert_same_rref(m, ring)
        want, want_piv = column_rref(m, ring)
        assert pivots == want_piv
        assert np.array_equal(rref(m, ring)[0], want)
        assert np.array_equal(nullspace(m, ring), dense_nullspace(m, ring))


@pytest.mark.parametrize("ring", FIELDS, ids=lambda r: r.descriptor())
def test_narrow_dtypes_match_int64(ring):
    """bool, uint8, uint16 and int32 codes eliminate as their int64 values do,
    and none of them is written to."""
    for m in chain(cases(ring), kernel_shaped(ring)):
        for dtype in (np.bool_, np.uint8, np.uint16, np.int32):
            m = m.astype(np.int64)
            codes = m != 0 if dtype is np.bool_ else m % (int(np.iinfo(dtype).max) + 1)
            frozen = codes.astype(dtype)
            frozen.setflags(write=False)
            before = frozen.copy()
            got, got_piv = rref(frozen, ring)
            want, want_piv = column_rref(codes.astype(np.int64), ring)
            assert got.dtype == np.int64 and got_piv == want_piv
            assert np.array_equal(got, want)
            assert rank(frozen, ring) == len(want_piv)
            assert np.array_equal(frozen, before)


@pytest.mark.parametrize("ring", FIELDS, ids=lambda r: r.descriptor())
def test_pivot_loop_runs_once_per_pivot_or_block(ring, monkeypatch):
    """Per elimination, next_pivot is called at most rank + ceil(cols/64) + 1
    times: once per pivot and once per block of empty columns."""
    seen = []
    inner = linalg._echelon

    def counted(rows, cols, next_pivot, *callbacks):
        calls = []

        def spy(r, c):
            calls.append(c)
            return next_pivot(r, c)

        pivots = inner(rows, cols, spy, *callbacks)
        seen.append((len(calls), len(pivots), cols))
        return pivots

    monkeypatch.setattr(linalg, "_echelon", counted)
    for m in chain(cases(ring), kernel_shaped(ring)):
        rref(m, ring)
    assert seen
    for calls, rank_, cols in seen:
        assert calls <= rank_ + -(-cols // 64) + 1, (calls, rank_, cols)


@pytest.mark.parametrize("ring", FIELDS, ids=lambda r: r.descriptor())
def test_solve_affine_matches_dense_oracle(ring):
    for i, m in enumerate(cases(ring)):
        rows, cols = m.shape
        x = random_matrix(ring, 1, cols, 90 + i)[0]
        consistent = ring_matmul(ring, m, x[:, None])[:, 0] if cols else np.zeros(rows, dtype=np.int64)
        arbitrary = random_matrix(ring, 1, rows, 190 + i)[0]
        for b in (consistent, arbitrary):
            before_m, before_b = m.copy(), b.copy()
            got_x, got_basis = solve_affine(m, b, ring)
            want_x, want_basis = dense_solve_affine(m, b, ring)
            assert (got_x is None) == (want_x is None)
            if want_x is not None:
                assert np.array_equal(got_x, want_x)
            assert np.array_equal(got_basis, want_basis)
            assert np.array_equal(m, before_m) and np.array_equal(b, before_b)
        assert solve_affine(m, consistent, ring)[0] is not None


PARITY = "kernel ring=zmod:2 rank=1 dims=1,1 H=(-1,0):1;(0,0):1;(1,0):1;(0,1):1"


@pytest.mark.parametrize("side", [16, 32])
def test_parity_kernel_matches_dense_oracle(side):
    spec = KernelShiftSpec(parse_rule(PARITY, expect_prefix="kernel"))
    window = WindowSpec((1, 1), (0, 0), (side, side))
    matrix = constraint_matrix(spec, window)
    want_piv = assert_same_rref(matrix, spec.ring)
    ((_, basis, free),) = window_kernel(spec, window).components
    assert np.array_equal(basis, dense_nullspace(matrix, spec.ring))
    assert free == tuple(c for c in range(window.n_sites) if c not in set(want_piv))


@pytest.mark.parametrize(
    "text",
    [
        "kernel ring=zmod:3 rank=1 dims=1,1 H=(0,0):1;(1,0):2;(0,1):1",
        "kernel ring=zmod:65521 rank=1 dims=1,1 H=(0,0):7;(1,0):65520;(0,1):3",
        "kernel ring=gf:2:2 rank=1 dims=1,1 H=(0,0):1;(1,0):2;(0,1):3",
        "kernel ring=gf:3:2 rank=1 dims=1,1 H=(0,0):1;(1,0):5;(0,1):7",
        "kernel ring=zmod:6 rank=1 dims=1,1 H=(-1,0):1;(0,0):1;(1,0):1;(0,1):1",
    ],
)
def test_window_kernel_matches_dense_oracle(text):
    spec = KernelShiftSpec(parse_rule(text, expect_prefix="kernel"))
    window = WindowSpec((1, 1), (0, 0), (7, 5))
    basis = window_kernel(spec, window)
    deco = basis.decomposition
    component_specs = [
        KernelShiftSpec(component_rule(spec.constraint, deco, j)) for j in range(deco.n_components)
    ]
    assert len(component_specs) == len(basis.components)
    for comp_spec, (ring, got_basis, free) in zip(component_specs, basis.components):
        matrix = constraint_matrix(comp_spec, window)
        _, pivots = dense_rref(matrix, ring)
        assert np.array_equal(got_basis, dense_nullspace(matrix, ring))
        assert free == tuple(c for c in range(window.n_sites) if c not in set(pivots))


@pytest.mark.parametrize(
    "ring, value, row, col",
    [
        (ZmodRing(2), 2, 1, 2),
        (ZmodRing(5), -1, 0, 3),
        (ZmodRing(65521), 65521, 2, 0),
        (GFRing(2, 2), 4, 1, 1),
    ],
    ids=lambda v: v.descriptor() if hasattr(v, "descriptor") else None,
)
def test_rref_rejects_out_of_range_codes(ring, value, row, col):
    m = np.zeros((3, 4), dtype=np.int64)
    m[0, 0] = ring.one
    m[row, col] = value
    with pytest.raises(InvalidParameterError, match=f"row {row}, column {col} is {value}"):
        rref(m, ring)
    with pytest.raises(InvalidParameterError, match=f"row {row}, column {col}"):
        solve_affine(m, np.zeros(3, dtype=np.int64), ring)


def test_rref_refuses_floats_naming_the_entry():
    with pytest.raises(InvalidParameterError, match="row 0, column 0 is 0.5, not a code of zmod:3"):
        rref([[0.5, 1.7], [2.9, 1.0]], ZmodRing(3))
    # Whole floats too: a float matrix is refused at its first entry.
    with pytest.raises(InvalidParameterError, match="row 0, column 0 is 2.0"):
        rank(np.array([[2, 1], [1, 0]], dtype=np.float64), ZmodRing(3))
    with pytest.raises(InvalidParameterError, match="right-hand side entry at row 0 is 1.5"):
        solve_affine(np.eye(2, dtype=np.int64), [1.5, 2], ZmodRing(3))


def test_rref_refuses_a_ragged_list_naming_the_row():
    with pytest.raises(InvalidParameterError, match="ragged: row 2 has 3 columns and row 0 has 2"):
        rref([[1, 0], [0, 1], [1, 0, 1]], ZmodRing(2))
    with pytest.raises(InvalidParameterError, match=r"row 0, column 1 is \[2, 1\]"):
        rank([[1, [2, 1]], [1, 1]], ZmodRing(3))


def test_rref_refuses_big_ints_with_their_value():
    big = 2**70
    for matrix in (np.array([[1, 0], [0, big]], dtype=object), [[1, 0], [0, big]]):
        with pytest.raises(InvalidParameterError, match=f"row 1, column 1 is {big},"):
            rref(matrix, ZmodRing(5))
    assert rank(np.array([[1, 2], [2, 4]], dtype=object), ZmodRing(5)) == 1


def test_rref_reports_uint64_entries_unsigned():
    m = np.array([[1, 0], [0, 2**63]], dtype=np.uint64)
    with pytest.raises(InvalidParameterError, match=f"row 1, column 1 is {2**63},"):
        rref(m, ZmodRing(2))
    with pytest.raises(InvalidParameterError, match=f"row 1, column 1 is {2**63},"):
        rank(m, GFRing(3, 2))


def test_solve_affine_names_the_right_hand_side_entry():
    with pytest.raises(InvalidParameterError, match="right-hand side entry at row 1 is 5, not a code"):
        solve_affine(np.eye(2, dtype=np.int64), np.array([0, 5]), ZmodRing(3))


PINNED_KERNELS = ["zmod:2", "zmod:3", "gf:2:2", "zmod:6"]


@pytest.mark.parametrize("desc", PINNED_KERNELS)
def test_pinned_probability_matches_solved_oracle(desc):
    """One rref of [A | b] per span gives the probability `solve_affine` gave,
    for the kernel's Haar handle and a coset of it, 0 on inconsistent pins."""
    ring = make_ring(desc)
    text = f"kernel ring={desc} rank=1 dims=1,1 H=(-1,0):1;(0,0):1;(1,0):1;(0,1):1"
    spec = KernelShiftSpec(parse_rule(text, expect_prefix="kernel"))
    window = WindowSpec((1, 1), (0, 0), (5, 4))
    sub = kernel_haar(spec, window)
    rng = CounterRng(11, stream=3)
    rep = rng.uniform_codes(0, window.extents + (1,), ring.size)
    coset = CosetHaarMeasure(WindowConfig(window, sub.module, rep), sub)
    words = sub.merged_generators()
    sites = list(window.sites())
    outcomes = set()
    for k, n in enumerate([1, 2, 3, 5, 8, 13, 20]):
        idx = np.argsort(rng.uniform_codes(100 + k, (window.n_sites,), 1 << 16))[:n]
        for vals in (
            np.zeros((n, 1), dtype=np.int64),
            words[k % len(words)][idx, None],
            rng.uniform_codes(200 + k, (n, 1), ring.size),
        ):
            want = solved_pinned_probability(sub, idx, vals)
            assert sub._pinned_probability(idx, vals) == want
            shifted = ring.add_arr(vals, rep.reshape(-1, 1)[idx])
            pins = {sites[i]: tuple(int(v) for v in shifted[t]) for t, i in enumerate(idx)}
            assert coset.cylinder_probability(pins) == want
            outcomes.add(want > 0)
    assert outcomes == {True, False}
    assert sub._pinned_probability(np.arange(0), np.zeros((0, 1), dtype=np.int64)) == Fraction(1)
