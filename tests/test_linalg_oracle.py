"""Differential tests: the field-specific elimination paths against dense_rref.

The reduced row echelon form is unique, so the packed GF(2) path, the
single-reduction Z/p path and the table path for GF(p**k) must reproduce the
dense oracle bit for bit, along with everything derived from it.
"""

import numpy as np
import pytest

from modshift import GFRing, InvalidParameterError, KernelShiftSpec, WindowSpec, ZmodRing
from modshift.crt import component_rule
from modshift.kernels import constraint_matrix, window_kernel
from modshift.linalg import nullspace, rank, rref, solve_affine
from modshift.rng import CounterRng
from modshift.shiftpoly import parse_rule

from oracles import dense_nullspace, dense_rref, dense_solve_affine

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
