"""Deterministic exact linear algebra over finite fields.

Matrices are numpy int64 arrays of ring element codes; every entry must be a
code in ``[0, q)``.  Elimination uses a fixed pivot discipline (columns left
to right, first nonzero row) and returns the reduced row echelon form, which
is unique: any correct elimination of the same matrix yields the same RREF
and pivot list.  That is what lets the field-specific paths below differ in
mechanism while echelon forms, ranks, and nullspace bases stay
bit-reproducible:

* GF(2) (``zmod:2`` and ``gf:2:1``): rows are packed eight columns per byte
  (``np.packbits``) and padded to whole 64-bit words, so a row update is one
  XOR over the packed words from the pivot's word onward.
* Prime fields Z/p (``zmod:p`` and ``gf:p:1``): a row update is
  ``(rows - f * pivot) % p``, reduced once.  Entries and factors lie in
  ``[0, p)`` and p <= 2**16, so every intermediate is below p**2 <= 2**32,
  far inside int64.
* GF(p**k), k > 1: the ring's table arithmetic.

Every path updates only the columns from the pivot column onward; to the
left of it the pivot row is already zero.  The path is chosen from the ring
alone.  Composite moduli are not handled here; callers split them through the
crt module.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .rings import Ring

__all__ = [
    "rref",
    "rank",
    "nullspace",
    "nullspace_from_rref",
    "solve_affine",
    "row_span_rank",
]


def _check_field(ring: Ring):
    if not ring.is_field:
        raise InvalidParameterError(
            f"{ring.descriptor()} is not a field; split composite characteristics first"
        )


def _check_codes(m: np.ndarray, ring: Ring):
    q = ring.size
    if m.size == 0 or (m.min() >= 0 and m.max() < q):
        return
    i, j = (int(x) for x in np.argwhere((m < 0) | (m >= q))[0])
    raise InvalidParameterError(
        f"matrix entry at row {i}, column {j} is {int(m[i, j])}, "
        f"not a code of {ring.descriptor()} (expected 0..{q - 1})"
    )


def _echelon(rows, cols, nonzero_rows, swap, normalize, eliminate):
    """The shared pivot discipline; the callbacks act on one storage layout.

    ``nonzero_rows(c)`` lists the rows with a nonzero entry in column c,
    ``swap(r, i, c)`` exchanges rows r and i, ``normalize(r, c)`` scales row r
    to a unit pivot and ``eliminate(hit, r, c)`` clears column c in the rows
    ``hit`` with row r.  Returns the pivot columns.
    """
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = nonzero_rows(c)
        below = nz[nz >= r]
        if below.size == 0:
            continue
        i = int(below[0])
        if i != r:
            # Row r is zero in column c here, so after the swap the rows to
            # clear are exactly the old nonzero rows other than i.
            swap(r, i, c)
        normalize(r, c)
        hit = nz[nz != i]
        if hit.size:
            eliminate(hit, r, c)
        pivots.append(c)
        r += 1
    return pivots


def _rref_gf2(m: np.ndarray):
    rows, cols = m.shape
    bits = np.zeros((rows, 8 * -(-cols // 64)), dtype=np.uint8)
    bits[:, : -(-cols // 8)] = np.packbits(m.astype(np.uint8), axis=1)
    words = bits.view(np.uint64)

    def nonzero_rows(c):
        return np.flatnonzero(bits[:, c >> 3] & (0x80 >> (c & 7)))

    def swap(r, i, c):
        words[[r, i], c >> 6 :] = words[[i, r], c >> 6 :]

    def normalize(r, c):
        pass  # 1 is the only unit

    def eliminate(hit, r, c):
        words[hit, c >> 6 :] ^= words[r, c >> 6 :]

    pivots = _echelon(rows, cols, nonzero_rows, swap, normalize, eliminate)
    return np.unpackbits(bits, axis=1, count=cols).astype(np.int64), pivots


def _rref_prime(m: np.ndarray, p: int):
    def nonzero_rows(c):
        return np.flatnonzero(m[:, c])

    def swap(r, i, c):
        m[[r, i], c:] = m[[i, r], c:]

    def normalize(r, c):
        inv = pow(int(m[r, c]), -1, p)
        if inv != 1:
            m[r, c:] = m[r, c:] * inv % p

    def eliminate(hit, r, c):
        m[hit, c:] = (m[hit, c:] - m[hit, c, None] * m[r, c:]) % p

    return m, _echelon(*m.shape, nonzero_rows, swap, normalize, eliminate)


def _rref_tables(m: np.ndarray, ring: Ring):
    def nonzero_rows(c):
        return np.flatnonzero(m[:, c])

    def swap(r, i, c):
        m[[r, i], c:] = m[[i, r], c:]

    def normalize(r, c):
        m[r, c:] = ring.mul_arr(np.int64(ring.inverse(int(m[r, c]))), m[r, c:])

    def eliminate(hit, r, c):
        m[hit, c:] = ring.sub_arr(m[hit, c:], ring.mul_arr(m[hit, c, None], m[r, c:]))

    return m, _echelon(*m.shape, nonzero_rows, swap, normalize, eliminate)


def rref(matrix: np.ndarray, ring: Ring):
    """Reduced row echelon form. Returns (rref matrix, pivot column list).

    The input is never modified.  Entries outside ``[0, q)`` are refused with
    an error naming their row, column and value.
    """
    _check_field(ring)
    m = np.array(matrix, dtype=np.int64)
    if m.ndim != 2:
        raise InvalidParameterError("matrix must be 2-dimensional")
    _check_codes(m, ring)
    if ring.size == 2:
        return _rref_gf2(m)
    if ring.size == ring.characteristic:
        return _rref_prime(m, ring.size)
    return _rref_tables(m, ring)


def rank(matrix: np.ndarray, ring: Ring) -> int:
    _, pivots = rref(matrix, ring)
    return len(pivots)


def row_span_rank(rows: np.ndarray, ring: Ring) -> int:
    if rows.size == 0:
        return 0
    return rank(rows, ring)


def nullspace_from_rref(reduced: np.ndarray, pivots, ring: Ring):
    """(basis, free columns) of {x : M x = 0}, read off RREF(M) and its pivots.

    Free coordinates are the non-pivot columns in left-to-right order; basis
    vector j has a 1 at the j-th free coordinate and minus the reduced
    matrix's entries of that column at the pivot coordinates.
    """
    cols = reduced.shape[1]
    piv = np.array(pivots, dtype=np.intp)
    is_free = np.ones(cols, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = ring.one
    if piv.size and free.size:
        basis[:, piv] = ring.neg_arr(reduced[: piv.size][:, free].T)
    return basis, tuple(int(c) for c in free)


def nullspace(matrix: np.ndarray, ring: Ring) -> np.ndarray:
    """Basis of {x : M x = 0}, one row per basis vector (see nullspace_from_rref)."""
    m, pivots = rref(matrix, ring)
    basis, _ = nullspace_from_rref(m, pivots, ring)
    return basis


def solve_affine(matrix: np.ndarray, rhs: np.ndarray, ring: Ring):
    """Solve M x = b. Returns (particular solution | None, nullspace basis).

    One elimination of [M | b] answers both: its left block is RREF(M), so the
    nullspace basis is read off the same reduced matrix.
    """
    m = np.asarray(matrix, dtype=np.int64)
    b = np.asarray(rhs, dtype=np.int64).reshape(-1, 1)
    if m.shape[0] != b.shape[0]:
        raise InvalidParameterError("rhs length != row count")
    aug, pivots = rref(np.hstack([m, b]), ring)
    cols = m.shape[1]
    consistent = not pivots or pivots[-1] != cols
    left = pivots if consistent else pivots[:-1]
    basis, _ = nullspace_from_rref(aug[:, :cols], left, ring)
    if not consistent:
        return None, basis
    x = np.zeros(cols, dtype=np.int64)
    x[left] = aug[: len(left), cols]
    return x, basis
