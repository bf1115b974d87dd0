"""Deterministic exact linear algebra over finite fields.

Matrices hold ring element codes in ``[0, q)``: bool and integer arrays of
any width, read in their own dtype, or lists and object arrays of ints.  A
ragged list, a float or any other entry that is not a code is refused with
an error naming its row, column and value.  Elimination uses a fixed pivot
discipline (columns left to right, first nonzero row) and returns the
reduced row echelon form, which is unique: any correct elimination of the
same matrix yields the same RREF and pivot list.  That is what lets the
field-specific paths below differ in mechanism while echelon forms, ranks,
and nullspace bases stay bit-reproducible:

* GF(2) (``zmod:2`` and ``gf:2:1``): rows are packed eight columns per byte
  (``np.packbits``) and padded to whole 64-bit words, so a row update is one
  XOR over the packed words from the pivot's word onward.
* Prime fields Z/p (``zmod:p`` and ``gf:p:1``): a row update is
  ``(rows - f * pivot) % p``, reduced once.  Entries and factors lie in
  ``[0, p)`` and p <= 2**16, so every intermediate is below p**2 <= 2**32,
  far inside int64.
* GF(p**k), k > 1: the ring's table arithmetic.

The pivot loop runs once per pivot, not once per column: past an empty
column it scans ahead a block at a time (a packed word over GF(2), 64
columns otherwise).  Every path updates only the columns from the pivot
column onward; to the left of it the pivot row is already zero.  The path is
chosen from the ring alone.  Composite moduli are not handled here; callers
split them through the crt module.
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


def _not_a_code(what, index, value, ring: Ring):
    place = ", ".join(f"{axis} {i}" for axis, i in zip(("row", "column"), index))
    return InvalidParameterError(
        f"{what} entry at {place} is {value}, "
        f"not a code of {ring.descriptor()} (expected 0..{ring.size - 1})"
    )


def _codes(matrix, ring: Ring, what="matrix", ndim=2):
    """The caller's codes, checked: bool and integer arrays as they are (no
    copy), any other input as int64 once every entry is a Python int code."""
    try:
        m = np.asarray(matrix)
    except ValueError:
        widths = [len(row) if hasattr(row, "__len__") else 1 for row in matrix]
        i = next((i for i, w in enumerate(widths) if w != widths[0]), None)
        if i is not None:
            raise InvalidParameterError(
                f"{what} is ragged: row {i} has {widths[i]} columns and row 0 has {widths[0]}"
            ) from None
        m = np.asarray(matrix, dtype=object)  # some entry is itself a sequence
    if ndim is not None and m.ndim != ndim:
        raise InvalidParameterError(f"{what} must be {ndim}-dimensional")
    q = ring.size
    if m.dtype.kind not in "biu":
        m = np.asarray(matrix, dtype=object)  # a list's big ints stay exact
        for index, value in np.ndenumerate(m):
            if not isinstance(value, (int, np.integer)) or not 0 <= value < q:
                raise _not_a_code(what, index, value, ring)
        return m.astype(np.int64)
    if m.size and (m.min() < 0 or m.max() >= q):
        index = tuple(int(x) for x in np.argwhere((m < 0) | (m >= q))[0])
        raise _not_a_code(what, index, int(m[index]), ring)
    return m


def _echelon(rows, cols, next_pivot, swap, normalize, eliminate):
    """The shared pivot discipline; the callbacks act on one storage layout.

    ``next_pivot(r, c)`` returns the first column from c on that is nonzero
    at or below row r, with the rows where it is nonzero, if one lies in the
    block it scans; else ``(end, None)`` with ``end`` past that block.
    ``swap(r, i, c)`` exchanges rows r and i, ``normalize(r, c)`` scales row r
    to a unit pivot and ``eliminate(hit, r, c)`` clears column c in the rows
    ``hit`` with row r.  Returns the pivot columns.
    """
    pivots = []
    r = c = 0
    while r < rows and c < cols:
        c, nz = next_pivot(r, c)
        if nz is None:
            continue
        i = int(nz[nz.searchsorted(r)])
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
        c += 1
    return pivots


def _rref_gf2(m: np.ndarray):
    rows, cols = m.shape
    # One spare word, so that a scan may start at column `cols`.
    bits = np.zeros((rows, 8 * (cols // 64 + 1)), dtype=np.uint8)
    bits[:, : -(-cols // 8)] = np.packbits(m != 0, axis=1)
    words = bits.view(np.uint64)

    def column(c):
        return np.flatnonzero(bits[:, c >> 3] & (0x80 >> (c & 7)))

    def next_pivot(r, c):
        nz = column(c)
        if nz.size and int(nz[-1]) >= r:
            return c, nz
        # Read big-endian, a word's first column is its top bit.
        start = c + 1
        w = start >> 6
        acc = int.from_bytes(np.bitwise_or.reduce(words[r:, w]).tobytes(), "big")
        live = acc & ((1 << (64 - (start & 63))) - 1)
        if not live:
            return (w + 1) << 6, None
        c = (w << 6) + 64 - live.bit_length()
        return c, column(c)

    def swap(r, i, c):
        words[[r, i], c >> 6 :] = words[[i, r], c >> 6 :]

    def normalize(r, c):
        pass  # 1 is the only unit

    def eliminate(hit, r, c):
        words[hit, c >> 6 :] ^= words[r, c >> 6 :]

    pivots = _echelon(rows, cols, next_pivot, swap, normalize, eliminate)
    return np.unpackbits(bits, axis=1, count=cols).astype(np.int64), pivots


def _rref_codes(m: np.ndarray, ring: Ring):
    """Z/p reduces each row update once; GF(p**k) uses the ring's tables."""
    p = ring.size

    def next_pivot(r, c):
        nz = np.flatnonzero(m[:, c])
        if nz.size and int(nz[-1]) >= r:
            return c, nz
        end = min(c + 65, m.shape[1])
        hit = np.flatnonzero(m[r:, c + 1 : end].any(axis=0))
        if not hit.size:
            return end, None
        c += 1 + int(hit[0])
        return c, np.flatnonzero(m[:, c])

    def swap(r, i, c):
        m[[r, i], c:] = m[[i, r], c:]

    if p == ring.characteristic:
        def normalize(r, c):
            inv = pow(int(m[r, c]), -1, p)
            if inv != 1:
                m[r, c:] = m[r, c:] * inv % p

        def eliminate(hit, r, c):
            m[hit, c:] = (m[hit, c:] - m[hit, c, None] * m[r, c:]) % p
    else:
        def normalize(r, c):
            m[r, c:] = ring.mul_arr(np.int64(ring.inverse(int(m[r, c]))), m[r, c:])

        def eliminate(hit, r, c):
            m[hit, c:] = ring.sub_arr(m[hit, c:], ring.mul_arr(m[hit, c, None], m[r, c:]))

    return m, _echelon(*m.shape, next_pivot, swap, normalize, eliminate)


def rref(matrix: np.ndarray, ring: Ring):
    """Reduced row echelon form. Returns (rref matrix, pivot column list).

    The input is never modified; malformed input is refused (module docstring).
    """
    _check_field(ring)
    m = _codes(matrix, ring)
    if ring.size == 2:
        return _rref_gf2(m)
    return _rref_codes(np.array(m, dtype=np.int64), ring)


def rank(matrix: np.ndarray, ring: Ring) -> int:
    _, pivots = rref(matrix, ring)
    return len(pivots)


def row_span_rank(rows: np.ndarray, ring: Ring) -> int:
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
    _check_field(ring)
    m = _codes(matrix, ring)
    b = _codes(rhs, ring, "right-hand side", ndim=None).reshape(-1, 1)
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
