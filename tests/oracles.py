"""Independent oracles shared by the test modules.

These deliberately avoid the library's solvers: the zeroth-row oracle works
from the space-time recursion of the parity kernel, and the brute-force kernel
oracle enumerates words and evaluates raw stencil sums.  The dense elimination
oracle is the library's original full-row ``rref`` kept as the reference for
the field-specific elimination paths.
"""

from fractions import Fraction

import numpy as np


def trinomial_row(n):
    """Coefficients of (x**-1 + 1 + x)**n over Z/2 as {offset: 1}."""
    coeffs = {0: 1}
    for _ in range(n):
        nxt = {}
        for j, c in coeffs.items():
            for d in (-1, 0, 1):
                nxt[j + d] = (nxt.get(j + d, 0) + c) % 2
        coeffs = {j: c for j, c in nxt.items() if c}
    return coeffs


def zeroth_row_probability(pins, col_range=64):
    """Exact probability of pinned sites (z, n) -> value under the measure whose
    zeroth row is i.i.d. uniform over Z/2 and whose rows evolve by the
    XOR-of-three rule: 2**-rank of the pinned linear system, or 0."""
    cols = list(range(-col_range, col_range + 1))
    col_index = {c: i for i, c in enumerate(cols)}
    rows = []
    rhs = []
    for (z, n), value in pins.items():
        form = np.zeros(len(cols), dtype=np.int64)
        for j, c in trinomial_row(n).items():
            form[col_index[z + j]] = c
        rows.append(form)
        rhs.append(value[0] if isinstance(value, tuple) else value)
    matrix = np.array(rows, dtype=np.int64) % 2
    rhs = np.array(rhs, dtype=np.int64) % 2
    aug = np.hstack([matrix, rhs[:, None]])
    r = 0
    for c in range(aug.shape[1] - 1):
        piv = None
        for i in range(r, aug.shape[0]):
            if aug[i, c]:
                piv = i
                break
        if piv is None:
            continue
        aug[[r, piv]] = aug[[piv, r]]
        for i in range(aug.shape[0]):
            if i != r and aug[i, c]:
                aug[i] = (aug[i] + aug[r]) % 2
        r += 1
    for i in range(r, aug.shape[0]):
        if aug[i, -1] and not aug[i, :-1].any():
            return Fraction(0)
    return Fraction(1, 2**r)


def brute_kernel_words(spec, window):
    """All window words passing every fully-supported constraint, by direct
    stencil-sum evaluation over exhaustive enumeration."""
    ring = spec.ring
    rule = spec.constraint
    sites = list(window.sites())
    n = len(sites)
    out = []
    lo = [min(off[i] for off in rule.offsets) for i in range(window.axes)]
    anchors = []
    for s in sites:
        for delta in _anchor_deltas(lo):
            anchors.append(tuple(a + d for a, d in zip(s, delta)))
    anchors = sorted(set(anchors))
    for code in range(ring.size**n):
        vals = {}
        c = code
        for s in sites:
            vals[s] = c % ring.size
            c //= ring.size
        ok = True
        for anchor in anchors:
            reads = [tuple(a + b for a, b in zip(anchor, off)) for off in rule.offsets]
            if not all(r in vals for r in reads):
                continue
            acc = 0
            for r, coef in zip(reads, rule.coeffs):
                acc = ring.add(acc, ring.mul(coef, vals[r]))
            if acc != 0:
                ok = False
                break
        if ok:
            out.append(tuple(vals[s] for s in sites))
    return out


def _anchor_deltas(lo):
    # anchors can sit below a site by as much as the most negative offset
    from itertools import product

    ranges = [range(min(0, l), 1) for l in lo]
    return list(product(*ranges))


def dense_rref(matrix, ring):
    """Reduced row echelon form by full-row ring arithmetic on int64 codes.

    The original dense elimination: every row update runs the ring's
    vectorized multiply and subtract over whole rows.  Returns (rref matrix,
    pivot column list).
    """
    if not ring.is_field:
        raise ValueError(f"{ring.descriptor()} is not a field")
    m = np.array(matrix, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        col = m[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = ring.inverse(int(m[r, c]))
        m[r] = ring.mul_arr(np.int64(inv), m[r])
        factors = m[:, c].copy()
        factors[r] = 0
        hit = np.nonzero(factors)[0]
        if hit.size:
            m[hit] = ring.sub_arr(
                m[hit], ring.mul_arr(factors[hit][:, None], m[r][None, :])
            )
        pivots.append(c)
        r += 1
    return m, pivots


def dense_nullspace(matrix, ring):
    """Nullspace basis from dense_rref, filled entry by entry."""
    m, pivots = dense_rref(matrix, ring)
    cols = m.shape[1]
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[j, fc] = ring.one
        for r, pc in enumerate(pivots):
            basis[j, pc] = ring.neg(int(m[r, fc]))
    return basis


def dense_solve_affine(matrix, rhs, ring):
    """Solve M x = b with one dense_rref of [M | b] and a second for the nullspace."""
    m = np.asarray(matrix, dtype=np.int64)
    b = np.asarray(rhs, dtype=np.int64).reshape(-1, 1)
    aug, pivots = dense_rref(np.hstack([m, b]), ring)
    cols = m.shape[1]
    if any(p == cols for p in pivots):
        return None, dense_nullspace(m, ring)
    x = np.zeros(cols, dtype=np.int64)
    for r, pc in enumerate(pivots):
        x[pc] = aug[r, cols]
    return x, dense_nullspace(m, ring)
