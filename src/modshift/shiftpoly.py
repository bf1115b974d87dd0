"""The Laurent-polynomial-of-shifts calculus for linear cellular automata.

A local rule with neighbourhood offsets h and nonzero coefficients c_h acts as
``a -> sum_h c_h * shift(a, h)``; composing rules multiplies their polynomials,
and iterating t times raises to the t-th power.  Over a ring of prime
characteristic p, the p**k-th power collapses to one sparse pass:

    sum_h c_h**(p**k) * shift(a, p**k * h)

which this module exposes both as a structural identity on term maps
(`frobenius_power`) and as the fast path for large iteration counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import (
    ConfigParseError,
    DomainExhaustedError,
    InvalidParameterError,
    RingMismatchError,
    UnsupportedCharacteristicError,
)
from .lattice import WindowConfig, WindowSpec
from .rings import ModuleSpec, Ring, is_prime, parse_ring, term_product

__all__ = [
    "LocalRule",
    "ShiftPolynomial",
    "from_rule",
    "poly_mul",
    "poly_pow",
    "poly_pow_charp",
    "frobenius_power",
    "apply_poly",
    "stencil",
    "TorusStencil",
    "parse_rule",
    "format_rule",
]


def _validate_offsets(offsets, dims):
    D, E = dims
    n = D + E
    seen = set()
    for h in offsets:
        h = tuple(int(x) for x in h)
        if len(h) != n:
            raise InvalidParameterError(f"offset {h} has arity {len(h)}, want {n}")
        if h in seen:
            raise InvalidParameterError(f"duplicate offset {h}")
        seen.add(h)
        for i in range(D, n):
            if h[i] < 0:
                raise InvalidParameterError(
                    f"offset {h} has negative N-axis component (axis {i})"
                )
    return [tuple(int(x) for x in h) for h in offsets]


@dataclass(frozen=True)
class LocalRule:
    """Finite neighbourhood plus one nonzero ring coefficient per offset."""

    module: ModuleSpec
    dims: tuple
    offsets: tuple
    coeffs: tuple

    def __post_init__(self):
        offs = _validate_offsets(self.offsets, self.dims)
        coeffs = tuple(int(c) for c in self.coeffs)
        if len(offs) != len(coeffs):
            raise InvalidParameterError("offsets and coeffs length differ")
        if not offs:
            raise InvalidParameterError("neighbourhood must be nonempty")
        ring = self.module.ring
        for c in coeffs:
            if not 0 < c < ring.size:
                raise InvalidParameterError(f"coefficient {c} is zero or out of range")
        object.__setattr__(self, "offsets", tuple(offs))
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def ring(self) -> Ring:
        return self.module.ring

    def apply(self, config: WindowConfig) -> WindowConfig:
        return apply_poly(from_rule(self), config)

    def all_units(self) -> bool:
        return all(self.ring.is_unit(c) for c in self.coeffs)


@dataclass(frozen=True)
class ShiftPolynomial:
    """Finitely supported offset -> nonzero coefficient map over a ring."""

    ring: Ring
    dims: tuple
    terms: tuple  # sorted tuple of (offset, coeff); canonical form

    @staticmethod
    def from_terms(ring, dims, mapping) -> "ShiftPolynomial":
        items = []
        for off, c in mapping.items() if isinstance(mapping, dict) else mapping:
            c = int(c)
            if c == 0:
                continue
            if not 0 < c < ring.size:
                raise InvalidParameterError(f"coefficient {c} out of range")
            items.append((tuple(int(x) for x in off), c))
        items.sort()
        for (a, _), (b, _) in zip(items, items[1:]):
            if a == b:
                raise InvalidParameterError(f"duplicate offset {a}")
        return ShiftPolynomial(ring, (int(dims[0]), int(dims[1])), tuple(items))

    @property
    def support(self):
        return tuple(off for off, _ in self.terms)

    def term_map(self) -> dict:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other):
        return poly_mul(self, other)

    def __pow__(self, t):
        return poly_pow(self, t)


def identity_poly(ring, dims) -> ShiftPolynomial:
    n = dims[0] + dims[1]
    return ShiftPolynomial.from_terms(ring, dims, {(0,) * n: ring.one})


def from_rule(rule: LocalRule) -> ShiftPolynomial:
    return ShiftPolynomial.from_terms(
        rule.ring, rule.dims, dict(zip(rule.offsets, rule.coeffs))
    )


def _term_arrays(poly: ShiftPolynomial):
    """(offsets, codes) of the terms: offsets int64 when they fit, else Python ints."""
    offs = [off for off, _ in poly.terms]
    try:
        offs = np.array(offs, dtype=np.int64)
    except OverflowError:
        offs = np.array(offs, dtype=object)
    return offs, np.array([c for _, c in poly.terms], dtype=np.int64)


def _box(offs, codes):
    """Dense coefficient box of int64 term arrays, plus the box's minimum corner."""
    lo = offs.min(axis=0)
    box = np.zeros(tuple((offs.max(axis=0) - lo + 1).tolist()), dtype=np.int64)
    box[tuple((offs - lo).T)] = codes
    return box, lo


def poly_mul(a: ShiftPolynomial, b: ShiftPolynomial) -> ShiftPolynomial:
    """Product: convolution of term maps with ring-coefficient products.

    When nnz(a) * nnz(b) is at most the output box's cell count, or an offset
    sum could leave int64, it runs on term arrays (`term_product`, then
    `Ring.run_sums`); denser products convolve boxes (`Ring.convolve_codes`).
    """
    if not isinstance(b, ShiftPolynomial):
        raise RingMismatchError(f"cannot multiply polynomial by {type(b).__name__}")
    if a.ring != b.ring:
        raise RingMismatchError("polynomial rings differ")
    if a.dims != b.dims:
        raise RingMismatchError("polynomial lattice dims differ")
    if a.is_zero or b.is_zero:
        return ShiftPolynomial.from_terms(a.ring, a.dims, {})
    ring = a.ring
    (oa, va), (ob, vb) = _term_arrays(a), _term_arrays(b)
    lo_a, hi_a, lo_b, hi_b = (o.tolist() for o in (oa.min(0), oa.max(0), ob.min(0), ob.max(0)))
    wide = max(map(abs, lo_a + hi_a)) + max(map(abs, lo_b + hi_b)) >= 1 << 63
    cells = prod(ha - la + hb - lb + 1 for la, ha, lb, hb in zip(lo_a, hi_a, lo_b, hi_b))
    if wide or len(va) * len(vb) <= cells:
        if wide:
            oa, ob = oa.astype(object), ob.astype(object)
        offs, products, starts = term_product(oa, va, ob, vb, ring.mul_arr)
        codes = ring.run_sums(products, starts)
    else:
        (box_a, lo_a), (box_b, lo_b) = _box(oa, va), _box(ob, vb)
        box = ring.convolve_codes(box_a, box_b)
        offs = np.argwhere(box)  # the nonzero cells in lexicographic order
        codes = box[tuple(offs.T)]
        offs += lo_a + lo_b
    keep = np.flatnonzero(codes)
    return ShiftPolynomial(ring, a.dims, tuple(zip(zip(*offs[keep].T.tolist()), codes[keep].tolist())))


def poly_pow(f: ShiftPolynomial, t: int) -> ShiftPolynomial:
    """f**t by exponentiation-by-squaring (t >= 0; f**0 is the identity shift)."""
    if t < 0:
        raise InvalidParameterError(f"exponent must be >= 0, got {t}")
    result = identity_poly(f.ring, f.dims)
    base = f
    while t:
        if t & 1:
            result = poly_mul(result, base)
        if t > 1:
            base = poly_mul(base, base)
        t >>= 1
    return result


def frobenius_power(rule: LocalRule, k: int) -> ShiftPolynomial:
    """The p**k-th power of the rule's polynomial, written directly.

    Requires prime characteristic p; the result is
    sum_h c_h**(p**k) at offset p**k * h, with no polynomial multiplication.
    It must (and does, structurally) equal poly_pow(from_rule(rule), p**k).
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    p = rule.ring.characteristic
    if not is_prime(p):
        raise UnsupportedCharacteristicError(
            f"characteristic {p} is not prime; Frobenius fast-forward unavailable"
        )
    return _frobenius_image(from_rule(rule), p**k)


def _frobenius_image(f: ShiftPolynomial, q: int) -> ShiftPolynomial:
    """sum_h c_h**q at offset q * h: f**q when q is a power of the characteristic."""
    return ShiftPolynomial.from_terms(
        f.ring, f.dims, {tuple(q * x for x in off): f.ring.pow(c, q) for off, c in f.terms}
    )


def poly_pow_charp(f: ShiftPolynomial, t: int) -> ShiftPolynomial:
    """f**t over a prime-characteristic ring via base-p digits.

    Writes t = sum d_j p**j and multiplies the (sparse) p**j-th Frobenius
    images raised to their digits; for sparse f this needs O(|terms| * digits)
    term operations instead of repeated large convolutions.
    """
    p = f.ring.characteristic
    if not is_prime(p):
        raise UnsupportedCharacteristicError(
            f"characteristic {p} is not prime"
        )
    if t < 0:
        raise InvalidParameterError(f"exponent must be >= 0, got {t}")
    result = identity_poly(f.ring, f.dims)
    frob = f  # f**(p**j) at digit position j
    while t:
        d = t % p
        if d:
            small = poly_pow_naive_small(frob, d)
            result = poly_mul(result, small)
        t //= p
        if t:
            frob = _frobenius_image(frob, p)
    return result


def poly_pow_naive_small(f: ShiftPolynomial, d: int) -> ShiftPolynomial:
    result = identity_poly(f.ring, f.dims)
    for _ in range(d):
        result = poly_mul(result, f)
    return result


def _centred_residue(x: int, n: int) -> int:
    """x mod n in (-n/2, n/2]: the shortest way round a cycle of length n."""
    r = x % n
    return r - n if r > n // 2 else r


# A batch of at most this many cells x terms, applied for more than one step,
# steps by one table lookup per cell (`TorusStencil`): below it numpy's
# per-call overhead outweighs the per-cell cost of the gathers, above it the
# padded views' arithmetic is cheaper (crossovers in BENCH_32.json).
SMALL_TORUS_CELL_TERMS = 1 << 12
# The largest lookup table, |R|**terms entries, that a small batch builds.
SMALL_TORUS_TABLE = 1 << 16


class TorusStencil:
    """sum_h c_h * shift(x, h) on a torus, planned once for a batch shape.

    The plan holds everything that depends only on (terms, window, ring,
    shape): each offset reduced to its centred residue mod the extents (the
    torus identifies them, so a Frobenius term at p**k * h costs no more than
    one at h), the wrap-padded shape, the interior and halo slices and one
    view slice per term.  A step runs one of two ways:

    - by default it writes one wrap-padded copy of its input in the ring's
      `sum_dtype` for the term count (the interior plus at most two halo
      slice copies per axis), takes every term as a view into it and hands
      the views to `Ring.weighted_sum`;
    - a small batch (cells x terms at most `SMALL_TORUS_CELL_TERMS`) over a
      ring with |R|**terms at most `SMALL_TORUS_TABLE`, once applied for
      more than one step, steps by one gather of every term by a flat index
      (the term's view of the padded cell indices), one dot with the place
      values |R|**i that packs each cell's term codes into a table index,
      and one lookup in the ring's `weighted_sum` of every tuple of term
      codes.  The index and the table are built on that first apply: a
      single step would pay for them and use them once.  Its codes stay
      flat and in intp, the dtype that the gathers and the dot take
      without a cast.
    """

    def __init__(self, terms, window: WindowSpec, ring: Ring, shape):
        terms = tuple(terms)
        if not terms:
            raise InvalidParameterError("a torus stencil needs at least one term")
        self.ring = ring
        self.coeffs = [c for _, c in terms]
        self.dtype = ring.sum_dtype(len(terms))
        extents = window.extents
        residues = [
            tuple(_centred_residue(x, n) for x, n in zip(off, extents)) for off, _ in terms
        ]
        lows = [max(0, -min(r[i] for r in residues)) for i in range(window.axes)]
        highs = [max(0, max(r[i] for r in residues)) for i in range(window.axes)]
        shape = tuple(shape)
        self.padded_shape = (
            shape[:1]
            + tuple(n + lo + hi for n, lo, hi in zip(extents, lows, highs))
            + shape[1 + window.axes :]
        )
        self.interior = (slice(None),) + tuple(
            slice(lo, lo + n) for n, lo in zip(extents, lows)
        )
        # Halo copies run axis by axis over the full padded range of every
        # other axis: earlier axes' halos are already filled, and later axes'
        # halos are filled afterwards from slabs that include this one's.
        self.halos = []
        for i, (n, lo, hi) in enumerate(zip(extents, lows, highs)):
            if lo:
                self.halos.append((_axis_slice(i, 0, lo), _axis_slice(i, n, n + lo)))
            if hi:
                high = _axis_slice(i, lo + n, lo + n + hi)
                self.halos.append((high, _axis_slice(i, lo, lo + hi)))
        self.views = [
            (slice(None),) + tuple(slice(lo + x, lo + x + n) for n, lo, x in zip(extents, lows, r))
            for r in residues
        ]
        self.shape = shape
        self.small = (prod(shape) * len(terms) <= SMALL_TORUS_CELL_TERMS
                      and ring.size ** len(terms) <= SMALL_TORUS_TABLE)
        self.table = None

    def _plan_lookup(self):
        q, n_terms = self.ring.size, len(self.coeffs)
        # Term h's view of the padded cell indices reads cell m + h at m.
        cells = self._padded(np.arange(prod(self.shape)).reshape(self.shape), np.intp)
        self.gather = np.stack([cells[v].ravel() for v in self.views])
        self.places = np.array([q**i for i in range(n_terms)], dtype=np.intp)
        # Row i of the reversed indices is term i's code, the place q**i digit.
        digits = np.indices((q,) * n_terms, dtype=self.dtype).reshape(n_terms, -1)[::-1]
        self.table = self.ring.weighted_sum(self.coeffs, digits).astype(np.intp)

    def _padded(self, codes, dtype):
        padded = np.empty(self.padded_shape, dtype=dtype)
        padded[self.interior] = codes
        for dst, src in self.halos:
            padded[dst] = padded[src]
        return padded

    def _step(self, codes):
        if self.table is not None:  # flat codes in, flat codes out
            return self.table.take(self.places @ codes.take(self.gather))
        padded = self._padded(codes, self.dtype)
        return self.ring.weighted_sum(self.coeffs, (padded[v] for v in self.views))

    def apply(self, values: np.ndarray, steps: int = 1) -> np.ndarray:
        """`steps` applications to values, returned in their dtype and shape.

        Codes stay in the step's own dtype between steps; int64 in gives int64 out.
        """
        if steps > 1 and self.small and self.table is None:
            self._plan_lookup()
        codes = values
        for _ in range(steps):
            codes = self._step(codes)
        if codes.shape != values.shape:
            codes = codes.reshape(values.shape)
        return codes.astype(values.dtype, copy=False)


def _axis_slice(axis: int, start: int, stop: int) -> tuple:
    """Index of start:stop on spatial axis `axis` of a (count, *extents, rank) array."""
    return (slice(None),) * (1 + axis) + (slice(start, stop),)


def stencil(terms, values: np.ndarray, window: WindowSpec, mode: str, ring: Ring):
    """sum_h c_h * shift(x, h) for a batch of configurations on one window.

    `terms` is a sequence of (offset h, coefficient c_h) and `values` has shape
    (count, *window.extents, rank).  Both modes share one dtype rule: they
    accumulate in the ring's `sum_dtype` for the term count (for Z/m the
    narrowest unsigned dtype that holds n_terms * (m-1)**2, for table rings
    the narrowest holding their codes) and return the dtype of `values`, so int64 in gives int64 out and
    narrow codes stay narrow.  A dtype that cannot hold every code of the
    ring is refused with InvalidParameterError.  Torus mode wraps every axis
    and keeps the window; it runs one `TorusStencil` step.  Exact mode
    evaluates at every anchor whose full stencil lies in the window (clipped
    to the lattice) and raises DomainExhaustedError when none does; every
    term is a view into one copy of `values` in the sum dtype (no copy when
    `values` already has it).  No terms give zeros on the same window.
    Returns (out_window, out) with out of shape (count, *out_window.extents,
    rank).
    """
    terms = tuple(terms)
    dtype = values.dtype
    if dtype.kind not in "iu" or np.iinfo(dtype).max < ring.size - 1:
        raise InvalidParameterError(f"{dtype} cannot hold the codes of {ring.descriptor()}")
    if not terms:
        return window, np.zeros_like(values)
    if mode == "torus":
        return window, TorusStencil(terms, window, ring, values.shape).apply(values)
    out_window = window.stencil_anchors([off for off, _ in terms])
    if out_window is None:
        raise DomainExhaustedError(f"stencil span exceeds window {window}")
    codes = values.astype(ring.sum_dtype(len(terms)), copy=False)
    starts = np.add([off for off, _ in terms], np.subtract(out_window.origin, window.origin)).tolist()
    blocks = (
        codes[(slice(None),) + tuple(slice(lo, lo + e) for lo, e in zip(row, out_window.extents))]
        for row in starts
    )
    out = ring.weighted_sum([c for _, c in terms], blocks)
    return out_window, out.astype(dtype, copy=False)


def _check_applicable(poly: ShiftPolynomial, config: WindowConfig):
    if poly.ring != config.module.ring:
        raise RingMismatchError("polynomial/config ring mismatch")
    if tuple(poly.dims) != config.window.dims:
        raise RingMismatchError(
            f"rule dims {poly.dims[0]},{poly.dims[1]} do not match "
            f"configuration dims {config.window.dims[0]},{config.window.dims[1]}"
        )


def apply_poly(poly: ShiftPolynomial, config: WindowConfig) -> WindowConfig:
    """Evaluate the polynomial of shifts on a windowed configuration.

    Exact mode: the output window is every site whose full stencil stays inside
    the stored window (clipped to the lattice); torus mode wraps all axes.
    """
    _check_applicable(poly, config)
    out_window, out = stencil(
        poly.terms, config.values[None], config.window, config.mode, poly.ring
    )
    return WindowConfig(out_window, config.module, out[0], config.mode)


def iterate_rule(rule: LocalRule, config: WindowConfig, t: int) -> WindowConfig:
    """t-fold naive application (the reference path for fast-forward checks).

    A torus configuration runs t steps of one `TorusStencil` plan, carrying
    narrow codes between steps; an exact one shrinks its window each step.
    """
    poly = from_rule(rule)
    _check_applicable(poly, config)
    if config.mode == "torus":
        plan = TorusStencil(poly.terms, config.window, poly.ring, (1,) + config.values.shape)
        return config.with_values(plan.apply(config.values[None], t)[0])
    out = config
    for _ in range(t):
        out = apply_poly(poly, out)
    return out


def format_rule(rule: LocalRule, prefix: str = "rule") -> str:
    terms = ";".join(
        "(" + ",".join(str(x) for x in off) + f"):{c}"
        for off, c in zip(rule.offsets, rule.coeffs)
    )
    return (
        f"{prefix} ring={rule.ring.descriptor()} rank={rule.module.rank} "
        f"dims={rule.dims[0]},{rule.dims[1]} H={terms}"
    )


def parse_rule(text: str, expect_prefix: str = "rule") -> LocalRule:
    """Parse the rule text format.

    ``<prefix> ring=<desc> rank=<n> [dims=D,E] H=(h11,..):c1;(..):c2;..``
    A missing dims field defaults to all-Z axes.
    """
    toks = text.strip().split()
    if not toks or toks[0] != expect_prefix:
        raise ConfigParseError(
            f"rule text must start with {expect_prefix!r}: {text!r}", line=1, column=1
        )
    fields = {}
    for tok in toks[1:]:
        if "=" not in tok:
            raise ConfigParseError(f"bad token {tok!r} in rule text", line=1)
        key, val = tok.split("=", 1)
        fields[key] = val
    for req in ("ring", "rank", "H"):
        if req not in fields:
            raise ConfigParseError(f"rule text missing {req}=", line=1)
    ring = parse_ring(fields["ring"])
    try:
        rank = int(fields["rank"])
    except ValueError:
        raise ConfigParseError(f"bad rank {fields['rank']!r}", line=1) from None
    module = ModuleSpec(ring, rank)
    offsets, coeffs = [], []
    for piece in fields["H"].split(";"):
        piece = piece.strip()
        if not piece:
            continue
        if not piece.startswith("(") or "):" not in piece:
            raise ConfigParseError(f"bad H term {piece!r}", line=1)
        body, cstr = piece[1:].split("):", 1)
        try:
            off = tuple(int(x) for x in body.split(","))
            c = int(cstr)
        except ValueError:
            raise ConfigParseError(f"bad H term {piece!r}", line=1) from None
        offsets.append(off)
        coeffs.append(c)
    if not offsets:
        raise ConfigParseError("rule has empty neighbourhood", line=1)
    arity = len(offsets[0])
    if "dims" in fields:
        try:
            d_str, e_str = fields["dims"].split(",")
            dims = (int(d_str), int(e_str))
        except ValueError:
            raise ConfigParseError(f"bad dims {fields['dims']!r}", line=1) from None
    else:
        dims = (arity, 0)
    return LocalRule(module, dims, tuple(offsets), tuple(coeffs))
