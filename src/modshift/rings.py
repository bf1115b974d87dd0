"""Finite commutative rings and free modules over them.

Every ring element is encoded as a canonical nonnegative integer code:

* ``zmod:m``   -- residues 0..m-1;
* ``gf:p:k``   -- base-p digits of the polynomial representative, little-endian;
* ``prod:[..]``-- mixed-radix tuple code, first factor least significant.

A module element of R**n packs its n ring codes the same way, first component
least significant.  Every such code is little-endian mixed radix, and one
codec, `MixedRadix`, splits, joins and enumerates them all.  A packed code
must fit in int64, so a module with |R|**n >= 2**63 is refused.  The one
reading with the first place most significant is character order
(`chars.all_characters`), where the first site leads.

Each concrete ring defines its arithmetic once, on code arrays (`add_arr`,
`neg_arr`, `mul_arr`, `pair_exponent_arr`, `convolve_codes`), and names its
`additive` digits: residues mod m, base-p digits, or the factors' digits in
turn.  Sums of many terms (`weighted_sum`, `run_sums`) add those digits
place by place instead of going through the tables.  The scalar
operations of `Ring` are those array operations on one code, and every scalar
entry point first passes its codes through `Ring.element_code`, which refuses
anything outside [0, |R|) with InvalidParameterError.  Rings are immutable
after construction and safe to share across workers.
"""

from __future__ import annotations

from functools import reduce
from itertools import product as iter_product
from math import gcd, prod

import numpy as np

from .errors import (
    InvalidParameterError,
    ReducibleModulusError,
    RingMismatchError,
    UnsupportedCharacteristicError,
)

__all__ = [
    "Ring",
    "ZmodRing",
    "GFRing",
    "ProductRing",
    "ModuleSpec",
    "MixedRadix",
    "make_ring",
    "parse_ring",
    "is_prime",
    "subring_closure",
    "stable_power_subring",
    "recurrent_power_sums",
    "GF_DEFAULT_MODULI",
]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


# Default irreducible moduli (little-endian coefficients, monic) used when a
# field is requested by order alone.  Chosen once and frozen for
# reproducibility; construction re-verifies irreducibility regardless.
GF_DEFAULT_MODULI = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (5, 1): (0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 1, 0, 1),
}


class MixedRadix:
    """Little-endian mixed-radix codes: digits (d_0, .., d_{n-1}) with
    0 <= d_i < radices[i] have the code sum_i d_i * radices[0] * .. * radices[i-1].

    Place 0 is least significant.  There are `size` = prod(radices) codes and
    every one fits in int64: a product of 2**63 or more is refused.
    """

    def __init__(self, radices):
        self.radices = tuple(int(r) for r in radices)
        if any(r < 2 for r in self.radices):
            raise InvalidParameterError(f"radices must be >= 2, got {self.radices}")
        self.size = prod(self.radices)
        if self.size >= 1 << 63:
            raise InvalidParameterError(
                f"{self.size} codes of radices {self.radices} do not fit in int64"
            )
        self._places = tuple(prod(self.radices[:i]) for i in range(len(self.radices)))
        self._place_arr = np.array(self._places, dtype=np.int64)
        self._radix_arr = np.array(self.radices, dtype=np.int64)

    def encode(self, digits) -> int:
        digits = tuple(digits)
        if len(digits) != len(self.radices):
            raise InvalidParameterError(f"{len(digits)} digits for {len(self.radices)} places")
        code = 0
        for d, r, place in zip(digits, self.radices, self._places):
            if not 0 <= d < r:
                raise InvalidParameterError(f"digit {d} out of range [0,{r})")
            code += int(d) * place
        return code

    def decode(self, code: int) -> tuple:
        if not 0 <= code < self.size:
            raise InvalidParameterError(f"code {code} out of range [0,{self.size})")
        digits = []
        for r in self.radices:
            code, d = divmod(code, r)
            digits.append(d)
        return tuple(digits)

    def split(self, codes) -> np.ndarray:
        """(..) codes -> (.., n) int64 digits; codes are taken as valid."""
        if len(self.radices) == 1:  # the code is its one digit; a copy, never a view
            return np.array(codes, dtype=np.int64)[..., None]
        return np.asarray(codes, dtype=np.int64)[..., None] // self._place_arr % self._radix_arr

    def join(self, digits) -> np.ndarray:
        """(.., n) digits -> (..) codes, in the digits' dtype if it holds every code, else int64."""
        digits = np.asarray(digits)
        dtype = digits.dtype if np.iinfo(digits.dtype).max >= self.size - 1 else np.dtype(np.int64)
        out = np.zeros(digits.shape[:-1], dtype=dtype)
        for i in reversed(range(len(self.radices))):
            if i + 1 < len(self.radices):
                out *= self.radices[i]  # the partial code stays below size
            out += digits[..., i]
        return out

    def all_digits(self) -> np.ndarray:
        """Row i is split(i) for every code i, in the narrowest unsigned digit dtype."""
        dtype = np.min_scalar_type(max(self.radices, default=1) - 1)
        out = np.empty((self.size, len(self.radices)), dtype=dtype)
        for i, (r, place) in enumerate(zip(self.radices, self._places)):
            # Place i holds runs of `place` equal digits, cycling every place * r codes.
            run = np.repeat(np.arange(r, dtype=dtype), place)
            out[:, i] = np.tile(run, self.size // (place * r))
        return out


class Ring:
    """Common interface; concrete rings fill in the arithmetic."""

    kind = "abstract"
    size: int
    characteristic: int
    one: int
    zero = 0
    # A sum of codes adds their `additive` digits place by place, each mod its radix.
    additive: MixedRadix

    # -- scalar arithmetic: the array ops on one range-checked code ----------
    def element_code(self, value, what: str = "operand") -> int:
        """`value` as an element code of the ring; InvalidParameterError when outside [0, |R|)."""
        value = int(value)
        if not 0 <= value < self.size:
            raise InvalidParameterError(
                f"{what} {value} is not an element code of {self.descriptor()} "
                f"(codes are 0..{self.size - 1})"
            )
        return value

    def add(self, a: int, b: int) -> int:
        return int(self.add_arr(self.element_code(a), self.element_code(b)))

    def neg(self, a: int) -> int:
        return int(self.neg_arr(self.element_code(a)))

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_arr(self.element_code(a), self.element_code(b)))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            raise InvalidParameterError("negative exponent; use unit_inverse first")
        result = self.one
        base = self.element_code(a)
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def from_int(self, n: int) -> int:
        """The image of the integer n, i.e. n * 1 in this ring."""
        n %= self.characteristic
        result = self.zero
        addend = self.one
        while n:
            if n & 1:
                result = self.add(result, addend)
            addend = self.add(addend, addend)
            n >>= 1
        return result

    # -- vectorized arithmetic (int64 code arrays) -------------------------
    def add_arr(self, a, b):
        raise NotImplementedError

    def neg_arr(self, a):
        raise NotImplementedError

    def mul_arr(self, a, b):
        raise NotImplementedError

    def sub_arr(self, a, b):
        return self.add_arr(a, self.neg_arr(b))

    def sum_dtype(self, n_terms: int) -> np.dtype:
        """The narrowest code dtype in which `weighted_sum` of n_terms arrays runs:
        for a table ring, whatever the term count, the narrowest holding its codes."""
        return _unsigned_dtype(self.size - 1)

    def weighted_sum(self, coeffs, arrays):
        """sum_i coeffs[i] * arrays[i] for a nonempty list of scalar coefficients.

        `arrays` may be any iterable of same-shape code arrays; it is consumed
        one array at a time, and the sum is returned in the dtype of the first.
        When every `additive` radix is 2 (characteristic 2), see `_xor_sum`.
        Otherwise term i is one gather from a 1-D table of the `additive` digits of
        coeffs[i] * a, packed one bit field per digit; a field holds a chunk of
        terms without carrying.  The chunk is every term unless the fields would
        pass 64 bits; then it halves, and the fields are reduced after each
        chunk.  The codes are read off the fields once at the end.
        """
        radices = self.additive.radices
        if set(radices) == {2}:
            return self._xor_sum(coeffs, arrays)
        chunk = len(coeffs)
        while chunk > 2 and sum((chunk * (r - 1)).bit_length() for r in radices) > 64:
            chunk //= 2
        widths = [(chunk * (r - 1)).bit_length() for r in radices]
        places = [1 << sum(widths[:i]) for i in range(len(widths))]
        dtype = next(np.dtype(f"u{n}") for n in (1, 2, 4, 8) if sum(widths) <= 8 * n)
        packed = self.additive.all_digits().astype(dtype) @ np.array(places, dtype=dtype)
        acc = None
        for c, a in zip(coeffs, arrays):
            term = packed[self.mul_arr(np.int64(c), np.arange(self.size))].take(a)
            if acc is None:
                acc, held, out_dtype = term, 0, np.asarray(a).dtype
            elif held == chunk:  # the reduced fields count as one term of the next chunk
                acc, held = _fold_fields(acc, radices, widths, places) + term, 1
            else:
                acc += term
            held += 1
        return _fold_fields(acc, radices, widths, self.additive._places).astype(out_dtype, copy=False)

    def _xor_sum(self, coeffs, arrays):
        """`weighted_sum` when the codes are bit vectors added by XOR.

        Bit j of a code is its digit on the basis element e_j, whose code is
        2**j, so c * a is the XOR over the set bits j of a of the code of
        c * e_j.  Bits that c maps to themselves are kept by one mask; every
        other bit is shifted down, masked and multiplied by its image.  No
        term gathers per cell.
        """
        units = self.additive._places
        acc = None
        for c, a in zip(coeffs, arrays):
            a = np.asarray(a)
            if acc is None:  # zeros are calloc'd pages, written by the first XOR
                acc = np.zeros(a.shape, dtype=a.dtype)
            images = self.mul_arr(np.int64(c), np.array(units)).tolist()
            kept = sum(u for u, image in zip(units, images) if image == u)
            if kept:
                np.bitwise_xor(acc, a & kept, out=acc, casting="unsafe")
            for j, (u, image) in enumerate(zip(units, images)):
                if image and image != u:
                    plane = (a >> j if j else a) & 1
                    plane *= image
                    np.bitwise_xor(acc, plane, out=acc, casting="unsafe")
        return acc

    def run_sums(self, codes, starts):
        """The ring sum of each run codes[starts[i]:starts[i+1]] (the last to the end), as
        int64 codes: each `additive` digit is summed per run and reduced by its radix."""
        sums = np.add.reduceat(self.additive.split(codes), starts, axis=0)
        return self.additive.join(sums % np.array(self.additive.radices))

    def lincomb(self, coefs, rows):
        """Ring combinations coefs @ rows: (count, nb) by (nb, ncols) -> (count, ncols).

        The generic ring works on int64 codes through `mul_arr` and `add_arr`;
        like `ZmodRing`, it returns the dtype numpy promotes the inputs to.
        """
        out = np.zeros((coefs.shape[0], rows.shape[1]), dtype=np.int64)
        for i in range(rows.shape[0]):
            out = self.add_arr(out, self.mul_arr(coefs[:, i][:, None], rows[i][None, :]))
        return out.astype(np.result_type(coefs, rows), copy=False)

    # -- units --------------------------------------------------------------
    def unit_inverse(self, a: int):
        """Multiplicative inverse of the code a, or None when a is not a unit."""
        raise NotImplementedError

    def is_unit(self, a: int) -> bool:
        return self.unit_inverse(a) is not None

    def inverse(self, a: int) -> int:
        inv = self.unit_inverse(a)
        if inv is None:
            raise InvalidParameterError(f"{a} is not a unit in {self.descriptor()}")
        return inv

    # -- structure ----------------------------------------------------------
    def elements(self):
        return range(self.size)

    @property
    def is_field(self) -> bool:
        return False

    def descriptor(self) -> str:
        raise NotImplementedError

    # -- character pairing --------------------------------------------------
    # char_exponent L and pair_exponent(u, a) in Z/L define the self-duality
    # pairing used to build characters of the additive group.
    char_exponent: int

    def pair_exponent(self, u: int, a: int) -> int:
        return int(self.pair_exponent_arr(self.element_code(u), self.element_code(a)))

    def pair_exponent_arr(self, u, a):
        raise NotImplementedError

    # -- convolution of coefficient arrays (see shiftpoly) -------------------
    def convolve_codes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Ring) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def __repr__(self):
        return f"<Ring {self.descriptor()}>"

    def check_same(self, other: "Ring"):
        if self != other:
            raise RingMismatchError(
                f"ring mismatch: {self.descriptor()} vs {other.descriptor()}"
            )


def term_product(oa, va, ob, vb, mul):
    """Pairwise products of two nonempty term lists, as (offsets, values, starts).

    Offsets are (n, axes) arrays, int64 when every pairwise sum fits and Python
    ints otherwise.  `values` holds `mul` of the value pairs sorted by offset
    sum, `starts` opens each run of equal sums, and `offsets` lists those sums
    in lexicographic order.  One int64 key per sum, linear in its coordinates,
    sorts them when their box has fewer than 2**63 cells; otherwise they sort
    column by column, so no key can overflow.
    """
    values = mul(va[:, None], vb[None, :]).ravel()
    lo_a, lo_b = oa.min(axis=0).tolist(), ob.min(axis=0).tolist()
    lo = [x + y for x, y in zip(lo_a, lo_b)]
    spans = [x + y - z + 1 for x, y, z in zip(oa.max(axis=0).tolist(), ob.max(axis=0).tolist(), lo)]
    if oa.dtype != object and prod(spans) < 1 << 63:
        # The key is linear, so the key of a sum is the sum of the keys.
        strides = np.array([prod(spans[i + 1 :]) for i in range(len(spans))], dtype=np.int64)
        keys = (((oa - lo_a) @ strides)[:, None] + ((ob - lo_b) @ strides)[None, :]).ravel()
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        offs = np.stack(np.unravel_index(keys[starts], spans), axis=1) + np.array(lo)
        return offs, values[order], starts
    offs = (oa[:, None, :] + ob[None, :, :]).reshape(-1, oa.shape[1])
    order = np.lexsort(offs.T[::-1])
    offs = offs[order]
    starts = np.flatnonzero(np.concatenate(([True], (offs[1:] != offs[:-1]).any(axis=1))))
    return offs[starts], values[order], starts


def _exact_convolve_int(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer convolution of nonnegative arrays, full output box.

    Sparse inputs (nnz(a) * nnz(b) at most the output cell count) take
    `term_product` over the nonzero cells, whose cost follows the terms;
    denser ones take the big-int packing, whose cost follows the box.  Both
    are exact, so the choice never changes the result.
    """
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    if np.count_nonzero(a) * np.count_nonzero(b) <= prod(_convolve_shape(a, b)):
        return _convolve_sparse(a, b)
    return _convolve_packed(a, b)


def _convolve_shape(a: np.ndarray, b: np.ndarray) -> tuple:
    return tuple(sa + sb - 1 for sa, sb in zip(a.shape, b.shape))


def _convolve_guard(amax: int, bmax: int, count: int):
    """Refuse a convolution whose output values could reach 2**63."""
    if amax * bmax * count >= 1 << 63:
        raise InvalidParameterError("convolution values would overflow packing")


def _convolve_sparse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every pairwise product of nonzero cells by `term_product`, summed into the output box."""
    out = np.zeros(_convolve_shape(a, b), dtype=np.int64)
    ia, ib = np.argwhere(a), np.argwhere(b)
    va, vb = a[tuple(ia.T)], b[tuple(ib.T)]
    _convolve_guard(int(va.max(initial=0)), int(vb.max(initial=0)), min(len(ia), len(ib)))
    if len(ia) and len(ib):
        offs, values, starts = term_product(ia, va, ib, vb, np.multiply)
        out[tuple(offs.T)] = np.add.reduceat(values, starts)
    return out


def _convolve_packed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact convolution via big-int packing.

    Both inputs are embedded in the output-shaped box, flattened C-order, and
    packed 64 bits per slot; the single big multiply then performs the full
    multi-dimensional convolution with no slot carries, provided every output
    value stays below 2**63 (asserted from an a priori bound).
    """
    out_shape = _convolve_shape(a, b)
    _convolve_guard(int(a.max(initial=0)), int(b.max(initial=0)), min(a.size, b.size))
    pa = np.zeros(out_shape, dtype=np.uint64)
    pb = np.zeros(out_shape, dtype=np.uint64)
    pa[tuple(slice(0, s) for s in a.shape)] = a.astype(np.uint64)
    pb[tuple(slice(0, s) for s in b.shape)] = b.astype(np.uint64)
    n = pa.size
    big_a = int.from_bytes(pa.astype("<u8").tobytes(), "little")
    big_b = int.from_bytes(pb.astype("<u8").tobytes(), "little")
    big_c = big_a * big_b
    buf = big_c.to_bytes(8 * n + 16, "little")
    flat = np.frombuffer(buf[: 8 * n], dtype="<u8")
    return flat.astype(np.int64).reshape(out_shape)


def _unsigned_dtype(bound: int) -> np.dtype:
    """The narrowest of uint8/uint16/uint32 holding 0..bound, else int64."""
    bits = bound.bit_length()
    for width, dtype in ((8, np.uint8), (16, np.uint16), (32, np.uint32)):
        if bits <= width:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _reduce_codes(x: np.ndarray, m: int) -> np.ndarray:
    """x mod m in place, for nonnegative integers x; returns x."""
    if not m & (m - 1):  # a power of two: the low bits are the residue
        x &= m - 1
    elif x.dtype.kind == "u":
        # numpy vectorizes unsigned floor division by a scalar but not the
        # remainder, so x - (x // m) * m is several times faster than x % m.
        quot = x // m
        quot *= m
        x -= quot
    else:
        x %= m
    return x


def _fold_fields(packed, radices, widths, weights):
    """sum_i (field i of `packed` mod radices[i]) * weights[i], in packed's dtype;
    field 0 holds the lowest widths[0] bits, field 1 the next widths[1], and so on."""
    out = np.zeros_like(packed)
    for r, w, weight in zip(radices, widths, weights):
        out += _reduce_codes(packed & ((1 << w) - 1), r) * weight
        packed = packed >> w
    return out


def _zmod_matmul(a, b, q):
    """(a @ b) % q for Z/q code arrays, in the dtype numpy promotes a and b to.

    Every product is at most (q-1)**2, so with inner dimension n every partial
    sum is an integer of at most n * (q-1)**2.  That bound picks one of three
    exact tiers:
    - below 2**24 float32 holds every partial sum exactly, in any summation
      order, and the product runs as a float32 matmul;
    - below 2**53 the same holds for float64;
    - above that the product stays on int64.
    A float product is reduced in the narrowest unsigned dtype holding the
    bound and q, so int64 in gives int64 out and uint8 in gives uint8 out.
    """
    dtype = np.result_type(a, b)
    bound = a.shape[-1] * (q - 1) ** 2
    if bound >= 1 << 53:
        sums = np.matmul(a.astype(np.int64, copy=False), b.astype(np.int64, copy=False))
    else:
        ftype = np.float32 if bound < 1 << 24 else np.float64
        sums = np.matmul(a.astype(ftype), b.astype(ftype)).astype(_unsigned_dtype(max(bound, q)))
    return _reduce_codes(sums, q).astype(dtype, copy=False)


class ZmodRing(Ring):
    """The ring of integers modulo m."""

    kind = "zmod"

    def __init__(self, m: int):
        if m < 2:
            raise InvalidParameterError(f"zmod modulus must be >= 2, got {m}")
        if m > 1 << 16:
            raise InvalidParameterError(f"zmod modulus capped at 2**16, got {m}")
        self.m = m
        self.size = m
        self.characteristic = m
        self.one = 1 % m
        self.char_exponent = m
        self.additive = MixedRadix((m,))

    def from_int(self, n):
        return n % self.m

    def add_arr(self, a, b):
        return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.m

    def neg_arr(self, a):
        return (-np.asarray(a, dtype=np.int64)) % self.m

    def mul_arr(self, a, b):
        return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.m

    def sum_dtype(self, n_terms):
        """The narrowest unsigned dtype holding n_terms * (m-1)**2, else int64.

        m <= 2**16, so int64 holds the unreduced sum of any term count below
        2**31.
        """
        return _unsigned_dtype(n_terms * (self.m - 1) ** 2)

    def weighted_sum(self, coeffs, arrays):
        """sum_i coeffs[i] * arrays[i], accumulated unreduced and reduced once.

        The sum is accumulated in the dtype of the first array and returned in
        it.  Each term is at most (m-1)**2, so that dtype must hold
        len(coeffs) * (m-1)**2; `sum_dtype` gives the narrowest that does, and
        int64 always does.
        """
        coeffs = [int(c) % self.m for c in coeffs]
        out = None
        for c, a in zip(coeffs, arrays):
            a = np.asarray(a)
            if out is None:
                bits = (len(coeffs) * (self.m - 1) ** 2).bit_length()
                if bits > 8 * a.dtype.itemsize - (a.dtype.kind != "u"):
                    raise InvalidParameterError(
                        f"{a.dtype} cannot hold a {len(coeffs)}-term sum mod {self.m}"
                    )
                out = a.copy() if c == 1 else a * c
            elif c == 1:
                out += a
            else:
                out += a * c
        return _reduce_codes(out, self.m)

    def lincomb(self, coefs, rows):
        """coefs @ rows mod m by `_zmod_matmul`, in the dtype numpy promotes them to.

        Narrow code arrays give narrow codes: int64 in, int64 out.
        """
        return _zmod_matmul(coefs, rows, self.m)

    def unit_inverse(self, a):
        a = self.element_code(a)
        if gcd(a, self.m) != 1:
            return None
        return pow(a, -1, self.m)

    @property
    def is_field(self):
        return is_prime(self.m)

    def descriptor(self):
        return f"zmod:{self.m}"

    pair_exponent_arr = mul_arr

    def convolve_codes(self, a, b):
        return _exact_convolve_int(a, b) % self.m


def poly_divmod(num, den, p=None):
    """(quotient, remainder) of little-endian integer coefficient lists.

    Over Z/p when the prime `p` is given, else over the integers, where `den`
    must be monic.  The remainder always has len(den) - 1 coefficients.
    """
    lead = (den[-1] % p if p else den[-1]) if len(den) else 0
    if lead == 0 or (p is None and lead != 1):
        raise InvalidParameterError(f"divisor {list(den)} has no unit leading coefficient")
    n, inv = len(den) - 1, pow(lead, -1, p) if p else 1
    rem = list(num) + [0] * (n - len(num))
    quot = [0] * (len(rem) - n)
    for shift in reversed(range(len(quot))):
        quot[shift] = factor = rem[shift + n] * inv % p if p else rem[shift + n]
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
    return quot, [c % p for c in rem[:n]] if p else rem[:n]


class GFRing(Ring):
    """The finite field GF(p**k) with an explicit irreducible modulus.

    Elements are polynomials over Z/p modulo the given degree-k modulus;
    the code of an element is the base-p value of its coefficient digits
    (little-endian).  Add/multiply tables are precomputed (size <= 256).
    """

    kind = "gf"
    MAX_ORDER = 256

    def __init__(self, p: int, k: int, modulus=None):
        if k < 1:
            raise InvalidParameterError(f"gf degree must be >= 1, got {k}")
        # The degree bound keeps p**k small before it is computed.
        if k >= self.MAX_ORDER.bit_length() or p**k > self.MAX_ORDER:
            raise InvalidParameterError(f"gf order {p}**{k} exceeds cap {self.MAX_ORDER}")
        if not is_prime(p):
            raise InvalidParameterError(f"gf base {p} is not prime")
        if modulus is None:
            try:
                modulus = GF_DEFAULT_MODULI[(p, k)]
            except KeyError:
                raise InvalidParameterError(
                    f"no bundled modulus for gf({p},{k}); pass one explicitly"
                ) from None
        modulus = [c % p for c in modulus]
        if len(modulus) != k + 1 or modulus[-1] == 0:
            raise InvalidParameterError(
                f"gf modulus must have degree exactly {k}: {modulus}"
            )
        self._verify_irreducible(modulus, p, k)
        self.p = p
        self.k = k
        self.modulus = tuple(modulus)
        self.size = p**k
        self.characteristic = p
        self.one = 1
        self.char_exponent = p
        self.codec = self.additive = MixedRadix((p,) * k)
        # int64 before any table arithmetic: (-d) % p and d + d are wrong in uint8.
        self._digits = self.codec.all_digits().astype(np.int64)
        self._build_tables()

    @staticmethod
    def _verify_irreducible(modulus, p, k):
        # Trial division over every lower-degree monic polynomial.
        if k == 1:
            return
        for deg in range(1, k):
            for tail in iter_product(range(p), repeat=deg):
                cand = list(tail) + [1]
                _, rem = poly_divmod(modulus, cand, p)
                if not any(rem):
                    raise ReducibleModulusError(modulus, cand, p)

    def _reduction_rows(self):
        """(k-1, k) int64: row d - k holds the digits of x**d mod the modulus, d in [k, 2k-2]."""
        rows = [poly_divmod([0] * d + [1], self.modulus, self.p)[1]
                for d in range(self.k, 2 * self.k - 1)]
        return np.array(rows, dtype=np.int64).reshape(self.k - 1, self.k)

    def _join_reduced(self, conv):
        """Codes of (.., 2k-1) int64 digit convolutions, reduced by the modulus."""
        low = conv[..., : self.k] + conv[..., self.k :] @ self._conv_red
        return self.codec.join(low % self.p)

    def _build_tables(self):
        q, k, p = self.size, self.k, self.p
        d = self._digits
        codes = np.arange(q, dtype=np.int64)
        self._add_table = self.codec.join((d[:, None, :] + d[None, :, :]) % p)
        self._neg_table = self.codec.join((-d) % p)
        conv = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                conv[:, :, i + j] += d[:, None, i] * d[None, :, j]
        self._conv_red = self._reduction_rows()
        self._mul_table = self._join_reduced(conv)
        # In a field every nonzero code has exactly one inverse; 0 has none (-1).
        hits = self._mul_table == self.one
        self._inv_table = np.where(hits.any(axis=1), hits.argmax(axis=1), -1)
        # Absolute trace to the prime field: Tr(x) = x + x**p + ... + x**(p**(k-1)).
        frobenius = np.full(q, self.one, dtype=np.int64)
        for _ in range(p):
            frobenius = self._mul_table[frobenius, codes]
        self._trace_table = np.zeros(q, dtype=np.int64)
        for _ in range(k):
            self._trace_table = self._add_table[self._trace_table, codes]
            codes = frobenius[codes]

    def add_arr(self, a, b):
        return self._add_table[np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)]

    def neg_arr(self, a):
        return self._neg_table[np.asarray(a, dtype=np.int64)]

    def mul_arr(self, a, b):
        return self._mul_table[np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)]

    def unit_inverse(self, a):
        inv = int(self._inv_table[self.element_code(a)])
        return None if inv < 0 else inv

    @property
    def is_field(self):
        return True

    def descriptor(self):
        return f"gf:{self.p}:{self.k}:" + ",".join(str(c) for c in self.modulus)

    def pair_exponent_arr(self, u, a):
        return self._trace_table[self.mul_arr(u, a)]

    def convolve_codes(self, a, b):
        # Convolve digit planes (one extra trailing axis of length k), then
        # reduce the digit-degree axis by the modulus.
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        da = self._digits[a]
        db = self._digits[b]
        k = self.k
        out_spatial = tuple(sa + sb - 1 for sa, sb in zip(a.shape, b.shape))
        conv = np.zeros(out_spatial + (2 * k - 1,), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                conv[..., i + j] += _exact_convolve_int(da[..., i], db[..., j])
        return self._join_reduced(conv)


class ProductRing(Ring):
    """Direct product of rings with componentwise operations."""

    kind = "prod"

    def __init__(self, factors):
        factors = tuple(factors)
        if len(factors) < 2:
            raise InvalidParameterError("product ring needs at least 2 factors")
        self.factors = factors
        self.size = prod(f.size for f in factors)
        if self.size > 1 << 16:
            raise InvalidParameterError("product ring size capped at 2**16")
        self.characteristic = reduce(
            lambda a, b: a * b // gcd(a, b), (f.characteristic for f in factors)
        )
        self.codec = MixedRadix(f.size for f in factors)
        self.additive = MixedRadix(r for f in factors for r in f.additive.radices)
        self.one = self.codec.encode([f.one for f in factors])
        self.char_exponent = reduce(
            lambda a, b: a * b // gcd(a, b), (f.char_exponent for f in factors)
        )

    def _map_arr(self, op, *arrays):
        """Join op(factor, *digits) over the factors, each fed its digits of `arrays`."""
        digits = [self.codec.split(a) for a in arrays]
        return self.codec.join(np.stack(
            [op(f, *(d[..., i] for d in digits)) for i, f in enumerate(self.factors)], axis=-1
        ))

    def add_arr(self, a, b):
        return self._map_arr(lambda f, x, y: f.add_arr(x, y), a, b)

    def neg_arr(self, a):
        return self._map_arr(lambda f, x: f.neg_arr(x), a)

    def mul_arr(self, a, b):
        return self._map_arr(lambda f, x, y: f.mul_arr(x, y), a, b)

    def unit_inverse(self, a):
        invs = []
        for f, x in zip(self.factors, self.codec.decode(self.element_code(a))):
            inv = f.unit_inverse(x)
            if inv is None:
                return None
            invs.append(inv)
        return self.codec.encode(invs)

    def descriptor(self):
        return "prod:[" + ";".join(f.descriptor() for f in self.factors) + "]"

    def pair_exponent_arr(self, u, a):
        L = self.char_exponent
        us, as_ = self.codec.split(u), self.codec.split(a)
        total = 0
        for i, f in enumerate(self.factors):
            total = total + (L // f.char_exponent) * f.pair_exponent_arr(us[..., i], as_[..., i])
        return total % L

    def convolve_codes(self, a, b):
        return self._map_arr(lambda f, x, y: f.convolve_codes(x, y), a, b)


def parse_ring(text: str) -> Ring:
    """Parse a ring descriptor: zmod:m | gf:p:k:c0,c1,..,ck | prod:[d1;d2;..]."""
    text = text.strip()
    if text.startswith("zmod:"):
        try:
            m = int(text[5:])
        except ValueError:
            raise InvalidParameterError(f"bad zmod descriptor: {text!r}") from None
        return ZmodRing(m)
    if text.startswith("gf:"):
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise InvalidParameterError(f"bad gf descriptor: {text!r}")
        try:
            p, k = int(parts[1]), int(parts[2])
            modulus = None
            if len(parts) == 4:
                modulus = [int(c) for c in parts[3].split(",")]
        except ValueError:
            raise InvalidParameterError(f"bad gf descriptor: {text!r}") from None
        return GFRing(p, k, modulus)
    if text.startswith("prod:[") and text.endswith("]"):
        inner = text[6:-1]
        parts, depth, cur = [], 0, []
        for ch in inner:
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            if ch == ";" and depth == 0:
                parts.append("".join(cur))
                cur = []
            else:
                cur.append(ch)
        parts.append("".join(cur))
        return ProductRing([parse_ring(p) for p in parts])
    raise InvalidParameterError(f"unrecognized ring descriptor: {text!r}")


def make_ring(spec) -> Ring:
    """Construct a ring from a descriptor string or pass a Ring through."""
    if isinstance(spec, Ring):
        return spec
    if isinstance(spec, str):
        return parse_ring(spec)
    raise InvalidParameterError(f"cannot build a ring from {spec!r}")


class ModuleSpec:
    """The free module R**n with componentwise ring action.

    Module elements are length-n tuples of ring codes; their packed single-code
    form (mixed radix, base |R|, little-endian) is used in file formats.  A
    module whose packed codes could reach 2**63 is refused.
    """

    def __init__(self, ring: Ring, rank: int = 1):
        if rank < 1:
            raise InvalidParameterError(f"module rank must be >= 1, got {rank}")
        if rank >= 63:  # 2**63 codes or more, refused before the radices are built
            raise InvalidParameterError(
                f"module rank {rank} over {ring.descriptor()} has codes beyond int64"
            )
        self.ring = ring
        self.rank = rank
        self.codec = MixedRadix((ring.size,) * rank)
        self.size = self.codec.size

    # Defined here, not delegated by attribute, so the benchmark tracer finds
    # pack_arr and unpack_arr in this class's own namespace.
    def encode(self, comps) -> int:
        return self.codec.encode(comps)

    def decode(self, code: int):
        return self.codec.decode(code)

    def pack_arr(self, comps: np.ndarray) -> np.ndarray:
        """(.., rank) component array -> (..) int64 packed module codes."""
        return self.codec.join(np.asarray(comps, dtype=np.int64))

    def unpack_arr(self, codes: np.ndarray) -> np.ndarray:
        """(..) packed module codes -> (.., rank) int64 component array."""
        return self.codec.split(codes)

    def __eq__(self, other):
        return (
            isinstance(other, ModuleSpec)
            and self.ring == other.ring
            and self.rank == other.rank
        )

    def __hash__(self):
        return hash((self.ring, self.rank))

    def __repr__(self):
        return f"<Module {self.ring.descriptor()}^{self.rank}>"

    def check_same(self, other: "ModuleSpec"):
        if self != other:
            raise RingMismatchError(f"module mismatch: {self} vs {other}")


def sorted_unique(values) -> np.ndarray:
    """The sorted distinct entries of a 1-D array: `np.unique(values)` by one sort and a
    neighbour comparison, without the `numpy.ma` import that call makes."""
    out = np.sort(values)
    keep = np.ones(out.size, dtype=bool)
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def subring_closure(ring: Ring, gens) -> frozenset:
    """Smallest subset of the ring containing gens and closed under + and *.

    The generators alone are closed over (no unity adjoined); 0 always appears
    because the finite characteristic wraps the additive orbit.  Runs as a
    worklist fixed point over the finite carrier.
    """
    gens = sorted(set(ring.element_code(g, "generator") for g in gens))
    if not gens:
        raise InvalidParameterError("subring_closure needs at least one generator")
    members = np.zeros(ring.size, dtype=bool)
    current = np.array(gens, dtype=np.int64)
    members[current] = True
    while current.size:
        base = np.nonzero(members)[0]
        sums = ring.add_arr(current[:, None], base[None, :]).ravel()
        prods = ring.mul_arr(current[:, None], base[None, :]).ravel()
        batch = np.concatenate([sums, prods])
        fresh = sorted_unique(batch[~members[batch]])
        members[fresh] = True
        current = fresh
    return frozenset(int(x) for x in np.nonzero(members)[0])


def _require_prime_characteristic(ring: Ring) -> int:
    char = ring.characteristic
    if not is_prime(char):
        raise UnsupportedCharacteristicError(
            f"characteristic {char} is not prime; decompose the ring first"
        )
    return char


def stable_power_subring(ring: Ring, coeffs) -> frozenset:
    """Stabilized subring generated by iterated p-th powers of the coefficients.

    For the prime characteristic p, computes the subring generated by {c**(p**j)} for j = 0, 1, 2, ... and
    returns the first one equal to its successor.  The chain is verified to be
    descending at every step.
    """
    p = _require_prime_characteristic(ring)
    coeffs = [ring.element_code(c, "coefficient") for c in coeffs]
    if not coeffs or any(c == 0 for c in coeffs):
        raise InvalidParameterError("coefficients must be nonzero")
    gens = coeffs
    previous = subring_closure(ring, gens)
    while True:
        gens = [ring.pow(c, p) for c in gens]
        nxt = subring_closure(ring, gens)
        if not nxt <= previous:
            raise AssertionError("power subring chain failed to descend")
        if nxt == previous:
            return previous
        previous = nxt


def recurrent_power_sums(ring: Ring, coeffs) -> frozenset:
    """Values (sum of p**k-th powers of the coefficients) - 1 that recur forever.

    The coefficient power vector evolves by the Frobenius map and is eventually
    periodic; the returned set contains exactly the values attained inside the
    detected cycle (k starts at 1).
    """
    p = _require_prime_characteristic(ring)
    coeffs = [ring.element_code(c, "coefficient") for c in coeffs]
    if not coeffs or any(c == 0 for c in coeffs):
        raise InvalidParameterError("coefficients must be nonzero")
    state = tuple(ring.pow(c, p) for c in coeffs)  # k = 1
    seen = {}
    values = []
    k = 0
    while state not in seen:
        seen[state] = k
        total = ring.zero
        for c in state:
            total = ring.add(total, c)
        values.append(ring.sub(total, ring.one))
        state = tuple(ring.pow(c, p) for c in state)
        k += 1
    cycle_start = seen[state]
    return frozenset(values[cycle_start:])
