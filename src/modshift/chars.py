"""Characters of windowed configuration groups and exact root-of-unity sums.

A character based on a finite window is a product of sitewise characters of
the module; each site carries one dual element per component.  The pairing is
u*a mod m over Z/m, the absolute trace of u*a over GF(p**k), and the weighted
combination over product rings, so the dual code space coincides with the
module code space.

Fourier coefficients of exact measures are held as formal sums of L-th roots
of unity with rational weights (`RootSum`); equality with 0 or 1 and modulus
tests reduce to exact divisibility by the L-th cyclotomic polynomial, so the
{0,1} verdicts carry no floating-point caveats.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from math import gcd

import numpy as np

from .errors import ENUMERATION_CAP, ConfigParseError, InvalidParameterError, ResourceLimitError
from .lattice import WindowSpec
from .rings import MixedRadix, ModuleSpec, poly_divmod

__all__ = [
    "RootSum",
    "cyclotomic_polynomial",
    "CharacterSpec",
    "all_characters",
    "character_codes",
    "LabelBuffer",
    "sweep_labels",
    "parse_character",
    "format_character",
]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int) -> tuple:
    """Coefficients (little-endian, ints) of the L-th cyclotomic polynomial."""
    if L < 1:
        raise InvalidParameterError(f"L must be >= 1, got {L}")
    poly = [-1] + [0] * (L - 1) + [1]  # x**L - 1
    for d in range(1, L):
        if L % d == 0:
            poly, rem = poly_divmod(poly, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("non-exact cyclotomic division")
    return tuple(poly)


def _cyclic_product(a: list, b: list) -> list:
    """The weights of (sum_e a[e] zeta**e) * (sum_f b[f] zeta**f) for weight lists of
    one length L: their exact cyclic convolution, on ints or `Fraction`s alike."""
    L = len(a)
    out = [0] * L
    for e, x in enumerate(a):
        if x:
            for f, y in enumerate(b):
                if y:
                    out[(e + f) % L] += x * y
    return out


class RootSum:
    """An exact element sum_{e} w_e * zeta_L**e with rational weights."""

    __slots__ = ("L", "weights")

    def __init__(self, L: int, weights=None):
        self.L = int(L)
        if weights is None:
            weights = [Fraction(0)] * self.L
        if len(weights) != self.L:
            raise InvalidParameterError("weights length != L")
        self.weights = [Fraction(w) for w in weights]

    @staticmethod
    def zero(L: int) -> "RootSum":
        return RootSum(L)

    @staticmethod
    def one(L: int) -> "RootSum":
        return RootSum.monomial(L, 0)

    @staticmethod
    def monomial(L: int, exponent: int, weight=Fraction(1)) -> "RootSum":
        out = RootSum(L)
        out.weights[exponent % L] = Fraction(weight)
        return out

    def add_weight(self, exponent: int, weight):
        self.weights[exponent % self.L] += Fraction(weight)

    def __add__(self, other: "RootSum") -> "RootSum":
        self._check(other)
        return RootSum(self.L, [a + b for a, b in zip(self.weights, other.weights)])

    def __sub__(self, other: "RootSum") -> "RootSum":
        self._check(other)
        return RootSum(self.L, [a - b for a, b in zip(self.weights, other.weights)])

    def __mul__(self, other):
        if isinstance(other, RootSum):
            self._check(other)
            return RootSum(self.L, _cyclic_product(self.weights, other.weights))
        return RootSum(self.L, [w * Fraction(other) for w in self.weights])

    __rmul__ = __mul__

    def _check(self, other):
        if self.L != other.L:
            raise InvalidParameterError(f"root orders differ: {self.L} vs {other.L}")

    def conjugate(self) -> "RootSum":
        out = RootSum(self.L)
        for e, w in enumerate(self.weights):
            out.weights[(-e) % self.L] += w
        return out

    def _reduced_int_coeffs(self):
        den = 1
        for w in self.weights:
            den = den * w.denominator // gcd(den, w.denominator)
        ints = [int(w * den) for w in self.weights]
        _, rem = poly_divmod(ints, cyclotomic_polynomial(self.L))
        return rem, den

    def is_zero(self) -> bool:
        rem, _ = self._reduced_int_coeffs()
        return not any(rem)

    def equals_rational(self, q) -> bool:
        return (self - RootSum.monomial(self.L, 0, Fraction(q))).is_zero()

    def is_one(self) -> bool:
        return self.equals_rational(1)

    def modulus_squared(self) -> "RootSum":
        return self * self.conjugate()

    def modulus_is_zero(self) -> bool:
        return self.is_zero()

    def modulus_is_one(self) -> bool:
        return self.modulus_squared().equals_rational(1)

    def to_complex(self) -> complex:
        out = 0j
        for e, w in enumerate(self.weights):
            if w:
                out += float(w) * cmath.exp(2j * cmath.pi * e / self.L)
        return out

    def __repr__(self):
        terms = [f"{w}*z^{e}" for e, w in enumerate(self.weights) if w]
        return f"RootSum(L={self.L}, {' + '.join(terms) or '0'})"


@dataclass(frozen=True)
class CharacterSpec:
    """A character based on a window: one module dual per listed site.

    Sites with trivial dual are omitted; an empty dual map is the trivial
    character.
    """

    module: ModuleSpec
    window: WindowSpec
    duals: tuple  # sorted tuple of (site, tuple-of-rank dual codes)

    @staticmethod
    def build(module, window, dual_map) -> "CharacterSpec":
        """A character from {site: dual}; `window.flat_indices` refuses a bad site."""
        items = []
        window.flat_indices(sorted(dual_map))
        for site, dual in sorted(dual_map.items()):
            site = tuple(int(x) for x in site)
            if isinstance(dual, int):
                dual = (dual,) * module.rank
            dual = tuple(int(x) for x in dual)
            if len(dual) != module.rank:
                raise InvalidParameterError("dual arity != module rank")
            if any(not 0 <= d < module.ring.size for d in dual):
                raise InvalidParameterError(f"dual code out of range at {site}")
            if any(dual):
                items.append((site, dual))
        return CharacterSpec(module, window, tuple(items))

    @property
    def is_trivial(self) -> bool:
        return not self.duals

    @property
    def order(self) -> int:
        return self.module.ring.char_exponent

    def exponents_of_values(self, values: np.ndarray) -> np.ndarray:
        """Exponents for draws shaped (count, n_sites, rank); column i is site i of `duals`."""
        ring = self.module.ring
        duals = np.array([dual for _, dual in self.duals], dtype=np.int64)
        duals = duals.reshape(1, -1, self.module.rank)
        return ring.pair_exponent_arr(duals, values).sum(axis=(1, 2)) % ring.char_exponent

    def sites(self):
        return tuple(site for site, _ in self.duals)


def _check_sweep_size(module: ModuleSpec, window: WindowSpec, limit: int) -> int:
    total = module.size**window.n_sites
    if total > limit:
        raise ResourceLimitError(
            f"character sweep of size {total} exceeds cap {limit}", required=total
        )
    return total


def all_characters(module: ModuleSpec, window: WindowSpec, limit: int = ENUMERATION_CAP):
    """Every character based inside the window, trivial character first.

    Deterministic order: dual assignments counted row-major over sites (the
    first site most significant), little-endian in the module code at each
    site.
    """
    _check_sweep_size(module, window, limit)
    sites = list(window.sites())
    for combo in iter_product(range(module.size), repeat=window.n_sites):
        dual_map = {}
        for site, code in zip(sites, combo):
            if code:
                dual_map[site] = module.decode(code)
        yield CharacterSpec.build(module, window, dual_map)


def character_codes(module: ModuleSpec, window: WindowSpec, limit: int = ENUMERATION_CAP) -> np.ndarray:
    """The characters of `all_characters` as one (n_chars, n_sites * rank) array.

    Row i holds the dual ring codes of the i-th character, site by site
    (row-major) and component by component, so column (s, c) is the base-q
    digit of i at place (n_sites - 1 - s) * rank + c: the first site is the
    most significant.  The dtype is the narrowest unsigned type that holds a
    ring code.
    """
    total = _check_sweep_size(module, window, limit)
    n_sites, rank = window.n_sites, module.rank
    digits = MixedRadix((module.ring.size,) * (n_sites * rank)).all_digits()
    return digits.reshape(total, n_sites, rank)[:, ::-1].reshape(total, n_sites * rank)


def _term_text(site, code: int) -> str:
    return "(" + ",".join(str(x) for x in site) + f"):{code}"


class LabelBuffer:
    """Text labels as pieces of one byte buffer: piece k is ``data[offsets[k]:offsets[k + 1]]``
    and label i is the concatenation of the pieces ``index[i]``.

    A list of texts is one piece per label (`encode`, as UTF-8); a sweep's n labels
    are two pieces each, out of about 3 * sqrt(n) (`sweep_labels`); `take` only
    selects index rows.  Indexing gives a label's text.
    """

    __slots__ = ("data", "offsets", "index")

    def __init__(self, data: bytes, offsets: np.ndarray, index: np.ndarray):
        self.data, self.offsets, self.index = data, offsets, index

    @staticmethod
    def encode(labels) -> "LabelBuffer":
        """The buffer of a list of texts, one piece each."""
        raw = [text.encode("utf-8", "surrogatepass") for text in labels]
        offsets = np.zeros(len(raw) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, raw), dtype=np.int64, count=len(raw)), out=offsets[1:])
        return LabelBuffer(b"".join(raw), offsets, np.arange(len(raw)).reshape(-1, 1))

    def __len__(self):
        return self.index.shape[0]

    def __getitem__(self, i) -> str:
        n, i = len(self), operator.index(i)
        if not -n <= i < n:
            raise IndexError("label index out of range")
        bounds = self.offsets
        text = b"".join(self.data[bounds[k]:bounds[k + 1]] for k in self.index[i].tolist())
        return text.decode("utf-8", "surrogatepass")

    def pieces(self) -> np.ndarray:
        """Every piece as a bytes object, in an object array."""
        bounds = self.offsets.tolist()
        out = np.empty(len(bounds) - 1, dtype=object)
        out[:] = [self.data[a:b] for a, b in zip(bounds, bounds[1:])]
        return out

    def take(self, rows) -> "LabelBuffer":
        """The labels `rows` (an int array), in that order, on the same pieces."""
        return LabelBuffer(self.data, self.offsets, self.index[rows])


def _product_texts(module: ModuleSpec, sites) -> list:
    """The ";"-joined terms of every dual assignment on `sites`, in `all_characters` order,
    as bytes ("" for none)."""
    texts = [b""]
    for site in sites:
        terms = [_term_text(site, code).encode("ascii") for code in range(1, module.size)]
        # Code 0 at this site adds no term.
        texts = [t for head in texts for t in [head, *(head + b";" + term if head else term
                                                        for term in terms)]]
    return texts


def sweep_labels(module: ModuleSpec, window: WindowSpec) -> LabelBuffer:
    """`format_character` text of every character, in `all_characters` order, as two pieces each.

    A label is its sites' terms joined by ";".  So character i * len(tails) + j is
    head text i, on the first half of the window's sites, then tail text j on the
    rest: the pieces are the heads, the tails as they follow the empty head (tail 0
    reads "trivial") and the tails as they follow any other head (";" first).  The
    sweep's size is its caller's to check (`character_codes` does, for `fourier_sweep`).
    """
    sites = list(window.sites())
    heads = _product_texts(module, sites[:len(sites) // 2])
    tails = _product_texts(module, sites[len(sites) // 2:])
    pieces = [*heads, b"trivial", *tails[1:], b"", *(b";" + t for t in tails[1:])]
    offsets = np.zeros(len(pieces) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in pieces], out=offsets[1:])
    index = np.empty((len(heads), len(tails), 2), dtype=np.min_scalar_type(len(pieces)))
    index[..., 0] = np.arange(len(heads))[:, None]
    index[..., 1] = len(heads) + np.arange(len(tails))
    index[1:, :, 1] += len(tails)
    return LabelBuffer(b"".join(pieces), offsets, index.reshape(len(heads) * len(tails), 2))


def format_character(chi: CharacterSpec) -> str:
    if chi.is_trivial:
        return "trivial"
    return ";".join(_term_text(site, chi.module.encode(dual)) for site, dual in chi.duals)


def parse_character(text: str, module: ModuleSpec, window: WindowSpec) -> CharacterSpec:
    text = text.strip()
    if text in ("trivial", ""):
        return CharacterSpec.build(module, window, {})
    dual_map = {}
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece.startswith("(") or "):" not in piece:
            raise ConfigParseError(f"bad character term {piece!r}")
        body, code_s = piece[1:].split("):", 1)
        try:
            site = tuple(int(x) for x in body.split(","))
            code = int(code_s)
        except ValueError:
            raise ConfigParseError(f"bad character term {piece!r}") from None
        dual_map[site] = module.decode(code)
    return CharacterSpec.build(module, window, dual_map)
