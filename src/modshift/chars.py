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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product

import numpy as np

from .errors import ENUMERATION_CAP, ConfigParseError, InvalidParameterError, ResourceLimitError
from .lattice import WindowSpec
from .rings import MixedRadix, ModuleSpec

__all__ = [
    "RootSum",
    "cyclotomic_polynomial",
    "CharacterSpec",
    "all_characters",
    "character_codes",
    "character_labels",
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
            poly = _polydiv_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _polydiv_exact(num, den):
    num = list(num)
    out_len = len(num) - len(den) + 1
    q = [0] * out_len
    for shift in range(out_len - 1, -1, -1):
        coef = num[shift + len(den) - 1]
        if coef % den[-1]:
            raise ArithmeticError("non-exact cyclotomic division")
        coef //= den[-1]
        q[shift] = coef
        for i, d in enumerate(den):
            num[shift + i] -= coef * d
    if any(num):
        raise ArithmeticError("non-exact cyclotomic division")
    return q


def _poly_rem_int(coeffs, modpoly):
    """Remainder of an integer polynomial modulo a monic integer polynomial."""
    rem = list(coeffs)
    deg_m = len(modpoly) - 1
    for shift in range(len(rem) - deg_m - 1, -1, -1):
        lead = rem[shift + deg_m]
        if lead:
            for i, d in enumerate(modpoly):
                rem[shift + i] -= lead * d
    return rem[:deg_m]


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
            out = [Fraction(0)] * self.L
            for e, w in enumerate(self.weights):
                if not w:
                    continue
                for f, v in enumerate(other.weights):
                    if v:
                        out[(e + f) % self.L] += w * v
            return RootSum(self.L, out)
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
        from math import gcd

        den = 1
        for w in self.weights:
            den = den * w.denominator // gcd(den, w.denominator)
        ints = [int(w * den) for w in self.weights]
        rem = _poly_rem_int(ints, list(cyclotomic_polynomial(self.L)))
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
        items = []
        for site, dual in sorted(dual_map.items()):
            site = tuple(int(x) for x in site)
            if isinstance(dual, int):
                dual = (dual,) * module.rank
            dual = tuple(int(x) for x in dual)
            if len(dual) != module.rank:
                raise InvalidParameterError("dual arity != module rank")
            if not window.contains_site(site):
                raise InvalidParameterError(f"dual site {site} outside base window")
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

    def exponents_of_values(self, values: np.ndarray, site_positions: dict) -> np.ndarray:
        """Vectorized exponents for draws shaped (count, n_selected_sites, rank).

        `site_positions` maps absolute sites to indices in the selection axis.
        """
        ring = self.module.ring
        L = ring.char_exponent
        total = np.zeros(values.shape[0], dtype=np.int64)
        for site, dual in self.duals:
            col = site_positions[site]
            for c, d in enumerate(dual):
                total = total + ring.pair_exponent_arr(
                    np.int64(d), values[:, col, c]
                )
        return total % L

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


def character_labels(module: ModuleSpec, window: WindowSpec) -> list:
    """`format_character` text of every character, in `all_characters` order.

    The sweep is a full product over sites, so the labels are built one site
    at a time by concatenation instead of one character at a time.
    """
    labels = [""]
    for site in window.sites():
        terms = [_term_text(site, code) for code in range(1, module.size)]
        pieces = [""] + [";" + term for term in terms]
        # Only the all-zero head (always first) takes its next term without ";".
        labels = ["", *terms] + [head + piece for head in labels[1:] for piece in pieces]
    labels[0] = "trivial"
    return labels


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
