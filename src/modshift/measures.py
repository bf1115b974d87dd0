"""Measures on windowed configuration spaces and their diagnostics.

Handles come in exact and sampled flavors.  Exact handles answer cylinder
probabilities as Fractions; sampled handles draw reproducibly via
counter-based streams, so draw i of seed s is a pure function of (s, i) no
matter how work is partitioned.

Exact Fourier coefficients, as root-of-unity sums, come from one engine,
`_coefficients`, that takes a whole array of characters at once: `fourier`
hands it one character, `fourier_sweep` every character of a window and
`rigidity_experiment` its character list at each t.  It answers Haar
measures from annihilator membership and the phase at the representative,
Bernoulli measures once per multiset of duals, and word lists from one
pairing product with the words.

`SubgroupHaarMeasure` is the one Haar handle and the workhorse: the uniform
measure on a coset of a window subgroup, held as echelonized spans plus the
(n_sites, rank) codes of a representative, which are zero for a subgroup.
`CosetHaarMeasure` only builds such a handle from a representative
configuration and a subgroup handle.  Haar measures are closed under linear
rule pushforward (transform the generators and the representative,
re-echelonize), which keeps exactness available far beyond enumerable sizes.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product as iter_product

import numpy as np

from . import crt, linalg
from .chars import (
    CharacterSpec,
    RootSum,
    character_codes,
    character_labels,
    format_character,
)
from .errors import (
    ENUMERATION_CAP,
    InvalidCosetError,
    InvalidParameterError,
    MissingTrivialCharacterError,
    OutOfWindowError,
    ResourceLimitError,
    UnsupportedCharacteristicError,
)
from .kernels import (
    KernelShiftSpec,
    WindowBasis,
    _propagate,
    coset_shift_check,
)
from .lattice import WindowConfig, WindowSpec, integer_array, pin_union, scaled_offset
from .rings import MixedRadix, ModuleSpec, Ring, is_prime, sorted_unique
from .rng import CounterRng, cdf_thresholds, draw_blocks
from .shiftpoly import (
    LocalRule,
    ShiftPolynomial,
    format_rule,
    from_rule,
    poly_pow,
    poly_pow_charp,
    stencil,
)

__all__ = [
    "MeasureHandle",
    "BernoulliMeasure",
    "SubgroupHaarMeasure",
    "CosetHaarMeasure",
    "ExactWordMeasure",
    "TransformedMeasure",
    "uniform_bernoulli",
    "bernoulli",
    "kernel_haar",
    "coset_haar",
    "point_mass",
    "pushforward",
    "FourierResult",
    "fourier",
    "FourierSweep",
    "FourierTable",
    "fourier_sweep",
    "HaarVerdict",
    "haar_criterion",
    "MixingResult",
    "mixing_statistic",
    "block_entropy",
    "RigidityReport",
    "rigidity_experiment",
    "ENUMERATION_CAP",
]

EXACT_TOL = 1e-9


class MeasureHandle:
    """Base interface; see module docstring for the exact/sampled split."""

    module: ModuleSpec
    window: WindowSpec
    mode: str
    label: str
    seed: int
    provenance: tuple

    is_exact = False

    def _init_common(self, module, window, mode, label, seed, provenance=()):
        self.module = module
        self.window = window
        self.mode = mode
        self.label = label
        self.seed = int(seed)
        self.provenance = tuple(provenance)

    # exact interface (Fourier coefficients: `_coefficients`) --------------
    def cylinder_probability(self, pins: dict) -> Fraction:
        raise InvalidParameterError(f"{self.label}: no exact cylinder probabilities")

    def enumerate_words(self, limit: int = ENUMERATION_CAP):
        raise ResourceLimitError(f"{self.label}: not enumerable", required=-1)

    def entropy_bits_per_site(self, site_indices) -> float:
        raise InvalidParameterError(f"{self.label}: no exact entropy")

    # sampled interface ------------------------------------------------------
    def draw_values(self, start: int, count: int, site_indices=None) -> np.ndarray:
        """(count, n_selected_sites, rank) ring codes for draws [start, start+count).

        Every draw takes its own counters, so draws [start + r0, start + r0 + n)
        are rows r0..r0+n of the draws from `start`: a consumer that only
        reduces its draws reads them in blocks (`_draw_blocks`).
        """
        raise NotImplementedError

    def _draw_widths(self, site_indices=None) -> list:
        """Widths of the counter grids `draw_values` computes, one row per draw each, in order."""
        raise NotImplementedError

    def draw(self, index: int) -> WindowConfig:
        vals = self.draw_values(index, 1)[0]
        return WindowConfig(
            self.window,
            self.module,
            vals.reshape(self.window.extents + (self.module.rank,)),
            self.mode,
        )

    # bookkeeping ------------------------------------------------------------
    def _site_selection(self, site_indices):
        if site_indices is None:
            return np.arange(self.window.n_sites, dtype=np.int64)
        return np.asarray(site_indices, dtype=np.int64)

    def describe(self) -> dict:
        return {
            "kind": type(self).__name__,
            "label": self.label,
            "window": str(self.window),
            "module": f"{self.module.ring.descriptor()}^{self.module.rank}",
            "mode": self.mode,
            "seed": self.seed,
            "exact": self.is_exact,
            "provenance": list(self.provenance),
        }

    def derived(self, note: str):
        return self.provenance + (note,)


def _site_columns(idx, rank: int) -> np.ndarray:
    """Module-variable columns of window site indices: component c of site i is column i * rank + c."""
    return (idx[:, None] * rank + np.arange(rank)).ravel()


def _codes_ok(values, shape, size: int) -> bool:
    """Whether `values` is an integer array of `shape` with every entry in [0, size)."""
    arr = integer_array(values, shape)
    return arr is not None and bool(((arr >= 0) & (arr < size)).all())


def _pin_arrays(window: WindowSpec, module: ModuleSpec, pins: dict):
    """A pin dict as (window site indices, (n, rank) element codes).

    A site `flat_indices` refuses, or a value that is not a rank-tuple of
    element codes, raises, naming the first such site.
    """
    idx = window.flat_indices(list(pins))
    rank, size = module.rank, module.ring.size
    values = list(pins.values())
    if values and not _codes_ok(values, (len(values), rank), size):
        site = next(s for s, v in pins.items() if not _codes_ok(v, (rank,), size))
        raise InvalidParameterError(
            f"pin at site {site}: {pins[site]!r} is not a rank-{rank} tuple "
            f"of element codes in [0, {size})"
        )
    return idx, np.asarray(values, dtype=np.int64).reshape(len(values), rank)


class BernoulliMeasure(MeasureHandle):
    """I.i.d. site values with a shared distribution over module codes."""

    is_exact = True

    def __init__(self, module, window, probs, seed=0, mode="exact", label="bernoulli", provenance=()):
        probs = tuple(Fraction(p) for p in probs)
        if len(probs) != module.size:
            raise InvalidParameterError("need one probability per module code")
        if sum(probs) != 1 or any(p < 0 for p in probs):
            raise InvalidParameterError("probabilities must be nonnegative and sum to 1")
        self.probs = probs
        self._init_common(module, window, mode, label, seed, provenance)
        self._uniform = all(p == probs[0] for p in probs)
        self._thresholds = None if self._uniform else cdf_thresholds(probs)
        self._rng = CounterRng(self.seed, stream=1)

    @property
    def is_uniform(self):
        return self._uniform

    def cylinder_probability(self, pins):
        _, vals = _pin_arrays(self.window, self.module, pins)
        out = Fraction(1)
        for code in self.module.pack_arr(vals).tolist():
            out *= self.probs[code]
        return out

    def enumerate_words(self, limit=ENUMERATION_CAP):
        n = self.window.n_sites
        total = self.module.size**n
        if total > limit:
            raise ResourceLimitError(
                f"Bernoulli enumeration of {total} words exceeds cap {limit}",
                required=total,
            )
        support = [c for c, p in enumerate(self.probs) if p]
        for combo in iter_product(support, repeat=n):
            p = Fraction(1)
            for c in combo:
                p *= self.probs[c]
            vals = self.module.unpack_arr(np.array(combo, dtype=np.int64)).reshape(
                n, self.module.rank
            )
            yield vals, p

    def entropy_bits_per_site(self, site_indices):
        h = 0.0
        for p in self.probs:
            if p:
                h -= float(p) * math.log2(float(p))
        return h

    def _draw_widths(self, site_indices=None):
        return [self._site_selection(site_indices).size]

    def draw_values(self, start, count, site_indices=None):
        sel = self._site_selection(site_indices)
        n = self.window.n_sites
        if self._uniform:
            codes = self._rng.uniform_codes(start * n, (count, n), self.module.size, columns=sel)
        else:
            codes = self._rng.uniform_from_cdf(start * n, (count, n), self._thresholds, columns=sel)
        return self.module.unpack_arr(codes)


@dataclass(frozen=True)
class _FieldSpan:
    """Echelonized F_q span of module-valued window vectors (one prime part)."""

    ring: Ring
    basis: np.ndarray  # (nb, n_sites * rank), RREF rows, read-only

    @property
    def dim(self):
        return self.basis.shape[0]


def _echelonize(ring, rows, nvars):
    if rows.size == 0:
        return np.zeros((0, nvars), dtype=np.int64)
    rref, pivots = linalg.rref(np.asarray(rows, dtype=np.int64), ring)
    return rref[: len(pivots)].copy()


class SubgroupHaarMeasure(MeasureHandle):
    """Uniform measure on a coset of a subgroup of module words over a window.

    The subgroup is held as one echelonized span per field component of
    `crt.field_decomposition(module.ring)`; a field is its own single
    component.  `rep_codes` holds the (n_sites, rank) codes of the coset's
    representative, zero (the default) for the subgroup itself.  Canonical
    RREF bases make equality of subgroups a plain array comparison.
    """

    is_exact = True

    def __init__(self, module, window, spans, seed=0, mode="exact",
                 label="subgroup-haar", provenance=(), rep_codes=None):
        self._init_common(module, window, mode, label, seed, provenance)
        self.spans = tuple(spans)
        self.decomposition = crt.field_decomposition(module.ring)
        if len(self.spans) != self.decomposition.n_components:
            raise InvalidParameterError(
                f"{len(self.spans)} spans for the {self.decomposition.n_components} "
                f"field components of {module.ring.descriptor()}"
            )
        shape = (window.n_sites, module.rank)
        rep_codes = np.zeros(shape) if rep_codes is None else rep_codes
        self.rep_codes = np.array(rep_codes, dtype=np.int64).reshape(shape)
        for arr in [span.basis for span in self.spans] + [self.rep_codes]:
            arr.setflags(write=False)
        self._rng = [CounterRng(self.seed, stream=31 + i) for i in range(len(self.spans))]

    # constructors ---------------------------------------------------------
    @staticmethod
    def full_space(module, window, seed=0, mode="exact", label="uniform", provenance=()):
        nvars = window.n_sites * module.rank
        spans = [
            _FieldSpan(r, np.eye(nvars, dtype=np.int64) * r.one)
            for r in crt.field_decomposition(module.ring).component_rings
        ]
        return SubgroupHaarMeasure(module, window, spans, seed, mode, label, provenance)

    @staticmethod
    def from_kernel(spec: KernelShiftSpec, window: WindowSpec, seed=0, mode="exact", label=None):
        """Haar measure on the in-window kernel of `spec` over `window`, with no
        elimination: by matroid duality the kernel's RREF is `kernels._propagate` with the
        lex-last term as lead, and its Kronecker product with the identity is in RREF.
        `_propagate` refuses a window without the kernel's dims."""
        eye = np.eye(spec.module.rank, dtype=np.int64)
        spans = [_FieldSpan(ring, np.kron(rows, eye)) for ring, rows, _ in _propagate(spec, window, "last")]
        return SubgroupHaarMeasure(
            spec.module, window, spans, seed, mode, label or f"kernel-haar[{spec.label}]"
        )

    @staticmethod
    def from_window_basis(basis: WindowBasis, seed=0, mode="exact", label=None):
        """`from_kernel` of the basis' spec and window; the basis rows are not read."""
        return SubgroupHaarMeasure.from_kernel(basis.spec, basis.window, seed, mode, label)

    def _rebuilt(self, module, window, spans, rep_codes, note: str, suffix: str = ""):
        """A handle of this kind on new spans and representative codes.

        It keeps the seed and mode, appends `suffix` to the label and `note`
        to the provenance.  `pushforward`, `marginal` and
        `crt.project_measure` build their results here.
        """
        return SubgroupHaarMeasure(
            module, window, spans, seed=self.seed, mode=self.mode, label=self.label + suffix,
            provenance=self.derived(note), rep_codes=rep_codes,
        )

    # structure --------------------------------------------------------------
    def subgroup_size(self) -> int:
        out = 1
        for span in self.spans:
            out *= span.ring.size**span.dim
        return out

    def same_distribution(self, other: "SubgroupHaarMeasure") -> bool:
        """Equal spans, and representatives that differ by a subgroup word."""
        if self.window != other.window or self.module != other.module:
            return False
        if not all(np.array_equal(a.basis, b.basis) for a, b in zip(self.spans, other.spans)):
            return False
        diff = self.module.ring.sub_arr(other.rep_codes, self.rep_codes)
        everywhere = np.arange(self.window.n_sites)
        return not diff.any() or self._pinned_probability(everywhere, diff) > 0

    def marginal(self, sub_window: WindowSpec) -> "SubgroupHaarMeasure":
        """Exact marginal on a sub-window (projection of a coset is a coset)."""
        if not self.window.contains_window(sub_window):
            raise OutOfWindowError(f"{sub_window} not inside {self.window}")
        idx = self.window.flat_indices(sub_window.sites())
        cols = _site_columns(idx, self.module.rank)
        nvars = len(cols)
        spans = [
            _FieldSpan(span.ring, _echelonize(span.ring, span.basis[:, cols], nvars))
            for span in self.spans
        ]
        return self._rebuilt(
            self.module, sub_window, spans, self.rep_codes[idx], f"marginal on {sub_window}"
        )

    def merged_generators(self) -> np.ndarray:
        """Additive generators of the subgroup as source-ring code rows (g, nvars).

        A span over GF(p**k) is an F_q-span, so each basis row enters times
        each element 1, x, ..., x**(k-1) (codes p**j) of an F_p-basis of the
        field; a character trivial on every returned row is trivial on the
        whole subgroup.
        """
        nvars = self.window.n_sites * self.module.rank
        gens = [np.zeros((0, nvars), dtype=np.int64)]
        for si, span in enumerate(self.spans):
            ring = span.ring
            scalars = [ring.p**j for j in range(ring.k)] if ring.kind == "gf" else [ring.one]
            rows = np.concatenate([ring.mul_arr(np.int64(c), span.basis) for c in scalars])
            comps = [rows if j == si else np.zeros_like(rows) for j in range(len(self.spans))]
            gens.append(self.decomposition.merge_arrays(comps))
        return np.concatenate(gens)

    # exact interface ----------------------------------------------------------
    def cylinder_probability(self, pins):
        idx, vals = _pin_arrays(self.window, self.module, pins)
        return self._pinned_probability(idx, self.module.ring.sub_arr(vals, self.rep_codes[idx]))

    def _pinned_probability(self, idx, vals):
        """Probability that the subgroup holds the (n, rank) codes `vals` at sites `idx`."""
        if not idx.size:
            return Fraction(1)
        cols, vals = _site_columns(idx, self.module.rank), vals.ravel()
        out = Fraction(1)
        for si, span in enumerate(self.spans):
            targets = self.decomposition.forward_table[vals, si]
            solution, null = linalg.solve_affine(span.basis[:, cols].T, targets, span.ring)
            if solution is None:
                return Fraction(0)
            r = span.dim - null.shape[0]  # rank of A, from the same elimination
            out *= Fraction(1, span.ring.size**r)
        return out

    def enumerate_words(self, limit=ENUMERATION_CAP):
        total = self.subgroup_size()
        if total > limit:
            raise ResourceLimitError(
                f"subgroup of size {total} exceeds enumeration cap {limit}",
                required=total,
            )
        p = Fraction(1, total)
        merged = self.decomposition.merge_product([
            span.ring.lincomb(MixedRadix((span.ring.size,) * span.dim).all_digits(), span.basis)
            for span in self.spans
        ])
        words = self.module.ring.add_arr(
            merged.reshape((total,) + self.rep_codes.shape), self.rep_codes
        )
        for i in range(total):
            yield words[i], p

    def entropy_bits_per_site(self, site_indices):
        sel = self._site_selection(site_indices)
        cols = np.sort(_site_columns(sel, self.module.rank))
        bits = sum(
            linalg.row_span_rank(span.basis[:, cols], span.ring) * math.log2(span.ring.size)
            for span in self.spans
        )
        return bits / len(sel)

    # sampled interface ----------------------------------------------------------
    def _span_rows(self, sel):
        """Per span, the basis rows that touch the columns of sites `sel`, restricted to them."""
        cols = _site_columns(sel, self.module.rank)
        out = []
        for span in self.spans:
            basis = span.basis[:, cols]
            rows = np.flatnonzero(basis.any(axis=1))
            out.append((rows, basis[rows]))
        return out

    def _draw_widths(self, site_indices=None):
        return [rows.size for rows, _ in self._span_rows(self._site_selection(site_indices))]

    def draw_values(self, start, count, site_indices=None):
        # Draw i combines the basis rows with coefficients at counters
        # (start + i) * nb + row, plus the representative.  Only the selected
        # columns are computed, and only for the rows that touch them, so the
        # values equal full draws sliced.
        sel = self._site_selection(site_indices)
        comp_vals = []
        for si, (span, (rows, basis)) in enumerate(zip(self.spans, self._span_rows(sel))):
            shape = (count, span.dim)
            coefs = self._rng[si].uniform_codes(start * span.dim, shape, span.ring.size, columns=rows)
            comp_vals.append(span.ring.lincomb(coefs, basis))
        merged = self.decomposition.merge_arrays(comp_vals).reshape(count, sel.size, self.module.rank)
        return self.module.ring.add_arr(merged, self.rep_codes[sel])


class CosetHaarMeasure(SubgroupHaarMeasure):
    """The Haar handle of a subgroup handle translated by a representative.

    `rep` is the representative configuration and `subgroup` the untranslated
    handle; every measure operation is the one `SubgroupHaarMeasure` defines.
    """

    def __init__(self, rep: WindowConfig, subgroup: SubgroupHaarMeasure, label=None, provenance=()):
        if rep.window != subgroup.window:
            raise InvalidParameterError("representative window != subgroup window")
        rep.module.check_same(subgroup.module)
        if subgroup.rep_codes.any():
            raise InvalidParameterError(f"{subgroup.label} is a translated handle, not a subgroup")
        super().__init__(
            subgroup.module, subgroup.window, subgroup.spans, subgroup.seed, subgroup.mode,
            label or f"coset[{subgroup.label}]", provenance, rep.flat(),
        )
        self.rep = rep
        self.subgroup = subgroup

    def _rebuilt(self, module, window, spans, rep_codes, note, suffix=""):
        rep = WindowConfig(window, module, rep_codes.reshape(window.extents + (module.rank,)),
                           self.mode)
        return CosetHaarMeasure(
            rep, self.subgroup._rebuilt(module, window, spans, np.zeros_like(rep_codes), note, suffix),
            label=self.label + suffix, provenance=self.derived(note),
        )


class ExactWordMeasure(MeasureHandle):
    """Explicit finite distribution over window words."""

    is_exact = True

    def __init__(self, module, window, word_probs, seed=0, mode="exact", label="exact", provenance=()):
        # word_probs: iterable of (word, probability); a word is any integer
        # array of n_sites * rank codes, read as (n_sites, rank).
        shape = (window.n_sites, module.rank)
        size = module.ring.size
        items = []
        for i, (vals, p) in enumerate(word_probs):
            try:
                vals = integer_array(np.reshape(vals, shape), shape)
            except ValueError:  # ragged, or not n_sites * rank values
                vals = None
            if vals is None or not ((vals >= 0) & (vals < size)).all():
                raise InvalidParameterError(
                    f"word {i} is not {shape[0] * shape[1]} integer codes in [0,{size}) "
                    f"({shape[0]} sites of rank {shape[1]})"
                )
            p = Fraction(p)
            if p < 0:
                raise InvalidParameterError(f"word {i} has negative probability {p}")
            items.append((vals.tobytes(), vals, p))
        items.sort(key=lambda kvp: kvp[0])
        merged = []
        for key, vals, p in items:
            if merged and merged[-1][0] == key:
                merged[-1] = (key, vals, merged[-1][2] + p)
            else:
                merged.append((key, vals, p))
        total = sum((p for _, _, p in merged), start=Fraction(0))
        if total != 1:
            raise InvalidParameterError(f"probabilities sum to {total}, not 1")
        self.words = [(vals, p) for _, vals, p in merged if p]
        self._init_common(module, window, mode, label, seed, provenance)
        self._thresholds = cdf_thresholds([p for _, p in self.words])
        self._rng = CounterRng(self.seed, stream=3)

    @staticmethod
    def from_config(config: WindowConfig, seed=0, label="point-mass"):
        return ExactWordMeasure(
            config.module,
            config.window,
            [(config.flat(), Fraction(1))],
            seed=seed,
            mode=config.mode,
            label=label,
        )

    @cached_property
    def _word_array(self) -> np.ndarray:
        """The words as one read-only (n_words, n_sites, rank) array."""
        stacked = np.stack([w for w, _ in self.words]).reshape(
            len(self.words), self.window.n_sites, self.module.rank
        )
        stacked.setflags(write=False)
        return stacked

    def cylinder_probability(self, pins):
        idx, vals = _pin_arrays(self.window, self.module, pins)
        hits = (self._word_array[:, idx] == vals).all(axis=(1, 2))
        return sum((p for (_, p), hit in zip(self.words, hits) if hit), start=Fraction(0))

    def enumerate_words(self, limit=ENUMERATION_CAP):
        if len(self.words) > limit:
            raise ResourceLimitError("word list exceeds cap", required=len(self.words))
        for word, p in self.words:
            yield word, p

    def entropy_bits_per_site(self, site_indices):
        sel = self._site_selection(site_indices)
        agg = {}
        for word, p in self.words:
            key = word[sel].tobytes()
            agg[key] = agg.get(key, Fraction(0)) + p
        h = 0.0
        for p in agg.values():
            if p:
                h -= float(p) * math.log2(float(p))
        return h / len(sel)

    def _draw_widths(self, site_indices=None):
        return [1]

    def draw_values(self, start, count, site_indices=None):
        sel = self._site_selection(site_indices)
        idx = self._rng.uniform_from_cdf(start, (count,), self._thresholds)
        return self._word_array[idx[:, None], sel]


class TransformedMeasure(MeasureHandle):
    """Sampled pushforward: draws are a vectorized transform of source draws."""

    is_exact = False

    def __init__(self, source, transform, window, module, label, provenance=()):
        # transform: (count, *source_extents, rank) -> (count, *extents, rank)
        self.source = source
        self.transform = transform
        self._init_common(module, window, source.mode, label, source.seed, provenance)

    def _draw_widths(self, site_indices=None):
        return self.source._draw_widths()

    def draw_values(self, start, count, site_indices=None):
        sel = self._site_selection(site_indices)
        src = self.source.draw_values(start, count)
        src = src.reshape((count,) + self.source.window.extents + (self.source.module.rank,))
        out = self.transform(src)
        flat = out.reshape(count, self.window.n_sites, self.module.rank)
        return flat[:, sel, :]


# -- factory helpers ----------------------------------------------------------


def uniform_bernoulli(module, window, seed=0, mode="exact") -> BernoulliMeasure:
    p = Fraction(1, module.size)
    return BernoulliMeasure(
        module, window, [p] * module.size, seed=seed, mode=mode, label="uniform-bernoulli"
    )


def bernoulli(module, window, probs, seed=0, mode="exact") -> BernoulliMeasure:
    return BernoulliMeasure(module, window, probs, seed=seed, mode=mode, label="bernoulli")


def kernel_haar(spec: KernelShiftSpec, window: WindowSpec, seed=0, mode="exact") -> SubgroupHaarMeasure:
    return SubgroupHaarMeasure.from_kernel(spec, window, seed=seed, mode=mode)


def coset_haar(rep: WindowConfig, spec: KernelShiftSpec, seed=0, mode="exact") -> CosetHaarMeasure:
    if not coset_shift_check(rep, spec):
        raise InvalidCosetError(
            "representative fails the coset-shift condition (a coboundary leaves the kernel)"
        )
    sub = kernel_haar(spec, rep.window, seed=seed, mode=mode)
    return CosetHaarMeasure(rep, sub)


def point_mass(config: WindowConfig, seed=0) -> ExactWordMeasure:
    return ExactWordMeasure.from_config(config, seed=seed)


# -- pushforward ----------------------------------------------------------------


def _power_poly(rule: LocalRule, t: int) -> ShiftPolynomial:
    """The rule's polynomial to the power t: by base-p digits over a prime
    characteristic p, else by squaring.  The one place that picks the algorithm."""
    f = from_rule(rule)
    if is_prime(rule.ring.characteristic):
        return poly_pow_charp(f, t)
    return poly_pow(f, t)


def _image(mu, apply, out_window, module, note: str, suffix: str, limit: int) -> MeasureHandle:
    """The image of mu under `apply`, which maps (count, *mu.window.extents, rank)
    codes to (count, *out_window.extents, module.rank) codes.

    An exact handle whose words enumerate within `limit` gives the word list of
    their images, any other handle a sampled one that applies `apply` to its
    draws.  The result keeps mu's seed and mode, and `suffix` ends its label.
    """
    label, provenance = mu.label + suffix, mu.derived(note)
    if mu.is_exact:
        try:
            words = list(mu.enumerate_words(limit))
        except ResourceLimitError:
            words = None
        if words:
            shaped = np.stack([vals for vals, _ in words]).reshape(
                (len(words),) + mu.window.extents + (mu.module.rank,)
            )
            pushed = [
                (out.reshape(-1, module.rank), p) for out, (_, p) in zip(apply(shaped), words)
            ]
            return ExactWordMeasure(
                module, out_window, pushed, seed=mu.seed, mode=mu.mode, label=label,
                provenance=provenance,
            )
    return TransformedMeasure(mu, apply, out_window, module, label=label, provenance=provenance)


def pushforward(mu: MeasureHandle, rule: LocalRule, t: int, limit: int = ENUMERATION_CAP) -> MeasureHandle:
    """Distribution of t rule applications of draws from mu, labelled `<label>->t<t>`.

    t = 0 returns mu itself.  The rule is powered once, by `_power_poly`.
    Haar handles transform exactly at any size: each field component's span
    by the power's nonzero codes in that component, the representative over
    the whole ring.  Other handles go to `_image`: exact ones are enumerated
    within `limit`, everything else is sampled.
    """
    if t < 0:
        raise InvalidParameterError(f"t must be >= 0, got {t}")
    if t == 0:
        return mu
    rule.module.check_same(mu.module)
    note = f"pushforward by {rule.offsets}/{rule.coeffs}, t={t}"
    poly = _power_poly(rule, t)
    shape = mu.window.extents + (mu.module.rank,)
    source = mu
    if isinstance(mu, BernoulliMeasure) and mu.is_uniform and mu.mode == "exact":
        try:
            source = SubgroupHaarMeasure.full_space(
                mu.module, mu.window, seed=mu.seed, mode=mu.mode, label=mu.label,
                provenance=mu.provenance,
            )
        except UnsupportedCharacteristicError:
            pass  # not a product of fields: enumerate or sample below
    if not (isinstance(source, SubgroupHaarMeasure) and source.mode == "exact"):
        out_window, _ = stencil(poly.terms, np.zeros((0,) + shape, dtype=np.int64), mu.window,
                                mu.mode, rule.ring)

        def apply(batch):
            return stencil(poly.terms, batch, mu.window, mu.mode, rule.ring)[1]

        return _image(mu, apply, out_window, mu.module, note, f"->t{t}", limit)
    out_window, rep = stencil(poly.terms, source.rep_codes.reshape((1,) + shape), mu.window,
                              "exact", rule.ring)
    codes = source.decomposition.split_arrays([c for _, c in poly.terms])
    nvars = out_window.n_sites * mu.module.rank
    spans = []
    for j, span in enumerate(source.spans):
        # A vanishing edge term widens this component's window; cut it to the ring's.
        terms = [(off, c) for (off, _), c in zip(poly.terms, codes[j]) if c]
        rows = span.basis.reshape((span.dim,) + shape)
        comp_window, out = stencil(terms, rows, mu.window, "exact", span.ring)
        out = out[(slice(None),) + comp_window.relative_slices(out_window)].reshape(span.dim, nvars)
        spans.append(_FieldSpan(span.ring, _echelonize(span.ring, out, nvars)))
    return source._rebuilt(mu.module, out_window, spans, rep, note, f"->t{t}")


# -- Fourier -----------------------------------------------------------------


@dataclass
class FourierResult:
    """A Fourier coefficient, exact iff it has a root sum; `chi` is None for a class of characters."""

    chi: CharacterSpec | None
    value: complex
    stderr: float
    root_sum: RootSum | None = None

    @property
    def is_exact(self):
        return self.root_sum is not None

    @property
    def modulus(self):
        return abs(self.value)

    def row(self, **extra) -> dict:
        return {"chi": format_character(self.chi), **self._template(), **extra}

    def _template(self) -> dict:
        """The row's columns after ``chi``."""
        return {"re": self.value.real, "im": self.value.imag, "modulus": self.modulus,
                "stderr": self.stderr, "exact": self.is_exact}


def fourier(mu: MeasureHandle, chi: CharacterSpec, budget="exact", start: int = 0) -> FourierResult:
    """Integral of the character against the measure.

    budget='exact' gives the exact root-of-unity sum of `_coefficients` on
    this one character; an integer budget estimates from that many
    reproducible draws with stderr 1/sqrt(N).
    """
    sites, codes = _character_rows([chi], mu.module.rank)
    idx = _character_indices(mu.window, sites, codes)
    if budget == "exact":
        class_ids, root_sums = _coefficients(mu, sites, codes)
        rs = root_sums[class_ids[0]]
        return FourierResult(chi, rs.to_complex(), 0.0, root_sum=rs)
    n = _positive_integer(budget, "sample budget")
    blocks = _draw_blocks(mu, start, n, idx) if sites else ()
    exps = np.zeros(n, dtype=np.int64)
    for r0, draws in blocks:
        exps[r0:r0 + len(draws)] = chi.exponents_of_values(draws)
    L = chi.order
    angles = 2.0 * np.pi * exps.astype(np.float64) / L
    value = complex(np.mean(np.cos(angles)), np.mean(np.sin(angles)))
    return FourierResult(chi, value, 1.0 / math.sqrt(n))


def _positive_integer(value, name: str) -> int:
    """`value` as an int, such as a number of draws; anything but an integer >= 1 raises."""
    try:
        n = operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None
    if n < 1:
        raise InvalidParameterError(f"{name} must be >= 1, got {value}")
    return n


def _draw_blocks(mu: MeasureHandle, start: int, count: int, sel: np.ndarray):
    """`(r0, mu.draw_values(start + r0, n, sel))` over blocks covering draws [0, count).

    A block is rows r0..r0+n of the whole draw (see `MeasureHandle.draw_values`),
    sized by the cells one draw computes; a whole draw that `mu` would refuse is
    refused before the first block, with the same `DrawLimitError`.
    """
    widths = mu._draw_widths(sel)
    cells = max(sum(widths), sel.size * mu.module.rank)
    return draw_blocks(count, widths, cells, lambda r0, n: mu.draw_values(start + r0, n, sel))


_SWEEP_CHUNK_CELLS = 1 << 21


def _row_radix(base: int, ncols: int) -> MixedRadix | None:
    """The keys of rows of `ncols` codes in [0, base), or None where they would overflow.

    `key(row) = _row_radix(..).join(row[..., ::-1])`: reversed columns make the
    first column most significant, so keys order like the rows, while
    base**ncols < 2**62.
    """
    return MixedRadix((base,) * ncols) if base**ncols < 1 << 62 else None


def _unique_rows(rows: np.ndarray, base: int, **kwargs):
    """`np.unique(rows, axis=0, **kwargs)` without the unique rows themselves.

    Rows of codes in [0, base) are compared as one `_row_radix` key each when
    they fit, which gives every output the same; wider rows are compared as
    rows.
    """
    radix = _row_radix(base, rows.shape[1])
    if radix is not None:
        return np.unique(radix.join(rows[:, ::-1]), **kwargs)[1:]
    return np.unique(rows, axis=0, **kwargs)[1:]


def _pair_exponents(ring: Ring, duals: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """(n, g) exponents sum_j pair(duals[:, j], vectors[i, j]) mod L."""
    L = ring.char_exponent
    if ring.kind == "zmod":
        return ring.lincomb(duals, vectors.T)  # the zmod pairing is the product mod L = m
    out = np.empty((duals.shape[0], vectors.shape[0]), dtype=np.int64)
    for i, vec in enumerate(vectors):
        out[:, i] = ring.pair_exponent_arr(duals, vec[None, :]).sum(axis=1) % L
    return out


def _character_rows(characters, rank: int):
    """The sorted union of the characters' sites, and one row of dual codes per character."""
    sites = sorted({site for chi in characters for site in chi.sites()})
    col = {site: j * rank for j, site in enumerate(sites)}
    codes = np.zeros((len(characters), len(sites) * rank), dtype=np.int64)
    for i, chi in enumerate(characters):
        for site, dual in chi.duals:
            codes[i, col[site]:col[site] + rank] = dual
    return sites, codes


def _character_indices(window: WindowSpec, sites, codes: np.ndarray) -> np.ndarray:
    """Window indices of the character sites `sites` (see `_character_rows`).

    When some site is outside the window, the first character (row of
    `codes`) that touches one raises, naming its first such site.
    """
    try:
        return window.flat_indices(sites)
    except OutOfWindowError:
        pass
    outside = [j for j, site in enumerate(sites) if not window.contains_site(site)]
    touched = codes.reshape(codes.shape[0], len(sites), -1)[:, outside].any(axis=2)
    row = touched[np.argmax(touched.any(axis=1))]
    raise OutOfWindowError(f"character site {sites[outside[np.argmax(row)]]} outside measure window")


def _coefficients(mu: MeasureHandle, sites, codes: np.ndarray):
    """Exact Fourier coefficients of many characters at once: the one exact path.

    Row i of `codes` holds character i's dual codes on the lattice sites
    `sites`: column j * rank + c is component c of its dual at sites[j].
    Returns `(class_ids, root_sums)`; character i has coefficient
    `root_sums[class_ids[i]]`.  A handle without exact coefficients raises
    first; then the first character that touches a site outside mu's window
    raises, naming its first such site.
    """
    module, ring = mu.module, mu.module.ring
    L = ring.char_exponent
    if not isinstance(mu, (SubgroupHaarMeasure, BernoulliMeasure, ExactWordMeasure)):
        raise InvalidParameterError(f"{mu.label} has no exact Fourier path; pass a sample budget")
    idx = _character_indices(mu.window, sites, codes)
    by_site = codes.reshape(codes.shape[0], len(sites), module.rank)

    if isinstance(mu, BernoulliMeasure):
        # Sites are i.i.d. and the arithmetic is exact, so characters with the
        # same multiset of duals have the same coefficient: the product over
        # their non-zero duals u of sum_a p(a) zeta**pair(u, a).
        site_codes = np.sort(module.pack_arr(by_site), axis=1)
        first, class_ids = _unique_rows(
            site_codes, module.size, return_index=True, return_inverse=True
        )
        duals = np.flatnonzero(np.bincount(site_codes[first].ravel()))
        values = module.unpack_arr(np.arange(module.size))
        per_dual = dict(zip(duals.tolist(), _root_sums(
            _pair_exponents(ring, module.unpack_arr(duals), values), mu.probs, L
        )))
        root_sums = []
        for i in first:
            rs = RootSum.one(L)
            for u in site_codes[i].tolist():
                if u:
                    rs = rs * per_dual[u]
            root_sums.append(rs)
        return class_ids, root_sums

    if isinstance(mu, SubgroupHaarMeasure):
        # 1 on the annihilator of the subgroup, times the character's phase at
        # the representative, 0 off it: keys 0 off and 1 + phase on.
        cols = _site_columns(idx, module.rank)
        gens = mu.merged_generators()[:, cols]
        rep = mu.rep_codes[idx].reshape(1, -1)
        raw = np.empty(codes.shape[0], dtype=np.int64)
        chunk = max(1, _SWEEP_CHUNK_CELLS // (cols.size + gens.shape[0] + 1))
        for lo in range(0, codes.shape[0], chunk):
            duals = codes[lo:lo + chunk]
            in_annihilator = ~_pair_exponents(ring, duals, gens).any(axis=1)
            phase = _pair_exponents(ring, duals, rep)[:, 0]
            raw[lo:lo + chunk] = np.where(in_annihilator, 1 + phase, 0)
        used = np.flatnonzero(np.bincount(raw))
        remap = np.zeros(raw.max(initial=0) + 1, dtype=np.int64)
        remap[used] = np.arange(used.size)
        return remap[raw], [RootSum.monomial(L, k - 1) if k else RootSum.zero(L) for k in used]

    # A word list: sum_w p(w) zeta**chi(w), from one pairing product with the
    # words per chunk of characters; equal exponent rows share a coefficient.
    words = mu._word_array[:, idx].reshape(len(mu.words), -1)
    class_ids = np.empty(codes.shape[0], dtype=np.int64)
    root_sums = []
    chunk = max(1, _SWEEP_CHUNK_CELLS // (words.shape[0] + codes.shape[1] + 1))
    for lo in range(0, codes.shape[0], chunk):
        exps = _pair_exponents(ring, codes[lo:lo + chunk], words)
        first, ids = _unique_rows(exps, L, return_index=True, return_inverse=True)
        class_ids[lo:lo + chunk] = ids + len(root_sums)
        root_sums += _root_sums(exps[first], [p for _, p in mu.words], L)
    return class_ids, root_sums


def _root_sums(exps: np.ndarray, weights, L: int) -> list:
    """One root sum per row of exponents: sum_j weights[j] * zeta_L**exps[i, j]."""
    out = []
    for row in exps.tolist():
        out.append(RootSum.zero(L))
        for e, w in zip(row, weights):
            out[-1].add_weight(e, w)
    return out


@dataclass(eq=False)
class FourierSweep:
    """Exact Fourier coefficients of every character based in a window.

    Characters come in `all_characters` order; row i of `codes` holds the
    dual ring codes of character i (see `character_codes`; row 0 is the
    trivial character).  Characters that `_coefficients` puts in one class
    share one stored coefficient: character i has coefficient
    `root_sums[class_ids[i]]`.
    """

    module: ModuleSpec
    window: WindowSpec
    codes: np.ndarray
    class_ids: np.ndarray
    root_sums: tuple

    def __len__(self):
        return self.codes.shape[0]

    @cached_property
    def _labels(self):
        return character_labels(self.module, self.window)

    @cached_property
    def _classes(self):
        return [FourierResult(None, rs.to_complex(), 0.0, rs) for rs in self.root_sums]

    @cached_property
    def _templates(self):
        return [cls._template() for cls in self._classes]

    def row(self, i: int, **extra) -> dict:
        """`FourierResult.row` of character i, with the same values bit for bit."""
        return self.table(**extra)[i]

    def table(self, **extra) -> "FourierTable":
        """Every `row(i, **extra)`, held by column."""
        return FourierTable(self._labels, self.class_ids, self._templates, extra)

    def rows(self, **extra) -> list:
        return list(self.table(**extra))


class FourierTable(Sequence):
    """Fourier rows (a sweep's, a character list's or a verdict's violations), held by column.

    Row i is ``{"chi": labels[i], **templates[class_ids[i]], **extra}``: `len`,
    indexing and iteration give the dicts of `FourierResult.row(**extra)`,
    built only when read.  `experiment.report_bytes` lets ``json.dumps`` write
    the report around each table, then splices the table in from one encoded
    fragment per class around the encoded labels; the text is exactly
    ``json.dumps(rows, sort_keys=True, indent=2, ensure_ascii=True)`` at the
    table's depth, and its `fourier.csv` lines carry `repr` floats.
    """

    __slots__ = ("labels", "class_ids", "templates", "extra")

    def __init__(self, labels, class_ids: np.ndarray, templates, extra: dict):
        if "chi" in extra or "step" in extra:
            raise InvalidParameterError("a Fourier table's extra columns cannot be 'chi' or 'step'")
        self.labels = labels
        self.class_ids = class_ids
        self.templates = templates
        self.extra = extra

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, i):
        return {"chi": self.labels[i], **self.templates[self.class_ids[i]], **self.extra}


def fourier_sweep(mu: MeasureHandle, window: WindowSpec, limit: int = ENUMERATION_CAP) -> FourierSweep:
    """Exact coefficients of every character of `all_characters(mu.module, window)`.

    Each coefficient equals `fourier(mu, chi).root_sum`: `_coefficients`
    answers the whole `character_codes` array in one call.
    """
    codes = character_codes(mu.module, window, limit)
    class_ids, root_sums = _coefficients(mu, list(window.sites()), codes)
    return FourierSweep(mu.module, window, codes, class_ids, tuple(root_sums))


@dataclass
class HaarVerdict:
    """The outcome of `haar_criterion` on `n_checked` rows.

    `violations` is a sequence of the violating rows' dicts, in row order: a
    `FourierTable` when violations exist, which `experiment.report_bytes`
    splices like a sweep, else an empty list.  `to_dict` lists them.
    """

    consistent: bool
    criterion: str
    n_checked: int
    violations: Sequence = field(default_factory=list)

    def to_dict(self):
        return {**vars(self), "violations": list(self.violations)}


def haar_criterion(results, criterion="subgroup", tol=EXACT_TOL) -> HaarVerdict:
    """Test Fourier coefficients for the Haar signature of a subgroup or a coset.

    criterion='subgroup' demands every coefficient be 0 or 1; 'coset' demands
    every modulus be 0 or 1; another value raises.  Exact coefficients are
    tested exactly, sampled ones within max(tol, 4*stderr), and the trivial
    character, which must be present, must have coefficient 1.  `results` is
    a `FourierSweep`, tested once per coefficient class, or a list of
    `FourierResult`s, one class each.
    """
    if isinstance(results, FourierSweep):  # row 0 is the trivial character
        return _haar_verdict(results._classes, results.class_ids, [0], criterion, tol, results.table)
    results = list(results)
    rows = np.arange(len(results))
    trivial = [i for i, r in enumerate(results) if r.chi.is_trivial]
    return _haar_verdict(results, rows, trivial, criterion, tol, lambda: FourierTable(
        [format_character(r.chi) for r in results], rows, [r._template() for r in results], {}
    ))


def _checked_criterion(criterion: str) -> str:
    if criterion not in ("subgroup", "coset"):
        raise InvalidParameterError(f"unknown Haar criterion {criterion!r}; expected subgroup or coset")
    return criterion


def _haar_verdict(classes, class_ids, trivial, criterion, tol, table) -> HaarVerdict:
    """`haar_criterion` of rows whose coefficients come in classes: the one Haar test.

    Row i has the coefficient of the `FourierResult` ``classes[class_ids[i]]``
    and the rows `trivial` hold the trivial character.  `table()`, called only
    when a row violates, gives the `FourierTable` of every row.
    """
    _checked_criterion(criterion)
    if not len(trivial):
        raise MissingTrivialCharacterError("sweep does not include the trivial character")

    def within(r, value, target):
        return abs(value - target) <= max(tol, 4.0 * r.stderr)

    def zero_or_one(r):
        if r.is_exact:
            rs = r.root_sum
            return rs.is_zero() or (rs.is_one() if criterion == "subgroup" else rs.modulus_is_one())
        v = r.modulus if criterion == "coset" else r.value
        return within(r, v, 0.0) or within(r, v, 1.0)

    bad = ~np.array([zero_or_one(r) for r in classes], dtype=bool)[class_ids]
    for i in trivial:  # the trivial character's coefficient is 1 itself
        r = classes[class_ids[i]]
        bad[i] |= not (r.root_sum.is_one() if r.is_exact else within(r, r.value, 1.0))
    rows, violations = np.flatnonzero(bad), []
    if rows.size:
        full = table()
        used, ids = np.unique(full.class_ids[rows], return_inverse=True)
        violations = FourierTable([full.labels[i] for i in rows.tolist()], ids,
                                  [full.templates[k] for k in used.tolist()], {})
    return HaarVerdict(not rows.size, criterion, len(class_ids), violations)


# -- mixing -----------------------------------------------------------------


@dataclass
class MixingResult:
    n: int
    observed: float
    product: float
    deviation: float
    stderr: float
    exact: bool
    observed_fraction: Fraction | None = None
    product_fraction: Fraction | None = None

    def row(self, **extra):
        return {"n": self.n, "observed": self.observed, "product": self.product,
                "deviation": self.deviation, "stderr": self.stderr, "exact": self.exact, **extra}


def mixing_statistic(mu: MeasureHandle, pairs, n: int, budget="exact", start: int = 0) -> MixingResult:
    """Joint cylinder probability at separation n against the marginal product.

    `pairs` is a list of (offset h, word); the joint event pins every word on
    its window translated by n*h (`lattice.pin_union`; pins that clash make it
    empty), the marginals pin the untranslated words.  An offset without D+E
    coordinates is refused.
    """
    if n < 0:
        raise InvalidParameterError(f"n must be >= 0, got {n}")
    placed = []
    for h, word in pairs:
        mu.module.check_same(word.module)
        placed.append((scaled_offset(h, n, word.window.axes), word))
    marg_pins = [pin_union([((0,) * word.window.axes, word)])[0] for _, word in placed]
    marg_arrays = [_pin_arrays(mu.window, mu.module, pins) for pins in marg_pins]
    joint, clash = pin_union(placed)  # a clash makes the joint event empty
    mu.window.flat_indices(list(joint))  # a translated site outside the window raises
    if budget == "exact":
        if not mu.is_exact:
            raise InvalidParameterError(f"{mu.label} has no exact mixing path")
        observed = Fraction(0) if clash else mu.cylinder_probability(joint)
        product = Fraction(1)
        for pins in marg_pins:
            product *= mu.cylinder_probability(pins)
        dev = observed - product
        return MixingResult(
            n, float(observed), float(product), float(dev), 0.0, True, observed, product
        )
    count = _positive_integer(budget, "sample budget")
    joint_arrays = [] if clash else [_pin_arrays(mu.window, mu.module, joint)]
    events = joint_arrays + marg_arrays
    # Sorted indices are the sorted sites: the window is row-major.
    sel = sorted_unique(np.concatenate([idx for idx, _ in events]))
    events = [(np.searchsorted(sel, idx), vals) for idx, vals in events]
    # Matches are counted per event in integers, so k / count is np.mean's
    # frequency over the whole draw bit for bit.
    hits = [0] * len(events)
    for _, draws in _draw_blocks(mu, start, count, sel):
        for e, (pos, vals) in enumerate(events):
            hits[e] += int(np.count_nonzero((draws[:, pos] == vals).all(axis=(1, 2))))
    freqs = [k / count for k in hits]
    obs_hat = freqs[0] if joint_arrays else 0.0
    marg_hats = freqs[len(joint_arrays):]
    product_hat = float(np.prod(marg_hats))
    deviation = obs_hat - product_hat
    var = obs_hat * (1.0 - obs_hat) / count
    for i, ph in enumerate(marg_hats):
        others = product_hat / ph if ph > 0 else 0.0
        var += (others**2) * ph * (1.0 - ph) / count
    return MixingResult(n, obs_hat, product_hat, deviation, math.sqrt(var), False)


# -- entropy -----------------------------------------------------------------


def block_entropy(mu: MeasureHandle, block: WindowSpec, n_samples=None, start: int = 0) -> float:
    """Plug-in block entropy in bits per site.

    This is an empirical diagnostic of block frequencies, not the dynamical
    entropy; exact handles can compute the block marginal exactly by passing
    n_samples=None.
    """
    if not mu.window.contains_window(block):
        raise OutOfWindowError(f"block {block} not inside measure window {mu.window}")
    sel = mu.window.flat_indices(block.sites())
    if n_samples is None:
        if not mu.is_exact:
            raise InvalidParameterError("sampled handle needs an explicit n_samples")
        return mu.entropy_bits_per_site(sel)
    n = _positive_integer(n_samples, "n_samples")
    width = sel.size * mu.module.rank
    radix = _row_radix(mu.module.ring.size, width)
    # One key per draw where rows fit a key, else the rows themselves; counts
    # come in the rows' sort order either way, so the float sum below is too.
    blocks = _draw_blocks(mu, start, n, sel)
    keyed = np.empty((n, width) if radix is None else (n,), dtype=np.int64)
    for r0, draws in blocks:
        flat = draws.reshape(len(draws), width)
        keyed[r0:r0 + len(flat)] = flat if radix is None else radix.join(flat[:, ::-1])
    counts = np.unique(keyed, axis=0 if radix is None else None, return_counts=True)[1]
    freqs = counts.astype(np.float64) / float(n)
    h = float(-(freqs * np.log2(freqs)).sum())
    return h / len(sel)


# -- rigidity experiment ----------------------------------------------------


@dataclass
class RigidityReport:
    rule: dict
    measure: dict
    all_units: bool
    budget: object
    fourier_rows: list
    verdicts: list
    mixing_rows: list
    classification: str
    tested_scope: dict

    def to_dict(self):
        return {
            "rule": self.rule,
            "measure": self.measure,
            "all_units": self.all_units,
            "budget": self.budget if self.budget == "exact" else int(self.budget),
            "fourier": self.fourier_rows,
            "verdicts": self.verdicts,
            "mixing": self.mixing_rows,
            "classification": self.classification,
            "tested_scope": self.tested_scope,
        }


def default_t_schedule(ring: Ring):
    p = ring.characteristic
    return sorted({0, 1, 2, 4, 8, p, p * p})


DEFAULT_N_SCHEDULE = (1, 2, 4, 8, 16)


def rigidity_experiment(
    rule: LocalRule,
    mu0: MeasureHandle,
    characters,
    t_schedule=None,
    n_schedule=None,
    budget="exact",
    mixing_pairs=None,
    tol=EXACT_TOL,
) -> RigidityReport:
    """Fourier sweeps of pushforwards plus mixing deviations, classified.

    Gathers evidence that mu0 is (or is not) the Haar measure of an invariant
    coset shift: per-t sweeps must have all moduli in {0,1}, and mixing
    deviations at the largest tested n must vanish within tolerance.  The
    verdict is evidence at the tested scope only.  With budget='exact', each
    exact pushforward answers every character in one `_coefficients` call;
    a sampled pushforward is estimated from 10000 draws per character.
    """
    characters = list(characters)
    sites, codes = _character_rows(characters, mu0.module.rank)
    labels = [format_character(chi) for chi in characters]
    trivial = [i for i, chi in enumerate(characters) if chi.is_trivial]
    t_schedule = list(t_schedule if t_schedule is not None else default_t_schedule(rule.ring))
    n_schedule = list(n_schedule if n_schedule is not None else DEFAULT_N_SCHEDULE)
    fourier_rows, verdicts, violated, mixing_bad = [], [], False, False
    for t in t_schedule:
        mu_t = pushforward(mu0, rule, t)
        if budget == "exact" and mu_t.is_exact:
            class_ids, root_sums = _coefficients(mu_t, sites, codes)
            classes = [FourierResult(None, rs.to_complex(), 0.0, rs) for rs in root_sums]
        else:
            n = 10000 if budget == "exact" else budget
            classes = [fourier(mu_t, chi, n) for chi in characters]
            class_ids = np.arange(len(characters))
        table = FourierTable(labels, class_ids, [c._template() for c in classes], {"t": t})
        fourier_rows.extend(table)
        verdict = _haar_verdict(classes, class_ids, trivial, "coset", tol, lambda: table)
        verdicts.append({"t": t, **verdict.to_dict()})
        violated |= not verdict.consistent
    mixing_rows = []
    if mixing_pairs:
        mixing_rows = [mixing_statistic(mu0, mixing_pairs, n, budget).row() for n in n_schedule]
        final = mixing_rows[-1]
        mixing_bad = abs(final["deviation"]) > max(tol, 4.0 * final["stderr"])
    # An integer budget samples every row, so its violations are inconclusive.
    if mixing_bad or (violated and budget == "exact"):
        classification = "inconsistent"
    else:
        classification = "inconclusive" if violated else "consistent-with-coset-haar"
    return RigidityReport(
        rule={"text": format_rule(rule)},
        measure=mu0.describe(),
        all_units=rule.all_units(),
        budget=budget,
        fourier_rows=fourier_rows,
        verdicts=verdicts,
        mixing_rows=mixing_rows,
        classification=classification,
        tested_scope={
            "t_schedule": t_schedule,
            "n_schedule": n_schedule if mixing_pairs else [],
            "n_characters": len(characters),
            "note": "finite window/schedule evidence only; no extrapolation claim",
        },
    )
