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
    coset_shift_check,
    window_kernel,
)
from .lattice import WindowConfig, WindowSpec, integer_array, scaled_offset
from .rings import MixedRadix, ModuleSpec, Ring, is_prime
from .rng import CounterRng, cdf_thresholds
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
        """(count, n_selected_sites, rank) ring codes for draws [start, start+count)."""
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


def _merge_pins(pin_dicts):
    """Union of pin dicts; None signals a conflicting (empty) intersection."""
    merged = {}
    for pins in pin_dicts:
        for site, val in pins.items():
            if site in merged and merged[site] != val:
                return None
            merged[site] = val
    return merged


def _pins_from_word(word: WindowConfig, offset=None, n: int = 0):
    """The word's values pinned on its window translated by n * offset."""
    axes = word.window.axes
    v = scaled_offset(offset, n, axes) if offset is not None else (0,) * axes
    sites = (tuple(s + x for s, x in zip(site, v)) for site in word.window.sites())
    return dict(zip(sites, map(tuple, word.flat().tolist())))


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
    def from_window_basis(basis: WindowBasis, seed=0, mode="exact", label=None):
        module = basis.module
        nvars = basis.window.n_sites * module.rank
        # Row i * rank + c is scalar basis row i placed on component c of every site.
        eye = np.eye(module.rank, dtype=np.int64)
        spans = [
            _FieldSpan(ring, _echelonize(ring, np.kron(scalar_basis, eye), nvars))
            for ring, scalar_basis, _ in basis.components
        ]
        return SubgroupHaarMeasure(
            module, basis.window, spans, seed, mode, label or f"kernel-haar[{basis.spec.label}]"
        )

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
    def draw_values(self, start, count, site_indices=None):
        # Draw i combines the basis rows with coefficients at counters
        # (start + i) * nb + row, plus the representative.  Only the selected
        # columns are computed, and only for the rows that touch them, so the
        # values equal full draws sliced.
        rank = self.module.rank
        sel = self._site_selection(site_indices)
        cols = _site_columns(sel, rank)
        comp_vals = []
        for si, span in enumerate(self.spans):
            basis = span.basis[:, cols]
            rows = np.flatnonzero(basis.any(axis=1))
            shape = (count, span.dim)
            coefs = self._rng[si].uniform_codes(start * span.dim, shape, span.ring.size, columns=rows)
            comp_vals.append(span.ring.lincomb(coefs, basis[rows]))
        merged = self.decomposition.merge_arrays(comp_vals).reshape(count, sel.size, rank)
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

    def draw_values(self, start, count, site_indices=None):
        sel = self._site_selection(site_indices)
        idx = self._rng.uniform_from_cdf(start, (count,), self._thresholds)
        return self._word_array[idx][:, sel, :]


class TransformedMeasure(MeasureHandle):
    """Sampled pushforward: draws are a vectorized transform of source draws."""

    is_exact = False

    def __init__(self, source, transform, window, module, label, provenance=()):
        # transform: (count, *source_extents, rank) -> (count, *extents, rank)
        self.source = source
        self.transform = transform
        self._init_common(module, window, source.mode, label, source.seed, provenance)

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
    basis = window_kernel(spec, window)
    return SubgroupHaarMeasure.from_window_basis(basis, seed=seed, mode=mode)


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
    f = from_rule(rule)
    if t == 0:
        return poly_pow(f, 0)
    if is_prime(rule.ring.characteristic):
        return poly_pow_charp(f, t)
    return poly_pow(f, t)


def _transform_span(span: _FieldSpan, rep: np.ndarray, poly, window, rank):
    """The exact stencil image of a span and of a representative's component codes.

    The representative is one more row of the span's batch.  Returns the
    output window, the echelonized image span and the image representative.
    """
    rows = np.concatenate([span.basis, rep.reshape(1, -1)])
    vals = rows.reshape((span.dim + 1,) + window.extents + (rank,))
    out_window, out_vals = stencil(poly.terms, vals, window, "exact", span.ring)
    nvars = out_window.n_sites * rank
    out = out_vals.reshape(span.dim + 1, nvars)
    return out_window, _FieldSpan(span.ring, _echelonize(span.ring, out[:-1], nvars)), out[-1]


def pushforward(mu: MeasureHandle, rule: LocalRule, t: int, limit: int = ENUMERATION_CAP) -> MeasureHandle:
    """Distribution of t rule applications of draws from mu.

    t = 0 returns mu itself.  Haar handles transform exactly at any size, one
    field component at a time, so only component rules are powered; other
    exact handles push by enumeration when within `limit`; everything else
    becomes a sampled handle using the fast (base-p Frobenius) polynomial
    power.
    """
    if t < 0:
        raise InvalidParameterError(f"t must be >= 0, got {t}")
    if t == 0:
        return mu
    rule.module.check_same(mu.module)
    note = f"pushforward by {rule.offsets}/{rule.coeffs}, t={t}"

    source = mu
    if isinstance(mu, BernoulliMeasure) and mu.is_uniform and mu.mode == "exact":
        try:
            source = SubgroupHaarMeasure.full_space(
                mu.module, mu.window, seed=mu.seed, mode=mu.mode, label=mu.label,
                provenance=mu.provenance,
            )
        except UnsupportedCharacteristicError:
            pass  # not a product of fields: enumerate or sample below
    if isinstance(source, SubgroupHaarMeasure) and source.mode == "exact":
        deco = source.decomposition
        spans, reps = [], []
        for si, (span, rep) in enumerate(zip(source.spans, deco.split_arrays(source.rep_codes))):
            comp_poly = _power_poly(crt.component_rule(rule, deco, si), t)
            out_window, new_span, new_rep = _transform_span(
                span, rep, comp_poly, source.window, mu.module.rank
            )
            spans.append(new_span)
            reps.append(new_rep)
        return source._rebuilt(mu.module, out_window, spans, deco.merge_arrays(reps), note)
    poly = _power_poly(rule, t)
    if mu.is_exact:
        try:
            words = list(mu.enumerate_words(limit))
        except ResourceLimitError:
            words = None
        if words:
            shaped = np.stack([vals for vals, _ in words]).reshape(
                (len(words),) + mu.window.extents + (mu.module.rank,)
            )
            out_window, out_vals = stencil(poly.terms, shaped, mu.window, mu.mode, rule.ring)
            pushed = [
                (out.reshape(-1, mu.module.rank), p) for out, (_, p) in zip(out_vals, words)
            ]
            return ExactWordMeasure(
                mu.module, out_window, pushed, seed=mu.seed, mode=mu.mode,
                label=mu.label, provenance=mu.derived(note),
            )
    # sampled fallback
    def transform(batch):
        _, out = stencil(poly.terms, batch, mu.window, mu.mode, rule.ring)
        return out

    if mu.mode == "torus":
        out_window = mu.window
    else:
        probe = np.zeros((1,) + mu.window.extents + (mu.module.rank,), dtype=np.int64)
        out_window, _ = stencil(poly.terms, probe, mu.window, "exact", rule.ring)
    return TransformedMeasure(
        mu, transform, out_window, mu.module,
        label=f"{mu.label}->t{t}", provenance=mu.derived(note),
    )


# -- Fourier -----------------------------------------------------------------


@dataclass
class FourierResult:
    chi: CharacterSpec
    value: complex
    stderr: float
    root_sum: RootSum | None = None
    n_samples: int | None = None

    @property
    def is_exact(self):
        return self.root_sum is not None

    @property
    def modulus(self):
        return abs(self.value)

    def row(self, **extra) -> dict:
        out = {
            "chi": format_character(self.chi),
            "re": self.value.real,
            "im": self.value.imag,
            "modulus": self.modulus,
            "stderr": self.stderr,
            "exact": self.is_exact,
        }
        out.update(extra)
        return out


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
    n = _sample_count(budget, "sample budget")
    if sites:
        exps = chi.exponents_of_values(mu.draw_values(start, n, idx))
    else:
        exps = np.zeros(n, dtype=np.int64)
    L = chi.order
    angles = 2.0 * np.pi * exps.astype(np.float64) / L
    value = complex(np.mean(np.cos(angles)), np.mean(np.sin(angles)))
    return FourierResult(chi, value, 1.0 / math.sqrt(n), n_samples=n)


def _sample_count(budget, name: str) -> int:
    """`budget` as a number of draws; fewer than one raises."""
    n = int(budget)
    if n < 1:
        raise InvalidParameterError(f"{name} must be >= 1, got {budget}")
    return n


_SWEEP_CHUNK_CELLS = 1 << 21


def _unique_rows(rows: np.ndarray, base: int, **kwargs):
    """`np.unique(rows, axis=0, **kwargs)` without the unique rows themselves.

    Rows of codes in [0, base) are compared as one mixed-radix key each while
    base**ncols < 2**62; the keys order like the rows, so every output is the
    same.  Wider rows would overflow the keys and are compared as rows.
    """
    if base ** rows.shape[1] < 1 << 62:
        # Reversed columns make the first column most significant.
        keys = MixedRadix((base,) * rows.shape[1]).join(rows[:, ::-1])
        return np.unique(keys, **kwargs)[1:]
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
    def _templates(self):
        out = []
        for rs in self.root_sums:
            value = rs.to_complex()
            out.append({"re": value.real, "im": value.imag, "modulus": abs(value),
                        "stderr": 0.0, "exact": True})
        return out

    def row(self, i: int, **extra) -> dict:
        """`FourierResult.row` of character i, with the same values bit for bit."""
        return self.table(**extra)[i]

    def table(self, **extra) -> "FourierTable":
        """Every `row(i, **extra)`, held by column."""
        return FourierTable(self._labels, self.class_ids, self._templates, extra)

    def rows(self, **extra) -> list:
        return list(self.table(**extra))


class FourierTable(Sequence):
    """The rows of a Fourier sweep, held by column.

    Row i is ``{"chi": labels[i], **templates[class_ids[i]], **extra}``: `len`,
    indexing and iteration give the dicts of `FourierSweep.rows(**extra)`,
    built only when read.  `experiment.report_bytes` writes a table from one
    encoded fragment per class plus the encoded labels; the text is exactly
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
    consistent: bool
    criterion: str
    n_checked: int
    violations: list = field(default_factory=list)

    def to_dict(self):
        return {
            "consistent": self.consistent,
            "criterion": self.criterion,
            "n_checked": self.n_checked,
            "violations": self.violations,
        }


def _exact_ok(rs: RootSum, criterion: str) -> bool:
    if criterion == "subgroup":
        return rs.is_zero() or rs.is_one()
    return rs.modulus_is_zero() or rs.modulus_is_one()


def haar_criterion(results, criterion="subgroup", tol=EXACT_TOL) -> HaarVerdict:
    """Check a Fourier sweep for the subgroup-Haar signature.

    criterion='subgroup' demands every coefficient be 0 or 1; 'coset' demands
    every modulus be 0 or 1.  Exact results are tested exactly; sampled ones
    within max(tol, 4*stderr).  The trivial character must be present.
    `results` is a list of `FourierResult`s or a `FourierSweep`; a sweep is
    tested once per distinct coefficient.
    """
    if isinstance(results, FourierSweep):
        ok = np.array([_exact_ok(rs, criterion) for rs in results.root_sums], dtype=bool)
        bad = ~ok[results.class_ids]
        bad[0] |= not results.root_sums[results.class_ids[0]].is_one()  # row 0 is trivial
        rows = np.flatnonzero(bad)
        table = results.table() if rows.size else ()  # one table for every violation
        violations = [table[i] for i in rows]
        return HaarVerdict(not violations, criterion, len(results), violations)
    results = list(results)
    if not any(r.chi.is_trivial for r in results):
        raise MissingTrivialCharacterError("sweep does not include the trivial character")
    violations = []
    for r in results:
        if r.is_exact:
            ok = _exact_ok(r.root_sum, criterion)
        else:
            v = abs(r.value) if criterion == "coset" else r.value
            dist = min(abs(v - 0.0), abs(v - 1.0))
            ok = dist <= max(tol, 4.0 * r.stderr)
        if r.chi.is_trivial:
            if r.is_exact:
                ok = ok and r.root_sum.is_one()
            else:
                ok = ok and abs(r.value - 1.0) <= max(tol, 4.0 * r.stderr)
        if not ok:
            violations.append(r.row())
    return HaarVerdict(not violations, criterion, len(results), violations)


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
        out = {
            "n": self.n,
            "observed": self.observed,
            "product": self.product,
            "deviation": self.deviation,
            "stderr": self.stderr,
            "exact": self.exact,
        }
        out.update(extra)
        return out


def mixing_statistic(mu: MeasureHandle, pairs, n: int, budget="exact", start: int = 0) -> MixingResult:
    """Joint cylinder probability at separation n against the marginal product.

    `pairs` is a list of (offset h, word); the joint event pins every word on
    its window translated by n*h, the marginals pin the untranslated words.
    An offset without D+E coordinates is refused.
    """
    if n < 0:
        raise InvalidParameterError(f"n must be >= 0, got {n}")
    marg_pins = []
    trans_pins = []
    for h, word in pairs:
        mu.module.check_same(word.module)
        marg_pins.append(_pins_from_word(word))
        trans_pins.append(_pins_from_word(word, h, n))
    marg_arrays = [_pin_arrays(mu.window, mu.module, pins) for pins in marg_pins]
    for pins in trans_pins:
        mu.window.flat_indices(list(pins))  # a translated site outside the window raises
    joint = _merge_pins(trans_pins)
    if budget == "exact":
        if not mu.is_exact:
            raise InvalidParameterError(f"{mu.label} has no exact mixing path")
        observed = mu.cylinder_probability(joint) if joint is not None else Fraction(0)
        product = Fraction(1)
        for pins in marg_pins:
            product *= mu.cylinder_probability(pins)
        dev = observed - product
        return MixingResult(
            n, float(observed), float(product), float(dev), 0.0, True, observed, product
        )
    count = _sample_count(budget, "sample budget")
    joint_arrays = [] if joint is None else [_pin_arrays(mu.window, mu.module, joint)]
    # Sorted indices are the sorted sites: the window is row-major.
    sel = np.unique(np.concatenate([idx for idx, _ in marg_arrays + joint_arrays]))
    draws = mu.draw_values(start, count, sel)

    def frequency(idx, vals):
        return float(np.mean((draws[:, np.searchsorted(sel, idx)] == vals).all(axis=(1, 2))))

    obs_hat = frequency(*joint_arrays[0]) if joint_arrays else 0.0
    marg_hats = [frequency(idx, vals) for idx, vals in marg_arrays]
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
    n = _sample_count(n_samples, "n_samples")
    draws = mu.draw_values(start, n, sel)
    flat = draws.reshape(n, -1)
    # Counts in the rows' sort order, so the float sum below is the same either way.
    (counts,) = _unique_rows(flat, mu.module.ring.size, return_counts=True)
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
    base = [0, 1, 2, 4, 8]
    for extra in (p, p * p):
        if extra not in base:
            base.append(extra)
    return sorted(base)


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
    t_schedule = list(t_schedule if t_schedule is not None else default_t_schedule(rule.ring))
    n_schedule = list(n_schedule if n_schedule is not None else DEFAULT_N_SCHEDULE)
    fourier_rows = []
    verdicts = []
    classification = "consistent-with-coset-haar"
    any_inconclusive = False
    for t in t_schedule:
        mu_t = pushforward(mu0, rule, t)
        if budget == "exact" and mu_t.is_exact:
            class_ids, root_sums = _coefficients(mu_t, sites, codes)
            values = [rs.to_complex() for rs in root_sums]
            results = [
                FourierResult(chi, values[k], 0.0, root_sum=root_sums[k])
                for chi, k in zip(characters, class_ids)
            ]
        else:
            n = 10000 if budget == "exact" else budget
            results = [fourier(mu_t, chi, n) for chi in characters]
        fourier_rows.extend(r.row(t=t) for r in results)
        verdict = haar_criterion(results, criterion="coset", tol=tol)
        verdicts.append({"t": t, **verdict.to_dict()})
        if not verdict.consistent:
            exact_violation = any(v["exact"] for v in verdict.violations)
            classification = "inconsistent" if exact_violation or budget == "exact" else classification
            if not exact_violation and budget != "exact":
                any_inconclusive = True
    mixing_rows = []
    if mixing_pairs:
        for n in n_schedule:
            res = mixing_statistic(mu0, mixing_pairs, n, budget)
            mixing_rows.append(res.row())
        final = mixing_rows[-1]
        slack = max(tol, 4.0 * final["stderr"])
        if abs(final["deviation"]) > slack:
            classification = "inconsistent"
    if classification != "inconsistent" and any_inconclusive:
        classification = "inconclusive"
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
