"""Submodule shifts presented as kernels of linear constraint rules.

A constraint rule with stencil offsets b and coefficients psi_b cuts out the
submodule shift ``{a : sum_b psi_b a_{m+b} = 0 for every lattice anchor m}``.
On a finite window we solve the system of all constraints whose full stencil
lies inside the window; this in-window kernel contains the true projection of
the infinite kernel, and `extension_certificate` provides the honest equality
evidence used for the bundled examples.

Every ring is solved per field component of `crt.field_decomposition`: a
field is its own single component, a squarefree characteristic gives one
prime field per prime, and any other ring is refused before solving.

Kernels are solved by propagation, with no elimination.  Weights w single
out one lead stencil term b*, so each anchor m fixes the site m+b* from
sites of smaller w-score (component coefficients are units) and the other
sites are free.  By matroid duality the propagated basis is canonical: with
the lexicographically first term as lead it is the constraint matrix's
`nullspace_from_rref` basis (`window_kernel`), with the last it is its own
RREF (the Haar spans).  Closure is decided on the basis rows, since
membership is linear, and torsion needs no matrix: a nonzero component
scalar is a unit, and a zero one enlarges the solutions iff an anchor fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product

import numpy as np

from .errors import (
    CLOSURE_TUPLE_CAP,
    ENUMERATION_CAP,
    KERNEL_CELL_CAP,
    DomainExhaustedError,
    InfeasiblePinError,
    InvalidParameterError,
    OutOfWindowError,
    ResourceLimitError,
)
from . import crt, linalg
from .lattice import (
    WindowConfig,
    WindowSpec,
    config_add,
    config_scale,
    config_sub,
    constant_config,
    coordinate_sum_images,
    pin_union,
    restrict_config,
    scaled_offset,
    shift_config,
)
from .rings import MixedRadix, ModuleSpec, Ring
from .rng import CounterRng
from .shiftpoly import LocalRule, stencil

__all__ = [
    "KernelShiftSpec",
    "Cocycle",
    "WindowBasis",
    "window_kernel",
    "kernel_membership",
    "enumerate_kernel_words",
    "draw_kernel_words",
    "submodule_condition_check",
    "batch_membership",
    "invariance_and_surjectivity_check",
    "coboundary",
    "coset_from_cocycle",
    "coset_shift_check",
    "torsion_free_check",
    "scaled_coset_in_kernel",
    "topological_mixing_check",
    "extension_certificate",
]


@dataclass(frozen=True)
class KernelShiftSpec:
    """A submodule shift ker(Psi) given by its constraint rule."""

    constraint: LocalRule
    label: str = "kernel"

    @property
    def module(self) -> ModuleSpec:
        return self.constraint.module

    @property
    def ring(self) -> Ring:
        return self.constraint.ring

    @property
    def dims(self):
        return self.constraint.dims


def anchor_window(stencil_offsets, window: WindowSpec):
    """Anchors m in the lattice with m + stencil inside the window; None if empty."""
    return window.stencil_anchors(stencil_offsets)


def _anchors(spec: KernelShiftSpec, window: WindowSpec):
    """The kernel's anchor window in `window` (None if empty), once its dims are checked."""
    if window.dims != spec.dims:
        raise InvalidParameterError(f"window {window} does not have the kernel's dims {spec.dims}")
    return anchor_window(spec.constraint.offsets, window)


def _kernel_dim(spec: KernelShiftSpec, window: WindowSpec) -> int:
    """n_sites - n_anchors, the in-window kernel's dimension in every field component."""
    anchors = _anchors(spec, window)
    return window.n_sites - (anchors.n_sites if anchors else 0)


def _free_sites(spec: KernelShiftSpec, window: WindowSpec, lead) -> np.ndarray:
    """Flat indices of the sites no anchor fixes: all but the anchor window moved by `lead`."""
    free = np.ones(window.extents, dtype=bool)
    if anchors := _anchors(spec, window):
        free[window.relative_slices(anchors.translate(lead))] = False
    return np.flatnonzero(free)


def _anchor_columns(offsets, window: WindowSpec, anchors):
    """Anchor coordinates relative to the window, (axes, n_anchors) row-major, and the flat
    site index of anchor + offset, (n_terms, n_anchors), for an anchor window or None."""
    origin, extents = (anchors.origin, anchors.extents) if anchors else (window.origin, (0,) * window.axes)
    rel = np.indices(extents).reshape(window.axes, -1) + np.subtract(origin, window.origin)[:, None]
    offs = np.array(offsets, dtype=np.int64)
    return rel, np.ravel_multi_index(tuple(rel[:, None] + offs.T[:, :, None]), window.extents)


def constraint_matrix(spec: KernelShiftSpec, window: WindowSpec) -> np.ndarray:
    """(n_anchors, n_sites) matrix of constraint coefficients on scalar sites."""
    rule = spec.constraint
    _, cols = _anchor_columns(rule.offsets, window, _anchors(spec, window))
    matrix = np.zeros((cols.shape[1], window.n_sites), dtype=np.int64)
    matrix[np.arange(cols.shape[1]), cols] = np.array(rule.coeffs, dtype=np.int64)[:, None]
    return matrix


@dataclass(frozen=True)
class WindowBasis:
    """The in-window kernel, sized from its anchor geometry: each anchor fixes one
    site (`_propagate`), so every field component of `decomposition` has scalar
    dimension `dim` = n_sites - n_anchors.  `components` holds one (field ring,
    scalar echelon basis, free site indices) triple per component, propagated on
    first read, which is when `KERNEL_CELL_CAP` applies.  Module solutions place
    one copy per component of the free module."""

    spec: KernelShiftSpec
    window: WindowSpec
    dim: int

    @property
    def module(self) -> ModuleSpec:
        return self.spec.module

    @property
    def decomposition(self) -> crt.CrtDecomposition:
        return crt.field_decomposition(self.spec.ring)

    @cached_property
    def components(self) -> tuple:  # of (Ring, ndarray (dim, n_sites), tuple free site idx)
        return _propagate(self.spec, self.window, "first")

    @property
    def solution_count(self) -> int:
        return self.spec.ring.size ** (self.dim * self.module.rank)

    @property
    def free_sites(self):
        free = _free_sites(self.spec, self.window, min(self.spec.constraint.offsets))
        return (tuple(free.tolist()),) * self.decomposition.n_components

    def scalar_dims(self):
        return (self.dim,) * self.decomposition.n_components


def _lead_weights(offsets, lead: str) -> np.ndarray:
    """Weights w under which the lexicographically `lead` ("first" or "last") offset alone
    has the largest w.b: lexicographic weights, negated for "first", on the shortest
    prefix of axes that singles it out."""
    offs = np.array(offsets, dtype=np.int64)
    base = int(np.ptp(offs, axis=0).max()) + 1
    for j in range(1, offs.shape[1] + 1):
        w = np.zeros(offs.shape[1], dtype=np.int64)
        w[:j] = (-1 if lead == "first" else 1) * base ** np.arange(j - 1, -1, -1, dtype=np.int64)
        scores = offs @ w
        if np.count_nonzero(scores == scores.max()) == 1:
            return w


def _propagate(spec: KernelShiftSpec, window: WindowSpec, lead: str) -> tuple:
    """(field ring, scalar basis, free site indices) per field component, by propagation.

    `_lead_weights` gives w under which the lexicographically `lead` term b*
    alone has the largest w.b; each anchor m fixes x_{m+b*} = -c*^-1 sum_{b != b*}
    c_b x_{m+b}, whose reads have smaller w-score.  From the identity on the
    other (free) sites, one `Ring.weighted_sum` per value of w.m fills the fixed
    sites of the (sites x dim) array, gathered by flat site index.  A
    single-term rule fixes its sites to 0.  Each anchor fixes one distinct
    site, so the array's cells are known up front; above `KERNEL_CELL_CAP`
    cells it raises ResourceLimitError before any array is built.
    """
    anchors = _anchors(spec, window)
    cells = window.n_sites * _kernel_dim(spec, window)
    if cells > KERNEL_CELL_CAP:
        raise ResourceLimitError(
            f"kernel on {window} needs {cells} cells (sites x free sites), "
            f"above the cap {KERNEL_CELL_CAP}",
            required=cells,
        )
    offsets = spec.constraint.offsets
    w = _lead_weights(offsets, lead)
    k_lead = int(np.argmax(np.array(offsets) @ w))
    rest = [k for k in range(len(offsets)) if k != k_lead]
    rel, cols = _anchor_columns(offsets, window, anchors)
    free = _free_sites(spec, window, offsets[k_lead])
    order = np.argsort(w @ rel, kind="stable")
    batches = np.split(order, np.flatnonzero(np.diff((w @ rel)[order])) + 1)
    comps = []
    for comp_spec, ring, _, _ in _field_components(spec):
        coeffs = comp_spec.constraint.coeffs
        x = np.zeros((window.n_sites, free.size), dtype=ring.sum_dtype(len(rest)))
        x[free, np.arange(free.size)] = ring.one
        scale = ring.neg(ring.inverse(coeffs[k_lead]))
        weights = [ring.mul(scale, coeffs[k]) for k in rest]
        for batch in batches if rest else ():
            x[cols[k_lead, batch]] = ring.weighted_sum(weights, (x[cols[k, batch]] for k in rest))
        comps.append((ring, np.ascontiguousarray(x.T, dtype=np.int64), tuple(free.tolist())))
    return tuple(comps)


def window_kernel(spec: KernelShiftSpec, window: WindowSpec) -> WindowBasis:
    """Deterministic echelon basis of all in-window constraints' solutions.

    `_propagate` with the lexicographically first term b* as lead, on first
    read: with anchors row-major each constraint row starts at m+b*, so the
    free sites are the RREF free columns and the basis is `nullspace_from_rref`'s.
    An unsupported ring or a vanishing component coefficient is refused here.
    """
    dim = _kernel_dim(spec, window)
    tuple(_field_components(spec))
    return WindowBasis(spec, window, dim)


def constraint_residual(spec: KernelShiftSpec, config: WindowConfig):
    """Constraint values at every in-window anchor; None when no anchor fits."""
    rule = spec.constraint
    rule.module.check_same(config.module)
    if _anchors(spec, config.window) is None:
        return None
    _, out = stencil(
        zip(rule.offsets, rule.coeffs), config.values[None], config.window, "exact", rule.ring
    )
    return out[0]


def kernel_membership(spec: KernelShiftSpec, word: WindowConfig) -> bool:
    """True iff the word satisfies every constraint fully supported in its window."""
    residual = constraint_residual(spec, word)
    return residual is None or not residual.any()


def batch_membership(spec: KernelShiftSpec, window: WindowSpec, values: np.ndarray) -> np.ndarray:
    """Vectorized membership for (count, n_sites, rank) word stacks."""
    rule = spec.constraint
    count = values.shape[0]
    if _anchors(spec, window) is None:
        return np.ones(count, dtype=bool)
    values = values.reshape((count,) + window.extents + (values.shape[-1],))
    _, residual = stencil(zip(rule.offsets, rule.coeffs), values, window, "exact", rule.ring)
    return ~residual.any(axis=tuple(range(1, residual.ndim)))


def _component_words(ring, basis, rank, codes):
    """Module-valued words (count, n_sites, rank) for coefficient codes (count, nb*rank).

    The words come out in the dtype of `basis`, so a basis cast to narrow
    codes gives narrow words; the codes go to `lincomb` in their own dtype.
    """
    count = codes.shape[0]
    nb, n_sites = basis.shape
    words = ring.lincomb(codes.reshape(count * rank, nb), basis).astype(basis.dtype, copy=False)
    return np.transpose(words.reshape(count, rank, n_sites), (0, 2, 1))


def enumerate_kernel_words(basis: WindowBasis, limit: int = ENUMERATION_CAP) -> np.ndarray:
    """All kernel words, shape (count, n_sites, rank); deterministic order."""
    if basis.solution_count > limit:
        raise ResourceLimitError(
            f"kernel has {basis.solution_count} words, above the cap {limit}; "
            "pass a larger limit to force enumeration",
            required=basis.solution_count,
        )
    rank = basis.module.rank
    return basis.decomposition.merge_product([
        _component_words(ring, b, rank, MixedRadix((ring.size,) * (b.shape[0] * rank)).all_digits())
        for ring, b, _ in basis.components
    ])


def draw_kernel_words(basis: WindowBasis, count: int, seed: int, start: int = 0) -> np.ndarray:
    """Uniform kernel words via uniform free coefficients; pure in (seed, index).

    The words come out in the dtype of the component bases, as
    `_component_words` and `CrtDecomposition.merge_arrays` keep it.
    """
    rank = basis.module.rank
    comp_values = []
    for ci, (ring, comp_basis, _) in enumerate(basis.components):
        rng = CounterRng(seed, stream=101 + ci)
        nvars = comp_basis.shape[0] * rank
        codes = rng.uniform_codes(start * nvars, (count, nvars), ring.size)
        comp_values.append(_component_words(ring, comp_basis, rank, codes))
    return basis.decomposition.merge_arrays(comp_values)


def submodule_condition_check(window_set, gens) -> bool:
    """Closure of the window set under sum_h r_h * s_h for tuples from the set.

    `window_set` is a WindowBasis (the set is its span) or an explicit
    (count, n_sites, rank) word array paired with its module (membership =
    listed words), checked on every tuple; more than `CLOSURE_TUPLE_CAP`
    tuples raise ResourceLimitError.  Every generator must be an element
    code of the ring.

    A WindowBasis is decided exactly, with no word drawn.  In field component
    j the sums are the whole span of its rows if some generator's image there
    is nonzero, else only 0; membership is linear, so the set is closed iff
    each such component's rows pass its rule (one `batch_membership` each).
    """
    ring = window_set.module.ring if isinstance(window_set, WindowBasis) else window_set[1].ring
    gens = [ring.element_code(g, "generator") for g in gens]
    if not gens:
        raise InvalidParameterError("need at least one generator coefficient")
    if isinstance(window_set, WindowBasis):
        comps = zip(_field_components(window_set.spec), window_set.components)
        return all(
            batch_membership(comp_spec, window_set.window, rows[:, :, None]).all()
            for (comp_spec, _, deco, j), (_, rows, _) in comps
            if deco.forward_table[gens, j].any()
        )

    words, _ = window_set
    words = np.asarray(words, dtype=np.int64)
    keys = {words[i].tobytes() for i in range(words.shape[0])}
    n = words.shape[0]
    if n ** len(gens) > CLOSURE_TUPLE_CAP:
        raise ResourceLimitError(
            f"closure of {n} words under {len(gens)} generators needs {n ** len(gens)} tuples, "
            f"above the cap {CLOSURE_TUPLE_CAP}",
            required=n ** len(gens),
        )
    for combo in iter_product(range(n), repeat=len(gens)):
        acc = ring.weighted_sum(gens, (words[wi] for wi in combo))
        if acc.tobytes() not in keys:
            return False
    return True


def _field_components(spec: KernelShiftSpec):
    """Yield (component spec, component ring, decomposition, index) per field component.

    The split is `crt.field_decomposition`'s, which refuses an unsupported
    ring before any elimination runs; a field yields itself once.
    """
    deco = crt.field_decomposition(spec.ring)
    for j, comp_ring in enumerate(deco.component_rings):
        comp_rule = crt.component_rule(spec.constraint, deco, j)
        yield KernelShiftSpec(comp_rule, spec.label), comp_ring, deco, j


def invariance_and_surjectivity_check(rule: LocalRule, spec: KernelShiftSpec, window: WindowSpec):
    """(invariant, surjective) for the rule acting on the kernel over a window.

    The kernel basis on the stencil-expanded window is pushed through the rule
    as one stack and compared against the kernel on the target window:
    membership of every image gives invariance (membership is linear, so the
    basis decides it), and surjectivity holds when the images span `_kernel_dim`.
    The check runs on scalar (rank-1) values; free-module components transform
    identically.  In component j the rule reads its component-j codes, zeros kept.
    """
    rule.module.check_same(spec.module)
    offs = np.array(rule.offsets, dtype=np.int64)
    expand_lo = [max(0, -int(l)) for l in offs.min(axis=0)]
    expand_hi = [max(0, int(h)) for h in offs.max(axis=0)]
    big = window.expanded(expand_lo, expand_hi)
    invariant = True
    surjective = True
    dim = _kernel_dim(spec, window)
    for comp_spec, comp_ring, deco, j in _field_components(spec):
        terms = zip(rule.offsets, deco.forward_table[list(rule.coeffs), j].tolist())
        ((_, big_basis, _),) = window_kernel(comp_spec, big).components
        nb = big_basis.shape[0]
        out_window, out = stencil(
            terms, big_basis.reshape((nb,) + big.extents + (1,)), big, "exact", comp_ring
        )
        if not out_window.contains_window(window):
            raise OutOfWindowError(f"{window} not contained in {out_window}")
        images = out[(slice(None),) + out_window.relative_slices(window)]
        images = images.reshape(nb, window.n_sites)
        if not batch_membership(comp_spec, window, images[..., None]).all():
            invariant = False
        if linalg.row_span_rank(images, comp_ring) != dim:
            surjective = False
    return invariant, surjective


class Cocycle:
    """A configuration-valued cocycle given by its generator-direction images.

    Holds one image per lattice axis (the value at the unit vector e_i); every
    other value follows from the law b^{m+n} = sigma^n(b^m) + b^n.  Derivation
    shrinks windows in exact mode, one generator step at a time.
    """

    def __init__(self, generator_images):
        images = list(generator_images)
        if not images:
            raise InvalidParameterError("need one generator image per axis")
        first = images[0]
        common = first.window
        for img in images:
            first.module.check_same(img.module)
            if img.mode != first.mode:
                raise InvalidParameterError("generator images must share a mode")
            common = common.intersect(img.window)
            if common is None:
                raise InvalidParameterError("generator images have no common window")
        if len(images) != first.window.axes:
            raise InvalidParameterError("need exactly one image per lattice axis")
        self.images = tuple(restrict_config(img, common) for img in images)
        self.window = common
        self.module = first.module

    @staticmethod
    def from_coboundary(config: WindowConfig) -> "Cocycle":
        axes = config.window.axes
        units = [tuple(int(i == j) for j in range(axes)) for i in range(axes)]
        return Cocycle(coboundary(config, units))

    @staticmethod
    def linear(a, window, module, mode="exact") -> "Cocycle":
        """The cocycle b^m = (m_1 + ... + m_k) * a: every generator image is a^M."""
        img = constant_config(module, window, a, mode)
        return Cocycle([img] * window.axes)

    def value_at(self, m) -> WindowConfig:
        """b^m derived by generator steps; m must be componentwise >= 0."""
        m = tuple(int(x) for x in m)
        if any(x < 0 for x in m):
            raise InvalidParameterError("derivation implemented for nonnegative steps")
        current = constant_config(self.module, self.window, 0, self.images[0].mode)
        for axis, steps in enumerate(m):
            unit = tuple(int(i == axis) for i in range(self.window.axes))
            for _ in range(steps):
                shifted = shift_config(current, unit)
                common = shifted.window.intersect(self.images[axis].window)
                if common is None:
                    raise InvalidParameterError("windows exhausted during derivation")
                current = config_add(
                    restrict_config(shifted, common),
                    restrict_config(self.images[axis], common),
                )
        return current

    def check_law(self, config: WindowConfig, vector_pairs) -> bool:
        """Verify b^{u+v} = sigma^v(b^u) + b^v for the coboundary of config."""
        for u, v in vector_pairs:
            (b_u,) = coboundary(config, [u])
            (b_v,) = coboundary(config, [v])
            (b_uv,) = coboundary(config, [tuple(a + b for a, b in zip(u, v))])
            shifted = shift_config(b_u, v)
            common = b_uv.window.intersect(shifted.window)
            common = common.intersect(b_v.window) if common else None
            if common is None:
                raise InvalidParameterError("windows exhausted during law check")
            lhs = restrict_config(b_uv, common)
            rhs = config_add(
                restrict_config(shifted, common), restrict_config(b_v, common)
            )
            if lhs != rhs:
                return False
        return True


def coboundary(config: WindowConfig, vectors) -> list:
    """sigma^v(c) - c for each vector, on the common (shrunken) window."""
    out = []
    for v in vectors:
        shifted = shift_config(config, v)
        common = config.window.intersect(shifted.window)
        if common is None:
            raise DomainExhaustedError(f"no common window for coboundary along {v}")
        out.append(
            config_sub(restrict_config(shifted, common), restrict_config(config, common))
        )
    return out


def coset_from_cocycle(c0, a, window: WindowSpec, module: ModuleSpec, mode="exact") -> WindowConfig:
    """The configuration c_m = c0 + (m_1 + ... + m_{D+E}) * a on the window.

    `c0` and `a` are element codes (one per component, or one for all).
    """
    ring = module.ring
    c0, a = (
        [ring.element_code(x, name) for x in ((v,) * module.rank if isinstance(v, int) else v)]
        for v, name in ((c0, "c0"), (a, "a"))
    )
    scalars = coordinate_sum_images(ring, window)
    vals = np.zeros(window.extents + (module.rank,), dtype=np.int64)
    for c in range(module.rank):
        vals[..., c] = ring.add_arr(np.int64(c0[c]), ring.mul_arr(scalars, np.int64(a[c])))
    return WindowConfig(window, module, vals, mode)


def _check_vectors(window: WindowSpec):
    """The lattice generators, then four vectors drawn from stream 23 of seed 7:
    each coordinate in -2..2 on a Z axis and 0..2 on an N axis; a zero draw is dropped."""
    axes = window.axes
    vs = [tuple(int(i == j) for j in range(axes)) for i in range(axes)]
    D = window.dims[0]
    for row in CounterRng(7, stream=23).uniform_codes(0, (4, axes), 5).tolist():
        v = tuple(x - 2 if i < D else x % 3 for i, x in enumerate(row))
        if any(v):
            vs.append(v)
    return vs


def coset_shift_check(config: WindowConfig, spec: KernelShiftSpec) -> bool:
    """True iff every tested coboundary sigma^v(c) - c lies in the kernel.

    The vectors are `_check_vectors`'; one that would empty the window is skipped.
    """
    for v in _check_vectors(config.window):
        try:
            (diff,) = coboundary(config, [v])
        except DomainExhaustedError:
            continue
        if not kernel_membership(spec, diff):
            return False
    return True


def torsion_free_check(spec: KernelShiftSpec, window: WindowSpec, scalar: int) -> bool:
    """No word outside the window kernel lands inside it under scalar multiplication.

    Equivalently M x = 0 and (scalar*M) x = 0 have the same solutions in each
    field component: a nonzero component scalar is a unit, and a zero one
    changes them exactly when an anchor fits the window.  `scalar` is a ring code.
    """
    scalar = spec.ring.element_code(scalar, "scalar")
    anchored = _anchors(spec, window) is not None
    for _, _, deco, j in _field_components(spec):
        if anchored and deco.forward_table[scalar, j] == 0:
            return False
    return True


def scaled_coset_in_kernel(word: WindowConfig, spec: KernelShiftSpec, scalar: int) -> bool:
    """True iff scalar * word satisfies the in-window constraints."""
    return kernel_membership(spec, config_scale(scalar, word))


def topological_mixing_check(spec: KernelShiftSpec, pairs, n: int) -> bool:
    """Can the kernel realize every word simultaneously at separation n?

    `pairs` is a list of (offset h, WindowConfig word); the word windows are
    translated by n*h and pinned (`lattice.pin_union`), and the event is
    nonempty iff it has positive mass under the kernel's Haar measure on the
    pins' bounding box.  Conflicting pins raise InfeasiblePinError, naming
    the first clash; a word that is not itself a kernel word is rejected up
    front, and so is an offset without D+E coordinates.
    """
    from .measures import SubgroupHaarMeasure

    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    placed = []
    for h, word in pairs:
        spec.module.check_same(word.module)
        v = scaled_offset(h, n, sum(spec.dims))
        if not kernel_membership(spec, word):
            raise InvalidParameterError("pinned word is not in the window kernel")
        placed.append((v, word))
    if not placed:
        return True
    pins, clash = pin_union(placed)
    if clash:
        raise InfeasiblePinError("site {} pinned to both {} and {}".format(*clash))
    sites = np.array(list(pins), dtype=np.int64)
    lo, hi = sites.min(axis=0), sites.max(axis=0)
    box = WindowSpec(spec.dims, tuple(lo.tolist()), tuple((hi - lo + 1).tolist()))
    return SubgroupHaarMeasure.from_kernel(spec, box).cylinder_probability(pins) > 0


def extension_certificate(spec: KernelShiftSpec, window: WindowSpec, layers: int = 1) -> bool:
    """Every in-window kernel word extends by `layers` rings of extra sites.

    Certified by the kernel's Haar measure: its marginal on `window` from the
    expanded window always lies inside the in-window kernel, so it is that
    kernel's Haar measure iff each component span has the kernel's dimension
    (`_kernel_dim` per module coordinate).  `layers` must be an integer >= 1.
    """
    from .measures import SubgroupHaarMeasure, _positive_integer

    layers = _positive_integer(layers, "layers")
    expanded = window.expanded([layers] * window.axes, [layers] * window.axes)
    marginal = SubgroupHaarMeasure.from_kernel(spec, expanded).marginal(window)
    dim = _kernel_dim(spec, window) * spec.module.rank
    return all(span.dim == dim for span in marginal.spans)
