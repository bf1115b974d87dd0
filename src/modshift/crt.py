"""Chinese-remainder splitting of composite-characteristic rings.

A ring of characteristic m = p_1^{s_1} ... p_J^{s_J} decomposes as a direct
product of components of prime-power characteristic; configurations split
sitewise through the component maps, rules split coefficientwise, and the
splitting map commutes with every shift, which is what lets prime-field
machinery serve squarefree moduli.

Supported sources: zmod(m) for any m (components zmod(p^s)); product rings
whose factors each have prime-power characteristic (components regroup the
factors); any prime-power-characteristic ring (degenerate single component,
labelled with its true (p, s) so squarefree guards can refuse s > 1).

`field_decomposition` is the one place that decides whether a ring splits
into finite fields.  A field is its own one-component decomposition with
identity tables, so the exact per-field methods (window kernels, subgroup
Haar measures) loop over components without treating fields apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidParameterError, UnsupportedCharacteristicError
from .lattice import WindowConfig
from .rings import MixedRadix, ModuleSpec, ProductRing, Ring, ZmodRing, is_prime
from .rng import CounterRng
from .shiftpoly import LocalRule, from_rule, stencil

__all__ = [
    "CrtDecomposition",
    "decompose_ring",
    "field_decomposition",
    "split_config",
    "merge_config",
    "component_rule",
    "ConjugacyResult",
    "conjugacy_check",
    "project_measure",
    "merge_product_bernoulli",
]


def _factorize(n: int):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            s = 0
            while n % p == 0:
                n //= p
                s += 1
            out.append((p, s))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


@dataclass(frozen=True)
class CrtDecomposition:
    """Forward/inverse maps between a ring and its prime-power components."""

    ring: Ring
    prime_powers: tuple  # ((p, s), ...) in increasing p
    component_rings: tuple
    forward_table: np.ndarray  # (size, J) component codes
    inverse_table: np.ndarray  # mixed-radix component index -> source code
    ideals: tuple  # frozensets {r : q_j r = 0} with q_j = m / p_j**s_j
    degenerate: bool = False

    @property
    def n_components(self):
        return len(self.component_rings)

    def forward(self, code: int):
        return tuple(int(x) for x in self.forward_table[code])

    @cached_property
    def codec(self) -> MixedRadix:
        """Codes of component tuples, the index of `inverse_table`."""
        return MixedRadix(ring.size for ring in self.component_rings)

    def inverse(self, comps) -> int:
        return int(self.inverse_table[self.codec.encode(comps)])

    def split_arrays(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.int64)
        return [self.forward_table[:, j][values] for j in range(self.n_components)]

    def merge_arrays(self, comp_values) -> np.ndarray:
        """Source-ring codes of per-component code arrays.

        The codes come back in the dtype of the component arrays when it holds
        every source code (the mixed-radix index never exceeds one), else in
        int64; a degenerate decomposition returns its one input unchanged.
        """
        comp_values = [np.asarray(c) for c in comp_values]
        if self.degenerate:  # identity tables: the one component is the value
            return comp_values[0]
        idx = self.codec.join(np.stack(comp_values, axis=-1))
        return self.inverse_table[idx].astype(idx.dtype, copy=False)

    def merge_product(self, stacks) -> np.ndarray:
        """Merges of every choice of one row from each component's stack.

        stacks[j] is a (count_j, ...) array of component-j codes; the result
        holds the prod(count_j) merges with the last component varying fastest.
        """
        if self.degenerate:
            return np.asarray(stacks[0])
        grids = np.meshgrid(*[np.arange(len(s)) for s in stacks], indexing="ij")
        return self.merge_arrays([s[g.ravel()] for s, g in zip(stacks, grids)])


def _degenerate(ring: Ring, prime_power) -> CrtDecomposition:
    size = ring.size
    fwd = np.arange(size, dtype=np.int64).reshape(size, 1)
    inv = np.arange(size, dtype=np.int64)
    return CrtDecomposition(
        ring,
        (prime_power,),
        (ring,),
        fwd,
        inv,
        (frozenset(range(size)),),
        degenerate=True,
    )


def component_map_verdicts(deco: CrtDecomposition, rows: int):
    """Boolean arrays checking the component maps, computed as array operations.

    Returns (inverse_ok, add_ok, mul_ok): inverse_ok[a] says
    inverse(forward(a)) == a, which makes forward injective when it holds
    everywhere; add_ok[a, b] and mul_ok[a, b] say forward(a + b) and
    forward(a * b) equal the componentwise sum and product, for every b and
    every a < rows.
    """
    ring = deco.ring
    codes = np.arange(ring.size, dtype=np.int64)
    fwd = deco.forward_table
    inverse_ok = deco.merge_arrays([fwd[:, j] for j in range(deco.n_components)]) == codes
    a = codes[:rows, None]
    b = codes[None, :]
    fsum = fwd[ring.add_arr(a, b)]
    fprod = fwd[ring.mul_arr(a, b)]
    add_ok = np.ones(fsum.shape[:2], dtype=bool)
    mul_ok = np.ones(fsum.shape[:2], dtype=bool)
    for j, comp in enumerate(deco.component_rings):
        fa, fb = fwd[a, j], fwd[b, j]
        add_ok &= fsum[..., j] == comp.add_arr(fa, fb)
        mul_ok &= fprod[..., j] == comp.mul_arr(fa, fb)
    return inverse_ok, add_ok, mul_ok


def _verify_bijection(deco: CrtDecomposition):
    """Raise AssertionError unless the maps invert and are homomorphisms.

    Checks every element, and every b against a = 0..64 (every a for small
    rings); rings above 4096 elements are not checked.
    """
    if deco.ring.size > 4096:
        return
    inverse_ok, add_ok, mul_ok = component_map_verdicts(deco, 65)
    if not inverse_ok.all():
        bad = int(np.flatnonzero(~inverse_ok)[0])
        raise AssertionError(f"inverse(forward({bad})) != {bad}")
    ok = add_ok & mul_ok
    if not ok.all():
        i, k = np.argwhere(~ok)[0]
        raise AssertionError(f"component map not a homomorphism at ({i},{k})")


def _ideals(ring: Ring, cofactors):
    ideals = []
    codes = np.arange(ring.size, dtype=np.int64)
    for q in cofactors:
        qr = ring.mul_arr(np.int64(ring.from_int(q)), codes)
        ideals.append(frozenset(int(x) for x in np.nonzero(qr == 0)[0]))
    return ideals


@lru_cache(maxsize=None)
def decompose_ring(ring: Ring) -> CrtDecomposition:
    """Split a ring along the prime factorization of its characteristic.

    A prime-power characteristic p**s returns a flagged degenerate single
    component labelled ``((p, s),)``.  Rings compare and hash by descriptor,
    so the decomposition is built (and its bijection verified) once per ring
    per process; the cached tables are read-only.
    """
    deco = _decompose(ring)
    deco.forward_table.setflags(write=False)
    deco.inverse_table.setflags(write=False)
    return deco


def _decompose(ring: Ring) -> CrtDecomposition:
    char = ring.characteristic
    factors = _factorize(char)
    if len(factors) == 1:
        return _degenerate(ring, factors[0])
    codes = np.arange(ring.size, dtype=np.int64)
    if isinstance(ring, ZmodRing):
        comps = tuple(ZmodRing(p**s) for p, s in factors)
        fwd = np.stack([codes % comp.m for comp in comps], axis=1)
    elif isinstance(ring, ProductRing):
        groups = {}
        for idx, f in enumerate(ring.factors):
            fchar = _factorize(f.characteristic)
            if len(fchar) != 1:
                raise UnsupportedCharacteristicError(
                    "product factors must each have prime-power characteristic; "
                    f"factor {f.descriptor()} has characteristic {f.characteristic}"
                )
            groups.setdefault(fchar[0][0], []).append(idx)
        # The primes of the characteristic are exactly the factors' primes,
        # so components follow `factors` in increasing p.
        members = [[ring.factors[i] for i in groups[p]] for p, _ in factors]
        comps = tuple(m[0] if len(m) == 1 else ProductRing(m) for m in members)
        parts = ring.codec.split(codes)
        fwd = np.stack([
            MixedRadix(ring.factors[i].size for i in groups[p]).join(parts[:, groups[p]])
            for p, _ in factors
        ], axis=1)
    else:
        raise UnsupportedCharacteristicError(
            f"cannot decompose {ring.descriptor()} of characteristic {char}"
        )
    inv = np.zeros(ring.size, dtype=np.int64)
    inv[MixedRadix(comp.size for comp in comps).join(fwd)] = codes
    qs = [char // p**s for p, s in factors]
    deco = CrtDecomposition(ring, tuple(factors), comps, fwd, inv, tuple(_ideals(ring, qs)))
    _verify_bijection(deco)
    return deco


def field_decomposition(ring: Ring) -> CrtDecomposition:
    """The decomposition of a ring into finite fields; refused when there is none.

    A field returns its degenerate one-component decomposition, a squarefree
    characteristic one field per prime.  A prime-characteristic non-field, a
    non-squarefree characteristic or a non-field component raises
    UnsupportedCharacteristicError, as does every ring `decompose_ring` refuses.
    """
    deco = decompose_ring(ring)
    if not ring.is_field and is_prime(ring.characteristic):
        raise UnsupportedCharacteristicError(
            f"{ring.descriptor()} has prime characteristic but is not a field; "
            "only fields and products of fields of distinct primes are supported"
        )
    if any(s > 1 for _, s in deco.prime_powers):
        raise UnsupportedCharacteristicError(
            f"characteristic {ring.characteristic} of {ring.descriptor()} is not squarefree; "
            "exact per-field methods are unavailable"
        )
    for comp in deco.component_rings:
        if not comp.is_field:
            raise UnsupportedCharacteristicError(
                f"{ring.descriptor()} has component {comp.descriptor()}, which is not a field; "
                "only fields and products of fields of distinct primes are supported"
            )
    return deco


def split_config(config: WindowConfig, deco: CrtDecomposition):
    """Sitewise forward map; one configuration per component ring."""
    if config.module.ring != deco.ring:
        raise InvalidParameterError("config ring differs from decomposition source")
    out = []
    comp_vals = deco.split_arrays(config.values)
    for ring_j, vals in zip(deco.component_rings, comp_vals):
        module_j = ModuleSpec(ring_j, config.module.rank)
        out.append(WindowConfig(config.window, module_j, vals, config.mode))
    return out


def merge_config(configs, deco: CrtDecomposition) -> WindowConfig:
    if len(configs) != deco.n_components:
        raise InvalidParameterError("component count mismatch")
    first = configs[0]
    for cfg, ring_j in zip(configs, deco.component_rings):
        if cfg.module.ring != ring_j:
            raise InvalidParameterError("component config ring mismatch")
        if cfg.window != first.window or cfg.mode != first.mode:
            raise InvalidParameterError("component configs disagree on window/mode")
        if cfg.module.rank != first.module.rank:
            raise InvalidParameterError("component configs disagree on rank")
    vals = deco.merge_arrays([cfg.values for cfg in configs])
    module = ModuleSpec(deco.ring, first.module.rank)
    return WindowConfig(first.window, module, vals, first.mode)


def component_rule(rule: LocalRule, deco: CrtDecomposition, j: int) -> LocalRule:
    """The rule with every coefficient pushed through the j-th component map."""
    ring_j = deco.component_rings[j]
    module_j = ModuleSpec(ring_j, rule.module.rank)
    coeffs = tuple(int(deco.forward_table[c, j]) for c in rule.coeffs)
    if any(c == 0 for c in coeffs):
        raise InvalidParameterError(
            "a coefficient vanishes in component "
            f"{ring_j.descriptor()}; the component rule is not a valid local rule"
        )
    return LocalRule(module_j, rule.dims, rule.offsets, coeffs)


@dataclass
class ConjugacyResult:
    ok: bool
    trials: int
    counterexample: dict | None = None

    def __bool__(self):
        return self.ok


def conjugacy_check(
    rule: LocalRule,
    deco: CrtDecomposition,
    trials: int = 100,
    torus_extents=(32,),
    seed: int = 0,
) -> ConjugacyResult:
    """split(rule(c)) == component rules applied to split(c), on random tori."""
    module = rule.module
    dims = rule.dims
    if module.ring != deco.ring:
        raise InvalidParameterError("rule ring differs from decomposition source")
    if len(torus_extents) != dims[0] + dims[1]:
        raise InvalidParameterError("torus extents arity != rule dims")
    from .lattice import WindowSpec

    window = WindowSpec(dims, (0,) * len(torus_extents), tuple(torus_extents))
    poly = from_rule(rule)
    comp_polys = [
        from_rule(component_rule(rule, deco, j)) for j in range(deco.n_components)
    ]
    rng = CounterRng(seed, stream=57)
    shape = (trials,) + window.extents + (module.rank,)
    draws = rng.uniform_codes(0, shape, module.ring.size)
    # Trials run in batches of about 2**16 cells, which bounds the memory of
    # the intermediate arrays; the first counterexample is reported in
    # (trial, component, site) order.
    batch = max(1, (1 << 16) // (window.n_sites * module.rank))
    for first in range(0, trials, batch):
        block = draws[first : first + batch]
        _, image = stencil(poly.terms, block, window, "torus", module.ring)
        mismatches = []
        for j, comp_poly in enumerate(comp_polys):
            ring_j = deco.component_rings[j]
            column = deco.forward_table[:, j]
            _, direct = stencil(comp_poly.terms, column[block], window, "torus", ring_j)
            mismatches.append(direct != column[image])
        bad = np.stack([m.reshape(len(block), -1).any(axis=1) for m in mismatches], axis=1)
        if bad.any():
            trial, j = (int(x) for x in np.argwhere(bad)[0])
            diff = np.argwhere(mismatches[j][trial])[0]
            site = tuple(int(x) for x in diff[:-1])
            return ConjugacyResult(
                False, trials, {"trial": first + trial, "component": j, "site": site}
            )
    return ConjugacyResult(True, trials)


def project_measure(mu, deco: CrtDecomposition, j: int):
    """Component-j marginal of a measure over the source ring."""
    from . import measures

    if not 0 <= j < deco.n_components:
        raise InvalidParameterError(f"component index {j} out of range")
    ring_j = deco.component_rings[j]
    module_j = ModuleSpec(ring_j, mu.module.rank)
    note = f"crt projection to component {j} ({ring_j.descriptor()})"
    if isinstance(mu, measures.BernoulliMeasure):
        probs = [Fraction(0)] * module_j.size
        values = mu.module.unpack_arr(np.arange(mu.module.size))
        comp_codes = module_j.pack_arr(deco.forward_table[values, j]).tolist()
        for comp_code, p in zip(comp_codes, mu.probs):
            probs[comp_code] += p
        return measures.BernoulliMeasure(
            module_j, mu.window, probs, seed=mu.seed, mode=mu.mode,
            label=f"{mu.label}|p{ring_j.characteristic}",
            provenance=mu.derived(note),
        )
    if isinstance(mu, measures.SubgroupHaarMeasure):
        if mu.decomposition.degenerate:
            if deco.degenerate and j == 0:
                return mu
            raise InvalidParameterError("subgroup measure is not CRT-split")
        span = mu.spans[j]
        return measures.SubgroupHaarMeasure(
            module_j, mu.window, (span,), seed=mu.seed, mode=mu.mode,
            label=f"{mu.label}|p{ring_j.characteristic}",
            provenance=mu.derived(note),
        )
    if isinstance(mu, measures.CosetHaarMeasure):
        rep_j = split_config(mu.rep, deco)[j]
        sub_j = project_measure(mu.subgroup, deco, j)
        return measures.CosetHaarMeasure(rep_j, sub_j, provenance=mu.derived(note))
    if isinstance(mu, measures.ExactWordMeasure):
        words = []
        for vals, p in mu.words:
            words.append((deco.forward_table[:, j][vals], p))
        return measures.ExactWordMeasure(
            module_j, mu.window, words, seed=mu.seed, mode=mu.mode,
            label=f"{mu.label}|p{ring_j.characteristic}",
            provenance=mu.derived(note),
        )

    def transform(batch):
        return deco.forward_table[:, j][batch]

    return measures.TransformedMeasure(
        mu, transform, mu.window, module_j,
        label=f"{mu.label}|p{ring_j.characteristic}", provenance=mu.derived(note),
    )


def merge_product_bernoulli(components, deco: CrtDecomposition):
    """Product joining of independent Bernoulli components, back over the source."""
    from . import measures

    if len(components) != deco.n_components:
        raise InvalidParameterError("component count mismatch")
    module = ModuleSpec(deco.ring, components[0].module.rank)
    window = components[0].window
    values = module.unpack_arr(np.arange(module.size))
    probs = [Fraction(1)] * module.size
    for j, comp_mu in enumerate(components):
        comp_codes = comp_mu.module.pack_arr(deco.forward_table[values, j]).tolist()
        probs = [p * comp_mu.probs[c] for p, c in zip(probs, comp_codes)]
    return measures.BernoulliMeasure(
        module, window, probs, seed=components[0].seed, mode=components[0].mode,
        label="product-joining",
    )
