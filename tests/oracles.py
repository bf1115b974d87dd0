"""Independent oracles shared by the test modules.

These deliberately avoid the library's solvers: the zeroth-row oracle works
from the space-time recursion of the parity kernel, and the brute-force kernel
oracle enumerates words and evaluates raw stencil sums.  The dense elimination
oracle is the library's original full-row ``rref`` kept as the reference for
the field-specific elimination paths.  The reduce-each stencil oracles are the
library's original stencil evaluations, which reduce after every multiply and
every add, kept as the reference for the single stencil engine; so are the
per-trial CRT conjugacy loop and the Python-loop CRT map check.  The
per-anchor constraint matrix is the library's original site-dict loop, kept
as the reference for the index-arithmetic `constraint_matrix`.  The report
oracles are the library's original `report_bytes` (the pure-Python indented
``json.dumps``) and `_csv_bytes` over one row dict per table row, kept as the
reference for the fragment-based report writer.  The per-character Fourier
oracle is the library's original one-character-at-a-time coefficient (one
`fourier_root_sum` method per measure handle, the enumeration fallback of
`fourier` and `CharacterSpec.exponent_of_config`), and the per-character
rigidity experiment its original loop over it; both are the reference for
the single array-based Fourier engine.  The per-result Haar criterion is the
library's original loop over a list of `FourierResult`s, kept as the
reference for the one per-class Haar verdict, and the eliminated Haar spans
are `from_window_basis`'s original `rref` of the Kronecker product, kept as
the reference for the lex-last propagation that replaced every elimination
there.  The forked word
enumerations are the library's original `enumerate_kernel_words` and
`SubgroupHaarMeasure.enumerate_words`, which treated a field apart from a CRT
split and merged components through the inverse table, kept as the reference
for the one-component field decomposition.  The int64 closure check is the
library's original `draw_kernel_words` and `WindowBasis` branch of
`submodule_condition_check`, which moved every word as int64 (float64 or
int64 matmul, int64 merge, reduce-each membership), kept as the reference for
the closure check decided from the basis rows.  The loop GF tables are `GFRing`'s original
per-element construction of its inverse and trace tables, kept as the
reference for the table-gather construction.  The eliminated window kernel,
the rank-comparison torsion check and the nullspace extension certificate are
the library's original `window_kernel` (one `rref` of the whole constraint
matrix per field component), `torsion_free_check` and
`extension_certificate`, kept as the reference for kernels by propagation.
The counter-array draws are the library's original `CounterRng.uint64`,
`uniform_codes` and `uniform_from_cdf` and the Bernoulli, Haar and word
`draw_values`, which built an explicit uint64 counter array and mixed it with
one fresh array per step, kept as the reference for the blocked draw kernel.
The whole-draw statistics are the library's original sampled `fourier`,
`mixing_statistic` and `block_entropy`, which drew every sample before
reducing any, and `crt.conjugacy_check` with its hand-made batches, kept as
the reference for the statistics that stream their draws in blocks.
The pin dicts are the library's original k-fold mixing event
(`_pins_from_word` and `_merge_pins`), kept as the reference for
`lattice.pin_union`, which `mixing_statistic` and `topological_mixing_check`
share; the topological check is decided from them by brute force over the
pins' bounding box.  The solved topological check is the library's original
`topological_mixing_check`, which solved the constraints on the pins'
bounding box with `solve_affine`, kept as the reference for the check read
from the kernel's Haar measure.
The box product is the library's original `poly_mul`, which convolved dense
coefficient boxes for every product, kept as the reference for products on
term arrays.  The generic weighted sum is the library's original
`Ring.weighted_sum` of the table rings (two int64 table gathers per term),
kept as the reference for the packed narrow sum.
The per-component Haar pushforward is the library's original Haar branch of
`pushforward`, which powered `crt.component_rule` in each field component
and pushed the span and the representative's component codes there
(`_transform_span`); the branch pushforward and the branch projection are
the original word-enumeration and sampled branches of `pushforward` and
`crt.project_measure`.  All three are kept as the reference for the one
image path, `measures._image`.
"""

import csv
import io
import json
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


# -- stencil evaluation, reducing after every multiply and every add ----------------


def reduce_each_anchor_window(stencil_offsets, window):
    """Anchors m in the lattice with m + stencil inside the window; None if empty."""
    from modshift.lattice import WindowSpec

    arr = np.array(stencil_offsets, dtype=np.int64)
    lo, hi = arr.min(axis=0), arr.max(axis=0)
    origin = [o - int(l) for o, l in zip(window.origin, lo)]
    extents = [e - int(h - l) for e, h, l in zip(window.extents, hi, lo)]
    D = window.dims[0]
    for i in range(D, window.axes):
        if origin[i] < 0:
            extents[i] += origin[i]
            origin[i] = 0
    if any(e < 1 for e in extents):
        return None
    return WindowSpec(window.dims, tuple(origin), tuple(extents))


def reduce_each_apply(poly, config):
    """Evaluate the polynomial of shifts on a windowed configuration."""
    from modshift.errors import DomainExhaustedError, RingMismatchError
    from modshift.lattice import WindowConfig, WindowSpec

    if poly.ring != config.module.ring:
        raise RingMismatchError("polynomial/config ring mismatch")
    ring = config.module.ring
    n_axes = config.window.axes
    if poly.dims[0] + poly.dims[1] != n_axes:
        raise RingMismatchError("polynomial/config lattice arity mismatch")
    if config.mode == "torus":
        out = None
        for off, c in poly.terms:
            shifted = np.roll(
                config.values, tuple(-x for x in off), axis=tuple(range(n_axes))
            )
            contrib = ring.mul_arr(np.int64(c), shifted)
            out = contrib if out is None else ring.add_arr(out, contrib)
        if out is None:
            out = np.zeros_like(config.values)
        return config.with_values(out)

    if poly.is_zero:
        return config.with_values(np.zeros_like(config.values))
    offs = np.array([off for off, _ in poly.terms], dtype=np.int64)
    lo = offs.min(axis=0)
    hi = offs.max(axis=0)
    w = config.window
    out_origin = [o - int(l) for o, l in zip(w.origin, lo)]
    out_extents = [e - int(h - l) for e, h, l in zip(w.extents, hi, lo)]
    if any(e < 1 for e in out_extents):
        raise DomainExhaustedError(
            f"stencil span exceeds window extents {w.extents}"
        )
    D = w.dims[0]
    for i in range(D, n_axes):
        if out_origin[i] < 0:
            out_extents[i] += out_origin[i]
            out_origin[i] = 0
            if out_extents[i] < 1:
                raise DomainExhaustedError("output window left the lattice")
    out_window = WindowSpec(w.dims, tuple(out_origin), tuple(out_extents))
    out = None
    for off, c in poly.terms:
        src = out_window.translate(off)
        block = config.values[w.relative_slices(src)]
        contrib = ring.mul_arr(np.int64(c), block)
        out = contrib if out is None else ring.add_arr(out, contrib)
    return WindowConfig(out_window, config.module, out, config.mode)


def reduce_each_batch(poly, window, values, mode, ring):
    """Batched apply: values (count, *extents, rank) -> (window', values')."""
    from modshift.lattice import WindowConfig
    from modshift.rings import ModuleSpec

    axes = window.axes
    spatial = tuple(range(1, 1 + axes))
    if mode == "torus":
        out = None
        for off, c in poly.terms:
            rolled = np.roll(values, tuple(-x for x in off), axis=spatial)
            contrib = ring.mul_arr(np.int64(c), rolled)
            out = contrib if out is None else ring.add_arr(out, contrib)
        if out is None:
            out = np.zeros_like(values)
        return window, out

    # Exact mode: derive the output window once via a probe, then slice batched.
    probe = WindowConfig(
        window,
        ModuleSpec(ring, values.shape[-1]),
        values[0],
        "exact",
    )
    out_probe = reduce_each_apply(poly, probe)
    out_window = out_probe.window
    out = None
    for off, c in poly.terms:
        src = out_window.translate(off)
        slc = (slice(None),) + window.relative_slices(src) + (slice(None),)
        contrib = ring.mul_arr(np.int64(c), values[slc])
        out = contrib if out is None else ring.add_arr(out, contrib)
    if out is None:
        out = np.zeros((values.shape[0],) + out_window.extents + (values.shape[-1],), dtype=np.int64)
    return out_window, out


def reduce_each_residual(spec, config):
    """Constraint values at every in-window anchor; None when no anchor fits."""
    rule = spec.constraint
    rule.module.check_same(config.module)
    anchors = reduce_each_anchor_window(rule.offsets, config.window)
    if anchors is None:
        return None
    ring = rule.ring
    w = config.window
    out = None
    for off, c in zip(rule.offsets, rule.coeffs):
        src = anchors.translate(off)
        block = config.values[w.relative_slices(src)]
        contrib = ring.mul_arr(np.int64(c), block)
        out = contrib if out is None else ring.add_arr(out, contrib)
    return out


def reduce_each_membership(spec, window, values):
    """Vectorized membership for (count, n_sites, rank) word stacks."""
    rule = spec.constraint
    anchors = reduce_each_anchor_window(rule.offsets, window)
    count = values.shape[0]
    if anchors is None:
        return np.ones(count, dtype=bool)
    ring = rule.ring
    site_index = {site: i for i, site in enumerate(window.sites())}
    gather = np.zeros((anchors.n_sites, len(rule.offsets)), dtype=np.int64)
    for ai, m in enumerate(anchors.sites()):
        for oi, off in enumerate(rule.offsets):
            gather[ai, oi] = site_index[tuple(a + b for a, b in zip(m, off))]
    residual = None
    for oi, c in enumerate(rule.coeffs):
        term = ring.mul_arr(np.int64(c), values[:, gather[:, oi], :])
        residual = term if residual is None else ring.add_arr(residual, term)
    return ~residual.reshape(count, -1).any(axis=1)


# -- CRT checks, one trial and one element pair at a time ---------------------------


def per_trial_conjugacy(rule, deco, trials, torus_extents, seed):
    """First (trial, component, site) where split(rule(c)) differs, or None."""
    from modshift.crt import component_rule, split_config
    from modshift.lattice import WindowConfig, WindowSpec
    from modshift.rng import CounterRng
    from modshift.shiftpoly import from_rule

    module = rule.module
    window = WindowSpec(rule.dims, (0,) * len(torus_extents), tuple(torus_extents))
    poly = from_rule(rule)
    comp_polys = [
        from_rule(component_rule(rule, deco, j)) for j in range(deco.n_components)
    ]
    rng = CounterRng(seed, stream=57)
    shape = (trials,) + window.extents + (module.rank,)
    draws = rng.uniform_codes(0, shape, module.ring.size)
    for trial in range(trials):
        cfg = WindowConfig(window, module, draws[trial], "torus")
        image = reduce_each_apply(poly, cfg)
        split_image = split_config(image, deco)
        split_src = split_config(cfg, deco)
        for j, comp_poly in enumerate(comp_polys):
            direct = reduce_each_apply(comp_poly, split_src[j])
            if not np.array_equal(direct.values, split_image[j].values):
                diff = np.argwhere(direct.values != split_image[j].values)[0]
                return {
                    "trial": trial,
                    "component": j,
                    "site": tuple(int(x) for x in diff[:-1]),
                }
    return None


def pairwise_crt_verdicts(ring, deco):
    """(bijective, additive_hom) of the component maps over every (a, b) pair."""
    bijective = True
    hom = True
    for a in range(ring.size):
        if deco.inverse(deco.forward(a)) != a:
            bijective = False
    for a in range(ring.size):
        for b in range(ring.size):
            fa, fb = deco.forward(a), deco.forward(b)
            fsum = deco.forward(ring.add(a, b))
            for j, comp in enumerate(deco.component_rings):
                if fsum[j] != comp.add(fa[j], fb[j]):
                    hom = False
    return bijective, hom


def per_anchor_constraint_matrix(spec, window):
    """(n_anchors, n_sites) matrix of constraint coefficients on scalar sites."""
    from modshift.kernels import anchor_window

    rule = spec.constraint
    anchors = anchor_window(rule.offsets, window)
    n_sites = window.n_sites
    if anchors is None:
        return np.zeros((0, n_sites), dtype=np.int64)
    site_index = {site: i for i, site in enumerate(window.sites())}
    rows = []
    for m in anchors.sites():
        row = np.zeros(n_sites, dtype=np.int64)
        for off, c in zip(rule.offsets, rule.coeffs):
            row[site_index[tuple(a + b for a, b in zip(m, off))]] = c
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def report_bytes(report: dict) -> bytes:
    from modshift.experiment import _json_default

    return json.dumps(
        report, sort_keys=True, indent=2, ensure_ascii=True, default=_json_default
    ).encode("ascii") + b"\n"


def _csv_bytes(rows, columns) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([repr(row.get(c)) if isinstance(row.get(c), float) else row.get(c, "") for c in columns])
    return buf.getvalue().encode("ascii")


def report_files(report: dict):
    """(name, bytes) of report.json, fourier.csv and mixing.csv in the order the
    original `write_report` wrote them; an encoding error stops it there."""
    yield "report.json", report_bytes(report)
    fourier_rows = []
    mixing_rows = []
    for step in report["steps"]:
        for row in step.get("fourier_table", []):
            fourier_rows.append({"step": step["name"], **row})
        for row in step.get("mixing_table", []):
            mixing_rows.append({"step": step["name"], **row})
    yield "fourier.csv", _csv_bytes(
        fourier_rows, ["step", "chi", "t", "re", "im", "modulus", "stderr", "exact"]
    )
    yield "mixing.csv", _csv_bytes(
        mixing_rows, ["step", "n", "observed", "product", "deviation", "stderr", "exact"]
    )


# -- per-character Fourier ---------------------------------------------------


def exponent_of_config(chi, config) -> int:
    ring = chi.module.ring
    L = ring.char_exponent
    total = 0
    for site, dual in chi.duals:
        value = config.value_at(site)
        for d, a in zip(dual, value):
            total += ring.pair_exponent(d, a)
    return total % L


def _fourier_root_sum(mu, chi):
    """The exact coefficient of one character, by the handle's own method."""
    from modshift.chars import RootSum
    from modshift.errors import OutOfWindowError
    from modshift.lattice import WindowConfig
    from modshift.measures import (
        BernoulliMeasure,
        CosetHaarMeasure,
        ExactWordMeasure,
        SubgroupHaarMeasure,
    )

    if isinstance(mu, BernoulliMeasure):
        ring = mu.module.ring
        L = ring.char_exponent
        out = RootSum.one(L)
        for site, dual in chi.duals:
            if not mu.window.contains_site(site):
                raise OutOfWindowError(f"character site {site} outside {mu.window}")
            site_sum = RootSum.zero(L)
            for code, p in enumerate(mu.probs):
                if not p:
                    continue
                val = mu.module.decode(code)
                e = sum(ring.pair_exponent(d, a) for d, a in zip(dual, val)) % L
                site_sum.add_weight(e, p)
            out = out * site_sum
        return out
    if isinstance(mu, CosetHaarMeasure):
        base = _fourier_root_sum(mu.subgroup, chi)
        e = exponent_of_config(chi, mu.rep)
        return RootSum.monomial(base.L, e) * base
    if isinstance(mu, SubgroupHaarMeasure):
        ring = mu.module.ring
        L = ring.char_exponent
        rank = mu.module.rank
        for gen in mu.merged_generators():
            total = 0
            for site, dual in chi.duals:
                if not mu.window.contains_site(site):
                    raise OutOfWindowError(f"character site {site} outside {mu.window}")
                base = mu.window.index_of(site) * rank
                for c, d in enumerate(dual):
                    total += ring.pair_exponent(d, int(gen[base + c]))
            if total % L:
                return RootSum.zero(L)
        return RootSum.one(L)
    if isinstance(mu, ExactWordMeasure):
        L = mu.module.ring.char_exponent
        out = RootSum.zero(L)
        for word, p in mu.words:
            cfg = WindowConfig(
                mu.window, mu.module,
                word.reshape(mu.window.extents + (mu.module.rank,)), mu.mode,
            )
            out.add_weight(exponent_of_config(chi, cfg), p)
        return out
    return None


def per_character_fourier(mu, chi):
    """`fourier(mu, chi)` with an exact budget, one character at a time."""
    from modshift.chars import RootSum
    from modshift.errors import InvalidParameterError, OutOfWindowError
    from modshift.lattice import WindowConfig
    from modshift.measures import FourierResult

    for site in chi.sites():
        if not mu.window.contains_site(site):
            raise OutOfWindowError(f"character site {site} outside measure window")
    rs = _fourier_root_sum(mu, chi)
    if rs is None:
        if mu.is_exact:
            L = mu.module.ring.char_exponent
            rs = RootSum.zero(L)
            for vals, p in mu.enumerate_words():
                cfg = WindowConfig(
                    mu.window, mu.module,
                    vals.reshape(mu.window.extents + (mu.module.rank,)), mu.mode,
                )
                rs.add_weight(exponent_of_config(chi, cfg), p)
        else:
            raise InvalidParameterError(
                f"{mu.label} has no exact Fourier path; pass a sample budget"
            )
    return FourierResult(chi, rs.to_complex(), 0.0, root_sum=rs)


def per_result_haar_criterion(results, criterion="subgroup", tol=1e-9):
    """`haar_criterion` of a list of `FourierResult`s, one result at a time."""
    from modshift.errors import MissingTrivialCharacterError
    from modshift.measures import HaarVerdict

    def exact_ok(rs, criterion):
        if criterion == "subgroup":
            return rs.is_zero() or rs.is_one()
        return rs.modulus_is_zero() or rs.modulus_is_one()

    results = list(results)
    if not any(r.chi.is_trivial for r in results):
        raise MissingTrivialCharacterError("sweep does not include the trivial character")
    violations = []
    for r in results:
        if r.is_exact:
            ok = exact_ok(r.root_sum, criterion)
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


def eliminated_haar_spans(basis):
    """The span bases of `SubgroupHaarMeasure.from_window_basis` as it first
    built them, each one `rref` of the scalar basis placed on every component
    of every site."""
    from modshift.measures import _echelonize

    eye = np.eye(basis.module.rank, dtype=np.int64)
    nvars = basis.window.n_sites * basis.module.rank
    return [_echelonize(ring, np.kron(scalar_basis, eye), nvars)
            for ring, scalar_basis, _ in basis.components]


def per_character_rigidity(rule, mu0, characters, t_schedule=None, n_schedule=None,
                           budget="exact", mixing_pairs=None, tol=1e-9):
    """`rigidity_experiment` with every exact coefficient from `per_character_fourier`."""
    from modshift.measures import (
        DEFAULT_N_SCHEDULE,
        RigidityReport,
        default_t_schedule,
        fourier,
        mixing_statistic,
        pushforward,
    )
    from modshift.shiftpoly import format_rule

    characters = list(characters)
    t_schedule = list(t_schedule if t_schedule is not None else default_t_schedule(rule.ring))
    n_schedule = list(n_schedule if n_schedule is not None else DEFAULT_N_SCHEDULE)
    fourier_rows = []
    verdicts = []
    classification = "consistent-with-coset-haar"
    any_inconclusive = False
    for t in t_schedule:
        mu_t = pushforward(mu0, rule, t)
        results = []
        for chi_t in characters:
            if budget == "exact" and mu_t.is_exact:
                r = per_character_fourier(mu_t, chi_t)
            else:
                r = fourier(mu_t, chi_t, budget if budget != "exact" else 10000)
            results.append(r)
            fourier_rows.append(r.row(t=t))
        verdict = per_result_haar_criterion(results, criterion="coset", tol=tol)
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


def _field_or_split(ring):
    """None for a field, else the ring's CRT decomposition (the original fork)."""
    from modshift.crt import decompose_ring

    return None if ring.is_field else decompose_ring(ring)


def _inverse_merge(deco, comp_values):
    idx = np.zeros_like(np.asarray(comp_values[0], dtype=np.int64))
    for c, ring in zip(reversed(comp_values), reversed(deco.component_rings)):
        idx = idx * ring.size + np.asarray(c, dtype=np.int64)
    return deco.inverse_table[idx]


def _meshgrid_merge(deco, per_comp):
    sizes = [w.shape[0] for w in per_comp]
    grids = np.meshgrid(*[np.arange(s) for s in sizes], indexing="ij")
    flat = [g.ravel() for g in grids]
    return _inverse_merge(deco, [w[f] for w, f in zip(per_comp, flat)])


def forked_kernel_words(basis):
    """All kernel words (count, n_sites, rank), as `enumerate_kernel_words` was."""
    rank = basis.module.rank
    per_comp = []
    for ring, comp_basis, _ in basis.components:
        q = ring.size
        nb, n_sites = comp_basis.shape
        nvars = nb * rank
        count = q**nvars
        codes = np.zeros((count, nvars), dtype=np.int64)
        idx = np.arange(count)
        for v in range(nvars):
            codes[:, v] = (idx // q**v) % q
        words = ring.lincomb(codes.reshape(count * rank, nb), comp_basis)
        per_comp.append(np.transpose(words.reshape(count, rank, n_sites), (0, 2, 1)))
    deco = _field_or_split(basis.module.ring)
    if deco is None:
        return per_comp[0]
    return _meshgrid_merge(deco, per_comp)


def forked_subgroup_words(mu):
    """(words (count, n_sites, rank), probability), as `enumerate_words` was."""
    rank = mu.module.rank
    n_sites = mu.window.n_sites
    p = Fraction(1, mu.subgroup_size())
    per_span = []
    for span in mu.spans:
        q = span.ring.size
        nb = span.dim
        count = q**nb
        codes = np.zeros((count, nb), dtype=np.int64)
        idx = np.arange(count)
        for v in range(nb):
            codes[:, v] = (idx // q**v) % q
        if nb:
            vals = span.ring.lincomb(codes, span.basis)
        else:
            vals = np.zeros((1, n_sites * rank), dtype=np.int64)
        per_span.append(vals)
    deco = _field_or_split(mu.module.ring)
    merged = per_span[0] if deco is None else _meshgrid_merge(deco, per_span)
    return merged.reshape(-1, n_sites, rank), p


# -- the submodule closure check on int64 words ------------------------------------------


def int64_lincomb(ring, coefs, rows):
    """`Ring.lincomb` on int64 codes as it was: the float64/int64 matmul for Z/m."""
    from modshift.rings import Ring

    if ring.kind != "zmod":
        return Ring.lincomb(ring, coefs, rows)
    q = ring.m
    if coefs.shape[-1] * (q - 1) ** 2 < 1 << 53:
        return np.matmul(coefs.astype(np.float64), rows.astype(np.float64)).astype(np.int64) % q
    return np.matmul(coefs, rows) % q


def _int64_component_words(ring, basis, rank, codes):
    count = codes.shape[0]
    nb, n_sites = basis.shape
    words = int64_lincomb(ring, codes.reshape(count * rank, nb), basis)
    return np.transpose(words.reshape(count, rank, n_sites), (0, 2, 1))


def _int64_merge(deco, comp_values):
    if deco.degenerate:
        return np.asarray(comp_values[0], dtype=np.int64)
    return _inverse_merge(deco, comp_values)


def int64_draw_kernel_words(basis, count, seed, start=0):
    """Uniform kernel words on int64 codes, as `draw_kernel_words` was."""
    from modshift.rng import CounterRng

    rank = basis.module.rank
    comp_values = []
    for ci, (ring, comp_basis, _) in enumerate(basis.components):
        rng = CounterRng(seed, stream=101 + ci)
        nvars = comp_basis.shape[0] * rank
        codes = rng.uniform_codes(start * max(nvars, 1), (count, nvars), ring.size) if nvars else np.zeros((count, 0), dtype=np.int64)
        comp_values.append(_int64_component_words(ring, comp_basis, rank, codes))
    return _int64_merge(basis.decomposition, comp_values)


def int64_kernel_words(basis):
    """All kernel words on int64 codes, in `enumerate_kernel_words` order."""
    rank = basis.module.rank
    per_comp = []
    for ring, comp_basis, _ in basis.components:
        q, nvars = ring.size, comp_basis.shape[0] * rank
        idx = np.arange(q**nvars)
        codes = np.zeros((q**nvars, nvars), dtype=np.int64)
        for v in range(nvars):
            codes[:, v] = (idx // q**v) % q
        per_comp.append(_int64_component_words(ring, comp_basis, rank, codes))
    deco = basis.decomposition
    if deco.degenerate:
        return per_comp[0]
    return _meshgrid_merge(deco, per_comp)


def int64_submodule_condition(basis, gens, max_exhaustive=1 << 17, samples=10000, seed=2024):
    """The `WindowBasis` branch of `submodule_condition_check` as it was, on int64 words.

    The sum reduces after every multiply and add (`generic_weighted_sum`), and
    membership is the reduce-each oracle.
    """
    gens = [int(g) for g in gens]
    if basis.solution_count ** len(gens) <= max_exhaustive:
        words = int64_kernel_words(basis)
        grids = np.meshgrid(*[np.arange(words.shape[0])] * len(gens), indexing="ij")
        blocks = [words[grid.ravel()] for grid in grids]
    else:
        blocks = [int64_draw_kernel_words(basis, samples, seed + 7 * h) for h in range(len(gens))]
    acc = generic_weighted_sum(basis.module.ring, gens, blocks)
    return bool(reduce_each_membership(basis.spec, basis.window, acc).all())


def loop_gf_tables(ring):
    """`GFRing`'s inverse and trace tables as it first built them, one element at a time.

    Returns (inverse table, trace table); a code without an inverse maps to -1.
    The p-th powers are repeated squaring over the multiplication table.
    """
    q, k, p = ring.size, ring.k, ring.p
    mul, add = ring._mul_table, ring._add_table

    def pow_code(a, n):
        result, base = ring.one, a
        while n:
            if n & 1:
                result = int(mul[result, base])
            base = int(mul[base, base])
            n >>= 1
        return result

    inverse = np.full(q, -1, dtype=np.int64)
    for a in range(1, q):
        hits = np.nonzero(mul[a] == ring.one)[0]
        if hits.size:
            inverse[a] = hits[0]
    trace = np.zeros(q, dtype=np.int64)
    for a in range(q):
        acc, t = 0, a
        for _ in range(k):
            acc = add[acc, t]
            t = pow_code(t, p)
        trace[a] = acc % p
    return inverse, trace


# -- window kernels by eliminating the whole constraint matrix -------------------


def eliminated_window_kernel(spec, window):
    """`window_kernel` as first written: per field component, one `rref` of the
    (anchors x sites) constraint matrix, read off by `nullspace_from_rref`.

    Returns the (ring, basis, free site indices) triple of each component.
    """
    from modshift import linalg
    from modshift.kernels import _field_components, constraint_matrix

    comps = []
    for comp_spec, comp_ring, _, _ in _field_components(spec):
        reduced, pivots = linalg.rref(constraint_matrix(comp_spec, window), comp_ring)
        basis, free = linalg.nullspace_from_rref(reduced, pivots, comp_ring)
        comps.append((comp_ring, basis, free))
    return tuple(comps)


def rank_torsion_free_check(spec, window, scalar):
    """`torsion_free_check` as first written: M x = 0 and (scalar*M) x = 0 must
    have the same nullity in every field component."""
    from modshift import linalg
    from modshift.kernels import _field_components, constraint_matrix

    scalar = spec.ring.element_code(scalar, "scalar")
    for comp_spec, comp_ring, deco, j in _field_components(spec):
        comp_scalar = int(deco.forward_table[scalar, j])
        matrix = constraint_matrix(comp_spec, window)
        scaled = comp_ring.mul_arr(np.int64(comp_scalar), matrix)
        if linalg.rank(scaled, comp_ring) != linalg.rank(matrix, comp_ring):
            return False
    return True


def nullspace_extension_certificate(spec, window, layers=1):
    """`extension_certificate` as first written: the nullspace of the expanded
    window's constraint matrix, projected onto the window, must span as much as
    the in-window kernel, whose dimension comes from a rank."""
    from modshift import linalg
    from modshift.kernels import _field_components, constraint_matrix

    axes = window.axes
    big = window.expanded([layers] * axes, [layers] * axes)
    site_cols = big.flat_indices(window.sites())
    for comp_spec, comp_ring, _, _ in _field_components(spec):
        big_basis = linalg.nullspace(constraint_matrix(comp_spec, big), comp_ring)
        small_matrix = constraint_matrix(comp_spec, window)
        small_dim = window.n_sites - linalg.rank(small_matrix, comp_ring)
        if linalg.row_span_rank(big_basis[:, site_cols], comp_ring) != small_dim:
            return False
    return True


# -- draws by explicit counter arrays -------------------------------------------


def array_mix(z):
    """splitmix64's output function on a uint64 array, one fresh array per step,
    as `rng._mix` was before the blocked kernel."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def counter_uint64(rng, counters):
    """`CounterRng.uint64` as first written: mix(key + counter * golden)."""
    from modshift.rng import _GOLDEN, _MASK, derive_key

    key = np.uint64(derive_key(rng.seed, rng.stream))
    c = np.asarray(counters, dtype=np.uint64)
    return array_mix((key + c * np.uint64(_GOLDEN)) & np.uint64(_MASK))


def _counters_from(start, n):
    """The uint64 counters `np.arange(start, start + n, dtype=np.uint64)` gave,
    wrapping past 2**64; built as offsets because that `arange` raises for
    start = 2**64 - 1 with n >= 2."""
    return np.arange(n, dtype=np.uint64) + np.uint64(start)


def counter_uniform_codes(rng, start, shape, modulus):
    """`CounterRng.uniform_codes` as first written: one counter array from
    `start`, mixed, reduced by `%` and cast to int64."""
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    counters = _counters_from(start, n)
    return (counter_uint64(rng, counters) % np.uint64(modulus)).astype(np.int64).reshape(shape)


def counter_uniform_from_cdf(rng, start, shape, thresholds):
    """`CounterRng.uniform_from_cdf` as first written."""
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    vals = counter_uint64(rng, _counters_from(start, n))
    return np.searchsorted(thresholds, vals, side="right").astype(np.int64).reshape(shape)


def counter_grid(rng, start, count, stride, columns, modulus=None, thresholds=None):
    """Codes at counters (start + i) * stride + columns[j] from an explicit
    (count, len(columns)) counter array, as the Bernoulli and Haar draws built
    them; `start` is the row index."""
    counters = (
        _counters_from(start, count)[:, None] * np.uint64(stride)
        + np.asarray(columns, dtype=np.int64).astype(np.uint64)[None, :]
    )
    raw = counter_uint64(rng, counters)
    if thresholds is not None:
        return np.searchsorted(thresholds, raw, side="right").astype(np.int64)
    return (raw % np.uint64(modulus)).astype(np.int64)


def counter_bernoulli_draw(mu, start, count, site_indices=None):
    """`BernoulliMeasure.draw_values` as first written."""
    sel = mu._site_selection(site_indices)
    n = mu.window.n_sites
    if mu.is_uniform:
        codes = counter_grid(mu._rng, start, count, n, sel, modulus=mu.module.size)
    else:
        codes = counter_grid(mu._rng, start, count, n, sel, thresholds=mu._thresholds)
    return mu.module.unpack_arr(codes)


def counter_haar_draw(mu, start, count, site_indices=None):
    """`SubgroupHaarMeasure.draw_values` as first written: coefficients at
    counters (start + i) * dim + row for the rows that touch the selection."""
    from modshift.measures import _site_columns

    rank = mu.module.rank
    sel = mu._site_selection(site_indices)
    cols = _site_columns(sel, rank)
    comp_vals = []
    for si, span in enumerate(mu.spans):
        basis = span.basis[:, cols]
        rows = np.flatnonzero(basis.any(axis=1))
        coefs = counter_grid(mu._rng[si], start, count, span.dim, rows, modulus=span.ring.size)
        comp_vals.append(span.ring.lincomb(coefs, basis[rows]))
    merged = mu.decomposition.merge_arrays(comp_vals).reshape(count, sel.size, rank)
    return mu.module.ring.add_arr(merged, mu.rep_codes[sel])


def counter_word_draw(mu, start, count, site_indices=None):
    """`ExactWordMeasure.draw_values` as first written."""
    sel = mu._site_selection(site_indices)
    idx = counter_uniform_from_cdf(mu._rng, start, (count,), mu._thresholds)
    return mu._word_array[idx][:, sel, :]


# -- Monte Carlo statistics over the whole draw ------------------------------------


def whole_draw_fourier(mu, chi, budget, start=0):
    """Sampled `fourier` as first written: every draw at once, then the means."""
    import math

    from modshift.measures import FourierResult, _character_indices, _character_rows

    sites, codes = _character_rows([chi], mu.module.rank)
    idx = _character_indices(mu.window, sites, codes)
    n = budget
    if sites:
        exps = chi.exponents_of_values(mu.draw_values(start, n, idx))
    else:
        exps = np.zeros(n, dtype=np.int64)
    angles = 2.0 * np.pi * exps.astype(np.float64) / chi.order
    value = complex(np.mean(np.cos(angles)), np.mean(np.sin(angles)))
    return FourierResult(chi, value, 1.0 / math.sqrt(n))


def _merge_pins(pin_dicts):
    """Union of pin dicts; None signals a conflicting (empty) intersection."""
    merged = {}
    for pins in pin_dicts:
        for site, val in pins.items():
            if site in merged and merged[site] != val:
                return None
            merged[site] = val
    return merged


def _pins_from_word(word, offset=None, n: int = 0):
    """The word's values pinned on its window translated by n * offset."""
    from modshift.lattice import scaled_offset

    axes = word.window.axes
    v = scaled_offset(offset, n, axes) if offset is not None else (0,) * axes
    sites = (tuple(s + x for s, x in zip(site, v)) for site in word.window.sites())
    return dict(zip(sites, map(tuple, word.flat().tolist())))


def pinned_mixing_statistic(mu, pairs, n, budget="exact"):
    """`mixing_statistic` from pin dicts, as first written: the marginals pin
    the untranslated words, the joint event merges the translated words' pins
    and a clash is the empty event.  A sampled budget goes to
    `whole_draw_mixing` once the pins are checked."""
    from modshift.errors import InvalidParameterError
    from modshift.measures import MixingResult, _pin_arrays

    if n < 0:
        raise InvalidParameterError(f"n must be >= 0, got {n}")
    marg_pins, trans_pins = [], []
    for h, word in pairs:
        mu.module.check_same(word.module)
        marg_pins.append(_pins_from_word(word))
        trans_pins.append(_pins_from_word(word, h, n))
    for pins in marg_pins:
        _pin_arrays(mu.window, mu.module, pins)
    for pins in trans_pins:
        mu.window.flat_indices(list(pins))
    if budget != "exact":
        return whole_draw_mixing(mu, pairs, n, budget)
    joint = _merge_pins(trans_pins)
    observed = mu.cylinder_probability(joint) if joint is not None else Fraction(0)
    product = Fraction(1)
    for pins in marg_pins:
        product *= mu.cylinder_probability(pins)
    dev = observed - product
    return MixingResult(n, float(observed), float(product), float(dev), 0.0, True, observed, product)


def pinned_topological_check(spec, pairs, n):
    """`topological_mixing_check` of a rank-1 kernel from pin dicts: the
    translated words' pins merged (the first pin that clashes raises), then
    whether some word of `brute_kernel_words` on the pins' bounding box holds
    every pin."""
    from modshift.errors import InfeasiblePinError, InvalidParameterError
    from modshift.kernels import kernel_membership
    from modshift.lattice import WindowSpec

    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    trans_pins = []
    for h, word in pairs:
        spec.module.check_same(word.module)
        trans_pins.append(_pins_from_word(word, h, n))
        if not kernel_membership(spec, word):
            raise InvalidParameterError("pinned word is not in the window kernel")
    if not trans_pins:
        return True
    merged = _merge_pins(trans_pins)
    if merged is None:
        held = {}
        for site, val in (pin for pins in trans_pins for pin in pins.items()):
            if held.setdefault(site, val) != val:
                raise InfeasiblePinError(f"site {site} pinned to both {held[site]} and {val}")
    lo = [min(site[i] for site in merged) for i in range(sum(spec.dims))]
    hi = [max(site[i] for site in merged) for i in range(sum(spec.dims))]
    box = WindowSpec(spec.dims, tuple(lo), tuple(h - l + 1 for l, h in zip(lo, hi)))
    where = {site: i for i, site in enumerate(box.sites())}
    return any(
        all(word[where[site]] == val[0] for site, val in merged.items())
        for word in brute_kernel_words(spec, box)
    )


def solved_topological_check(spec, pairs, n):
    """`topological_mixing_check` as it was before it read the kernel's Haar
    measure: the constraints on the pins' bounding box are solved with the
    pins fixed, once per field component and module component, by
    `solve_affine`."""
    from modshift import linalg
    from modshift.errors import InfeasiblePinError, InvalidParameterError
    from modshift.kernels import _field_components, constraint_matrix, kernel_membership
    from modshift.lattice import WindowSpec, pin_union, scaled_offset

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
    values = np.array(list(pins.values()), dtype=np.int64)
    lo, hi = sites.min(axis=0), sites.max(axis=0)
    box = WindowSpec(spec.dims, tuple(lo.tolist()), tuple((hi - lo + 1).tolist()))
    pin_cols = box.flat_indices(sites)
    free = np.ones(box.n_sites, dtype=bool)
    free[pin_cols] = False
    for comp_spec, comp_ring, deco, j in _field_components(spec):
        matrix = constraint_matrix(comp_spec, box)
        if matrix.shape[0] == 0:
            continue
        for c in range(spec.module.rank):
            targets = deco.forward_table[values[:, c], j]
            pinned_part = matrix[:, pin_cols]
            rhs = comp_ring.neg_arr(comp_ring.lincomb(pinned_part, targets[:, None])[:, 0])
            solution, _ = linalg.solve_affine(matrix[:, free], rhs, comp_ring)
            if solution is None:
                return False
    return True


def whole_draw_mixing(mu, pairs, n, budget, start=0):
    """Sampled `mixing_statistic` as first written: every draw at once, then
    one `np.mean` of booleans per event."""
    import math

    from modshift.measures import MixingResult, _pin_arrays

    marg_arrays = [_pin_arrays(mu.window, mu.module, _pins_from_word(w)) for _, w in pairs]
    joint = _merge_pins([_pins_from_word(w, h, n) for h, w in pairs])
    count = budget
    joint_arrays = [] if joint is None else [_pin_arrays(mu.window, mu.module, joint)]
    sel = np.unique(np.concatenate([idx for idx, _ in marg_arrays + joint_arrays]))
    draws = mu.draw_values(start, count, sel)

    def frequency(idx, vals):
        return float(np.mean((draws[:, np.searchsorted(sel, idx)] == vals).all(axis=(1, 2))))

    obs_hat = frequency(*joint_arrays[0]) if joint_arrays else 0.0
    marg_hats = [frequency(idx, vals) for idx, vals in marg_arrays]
    product_hat = float(np.prod(marg_hats))
    var = obs_hat * (1.0 - obs_hat) / count
    for ph in marg_hats:
        others = product_hat / ph if ph > 0 else 0.0
        var += (others**2) * ph * (1.0 - ph) / count
    return MixingResult(n, obs_hat, product_hat, obs_hat - product_hat, math.sqrt(var), False)


def whole_draw_entropy(mu, block, n_samples, start=0):
    """Sampled `block_entropy` as first written: every draw at once, then the
    counts of `np.unique` over the rows."""
    sel = mu.window.flat_indices(block.sites())
    n = n_samples
    flat = mu.draw_values(start, n, sel).reshape(n, -1)
    _, counts = np.unique(flat, axis=0, return_counts=True)
    freqs = counts.astype(np.float64) / float(n)
    return float(-(freqs * np.log2(freqs)).sum()) / len(sel)


def batched_conjugacy(rule, deco, trials, torus_extents, seed):
    """`crt.conjugacy_check` as first written, in hand-made batches of about
    2**16 cells: (ok, first counterexample or None)."""
    from modshift.crt import component_rule
    from modshift.errors import DRAW_CAP, DrawLimitError
    from modshift.lattice import WindowSpec
    from modshift.rng import CounterRng
    from modshift.shiftpoly import from_rule, stencil

    module = rule.module
    window = WindowSpec(rule.dims, (0,) * len(torus_extents), tuple(torus_extents))
    poly = from_rule(rule)
    comp_polys = [from_rule(component_rule(rule, deco, j)) for j in range(deco.n_components)]
    rng = CounterRng(seed, stream=57)
    cells = window.n_sites * module.rank
    if trials * cells > DRAW_CAP:
        raise DrawLimitError(f"draw of {trials} x {cells} cells exceeds the draw cap {DRAW_CAP}",
                             required=trials * cells)
    batch = max(1, (1 << 16) // cells)
    for first in range(0, trials, batch):
        shape = (min(batch, trials - first),) + window.extents + (module.rank,)
        block = rng.uniform_codes(first * cells, shape, module.ring.size)
        _, image = stencil(poly.terms, block, window, "torus", module.ring)
        mismatches = []
        for j, comp_poly in enumerate(comp_polys):
            column = deco.forward_table[:, j]
            _, direct = stencil(comp_poly.terms, column[block], window, "torus", deco.component_rings[j])
            mismatches.append(direct != column[image])
        bad = np.stack([m.reshape(len(block), -1).any(axis=1) for m in mismatches], axis=1)
        if bad.any():
            trial, j = (int(x) for x in np.argwhere(bad)[0])
            site = tuple(int(x) for x in np.argwhere(mismatches[j][trial])[0][:-1])
            return False, {"trial": first + trial, "component": j, "site": site}
    return True, None


# -- box products and generic weighted sums --------------------------------------------


def box_poly_mul(a, b):
    """`poly_mul` as first written: every product convolves dense coefficient boxes."""
    from modshift.shiftpoly import ShiftPolynomial

    if a.is_zero or b.is_zero:
        return ShiftPolynomial.from_terms(a.ring, a.dims, {})
    boxes = []
    for poly in (a, b):
        offs = np.array([off for off, _ in poly.terms], dtype=np.int64)
        lo = offs.min(axis=0)
        box = np.zeros(tuple((offs.max(axis=0) - lo + 1).tolist()), dtype=np.int64)
        box[tuple((offs - lo).T)] = [c for _, c in poly.terms]
        boxes.append((box, lo))
    (box_a, lo_a), (box_b, lo_b) = boxes
    box_c = a.ring.convolve_codes(box_a, box_b)
    nz = np.argwhere(box_c)
    offs = (nz + lo_a + lo_b).tolist()
    return ShiftPolynomial(a.ring, a.dims, tuple(zip(map(tuple, offs), box_c[tuple(nz.T)].tolist())))


def generic_weighted_sum(ring, coeffs, arrays):
    """sum_i coeffs[i] * arrays[i] through `mul_arr` and `add_arr`, reduced after
    every multiply and add, in int64."""
    out = None
    for c, a in zip(coeffs, arrays):
        term = ring.mul_arr(np.int64(c), a)
        out = term if out is None else ring.add_arr(out, term)
    return out


# -- images of measures, one branch per handle kind -------------------------------------


def per_component_haar_pushforward(mu, rule, t):
    """The Haar branch of `pushforward` as first written: (out window, component bases,
    representative codes), with the rule powered once per field component.  A coefficient
    that vanishes in a component raises, as `crt.component_rule` does."""
    from modshift.crt import component_rule
    from modshift.measures import _echelonize, _power_poly
    from modshift.shiftpoly import stencil

    deco, rank = mu.decomposition, mu.module.rank
    bases, reps = [], []
    for si, (span, rep) in enumerate(zip(mu.spans, deco.split_arrays(mu.rep_codes))):
        poly = _power_poly(component_rule(rule, deco, si), t)
        rows = np.concatenate([span.basis, rep.reshape(1, -1)])
        vals = rows.reshape((span.dim + 1,) + mu.window.extents + (rank,))
        out_window, out_vals = stencil(poly.terms, vals, mu.window, "exact", span.ring)
        nvars = out_window.n_sites * rank
        out = out_vals.reshape(span.dim + 1, nvars)
        bases.append(_echelonize(span.ring, out[:-1], nvars))
        reps.append(out[-1])
    return out_window, bases, deco.merge_arrays(reps)


def branch_pushforward(mu, rule, t, limit):
    """The enumerated and sampled branches of `pushforward` as first written, for a handle
    that is not an exact Haar one: an `ExactWordMeasure` of the pushed words, or a
    `TransformedMeasure` whose window comes from a one-draw zero probe."""
    from modshift.measures import ExactWordMeasure, TransformedMeasure, _power_poly
    from modshift.errors import ResourceLimitError
    from modshift.shiftpoly import stencil

    note = f"pushforward by {rule.offsets}/{rule.coeffs}, t={t}"
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
            pushed = [(out.reshape(-1, mu.module.rank), p) for out, (_, p) in zip(out_vals, words)]
            return ExactWordMeasure(mu.module, out_window, pushed, seed=mu.seed, mode=mu.mode,
                                    label=mu.label, provenance=mu.derived(note))

    def transform(batch):
        _, out = stencil(poly.terms, batch, mu.window, mu.mode, rule.ring)
        return out

    if mu.mode == "torus":
        out_window = mu.window
    else:
        probe = np.zeros((1,) + mu.window.extents + (mu.module.rank,), dtype=np.int64)
        out_window, _ = stencil(poly.terms, probe, mu.window, "exact", rule.ring)
    return TransformedMeasure(mu, transform, out_window, mu.module, label=f"{mu.label}->t{t}",
                              provenance=mu.derived(note))


def branch_projection(mu, deco, j):
    """The word-list and sampled branches of `crt.project_measure` as first written: every
    word of an `ExactWordMeasure` mapped through the component table, whatever the count,
    and a `TransformedMeasure` of the table for anything else."""
    from modshift.measures import ExactWordMeasure, TransformedMeasure
    from modshift.rings import ModuleSpec

    ring_j = deco.component_rings[j]
    module_j = ModuleSpec(ring_j, mu.module.rank)
    note = f"crt projection to component {j} ({ring_j.descriptor()})"
    label = f"{mu.label}|p{ring_j.characteristic}"
    if isinstance(mu, ExactWordMeasure):
        words = [(deco.forward_table[:, j][vals], p) for vals, p in mu.words]
        return ExactWordMeasure(module_j, mu.window, words, seed=mu.seed, mode=mu.mode,
                                label=label, provenance=mu.derived(note))

    def transform(batch):
        return deco.forward_table[:, j][batch]

    return TransformedMeasure(mu, transform, mu.window, module_j, label=label,
                              provenance=mu.derived(note))
