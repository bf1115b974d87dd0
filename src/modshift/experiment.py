"""Config-driven experiment runner with deterministic reports.

Experiment files are flat key = value sections (no scripting): an
``[experiment]`` header followed by ``[step <name>]`` sections, each with a
``kind`` from `STEP_KINDS`.  That table declares every key of every kind, and
`parse_experiment` converts and checks each step against it before any step
runs, so a handler receives typed values.  Reports are byte-stable: identical
configs produce identical report bytes regardless of worker count, with wall
clock metadata segregated into a sidecar file.
"""

from __future__ import annotations

import configparser
import csv
import functools
import io
import itertools
import json
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import filterfalse
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

import numpy as np

from .errors import ENUMERATION_CAP, ConfigParseError, DrawLimitError, InvalidParameterError
from .errors import ModshiftError, ResourceLimitError
from .kernels import (KernelShiftSpec, coset_shift_check, extension_certificate,
                      invariance_and_surjectivity_check, kernel_membership,
                      submodule_condition_check, torsion_free_check, window_kernel)
from .lattice import WindowSpec, checkerboard_config, constant_config
from .measures import (FourierTable, SubgroupHaarMeasure, _checked_criterion, _positive_integer,
                       block_entropy, coset_haar, fourier_sweep, haar_criterion, kernel_haar,
                       mixing_statistic, pushforward, uniform_bernoulli)
from .rings import ModuleSpec, make_ring, recurrent_power_sums
from .rng import CounterRng
from .shiftpoly import TorusStencil, frobenius_power, from_rule, parse_rule, poly_pow, stencil
from . import crt as crt_mod

__all__ = ["ExperimentConfig", "parse_experiment", "run_experiment", "write_report", "run_file",
           "bundled_config_path", "REPORT_SCHEMA"]

REPORT_SCHEMA = "modshift-report-v1"
FORCED_SWEEP_CAP = 1 << 24  # a haar-sweep's character cap under --force
_REQUIRED = object()


class _Type(NamedTuple):
    """A converter from a key's text, with the name README's table of step keys gives it."""
    name: str
    convert: Callable


class _Key(NamedTuple):
    """A key's type, the text an absent key reads as (None: unset) and its bound, which is
    called as ``bound(value, step=<the keys declared before it>)`` and raises outside it."""
    type: _Type
    default: object = _REQUIRED
    bound: Callable = None


class _Section(dict):
    """The key = value texts of one config section, or the given flags (`prefix` ``--``) of one
    CLI verb.  `value` is the one place a text becomes a typed value: a missing required key,
    a value that does not convert and one out of its bound raise `ConfigParseError` naming
    the section and the key."""

    def __init__(self, name: str, items, prefix: str = ""):
        super().__init__(items)
        self.name, self.prefix = name, prefix

    def __missing__(self, key):
        raise ConfigParseError(f"[{self.name}] missing required key {key!r}")

    def value(self, key: str, type_: _Type, default=_REQUIRED, bound=None):
        """The typed value of `key`, checked by ``bound(value)``; None when unset."""
        key = self.prefix + key
        text = self[key] if default is _REQUIRED else self.get(key, default)
        if text is None:
            return None
        try:
            value = type_.convert(text)
            if bound is not None:
                bound(value)
            return value
        except (ValueError, ModshiftError) as exc:
            # A package check says why; a bare ValueError (int("x")) would only repeat the text.
            why = f" ({exc})" if isinstance(exc, ModshiftError) else ""
            raise ConfigParseError(f"[{self.name}] bad value for {key!r}: {text!r}{why}") from None

    def typed(self, keys: dict) -> dict:
        """The typed value of every key of `keys`, in their order."""
        step = {}
        for key, (type_, default, bound) in keys.items():
            step[key] = self.value(key, type_, default, bound and functools.partial(bound, step=step))
        return step


def _ints(text: str):
    values = [int(tok) for tok in text.replace(",", " ").split()]
    if not values:  # an empty list would let a check pass over nothing
        raise ValueError(text)
    return values


def _exact_or_int(text: str):
    return "exact" if text == "exact" else int(text)


def _offsets(text: str):
    pieces = (piece.strip().strip("()").strip() for piece in text.split(";"))
    offsets = [tuple(_ints(piece)) for piece in pieces if piece]
    if not offsets:
        raise ValueError(text)
    return offsets


def _dims(text: str):
    d, e = _ints(text)[:2]  # (D, E) from the first two integers
    return d, e


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


def _bools(text: str):
    first, second = map(_bool, text.split())
    return first, second


def _pattern(text: str):
    """The builder ``(module, window, mode=...) -> WindowConfig`` a pattern names."""
    if text == "checkerboard":
        return checkerboard_config
    if text.startswith("constant:"):
        try:
            return functools.partial(constant_config, element=int(text[len("constant:"):]))
        except ValueError:
            raise InvalidParameterError(f"bad constant pattern {text!r}") from None
    raise InvalidParameterError(f"unknown pattern {text!r}")


def _closest(word: str, known) -> str:
    import difflib  # only a refusal needs it
    close = difflib.get_close_matches(word, sorted(known), n=1)
    return f"; closest: {close[0]!r}" if close else ""


def _choice(what: str, names):
    def convert(text: str) -> str:
        if text not in names:
            raise InvalidParameterError(f"unknown {what}{_closest(text, names)}")
        return text
    return convert


def _positive(value, step=None):
    for n in value if isinstance(value, list) else [value]:
        if n < 1:
            raise InvalidParameterError(f"{n} is not positive")


def _draw_count(name: str):  # a count of draws, checked as the measures check it
    return lambda value, step: value == "exact" or _positive_integer(value, name)


def _kernel_codes(gens, step):
    for g in gens:
        step["kernel"].ring.element_code(g, "generator")


_INT = _Type("int", int)
_FLOAT = _Type("float", float)
_INTS = _Type("ints", _ints)
_EXACT = _Type("exact or int", _exact_or_int)
_OFFSETS = _Type("offsets", _offsets)
_DIMS = _Type("D E", _dims)
_BOOL = _Type("true or false", _bool)
_BOOLS = _Type("two true or false", _bools)
_RING = _Type("ring", make_ring)
_RULE = _Type("rule", parse_rule)
_KERNEL = _Type("kernel rule", lambda text: KernelShiftSpec(parse_rule(text, expect_prefix="kernel")))
_PATTERN = _Type("pattern", _pattern)


def _window_keys(prefix: str = "", extents=_REQUIRED) -> dict:
    """The extents and origin keys of one window; an unset origin is all zeros, or the
    measure window's origin for a window inside it (`_inner_window`)."""
    return {prefix + "extents": _Key(_INTS, extents, _positive), prefix + "origin": _Key(_INTS, None)}


def _window(dims, extents, origin=None) -> WindowSpec:
    return WindowSpec(dims, tuple((0,) * len(extents) if origin is None else origin), tuple(extents))


def _inner_window(mu, extents, origin=None) -> WindowSpec:
    """A window (a sweep, a block, a word) on `mu`'s dims; an unset origin is `mu.window`'s."""
    return _window(mu.window.dims, extents, mu.window.origin if origin is None else origin)


def _word(mu, value: int, origin=None):
    """The one-site word of a mixing event: `value` on every component, at `origin`."""
    return constant_config(mu.module, _inner_window(mu, (1,) * mu.window.axes, origin), value)


# The keys each measure reads, after a measure step's `measure` key.
_MEASURES = {
    "uniform": {"ring": _Key(_RING), "rank": _Key(_INT, "1", _positive), "dims": _Key(_DIMS, "1 0")},
    "kernel": {"kernel": _Key(_KERNEL)},
    "coset": {"kernel": _Key(_KERNEL), "pattern": _Key(_PATTERN)},
}
_MEASURE_KEYS = {key for keys in _MEASURES.values() for key in keys}
_MEASURE = {"measure": _Key(_Type("measure", _choice("measure", _MEASURES)), "uniform"),
            **_window_keys()}


def _step_measure(step, seed):
    """The measure handle of a step that reads the `_MEASURE` keys."""
    if step["measure"] == "uniform":
        window = _window(step["dims"], step["extents"], step["origin"])
        return uniform_bernoulli(ModuleSpec(step["ring"], step["rank"]), window, seed=seed)
    spec = step["kernel"]
    window = _window(spec.dims, step["extents"], step["origin"])
    if step["measure"] == "kernel":
        return kernel_haar(spec, window, seed=seed)
    return coset_haar(step["pattern"](spec.module, window, mode="exact"), spec, seed=seed)


def frobenius_check(rule, k: int, torus, configs: int, seed: int, start: int = 0) -> dict:
    """Check the p**k fast-forward of a rule, structurally and on random tori.

    `structural` compares frobenius_power with poly_pow(f, p**k).  When
    `torus` extents are given, `applied` compares the fast apply with p**k
    naive applications on `configs` uniform configurations drawn from stream
    71 of `seed` at counter `start`, all configurations in one batch.
    """
    p = rule.ring.characteristic
    f = from_rule(rule)
    frob = frobenius_power(rule, k)
    power = poly_pow(f, p**k)
    structural = frob == power
    applied = True
    if torus:
        window = WindowSpec(rule.dims, (0,) * len(torus), tuple(torus))
        shape = (configs,) + window.extents + (rule.module.rank,)
        draws = CounterRng(seed, stream=71).uniform_codes(start, shape, rule.ring.size)
        naive = TorusStencil(f.terms, window, rule.ring, shape).apply(draws, p**k)
        _, fast = stencil(frob.terms, draws, window, "torus", rule.ring)
        applied = bool(np.array_equal(fast, naive))
        if not structural:
            _, by_power = stencil(power.terms, draws, window, "torus", rule.ring)
            applied = applied and bool(np.array_equal(by_power, naive))
    return {"k": k, "structural": structural, "applied": applied}


def _step_frobenius_check(step, seed):
    rule = step["rule"]
    torus = step["torus"] or [32] * (rule.dims[0] + rule.dims[1])
    checks = [
        frobenius_check(rule, k, torus, step["configs"], seed, start=k * 10_000_000)
        for k in step["ks"]
    ]
    return {"pass": all(c["structural"] and c["applied"] for c in checks), "checks": checks}


def _step_fixed_point(step, seed):
    rule, torus = step["rule"], step["torus"]
    cfg = step["pattern"](rule.module, _window(rule.dims, torus), mode="torus")
    return {"pass": rule.apply(cfg) == cfg, "torus": torus}


def _step_coset_check(step, seed):
    spec = step["kernel"]
    cfg = step["pattern"](spec.module, _window(spec.dims, step["extents"], step["origin"]), mode="exact")
    result = coset_shift_check(cfg, spec)
    member = kernel_membership(spec, cfg)
    ok = result == step["expected"] and step["expected-member"] in (None, member)  # None: unchecked
    return {"pass": ok, "coset_shift": result, "kernel_member": member}


def _step_kernel_count(step, seed):
    spec = step["kernel"]
    window = _window(spec.dims, step["extents"], step["origin"])
    basis = window_kernel(spec, window)
    count, expected = basis.solution_count, step["expected"]
    out = {"pass": count == expected, "count": count, "expected": expected}
    if step["submodule-gens"]:
        out["submodule_condition"] = submodule_condition_check(basis, step["submodule-gens"])
        out["pass"] = out["pass"] and out["submodule_condition"]
    if step["extension-check"]:
        out["extension_certificate"] = extension_certificate(spec, window)
        out["pass"] = out["pass"] and out["extension_certificate"]
    return out


def _step_recurrent_sums(step, seed):
    rule = step["rule"]
    values, expected = recurrent_power_sums(rule.ring, rule.coeffs), set(step["expected"])
    return {"pass": set(values) == expected, "values": sorted(values), "expected": sorted(expected)}


def _step_torsion_check(step, seed):
    spec, scalar = step["kernel"], step["scalar"]
    result = torsion_free_check(spec, _window(spec.dims, step["extents"], step["origin"]), scalar)
    return {"pass": result == step["expected"], "torsion_free": result, "scalar": scalar}


def _step_invariance_check(step, seed):
    spec = step["kernel"]
    window = _window(spec.dims, step["extents"], step["origin"])
    inv, surj = invariance_and_surjectivity_check(step["rule"], spec, window)
    want_inv, want_surj = step["expected"]
    return {"pass": inv == want_inv and surj == want_surj, "invariant": inv, "surjective": surj}


def _step_haar_sweep(step, seed):
    mu = _step_measure(step, seed)
    sweep_window = mu.window
    if step["sweep-extents"] is not None:
        sweep_window = _inner_window(mu, step["sweep-extents"], step["sweep-origin"])
    limit = FORCED_SWEEP_CAP if step.get("--force") else ENUMERATION_CAP
    sweep = fourier_sweep(mu, sweep_window, limit=limit)
    verdict = haar_criterion(sweep, criterion=step["criterion"])
    out = {"pass": verdict.consistent, "criterion": step["criterion"], "n_characters": len(sweep),
           "violations": verdict.violations, "fourier_table": sweep.table(t=0)}
    if step["expect-nonunit-phase"]:
        nonunit = any(rs.modulus_is_one() and not rs.is_one() for rs in sweep.root_sums)
        out["nonunit_phase"] = nonunit
        out["pass"] = out["pass"] and nonunit
    return out


def _step_mixing(step, seed):
    mu = _step_measure(step, seed)
    word = _word(mu, step["word-value"], step["word-origin"])
    pairs = [(h, word) for h in step["offsets"]]
    schedule, budget, tol = step["n-schedule"], step["budget"], step["tolerance"]
    rows, ok, prev = [], True, None
    for n in schedule:
        res = mixing_statistic(mu, pairs, n, budget=budget)
        rows.append(res.row())
        slack = tol if res.exact else max(tol, 4.0 * res.stderr)
        if n == schedule[-1] and abs(res.deviation) > slack:
            ok = False
        if res.exact and prev is not None and abs(res.deviation) > abs(prev) + tol:
            ok = False
        if res.exact:
            prev = res.deviation
    return {"pass": ok, "mixing_table": rows, "budget": str(budget)}


def _step_entropy(step, seed):
    mu = _step_measure(step, seed)
    block = _inner_window(mu, step["block-extents"], step["block-origin"])
    samples = step["samples"]
    h = block_entropy(mu, block, None if samples == "exact" else samples)
    expected, tol = step["expected"], step["tolerance"]
    return {"pass": abs(h - expected) <= tol, "bits_per_site": h, "expected": expected,
            "tolerance": tol}


def _step_crt_check(step, seed):
    ring = step["ring"]
    deco = crt_mod.decompose_ring(ring)
    inverse_ok, add_ok, _ = crt_mod.component_map_verdicts(deco, ring.size)
    bijective, hom = bool(inverse_ok.all()), bool(add_ok.all())
    out = {"pass": bijective and hom, "components": [r.descriptor() for r in deco.component_rings],
           "bijective": bijective, "additive_hom": hom}
    if step["rule"] is not None:
        res = crt_mod.conjugacy_check(step["rule"], deco, trials=step["trials"],
                                      torus_extents=tuple(step["torus"]), seed=seed)
        out["conjugacy"] = res.ok
        out["pass"] = out["pass"] and res.ok
    return out


def _step_pushforward_invariance(step, seed):
    rule = step["rule"]
    module = rule.module
    src_window = _window(rule.dims, step["extents"], step["origin"])
    target = _window(rule.dims, step["target-extents"], step["target-origin"])
    # A Haar handle, so every pushforward (t = 0 too) has an exact marginal.
    uni = SubgroupHaarMeasure.full_space(module, src_window, seed=seed)
    pushed = pushforward(uni, rule, step["t"])
    if not pushed.window.contains_window(target):
        raise InvalidParameterError("pushforward window does not cover the target window")
    got = pushed.marginal(target)
    want = SubgroupHaarMeasure.full_space(module, target, seed=seed)
    return {"pass": got.same_distribution(want), "target": str(target)}


class _Kind(NamedTuple):
    handler: Callable  # (typed step, seed) -> the step's record
    keys: dict  # key -> _Key, besides `kind`


STEP_KINDS = {
    "frobenius-check": _Kind(_step_frobenius_check, {
        "rule": _Key(_RULE), "ks": _Key(_INTS, "1 2"), "torus": _Key(_INTS, None, _positive),
        "configs": _Key(_INT, "3", _positive)}),
    "fixed-point": _Kind(_step_fixed_point, {
        "rule": _Key(_RULE), "torus": _Key(_INTS, bound=_positive), "pattern": _Key(_PATTERN)}),
    "coset-check": _Kind(_step_coset_check, {
        "kernel": _Key(_KERNEL), **_window_keys(), "pattern": _Key(_PATTERN),
        "expected": _Key(_BOOL, "true"), "expected-member": _Key(_BOOL, None)}),
    "kernel-count": _Kind(_step_kernel_count, {
        "kernel": _Key(_KERNEL), **_window_keys(), "expected": _Key(_INT),
        "submodule-gens": _Key(_INTS, None, _kernel_codes), "extension-check": _Key(_BOOL, "false")}),
    "recurrent-sums": _Kind(_step_recurrent_sums, {"rule": _Key(_RULE), "expected": _Key(_INTS)}),
    "torsion-check": _Kind(_step_torsion_check, {
        "kernel": _Key(_KERNEL), **_window_keys(), "scalar": _Key(_INT), "expected": _Key(_BOOL)}),
    "invariance-check": _Kind(_step_invariance_check, {
        "rule": _Key(_RULE), "kernel": _Key(_KERNEL), **_window_keys(),
        "expected": _Key(_BOOLS, "true true")}),
    "haar-sweep": _Kind(_step_haar_sweep, {
        **_MEASURE, **_window_keys("sweep-", None),
        "criterion": _Key(_Type("subgroup or coset", _checked_criterion), "subgroup"),
        "expect-nonunit-phase": _Key(_BOOL, "false")}),
    "mixing": _Kind(_step_mixing, {
        **_MEASURE, "offsets": _Key(_OFFSETS), "word-origin": _Key(_INTS, None),
        "word-value": _Key(_INT, "0"), "n-schedule": _Key(_INTS, "1 2 4 8 16"),
        "budget": _Key(_EXACT, "exact", _draw_count("sample budget")),
        "tolerance": _Key(_FLOAT, "1e-9")}),
    "entropy": _Kind(_step_entropy, {
        **_MEASURE, **_window_keys("block-"), "samples": _Key(_EXACT, "exact", _draw_count("n_samples")),
        "expected": _Key(_FLOAT), "tolerance": _Key(_FLOAT, "0.02")}),
    "crt-check": _Kind(_step_crt_check, {
        "ring": _Key(_RING), "rule": _Key(_RULE, None), "trials": _Key(_INT, "100", _positive),
        "torus": _Key(_INTS, "32", _positive)}),
    "pushforward-invariance": _Kind(_step_pushforward_invariance, {
        "rule": _Key(_RULE), **_window_keys(), **_window_keys("target-"), "t": _Key(_INT, "1")}),
}
_KIND = _Key(_Type("kind", _choice("kind", STEP_KINDS)))
_HEAD = {"name": _Key(_Type("text", str), "experiment"), "seed": _Key(_INT)}


@dataclass
class ExperimentConfig:
    name: str
    seed: int
    steps: list  # of (name, {key: typed value}), `kind` first
    raw_text: str


def _checked(section: _Section, keys: dict) -> dict:
    """`section.typed(keys)` once every key of `section` is one of `keys` or of its measure's."""
    measure = None
    if "measure" in keys:
        measure = section.value("measure", *keys["measure"][:2])
        keys = {**keys, **_MEASURES[measure]}
    for key in section:
        if key in keys:
            continue
        if measure is not None and key in _MEASURE_KEYS:
            raise ConfigParseError(f"[{section.name}] measure {measure!r} does not read {key!r}")
        raise ConfigParseError(f"[{section.name}] unknown key {key!r}{_closest(key, keys)}")
    return section.typed(keys)


def parse_experiment(text: str) -> ExperimentConfig:
    """The header and each step's typed values; any step that breaks `STEP_KINDS` raises here."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigParseError(f"experiment config: {exc}") from None
    if "experiment" not in parser:
        raise ConfigParseError("missing [experiment] section", line=1)
    head = _checked(_Section("experiment", parser["experiment"]), _HEAD)
    steps = {}
    for section in parser.sections():
        if section == "experiment":
            continue
        if not section.startswith("step "):
            raise ConfigParseError(f"unknown section [{section}]")
        # Step names key the report's steps, its CSV rows and the failure list.
        name = section[5:].strip()
        if not name or name in steps:
            raise ConfigParseError(f"[{section}] needs a step name no other step has")
        step = _Section(f"step {name}", parser[section])
        steps[name] = _checked(step, {"kind": _KIND, **STEP_KINDS[step.value("kind", _KIND.type)].keys})
    return ExperimentConfig(head["name"], head["seed"], list(steps.items()), text)


def _run_step(name, params, seed):
    """The record of one step; a `ModshiftError` it raises makes it a failed step."""
    kind = params["kind"]
    try:
        result = STEP_KINDS[kind].handler(params, seed)
    except ModshiftError as exc:
        if isinstance(exc, ResourceLimitError):
            plain = isinstance(exc, DrawLimitError) or params.get("--force")
            error = f"resource limit: {exc}" + ("" if plain else " (use --force to raise caps)")
        else:
            error = f"{type(exc).__name__}: {exc}"
        return {"name": name, "kind": kind, "pass": False, "error": error}
    result.update({"name": name, "kind": kind})
    return result


def run_experiment(config: ExperimentConfig, workers: int = 1) -> dict:
    """Execute all steps; the report is independent of the worker count."""
    if workers < 1:
        raise InvalidParameterError("workers must be >= 1")
    jobs = [(name, params, config.seed) for name, params in config.steps]
    if workers == 1:
        results = [_run_step(*job) for job in jobs]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a worker pool needs it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_step, *job) for job in jobs]
            results = [f.result() for f in futures]
    n_pass = sum(1 for r in results if r.get("pass"))
    return {
        "schema": REPORT_SCHEMA,
        "experiment": config.name,
        "seed": config.seed,
        "steps": results,
        "summary": {"total": len(results), "passed": n_pass, "failed": len(results) - n_pass},
        "ok": n_pass == len(results),
    }



def _json_default(obj):
    if isinstance(obj, FourierTable):
        return list(obj)
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


# -- report writing ---------------------------------------------------------

_FOURIER_COLUMNS = ["step", "chi", "t", "re", "im", "modulus", "stderr", "exact"]
_MIXING_COLUMNS = ["step", "n", "observed", "product", "deviation", "stderr", "exact"]
_WRITE_CHUNK = 1 << 14  # table rows spliced into one bytes chunk per write
_dumps = functools.partial(json.dumps, sort_keys=True, indent=2, ensure_ascii=True,
                           default=_json_default)


def _report_chunks(report):
    """The bytes of `report_bytes` as chunks: json's text between tables, and each table's.

    json writes the report with each `FourierTable` as a quoted marker, a
    random token drawn again if the text holds it anywhere else; each marker
    is then replaced by its table.  ``indent=2`` puts every member on its own
    line, so the table's depth is its marker line's leading spaces over two.
    Everything but the table rows is encoded here; the rows are spliced as the
    chunks are read.
    """
    def default(obj):
        if isinstance(obj, FourierTable):
            tables.append(obj)
            return marker
        return _json_default(obj)

    while True:
        marker, tables = os.urandom(16).hex(), []
        between = _dumps(report, default=default).split(f'"{marker}"')
        if len(between) == len(tables) + 1:
            break
    chunks = [[between[0].encode("ascii")]]
    for before, table, after in zip(between, tables, between[1:]):
        line = before[before.rfind("\n") + 1:]
        chunks += [_table_json(table, (len(line) - len(line.lstrip(" "))) // 2), [after.encode("ascii")]]
    chunks.append([b"\n"])
    return itertools.chain.from_iterable(chunks)


def _spliced(labels, escaped, heads, head_ids, tails, tail_ids, escape):
    """Bytes chunks of `_WRITE_CHUNK` rows each: row r is ``heads[head_ids[r]]``, label r's
    pieces and ``tails[tail_ids[r]]``; a label marked in `escaped` is ``escape(text)``."""
    pieces, heads, tails = labels.pieces(), np.array(heads, dtype=object), np.array(tails, dtype=object)
    escaped = np.flatnonzero(escaped)
    for lo in range(0, len(labels), _WRITE_CHUNK):
        hi = min(lo + _WRITE_CHUNK, len(labels))
        parts = np.empty((hi - lo, labels.index.shape[1] + 2), dtype=object)
        parts[:, 0] = heads[head_ids[lo:hi]]
        parts[:, 1:-1] = pieces[labels.index[lo:hi]]
        parts[:, -1] = tails[tail_ids[lo:hi]]
        for r in escaped[(lo <= escaped) & (escaped < hi)].tolist():
            parts[r - lo, 1:-1] = b""
            parts[r - lo, 1] = escape(labels[r])
        yield b"".join(parts.ravel().tolist())


def _table_json(table: FourierTable, depth: int):
    """A table's row list at `depth`: each label's JSON string between its class's encoded head
    and tail."""
    if not len(table):
        return [b"[]"]
    row = "\n" + "  " * (depth + 1)
    chi = row + '  "chi": '
    heads, tails = [], []
    for template in table.templates:
        text = _dumps({"chi": "", **template, **table.extra}).replace("\n", row)
        head, tail = text.split(chi + '""')
        heads.append(("," + row + head + chi + '"').encode("ascii"))
        tails.append(('"' + tail).encode("ascii"))
    # The first row opens the list: its head is "[" where the others' is ",".
    heads.append(b"[" + heads[table.class_ids[0]][1:])
    head_ids = table.class_ids.copy()
    head_ids[0] = len(heads) - 1
    rows = _spliced(table.labels, _label_bits(table.labels) & _ESCAPED, heads, head_ids, tails,
                    table.class_ids, lambda text: encode_basestring_ascii(text)[1:-1].encode("ascii"))
    return itertools.chain(rows, [("\n" + "  " * depth + "]").encode("ascii")])


def report_bytes(report: dict) -> bytes:
    """``json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True)`` plus a newline.

    The bytes are exactly those of that call with ``default=_json_default``.
    json itself writes the report; each `FourierTable` in it is spliced in
    from one encoded fragment per class around its label bytes, so no row
    dict is built.
    """
    return b"".join(_report_chunks(report))


def _csv_fields(row: dict, columns) -> list:
    return [repr(row.get(c)) if isinstance(row.get(c), float) else row.get(c, "") for c in columns]


def _csv_line(fields) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


_QUOTED, _ESCAPED = 1, 2  # the bits of `_label_bits`


@functools.lru_cache(maxsize=None)
def _special_bytes() -> np.ndarray:
    """The bits of each byte: _QUOTED if `_csv_line` quotes a field for it, _ESCAPED if
    ``json.dumps(ensure_ascii=True)`` does not copy it into a string (a quote, a
    backslash, and every byte outside ' '..'~', so any UTF-8 byte that is not ASCII)."""
    out = np.zeros(256, dtype=np.uint8)
    out[[c for c in range(128) if _csv_line(["x", chr(c)]) != f"x,{chr(c)}\n"]] |= _QUOTED
    out[(np.arange(256) < 0x20) | (np.arange(256) > 0x7E)] |= _ESCAPED
    out[[ord('"'), ord("\\")]] |= _ESCAPED
    return out


def _label_bits(labels) -> np.ndarray:
    """The `_special_bytes` bits of each label of a `LabelBuffer`: decided once per piece,
    from its bytes, and a label has the bits of any of its pieces."""
    hits = _special_bytes()[np.frombuffer(labels.data, dtype=np.uint8)]
    bounds = labels.offsets
    piece_bits = np.zeros(len(bounds) - 1, dtype=np.uint8)
    for bit in (_QUOTED, _ESCAPED):
        seen = np.concatenate([[0], np.cumsum(hits & bit, dtype=np.int64)])
        piece_bits[seen[bounds[1:]] > seen[bounds[:-1]]] |= bit
    out = piece_bits.take(labels.index[:, 0])
    for column in labels.index.T[1:]:
        out |= piece_bits.take(column)
    return out


def _table_csv(step: str, table: FourierTable, columns):
    """The table's CSV rows: each label's field between its step's field and its class's fragment.

    A label's field is quoted, with its quotes doubled, iff its `_label_bits` say
    that the csv writer quotes it.  Text that is not ASCII raises
    `UnicodeEncodeError` here, before any row is spliced.
    """
    start = _csv_line([step, "x"])[:-2]  # the step's field and its comma
    # "x" is never quoted, so what follows it is the fragment with its leading comma.
    used = np.flatnonzero(np.bincount(table.class_ids, minlength=len(table.templates)))
    ends = {k: _csv_line(["x", *_csv_fields({**table.templates[k], **table.extra}, columns)])[1:]
            for k in used.tolist()}
    bits = _label_bits(table.labels)
    escaped = [table.labels[i] for i in np.flatnonzero(bits & _ESCAPED).tolist()]
    for text in filterfalse(str.isascii, [start, *ends.values(), *escaped]):
        text.encode("ascii")
    heads = [start.encode("ascii"), (start + '"').encode("ascii")]
    tails = [b""] * (2 * len(table.templates))
    for k, end in ends.items():
        tails[2 * k:2 * k + 2] = end.encode("ascii"), ('"' + end).encode("ascii")
    quoted = ((bits & _QUOTED) > 0).astype(np.int64)
    return _spliced(table.labels, bits & _ESCAPED, heads, quoted, tails, 2 * table.class_ids + quoted,
                    lambda text: text.replace('"', '""').encode("ascii"))


def _csv_chunks(tables, columns):
    """CSV bytes of (step name, rows) pairs, one line per row, floats as `repr`.

    A `FourierTable` is written as the csv-quoted ``step,chi`` of each row
    followed by its class's encoded fragment.  Text that is not ASCII raises
    `UnicodeEncodeError` here, before any file is opened.
    """
    chunks = [[_csv_line(columns).encode("ascii")]]
    for step, rows in tables:
        if isinstance(rows, FourierTable):
            chunks.append(_table_csv(step, rows, columns[2:]))
        else:
            text = "".join(_csv_line(_csv_fields({"step": step, **row}, columns)) for row in rows)
            chunks.append([text.encode("ascii")])
    return itertools.chain.from_iterable(chunks)


def write_report(report: dict, outdir, raw_text: str) -> dict:
    """Write report.json, CSV tables, config echo, and the timestamp sidecar."""
    os.makedirs(outdir, exist_ok=True)
    paths = {}

    def emit(name, chunks):
        path = os.path.join(outdir, name)
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        paths[name] = path

    emit("report.json", _report_chunks(report))
    steps = report["steps"]
    for name, key, columns in (("fourier.csv", "fourier_table", _FOURIER_COLUMNS),
                               ("mixing.csv", "mixing_table", _MIXING_COLUMNS)):
        emit(name, _csv_chunks([(s["name"], s[key]) for s in steps if s.get(key)], columns))
    emit("config_echo.cfg", [raw_text.encode("utf-8")])
    sidecar = {"written_unix_time": time.time()}
    emit("run_meta.json", [(json.dumps(sidecar) + "\n").encode("ascii")])
    return paths


def bundled_config_path(name: str):
    base = resources.files("modshift").joinpath("configs")
    candidate = base.joinpath(f"{name}.cfg")
    if candidate.is_file():
        return candidate
    raise InvalidParameterError(
        f"no bundled config named {name!r}; available: "
        + ", ".join(sorted(p.name[:-4] for p in base.iterdir() if p.name.endswith(".cfg")))
    )


def read_text(path) -> str:
    """The text of a UTF-8 file; other bytes raise `ConfigParseError` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def run_file(path: str, outdir: str, workers: int = 1, force: bool = False, seed=None) -> int:
    """Run a config (a path or a bundled name); returns the process exit code."""
    text = read_text(path) if os.path.exists(path) else bundled_config_path(path).read_text("utf-8")
    config = parse_experiment(text)
    if seed is not None:
        config.seed = int(seed)
    if force:  # no config key can be "--force": the schema refuses it
        for _, step in config.steps:
            step["--force"] = True
    report = run_experiment(config, workers=workers)
    write_report(report, outdir, text)
    if not report["ok"]:
        failures = [{"step": s["name"], "kind": s["kind"], "error": s.get("error")}
                    for s in report["steps"] if not s.get("pass")]
        print(json.dumps({"failed": failures}, sort_keys=True))
        return 1
    return 0
