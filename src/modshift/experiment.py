"""Config-driven experiment runner with deterministic reports.

Experiment files are flat key = value sections (no scripting): an
``[experiment]`` header followed by ``[step <name>]`` sections, each with a
``kind`` selecting a registered check.  Reports are byte-stable: identical
configs produce identical report bytes regardless of worker count, with wall
clock metadata segregated into a sidecar file.
"""

from __future__ import annotations

import configparser
import csv
import functools
import io
import json
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import filterfalse
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ENUMERATION_CAP, ConfigParseError, DrawLimitError, InvalidParameterError
from .errors import ResourceLimitError
from .kernels import (
    KernelShiftSpec,
    coset_shift_check,
    extension_certificate,
    invariance_and_surjectivity_check,
    kernel_membership,
    submodule_condition_check,
    torsion_free_check,
    window_kernel,
)
from .lattice import WindowSpec, checkerboard_config, constant_config
from .measures import (
    _checked_criterion,
    block_entropy,
    coset_haar,
    fourier_sweep,
    haar_criterion,
    FourierTable,
    kernel_haar,
    mixing_statistic,
    pushforward,
    uniform_bernoulli,
    SubgroupHaarMeasure,
)
from .rings import ModuleSpec, make_ring, recurrent_power_sums
from .rng import CounterRng
from .shiftpoly import (
    TorusStencil,
    frobenius_power,
    from_rule,
    parse_rule,
    poly_pow,
    stencil,
)
from . import crt as crt_mod

__all__ = [
    "ExperimentConfig",
    "parse_experiment",
    "run_experiment",
    "write_report",
    "run_file",
    "bundled_config_path",
    "REPORT_SCHEMA",
]

REPORT_SCHEMA = "modshift-report-v1"


class _Section(dict):
    """The key = value pairs of one config section.

    A missing required key or a value that does not convert raises
    `ConfigParseError` naming the section and the key.
    """

    def __init__(self, name: str, items):
        super().__init__(items)
        self.name = name

    def __missing__(self, key):
        raise ConfigParseError(f"[{self.name}] missing required key {key!r}")

    def value(self, key: str, convert, default=None):
        """`convert` applied to the value of `key` (required when no default)."""
        text = self[key] if default is None else self.get(key, default)
        try:
            return convert(text)
        except ValueError:
            raise ConfigParseError(f"[{self.name}] bad value for {key!r}: {text!r}") from None


@dataclass
class ExperimentConfig:
    name: str
    seed: int
    steps: list  # of (name, {key: value})
    raw_text: str


def parse_experiment(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigParseError(f"experiment config: {exc}") from None
    if "experiment" not in parser:
        raise ConfigParseError("missing [experiment] section", line=1)
    head = parser["experiment"]
    name = head.get("name", "experiment")
    if "seed" not in head:
        raise ConfigParseError("experiment seed must be explicit")
    seed = _Section("experiment", head).value("seed", int)
    steps = []
    for section in parser.sections():
        if section == "experiment":
            continue
        if not section.startswith("step "):
            raise ConfigParseError(f"unknown section [{section}]")
        params = dict(parser[section])
        if "kind" not in params:
            raise ConfigParseError(f"step [{section}] missing kind")
        steps.append((section[5:].strip(), params))
    return ExperimentConfig(name, seed, steps, text)


def _ints(text: str):
    return [int(tok) for tok in text.replace(",", " ").split()]


def _two_words(text: str):
    first, second = text.split()  # another word count raises ValueError
    return first, second


def _exact_or_int(text: str):
    return "exact" if text == "exact" else int(text)


def _offsets(text: str):
    pieces = (piece.strip().strip("()").strip() for piece in text.split(";"))
    return [tuple(_ints(piece)) for piece in pieces if piece]


def _dims(text: str):
    """The (D, E) pair from its first two integers."""
    d, e = _ints(text)[:2]
    return d, e


def _window_from(params, rule_dims, extents_key="extents", origin_key="origin",
                 origin_default=None) -> WindowSpec:
    extents = params.value(extents_key, _ints)
    if origin_default is None:
        origin_default = "0 " * len(extents)
    origin = params.value(origin_key, _ints, origin_default)
    return WindowSpec(rule_dims, tuple(origin), tuple(extents))


def _pattern_config(pattern: str, module, window, mode):
    if pattern == "checkerboard":
        return checkerboard_config(module, window, mode=mode)
    if pattern.startswith("constant:"):
        try:
            element = int(pattern[len("constant:"):])
        except ValueError:
            raise InvalidParameterError(f"bad constant pattern {pattern!r}") from None
        return constant_config(module, window, element, mode=mode)
    raise InvalidParameterError(f"unknown pattern {pattern!r}")


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


def _step_frobenius_check(params, seed):
    rule = parse_rule(params["rule"])
    ks = params.value("ks", _ints, "1 2")
    torus = params.value("torus", _ints, "32 " * (rule.dims[0] + rule.dims[1]))
    n_configs = params.value("configs", int, "3")
    checks = [
        frobenius_check(rule, k, torus, n_configs, seed, start=k * 10_000_000) for k in ks
    ]
    ok = all(c["structural"] and c["applied"] for c in checks)
    return {"pass": ok, "checks": checks}


def _step_fixed_point(params, seed):
    rule = parse_rule(params["rule"])
    torus = params.value("torus", _ints)
    window = WindowSpec(rule.dims, (0,) * len(torus), tuple(torus))
    cfg = _pattern_config(params["pattern"], rule.module, window, "torus")
    out = rule.apply(cfg)
    ok = out == cfg
    return {"pass": ok, "torus": torus}


def _step_coset_check(params, seed):
    spec = KernelShiftSpec(parse_rule(params["kernel"], expect_prefix="kernel"))
    window = _window_from(params, spec.dims)
    cfg = _pattern_config(params["pattern"], spec.module, window, "exact")
    result = coset_shift_check(cfg, spec)
    member = kernel_membership(spec, cfg)
    expected = params.get("expected", "true") == "true"
    out = {"pass": result == expected, "coset_shift": result, "kernel_member": member}
    if "expected-member" in params:
        out["pass"] = out["pass"] and (member == (params["expected-member"] == "true"))
    return out


def _step_kernel_count(params, seed):
    spec = KernelShiftSpec(parse_rule(params["kernel"], expect_prefix="kernel"))
    window = _window_from(params, spec.dims)
    basis = window_kernel(spec, window)
    count = basis.solution_count
    expected = params.value("expected", int)
    out = {"pass": count == expected, "count": count, "expected": expected}
    if params.get("submodule-gens"):
        gens = params.value("submodule-gens", _ints)
        closed = submodule_condition_check(basis, gens)
        out["submodule_condition"] = closed
        out["pass"] = out["pass"] and closed
    if params.get("extension-check", "false") == "true":
        cert = extension_certificate(spec, window)
        out["extension_certificate"] = cert
        out["pass"] = out["pass"] and cert
    return out


def _step_recurrent_sums(params, seed):
    rule = parse_rule(params["rule"])
    values = recurrent_power_sums(rule.ring, rule.coeffs)
    expected = set(params.value("expected", _ints))
    return {
        "pass": set(values) == expected,
        "values": sorted(values),
        "expected": sorted(expected),
    }


def _step_torsion_check(params, seed):
    spec = KernelShiftSpec(parse_rule(params["kernel"], expect_prefix="kernel"))
    window = _window_from(params, spec.dims)
    scalar = params.value("scalar", int)
    result = torsion_free_check(spec, window, scalar)
    expected = params["expected"] == "true"
    return {"pass": result == expected, "torsion_free": result, "scalar": scalar}


def _step_invariance_check(params, seed):
    rule = parse_rule(params["rule"])
    spec = KernelShiftSpec(parse_rule(params["kernel"], expect_prefix="kernel"))
    window = _window_from(params, spec.dims)
    inv, surj = invariance_and_surjectivity_check(rule, spec, window)
    want_inv, want_surj = params.value("expected", _two_words, "true true")
    ok = inv == (want_inv == "true") and surj == (want_surj == "true")
    return {"pass": ok, "invariant": inv, "surjective": surj}


def _build_measure(params, seed):
    kind = params.get("measure", "uniform")
    if kind in ("kernel", "coset"):
        spec = KernelShiftSpec(parse_rule(params["kernel"], expect_prefix="kernel"))
        window = _window_from(params, spec.dims)
        if kind == "kernel":
            return kernel_haar(spec, window, seed=seed), spec.module, window
        rep = _pattern_config(params["pattern"], spec.module, window, "exact")
        return coset_haar(rep, spec, seed=seed), spec.module, window
    if kind == "uniform":
        ring = make_ring(params["ring"])
        rank = params.value("rank", int, "1")
        module = ModuleSpec(ring, rank)
        window = _window_from(params, params.value("dims", _dims, "1 0"))
        return uniform_bernoulli(module, window, seed=seed), module, window
    raise InvalidParameterError(f"unknown measure kind {kind!r}")


def _step_haar_sweep(params, seed):
    criterion = params.value("criterion", _checked_criterion, "subgroup")
    mu, module, window = _build_measure(params, seed)
    sweep_window = window
    if "sweep-extents" in params:
        sweep_window = _window_from(
            params, window.dims, "sweep-extents", "sweep-origin",
            params.get("origin", "0 " * window.axes),
        )
    limit = (1 << 24) if params.get("_force") else ENUMERATION_CAP
    sweep = fourier_sweep(mu, sweep_window, limit=limit)
    verdict = haar_criterion(sweep, criterion=criterion)
    out = {
        "pass": verdict.consistent,
        "criterion": criterion,
        "n_characters": len(sweep),
        "violations": verdict.violations,
        "fourier_table": sweep.table(t=0),
    }
    if params.get("expect-nonunit-phase", "false") == "true":
        nonunit = any(rs.modulus_is_one() and not rs.is_one() for rs in sweep.root_sums)
        out["nonunit_phase"] = nonunit
        out["pass"] = out["pass"] and nonunit
    return out


def _step_mixing(params, seed):
    mu, module, window = _build_measure(params, seed)
    offsets = params.value("offsets", _offsets)
    word_origin = params.value("word-origin", _ints, "0 " * window.axes)
    word_window = WindowSpec(window.dims, tuple(word_origin), (1,) * window.axes)
    word = constant_config(module, word_window, params.value("word-value", int, "0"))
    pairs = [(h, word) for h in offsets]
    schedule = params.value("n-schedule", _ints, "1 2 4 8 16")
    budget = params.value("budget", _exact_or_int, "exact")
    tol = params.value("tolerance", float, "1e-9")
    rows = []
    ok = True
    prev = None
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


def _step_entropy(params, seed):
    mu, module, window = _build_measure(params, seed)
    block = _window_from(params, window.dims, "block-extents", "block-origin", "0 " * window.axes)
    samples = params.value("samples", _exact_or_int, "exact")
    h = block_entropy(mu, block, None if samples == "exact" else samples)
    expected = params.value("expected", float)
    tol = params.value("tolerance", float, "0.02")
    ok = abs(h - expected) <= tol
    return {"pass": ok, "bits_per_site": h, "expected": expected, "tolerance": tol}


def _step_crt_check(params, seed):
    ring = make_ring(params["ring"])
    deco = crt_mod.decompose_ring(ring)
    inverse_ok, add_ok, _ = crt_mod.component_map_verdicts(deco, ring.size)
    bijective = bool(inverse_ok.all())
    hom = bool(add_ok.all())
    out = {
        "pass": bijective and hom,
        "components": [r.descriptor() for r in deco.component_rings],
        "bijective": bijective,
        "additive_hom": hom,
    }
    if "rule" in params:
        rule = parse_rule(params["rule"])
        trials = params.value("trials", int, "100")
        torus = tuple(params.value("torus", _ints, "32"))
        res = crt_mod.conjugacy_check(rule, deco, trials=trials, torus_extents=torus, seed=seed)
        out["conjugacy"] = res.ok
        out["pass"] = out["pass"] and res.ok
    return out


def _step_pushforward_invariance(params, seed):
    rule = parse_rule(params["rule"])
    module = rule.module
    src_window = _window_from(params, rule.dims)
    target = _window_from(
        params, rule.dims, "target-extents", "target-origin", "0 " * src_window.axes
    )
    # A Haar handle, so every pushforward (t = 0 too) has an exact marginal.
    uni = SubgroupHaarMeasure.full_space(module, src_window, seed=seed)
    pushed = pushforward(uni, rule, params.value("t", int, "1"))
    if not pushed.window.contains_window(target):
        raise InvalidParameterError("pushforward window does not cover the target window")
    got = pushed.marginal(target)
    want = SubgroupHaarMeasure.full_space(module, target, seed=seed)
    ok = got.same_distribution(want)
    return {"pass": ok, "target": str(target)}


STEP_HANDLERS = {
    "frobenius-check": _step_frobenius_check,
    "fixed-point": _step_fixed_point,
    "coset-check": _step_coset_check,
    "kernel-count": _step_kernel_count,
    "recurrent-sums": _step_recurrent_sums,
    "torsion-check": _step_torsion_check,
    "invariance-check": _step_invariance_check,
    "haar-sweep": _step_haar_sweep,
    "mixing": _step_mixing,
    "entropy": _step_entropy,
    "crt-check": _step_crt_check,
    "pushforward-invariance": _step_pushforward_invariance,
}


def _run_step(name, params, seed):
    params = _Section(f"step {name}", params)
    kind = params["kind"]
    handler = STEP_HANDLERS.get(kind)
    if handler is None:
        raise InvalidParameterError(f"step {name!r}: unknown kind {kind!r}")
    try:
        result = handler(params, seed)
    except ResourceLimitError as exc:
        hint = "" if isinstance(exc, DrawLimitError) else " (use --force to raise caps)"
        return {"name": name, "kind": kind, "pass": False, "error": f"resource limit: {exc}{hint}"}
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
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_step, *job) for job in jobs]
            results = [f.result() for f in futures]
    n_pass = sum(1 for r in results if r.get("pass"))
    return {
        "schema": REPORT_SCHEMA,
        "experiment": config.name,
        "seed": config.seed,
        "steps": results,
        "summary": {
            "total": len(results),
            "passed": n_pass,
            "failed": len(results) - n_pass,
        },
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
_WRITE_CHUNK = 1 << 16  # text pieces joined and encoded per write
_dumps = functools.partial(json.dumps, sort_keys=True, indent=2, ensure_ascii=True,
                           default=_json_default)


def _report_pieces(report) -> list:
    """The text of `report_bytes` as a list of pieces, each table's rows its own pieces.

    json writes the report with each `FourierTable` as a quoted marker, a
    random token drawn again if the text holds it anywhere else; each marker
    is then replaced by its table.  ``indent=2`` puts every member on its own
    line, so the table's depth is its marker line's leading spaces over two.
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
    pieces = [between[0]]
    for table, after in zip(tables, between[1:]):
        line = pieces[-1][pieces[-1].rfind("\n") + 1:]
        pieces.extend(_table_json(table, (len(line) - len(line.lstrip(" "))) // 2))
        pieces.append(after)
    pieces.append("\n")
    return pieces


def _interleave(heads, labels, tails, class_ids) -> list:
    """head[class], label, tail[class] for each row, as one list of text pieces."""
    parts = [None] * (3 * len(class_ids))
    parts[0::3] = np.array(heads, dtype=object)[class_ids].tolist()
    parts[1::3] = labels
    parts[2::3] = np.array(tails, dtype=object)[class_ids].tolist()
    return parts


def _table_json(table: FourierTable, depth: int) -> list:
    """A table's row list at `depth`, from one encoded head and tail per class around each label."""
    if not len(table):
        return ["[]"]
    row = "\n" + "  " * (depth + 1)
    chi = row + '  "chi": '
    heads, tails = [], []
    for template in table.templates:
        text = _dumps({"chi": "", **template, **table.extra}).replace("\n", row)
        head, tail = text.split(chi + '""')
        heads.append("," + row + head + chi)
        tails.append(tail)
    parts = _interleave(heads, map(encode_basestring_ascii, table.labels), tails, table.class_ids)
    parts[0] = "[" + parts[0][1:]
    parts.append("\n" + "  " * depth + "]")
    return parts


def report_bytes(report: dict) -> bytes:
    """``json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True)`` plus a newline.

    The bytes are exactly those of that call with ``default=_json_default``.
    json itself writes the report; each `FourierTable` in it is spliced in
    from one encoded fragment per class around its encoded labels, so no row
    dict is built.
    """
    return "".join(_report_pieces(report)).encode("ascii")


def _csv_fields(row: dict, columns) -> list:
    return [repr(row.get(c)) if isinstance(row.get(c), float) else row.get(c, "") for c in columns]


def _csv_line(fields) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


@functools.lru_cache(maxsize=None)
def _csv_quoting():
    """The ASCII characters that make the csv writer quote a field, as a pattern."""
    special = [c for c in map(chr, range(128)) if _csv_line(["x", c]) != f"x,{c}\n"]
    return re.compile("[" + re.escape("".join(special)) + "]")


def _table_csv(step: str, table: FourierTable, columns) -> list:
    """The table's CSV text pieces: each label's field between its step and its class's fragment.

    An ASCII field is quoted, with its quotes doubled, iff it holds a character
    that `_csv_quoting` finds; other text fails the ASCII check of `_csv_pieces`.
    """
    special = _csv_quoting().search
    start = _csv_line([step, "x"])[:-2]  # the step's field and its comma
    # "x" is never quoted, so what follows it is the fragment with its leading comma.
    ends = [_csv_line(["x", *_csv_fields({**t, **table.extra}, columns)])[1:]
            for t in table.templates]
    labels = ['"%s"' % f.replace('"', '""') if special(f) else f for f in table.labels]
    return _interleave([start] * len(ends), labels, ends, table.class_ids)


def _csv_pieces(tables, columns) -> list:
    """CSV text pieces of (step name, rows) pairs, one line per row, floats as `repr`.

    A `FourierTable` is written as the csv-quoted ``step,chi`` of each row
    followed by its class's encoded fragment.  A piece that is not ASCII
    raises `UnicodeEncodeError` here, before any file is opened.
    """
    pieces = [_csv_line(columns)]
    for step, rows in tables:
        if isinstance(rows, FourierTable):
            pieces += _table_csv(step, rows, columns[2:])
        else:
            pieces += (_csv_line(_csv_fields({"step": step, **row}, columns)) for row in rows)
    for text in filterfalse(str.isascii, pieces):
        text.encode("ascii")
    return pieces


def _encoded(pieces: list):
    """ASCII bytes of the text pieces, `_WRITE_CHUNK` pieces at a time, never all at once."""
    for i in range(0, len(pieces), _WRITE_CHUNK):
        yield "".join(pieces[i:i + _WRITE_CHUNK]).encode("ascii")


def write_report(report: dict, outdir, raw_text: str) -> dict:
    """Write report.json, CSV tables, config echo, and the timestamp sidecar."""
    os.makedirs(outdir, exist_ok=True)
    paths = {}

    def emit(name, chunks):
        path = os.path.join(outdir, name)
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        paths[name] = path

    emit("report.json", _encoded(_report_pieces(report)))
    steps = report["steps"]
    for name, key, columns in (("fourier.csv", "fourier_table", _FOURIER_COLUMNS),
                               ("mixing.csv", "mixing_table", _MIXING_COLUMNS)):
        emit(name, _encoded(_csv_pieces([(s["name"], s[key]) for s in steps if s.get(key)], columns)))
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
    if os.path.exists(path):
        text = read_text(path)
    else:
        text = bundled_config_path(path).read_text(encoding="utf-8")
    config = parse_experiment(text)
    if seed is not None:
        config.seed = int(seed)
    if force:
        for _, params in config.steps:
            params["_force"] = "true"
    report = run_experiment(config, workers=workers)
    write_report(report, outdir, text)
    if not report["ok"]:
        failures = [
            {"step": s["name"], "kind": s["kind"], "error": s.get("error")}
            for s in report["steps"]
            if not s.get("pass")
        ]
        print(json.dumps({"failed": failures}, sort_keys=True))
        return 1
    return 0
