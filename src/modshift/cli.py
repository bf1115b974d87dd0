"""Command-line entry points.

Verbs: ``lca step|power|frobenius-check``, ``shift kernel|coset-check|
mixing-check``, ``measure fourier|mixing|entropy``, ``crt split``,
``experiment run``.  Results are printed as JSON on stdout; exit status 0
means every requested check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import crt as crt_mod
from .chars import parse_character
from .errors import ConfigParseError, ModshiftError
from .experiment import (_EXACT, _INTS, _KERNEL, _MEASURE_KEYS, _MEASURES, _OFFSETS, STEP_KINDS,
                         _inner_window, _Section, _step_measure, _window, _window_keys, _word,
                         frobenius_check, read_text, run_file)
from .kernels import coset_shift_check, kernel_membership, topological_mixing_check, window_kernel
from .lattice import constant_config, decode_config, encode_config
from .measures import _power_poly, block_entropy, coset_haar, fourier, mixing_statistic
from .shiftpoly import iterate_rule, parse_rule


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, default=str))


def _read_config(path):
    return decode_config(read_text(path))


def _write_config(path, config):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(encode_config(config))


def _flags(args) -> _Section:
    """The given options by flag name, read like experiment config keys."""
    given = {"--" + k.replace("_", "-"): v for k, v in vars(args).items() if v not in (None, "")}
    return _Section(f"{args.group} {args.verb}", given, prefix="--")


def cmd_lca_step(args):
    rule = parse_rule(args.rule)
    cfg = _read_config(args.config)
    if args.mode:
        cfg = type(cfg)(cfg.window, cfg.module, cfg.values, args.mode)
    out = iterate_rule(rule, cfg, args.steps)
    if args.out:
        _write_config(args.out, out)
    _emit({"window": str(out.window), "steps": args.steps, "out": args.out})
    return 0


def cmd_lca_power(args):
    poly = _power_poly(parse_rule(args.rule), args.t)
    _emit({"t": args.t, "terms": [[list(off), c] for off, c in poly.terms]})
    return 0


def cmd_lca_frobenius_check(args):
    rule = parse_rule(args.rule)
    torus = _flags(args).value("torus", _INTS, None)
    check = frobenius_check(rule, args.k, torus, args.configs, args.seed)
    ok = check["structural"] and check["applied"]
    _emit({**check, "pass": ok})
    return 0 if ok else 1


def cmd_shift_kernel(args):
    flags = _flags(args)
    spec = flags.value("kernel", _KERNEL)
    window = _window(spec.dims, **flags.typed(_window_keys()))
    basis = window_kernel(spec, window)
    _emit({"window": str(window), "solution_count": basis.solution_count,
           "scalar_dims": list(basis.scalar_dims()), "free_sites": [list(f) for f in basis.free_sites]})
    return 0


def cmd_shift_coset_check(args):
    spec = _flags(args).value("kernel", _KERNEL)
    cfg = _read_config(args.config)
    ok = coset_shift_check(cfg, spec)
    _emit({"coset_shift": ok, "kernel_member": kernel_membership(spec, cfg)})
    return 0 if ok else 1


def cmd_shift_mixing_check(args):
    spec = _flags(args).value("kernel", _KERNEL)
    offsets = _flags(args).value("offsets", _OFFSETS)
    word_window = _window(spec.dims, (1,) * sum(spec.dims))
    word = _read_config(args.word) if args.word else constant_config(spec.module, word_window, 0)
    pairs = [(h, word) for h in offsets]
    ok = topological_mixing_check(spec, pairs, args.n)
    _emit({"n": args.n, "nonempty": ok})
    return 0 if ok else 1


def _measure_from_args(args):
    flags = _flags(args)
    # Each measure key's flag; the CLI reads a coset representative from the file --rep.
    flag = {key: "--" + key for key in _MEASURE_KEYS} | {"pattern": "--rep"}
    for key in sorted(_MEASURE_KEYS - _MEASURES[args.measure].keys()):
        if flag[key] in flags:
            raise ConfigParseError(f"[{flags.name}] measure {args.measure!r} does not read {flag[key]}")
    if args.measure != "coset":
        step = flags.typed({**_window_keys(), **_MEASURES[args.measure]})
        return _step_measure({"measure": args.measure, **step}, args.seed)
    spec = flags.value("kernel", _KERNEL)
    rep = _read_config(flags["--rep"])
    window = _window(spec.dims, **flags.typed(_window_keys()))
    if window != rep.window:
        raise ConfigParseError(f"[{flags.name}] --extents/--origin window {window} is not --rep's {rep.window}")
    return coset_haar(rep, spec, seed=args.seed)


def cmd_measure_fourier(args):
    mu = _measure_from_args(args)
    chi = parse_character(args.chi, mu.module, mu.window)
    _emit(fourier(mu, chi, _flags(args).value("budget", _EXACT)).row())
    return 0


def cmd_measure_mixing(args):
    mu = _measure_from_args(args)
    flags = _flags(args)
    key = STEP_KINDS["mixing"].keys["word-value"]
    word = _word(mu, flags.value("word-value", key.type, key.default))
    pairs = [(h, word) for h in flags.value("offsets", _OFFSETS)]
    budget = flags.value("budget", _EXACT)
    rows = [mixing_statistic(mu, pairs, n, budget=budget).row() for n in flags.value("n-schedule", _INTS)]
    _emit({"mixing": rows})
    return 0


def cmd_measure_entropy(args):
    mu = _measure_from_args(args)
    flags = _flags(args)
    block = _inner_window(mu, flags.value("block-extents", _INTS))
    samples = flags.value("samples", _EXACT)
    h = block_entropy(mu, block, None if samples == "exact" else samples)
    _emit({"bits_per_site": h})
    return 0


def cmd_crt_split(args):
    cfg = _read_config(args.config)
    deco = crt_mod.decompose_ring(cfg.module.ring)
    parts = crt_mod.split_config(cfg, deco)
    base, ext = os.path.splitext(args.config)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        base = os.path.join(args.out, os.path.basename(base))
    written = []
    for ring_j, part in zip(deco.component_rings, parts):
        path = f"{base}.p{ring_j.characteristic}{ext or '.cfg'}"
        _write_config(path, part)
        written.append(path)
    _emit({"components": written, "degenerate": deco.degenerate})
    return 0


def cmd_experiment_run(args):
    return run_file(args.config, args.out, workers=args.workers, force=args.force, seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modshift", description="Exact linear-CA toolkit over finite commutative rings.")
    sub = parser.add_subparsers(dest="group", required=True)

    lca = sub.add_parser("lca", help="local rules and shift polynomials")
    lca_sub = lca.add_subparsers(dest="verb", required=True)
    s = lca_sub.add_parser("step", help="apply a rule to a configuration file")
    s.add_argument("--rule", required=True)
    s.add_argument("--config", required=True)
    s.add_argument("--steps", type=int, default=1)
    s.add_argument("--mode", choices=["exact", "torus"])
    s.add_argument("--out")
    s.set_defaults(fn=cmd_lca_step)
    s = lca_sub.add_parser("power", help="print the t-th power of a rule polynomial")
    s.add_argument("--rule", required=True)
    s.add_argument("--t", type=int, required=True)
    s.set_defaults(fn=cmd_lca_power)
    s = lca_sub.add_parser("frobenius-check", help="verify the p^k fast-forward identity")
    s.add_argument("--rule", required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--torus", help="comma-separated torus extents for applied checks")
    s.add_argument("--configs", type=int, default=3)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_lca_frobenius_check)

    shift = sub.add_parser("shift", help="submodule and coset shifts")
    shift_sub = shift.add_subparsers(dest="verb", required=True)
    s = shift_sub.add_parser("kernel", help="solve the in-window kernel")
    s.add_argument("--kernel", required=True)
    s.add_argument("--origin")
    s.add_argument("--extents", required=True)
    s.set_defaults(fn=cmd_shift_kernel)
    s = shift_sub.add_parser("coset-check", help="test the coset-shift condition")
    s.add_argument("--kernel", required=True)
    s.add_argument("--config", required=True)
    s.set_defaults(fn=cmd_shift_coset_check)
    s = shift_sub.add_parser("mixing-check", help="pinned-word topological mixing check")
    s.add_argument("--kernel", required=True)
    s.add_argument("--offsets", required=True)
    s.add_argument("--word", help="configuration file with the pinned word")
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(fn=cmd_shift_mixing_check)

    measure = sub.add_parser("measure", help="measures, Fourier, mixing, entropy")
    measure_sub = measure.add_subparsers(dest="verb", required=True)

    def measure_common(p):
        p.add_argument("--measure", choices=list(_MEASURES), required=True)
        p.add_argument("--ring", help="ring descriptor (uniform measure)")
        p.add_argument("--rank", help="module rank (uniform measure; default 1)")
        p.add_argument("--dims", help="D E (uniform measure; default 1 0)")
        p.add_argument("--kernel", help="kernel rule text (kernel/coset measures)")
        p.add_argument("--rep", help="coset representative config file")
        p.add_argument("--origin")
        p.add_argument("--extents", required=True)
        p.add_argument("--seed", type=int, default=0)

    s = measure_sub.add_parser("fourier", help="one Fourier coefficient")
    measure_common(s)
    s.add_argument("--chi", required=True, help="character text, e.g. (0,0):1;(1,0):1")
    s.add_argument("--budget", default="exact")
    s.set_defaults(fn=cmd_measure_fourier)
    s = measure_sub.add_parser("mixing", help="mixing deviations over an n schedule")
    measure_common(s)
    s.add_argument("--offsets", required=True)
    s.add_argument("--word-value", help="ring code of the one-site word (default 0)")
    s.add_argument("--n-schedule", default="1 2 4 8 16")
    s.add_argument("--budget", default="exact")
    s.set_defaults(fn=cmd_measure_mixing)
    s = measure_sub.add_parser("entropy", help="plug-in block entropy")
    measure_common(s)
    s.add_argument("--block-extents", required=True)
    s.add_argument("--samples", default="exact")
    s.set_defaults(fn=cmd_measure_entropy)

    crt = sub.add_parser("crt", help="Chinese-remainder splitting")
    crt_sub = crt.add_subparsers(dest="verb", required=True)
    s = crt_sub.add_parser("split", help="split a configuration into prime components")
    s.add_argument("--config", required=True)
    s.add_argument("--out", help="output directory (defaults beside the input)")
    s.set_defaults(fn=cmd_crt_split)

    experiment = sub.add_parser("experiment", help="config-driven experiment runner")
    exp_sub = experiment.add_subparsers(dest="verb", required=True)
    s = exp_sub.add_parser("run", help="run an experiment config (path or bundled name)")
    s.add_argument("config")
    s.add_argument("--out", default="modshift-report")
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--seed", type=int, help="override the config seed")
    s.add_argument("--force", action="store_true", help="raise the haar-sweep character cap from 2^20 to 2^24")
    s.set_defaults(fn=cmd_experiment_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ModshiftError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
