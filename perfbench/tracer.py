"""Outside-in span tracer for the modshift layers.

The tracer wraps public functions and methods of each layer module from the
outside, without editing the package.  Every call through a wrapper records a
span ``[id, parent id, name, start, end, counts]`` in memory; per-layer metrics
are derived from the finished span list.

Modules bind names such as ``window_kernel`` or ``fourier`` at import time
(``from .kernels import window_kernel``), so a function is replaced in every
``modshift.*`` module namespace that holds the original object.  Methods are
replaced on the class that defines them.  ``uninstall`` puts every original
object back, and ``check_restored`` confirms it.

Hot scalar helpers (``Ring.add``, ``WindowSpec.index_of``, ``RootSum``
arithmetic and the like) are deliberately not wrapped: they are called
millions of times per suite and a wrapper would cost more than their work, so
their time stays in the span of whoever calls them.

The tracer is meant for single-threaded runs (``workers=1``); its span stack is
a plain list.
"""

from __future__ import annotations

import inspect
import os
import sys
import time

LAYERS = (
    "experiment",
    "rings",
    "lattice",
    "shiftpoly",
    "linalg",
    "kernels",
    "crt",
    "measures",
    "chars",
    "rng",
)

# Step kinds used by the workloads; each gets an ``experiment.<kind>_s`` metric.
STEP_KINDS = (
    "frobenius-check",
    "fixed-point",
    "crt-check",
    "kernel-count",
    "torsion-check",
    "invariance-check",
    "mixing",
    "haar-sweep",
    "entropy",
    "pushforward-invariance",
)

_MARK = "__perfbench_original__"


def _size(args, kwargs, result):
    return {"elems": int(getattr(result, "size", 0))}


def _poly_terms(args, kwargs, result):
    return {"terms": len(result.terms)}


def _apply_terms(args, kwargs, result):
    return {"site_terms": len(args[0].terms) * result.window.n_sites}


def _window_sites(args, kwargs, result):
    return {"sites": result.window.n_sites}


def _matrix_cells(args, kwargs, result):
    shape = getattr(args[0], "shape", (0, 0))
    return {"cells": int(shape[0]) * int(shape[1]) if len(shape) == 2 else 0}


def _kernel_dims(args, kwargs, result):
    return {"dim": int(sum(result.scalar_dims())), "components": len(result.components)}


def _one_word(args, kwargs, result):
    return {"words": 1}


def _word_stack(args, kwargs, result):
    return {"words": int(args[2].shape[0])}


def _report_bytes(args, kwargs, result):
    # run_meta.json holds a timestamp; leaving it out makes the count repeat exactly.
    return {"bytes": sum(os.path.getsize(p) for name, p in result.items() if name != "run_meta.json")}


def _one_item(args, kwargs, result):
    return {"items": 1}


# layer -> (function names, {function name: count function})
FUNCTIONS = {
    "experiment": (["parse_experiment", "run_experiment", "write_report", "report_bytes"],
                   {"write_report": _report_bytes}),
    "rings": (["parse_ring", "make_ring", "subring_closure", "stable_power_subring",
               "recurrent_power_sums"], {}),
    "lattice": (["constant_config", "config_from_function", "checkerboard_config",
                 "shift_config", "restrict_config", "config_add", "config_sub",
                 "config_scale", "encode_config", "decode_config"],
                {"constant_config": _window_sites, "config_from_function": _window_sites,
                 "checkerboard_config": _window_sites}),
    "shiftpoly": (["from_rule", "identity_poly", "poly_mul", "poly_pow", "frobenius_power",
                   "poly_pow_charp", "poly_pow_naive_small", "apply_poly", "iterate_rule",
                   "parse_rule", "format_rule"],
                  {"poly_mul": _poly_terms, "apply_poly": _apply_terms}),
    "linalg": (["rref", "rank", "row_span_rank", "nullspace", "solve_affine"],
               {"rref": _matrix_cells}),
    "kernels": (["anchor_window", "constraint_matrix", "window_kernel", "constraint_residual",
                 "kernel_membership", "batch_membership", "enumerate_kernel_words",
                 "draw_kernel_words", "submodule_condition_check",
                 "invariance_and_surjectivity_check", "coboundary", "coset_from_cocycle",
                 "coset_shift_check", "torsion_free_check", "scaled_coset_in_kernel",
                 "topological_mixing_check", "extension_certificate"],
                {"window_kernel": _kernel_dims, "kernel_membership": _one_word,
                 "batch_membership": _word_stack}),
    "crt": (["decompose_ring", "split_config", "merge_config", "component_rule",
             "conjugacy_check", "project_measure", "merge_product_bernoulli"], {}),
    "measures": (["uniform_bernoulli", "bernoulli", "kernel_haar", "coset_haar", "point_mass",
                  "pushforward", "fourier", "haar_criterion", "mixing_statistic",
                  "block_entropy", "rigidity_experiment"], {}),
    "chars": (["all_characters", "parse_character", "format_character"],
              {"all_characters": _one_item}),
}

_ARR = ["add_arr", "neg_arr", "mul_arr", "sub_arr", "pair_exponent_arr", "convolve_codes"]
_MEASURE = ["cylinder_probability", "fourier_root_sum", "enumerate_words",
            "entropy_bits_per_site", "draw_values", "marginal"]

# layer -> [(class name, method names)]; counts come from METHOD_COUNTS.
METHODS = {
    "rings": [("Ring", _ARR), ("ZmodRing", _ARR), ("GFRing", _ARR), ("ProductRing", _ARR),
              ("ModuleSpec", ["pack_arr", "unpack_arr"])],
    "crt": [("CrtDecomposition", ["split_arrays", "merge_arrays"])],
    "measures": [("BernoulliMeasure", _MEASURE),
                 ("SubgroupHaarMeasure", _MEASURE + ["full_space", "from_window_basis",
                                                     "same_distribution"]),
                 ("CosetHaarMeasure", _MEASURE), ("ExactWordMeasure", _MEASURE),
                 ("TransformedMeasure", _MEASURE)],
    "chars": [("CharacterSpec", ["exponents_of_values"])],
    "rng": [("CounterRng", ["uint64", "uniform_codes", "uniform_from_cdf"])],
    "shiftpoly": [("LocalRule", ["apply"])],
}

METHOD_COUNTS = {
    "draw_values": _size,
    "uint64": _size,
    "uniform_codes": _size,
    "uniform_from_cdf": _size,
    "add_arr": _size,
    "neg_arr": _size,
    "mul_arr": _size,
    "sub_arr": _size,
    "pair_exponent_arr": _size,
}


class Tracer:
    """Holds the spans of one traced run and the patches that produce them."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, counts]
        self._stack = []
        self._patches = []  # (owner, attribute, original object)

    # -- wrapping -------------------------------------------------------------
    def _wrap(self, name, fn, count=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
                    spans.append(rec)
                    stack.append(rec[0])
                    rec[3] = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec[4] = clock()
                        stack.pop()
                    if count is not None:
                        rec[5] = count(args, kwargs, item)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
                spans.append(rec)
                stack.append(rec[0])
                rec[3] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[4] = clock()
                    stack.pop()
                if count is not None:
                    rec[5] = count(args, kwargs, result)
                return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, _MARK, fn)
        return wrapper

    def _step_wrapper(self, fn):
        """Wrap ``experiment._run_step`` so each step span is named by its kind."""
        by_kind = {}

        def run_step(name, params, seed):
            kind = params.get("kind", "unknown")
            inner = by_kind.get(kind)
            if inner is None:
                inner = by_kind[kind] = self._wrap(f"experiment.{kind}", fn)
            return inner(name, params, seed)

        setattr(run_step, _MARK, fn)
        return run_step

    def _set(self, owner, attr, value, original):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement):
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement, original)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {layer: sys.modules[f"modshift.{layer}"] for layer in LAYERS}
        for layer, (names, counts) in FUNCTIONS.items():
            for fname in names:
                original = getattr(mods[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, counts.get(fname))
                self._replace_everywhere(original, wrapper)
        run_step = mods["experiment"]._run_step
        self._replace_everywhere(run_step, self._step_wrapper(run_step))
        for layer, classes in METHODS.items():
            for cname, meths in classes:
                cls = getattr(mods[layer], cname)
                for meth in meths:
                    if meth not in cls.__dict__:
                        continue  # inherited; the defining class is patched
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cname}.{meth}"
                    count = METHOD_COUNTS.get(meth)
                    if isinstance(raw, staticmethod):
                        value = staticmethod(self._wrap(name, raw.__func__, count))
                    else:
                        value = self._wrap(name, raw, count)
                    self._set(cls, meth, value, raw)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = self._patches
        self._patches = []
        return restored

    def check_restored(self, restored):
        """Names still bound to a wrapper after ``uninstall`` (empty when clean)."""
        bad = []
        for owner, attr, original in restored:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        for mod in _package_modules():
            for attr, value in vars(mod).items():
                if hasattr(value, _MARK):
                    bad.append(f"{mod.__name__}.{attr}")
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        if hasattr(getattr(cvalue, "__func__", cvalue), _MARK):
                            bad.append(f"{mod.__name__}.{attr}.{cattr}")
        return sorted(set(bad))


def _package_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "modshift" or key.startswith("modshift."))
    ]


# -- metrics ------------------------------------------------------------------


def _is_arr(name):
    return name.startswith("rings.") and name.endswith("_arr")


def _is_convolve(name):
    return name.startswith("rings.") and name.endswith(".convolve_codes")


def _is_draw(name):
    return name.startswith("measures.") and name.endswith(".draw_values")


def _is_cylinder(name):
    return name.startswith("measures.") and name.endswith(".cylinder_probability")


def _named(*names):
    wanted = frozenset(names)
    return lambda name: name in wanted


def _is_rng(name):
    return name.startswith("rng.")


POWER = _named("shiftpoly.poly_pow", "shiftpoly.poly_pow_charp", "shiftpoly.frobenius_power",
               "shiftpoly.poly_pow_naive_small")
APPLY = _named("shiftpoly.apply_poly")
POLY_MUL = _named("shiftpoly.poly_mul")
PATTERN = _named("lattice.config_from_function", "lattice.constant_config",
                 "lattice.checkerboard_config")
RREF = _named("linalg.rref")
WINDOW_KERNEL = _named("kernels.window_kernel")
MEMBERSHIP = _named("kernels.kernel_membership", "kernels.batch_membership",
                    "kernels.constraint_residual")
CHARS = _named("chars.all_characters")


def per_layer(spans):
    """Per-layer metrics of one traced run, as ``{name: value}``.

    ``*_s`` is self time (span time minus child spans); ``*_calls`` and the
    work counts take only the outermost span of a group, so a method that calls
    a sibling (``sub_arr`` calling ``add_arr``) is counted once.
    """
    n = len(spans)
    names = [s[2] for s in spans]
    parent = [s[1] for s in spans]
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    self_t = [d - c for d, c in zip(dur, child)]

    def self_s(pred):
        return sum(t for name, t in zip(names, self_t) if pred(name))

    def outer(pred):
        return [i for i in range(n) if pred(names[i]) and not (parent[i] >= 0 and pred(names[parent[i]]))]

    def calls(pred):
        return len(outer(pred))

    def count(pred, key):
        return sum((spans[i][5] or {}).get(key, 0) for i in outer(pred))

    def under(i, pred):
        j = parent[i]
        while j >= 0:
            if pred(names[j]):
                return True
            j = parent[j]
        return False

    kernel_components = count(WINDOW_KERNEL, "components")
    rref_in_kernel = sum(1 for i in range(n) if RREF(names[i]) and under(i, WINDOW_KERNEL))

    m = {
        "rings.arr_calls": calls(_is_arr),
        "rings.arr_elems": count(_is_arr, "elems"),
        "rings.arr_s": self_s(_is_arr),
        "rings.convolve_calls": calls(_is_convolve),
        "rings.convolve_s": self_s(_is_convolve),
        "shiftpoly.poly_mul_calls": calls(POLY_MUL),
        "shiftpoly.poly_mul_terms": count(POLY_MUL, "terms"),
        "shiftpoly.poly_mul_s": self_s(POLY_MUL),
        "shiftpoly.power_s": self_s(POWER),
        "shiftpoly.apply_calls": calls(APPLY),
        "shiftpoly.apply_site_terms": count(APPLY, "site_terms"),
        "shiftpoly.apply_s": self_s(APPLY),
        "lattice.pattern_sites": count(PATTERN, "sites"),
        "lattice.pattern_s": self_s(PATTERN),
        "linalg.rref_calls": calls(RREF),
        "linalg.rref_cells": count(RREF, "cells"),
        "linalg.rref_s": self_s(RREF),
        "linalg.rref_per_kernel": rref_in_kernel / kernel_components if kernel_components else 0.0,
        "kernels.window_kernel_calls": calls(WINDOW_KERNEL),
        "kernels.window_kernel_s": self_s(WINDOW_KERNEL),
        "kernels.constraint_matrix_s": self_s(_named("kernels.constraint_matrix")),
        "kernels.kernel_dim": count(WINDOW_KERNEL, "dim"),
        "kernels.membership_words": count(MEMBERSHIP, "words"),
        "kernels.membership_s": self_s(MEMBERSHIP),
        "crt.decompose_calls": calls(_named("crt.decompose_ring")),
        "crt.decompose_s": self_s(_named("crt.decompose_ring")),
        "crt.conjugacy_s": self_s(_named("crt.conjugacy_check")),
        "measures.cylinder_calls": calls(_is_cylinder),
        "measures.cylinder_s": self_s(_is_cylinder),
        "measures.fourier_calls": calls(_named("measures.fourier")),
        "measures.fourier_s": self_s(lambda name: name == "measures.fourier"
                                     or name.endswith(".fourier_root_sum")),
        "measures.haar_criterion_s": self_s(_named("measures.haar_criterion")),
        "chars.characters": count(CHARS, "items"),
        "chars.characters_s": self_s(CHARS),
        "measures.draw_cells": count(_is_draw, "elems"),
        "measures.draw_s": self_s(_is_draw),
        "rng.codes": count(_is_rng, "elems"),
        "rng.s": self_s(_is_rng),
        "measures.pushforward_s": self_s(_named("measures.pushforward")),
        "experiment.parse_s": self_s(_named("experiment.parse_experiment")),
        "experiment.write_s": self_s(_named("experiment.write_report", "experiment.report_bytes")),
        "experiment.report_bytes": count(_named("experiment.write_report"), "bytes"),
    }
    for kind in STEP_KINDS:
        # A step's metric is its wall time: its self time would only be glue.
        step = f"experiment.{kind}"
        m[f"{step}_s"] = sum(dur[i] for i in range(n) if names[i] == step)
    return m


def dominant_shares(spans, run_s):
    """Inclusive time of each workload's dominant layer as a share of ``run_s``."""
    names = [s[2] for s in spans]
    parent = [s[1] for s in spans]

    def inclusive(pred):
        total = 0.0
        for i, name in enumerate(names):
            if not pred(name):
                continue
            j = parent[i]
            while j >= 0 and not pred(names[j]):
                j = parent[j]
            if j < 0:
                total += spans[i][4] - spans[i][3]
        return total

    groups = {
        "shiftpoly (apply + power)": lambda name: APPLY(name) or POWER(name),
        "linalg.rref": RREF,
        "measures (fourier + draws)": lambda name: name == "measures.fourier" or _is_draw(name),
    }
    return {label: inclusive(pred) / run_s if run_s > 0 else 0.0 for label, pred in groups.items()}


def layer_self_times(spans):
    """Self time per (layer, nearest enclosing layer), for the result file."""
    names = [s[2] for s in spans]
    parent = [s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if parent[i] >= 0:
            child[parent[i]] += s[4] - s[3]
    out = {}
    for i, s in enumerate(spans):
        layer = names[i].split(".", 1)[0]
        j = parent[i]
        while j >= 0 and names[j].split(".", 1)[0] == layer:
            j = parent[j]
        outer_layer = names[j].split(".", 1)[0] if j >= 0 else "-"
        key = f"{layer} under {outer_layer}"
        out[key] = out.get(key, 0.0) + (s[4] - s[3]) - child[i]
    return dict(sorted(out.items()))
