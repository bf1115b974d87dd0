"""Fuzz guards: malformed text reaches the caller only as a `ModshiftError`.

Each test feeds generated text, grammar-shaped with junk spliced in, to one
public entry point and lets any exception other than a `ModshiftError` fail
the test.  The parsers also see huge numbers; generated suites are run, so
their numbers stay small and no step asks for a large window, power or
sample.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modshift import (
    ConfigParseError,
    InvalidParameterError,
    ModshiftError,
    ModuleSpec,
    WindowConfig,
    WindowSpec,
    decode_config,
    encode_config,
    make_ring,
    parse_character,
    parse_ring,
    parse_rule,
)
from modshift.experiment import STEP_KINDS, parse_experiment, run_experiment

FUZZ = settings(deadline=None, derandomize=True, max_examples=150)

SMALL = st.integers(min_value=-3, max_value=9).map(str)
JUNK = st.sampled_from(["", " ", "x", "-", ":", ";", ",", "(", ")", "[", "]", "=", "1.5", "nan"])
TOKEN = st.one_of(SMALL, JUNK)
HUGE_TOKEN = st.one_of(TOKEN, st.sampled_from(["65537", "99999999999999999999"]))
RINGS = ["zmod:2", "zmod:3", "zmod:6", "gf:2:2", "gf:3:2:2,2,1", "prod:[zmod:2;zmod:3]",
         "zmod:0", "zmod:1", "zmod:-4", "zmod:", "gf:4:1", "gf:2:0", "gf:2:2:1,0,1", "gf:2",
         "prod:[]", "prod:[zmod:2;", "prod:[zmod:4;zmod:2]", "prod:[gf:2:2;zmod:3]", "ring"]


def _only_typed_errors(fn, *args):
    try:
        return fn(*args)
    except ModshiftError:
        return None


def _spliced(pieces, token=TOKEN):
    """Joins generated pieces; junk tokens stand in for some of the grammar."""
    return st.lists(st.one_of(pieces, token), min_size=0, max_size=12).map("".join)


@st.composite
def ring_texts(draw, token=TOKEN):
    ring = draw(st.sampled_from(RINGS))
    if draw(st.booleans()):
        return ring
    head = draw(st.sampled_from(["zmod:", "gf:", "prod:[", ""]))
    return head + draw(_spliced(st.sampled_from(RINGS + [":", ";", "]", ","]), token))


def _offset(arity):
    return st.lists(st.integers(-3, 3), min_size=arity, max_size=arity).map(
        lambda xs: "(" + ",".join(map(str, xs)) + ")"
    )


@st.composite
def rule_texts(draw, token=TOKEN):
    arity = draw(st.integers(0, 3))
    terms = draw(st.lists(
        st.tuples(st.one_of(_offset(arity), _offset(draw(st.integers(0, 3))), token), token),
        min_size=0, max_size=4,
    ))
    fields = {
        "ring": draw(st.one_of(ring_texts(token), token)),
        "rank": draw(st.one_of(st.sampled_from(["1", "2"]), token)),
        "dims": draw(st.one_of(st.sampled_from(["1,0", "0,1", "1,1", "2,0", "0,2"]), token)),
        "H": ";".join(f"{off}:{c}" for off, c in terms),
    }
    keys = draw(st.permutations(list(fields)))
    keep = draw(st.lists(st.sampled_from(keys), unique=True, min_size=2, max_size=4))
    prefix = draw(st.sampled_from(["rule", "kernel", "rul", ""]))
    body = [f"{k}={fields[k]}" for k in keys if k in keep]
    body += draw(st.lists(token, max_size=2))
    return " ".join([prefix] + body)


@FUZZ
@given(ring_texts(HUGE_TOKEN))
def test_parse_ring_raises_only_typed_errors(text):
    _only_typed_errors(parse_ring, text)


@FUZZ
@given(rule_texts(HUGE_TOKEN), st.sampled_from(["rule", "kernel"]))
def test_parse_rule_raises_only_typed_errors(text, prefix):
    _only_typed_errors(parse_rule, text, prefix)


CHAR_SPACES = [
    (ModuleSpec(make_ring("zmod:2"), 1), WindowSpec((1, 1), (0, 0), (3, 2))),
    (ModuleSpec(make_ring("gf:2:2"), 2), WindowSpec((1, 0), (0,), (4,))),
    (ModuleSpec(make_ring("zmod:6"), 1), WindowSpec((0, 1), (1,), (3,))),
]


@st.composite
def character_texts(draw):
    terms = draw(st.lists(
        st.tuples(st.one_of(_offset(draw(st.integers(0, 3))), HUGE_TOKEN), HUGE_TOKEN),
        min_size=0, max_size=4,
    ))
    text = ";".join(f"{site}:{code}" for site, code in terms)
    return draw(st.sampled_from(["", "trivial", " "])) + text


@FUZZ
@given(character_texts(), st.sampled_from(CHAR_SPACES))
def test_parse_character_raises_only_typed_errors(text, space):
    _only_typed_errors(parse_character, text, *space)


def _config_text(ring, rank, extents, dims):
    module = ModuleSpec(make_ring(ring), rank)
    window = WindowSpec(dims, (0,) * len(extents), extents)
    values = np.arange(np.prod(extents) * rank).reshape(extents + (rank,)) % module.ring.size
    return encode_config(WindowConfig(window, module, values))


CONFIG_TEXTS = [
    _config_text("zmod:2", 1, (3, 2), (1, 1)),
    _config_text("gf:2:2", 2, (4,), (1, 0)),
    _config_text("prod:[zmod:2;zmod:3]", 1, (2, 2), (0, 2)),
]


@st.composite
def config_texts(draw):
    lines = draw(st.sampled_from(CONFIG_TEXTS)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        words = (lines[i] if i < len(lines) else "").split()
        if words and draw(st.booleans()):
            words[draw(st.integers(0, len(words) - 1))] = draw(st.one_of(HUGE_TOKEN, ring_texts()))
            line = " ".join(words)
        else:
            line = draw(_spliced(st.sampled_from(["rank", "dims", "origin", "extents", "mode",
                                                  "exact", "torus", " "])))
        action = draw(st.sampled_from(["replace", "insert", "delete"]))
        if action == "insert" or i == len(lines):
            lines.insert(i, line)
        elif action == "delete":
            del lines[i]
        else:
            lines[i] = line
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@FUZZ
@given(config_texts())
def test_decode_config_raises_only_typed_errors(text):
    _only_typed_errors(decode_config, text)


# One small valid step per kind; the fuzzer edits, drops and adds keys.
KERNEL2 = "kernel ring=zmod:2 rank=1 dims=1,1 H=(-1,0):1;(0,0):1;(1,0):1;(0,1):1"
RULE2 = "rule ring=zmod:2 rank=1 dims=1,1 H=(0,0):1;(0,1):1;(1,0):1"
RULE6 = "rule ring=zmod:6 rank=1 dims=1,0 H=(0):1;(1):5"
KERNEL3 = "kernel ring=zmod:3 rank=1 dims=1,0 H=(0):1;(1):2"
STEP_TEMPLATES = {
    "frobenius-check": {"rule": RULE6.replace("zmod:6", "zmod:3").replace(":5", ":2"),
                        "ks": "1", "torus": "8", "configs": "2"},
    "fixed-point": {"rule": RULE2, "pattern": "checkerboard", "torus": "4 4"},
    "coset-check": {"kernel": KERNEL2, "pattern": "checkerboard", "extents": "4 3",
                    "expected": "true", "expected-member": "false"},
    "kernel-count": {"kernel": KERNEL2, "extents": "3 2", "expected": "32",
                     "submodule-gens": "1", "extension-check": "true"},
    "recurrent-sums": {"rule": RULE2, "expected": "0"},
    "torsion-check": {"kernel": KERNEL3, "extents": "4", "scalar": "1", "expected": "true"},
    "invariance-check": {"rule": RULE2, "kernel": KERNEL2, "extents": "3 2",
                         "expected": "true true"},
    "haar-sweep": {"measure": "coset", "kernel": KERNEL2, "pattern": "checkerboard",
                   "extents": "3 2", "criterion": "coset", "expect-nonunit-phase": "true"},
    "mixing": {"measure": "kernel", "kernel": KERNEL2, "extents": "5 5",
               "offsets": "(0,0);(0,1)", "n-schedule": "1 2", "budget": "exact"},
    "entropy": {"measure": "uniform", "ring": "zmod:2", "dims": "1 0", "extents": "4",
                "block-extents": "2", "samples": "50", "expected": "1.0", "tolerance": "1"},
    "crt-check": {"ring": "zmod:6", "rule": RULE6, "trials": "2", "torus": "4"},
    "pushforward-invariance": {"rule": RULE6, "extents": "5", "target-extents": "3", "t": "2"},
}
assert set(STEP_TEMPLATES) == set(STEP_KINDS)
STEP_KEYS = sorted({key for params in STEP_TEMPLATES.values() for key in params}
                   | {"origin", "rank", "word-origin", "word-value", "sweep-extents",
                      "block-origin", "target-origin"})
STEP_VALUES = st.one_of(
    TOKEN,
    st.lists(SMALL, min_size=1, max_size=3).map(" ".join),
    st.sampled_from(["exact", "true", "false", "kernel", "coset", "uniform", "subgroup",
                     "checkerboard", "constant:1", "constant:-1", "constant:x", "(0,0);(1,0)",
                     "(0);(1)", "(0,0,0)", KERNEL2, KERNEL3, RULE2, RULE6]),
    ring_texts(),
    rule_texts(),
)


# Keys that read exactly `true` or `false`, and spellings of true that are not that.
BOOL_KEYS = {"coset-check": ["expected", "expected-member"], "kernel-count": ["extension-check"],
             "torsion-check": ["expected"], "invariance-check": ["expected"],
             "haar-sweep": ["expect-nonunit-phase"]}
NOT_TRUE = ["True", "yes", "1"]
KNOWN_KEYS = {"kind", *STEP_KEYS, *(key for kind in STEP_KINDS.values() for key in kind.keys)}


@st.composite
def misspelled(draw, key):
    """`key` with one character deleted, doubled, swapped with the next or replaced."""
    i = draw(st.integers(0, len(key) - 1))
    edit = draw(st.sampled_from(["delete", "double", "swap", "replace"]))
    if edit == "delete" and len(key) > 1:
        return key[:i] + key[i + 1:]
    if edit == "swap" and i + 1 < len(key) and key[i] != key[i + 1]:
        return key[:i] + key[i + 1] + key[i] + key[i + 2:]
    if edit == "replace":
        return key[:i] + ("x" if key[i] != "x" else "y") + key[i + 1:]
    return key[:i] + key[i] + key[i:]


@st.composite
def suite_texts(draw):
    """(suite text, the key a planted defect names or None).

    A planted suite is a template with one key misspelled or one boolean
    spelled otherwise than ``true``, listed first so that it is the first
    key checked; any other suite has its keys edited, dropped and added.
    """
    kind = draw(st.sampled_from(sorted(STEP_TEMPLATES)))
    params, planted = dict(STEP_TEMPLATES[kind], kind=kind), None
    plant = draw(st.sampled_from(["edits", "misspelled", "boolean"]))
    if plant == "misspelled":
        key = draw(st.sampled_from(sorted(STEP_TEMPLATES[kind])))
        planted = draw(misspelled(key).filter(lambda typo: typo not in KNOWN_KEYS))
        params = {"kind": kind, planted: params.pop(key), **params}
    elif plant == "boolean" and kind in BOOL_KEYS:
        planted = draw(st.sampled_from(BOOL_KEYS[kind]))
        value = draw(st.sampled_from(NOT_TRUE))
        params.pop(planted, None)
        params = {"kind": kind, planted: f"{value} true" if kind == "invariance-check" else value,
                  **params}
    else:
        for _ in range(draw(st.integers(1, 3))):
            key = draw(st.sampled_from(sorted(params) + STEP_KEYS))
            if key in params and draw(st.integers(0, 3)) == 0:
                del params[key]
            else:
                params[key] = draw(STEP_VALUES)
    seed = "1" if planted else draw(st.sampled_from(["1", "-1", "x"]))
    lines = ["[experiment]", "name = fuzz", f"seed = {seed}", "", "[step fuzzed]"]
    lines += [f"{key} = {value}" for key, value in params.items()]
    return "\n".join(lines) + "\n", planted


@settings(deadline=None, derandomize=True, max_examples=250)
@given(suite_texts())
def test_generated_suites_raise_only_typed_errors(suite):
    text, planted = suite
    if planted is not None:
        with pytest.raises(ConfigParseError) as refusal:
            parse_experiment(text)
        assert "[step fuzzed]" in str(refusal.value) and repr(planted) in str(refusal.value)
        return
    config = _only_typed_errors(parse_experiment, text)
    if config is not None:
        report = run_experiment(config)  # a step's ModshiftError is its failure, not the run's
        assert [step["name"] for step in report["steps"]] == ["fuzzed"]


def test_whitespace_around_a_boolean_is_not_part_of_it():
    # configparser strips a value, so " true " is the canonical true.
    text = _one_step_suite("kernel-count", **{"extension-check": " true "})
    (name, step), = parse_experiment(text).steps
    assert step["extension-check"] is True


def _one_step_suite(kind, **params):
    params = dict(STEP_TEMPLATES[kind], **params)
    lines = ["[experiment]", "name = pinned", "seed = 1", "", "[step pinned]", f"kind = {kind}"]
    return "\n".join(lines + [f"{key} = {value}" for key, value in params.items()]) + "\n"


# Inputs the fuzzers once found escaping as a bare ValueError, AttributeError
# or OverflowError, pinned with the typed error they now raise.
@pytest.mark.parametrize("text,error", [
    (_one_step_suite("fixed-point", pattern="constant:x"), "bad constant pattern"),
    (_one_step_suite("invariance-check", expected="true"), "bad value for 'expected'"),
    (_one_step_suite("haar-sweep", criterion="subgrop"), "bad value for 'criterion': 'subgrop'"),
    (_one_step_suite("haar-sweep", criterion="x"), "bad value for 'criterion': 'x'"),
], ids=["constant-x", "one-word-expected", "criterion-typo", "criterion-junk"])
def test_found_suite_escapes_are_typed(text, error):
    with pytest.raises(ModshiftError, match=error):
        run_experiment(parse_experiment(text))


def test_pushforward_invariance_at_t0_compares_the_source_itself():
    report = run_experiment(parse_experiment(_one_step_suite("pushforward-invariance", t="0")))
    assert report["steps"][0]["pass"]


def test_found_parser_escapes_are_typed():
    with pytest.raises(InvalidParameterError, match=r"gf order 2\*\*99999999999999999999"):
        parse_ring("gf:2:99999999999999999999")
    with pytest.raises(InvalidParameterError, match="module rank 65537"):
        ModuleSpec(make_ring("zmod:2"), 65537)
    header = CONFIG_TEXTS[0].splitlines()
    for line, value in ((2, "rank 99999999999999999999"), (5, "extents 3 99999999999999999999")):
        lines = header[:line] + [value] + header[line + 1:]
        with pytest.raises(ConfigParseError):
            decode_config("\n".join(lines) + "\n")
