"""Differential tests of the report writer against the original one.

`report_bytes` is ``json.dumps`` itself with each Fourier table spliced in
from pre-encoded per-class fragments around its label bytes at its depth,
and `write_report` writes each table `_WRITE_CHUNK` rows at a time; the CSV
tables are built from the same label bytes and written the same way.  The
oracles are the original writer kept in `tests/oracles.py` (the indented
``json.dumps`` and one row dict per table row) and the original text table
writers (one Python string per label).  They must give the same bytes on the
bundled suites, the benchmark workloads, tables and reports longer than one
write chunk and generated reports with every value the encoder treats
specially.
"""

import ast
import importlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from modshift import (FourierTable, ModuleSpec, WindowSpec, all_characters, experiment, fourier,
                      fourier_sweep, kernel_haar, make_ring)
from modshift.bundled import checkerboard_system
from modshift.chars import LabelBuffer, sweep_labels
from modshift.errors import InvalidParameterError
from modshift.experiment import (
    _WRITE_CHUNK,
    _FOURIER_COLUMNS,
    _json_default,
    _table_csv,
    _table_json,
    bundled_config_path,
    parse_experiment,
    report_bytes,
    run_experiment,
    write_report,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = sorted((ROOT / "perfbench" / "workloads").glob("*.cfg"))
ORACLE_FILES = ("report.json", "fourier.csv", "mixing.csv")


def _written(report):
    """The table files `write_report` writes, and the encoding error that stopped it."""
    with tempfile.TemporaryDirectory() as outdir:
        error = None
        try:
            write_report(report, outdir, "")
        except UnicodeEncodeError as exc:
            error = type(exc).__name__
        out = pathlib.Path(outdir)
        return {n: (out / n).read_bytes() for n in ORACLE_FILES if (out / n).exists()}, error


def _oracle(report):
    files = {}
    try:
        for name, data in oracles.report_files(report):
            files[name] = data
    except UnicodeEncodeError as exc:
        return files, type(exc).__name__
    return files, None


def _suite_report(text):
    return run_experiment(parse_experiment(text), workers=1)


@pytest.mark.parametrize("suite", ["example_checkerboard", "frobenius_suite"])
def test_bundled_suite_files_match_oracle(suite):
    report = _suite_report(bundled_config_path(suite).read_text(encoding="utf-8"))
    assert _written(report) == _oracle(report)


@pytest.mark.parametrize("path", WORKLOADS, ids=lambda p: p.stem)
def test_benchmark_workload_files_match_oracle(path):
    report = _suite_report(path.read_text(encoding="utf-8"))
    written, error = _written(report)
    assert (written, error) == _oracle(report) and error is None
    if path.stem == "haar":
        # Non-vacuity: the haar workload writes its three sweeps' 10,379 rows.
        assert written["fourier.csv"].count(b"\n") == 1 + 10379


def test_write_path_builds_no_row_dict(monkeypatch):
    report = _suite_report((ROOT / "perfbench" / "workloads" / "haar.cfg").read_text())
    want = _oracle(report)

    def refuse(*args):
        raise AssertionError("a row dict was built on the write path")

    monkeypatch.setattr(FourierTable, "__iter__", refuse)
    monkeypatch.setattr(FourierTable, "__getitem__", refuse)
    assert _written(report) == want


# No bundled suite or workload fails a sweep: under 'subgroup', the
# checkerboard coset of the constant words has 1,024 coefficients of -1.
FAILING_SWEEP = """[experiment]
name = failing_sweep
seed = 1

[step checkerboard_as_subgroup]
kind = haar-sweep
measure = coset
kernel = kernel ring=zmod:2 rank=1 dims=1,0 H=(0):1;(1):1
pattern = checkerboard
extents = 12
criterion = subgroup
"""


def test_failing_sweep_files_match_oracle(monkeypatch):
    report = _suite_report(FAILING_SWEEP)
    (step,) = report["steps"]
    assert not step["pass"] and isinstance(step["violations"], FourierTable)
    assert len(step["violations"]) == 1024
    rows = list(step["violations"])
    assert step["violations"][-3:] == rows[-3:] and step["violations"][::100] == rows[::100]
    want = _oracle(report)
    assert _written(report) == want and want[1] is None

    def refuse(*args):
        raise AssertionError("a row dict was built on the write path")

    monkeypatch.setattr(FourierTable, "__iter__", refuse)
    monkeypatch.setattr(FourierTable, "__getitem__", refuse)
    assert _written(report) == want


def test_report_longer_than_one_write_chunk_matches_oracle():
    # 3 pieces a row: the 30,000-row table alone spans two write chunks, and
    # the tables around it put the chunk boundaries at other depths.
    rng = np.random.default_rng(5)
    templates = [{"re": 0.5, "im": -0.0, "modulus": 1.0, "exact": True},
                 {"re": math.nan, "stderr": Fraction(1, 3), "exact": False}, {}]
    big = FourierTable([f"({i},{i % 7}):{i % 3}" for i in range(30_000)],
                       rng.integers(0, 3, 30_000), templates, {"t": 0})
    small = FourierTable(['"q"', "back\\slash"], np.array([2, 0]), templates, {})
    report = {"schema": "s", "steps": [
        {"name": "a", "fourier_table": small, "nested": {"deep": [small, big]}},
        {"name": "b", "fourier_table": big, "violations": list(range(50))},
    ]}
    assert len(big) > _WRITE_CHUNK
    with tempfile.TemporaryDirectory() as outdir:
        write_report(report, outdir, "")
        written = (pathlib.Path(outdir) / "report.json").read_bytes()
    assert written == report_bytes(report) == oracles.report_bytes(report)


def test_report_text_holding_the_marker_matches_oracle(monkeypatch):
    # The first marker drawn occurs in the report as a value and as a key, so
    # the writer must draw another; the bytes do not depend on which.
    tokens = iter([b"\xfe\xed\xfa\xce", b"\xc0\xff\xee"])
    monkeypatch.setattr(experiment.os, "urandom", lambda n: next(tokens))
    table = FourierTable(["a", "b"], np.array([0, 0]), [{"re": 1.0}], {"t": 0})
    report = {"feedface": ["feedface", table], "steps": [], "t": table}
    assert report_bytes(report) == oracles.report_bytes(report)
    assert next(tokens, None) is None


# -- tables spliced from label bytes match the text writers ----------------------

_TEMPLATES = [{"re": 0.5, "im": -0.0, "modulus": 1.0, "stderr": 0.0, "exact": True},
              {"re": math.nan, "stderr": Fraction(1, 3), "exact": False, "b": np.float64(math.inf)},
              {}, {"re": 1e300, "b": "a,\"b"}]


def _table_labels():
    """Label sets: texts that need quoting or escaping, 1-D and 2-D sweeps, and none."""
    rank2 = ModuleSpec(make_ring("zmod:3"), 2)
    return {
        "texts": LabelBuffer.encode(['a"b\\c', "x,\r", "(0,1):1", "", "tab\t", "q\"", "plain",
                                     "(-1,2):3;(0,0):1", "\x7f", ","]),
        "sweep_1d": sweep_labels(ModuleSpec(make_ring("zmod:3"), 1), WindowSpec((1, 0), (-2,), (4,))),
        "sweep_2d": sweep_labels(rank2, WindowSpec((1, 1), (-1, 0), (2, 1))),
        "gf4": sweep_labels(ModuleSpec(make_ring("gf:2:2:1,1,1"), 1), WindowSpec((1, 1), (0, 3), (2, 2))),
        "empty": LabelBuffer.encode([]),
    }


def _outcome(call):
    try:
        return b"".join(call())
    except UnicodeEncodeError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("chunk", [1, 2, 7, _WRITE_CHUNK])
@pytest.mark.parametrize("name", sorted(_table_labels()))
def test_spliced_tables_match_the_text_writers(monkeypatch, chunk, name):
    labels = _table_labels()[name]
    rng = np.random.default_rng(len(labels))
    for n_classes in (1, 3, 4):
        ids = rng.integers(0, n_classes, len(labels))
        table = FourierTable(labels, ids, _TEMPLATES[:n_classes], {"t": 0})
        monkeypatch.setattr(experiment, "_WRITE_CHUNK", chunk)
        for depth in (0, 3):
            want = oracles.table_json(table, depth).encode("ascii")
            assert b"".join(_table_json(table, depth)) == want
        want = _outcome(lambda: [oracles.table_csv("step, \"1\"", table, _FOURIER_COLUMNS[2:])])
        assert _outcome(lambda: _table_csv("step, \"1\"", table, _FOURIER_COLUMNS[2:])) == want


def _csv_quotes(text):
    return experiment._csv_line(["x", text]) != f"x,{text}\n"


def _json_escapes(text):
    return json.dumps(text, ensure_ascii=True)[1:-1] != text


def test_label_bits_are_those_of_each_label_text():
    texts = ["trivial", 'a"b\\c', "x,\r", "é,\n", "\ud800", "", "(0,1):1", "tab\there", "\x7f"]
    cases = {**_table_labels(), "more": LabelBuffer.encode(texts)}
    for name, labels in cases.items():
        texts = [labels[i] for i in range(len(labels))]
        bits = experiment._label_bits(labels)
        # Decided per piece, a label's bits are those of its own text.
        assert [bool(b & experiment._QUOTED) for b in bits.tolist()] == list(map(_csv_quotes, texts))
        assert [bool(b & experiment._ESCAPED) for b in bits.tolist()] == list(map(_json_escapes, texts))
        rows = np.arange(len(labels))[::-2]
        assert (experiment._label_bits(labels.take(rows)) == bits[rows]).all()
    # Every 2-D site is written "(x,y):c", so every label of a 2-D sweep but "trivial" is quoted.
    bits = experiment._label_bits(cases["sweep_2d"])
    assert not bits[0] and (bits[1:] == experiment._QUOTED).all()


def test_non_ascii_table_text_is_refused_before_any_row():
    table = FourierTable(["(0):1", "é"], np.array([0, 0]), [{"re": 1.0}], {})
    with pytest.raises(UnicodeEncodeError):
        _table_csv("step", table, _FOURIER_COLUMNS[2:])  # raised by the call, not by reading
    used = FourierTable(["(0):1"], np.array([1]), [{"b": "é"}, {"re": 1.0}], {})
    assert b"".join(_table_csv("step", used, _FOURIER_COLUMNS[2:])) == oracles.table_csv(
        "step", used, _FOURIER_COLUMNS[2:])  # only the classes of rows are written
    with pytest.raises(UnicodeEncodeError):
        _table_csv("stép", used, _FOURIER_COLUMNS[2:])


# -- the in-memory table keeps the old list's behaviour ----------------------


def _sweep():
    sys_ = checkerboard_system()
    window = sys_.six_site_window()
    mu = kernel_haar(sys_.kernel, window, seed=1)
    return mu, window, fourier_sweep(mu, window)


def test_table_behaves_as_the_row_list():
    mu, window, sweep = _sweep()
    table = sweep.table(t=0)
    rows = [fourier(mu, chi).row(t=0) for chi in all_characters(mu.module, window)]
    assert len(table) == len(rows) == 64
    assert list(table) == rows
    assert [table[i] for i in range(len(rows))] == rows
    assert table[-1] == rows[-1]
    assert sweep.rows(t=0) == rows and sweep.row(5, t=0) == rows[5]
    with pytest.raises(IndexError):
        table[len(rows)]
    with pytest.raises(IndexError):
        table[-len(rows) - 1]
    assert [table[i] for i in range(-len(rows), 0)] == rows
    assert table[np.int64(3)] == rows[3]
    for cut in (slice(2, 9), slice(-5, None), slice(None, None, -3), slice(60, 100), slice(5, 2),
                slice(None)):
        assert table[cut] == rows[cut]
    for column in ("chi", "step"):
        with pytest.raises(InvalidParameterError):
            sweep.table(**{column: "x"})


def test_report_holds_a_table_equal_to_the_old_rows():
    text = bundled_config_path("example_checkerboard").read_text(encoding="utf-8")
    report = _suite_report(text)
    tables = [s["fourier_table"] for s in report["steps"] if "fourier_table" in s]
    assert tables and all(isinstance(t, FourierTable) for t in tables)
    for table in tables:
        assert len(table) == len(list(table)) > 0
        assert [table[i] for i in range(len(table))] == list(table)
        assert all(row["t"] == 0 and row["exact"] is True for row in table)


def test_json_default_turns_a_table_into_its_rows():
    report = _suite_report(bundled_config_path("example_checkerboard").read_text(encoding="utf-8"))
    table = next(s["fourier_table"] for s in report["steps"] if "fourier_table" in s)
    assert _json_default(table) == list(table)
    plain = {**report, "steps": [
        {**s, "fourier_table": list(s["fourier_table"])} if "fourier_table" in s else s
        for s in report["steps"]
    ]}
    assert json.dumps(report, default=_json_default) == json.dumps(plain, default=_json_default)
    assert oracles.report_bytes(report) == oracles.report_bytes(plain) == report_bytes(report)


# -- generated reports ---------------------------------------------------------

_ASCII = list('"\\,;:() a1-~') * 4 + list("\n\r\t\x00\x7f")
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _strategies(text):
    """(values, reports) strategies whose strings, labels and step names are `text`."""
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        _FLOATS,
        text,
        st.fractions(),
        st.fractions().map(lambda f: np.array(f, dtype=object)),  # two `default` steps
        st.frozensets(st.integers(), max_size=3),
        _FLOATS.map(np.float64),
        st.floats(width=32).map(np.float32),
        st.integers(-2**63, 2**63 - 1).map(np.int64),
        st.booleans().map(np.bool_),
    )

    @st.composite
    def tables(draw, values=scalars):
        n_classes = draw(st.integers(1, 4))
        keys = st.sampled_from(["re", "im", "modulus", "stderr", "exact", "b", "t", "zz"])
        templates = draw(st.lists(st.dictionaries(keys, values, max_size=6),
                                  min_size=n_classes, max_size=n_classes))
        labels = draw(st.lists(text, max_size=6))
        ids = draw(st.lists(st.integers(0, n_classes - 1), min_size=len(labels),
                            max_size=len(labels)))
        extra = draw(st.dictionaries(st.sampled_from(["t", "a", "zz"]), values, max_size=2))
        return FourierTable(labels, np.array(ids, dtype=np.int64), templates, extra)

    values = st.recursive(
        st.one_of(scalars, tables()),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(text, inner, max_size=4),
            st.dictionaries(st.integers(-5, 5), inner, max_size=3),
            st.dictionaries(st.floats(allow_nan=False), inner, max_size=3),
            st.dictionaries(st.booleans(), inner, max_size=2),
            st.dictionaries(st.none(), inner, max_size=1),
            tables(st.one_of(scalars, st.lists(scalars, max_size=2))),
        ),
        max_leaves=12,
    )
    row_keys = st.sampled_from(["chi", "n", "t", "re", "observed", "exact", "x"])
    rows = st.lists(st.dictionaries(row_keys, scalars, max_size=5), max_size=3)

    @st.composite
    def reports(draw):
        steps = []
        for _ in range(draw(st.integers(0, 3))):
            step = {"name": draw(text), "kind": draw(text), "pass": draw(st.booleans())}
            step["fourier_table"] = draw(st.one_of(tables(), tables(), rows, st.just([])))
            if draw(st.booleans()):
                step["mixing_table"] = draw(rows)
            step["nested"] = draw(values)
            steps.append(step)
        return {"schema": "modshift-report-v1", "steps": steps, "extra": draw(values),
                "empty": draw(st.sampled_from([{}, [], ()]))}

    return values, reports()


# ASCII text (printable, quotes, backslashes, commas and control characters)
# writes every file; any other text must fail at the CSV exactly as before.
_ASCII_VALUES, _ASCII_REPORTS = _strategies(st.text(alphabet=st.sampled_from(_ASCII), max_size=8))
_ANY_VALUES, _ANY_REPORTS = _strategies(
    st.text(alphabet=st.sampled_from(_ASCII + list("é€😀")), max_size=8) | st.text(max_size=4)
)
_GENERATED = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_GENERATED
@given(_ASCII_REPORTS)
def test_generated_ascii_reports_match_oracle(report):
    written, error = _written(report)
    assert (written, error) == _oracle(report) and error is None


@_GENERATED
@given(_ANY_REPORTS)
def test_generated_reports_match_oracle(report):
    assert _written(report) == _oracle(report)


@_GENERATED
@given(st.one_of(_ASCII_VALUES, _ANY_VALUES))
def test_generated_values_match_json_dumps(value):
    assert report_bytes(value) == oracles.report_bytes(value)


def test_special_values_are_written_as_json_writes_them():
    table = FourierTable(['a"b\\c', "é,\n", "(0,1):1"], np.array([1, 0, 1]),
                         [{"re": -0.0, "im": math.nan}, {"re": Fraction(1, 3), "b": np.float64(math.inf)}],
                         {"t": np.int64(0)})
    report = {"steps": [{"name": 'odd "name", with\ncomma', "fourier_table": table,
                         "nested": {"deep": [table, {"t": table, "n": np.bool_(True)}]}}]}
    assert report_bytes(report) == oracles.report_bytes(report)
    written, error = _written(report)
    assert (written, error) == _oracle(report)
    assert list(written) == ["report.json"] and error == "UnicodeEncodeError"  # CSV is ASCII
    ascii_only = FourierTable(['a"b\\c', "x,\r", "(0,1):1"], table.class_ids, table.templates,
                              table.extra)
    report["steps"][0]["fourier_table"] = ascii_only
    written, error = _written(report)
    assert (written, error) == _oracle(report) and error is None
    assert b'"a""b\\c"' in written["fourier.csv"] and b'"x,\r"' in written["fourier.csv"]


def test_importing_the_runner_leaves_the_worker_pool_unloaded():
    code = ("import sys, modshift.experiment; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 0 and run.stdout.strip() == "[]", run.stdout + run.stderr


# -- the benchmark's tracer still finds what it wraps ----------------------------


def test_tracer_selftest_exits_zero():
    """A traced run of every suite writes the untraced report bytes and restores every patch."""
    run = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr


def _tracer_tables():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            tables[node.targets[0].id] = node.value
    return tables


def test_tracer_functions_exist():
    functions = _tracer_tables()["FUNCTIONS"]
    named = 0
    for layer, value in zip(functions.keys, functions.values):
        module = importlib.import_module(f"modshift.{layer.value}")
        for name in value.elts[0].elts:
            assert callable(getattr(module, name.value, None)), f"modshift.{layer.value}.{name.value}"
            named += 1
    assert named > 50


def _method_names(node, tables):
    """The names a METHODS entry lists: a list literal, a named list, or a sum of them."""
    if isinstance(node, ast.Name):
        return _method_names(tables[node.id], tables)
    if isinstance(node, ast.BinOp):
        return _method_names(node.left, tables) + _method_names(node.right, tables)
    return ast.literal_eval(node)


# Names the tracer lists but finds nowhere it patches: measures.py has no
# fourier_root_sum since the Fourier paths merged, `marginal` exists only on
# the Haar measures, and TransformedMeasure inherits three methods from the
# unnamed MeasureHandle.  Pinned exactly, so a new gap fails and a mended one
# must leave this set.
_UNTRACED = {
    "BernoulliMeasure.fourier_root_sum", "BernoulliMeasure.marginal",
    "SubgroupHaarMeasure.fourier_root_sum", "CosetHaarMeasure.fourier_root_sum",
    "ExactWordMeasure.fourier_root_sum", "ExactWordMeasure.marginal",
    "TransformedMeasure.cylinder_probability", "TransformedMeasure.fourier_root_sum",
    "TransformedMeasure.enumerate_words", "TransformedMeasure.entropy_bits_per_site",
    "TransformedMeasure.marginal",
}


def test_tracer_method_classes_exist():
    tables = _tracer_tables()
    methods = tables["METHODS"]
    traced, untraced = 0, set()
    for layer, value in zip(methods.keys, methods.values):
        module = importlib.import_module(f"modshift.{layer.value}")
        classes = {pair.elts[0].value for pair in value.elts}
        for pair in value.elts:
            cls = getattr(module, pair.elts[0].value, None)
            assert isinstance(cls, type)
            for meth in _method_names(pair.elts[1], tables):
                # The tracer patches a method only in the __dict__ of a class
                # it names; a method defined anywhere else goes untimed.
                owner = next((c for c in cls.__mro__ if meth in c.__dict__), None)
                if owner is not None and owner.__name__ in classes:
                    traced += 1
                else:
                    untraced.add(f"{cls.__name__}.{meth}")
    assert untraced == _UNTRACED
    assert traced > 50


def test_write_report_returns_the_five_files(tmp_path):
    text = bundled_config_path("example_checkerboard").read_text(encoding="utf-8")
    paths = write_report(_suite_report(text), str(tmp_path), text)
    assert sorted(paths) == ["config_echo.cfg", "fourier.csv", "mixing.csv", "report.json",
                             "run_meta.json"]
    assert all(pathlib.Path(p).parent == tmp_path and pathlib.Path(p).is_file()
               for p in paths.values())
