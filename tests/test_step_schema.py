"""The step schema: every key declared once, checked before any step runs.

`STEP_KINDS` declares each kind's keys.  `parse_experiment` refuses a step
that breaks it, and at run time a step's `ModshiftError` is that step's
failure, not the run's.
"""

import json
import re
from pathlib import Path

import pytest

from modshift import ConfigParseError, chars, experiment
from modshift.errors import ENUMERATION_CAP, ResourceLimitError
from modshift.lattice import WindowSpec
from modshift.rings import ModuleSpec, make_ring
from modshift.cli import main
from modshift.experiment import STEP_KINDS, parse_experiment, run_experiment, run_file
from oracles import character_labels

ROOT = Path(__file__).resolve().parents[1]
KERNEL = "kernel ring=zmod:2 rank=1 dims=1,1 H=(-1,0):1;(0,0):1;(1,0):1;(0,1):1"
COUNT = f"kind = kernel-count\nkernel = {KERNEL}\nextents = 3 2\nexpected = 32\n"
SWEEP = "kind = haar-sweep\nmeasure = uniform\nring = zmod:2\nextents = 3\n"
HEAD = "[experiment]\nname = schema\nseed = 1\n\n"


def _suite(*steps):
    """A suite of ``(name, body)`` steps."""
    return HEAD + "".join(f"[step {name}]\n{body}\n" for name, body in steps)


def _refused(text):
    with pytest.raises(ConfigParseError) as refusal:
        parse_experiment(text)
    return str(refusal.value)


# -- README's table of step kinds ------------------------------------------------------

_KEY = re.compile(r"`([\w-]+)` \(([^,()]+)(?:, (required|`[^`]*`))?\)")


def _readme_rows():
    rows = {}
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.lstrip().startswith("| `") and len(cells) == 2:
            rows[cells[0].strip("`")] = [(k, t, d.strip("`") if d and d != "required" else d or None)
                                          for k, t, d in _KEY.findall(cells[1])]
    return rows


def _schema_row(keys):
    return [(key, spec.type.name,
             "required" if spec.default is experiment._REQUIRED else spec.default)
            for key, spec in keys.items()]


def test_readme_table_is_the_schema():
    rows = _readme_rows()
    want = {kind: _schema_row(spec.keys) for kind, spec in STEP_KINDS.items()}
    want.update({name: _schema_row(keys) for name, keys in experiment._MEASURES.items()})
    assert rows == want


# -- the refusals that once let a step run without its check -----------------------------


@pytest.mark.parametrize("line,key", [
    ("extnsion-check = true", "extnsion-check"),
    ("extension-check = True", "extension-check"),
    ("extension-check = yes", "extension-check"),
])
def test_a_misspelled_or_non_canonical_key_is_refused(line, key):
    message = _refused(_suite(("count", COUNT + line)))
    assert message.startswith("[step count]") and repr(key) in message
    if key == "extnsion-check":
        assert "closest: 'extension-check'" in message


def test_an_unknown_kind_is_refused_before_any_step_runs(monkeypatch):
    monkeypatch.setattr(experiment, "window_kernel", lambda *args: pytest.fail("a step ran"))
    message = _refused(_suite(("good", COUNT), ("typo", COUNT.replace("kernel-count", "kernl-count"))))
    assert message == ("[step typo] bad value for 'kind': 'kernl-count' "
                       "(unknown kind; closest: 'kernel-count')")


def test_a_non_positive_extent_is_refused_before_any_step_runs():
    message = _refused(_suite(("good", COUNT), ("bad", COUNT.replace("3 2", "4 -4"))))
    assert message == "[step bad] bad value for 'extents': '4 -4' (-4 is not positive)"


def test_the_header_reads_only_name_and_seed():
    message = _refused("[experiment]\nnmae = typo\nseed = 1\n")
    assert message == "[experiment] unknown key 'nmae'; closest: 'name'"


@pytest.mark.parametrize("sections", [("a", "a "), ("a", " a"), ("   ",)])
def test_step_names_are_unique_and_not_empty(sections):
    text = HEAD + "".join(f"[step {name}]\n{COUNT}\n" for name in sections)
    assert "needs a step name no other step has" in _refused(text)


@pytest.mark.parametrize("line", ["_force = false", "_force = true", "--force = true"])
def test_force_is_not_a_config_key(line):
    assert _refused(_suite(("sweep", SWEEP + line))).startswith("[step sweep] unknown key")


MIXING = f"kind = mixing\nmeasure = kernel\nkernel = {KERNEL}\nextents = 5 5\noffsets = (0,0)\n"


@pytest.mark.parametrize("body,key", [
    ("kind = frobenius-check\nrule = rule ring=zmod:2 rank=1 dims=1,0 H=(0):1;(1):1\nks =", "ks"),
    (MIXING + "n-schedule =", "n-schedule"),
    (MIXING.replace("(0,0)", ";"), "offsets"),
])
def test_an_empty_list_is_refused_not_passed_over(body, key):
    assert _refused(_suite(("empty", body))).startswith(f"[step empty] bad value for {key!r}")


def test_a_key_the_measure_does_not_read_is_refused():
    message = _refused(_suite(("sweep", SWEEP + "pattern = checkerboard")))
    assert message == "[step sweep] measure 'uniform' does not read 'pattern'"


# -- windows inside the measure window --------------------------------------------------

def test_unset_block_and_word_origins_follow_the_measure_window(capsys):
    measure = "measure = uniform\nring = zmod:2\norigin = 5\nextents = 4\n"
    report = run_experiment(parse_experiment(_suite(
        ("entropy", f"kind = entropy\n{measure}block-extents = 2\nexpected = 1.0\n"),
        ("mixing", f"kind = mixing\n{measure}offsets = (0);(1)\nn-schedule = 1 2 3\n"),
    )))
    entropy, mixing = report["steps"]
    assert entropy["pass"] and mixing["pass"] and entropy["bits_per_site"] == 1.0
    flags = ["--measure", "uniform", "--ring", "zmod:2", "--origin", "5", "--extents", "4"]
    assert main(["measure", "entropy", *flags, "--block-extents", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == {"bits_per_site": entropy["bits_per_site"]}
    assert main(["measure", "mixing", *flags, "--offsets", "(0);(1)", "--n-schedule", "1 2 3"]) == 0
    assert json.loads(capsys.readouterr().out) == {"mixing": mixing["mixing_table"]}


# -- failed steps -------------------------------------------------------------------------

UNCOVERED = ("kind = pushforward-invariance\n"
             "rule = rule ring=zmod:6 rank=1 dims=1,0 H=(0):1;(1):5\nextents = 5\n"
             "target-extents = 3\ntarget-origin = 4\n")


def test_a_step_that_raises_is_a_failed_step_and_the_run_goes_on(tmp_path, capsys):
    text = _suite(("good", COUNT), ("uncovered", UNCOVERED), ("after", COUNT))
    report = run_experiment(parse_experiment(text))
    assert [(s["name"], s["pass"]) for s in report["steps"]] == [
        ("good", True), ("uncovered", False), ("after", True)]
    error = "InvalidParameterError: pushforward window does not cover the target window"
    assert report["steps"][1]["error"] == error
    path = tmp_path / "suite.cfg"
    path.write_text(text)
    assert main(["experiment", "run", str(path), "--out", str(tmp_path / "rep")]) == 1
    failed = json.loads(capsys.readouterr().out)["failed"]
    assert failed == [{"step": "uncovered", "kind": "pushforward-invariance", "error": error}]
    written = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert [s["name"] for s in written["steps"]] == ["good", "uncovered", "after"]


def test_an_error_outside_the_package_still_propagates(monkeypatch):
    def broken(step, seed):
        raise ZeroDivisionError("a bug")

    kind = STEP_KINDS["kernel-count"]
    monkeypatch.setitem(STEP_KINDS, "kernel-count", kind._replace(handler=broken))
    with pytest.raises(ZeroDivisionError):
        run_experiment(parse_experiment(_suite(("count", COUNT))))


# -- --force --------------------------------------------------------------------------------


def _spy_sweep(monkeypatch, raise_limit=False):
    limits = []
    real = experiment.fourier_sweep

    def spy(mu, window, limit):
        limits.append(limit)
        if raise_limit:
            raise ResourceLimitError(f"sweep of 8 characters exceeds the cap {limit}", 8)
        return real(mu, window, limit=limit)

    monkeypatch.setattr(experiment, "fourier_sweep", spy)
    return limits


@pytest.mark.parametrize("force,limit", [(False, ENUMERATION_CAP), (True, 1 << 24)])
def test_force_raises_only_the_sweep_cap(tmp_path, monkeypatch, force, limit):
    limits = _spy_sweep(monkeypatch)
    path = tmp_path / "suite.cfg"
    path.write_text(_suite(("sweep", SWEEP)))
    argv = ["experiment", "run", str(path), "--out", str(tmp_path / "rep")]
    assert main(argv + ["--force"] * force) == 0
    assert limits == [limit]


@pytest.mark.parametrize("force,hint", [(False, " (use --force to raise caps)"), (True, "")])
def test_the_force_hint_is_given_only_without_force(tmp_path, capsys, monkeypatch, force, hint):
    _spy_sweep(monkeypatch, raise_limit=True)
    path = tmp_path / "suite.cfg"
    path.write_text(_suite(("sweep", SWEEP)))
    assert run_file(str(path), str(tmp_path / "rep"), force=force) == 1
    (failed,) = json.loads(capsys.readouterr().out)["failed"]
    cap = 1 << 24 if force else ENUMERATION_CAP
    assert failed["error"] == f"resource limit: sweep of 8 characters exceeds the cap {cap}{hint}"


def test_a_forced_sweep_past_the_cap_is_checked_once_and_written(tmp_path, monkeypatch):
    # With the unforced cap below this 16-character sweep, only --force runs it.  Its size
    # is checked once, against the cap the sweep was given: reading its labels for the
    # table and the report adds no check of its own.
    monkeypatch.setattr(experiment, "ENUMERATION_CAP", 8)
    limits = []
    real = chars._check_sweep_size

    def spy(module, window, limit):
        limits.append(limit)
        return real(module, window, limit)

    monkeypatch.setattr(chars, "_check_sweep_size", spy)
    path = tmp_path / "suite.cfg"
    path.write_text(_suite(("sweep", SWEEP.replace("extents = 3", "extents = 4"))))
    argv = ["experiment", "run", str(path), "--out", str(tmp_path / "rep")]
    assert main(argv) == 1 and limits == [8]
    limits.clear()
    assert main(argv + ["--force"]) == 0 and limits == [1 << 24]
    (step,) = json.loads((tmp_path / "rep" / "report.json").read_text())["steps"]
    want = character_labels(ModuleSpec(make_ring("zmod:2"), 1), WindowSpec((1, 0), (0,), (4,)))
    assert [row["chi"] for row in step["fourier_table"]] == want
    lines = (tmp_path / "rep" / "fourier.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == want
