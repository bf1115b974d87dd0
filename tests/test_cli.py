import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import modshift
from modshift import ModuleSpec, WindowSpec, ZmodRing, constant_config, decode_config, encode_config
from modshift.cli import build_parser, main
from modshift.shiftpoly import from_rule, parse_rule, poly_pow
from modshift.experiment import (
    bundled_config_path,
    parse_experiment,
    report_bytes,
    run_experiment,
)

KERNEL = "kernel ring=zmod:2 rank=1 dims=1,1 H=(-1,0):1;(0,0):1;(1,0):1;(0,1):1"
RULE = "rule ring=zmod:2 rank=1 dims=1,1 H=(0,0):1;(0,1):1;(1,0):1"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_lca_power(capsys):
    code, out = run_cli(
        capsys, "lca", "power", "--rule", "rule ring=zmod:2 rank=1 dims=1,0 H=(0):1;(1):1", "--t", "4"
    )
    assert code == 0
    assert out["terms"] == [[[0], 1], [[4], 1]]


@pytest.mark.parametrize(
    "ring,coeffs,digits",
    [("zmod:3", (1, 2, 1), True), ("gf:2:2", (1, 2, 3), True), ("prod:[zmod:2;gf:2:2]", (1, 6, 3), True),
     ("zmod:6", (1, 5, 2), False), ("zmod:4", (1, 3, 2), False)],
)
def test_lca_power_picks_its_route_from_the_ring(capsys, monkeypatch, ring, coeffs, digits):
    from modshift import measures

    text = f"rule ring={ring} rank=1 dims=1,1 H=(0,0):{coeffs[0]};(1,0):{coeffs[1]};(-1,1):{coeffs[2]}"
    f = from_rule(parse_rule(text))
    p = f.ring.characteristic
    routes = []

    def recording(name):
        power = getattr(measures, name)

        def record(f, t):
            routes.append(name)
            return power(f, t)
        return record

    for name in ("poly_pow", "poly_pow_charp"):
        monkeypatch.setattr(measures, name, recording(name))
    for t in (0, 1, p, p**3 - 1):
        code, out = run_cli(capsys, "lca", "power", "--rule", text, "--t", str(t))
        assert code == 0 and out["terms"] == [[list(off), c] for off, c in poly_pow(f, t).terms]
    assert routes == ["poly_pow_charp" if digits else "poly_pow"] * 4


def test_lca_power_refuses_frobenius_flag(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["lca", "power", "--rule", "rule ring=zmod:3 rank=1 dims=1,0 H=(0):1;(1):2",
              "--t", "9", "--frobenius"])
    assert exit_.value.code == 2 and "--frobenius" in capsys.readouterr().err


def test_readme_command_lines_parse():
    """Every `modshift ...` line of README's command-line block names only flags that exist."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("modshift ")]
    assert len(lines) >= 12
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_lca_step_and_files(tmp_path, capsys, cb_system):
    cfg = cb_system.checkerboard(cb_system.window(8, 8), mode="torus")
    src = tmp_path / "cb.cfg"
    dst = tmp_path / "out.cfg"
    src.write_text(encode_config(cfg))
    code, out = run_cli(
        capsys, "lca", "step", "--rule", RULE, "--config", str(src),
        "--steps", "3", "--out", str(dst),
    )
    assert code == 0
    assert decode_config(dst.read_text()) == cfg  # fixed point


def test_lca_frobenius_check(capsys):
    code, out = run_cli(
        capsys, "lca", "frobenius-check", "--rule", RULE, "--k", "2",
        "--torus", "16,16", "--configs", "2",
    )
    assert code == 0 and out["pass"]


def test_shift_kernel(capsys):
    code, out = run_cli(
        capsys, "shift", "kernel", "--kernel", KERNEL, "--extents", "3,2"
    )
    assert code == 0
    assert out["solution_count"] == 32


def test_shift_coset_check(tmp_path, capsys, cb_system):
    cfg = cb_system.checkerboard(cb_system.window(8, 6))
    path = tmp_path / "cb.cfg"
    path.write_text(encode_config(cfg))
    code, out = run_cli(capsys, "shift", "coset-check", "--kernel", KERNEL, "--config", str(path))
    assert code == 0 and out["coset_shift"] and not out["kernel_member"]


def test_shift_mixing_check(capsys):
    code, out = run_cli(
        capsys, "shift", "mixing-check", "--kernel", KERNEL,
        "--offsets", "(0,0);(0,1);(1,0)", "--n", "8",
    )
    assert code == 0 and out["nonempty"]


def test_measure_fourier_exact(capsys):
    code, out = run_cli(
        capsys, "measure", "fourier", "--measure", "kernel", "--kernel", KERNEL,
        "--extents", "3,2", "--chi", "(0,0):1", "--budget", "exact",
    )
    assert code == 0 and out["modulus"] == 0.0 and out["exact"]


def test_measure_mixing(capsys):
    code, out = run_cli(
        capsys, "measure", "mixing", "--measure", "kernel", "--kernel", KERNEL,
        "--extents", "9,9", "--offsets", "(0,0);(0,1);(1,0)",
        "--n-schedule", "1 2", "--budget", "exact",
    )
    assert code == 0
    assert all(abs(row["deviation"]) < 1e-12 for row in out["mixing"])


def test_measure_entropy(capsys):
    code, out = run_cli(
        capsys, "measure", "entropy", "--measure", "uniform", "--ring", "zmod:2",
        "--dims", "1 0", "--extents", "6", "--block-extents", "2",
        "--samples", "exact",
    )
    assert code == 0 and abs(out["bits_per_site"] - 1.0) < 1e-12


def test_crt_split_files(tmp_path, capsys):
    mod = ModuleSpec(ZmodRing(6), 1)
    win = WindowSpec((1, 0), (0,), (4,))
    cfg = constant_config(mod, win, 5)
    src = tmp_path / "c6.cfg"
    src.write_text(encode_config(cfg))
    code, out = run_cli(
        capsys, "crt", "split", "--config", str(src), "--out", str(tmp_path / "parts")
    )
    assert code == 0
    p2, p3 = out["components"]
    assert decode_config(open(p2).read()).values.ravel()[0] == 1
    assert decode_config(open(p3).read()).values.ravel()[0] == 2


def test_crt_split_prime_power_is_degenerate(tmp_path, capsys):
    cfg = constant_config(ModuleSpec(ZmodRing(4), 1), WindowSpec((1, 0), (0,), (3,)), 3)
    src = tmp_path / "c4.cfg"
    src.write_text(encode_config(cfg))
    code, out = run_cli(capsys, "crt", "split", "--config", str(src), "--out", str(tmp_path / "parts"))
    assert code == 0 and out["degenerate"] is True
    (part,) = out["components"]
    assert decode_config(open(part).read()) == cfg


def test_cli_error_exit_code(capsys):
    code = main(["shift", "kernel", "--kernel", "kernel ring=zmod:2 rank=1 H=", "--extents", "3"])
    err = capsys.readouterr().err
    assert code == 2 and "error" in err


UNIFORM = ("--measure", "uniform", "--ring", "zmod:2", "--extents", "4")


@pytest.mark.parametrize(
    "argv,kind,flag",
    [
        (["measure", "fourier", *UNIFORM, "--chi", "(0):1", "--budget", "abc"], "ConfigParseError", "--budget"),
        (["shift", "kernel", "--kernel", KERNEL, "--extents", "2,x"], "ConfigParseError", "--extents"),
        (["shift", "mixing-check", "--kernel", KERNEL, "--offsets", "(1,a)", "--n", "1"],
         "ConfigParseError", "--offsets"),
        (["measure", "entropy", *UNIFORM, "--dims", "1", "--block-extents", "2"], "ConfigParseError", "--dims"),
        (["measure", "fourier", "--measure", "kernel", "--extents", "3,2", "--chi", "trivial"],
         "ConfigParseError", "--kernel"),
        (["measure", "fourier", "--measure", "coset", "--kernel", KERNEL, "--extents", "3,2",
          "--chi", "trivial"], "ConfigParseError", "--rep"),
        (["measure", "mixing", *UNIFORM, "--offsets", "(1)", "--n-schedule", "1,x"],
         "ConfigParseError", "--n-schedule"),
        (["measure", "mixing", *UNIFORM, "--offsets", "(1)", "--word-value", "q"],
         "ConfigParseError", "--word-value"),
        (["measure", "entropy", *UNIFORM, "--block-extents", "2", "--samples", "0"],
         "InvalidParameterError", "n_samples"),
        (["measure", "mixing", *UNIFORM, "--offsets", "(1)", "--budget", "-3"],
         "InvalidParameterError", "sample budget"),
        (["measure", "mixing", "--measure", "kernel", "--kernel", KERNEL, "--extents", "9,9",
          "--offsets", "(1);(0)", "--n-schedule", "1 2"], "InvalidParameterError", "offset (1,)"),
        (["shift", "mixing-check", "--kernel", KERNEL, "--offsets", "(1,0,7);(0,2)", "--n", "3"],
         "InvalidParameterError", "offset (1, 0, 7)"),
        (["shift", "mixing-check", "--kernel", KERNEL, "--offsets", "(1);(0,2)", "--n", "3"],
         "InvalidParameterError", "offset (1,)"),
        (["shift", "mixing-check", "--kernel", KERNEL, "--offsets", "(0,0);(1,0)",
          "--n", "9223372036854775808"], "InvalidParameterError", "offset (1, 0) at n = 9223372036854775808"),
        (["shift", "mixing-check", "--kernel", KERNEL, "--offsets", "(0,0);(0,1);(1,0)",
          "--n", "2048"], "ResourceLimitError", "cells (sites x free sites)"),
        (["measure", "mixing", "--measure", "kernel", "--kernel", KERNEL, "--extents", "9,9",
          "--offsets", "(0,0);(0,1)", "--n-schedule", "9223372036854775808"],
         "InvalidParameterError", "offset (0, 1) at n = 9223372036854775808"),
        (["measure", "fourier", "--measure", "uniform", "--ring", "zmod:2", "--dims", "2 0",
          "--extents", "4 4", "--chi", "(1):1"], "InvalidParameterError", "site (1,)"),
        (["measure", "fourier", "--measure", "uniform", "--ring", "zmod:2", "--dims", "2 0",
          "--extents", "4 4", "--chi", "(1):1", "--budget", "100"], "InvalidParameterError", "site (1,)"),
        (["measure", "fourier", "--measure", "coset", "--rep", "r.cfg", "--kernel", KERNEL,
          "--extents", "9 9", "--ring", "zmod:7", "--chi", "trivial"], "ConfigParseError", "--ring"),
        (["measure", "fourier", "--measure", "uniform", *UNIFORM[2:], "--kernel", "garbage",
          "--rep", "nofile", "--chi", "trivial"], "ConfigParseError", "--kernel"),
        (["measure", "entropy", "--measure", "kernel", "--kernel", KERNEL, "--extents", "3 2",
          "--dims", "1 1", "--block-extents", "2"], "ConfigParseError", "--dims"),
        (["measure", "mixing", "--measure", "kernel", "--kernel", KERNEL, "--extents", "3 2",
          "--rank", "1", "--offsets", "(0,0)"], "ConfigParseError", "--rank"),
    ],
)
def test_malformed_flags_exit_2_with_typed_error(capsys, argv, kind, flag):
    code = main(argv)
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and err["type"] == kind and flag in err["error"]


def test_coset_window_flags_must_be_the_rep_window(tmp_path, capsys):
    rep = tmp_path / "r.cfg"
    window = WindowSpec((1, 1), (0, 0), (4, 3))
    rep.write_text(encode_config(constant_config(ModuleSpec(ZmodRing(2), 1), window, 0)))
    base = ["measure", "fourier", "--measure", "coset", "--kernel", KERNEL, "--rep", str(rep),
            "--chi", "trivial"]
    code, out = run_cli(capsys, *base, "--extents", "4 3")
    assert code == 0 and out["re"] == 1.0
    for flags in (["--extents", "9 9"], ["--extents", "4 3", "--origin", "1 0"]):
        assert main(base + flags) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ConfigParseError" and "--rep" in err["error"]


@pytest.mark.parametrize(
    "argv,kind,named",
    [
        (["experiment", "run", "{dir}"], "IsADirectoryError", "{dir}"),
        (["experiment", "run", "{latin1}", "--out", "{dir}/rep"], "ConfigParseError", "{latin1}"),
        (["experiment", "run", "example_checkerboard", "--out", "{file}"], "FileExistsError", "{file}"),
        (["crt", "split", "--config", "{missing}"], "FileNotFoundError", "{missing}"),
        (["crt", "split", "--config", "{latin1}"], "ConfigParseError", "{latin1}"),
        (["crt", "split", "--config", "{file}", "--out", "{file}"], "FileExistsError", "{file}"),
        (["lca", "step", "--rule", RULE, "--config", "{missing}"], "FileNotFoundError", "{missing}"),
        (["lca", "step", "--rule", RULE, "--config", "{dir}"], "IsADirectoryError", "{dir}"),
        (["lca", "step", "--rule", RULE, "--config", "{latin1}"], "ConfigParseError", "{latin1}"),
        (["shift", "coset-check", "--kernel", KERNEL, "--config", "{missing}"],
         "FileNotFoundError", "{missing}"),
    ],
)
def test_unreadable_paths_exit_2_with_typed_error(tmp_path, capsys, argv, kind, named):
    cfg = constant_config(ModuleSpec(ZmodRing(6), 1), WindowSpec((1, 0), (0,), (4,)), 5)
    (tmp_path / "c6.cfg").write_text(encode_config(cfg))
    (tmp_path / "latin1.cfg").write_bytes(encode_config(cfg).replace("\n", "\n# caf\xe9\n", 1)
                                          .encode("latin-1"))
    paths = {"dir": str(tmp_path), "file": str(tmp_path / "c6.cfg"),
             "missing": str(tmp_path / "missing.cfg"), "latin1": str(tmp_path / "latin1.cfg")}
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert code == 2 and captured.out == ""
    assert err["type"] == kind and named.format(**paths) in err["error"]


def test_flag_numbers_parse_as_before(capsys):
    # A trailing ';' and an empty origin were accepted and ignored before.
    code, out = run_cli(
        capsys, "shift", "mixing-check", "--kernel", KERNEL,
        "--offsets", "(0,0);(0,1);(1,0);", "--n", "8",
    )
    assert code == 0 and out["nonempty"]
    code, out = run_cli(capsys, "shift", "kernel", "--kernel", KERNEL, "--extents", "3, 2", "--origin", "")
    assert code == 0 and out["window"] == str(WindowSpec((1, 1), (0, 0), (3, 2)))
    code, out = run_cli(
        capsys, "measure", "entropy", *UNIFORM, "--dims", "1,0,0", "--block-extents", "2",
        "--samples", "exact",
    )
    assert code == 0 and abs(out["bits_per_site"] - 1.0) < 1e-12


def test_experiment_run_bundled(tmp_path, capsys):
    code = main(["experiment", "run", "example_checkerboard", "--out", str(tmp_path / "rep")])
    assert code == 0
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert report["ok"] and report["summary"]["failed"] == 0
    assert (tmp_path / "rep" / "fourier.csv").exists()
    assert (tmp_path / "rep" / "mixing.csv").exists()
    assert (tmp_path / "rep" / "config_echo.cfg").read_text() == bundled_config_path(
        "example_checkerboard"
    ).read_text()


def test_experiment_reports_identical_across_workers():
    text = bundled_config_path("example_checkerboard").read_text()
    config = parse_experiment(text)
    blobs = {report_bytes(run_experiment(config, workers=w)) for w in (1, 4, 8)}
    assert len(blobs) == 1
    again = report_bytes(run_experiment(config, workers=1))
    assert again in blobs


def test_experiment_failure_exit(tmp_path, capsys):
    bad = """
[experiment]
name = failing
seed = 5

[step wrong_count]
kind = kernel-count
kernel = kernel ring=zmod:2 rank=1 dims=1,1 H=(-1,0):1;(0,0):1;(1,0):1;(0,1):1
origin = 0 0
extents = 3 2
expected = 31
"""
    path = tmp_path / "bad.cfg"
    path.write_text(bad)
    code = main(["experiment", "run", str(path), "--out", str(tmp_path / "rep")])
    out = capsys.readouterr().out
    assert code == 1
    assert "wrong_count" in out


def test_cli_subprocess_entrypoint():
    # The child interpreter imports the same package as this process, also
    # when only pytest's own path setting put it on sys.path.
    src = os.path.dirname(os.path.dirname(modshift.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "modshift.cli", "shift", "kernel",
         "--kernel", KERNEL, "--extents", "3,2"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["solution_count"] == 32
