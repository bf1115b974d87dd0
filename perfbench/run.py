"""Benchmark of modshift experiment suites, end to end and layer by layer.

    python3 perfbench/run.py --workload lca|kernel|haar|all --seed N --seconds S --trace 0|1

Each workload is an experiment config in ``perfbench/workloads``.  The seed is
written into its ``[experiment] seed``.  One timed sample runs the suite the
way ``modshift experiment run`` does, in a fresh interpreter
(``perfbench/sample.py``), so no in-process cache carries from one sample to
the next.  Samples run one at a time, with BLAS/OpenMP pinned to one thread.

The machine's speed drifts, so the fixed reference work of
``perfbench/reference.py`` runs before every sample and after the last one.
``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time from
spawning an interpreter to a parsed suite) and ``run_s`` (median suite time,
run plus report write), both in seconds at the reference speed, and
``peak_rss_mb`` (median ``ru_maxrss`` of the sample processes).  The first
sample of a run only warms up; its times are not used.  ``--trace 1``
alternates untraced and traced samples and reports the per-layer metrics of
the traced ones (medians), ``trace.overhead_s`` and ``fail_ratio``.
``--workload all`` runs every workload untraced and prints one summary row
each.

Every sample is checked: each step must pass, and ``report.json`` must match
the pinned SHA-256 at the workload's default seed, or the run's first sample at
any other seed.  A step that fails, or every step of a sample whose digest
differs or whose process fails, counts as failed.  The last line of output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
result file with the environment and every sample goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lca", "kernel", "haar")
SAMPLE_TIMEOUT_S = 100
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
# Seconds that one ``reference_work`` takes at the reference speed.  A time
# measured while the reference work took r seconds is reported as
# time * REFERENCE_S / r: seconds on a machine where it takes REFERENCE_S.
REFERENCE_S = 0.25


def per_layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name in ("fail_ratio", "linalg.rref_per_kernel"):
        return "ratio"
    if name == "experiment.report_bytes":
        return "bytes"
    return "count"


class BenchError(Exception):
    """The benchmark cannot run here; nothing is reported."""


def child_env(workdir):
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["TMPDIR"] = workdir
    env.pop("PYTHONPATH", None)
    return env


def environment():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {var: "1" for var in THREAD_VARS},
        "workers": 1,
        "concurrent_samples": 1,
    }


def workload_text(name, seed):
    """The workload config with ``seed`` written into ``[experiment]``; and its default seed."""
    path = os.path.join(HERE, "workloads", f"{name}.cfg")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.read_string(text)
    default_seed = int(parser["experiment"]["seed"])
    n_steps = sum(1 for s in parser.sections() if s.startswith("step "))
    if seed is None:
        seed = default_seed
    text, n = re.subn(r"(?m)^seed\s*=.*$", f"seed = {int(seed)}", text, count=1)
    if n != 1:
        raise BenchError(f"{path}: no seed line")
    return text, seed, default_seed, n_steps


def run_child(args, env):
    """Start one sample process, wait for it, return (spawn time, parsed JSON or None, stderr)."""
    cmd = [sys.executable, os.path.join(HERE, "sample.py")] + args
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return spawn, None, "timeout"
    if proc.returncode != 0:
        return spawn, None, proc.stderr[-2000:]
    try:
        return spawn, json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return spawn, None, "unparsable sample output"


class Run:
    """Samples of one workload at one seed, with their verdict accounting."""

    def __init__(self, workload, seed):
        if not os.path.isfile(os.path.join(ROOT, "src", "modshift", "__init__.py")):
            raise BenchError(f"no modshift sources under {os.path.join(ROOT, 'src')}")
        self.workload = workload
        self.text, self.seed, self.default_seed, self.n_steps = workload_text(workload, seed)
        with open(os.path.join(HERE, "pins.json"), "r", encoding="utf-8") as fh:
            pins = json.load(fh)
        self.expected_digest = None
        if self.seed == self.default_seed:
            self.expected_digest = pins[workload]
        base = os.path.join(ROOT, ".perfbench")
        os.makedirs(base, exist_ok=True)
        self.workdir = os.path.join(base, f"work-{workload}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.config_path = os.path.join(self.workdir, "workload.cfg")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(self.text)
        self.env = child_env(self.workdir)
        self.references = []  # {part: seconds}, before each sample and after the last
        self.samples = []  # (traced, result dict or None, error text)
        self.attempted = 0
        self.failed = 0
        self.first_digest = None
        self.sample_env = {}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def calibrate(self):
        self.references.append(reference.reference_work())

    def sample(self, traced):
        outdir = os.path.join(self.workdir, f"out{len(self.samples)}")
        args = ["--config", self.config_path, "--out", outdir]
        spans_path = None
        if traced:
            spans_path = os.path.join(ROOT, ".perfbench", f"spans-{self.workload}-seed{self.seed}.json")
            args += ["--trace", spans_path]
        spawn, out, err = run_child(args, self.env)
        shutil.rmtree(outdir, ignore_errors=True)
        self.attempted += self.n_steps
        if out is None:
            self.failed += self.n_steps
            self.samples.append((traced, None, err))
            return
        out["setup_s"] = out["ready"] - spawn
        self.sample_env = out["env"]
        if self.first_digest is None:
            self.first_digest = out["digest"]
        want = self.expected_digest or self.first_digest
        if out["digest"] != want or out.get("unrestored"):
            self.failed += self.n_steps
            err = "report.json digest differs" if out["digest"] != want else "tracer left patches"
        else:
            self.failed += sum(1 for s in out["steps"] if not s["pass"])
        if spans_path:
            out["spans_file"] = os.path.relpath(spans_path, ROOT)
        self.samples.append((traced, out, err))

    def timed(self):
        """(traced, result, reference seconds around it) of every completed sample but the first."""
        out = []
        for i, (traced, o, _) in enumerate(self.samples):
            if i > 0 and o is not None:
                around = (sum(self.references[i - 1].values()) + sum(self.references[i].values())) / 2
                out.append((traced, o, around))
        return out

    def times(self, traced, key, scaled=False):
        return [o[key] * (REFERENCE_S / r if scaled else 1.0)
                for t, o, r in self.timed() if t == traced]


def measure(workload, seed, seconds, trace):
    """Sample until the next sample would end after ``seconds``; at least one of each kind.

    The first sample compiles bytecode and warms the page cache; its verdicts
    count, its times do not.
    """
    run = Run(workload, seed)
    try:
        start = time.monotonic()
        run.sample(traced=False)
        minimum = 3 if trace else 2
        walls = []
        while True:
            elapsed = time.monotonic() - start
            if len(run.samples) >= minimum and elapsed + statistics.median(walls) > seconds:
                break
            t0 = time.monotonic()
            run.calibrate()
            run.sample(traced=trace and len(run.samples) % 2 == 0)
            walls.append(time.monotonic() - t0)
        run.calibrate()
        return summarize(run, trace)
    finally:
        run.close()


def summarize(run, trace):
    untraced = run.times(False, "run_s")
    if not untraced or (trace and not run.times(True, "run_s")):
        errors = sorted({e for _, _, e in run.samples if e})
        raise BenchError(f"{run.workload}: no sample completed: {'; '.join(errors)[:2000]}")
    if not trace:
        metrics = {
            "setup_s": statistics.median(run.times(False, "setup_s", scaled=True)),
            "run_s": statistics.median(run.times(False, "run_s", scaled=True)),
            "peak_rss_mb": statistics.median(run.times(False, "peak_rss_mb")),
        }
        units = END_TO_END
    else:
        traced = [o for t, o, _ in run.samples if t and o is not None]
        names = list(traced[0]["per_layer"]) if traced else []
        units = {name: per_layer_unit(name) for name in names}
        metrics = {}
        for name in names:
            values = [o["per_layer"][name] for o in traced]
            # Counts repeat exactly from run to run; keep them whole.
            metrics[name] = statistics.median_low(values) if units[name] == "count" else statistics.median(values)
        metrics["trace.overhead_s"] = statistics.median(run.times(True, "run_s")) - statistics.median(untraced)
        metrics["fail_ratio"] = run.failed / run.attempted
        units.update({"trace.overhead_s": "s", "fail_ratio": "ratio"})
    counts = {
        "untraced_samples": len(untraced),
        "traced_samples": len(run.times(True, "run_s")),
    }
    result = {
        "workload": run.workload,
        "seed": run.seed,
        "default_seed": run.default_seed,
        "pinned_digest_checked": run.expected_digest is not None,
        "trace": int(trace),
        "environment": {**environment(), **run.sample_env},
        "counts": counts,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "wall_medians": {
            "setup_s": statistics.median(run.times(False, "setup_s")),
            "run_s": statistics.median(untraced),
        },
        "reference_s": run.references,
        "attempted": run.attempted,
        "failed": run.failed,
        "samples": [
            {"traced": t, "error": e, **({k: v for k, v in o.items() if k != "per_layer"} if o else {})}
            for t, o, e in run.samples
        ],
    }
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(results_dir, f"{run.workload}-seed{run.seed}-trace{int(trace)}-{stamp}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    result["result_file"] = os.path.relpath(path, ROOT)
    return result


def print_result(result):
    c = result["counts"]
    w = result["wall_medians"]
    print(f"# workload {result['workload']} seed {result['seed']}: "
          f"{c['untraced_samples']} untraced samples, {c['traced_samples']} traced; "
          f"wall-clock medians setup_s {w['setup_s']:.4f} run_s {w['run_s']:.4f}; "
          f"result file {result['result_file']}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for sample in result["samples"]:
        if sample["error"]:
            print(f"# sample failed: {sample['error']}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=None, help="default: the workload's own seed")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload != "all":
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            print_result(result)
            summary = {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        else:
            summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            rows = []
            for name in WORKLOADS:
                result = measure(name, args.seed, args.seconds, False)
                m = result["metrics"]
                m["fail_ratio"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
                rows.append((name, result))
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
                summary["metrics"].update({f"{name}.{k}": v for k, v in m.items()})
            summary["correct"] = summary["failed"] == 0
            print(f"{'workload':8} {'setup_s':>9} {'run_s':>9} {'samples':>7} {'peak_rss_mb':>11} {'fail_ratio':>10}")
            for name, result in rows:
                m = result["metrics"]
                print(f"{name:8} {m['setup_s']['value']:9.4f} {m['run_s']['value']:9.4f} "
                      f"{result['counts']['untraced_samples']:7d} {m['peak_rss_mb']['value']:11.1f} "
                      f"{m['fail_ratio']['value']:10.4f}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
