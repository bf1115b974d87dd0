"""Self-test of the benchmark's tracer.

    python3 perfbench/selftest.py

Runs each suite untraced and then traced in this process and checks that

* the traced run writes the same ``report.json`` bytes as the untraced one;
* after ``uninstall`` every patched attribute is the original object again,
  in every ``modshift.*`` module namespace and on every class;
* the restore check is not vacuous: while installed it reports the patches.

It uses the two bundled suites and the three benchmark workloads (about half
a minute).  Exits 0 when every check holds.
"""

from __future__ import annotations

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from modshift import experiment  # noqa: E402
from tracer import Tracer, _package_modules  # noqa: E402


def snapshot():
    """Identity of every module attribute and class attribute in the package."""
    out = {}
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("modshift"):
                for cattr, cvalue in vars(value).items():
                    out[(mod.__name__, attr, cattr)] = cvalue
    return out


def report_bytes(text, outdir):
    config = experiment.parse_experiment(text)
    report = experiment.run_experiment(config, workers=1)
    experiment.write_report(report, outdir, text)
    with open(os.path.join(outdir, "report.json"), "rb") as fh:
        return fh.read(), report["ok"]


def check(label, text, tmp):
    failures = []
    before = snapshot()
    plain, ok_plain = report_bytes(text, os.path.join(tmp, label, "plain"))
    tracer = Tracer().install()
    try:
        if not tracer.check_restored(tracer._patches):
            failures.append("restore check saw no patches while installed")
        traced, ok_traced = report_bytes(text, os.path.join(tmp, label, "traced"))
    finally:
        restored = tracer.uninstall()
    if traced != plain:
        failures.append("traced report.json differs from untraced")
    if not (ok_plain and ok_traced):
        failures.append("a step failed")
    left = tracer.check_restored(restored)
    if left:
        failures.append(f"still patched: {left[:5]}")
    after = snapshot()
    changed = [key for key in before if after.get(key) is not before[key]]
    if changed:
        failures.append(f"attributes not restored: {changed[:5]}")
    if not any(s[2].startswith("experiment.") for s in tracer.spans):
        failures.append("no experiment spans recorded")
    status = "ok" if not failures else "FAIL: " + "; ".join(failures)
    print(f"{label}: {len(restored)} patches, {len(tracer.spans)} spans, {len(plain)} report bytes: {status}")
    return not failures


def main() -> int:
    suites = [(name, experiment.bundled_config_path(name).read_text(encoding="utf-8"))
              for name in ("example_checkerboard", "frobenius_suite")]
    for name in ("lca", "kernel", "haar"):
        with open(os.path.join(HERE, "workloads", f"{name}.cfg"), encoding="utf-8") as fh:
            suites.append((name, fh.read()))
    ok = True
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for label, text in suites:
            ok = check(label, text, tmp) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
