"""One timed sample: run an experiment suite in this fresh interpreter.

    python3 perfbench/sample.py --config CFG --out DIR [--trace SPANS.json]

The sample does what ``modshift experiment run CFG --out DIR --workers 1``
does: ``parse_experiment``, ``run_experiment(workers=1)`` and ``write_report``.
It imports ``modshift`` from ``src/`` of the checkout it lives in, never from
an installed copy.  It prints one JSON line: the monotonic clock reading at
which the suite was ready to run, the run's wall time, the peak RSS, every
step's verdict and the SHA-256 of ``report.json``.  With ``--trace`` the layer
modules are wrapped by the outside-in tracer for the run and the span list is
written to ``SPANS.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", default=None, help="write spans here and report per-layer metrics")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import modshift
    from modshift import experiment

    if not os.path.abspath(modshift.__file__).startswith(SRC + os.sep):
        print(f"modshift imported from {modshift.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracer as tracing  # perfbench/ is on sys.path as the script's directory

        tracer = tracing.Tracer().install()

    with open(args.config, "r", encoding="utf-8") as fh:
        text = fh.read()
    config = experiment.parse_experiment(text)
    ready = time.monotonic()

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    report = experiment.run_experiment(config, workers=1)
    experiment.write_report(report, args.out, text)
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    with open(os.path.join(args.out, "report.json"), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    out = {
        "ready": ready,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "digest": digest,
        "steps": [
            {"name": s["name"], "kind": s["kind"], "pass": bool(s.get("pass")), "error": s.get("error")}
            for s in report["steps"]
        ],
        "env": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
        },
    }
    if tracer is not None:
        restored = tracer.uninstall()
        out["unrestored"] = tracer.check_restored(restored)
        out["n_spans"] = len(tracer.spans)
        out["per_layer"] = tracing.per_layer(tracer.spans)
        out["shares"] = tracing.dominant_shares(tracer.spans, run_s)
        out["layer_self_s"] = tracing.layer_self_times(tracer.spans)
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "parent", "name", "start", "end", "counts"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
