"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload calibrate_cold --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout; without it
the command fails before printing a result. With ``--trace 0`` the last
stdout line carries every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` it carries every per-layer metric, and the spans (with
program-counter deltas) go to ``perfbench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

WORKLOADS = ("calibrate_cold", "query_sweep", "serve_mixed")

#: Program settings read from the environment; cleared so every run uses
#: the program's built-in defaults.
PROGRAM_ENV = ("REPRO_KERNEL", "REPRO_WORKERS", "REPRO_SURROGATE")


def metric_specs():
    """(end_to_end, per_layer) name → unit maps from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in PROGRAM_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (fails here when the checkout has no program)

    from common import log, peak_rss_mb
    from spans import Tracer

    module = importlib.import_module(args.workload)
    end_to_end, per_layer = metric_specs()

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    tracer = Tracer(bool(args.trace))
    try:
        outcome = module.run(args.seed, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outcome.end_to_end["peak_rss_mb"] = (peak_rss_mb(), "MB")

    for v in outcome.known_faults:
        log(f"known fault (counted as failed): {v}")
    for v in outcome.violations[:50]:
        log(f"CHECK FAILED: {v}")
    if len(outcome.violations) > 50:
        log(f"... {len(outcome.violations) - 50} more failed checks")

    if args.trace:
        specs, measured = per_layer, outcome.per_layer
    else:
        specs, measured = end_to_end, outcome.end_to_end
    missing = set(end_to_end) - set(outcome.end_to_end)
    if missing:
        raise RuntimeError(f"workload did not measure {sorted(missing)}")
    metrics, absent = {}, []
    for name, unit in specs.items():
        # A layer this workload never calls spent no time and did no work.
        value = measured[name][0] if name in measured else 0
        if value is None:
            absent.append(name)
            continue
        metrics[name] = {"value": value, "unit": unit}
    for name in absent:
        log(f"counter absent from the program: {name}")

    if args.trace:
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(
            path,
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            absent=absent,
            end_to_end={k: v[0] for k, v in outcome.end_to_end.items()},
            per_layer={k: v[0] for k, v in outcome.per_layer.items()},
        )
        log(f"trace written to {path.relative_to(ROOT)}")
    log("end-to-end: " + ", ".join(
        f"{k}={v[0]:.6g}{v[1] if v[1] != 'count' else ''}"
        for k, v in sorted(outcome.end_to_end.items())))

    result = {
        "correct": not outcome.violations,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc()
        sys.exit(1)
