"""Benchmark npivband end to end (--trace 0) or per module (--trace 1).

    python3 bench/run.py --workload mc_trade --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The run sets up its workload three times
(inputs plus one warm-up operation each), then runs whole rounds of
operations until ``--seconds`` have passed, checking every operation's
outputs against independent reference fits. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
#: Traced calls and bytes are counted over this many leading rounds.
COUNTED_ROUNDS = 2


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("mc_trade", "mc_reg_wiggly", "cli_fit"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "npivband" / "__init__.py").is_file():
        print(f"npivband sources not found under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    t_import = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import npivband.cli  # noqa: F401  (imports every npivband module)

    from probe import SpeedProbe
    from spans import UNITS, Tracer, wrapper_cost_s
    from workloads import CLI_KINDS, WORKLOADS
    from refit import CheckError
    import_s = time.perf_counter() - t_import

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        probe = SpeedProbe()
        first_probe = probe_before = probe.run()
        setups, raw_setups, problems = [], [], []
        for _ in range(SETUPS):
            start = time.perf_counter()
            workload.prepare()
            token = workload.warmup()
            raw_setups.append(time.perf_counter() - start)
            probe_after = probe.run()
            setups.append(raw_setups[-1] * probe.scale(probe_before, probe_after))
            probe_before = probe_after
            try:
                workload.check(workload.warmup_kind, token)
            except CheckError as exc:
                problems.append(f"warm-up: {exc}")

        tracer = None
        if args.trace:
            tracer = Tracer()
            missing = tracer.install()
            if missing:
                print(f"not traced (absent from npivband): {', '.join(missing)}", file=sys.stderr)

        times: dict[str, list[float]] = defaultdict(list)
        scaled: dict[str, list[float]] = defaultdict(list)
        attempted = failed = 0
        start = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - start < args.seconds:
            for kind, op in workload.round(r):
                attempted += 1
                t0 = time.perf_counter()
                try:
                    token = op()
                except Exception as exc:  # a failed operation is counted, not fatal
                    failed += 1
                    print(f"round {r} {kind} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                    continue
                op_s = time.perf_counter() - t0
                probe_after = probe.run()
                times[kind].append(op_s)
                scaled[kind].append(op_s * probe.scale(probe_before, probe_after))
                probe_before = probe_after
                try:
                    workload.check(kind, token)
                except CheckError as exc:
                    problems.append(f"round {r} {kind}: {exc}")
            r += 1
            if r <= COUNTED_ROUNDS and tracer is not None:
                counted_spans, counted_ops = len(tracer.spans), attempted - failed
        measured_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    medians = {kind: statistics.median(v) for kind, v in scaled.items()}
    wall_medians = {kind: statistics.median(v) for kind, v in times.items()}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": r, "measured_s": round(measured_s, 3),
        "median_s_by_kind": {k: round(v, 4) for k, v in medians.items()},
        "wall_median_s_by_kind": {k: round(v, 4) for k, v in wall_medians.items()},
        "samples_by_kind": {k: len(v) for k, v in times.items()},
        "probe_median_s": round(statistics.median(probe.samples), 5),
        "setup_runs_s": [round(s, 4) for s in raw_setups], "import_s": round(import_s, 4),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "python": sys.version.split()[0],
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }
    if tracer is not None:
        # Tracing cost is the number of spans times the measured cost of one
        # wrapped call, as a share of the untraced time of the same operations.
        op_s = sum(sum(v) for v in times.values())
        cost_s = len(tracer.spans) * wrapper_cost_s()
        overhead_pct = 100.0 * cost_s / (op_s - cost_s)
        report.update(traced_rep_s=round(sum(medians.values()), 4), spans=len(tracer.spans),
                      trace_overhead_pct=round(overhead_pct, 3))
    print("report " + json.dumps(report, sort_keys=True))

    if tracer is not None:
        # Self times are rescaled to reference seconds like the end-to-end times.
        probe_s = statistics.median(probe.samples)
        run_scale = probe.scale(probe_s, probe_s)
        metrics = {}
        summary = tracer.summary(max(attempted - failed, 1), counted_spans, max(counted_ops, 1))
        for name, value in summary.items():
            unit = UNITS[name.rsplit(".", 1)[1]]
            metrics[name] = _metric(value * run_scale if unit == "s" else value, unit)
        for kind in CLI_KINDS:
            metrics[f"cli.{kind}.s"] = _metric(medians.get(kind, 0.0), "s")
        metrics["trace.overhead_pct"] = _metric(overhead_pct, "%")
    else:
        metrics = {
            "setup_s": _metric(import_s * probe.scale(first_probe, first_probe) + statistics.median(setups), "s"),
            "rep_s": _metric(sum(medians.values()), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
