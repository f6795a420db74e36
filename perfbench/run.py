"""Run one scanloc benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload cohort-clean --seed 1 --seconds 18 --trace 0

Run from anywhere inside a checkout: the program under test is imported
from the checkout's own `src/`.  With `--trace 0` the last line of standard
output holds the end-to-end metrics, their times scaled to a reference
speed (speed.py); with `--trace 1` it holds the per-layer metrics of a
traced run.  The line before it is a report with
the machine, the per-workload quality figures, latency percentiles and
check failures.  Spans of a traced run go to `.perfbench_out/` at the
checkout root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
IMPORT_REPEATS = 3
WORKLOAD_NAMES = ("cohort-clean", "evaluate-noisy", "localize-stream", "fuse-export")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed phase repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scenes", type=int,
                        help="override the workload's scene count (tests, full-size runs)")
    return parser.parse_args(argv)


def machine(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
    }


def import_seconds(src: str, gauge) -> tuple[float, float]:
    """Median time of a fresh interpreter importing the program, scaled to
    the reference speed, and the median wall time."""
    code = f"import sys; sys.path.insert(0, {src!r}); import scanloc.cli"
    regions = []
    for _ in range(IMPORT_REPEATS):
        with gauge.region(sampling=False) as region:
            subprocess.run([sys.executable, "-c", code], check=True,
                           env={**os.environ, **THREAD_ENV})
        regions.append(region)
    return (statistics.median(r.scaled for r in regions),
            statistics.median(r.wall for r in regions))


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "scanloc", "__init__.py")):
        print(f"perfbench: no scanloc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import scanloc
    import workloads
    from speed import SpeedGauge
    if not os.path.abspath(scanloc.__file__).startswith(src + os.sep):
        print(f"perfbench: imported scanloc from {scanloc.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-{args.seed}"
    workdir = os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
    trace_path = os.path.join(ROOT, ".perfbench_out", f"trace-{tag}.jsonl")
    gauge = SpeedGauge()
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               workdir, scenes=args.scenes, trace_path=trace_path,
                               gauge=gauge)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = result["metrics"]
    import_s = None
    if not args.trace:
        # the import is part of set-up; time it as often as the set-up body
        import_s, import_unscaled = import_seconds(src, gauge)
        metrics["setup_s"] += import_s
        result["report"]["import_s_unscaled"] = import_unscaled
        # ru_maxrss is in KiB on Linux
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["units"]["peak_rss_mb"] = "MB"
    tally = result["tally"]
    report = {"workload": args.workload, "machine": machine(args.seed),
              "import_s": import_s, **result["report"]}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # BLAS pools read these once, when numpy is first imported
    os.environ.update(THREAD_ENV)
    sys.exit(main())
