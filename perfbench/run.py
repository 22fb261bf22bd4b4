"""Run one benchmark workload in this process and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold-free --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs it once more with the
layer tracer installed and reports the per-layer metrics.  The line before
last is a record with the environment, the machine-drift probe, the
admission digest and the raw timings; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--pin`` stores a
correct run's digest and revenue in ``pinned.json`` for later runs of the
same workload and seed to match.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))


def drift_probe() -> float:
    """Seconds for a fixed pure-Python plus NumPy loop (machine drift)."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value % 7
    array = np.arange(1_000_000, dtype=np.float64)
    for _ in range(20):
        array = np.sqrt(array * array + 1.0)
    return time.perf_counter() - start


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    from repro.core import kernels
    from repro.core.vectorized import get_default_backend

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "kernel": kernels.active_kernel(),
        "numba": kernels.numba_version(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "revenue_backend": get_default_backend(),
        # GlobalGreedy() is built with the library default: serial.
        "shards": None,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="pin this run's digest and revenue if correct")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        from perfbench import workloads
    except (OSError, ImportError) as error:
        print(f"perfbench: cannot load the benchmark or the program: {error}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    probe_before = drift_probe()
    run = workload.traced if args.trace else workload.timed
    outcome = run(args.seed, args.seconds)
    probe_after = drift_probe()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        print(f"perfbench: workload did not report {missing}", file=sys.stderr)
        return 1
    for failure in outcome.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    if args.pin and outcome.correct:
        workloads.record_pin(args.workload, args.seed,
                             workloads.pin_setting("full", args.seconds),
                             outcome.digest, outcome.revenue)

    record = {
        "environment": environment(args.workload, args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "probe_before_s": probe_before,
        "probe_after_s": probe_after,
        "digest": outcome.digest,
        "revenue": outcome.revenue,
        "failures": outcome.failures,
        **outcome.details,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
