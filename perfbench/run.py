"""The repo benchmark: one workload run of the live elastic stack.

Usage, from the repository root::

    python3 perfbench/run.py --workload steady-ring --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
beyond one timestamp per training step.  ``--trace 1`` is a separate
run that times calls into each layer's public functions from outside
and reports the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing.resource_tracker
import os
import platform
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: scratch files (shm peer sockets) stay inside the checkout; a relative
#: path keeps the Unix socket names short.
SCRATCH = ".bench_tmp"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy

        import harness
        import layers
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{', '.join(harness.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    tempfile.tempdir = SCRATCH

    # The traced pass first runs the same workload and seed untraced, in
    # a fresh process, as the reference for the tracing overhead.
    untraced = (
        layers.untraced_baseline(workload.name, args.seed, args.seconds)
        if args.trace else None
    )
    baseline = {t.ident for t in threading.enumerate()}
    clock = harness.StepClock()
    probes = layers.Probes() if args.trace else None
    if probes is not None:
        probes.install()
    clock.install()
    try:
        record = harness.run_workload(
            workload, args.seed, args.seconds, clock,
            metrics=probes.metrics if probes is not None else None,
            on_job=probes.watch if probes is not None else None,
        )
    finally:
        clock.uninstall()
        if probes is not None:
            probes.uninstall()
    left = record.leftovers = harness.leftovers(baseline)
    # Shared-memory links start the stdlib resource tracker process;
    # stop it and wait for it, so the run leaves no process behind.
    multiprocessing.resource_tracker._resource_tracker._stop()
    problems = harness.check_correctness(record)
    failures = dict(record.failures)
    failures["threads_alive_after"] = left["threads_alive_after"]
    failures["shm.segments_left"] = left["shm.segments_left"]
    failed = sum(failures.values())

    host = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    try:
        e2e, samples = harness.end_to_end(record)
    except Exception:
        if not problems:
            raise
        # A broken run may lack the samples or the parameters a metric
        # needs; it reports why it is incorrect instead.
        e2e, samples = {}, {}
    print(f"workload {workload.name} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print(f"host {json.dumps(host, sort_keys=True)}")
    print(f"samples {json.dumps(samples, sort_keys=True)}")
    print(f"failures {json.dumps(failures, sort_keys=True)} "
          f"(failed_op_ratio {failed}/{record.attempted} = "
          f"{failed / record.attempted:.3g})")
    if left["thread_names"]:
        print(f"threads left: {', '.join(left['thread_names'])}")
    print(f"final digest {sorted(set(record.final_digests.values()))}")
    for name, value in e2e.items():
        print(f"  {name:24s} {value:.6g} {harness.UNITS[name]}")
    if probes is not None and e2e:
        per_layer = probes.report(record, e2e, failed, untraced)
        for line in probes.lines:
            print(line)
        metrics = {
            name: {"value": value, "unit": layers.UNITS[name]}
            for name, value in per_layer.items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": harness.UNITS[name]}
            for name, value in e2e.items()
        }
    for problem in problems:
        print(f"INCORRECT: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": record.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
