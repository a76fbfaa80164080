"""Benchmark of the returntime CLI.

    python3 perfbench/run.py --workload train-2k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One run sets up one workload from `--seed`, drives `returntime.cli.main`
in-process as a closed loop with one client, checks every output, and prints
each metric by name and unit. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer ones
from spans around each layer's public functions. `--workload all` runs every
workload, each in its own process so that peak RSS is per workload.

The full record of a run (metrics, machine, per-command timings, problems)
is written to `.perfbench-out/`, and with `--trace 1` the spans too.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
WORK = ROOT / ".perfbench-work"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1, help="seed the inputs are generated from")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="start iterations only while they fit in this many seconds (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced iteration between two untraced ones")
    return parser.parse_args(argv)


def blas_record() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                record["threads"] = getter()
                return record
    return record


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_record(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "seed": seed,
        "commit": git_commit(),
    }


def run_one(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "returntime").is_dir():
        print(f"error: no returntime sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import Tracer
    from returntime.cli import main as cli_main

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-seed{args.seed}-", dir=WORK))
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        with (work / "cli.log").open("w") as log:
            # the CLI's own logging goes to the log file, at its usual level
            handler = logging.StreamHandler(log)
            handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
            logging.basicConfig(level=logging.INFO, handlers=[handler])
            tracer = Tracer() if args.trace else None
            run = workloads.Run(workload, args.seed, work, workloads.Client(cli_main, log, tracer))
            if tracer is None:
                for index in range(workload.setup_repeats):
                    run.setup(index)
                start = time.perf_counter()
                while True:
                    run.iterate()
                    elapsed = time.perf_counter() - start
                    if elapsed * (1 + 1 / len(run.iterations)) > args.seconds:
                        break
            else:
                with tracer.active(run.problems):
                    run.setup(0)
                # the first iteration in a process runs ~15% slower (warm-up), so
                # the overhead compares the traced iteration with the one after it
                untraced = [run.iterate()]
                with tracer.active(run.problems):
                    traced = run.iterate()
                untraced.append(run.iterate())
            run.check_all()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is None:
            metrics = run.end_to_end(peak_rss_mb)
        else:
            metrics = workloads.per_layer(tracer, untraced, traced)
            tracer.write(OUT / f"{stem}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": workloads.unit(name)}
                    for name, value in metrics.items()},
    }
    record = dict(result, workload=workload.name, machine=machine_record(args.seed),
                  problems=run.problem_lines(),
                  commands=[{"step": c.step and [c.step.command, c.step.model, c.step.split],
                             "phase": c.phase, "seconds": c.seconds}
                            for c in run.client.commands])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2))
    for problem in record["problems"]:
        print(f"FAILED: {problem}")
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}, "
          f"{len(run.iterations)} iteration(s), machine {json.dumps(record['machine'])}")
    for name, entry in result["metrics"].items():
        print(f"  {name:48s} {entry['value']:14.6g} {entry['unit']}")
    print(f"  failed operations: {run.failed} of {run.attempted} attempted")
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
