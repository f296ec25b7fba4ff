"""mpslab benchmark: three paper workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py                       # every workload, both modes
    python3 perfbench/run.py --workload inv-scan --seed 3 --trace 0

A run measures for ``run_seconds`` of BENCHMARK.json unless
``--seconds`` says otherwise.  With ``--trace 0`` the run prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced run.  Each metric is printed by name with its unit;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  mpslab is imported from
``src/`` next to this directory and nowhere else.  See README.md in
this directory for the workloads and metrics.
"""

import argparse
import contextlib
import json
import math
import os
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("inv-scan", "dmrg-reg", "clf-sweep")
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
CHILD_TIMEOUT_S = 900
# One BLAS thread: the ops are single-threaded clients on small matrices
# (LU of 729 x 729 at most), where a second thread measured slower and
# noisier.  Set before numpy is first imported.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one timed set-up, run in a fresh process
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def import_program():
    """Import the harness and mpslab from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    try:
        import harness
        import mpslab
        import workloads
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import mpslab from {SRC}: {exc}")
    if SRC not in Path(mpslab.__file__).resolve().parents:
        sys.exit(f"perfbench: mpslab was imported from {mpslab.__file__}, "
                 f"not from {SRC}")
    return harness, workloads


def bench_command(args, workload, *extra):
    return [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed), *extra]


def probe_setup(args) -> float:
    """Time from starting a fresh process to its "ready" line, printed
    once it has imported mpslab and built the first op's inputs.

    The line is awaited with select, not by polling for the process's
    exit, which would round the time up to the polling step.
    """
    start = time.perf_counter()
    with subprocess.Popen(
            bench_command(args, args.workload, "--setup-probe"),
            stdout=subprocess.PIPE, text=True) as proc:
        if select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)[0]:
            line = proc.stdout.readline()
        else:
            line = ""
        elapsed = time.perf_counter() - start
        if line != "ready\n":
            proc.kill()
        code = proc.wait()
    if code != 0 or line != "ready\n":
        sys.exit(f"perfbench: set-up probe failed with exit code {code}")
    return elapsed


def finite_or_none(value):
    return value if isinstance(value, (int, float)) and math.isfinite(
        value) else None


def run_one(args) -> int:
    harness, workloads = import_program()
    out_dir = OUT_ROOT / str(os.getpid())
    cls = workloads.WORKLOADS[args.workload]
    # only the scan writes files: its CSV/SVG/manifest, once per op
    workload = cls(out_dir=str(out_dir)) if cls is workloads.InvScan else cls()
    if args.setup_probe:
        workload.prepare(args.seed, 0)
        print("ready", flush=True)
        return 0
    try:
        if args.trace:
            records, metrics = harness.run_traced(workload, args.seed,
                                                  args.seconds)
            units = harness.PER_LAYER
        else:
            records, metrics = harness.run_untraced(
                workload, args.seed, args.seconds, lambda: probe_setup(args))
            units = harness.END_TO_END
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left alone while others use it
            OUT_ROOT.rmdir()
    failed = sum(1 for r in records if r.failures)
    print(f"{args.workload}: {len(records)} ops "
          f"({'traced' if args.trace else 'untraced'}), {failed} failed, "
          f"op seconds {[round(r.seconds, 3) for r in records]}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value!r:>24} {units[name][0]}")
    env = harness.environment(str(ROOT), args.workload, args.seed,
                              BLAS_THREAD_VARS)
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": finite_or_none(value),
                           "unit": units[name][0]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced, each in a fresh process."""
    summary, ok = {}, True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                bench_command(args, name, "--seconds", repr(args.seconds),
                              "--trace", str(trace)),
                stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit code {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            summary.setdefault(name, {})[f"trace{trace}"] = result
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
