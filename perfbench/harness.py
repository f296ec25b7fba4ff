"""Op loops, metric tables and the environment record.

One process runs one workload as a single closed-loop client: the next
op starts when the previous one has returned.  An untraced run yields the
end-to-end metrics; a traced run yields the per-layer metrics, timing
each op once untraced and once traced so the two give the tracing
overhead.
"""

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
import scipy

import mpslab
import tracer as tr
from mpslab import (classify, datagen, dmrg, exact, experiments, features,
                    mps, tensor)

MIN_OPS = 2
# Set-up probes before each op (and after the last).  One probe's time
# varies by +-25% with machine load, so setup_s takes the median of many.
SETUP_PROBES = 2


def _evaluate_flops(args, kwargs, out):
    """2 T sum_j |core_j|: one multiply-add per core entry and sample."""
    w, phi = args[0], args[1] if len(args) > 1 else kwargs["phi"]
    return 2.0 * phi.shape[0] * sum(core.size for core in w.cores)


def _env_apply_flops(args, kwargs, out):
    """2 T |core| (times C when an environment carries the class axis)."""
    core = args[1] if len(args) > 1 else kwargs["core"]
    if core.ndim == 4:
        return 2.0 * core.size * out.shape[0]
    return 2.0 * core.size * out.size


def _dataset_key(args, kwargs, out):
    """The (spec, n_samples, seed) that determine a generated dataset."""
    spec = args[0] if args else kwargs["spec"]
    return spec, out.n_samples, out.seed


def _output_bytes(args, kwargs, out):
    return float(sum(os.path.getsize(p) for p in out.values()))


def trace_targets():
    env = dmrg.EnvironmentCache
    return [
        tr.Target("features.featurize_batch", features, "featurize_batch"),
        tr.Target("classify.featurize_images", classify, "featurize_images"),
        tr.Target("datagen.generate_dataset", datagen, "generate_dataset",
                  _dataset_key),
        tr.Target("exact.build_design_system", exact, "build_design_system"),
        tr.Target("tensor.solve_linear", tensor, "solve_linear"),
        tr.Target("tensor.svd_truncate", tensor, "svd_truncate"),
        tr.Target("mps.compress", mps, "compress"),
        tr.Target("mps.evaluate_batch", mps.MPS, "evaluate_batch",
                  _evaluate_flops),
        tr.Target("dmrg.train_arrays", dmrg, "train_arrays"),
        tr.Target("dmrg.optimize_site", dmrg, "optimize_site"),
        tr.Target("dmrg.site_loss", dmrg, "site_loss"),
        tr.Target("dmrg.site_gradient", dmrg, "site_gradient"),
        tr.Target("dmrg.env_init", env, "__init__"),
        tr.Target("dmrg.env_apply", env, "apply", _env_apply_flops),
        tr.Target("dmrg.env_grad", env, "grad_from_output_coeffs"),
        tr.Target("dmrg.env_move", env, "move_right"),
        tr.Target("dmrg.env_move", env, "move_left"),
        tr.Target("experiments.run_bond_scan", experiments, "run_bond_scan"),
        tr.Target("experiments.emit_outputs", experiments, "emit_outputs",
                  _output_bytes),
    ]


# ---------------------------------------------------------------------------
# ops

@dataclass
class OpRecord:
    op: int
    seconds: float = math.nan  # wall time of the op, nan if it never ran
    failures: list = field(default_factory=list)
    work: int = 0
    quality: tuple = None
    stalls: int = 0


def _report(workload, op, what, exc=None):
    print(f"{workload.name} op {op}: {what}", file=sys.stderr)
    if exc is not None:
        traceback.print_exception(exc, file=sys.stderr)


def attempt(workload, seed, op, tracer=None) -> OpRecord:
    """Prepare, run and check one op; never raises for a failing op.

    With a tracer, set-up and op run under the phase spans "prep" and
    "op".
    """
    rec = OpRecord(op)
    phase = tracer.span if tracer is not None else (lambda name: nullcontext())
    try:
        with phase("prep"):
            inputs = workload.prepare(seed, op)
        start = time.perf_counter()
        try:
            with phase("op"):
                out = workload.run(inputs)
        finally:
            rec.seconds = time.perf_counter() - start
        rec.work = workload.work_per_op
        rec.failures = workload.check(inputs, out, reference=op == 0)
        rec.quality = workload.quality(inputs, out)
        rec.stalls = workload.stalls(out)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted
        rec.failures.append(f"{type(exc).__name__}: {exc}")
        _report(workload, op, "raised", exc)
    for reason in rec.failures:
        _report(workload, op, reason)
    return rec


def _keep_going(records, elapsed, op_seconds, seconds, min_ops):
    """Start another op while it is expected to end within the budget;
    stop at once after an op that could not run."""
    if records and not records[-1].work:
        return False
    if len(records) < min_ops:
        return True
    return elapsed + tr.median_or_zero(op_seconds) <= seconds


def run_untraced(workload, seed, seconds, probe_setup, min_ops=MIN_OPS):
    """End-to-end metrics of one closed-loop run.

    ``probe_setup()`` times one set-up from a fresh process.  It runs
    SETUP_PROBES times before every op and after the last, so
    ``setup_s``, the median, samples the machine over the whole run; the
    probes' time counts against ``seconds``.
    """
    began = time.perf_counter()
    records, setup_times, cycles = [], [], []
    while _keep_going(records, time.perf_counter() - began,
                      [c for c, r in zip(cycles, records) if r.work],
                      seconds, min_ops):
        start = time.perf_counter()
        setup_times += [probe_setup() for _ in range(SETUP_PROBES)]
        records.append(attempt(workload, seed, len(records)))
        cycles.append(time.perf_counter() - start)
    setup_times += [probe_setup() for _ in range(SETUP_PROBES)]
    done = [r for r in records if r.work]
    busy = sum(r.seconds for r in done)
    ref = records[0].quality or (math.nan, math.nan)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "work_per_s": sum(r.work for r in done) / busy if busy else 0.0,
        "op_p50_s": tr.median_or_zero([r.seconds for r in done]),
        "peak_rss_mb": peak_rss_mb(),
        "test_loss": ref[0],
        "test_error": ref[1],
    }
    return records, metrics


def run_traced(workload, seed, seconds, min_ops=1):
    """Per-layer metrics: each op runs untraced, then again traced."""
    tracer = tr.Tracer()
    modules = tr.package_modules()
    targets = trace_targets()
    summary = tr.TraceSummary()
    plain, traced, records = [], [], []
    began = time.perf_counter()
    while _keep_going(records, time.perf_counter() - began,
                      [a + b for a, b in zip(plain, traced)
                       if math.isfinite(a + b)], seconds,
                      min_ops):
        op = len(records)
        tracer.reset()
        # alternate which twin runs first, so neither pays the first-op
        # warm-up every time
        if op % 2:
            with tracer.installed(targets, modules, np):
                rec = attempt(workload, seed, op, tracer)
            twin = attempt(workload, seed, op)
        else:
            twin = attempt(workload, seed, op)
            with tracer.installed(targets, modules, np):
                rec = attempt(workload, seed, op, tracer)
        if tracer.missing:
            _report(workload, op, "not traced: " + ", ".join(tracer.missing))
        op_summary = tr.summarize(tracer)
        miscounts = count_failures(workload, op_summary)
        for reason in miscounts:
            _report(workload, op, reason)
        rec.failures += twin.failures + miscounts
        summary.merge(op_summary)
        plain.append(twin.seconds)
        traced.append(rec.seconds)
        records.append(rec)
    # each pair ran back to back, so its ratio cancels slow machine drift
    overhead = tr.median_or_zero([t / p for t, p in zip(traced, plain)
                                  if math.isfinite(t / p)]) - 1.0
    failed = sum(1 for r in records if r.failures)
    stalls = sum(r.stalls for r in records)
    return records, layer_metrics(summary, overhead, failed / len(records),
                                  stalls)


def count_failures(workload, summary) -> list:
    """Mismatches between the op phase's call counts and the analytic
    counts the workload states."""
    got = summary.phase_calls.get("op", {})
    return [f"count: {label} called {got.get(label, 0)} times, "
            f"expected {want}"
            for label, want in workload.expected_calls.items()
            if got.get(label, 0) != want]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# metric tables: name -> (unit, better)

END_TO_END = {
    "setup_s": ("s", "lower"),
    "work_per_s": ("work/s", "higher"),
    "op_p50_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "test_loss": ("loss", "lower"),
    "test_error": ("frac", "lower"),
}

_CALLS = ("calls/op", "lower")
_SECONDS = ("s/op", "lower")
PER_LAYER = {
    "mps.evaluate_batch.calls": _CALLS,
    "mps.evaluate_batch.s": _SECONDS,
    "mps.evaluate_batch.gflops": ("GFLOP/s", "higher"),
    "mps.compress.calls": _CALLS,
    "mps.compress.s": _SECONDS,
    "mps.compress.self_s": _SECONDS,
    "tensor.svd_truncate.calls": _CALLS,
    "tensor.svd_truncate.s": _SECONDS,
    "exact.build_design_system.calls": _CALLS,
    "exact.build_design_system.s": _SECONDS,
    "tensor.solve_linear.calls": _CALLS,
    "tensor.solve_linear.s": _SECONDS,
    "datagen.generate_dataset.calls": _CALLS,
    "datagen.generate_dataset.s": _SECONDS,
    "datagen.generate_dataset.unique_frac": ("frac", "higher"),
    "features.featurize_batch.calls": _CALLS,
    "features.featurize_batch.s": _SECONDS,
    "classify.featurize_images.s": _SECONDS,
    "dmrg.optimize_site.calls": _CALLS,
    "dmrg.optimize_site.s": _SECONDS,
    "dmrg.optimize_site.self_s": _SECONDS,
    "dmrg.optimize_site.p50_s": ("s", "lower"),
    "dmrg.optimize_site.tail_s": ("s", "lower"),
    "dmrg.optimize_site.tail_pct": ("%", "higher"),
    "dmrg.env_apply.calls": _CALLS,
    "dmrg.env_apply.s": _SECONDS,
    "dmrg.env_apply.gflops": ("GFLOP/s", "higher"),
    "dmrg.env_grad.calls": _CALLS,
    "dmrg.env_grad.s": _SECONDS,
    "dmrg.env_move.calls": _CALLS,
    "dmrg.env_move.s": _SECONDS,
    "dmrg.env_init.s": _SECONDS,
    "dmrg.ls_trials": ("trials/op", "lower"),
    "dmrg.cg_accepted": ("steps/op", "higher"),
    "dmrg.ls_accept_ratio": ("frac", "higher"),
    "dmrg.stalls": ("stalls/op", "lower"),
    "dmrg.train_arrays.self_s": _SECONDS,
    "experiments.run_bond_scan.self_s": _SECONDS,
    "experiments.emit_outputs.s": _SECONDS,
    "experiments.emit_outputs.bytes": ("B/op", "lower"),
    "numpy.einsum.calls": _CALLS,
    "trace_overhead_frac": ("frac", "lower"),
    "untraced_frac": ("frac", "lower"),
    "failed_frac": ("frac", "lower"),
}


def _ratio(num, den, empty):
    return num / den if den else empty


def layer_metrics(s: tr.TraceSummary, overhead, failed_frac, stalls) -> dict:
    """PER_LAYER values from the merged summary of the traced ops.

    Counts and seconds are per op.  Ratios over an empty set (no calls,
    no line-search trials) read 1, meaning no wasted work.
    """
    n = s.ops
    out = {}
    for name in PER_LAYER:
        label, _, kind = name.rpartition(".")
        stats = s.layer(label)
        if kind == "calls":
            out[name] = stats.calls / n
        elif kind == "s":
            out[name] = stats.seconds / n
        elif kind == "self_s":
            out[name] = stats.self_seconds / n
        elif kind == "gflops":
            out[name] = _ratio(sum(stats.extras), stats.seconds * 1e9, 0.0)
    out["datagen.generate_dataset.unique_frac"] = _ratio(
        len(set(s.layer("datagen.generate_dataset").extras)),
        s.layer("datagen.generate_dataset").calls, 1.0)
    opt = s.layer("dmrg.optimize_site")
    pct = tr.tail_percentile(opt.calls // n)
    out["dmrg.optimize_site.p50_s"] = tr.median_or_zero(opt.durations)
    out["dmrg.optimize_site.tail_pct"] = pct or 0.0
    out["dmrg.optimize_site.tail_s"] = (
        tr.percentile(opt.durations, pct) if pct else 0.0)
    trials = opt.child_calls["dmrg.site_loss"] - opt.calls
    accepted = opt.child_calls["dmrg.site_gradient"] - opt.calls
    out["dmrg.ls_trials"] = trials / n
    out["dmrg.cg_accepted"] = accepted / n
    out["dmrg.ls_accept_ratio"] = _ratio(accepted, trials, 1.0)
    out["dmrg.stalls"] = stalls / n
    out["experiments.emit_outputs.bytes"] = sum(
        s.layer("experiments.emit_outputs").extras) / n
    out["numpy.einsum.calls"] = s.einsum_calls / n
    out["trace_overhead_frac"] = overhead
    out["untraced_frac"] = _ratio(s.root_self_seconds, s.root_seconds, 0.0)
    out["failed_frac"] = failed_frac
    return {name: out[name] for name in PER_LAYER}


# ---------------------------------------------------------------------------
# environment record

def git_commit(root):
    """HEAD commit of the checkout at ``root``, or None outside git.

    The search for a repository stops at ``root``.
    """
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root, workload, seed, thread_vars) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpslab": mpslab.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {v: os.environ.get(v) for v in thread_vars},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }
