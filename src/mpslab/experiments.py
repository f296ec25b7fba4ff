"""Replicated scan harness: one runner for bond-dimension and train-size
scans, and scenarios as plans of such scans (a family sweeps epsilon,
training size or label noise) run and written by one loop, with mean/sigma
aggregation, CSV + SVG outputs, and manifests that rerun any scan bitwise."""

import csv
import json
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .classify import (corrupt_labels, load_idx, preprocess, subset,
                       train_classifier)
from .datagen import TargetSpec, generate_dataset
from .dmrg import (CROSS_ENTROPY, MSE, TrainConfig, data_loss, frame_labels,
                   train_arrays)
from .errors import ScanAbortedError
from .exact import (DESIGN_GUARD, build_design_system, design_matrix,
                    solve_full_weight)
from .features import FeatureMap, featurize_batch
from .mps import compress
from .svgplot import line_plot

logger = logging.getLogger(__name__)

TEST_SEED_OFFSET = 1_000_003
VAL_SEED_OFFSET = 2_000_003
NOISE_SEED_OFFSET = 3_000_017

INVERSION = "inversion"
DMRG = "dmrg"
BOTH = "both"

SCENARIOS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
             "custom")
IMAGE_SCENARIOS = ("fig5", "fig9")
GRIDS = ("eps_list", "ntr_list", "chi_list", "noise_levels")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "custom"
    method: str = INVERSION
    # target family
    n_sites: int = 6
    phys_dim: int = 3
    chi_target: int = 27
    apply_unitary: bool = True
    target_seed: int = 0
    # scan grids
    eps_list: tuple = (0.3,)
    ntr_list: tuple = (300,)
    chi_list: tuple = tuple(range(2, 28))
    noise_levels: tuple = (0.0,)
    # training
    replicates: int = 8
    ridge: float = 1e-6
    n_test: int = 1024
    base_seed: int = 1000
    sweeps: int = 50
    cg_steps: int = 5
    # mnist ingestion (fig5 / fig9)
    mnist_images: str = ""
    mnist_labels: str = ""
    mnist_test_images: str = ""
    mnist_test_labels: str = ""
    downsample: int = 2
    # harness
    out_dir: str = "scan-out"
    full: bool = False
    jobs: int = 1

    def target_spec(self, epsilon: float) -> TargetSpec:
        return TargetSpec(n_sites=self.n_sites, phys_dim=self.phys_dim,
                          epsilon=epsilon, chi_target=self.chi_target,
                          apply_unitary=self.apply_unitary,
                          seed=self.target_seed)

    def feature_map(self) -> FeatureMap:
        return FeatureMap(dim=self.phys_dim)

    def validate(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.method not in (INVERSION, DMRG, BOTH):
            raise ValueError(f"unknown method {self.method!r}")
        for name in GRIDS:
            values = getattr(self, name)
            if not values or len(set(values)) < len(values):
                raise ValueError(f"{name} must be non-empty without repeated "
                                 f"values, got {values}")
        for name, value, least in (
                ("replicates", self.replicates, 1), ("jobs", self.jobs, 1),
                ("chi_list", min(self.chi_list), 1),
                ("ntr_list", min(self.ntr_list), 2),
                ("n_test", self.n_test, 2)):
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        TrainConfig(sweeps=self.sweeps, cg_steps=self.cg_steps)
        if self.scenario in IMAGE_SCENARIOS:
            return
        # the bounds of the target and feature map, before any scan
        for name, value, least in (
                ("n_sites", self.n_sites, 1), ("phys_dim", self.phys_dim, 2),
                ("chi_target", self.chi_target, 2)):
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        for eps in self.eps_list:
            if not 0.0 < eps <= 1.0:
                raise ValueError(f"eps_list values must be in (0, 1], got "
                                 f"{eps}")
        # every artificial-data replicate starts from the inversion
        if self.ridge <= 0.0:
            raise ValueError(f"ridge coefficient must be > 0, got "
                             f"{self.ridge}")
        dim = self.phys_dim ** self.n_sites
        if dim > DESIGN_GUARD:
            raise ValueError(f"phys_dim ** n_sites = {self.phys_dim} ** "
                             f"{self.n_sites} = {dim} exceeds the inversion "
                             f"design guard {DESIGN_GUARD}")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a manifest or config-file dictionary."""
    if "config" in data:
        data = data["config"]
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return ExperimentConfig(**kwargs)


@dataclass
class ScanResult:
    """Aggregated scan along one axis plus the raw per-replicate table.

    ``failures`` holds one dict per failed replicate job: its job key
    (replicate and the outer axis values) plus the exception's ``error``
    type name and ``message``.  ``seconds`` is the scan's wall time.
    """

    axis_name: str
    axis: list
    mean: np.ndarray
    std: np.ndarray
    count: np.ndarray
    raw_header: list
    raw_rows: list
    metric: str
    failures: list = field(default_factory=list)
    seconds: float = 0.0


def find_optimal_chi(scan: ScanResult):
    """(chi*, mean, sigma) at the argmin of the mean test metric.

    Ties break toward the smaller axis value.
    """
    k = int(np.argmin(scan.mean))
    return scan.axis[k], float(scan.mean[k]), float(scan.std[k])


def has_significant_ushape(scan: ScanResult) -> bool:
    """True when an interior minimum sits below both scan endpoints by more
    than one pooled standard error of the difference."""
    k = int(np.argmin(scan.mean))
    if k in (0, len(scan.axis) - 1):
        return False
    se = scan.std / np.sqrt(np.maximum(scan.count, 1))
    for end in (0, len(scan.axis) - 1):
        pooled = float(np.hypot(se[end], se[k]))
        if scan.mean[end] - scan.mean[k] <= pooled:
            return False
    return True


def _aggregate(rows, axis_values, metric):
    mean, std, count = [], [], []
    for v in axis_values:
        vals = np.array([r[metric] for r in rows if r["axis"] == v], dtype=float)
        count.append(len(vals))
        mean.append(vals.mean() if len(vals) else np.nan)
        std.append(vals.std(ddof=1) if len(vals) > 1 else 0.0)
    return np.array(mean), np.array(std), np.array(count)


# ---------------------------------------------------------------------------
# artificial-data replicates; every worker takes (cfg, outer value, ntr,
# chi values, replicate, *shared inputs) and returns one row dict per chi

def _shared_test_set(cfg: ExperimentConfig, eps):
    """The test set every replicate of a scan at ``eps`` shares, its
    featurization and, for a serial scan, its design matrix (None under a
    pool, whose jobs each build their own rather than be sent it)."""
    test_set = generate_dataset(cfg.target_spec(eps), cfg.n_test,
                                cfg.base_seed + TEST_SEED_OFFSET)
    phi_te = featurize_batch(cfg.feature_map(), test_set.features)
    z_te = design_matrix(phi_te) if cfg.jobs == 1 else None
    return test_set, phi_te, z_te


def _regression_fits(cfg, eps, ntr, chi_values, rep, test_set, phi_te, z_te):
    """One training replicate at each bond dimension: yields (row, model,
    trace) per chi.  The model is the DMRG-trained MPS with its TrainTrace
    when DMRG runs, else the compressed inversion solution and None.

    Every dataset is featurized once here and its features serve each chi;
    ``test_set``/``phi_te``/``z_te`` come from ``_shared_test_set``.  The
    ridge solution is compressed once per chi, all compressions sharing
    one SVD memo, so each distinct SVD is computed once.  The inversion
    losses of every chi come from two GEMMs in the f^N design space: the
    compressed models' full tensors, stacked as columns, times the
    training design matrix (shared with the solve) and times the test
    design matrix ``z_te``.  The latter holds n_test x f^N floats (6 MB at
    the paper's 1024 x 729, 82 MB at the 10^4 design guard); a serial scan
    builds it once, and when it is None (a pool job) it is built here.
    """
    fmap = cfg.feature_map()
    spec = cfg.target_spec(eps)
    train_set = generate_dataset(spec, ntr, cfg.base_seed + rep)
    phi_tr = featurize_batch(fmap, train_set.features)
    y_tr = train_set.labels
    y_te = frame_labels(test_set, train_set)
    system = build_design_system(phi_tr, y_tr, cfg.ridge)
    full = solve_full_weight(system)
    memo = {}
    models = [compress(full, chi, memo)[0] for chi in chi_values]
    stack = np.stack([w.to_full_tensor().ravel() for w in models], axis=1)
    pred_tr = system.z @ stack
    if z_te is None:
        z_te = design_matrix(phi_te)
    pred_te = z_te @ stack
    training = cfg.method in (DMRG, BOTH)
    if training:
        val_set = generate_dataset(spec, cfg.n_test,
                                   cfg.base_seed + VAL_SEED_OFFSET + rep)
        phi_val = featurize_batch(fmap, val_set.features)
        y_val = frame_labels(val_set, train_set)
        tc = TrainConfig(sweeps=cfg.sweeps, cg_steps=cfg.cg_steps,
                         ridge=cfg.ridge)
    for k, (chi, w) in enumerate(zip(chi_values, models)):
        trace = None
        row = {
            "axis": chi, "eps": eps, "ntr": ntr, "replicate": rep,
            "train_seed": cfg.base_seed + rep,
            "inv_train_loss": data_loss(pred_tr[:, k], y_tr, MSE),
            "inv_test_loss": data_loss(pred_te[:, k], y_te, MSE),
        }
        if training:
            w, trace = train_arrays(w, phi_tr, y_tr, phi_val, y_val, phi_te,
                                    y_te, tc)
            best = trace.best_validation_sweep
            row.update({
                "dmrg_train_loss": trace.train_loss[-1],
                "dmrg_val_loss": trace.val_loss[best],
                "dmrg_test_loss": trace.test_loss[best],
                "dmrg_best_sweep": best,
                "dmrg_sweeps_run": trace.sweeps[-1],
            })
        yield row, w, trace


def _regression_replicate(cfg, eps, ntr, chi_values, rep, test_set, phi_te,
                          z_te):
    """All bond dimensions for one training replicate. Returns row dicts."""
    return [row for row, _, _ in _regression_fits(
        cfg, eps, ntr, chi_values, rep, test_set, phi_te, z_te)]


def _map_replicates(cfg, worker, jobs):
    """Run replicate jobs (optionally in a pool) with an ordered merge.

    ``jobs`` is a list of (key, args) pairs, where key is a dict naming
    the job (replicate and outer axis values).  Returns (rows, failures),
    one failure dict per job that raised: its key plus the exception's
    ``error`` type name and ``message``.
    """
    results = []
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            futures = [pool.submit(worker, *args) for _, args in jobs]
            for fut in futures:
                try:
                    results.append(fut.result())
                except Exception as exc:  # noqa: BLE001 - recorded, counted
                    results.append(exc)
    else:
        for _, args in jobs:
            try:
                results.append(worker(*args))
            except Exception as exc:  # noqa: BLE001
                results.append(exc)
    rows, failures = [], []
    for (key, _), res in zip(jobs, results):
        if isinstance(res, Exception):
            logger.warning("replicate job %s failed: %s: %s", key,
                           type(res).__name__, res)
            failures.append(dict(key, error=type(res).__name__,
                                 message=str(res)))
        else:
            rows.extend(res)
    if len(failures) > 0.2 * len(jobs):
        raise ScanAbortedError(
            f"{len(failures)} of {len(jobs)} replicate jobs failed")
    return rows, failures


# ---------------------------------------------------------------------------
# MNIST replicates

def load_mnist_pair(cfg: ExperimentConfig):
    train_pool = preprocess(load_idx(cfg.mnist_images, cfg.mnist_labels),
                            cfg.downsample)
    test_set = preprocess(
        load_idx(cfg.mnist_test_images, cfg.mnist_test_labels),
        cfg.downsample)
    return train_pool, test_set


def _mnist_fits(cfg, noise, ntr, chi_values, rep, train_pool, test_set):
    """One classifier training replicate at each bond dimension: yields
    (row, model, trace) per chi."""
    sub = subset(train_pool, ntr, seed=cfg.base_seed + rep)
    if noise > 0.0:
        sub = corrupt_labels(sub, noise,
                             seed=cfg.base_seed + NOISE_SEED_OFFSET + rep)
    tc = TrainConfig(sweeps=cfg.sweeps, cg_steps=cfg.cg_steps, ridge=0.0,
                     loss_kind=CROSS_ENTROPY, checkpoint="last",
                     sweep_tol=0.0)
    for chi in chi_values:
        model, trace = train_classifier(sub, None, test_set, chi, tc,
                                        seed=cfg.base_seed + rep)
        yield {
            "axis": chi, "ntr": ntr, "noise": noise, "replicate": rep,
            "train_seed": cfg.base_seed + rep,
            "train_loss": trace.train_loss[-1],
            "train_accuracy": trace.train_accuracy[-1],
            "test_loss": trace.test_loss[-1],
            "test_accuracy": trace.test_accuracy[-1],
            "test_error": 1.0 - trace.test_accuracy[-1],
            "best_test_loss": float(np.nanmin(trace.test_loss)),
            "best_test_accuracy": float(np.nanmax(trace.test_accuracy)),
        }, model, trace


def _mnist_replicate(cfg, noise, ntr, chi_values, rep, train_pool, test_set):
    """All bond dimensions for one classifier replicate. Returns row dicts."""
    return [row for row, _, _ in _mnist_fits(
        cfg, noise, ntr, chi_values, rep, train_pool, test_set)]


def run_single(cfg: ExperimentConfig, images=None):
    """(row, model, trace) of replicate 0 at the first value of every grid:
    the row is that job's raw.csv row in a scan.  ``images=(train_pool,
    test_set)`` trains a classifier, as the image scenarios do."""
    cfg.validate()
    chi, ntr = cfg.chi_list[:1], cfg.ntr_list[0]
    if images is None:
        eps = cfg.eps_list[0]
        return next(_regression_fits(cfg, eps, ntr, chi, 0,
                                     *_shared_test_set(cfg, eps)))
    return next(_mnist_fits(cfg, cfg.noise_levels[0], ntr, chi, 0, *images))


# ---------------------------------------------------------------------------
# scans

def _scan_sizes(cfg: ExperimentConfig, axis, ntr=None) -> list:
    """The training sizes a scan along ``axis`` draws."""
    return (list(cfg.ntr_list) if axis == "ntr"
            else [cfg.ntr_list[0] if ntr is None else ntr])


def run_scan(cfg: ExperimentConfig, axis="chi", images=None, eps=None,
             ntr=None, noise=0.0) -> ScanResult:
    """A test metric against bond dimension or training size, over
    replicate training sets.

    ``axis="chi"`` runs ``cfg.chi_list`` at training size ``ntr``;
    ``axis="ntr"`` runs ``cfg.ntr_list`` at ``chi_list[0]``.  With
    ``images=(train_pool, test_set)`` each replicate trains classifiers at
    label noise ``noise`` (metric ``test_error``); otherwise it fits
    artificial data at ``eps`` against one shared test set (metric
    ``inv_test_loss``, or ``dmrg_test_loss`` when DMRG runs).  ``eps`` and
    ``ntr`` default to the first values of their grids.
    """
    cfg.validate()
    if axis not in ("chi", "ntr"):
        raise ValueError(f"unknown scan axis {axis!r}")
    start = time.perf_counter()
    sizes = _scan_sizes(cfg, axis, ntr)
    chi_values = list(cfg.chi_list if axis == "chi" else cfg.chi_list[:1])
    axis_values = chi_values if axis == "chi" else sizes
    if images is None:
        worker, outer = _regression_replicate, "eps"
        value = cfg.eps_list[0] if eps is None else eps
        shared = _shared_test_set(cfg, value)
        metric = ("inv_test_loss" if cfg.method == INVERSION
                  else "dmrg_test_loss")
    else:
        worker, outer, value = _mnist_replicate, "noise", noise
        shared, metric = images, "test_error"
    jobs = [({"replicate": r, outer: value, "ntr": n},
             (cfg, value, n, chi_values, r, *shared))
            for n in sizes for r in range(cfg.replicates)]
    rows, failures = _map_replicates(cfg, worker, jobs)
    if axis == "ntr":
        for row in rows:
            row["axis"] = row["ntr"]
    mean, std, count = _aggregate(rows, axis_values, metric)
    header = sorted({k for r in rows for k in r}, key=_header_order)
    seconds = time.perf_counter() - start
    logger.info("%s scan: %d replicate jobs in %.2f s, %d failed", axis,
                len(jobs), seconds, len(failures))
    return ScanResult(axis_name=axis, axis=axis_values, mean=mean, std=std,
                      count=count, raw_header=header, raw_rows=rows,
                      metric=metric, failures=failures, seconds=seconds)


def run_bond_scan(cfg: ExperimentConfig, eps=None, ntr=None) -> ScanResult:
    """Test loss versus bond dimension on artificial data; the name the
    benchmark harness calls and traces."""
    return run_scan(cfg, eps=eps, ntr=ntr)


# ---------------------------------------------------------------------------
# output files

_HEADER_PRIORITY = ["axis", "eps", "ntr", "noise", "replicate", "train_seed"]
_FAILURE_HEADER = ["replicate", "eps", "ntr", "noise", "error", "message"]


def _header_order(key):
    if key in _HEADER_PRIORITY:
        return (0, _HEADER_PRIORITY.index(key), key)
    return (1, 0, key)


def _format_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _band_series(scan: ScanResult, label) -> dict:
    """The scan's mean curve with a one-sigma band, as a line_plot series."""
    return {"x": scan.axis, "y": scan.mean,
            "band": (scan.mean - scan.std, scan.mean + scan.std),
            "label": label}


def emit_outputs(scan: ScanResult, cfg: ExperimentConfig, out_dir) -> dict:
    """Write raw.csv, summary.csv, failures.csv, figure.svg, and
    manifest.json."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    paths["raw"] = os.path.join(out_dir, "raw.csv")
    with open(paths["raw"], "w") as fh:
        fh.write(",".join(scan.raw_header) + "\n")
        for row in scan.raw_rows:
            fh.write(",".join(_format_cell(row.get(k, ""))
                              for k in scan.raw_header) + "\n")

    paths["summary"] = os.path.join(out_dir, "summary.csv")
    with open(paths["summary"], "w") as fh:
        fh.write("axis,mean,std,n\n")
        for v, m, s, n in zip(scan.axis, scan.mean, scan.std, scan.count):
            fh.write(f"{_format_cell(v)},{repr(float(m))},"
                     f"{repr(float(s))},{int(n)}\n")

    paths["failures"] = os.path.join(out_dir, "failures.csv")
    with open(paths["failures"], "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_FAILURE_HEADER)
        for failure in scan.failures:
            writer.writerow([_format_cell(failure.get(k, ""))
                             for k in _FAILURE_HEADER])

    paths["figure"] = os.path.join(out_dir, "figure.svg")
    losses_positive = bool(np.all(scan.mean > 0))
    line_plot(
        paths["figure"], [_band_series(scan, scan.metric)],
        title=f"{cfg.scenario}: {scan.metric} vs {scan.axis_name}",
        xlabel=scan.axis_name, ylabel=scan.metric, logy=losses_positive)

    paths["manifest"] = os.path.join(out_dir, "manifest.json")
    write_manifest(cfg, paths["manifest"], [scan])
    return paths


def write_manifest(cfg: ExperimentConfig, path, scans) -> None:
    """The config that reruns the scans, its conventions, their failed
    replicate jobs and wall seconds, and the numerical software."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "software_version": __version__,
        "failures": sum(len(scan.failures) for scan in scans),
        "seconds": sum(scan.seconds for scan in scans),
        "environment": {
            "numpy": np.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        },
        "conventions": {
            "test_frame": "training-set normalization statistics",
            "loss": "half mean squared error (regression), "
                    "mean cross-entropy (classification)",
            "replicate_seed": "base_seed + replicate",
            "test_seed": f"base_seed + {TEST_SEED_OFFSET}",
            "validation_seed": f"base_seed + {VAL_SEED_OFFSET} + replicate",
        },
        "config": asdict(cfg),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit_family(cfg: ExperimentConfig, outers, scans) -> dict:
    """chi_star.csv, the combined figure and the manifest over a family of
    bond scans, one per ``{outer name: value}`` in ``outers``."""
    (name,) = outers[0]
    values = [outer[name] for outer in outers]
    paths = {"chi_star": os.path.join(cfg.out_dir, "chi_star.csv")}
    with open(paths["chi_star"], "w") as fh:
        fh.write(f"{name},chi_star,mean,std\n")
        for value, scan in zip(values, scans):
            chi, m, s = find_optimal_chi(scan)
            fh.write(f"{_format_cell(value)},{chi},{repr(m)},{repr(s)}\n")
    paths["figure"] = os.path.join(cfg.out_dir, "figure.svg")
    logy = all(np.all(s.mean > 0) for s in scans)
    line_plot(paths["figure"],
              [_band_series(scan, f"{name}={value}")
               for value, scan in zip(values, scans)],
              title=f"{cfg.scenario}: scans over {name}",
              xlabel=scans[0].axis_name, ylabel=scans[0].metric, logy=logy)
    paths["manifest"] = os.path.join(cfg.out_dir, "manifest.json")
    write_manifest(cfg, paths["manifest"], scans)
    return paths


# ---------------------------------------------------------------------------
# scenario presets

# Presets name only what differs from the ExperimentConfig defaults, which
# are the paper's artificial-data grid (eps 0.3, ntr 300, chi 2..27).
_PAPER_EPS = tuple(round(0.1 * k, 1) for k in range(1, 11))
_IMAGES = dict(ntr_list=(1024,), chi_list=tuple(range(2, 21)), sweeps=100,
               replicates=1)
_PRESETS = {
    "fig2": dict(method=INVERSION, ntr_list=tuple(range(50, 801, 50)),
                 full_replicates=100, outer="ntr"),
    "fig3": dict(method=INVERSION, eps_list=(0.1, 0.2, 0.3),
                 full_replicates=100, outer="eps"),
    "fig4": dict(method=BOTH, eps_list=(0.1, 0.3), full_replicates=32,
                 outer="eps"),
    "fig6": dict(method=BOTH, eps_list=(1.0,), full_replicates=32,
                 outer="eps"),
    "fig7": dict(method=INVERSION, eps_list=_PAPER_EPS, full_replicates=100,
                 outer="eps"),
    "fig8": dict(method=BOTH, eps_list=_PAPER_EPS, full_replicates=32,
                 outer="eps"),
    # fig5 follows its bond scan with a train-size scan on this grid
    "fig5": dict(_IMAGES, trainsize=dict(
        chi_list=(6,), ntr_list=(128, 256, 512, 1024, 2048, 4096))),
    "fig9": dict(_IMAGES, noise_levels=(0.0, 0.1, 0.2), outer="noise"),
}


def scenario_config(cfg: ExperimentConfig, given=()) -> ExperimentConfig:
    """Fill the figure-specific grids.

    A preset sets a field only when the field is still at its dataclass
    default and not named in ``given``, the fields set explicitly (flags
    and config-file entries), so those win even when they equal the
    default; --full restores the paper-scale replicate counts.
    """
    if cfg.scenario == "custom":
        return cfg
    if cfg.scenario not in _PRESETS:
        raise ValueError(f"unknown scenario {cfg.scenario!r}")
    base, preset = ExperimentConfig(), _PRESETS[cfg.scenario]
    updates = {name: value for name, value in preset.items()
               if name in base.__dataclass_fields__ and name not in given
               and getattr(cfg, name) == getattr(base, name)}
    if cfg.full and "full_replicates" in preset:
        updates["replicates"] = preset["full_replicates"]
    return replace(cfg, **updates)


def _scenario_plan(cfg: ExperimentConfig):
    """The scans a scenario runs, in order, as (directory under out_dir,
    config, axis, outer) tuples.  fig5 is a bond and a train-size scan; a
    family is one bond scan per value of an outer grid, ``outer`` holding
    ``{grid name: value}``; a lone scan is written to out_dir itself."""
    if cfg.scenario == "fig5":
        sizes = replace(cfg, **_PRESETS["fig5"]["trainsize"])
        return [("bond", cfg, "chi", {}), ("trainsize", sizes, "ntr", {})]
    grids = {"eps": cfg.eps_list, "ntr": cfg.ntr_list,
             "noise": cfg.noise_levels}
    if cfg.scenario != "custom":
        outer = _PRESETS[cfg.scenario]["outer"]
    elif len(cfg.eps_list) > 1:
        outer = "eps"
    elif len(cfg.ntr_list) > 1 and len(cfg.chi_list) > 1:
        outer = "ntr"
    else:
        return [("", cfg, "ntr" if len(cfg.ntr_list) > 1 else "chi", {})]
    return [(f"{outer}={value:g}" if isinstance(value, float)
             else f"{outer}={value}", cfg, "chi", {outer: value})
            for value in grids[outer]]


def run_scenario(cfg: ExperimentConfig, given=()):
    """Run a scenario's plan and write each scan as it ends, then a
    family's summary; returns (ScanResults in plan order, paths).
    ``given`` names the fields no preset overrides (``scenario_config``)."""
    cfg = scenario_config(cfg, given)
    cfg.validate()
    plan = _scenario_plan(cfg)
    names = [name for name, *_ in plan]
    if len(set(names)) < len(names):
        raise ValueError(f"the scans at {[outer for *_, outer in plan]} "
                         f"would share the directories {names}")
    images = None
    if cfg.scenario in IMAGE_SCENARIOS:
        images = load_mnist_pair(cfg)
        for _, config, axis, outer in plan:
            for n in _scan_sizes(config, axis, outer.get("ntr")):
                if n > images[0].count:
                    raise ValueError(f"training size {n} exceeds the "
                                     f"{images[0].count}-image training pool")
    scans, paths = [], {}
    for name, config, axis, outer in plan:
        scan = run_scan(config, axis, images, **outer)
        written = emit_outputs(scan, config, os.path.join(cfg.out_dir, name))
        scans.append(scan)
        if not outer:
            paths.update({f"{name}_{k}" if name else k: v
                          for k, v in written.items()})
    if plan[0][3]:
        paths = _emit_family(cfg, [outer for *_, outer in plan], scans)
    return scans, paths
