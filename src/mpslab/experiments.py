"""Replicated scan harness: bond-dimension, train-size, epsilon, and
label-noise scans with mean/sigma aggregation, CSV + SVG outputs, and a
JSON manifest that reruns any scan bitwise."""

import csv
import json
import logging
import os
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
from .exact import build_design_system_arrays, solve_full_weight
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
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        for name in ("eps_list", "ntr_list", "chi_list", "noise_levels"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")


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
    type name and ``message``.
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

    @property
    def chi_star(self):
        return find_optimal_chi(self)


@dataclass
class MultiScanResult:
    """A family of bond scans swept over an outer axis (eps or ntr)."""

    outer_name: str
    outer_values: list
    scans: list

    def chi_star_table(self):
        return [(v,) + find_optimal_chi(s)
                for v, s in zip(self.outer_values, self.scans)]


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
# artificial-data scans

def _shared_test_set(cfg: ExperimentConfig, eps):
    """The test set every replicate of a scan at ``eps`` shares, and its
    featurization."""
    test_set = generate_dataset(cfg.target_spec(eps), cfg.n_test,
                                cfg.base_seed + TEST_SEED_OFFSET)
    return test_set, featurize_batch(cfg.feature_map(), test_set.features)


def _regression_replicate(cfg_dict, eps, ntr, chi_values, rep, test_set,
                          phi_te):
    """All bond dimensions for one training replicate. Returns row dicts.

    Every dataset is featurized once here and its features serve each chi;
    ``test_set``/``phi_te`` come from ``_shared_test_set``.
    """
    cfg = config_from_dict(cfg_dict)
    fmap = cfg.feature_map()
    spec = cfg.target_spec(eps)
    train_set = generate_dataset(spec, ntr, cfg.base_seed + rep)
    phi_tr = featurize_batch(fmap, train_set.features)
    y_tr = train_set.labels
    y_te = frame_labels(test_set, train_set)
    full = solve_full_weight(build_design_system_arrays(phi_tr, y_tr,
                                                        cfg.ridge))
    training = cfg.method in (DMRG, BOTH)
    if training:
        val_set = generate_dataset(spec, cfg.n_test,
                                   cfg.base_seed + VAL_SEED_OFFSET + rep)
        phi_val = featurize_batch(fmap, val_set.features)
        y_val = frame_labels(val_set, train_set)
        tc = TrainConfig(sweeps=cfg.sweeps, cg_steps=cfg.cg_steps,
                         ridge=cfg.ridge)
    rows = []
    for chi in chi_values:
        w, _ = compress(full, chi)
        row = {
            "axis": chi, "eps": eps, "ntr": ntr, "replicate": rep,
            "train_seed": cfg.base_seed + rep,
            "inv_train_loss": data_loss(w.evaluate_batch(phi_tr), y_tr, MSE),
            "inv_test_loss": data_loss(w.evaluate_batch(phi_te), y_te, MSE),
        }
        if training:
            _, trace = train_arrays(w, phi_tr, y_tr, phi_val, y_val, phi_te,
                                    y_te, tc)
            best = trace.best_validation_sweep
            row.update({
                "dmrg_train_loss": trace.train_loss[-1],
                "dmrg_val_loss": trace.val_loss[best],
                "dmrg_test_loss": trace.test_loss[best],
                "dmrg_best_sweep": best,
                "dmrg_sweeps_run": trace.sweeps[-1],
            })
        rows.append(row)
    return rows


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


def run_bond_scan(cfg: ExperimentConfig, eps=None, ntr=None) -> ScanResult:
    """Test loss versus bond dimension over replicate training sets."""
    cfg.validate()
    eps = cfg.eps_list[0] if eps is None else eps
    ntr = cfg.ntr_list[0] if ntr is None else ntr
    cfg_dict = asdict(cfg)
    test_set, phi_te = _shared_test_set(cfg, eps)
    jobs = [({"replicate": r, "eps": eps, "ntr": ntr},
             (cfg_dict, eps, ntr, list(cfg.chi_list), r, test_set, phi_te))
            for r in range(cfg.replicates)]
    rows, failures = _map_replicates(cfg, _regression_replicate, jobs)
    metric = "inv_test_loss" if cfg.method == INVERSION else "dmrg_test_loss"
    mean, std, count = _aggregate(rows, list(cfg.chi_list), metric)
    header = sorted({k for r in rows for k in r}, key=_header_order)
    return ScanResult(axis_name="chi", axis=list(cfg.chi_list), mean=mean,
                      std=std, count=count, raw_header=header, raw_rows=rows,
                      metric=metric, failures=failures)


def run_trainsize_scan(cfg: ExperimentConfig) -> ScanResult:
    """Test loss versus training-set size at fixed bond dimension."""
    cfg.validate()
    chi = cfg.chi_list[0]
    eps = cfg.eps_list[0]
    cfg_dict = asdict(cfg)
    test_set, phi_te = _shared_test_set(cfg, eps)
    jobs = [({"replicate": r, "eps": eps, "ntr": ntr},
             (cfg_dict, eps, ntr, [chi], r, test_set, phi_te))
            for ntr in cfg.ntr_list for r in range(cfg.replicates)]
    rows, failures = _map_replicates(cfg, _regression_replicate, jobs)
    for row in rows:
        row["axis"] = row["ntr"]
    metric = "inv_test_loss" if cfg.method == INVERSION else "dmrg_test_loss"
    mean, std, count = _aggregate(rows, list(cfg.ntr_list), metric)
    header = sorted({k for r in rows for k in r}, key=_header_order)
    return ScanResult(axis_name="ntr", axis=list(cfg.ntr_list), mean=mean,
                      std=std, count=count, raw_header=header, raw_rows=rows,
                      metric=metric, failures=failures)


def run_epsilon_scan(cfg: ExperimentConfig) -> MultiScanResult:
    """A bond scan per epsilon; chi*(eps) comes from the per-scan minima."""
    cfg.validate()
    scans = [run_bond_scan(cfg, eps=eps) for eps in cfg.eps_list]
    return MultiScanResult(outer_name="eps", outer_values=list(cfg.eps_list),
                           scans=scans)


# ---------------------------------------------------------------------------
# MNIST scans

def load_mnist_pair(cfg: ExperimentConfig):
    train_pool = preprocess(load_idx(cfg.mnist_images, cfg.mnist_labels),
                            cfg.downsample)
    test_set = preprocess(
        load_idx(cfg.mnist_test_images, cfg.mnist_test_labels),
        cfg.downsample)
    return train_pool, test_set


def _mnist_replicate(cfg_dict, chi_values, ntr, noise, rep, train_pool,
                     test_set):
    cfg = config_from_dict(cfg_dict)
    sub = subset(train_pool, ntr, seed=cfg.base_seed + rep)
    if noise > 0.0:
        sub = corrupt_labels(sub, noise,
                             seed=cfg.base_seed + NOISE_SEED_OFFSET + rep)
    rows = []
    for chi in chi_values:
        tc = TrainConfig(sweeps=cfg.sweeps, cg_steps=cfg.cg_steps, ridge=0.0,
                         loss_kind=CROSS_ENTROPY, checkpoint="last",
                         sweep_tol=0.0)
        _, trace = train_classifier(sub, None, test_set, chi, tc,
                                    seed=cfg.base_seed + rep)
        rows.append({
            "axis": chi, "ntr": ntr, "noise": noise, "replicate": rep,
            "train_seed": cfg.base_seed + rep,
            "train_loss": trace.train_loss[-1],
            "train_accuracy": trace.train_accuracy[-1],
            "test_loss": trace.test_loss[-1],
            "test_accuracy": trace.test_accuracy[-1],
            "test_error": 1.0 - trace.test_accuracy[-1],
            "best_test_loss": float(np.nanmin(trace.test_loss)),
            "best_test_accuracy": float(np.nanmax(trace.test_accuracy)),
        })
    return rows


def run_mnist_bond_scan(cfg: ExperimentConfig, train_pool, test_set,
                        ntr=None, noise=0.0) -> ScanResult:
    cfg.validate()
    ntr = cfg.ntr_list[0] if ntr is None else ntr
    cfg_dict = asdict(cfg)
    jobs = [({"replicate": r, "ntr": ntr, "noise": noise},
             (cfg_dict, list(cfg.chi_list), ntr, noise, r, train_pool,
              test_set))
            for r in range(cfg.replicates)]
    rows, failures = _map_replicates(cfg, _mnist_replicate, jobs)
    mean, std, count = _aggregate(rows, list(cfg.chi_list), "test_error")
    header = sorted({k for r in rows for k in r}, key=_header_order)
    return ScanResult(axis_name="chi", axis=list(cfg.chi_list), mean=mean,
                      std=std, count=count, raw_header=header, raw_rows=rows,
                      metric="test_error", failures=failures)


def run_mnist_trainsize_scan(cfg: ExperimentConfig, train_pool,
                             test_set) -> ScanResult:
    cfg.validate()
    chi = cfg.chi_list[0]
    cfg_dict = asdict(cfg)
    jobs = [({"replicate": r, "ntr": ntr, "noise": 0.0},
             (cfg_dict, [chi], ntr, 0.0, r, train_pool, test_set))
            for ntr in cfg.ntr_list for r in range(cfg.replicates)]
    rows, failures = _map_replicates(cfg, _mnist_replicate, jobs)
    for row in rows:
        row["axis"] = row["ntr"]
    mean, std, count = _aggregate(rows, list(cfg.ntr_list), "test_error")
    header = sorted({k for r in rows for k in r}, key=_header_order)
    return ScanResult(axis_name="ntr", axis=list(cfg.ntr_list), mean=mean,
                      std=std, count=count, raw_header=header, raw_rows=rows,
                      metric="test_error", failures=failures)


def run_noise_scan(cfg: ExperimentConfig, train_pool=None,
                   test_set=None) -> MultiScanResult:
    """MNIST bond scans at each label-noise level (test error + train acc)."""
    cfg.validate()
    if train_pool is None:
        train_pool, test_set = load_mnist_pair(cfg)
    scans = [run_mnist_bond_scan(cfg, train_pool, test_set, noise=p)
             for p in cfg.noise_levels]
    return MultiScanResult(outer_name="noise",
                           outer_values=list(cfg.noise_levels), scans=scans)


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
        paths["figure"],
        [{"x": scan.axis, "y": scan.mean,
          "band": (scan.mean - scan.std, scan.mean + scan.std),
          "label": scan.metric}],
        title=f"{cfg.scenario}: {scan.metric} vs {scan.axis_name}",
        xlabel=scan.axis_name, ylabel=scan.metric, logy=losses_positive)

    paths["manifest"] = os.path.join(out_dir, "manifest.json")
    write_manifest(cfg, paths["manifest"], len(scan.failures))
    return paths


def write_manifest(cfg: ExperimentConfig, path, failures: int) -> None:
    """The config that reruns the scan, its conventions, and the number of
    failed replicate jobs."""
    manifest = {
        "software_version": __version__,
        "failures": failures,
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


def emit_multi_outputs(multi: MultiScanResult, cfg: ExperimentConfig,
                       out_dir) -> dict:
    """Per-value subdirectories plus a chi_star.csv and combined figure."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    series = []
    for value, scan in zip(multi.outer_values, multi.scans):
        sub = os.path.join(out_dir, f"{multi.outer_name}={value:g}"
                           if isinstance(value, float)
                           else f"{multi.outer_name}={value}")
        emit_outputs(scan, cfg, sub)
        series.append({"x": scan.axis, "y": scan.mean,
                       "band": (scan.mean - scan.std, scan.mean + scan.std),
                       "label": f"{multi.outer_name}={value}"})
    paths["chi_star"] = os.path.join(out_dir, "chi_star.csv")
    with open(paths["chi_star"], "w") as fh:
        fh.write(f"{multi.outer_name},chi_star,mean,std\n")
        for value, chi, m, s in multi.chi_star_table():
            fh.write(f"{_format_cell(value)},{chi},{repr(m)},{repr(s)}\n")
    paths["figure"] = os.path.join(out_dir, "figure.svg")
    logy = all(np.all(s.mean > 0) for s in multi.scans)
    line_plot(paths["figure"], series,
              title=f"{cfg.scenario}: scans over {multi.outer_name}",
              xlabel=multi.scans[0].axis_name,
              ylabel=multi.scans[0].metric, logy=logy)
    paths["manifest"] = os.path.join(out_dir, "manifest.json")
    write_manifest(cfg, paths["manifest"],
                   sum(len(scan.failures) for scan in multi.scans))
    return paths


# ---------------------------------------------------------------------------
# scenario presets

_PRESETS = {
    "fig2": dict(method=INVERSION, eps_list=(0.3,),
                 ntr_list=tuple(range(50, 801, 50)),
                 chi_list=tuple(range(2, 28)), full_replicates=100),
    "fig3": dict(method=INVERSION, eps_list=(0.1, 0.2, 0.3), ntr_list=(300,),
                 chi_list=tuple(range(2, 28)), full_replicates=100),
    "fig4": dict(method=BOTH, eps_list=(0.1, 0.3), ntr_list=(300,),
                 chi_list=tuple(range(2, 28)), full_replicates=32),
    "fig6": dict(method=BOTH, eps_list=(1.0,), ntr_list=(300,),
                 chi_list=tuple(range(2, 28)), full_replicates=32),
    "fig7": dict(method=INVERSION,
                 eps_list=tuple(round(0.1 * k, 1) for k in range(1, 11)),
                 ntr_list=(300,), chi_list=tuple(range(2, 28)),
                 full_replicates=100),
    "fig8": dict(method=BOTH,
                 eps_list=tuple(round(0.1 * k, 1) for k in range(1, 11)),
                 ntr_list=(300,), chi_list=tuple(range(2, 28)),
                 full_replicates=32),
    "fig5": dict(ntr_list=(1024,), chi_list=tuple(range(2, 21)), sweeps=100,
                 cg_steps=5, replicates=1),
    "fig9": dict(ntr_list=(1024,), noise_levels=(0.0, 0.1, 0.2),
                 chi_list=tuple(range(2, 21)), sweeps=100, cg_steps=5,
                 replicates=1),
}


def scenario_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Fill the figure-specific grids.

    Presets only touch fields still at their dataclass defaults, so
    explicit flags and config-file entries win; --full restores the
    paper-scale replicate counts.
    """
    if cfg.scenario == "custom":
        return cfg
    if cfg.scenario not in _PRESETS:
        raise ValueError(f"unknown scenario {cfg.scenario!r}")
    base = ExperimentConfig()
    updates = {}
    preset = dict(_PRESETS[cfg.scenario])
    full_replicates = preset.pop("full_replicates", None)
    for name, value in preset.items():
        if getattr(cfg, name) == getattr(base, name):
            updates[name] = value
    if cfg.full and full_replicates is not None:
        updates["replicates"] = full_replicates
    return replace(cfg, **updates)


def run_scenario(cfg: ExperimentConfig):
    """Dispatch a scenario and write its outputs; returns (result, paths)."""
    cfg = scenario_config(cfg)
    cfg.validate()
    s = cfg.scenario
    if s in ("fig3", "fig4", "fig6", "fig7", "fig8"):
        result = run_epsilon_scan(cfg)
        return result, emit_multi_outputs(result, cfg, cfg.out_dir)
    if s == "fig2":
        scans = [run_bond_scan(cfg, ntr=ntr) for ntr in cfg.ntr_list]
        result = MultiScanResult("ntr", list(cfg.ntr_list), scans)
        return result, emit_multi_outputs(result, cfg, cfg.out_dir)
    if s == "fig5":
        train_pool, test_set = load_mnist_pair(cfg)
        bond = run_mnist_bond_scan(cfg, train_pool, test_set)
        sizes = replace(cfg, chi_list=(6,),
                        ntr_list=(128, 256, 512, 1024, 2048, 4096))
        size_scan = run_mnist_trainsize_scan(sizes, train_pool, test_set)
        paths = {f"bond_{k}": v for k, v in emit_outputs(
            bond, cfg, os.path.join(cfg.out_dir, "bond")).items()}
        paths.update({f"trainsize_{k}": v for k, v in emit_outputs(
            size_scan, sizes, os.path.join(cfg.out_dir, "trainsize")).items()})
        return (bond, size_scan), paths
    if s == "fig9":
        result = run_noise_scan(cfg)
        return result, emit_multi_outputs(result, cfg, cfg.out_dir)
    # custom: outer axis chosen by whichever grid has several values
    if len(cfg.eps_list) > 1:
        result = run_epsilon_scan(cfg)
        return result, emit_multi_outputs(result, cfg, cfg.out_dir)
    if len(cfg.ntr_list) > 1 and len(cfg.chi_list) == 1:
        result = run_trainsize_scan(cfg)
        return result, emit_outputs(result, cfg, cfg.out_dir)
    if len(cfg.ntr_list) > 1:
        scans = [run_bond_scan(cfg, ntr=ntr) for ntr in cfg.ntr_list]
        result = MultiScanResult("ntr", list(cfg.ntr_list), scans)
        return result, emit_multi_outputs(result, cfg, cfg.out_dir)
    result = run_bond_scan(cfg)
    return result, emit_outputs(result, cfg, cfg.out_dir)
