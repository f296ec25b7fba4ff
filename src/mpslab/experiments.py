"""Replicated scan harness: one runner for bond-dimension and train-size
scans, and scenarios as plans of such scans (a family sweeps the product
of every grid with more than one value but the scan axis's) run and
written by one loop, with mean/sigma aggregation, CSV + SVG outputs, and
manifests that rerun any scan bitwise."""

import itertools
import json
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .classify import (corrupt_labels, load_idx, preprocess, site_features,
                       subset, train_classifier)
from .datagen import TargetSpec, generate_dataset
from .dmrg import (CROSS_ENTROPY, MSE, TrainConfig, accuracy, data_loss,
                   frame_labels, train_arrays)
from .errors import ScanAbortedError
from .exact import DESIGN_GUARD, design_halves, inversion_fits
from .features import FeatureMap, featurize_batch
# bound here for perfbench's tracer self-test, which checks that tracing
# mps.compress rebinds every module's name for it
from .mps import compress  # noqa: F401
from .svgplot import line_plot
from .tables import write_table

logger = logging.getLogger(__name__)

TEST_SEED_OFFSET = 1_000_003
VAL_SEED_OFFSET = 2_000_003
NOISE_SEED_OFFSET = 3_000_017

INVERSION = "inversion"
BOTH = "both"

SCENARIOS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
             "custom")
IMAGE_SCENARIOS = ("fig5", "fig9")
# the type of each grid's values
GRIDS = {"eps_list": float, "ntr_list": int, "chi_list": int,
         "noise_levels": float}


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
        if self.method not in (INVERSION, BOTH):
            raise ValueError(f"unknown method {self.method!r}")
        # a grid in order: the argmin's tie-break, the U-shape's endpoints
        # and the figure's x order all read it so
        for name in GRIDS:
            values = getattr(self, name)
            if not values or any(a >= b for a, b in zip(values, values[1:])):
                raise ValueError(f"{name} must be non-empty and strictly "
                                 f"increasing, got {values}")
        for name, value, least in (
                ("replicates", self.replicates, 1), ("jobs", self.jobs, 1),
                ("base_seed", self.base_seed, 0),
                ("chi_list", min(self.chi_list), 1),
                ("ntr_list", min(self.ntr_list), 2),
                ("n_test", self.n_test, 2)):
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        TrainConfig(sweeps=self.sweeps, cg_steps=self.cg_steps)
        for noise in self.noise_levels:
            if not 0.0 <= noise <= 1.0:
                raise ValueError(f"noise_levels values must be in [0, 1], "
                                 f"got {noise}")
        # an entry no scan of the scenario reads: a grid's second value
        # would make a family of identical scans, and an IDX file would be
        # recorded in a manifest whose scan never read it
        image = self.scenario in IMAGE_SCENARIOS
        for name in ("eps_list",) if image else ("noise_levels", *IDX_FILES):
            value = getattr(self, name)
            if len(value) > (1 if name in GRIDS else 0):
                raise ValueError(f"{name} is not read by scenario "
                                 f"{self.scenario!r}, got {value!r}")
        if image:
            return
        # the bounds of the target and feature map, before any scan
        for name, value, least in (
                ("n_sites", self.n_sites, 1), ("phys_dim", self.phys_dim, 2),
                ("chi_target", self.chi_target, 2),
                ("target_seed", self.target_seed, 0)):
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        for eps in self.eps_list:
            if not 0.0 < eps <= 1.0:
                raise ValueError(f"eps_list values must be in (0, 1], got "
                                 f"{eps}")
        # every artificial-data replicate starts from the inversion
        if not 0.0 < self.ridge < np.inf:
            raise ValueError(f"ridge must be finite and > 0, got {self.ridge}")
        dim = self.phys_dim ** self.n_sites
        if dim > DESIGN_GUARD:
            raise ValueError(f"phys_dim ** n_sites = {self.phys_dim} ** "
                             f"{self.n_sites} = {dim} exceeds the inversion "
                             f"design guard {DESIGN_GUARD}")


# ---------------------------------------------------------------------------
# scenario presets and the config readers, the one place a preset applies

# Presets name only what differs from the ExperimentConfig defaults, which
# are the paper's artificial-data grid (eps 0.3, ntr 300, chi 2..27).
_PAPER_EPS = tuple(round(0.1 * k, 1) for k in range(1, 11))
_IMAGES = dict(ntr_list=(1024,), chi_list=tuple(range(2, 21)), sweeps=100,
               replicates=1)
_PRESETS = {
    "fig2": dict(method=INVERSION, ntr_list=tuple(range(50, 801, 50)),
                 full_replicates=100),
    "fig3": dict(method=INVERSION, eps_list=(0.1, 0.2, 0.3),
                 full_replicates=100),
    "fig4": dict(method=BOTH, eps_list=(0.1, 0.3), full_replicates=32),
    "fig6": dict(method=BOTH, eps_list=(1.0,), full_replicates=32),
    "fig7": dict(method=INVERSION, eps_list=_PAPER_EPS, full_replicates=100),
    "fig8": dict(method=BOTH, eps_list=_PAPER_EPS, full_replicates=32),
    # fig5 follows its bond scan with a train-size scan on this grid
    "fig5": dict(_IMAGES, trainsize=dict(
        chi_list=(6,), ntr_list=(128, 256, 512, 1024, 2048, 4096))),
    "fig9": dict(_IMAGES, noise_levels=(0.0, 0.1, 0.2)),
}
_FIELDS = ExperimentConfig.__dataclass_fields__
IDX_FILES = [name for name in _FIELDS if name.startswith("mnist_")]
# the type of each entry the reader takes: a field's, a grid's values', and
# full's, which asks for the preset's paper-scale replicate count
ENTRY_TYPES = {**{name: f.type for name, f in _FIELDS.items()}, **GRIDS,
               "full": bool}


def read_config(path) -> dict:
    """The config entries of the JSON file ``path``: a config file's
    object, or a manifest's ``config``.  A relative ``out_dir`` is taken
    relative to the file's own directory, so a manifest reruns in place
    from any working directory.  A file that is not JSON or holds no
    object of entries raises ValueError naming it."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not JSON: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("config", data)
    if not isinstance(data, dict):
        raise ValueError(f"{path} holds no JSON object of config entries, "
                         f"got {data!r}")
    if isinstance(data.get("out_dir"), str):
        data["out_dir"] = os.path.normpath(
            os.path.join(os.path.dirname(path), data["out_dir"]))
    return data


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from entries (``read_config``'s or the flags'): the
    dataclass defaults, then the scenario's preset fields, then the
    entries, so an entry wins even when it equals the default.

    A grid takes a list or a single value, which fills a one-point grid.
    ``full`` (true) sets the preset's paper-scale replicate count unless
    ``replicates`` is given, where a scenario without one rejects it.  A key
    that names no entry, or a value that does not fit its type, raises
    ValueError naming the key; an int fits a float field.
    """
    entries = {}
    for key, value in data.items():
        if key not in ENTRY_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        grid, kind = key in GRIDS, ENTRY_TYPES[key]
        items = value if grid and isinstance(value, (list, tuple)) else [value]
        if not all(_fits(item, kind) for item in items):
            raise ValueError(f"{key} takes values of type {kind.__name__}, "
                             f"got {value!r}")
        entries[key] = tuple(items) if grid else value
    scenario = entries.get("scenario", "custom")
    preset = _PRESETS.get(scenario, {})
    fields = {name: value for name, value in preset.items() if name in _FIELDS}
    if entries.pop("full", False) and "replicates" not in entries:
        if "full_replicates" not in preset:
            raise ValueError(f"full: scenario {scenario!r} has no "
                             f"paper-scale replicate count")
        fields["replicates"] = preset["full_replicates"]
    return ExperimentConfig(**{**fields, **entries})


def _fits(value, kind) -> bool:
    """Whether ``value`` is a ``kind``; a bool is only a bool, and an int
    is also a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


@dataclass
class ScanResult:
    """Aggregated scan along one axis plus the raw per-replicate table.

    ``failures`` holds one dict per failed replicate job: its job key
    (replicate, ntr and eps or noise) plus the exception's ``error``
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


def _check_finite_means(scan: ScanResult) -> None:
    bad = [v for v, m in zip(scan.axis, scan.mean) if not np.isfinite(m)]
    if bad:
        raise ValueError(f"mean {scan.metric} is not finite at "
                         f"{scan.axis_name} = {bad}")


def find_optimal_chi(scan: ScanResult):
    """(chi*, mean, sigma) at the argmin of the mean test metric.

    Ties break toward the smaller axis value.  A non-finite mean raises
    ValueError naming its axis values.
    """
    _check_finite_means(scan)
    k = int(np.argmin(scan.mean))
    return scan.axis[k], float(scan.mean[k]), float(scan.std[k])


def has_significant_ushape(scan: ScanResult) -> bool:
    """True when an interior minimum sits below both scan endpoints by more
    than one pooled standard error of the difference.  A non-finite mean
    raises ValueError naming its axis values."""
    _check_finite_means(scan)
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
# artificial-data replicates; every fits generator takes (cfg, eps or noise,
# ntr, chi values, replicate, *shared inputs) and yields one row per chi

def _shared_test_set(cfg: ExperimentConfig, eps):
    """The test set every replicate of a scan at ``eps`` shares, its
    featurization and its half-chain designs ``design_halves(phi_te)``,
    for serial and pool scans alike (0.44 MB at the paper's 1024 samples
    of 27 + 27 features, 1.6 MB at the 10^4 design guard)."""
    test_set = generate_dataset(cfg.target_spec(eps), cfg.n_test,
                                cfg.base_seed + TEST_SEED_OFFSET)
    phi_te = featurize_batch(cfg.feature_map(), test_set.features)
    return test_set, phi_te, design_halves(phi_te)


def _regression_fits(cfg, eps, ntr, chi_values, rep, test_set, phi_te,
                     halves_te):
    """One training replicate at each bond dimension: yields (row, model,
    trace) per chi.  The model is the DMRG-trained MPS with its TrainTrace
    when DMRG runs, else the compressed inversion solution and None.  The
    trainer sees no test data; the ``dmrg_*`` losses are those of the
    best-validation checkpoint it returns, scored once on the test set.

    Every dataset is featurized once here and its features serve each chi;
    ``test_set``/``phi_te``/``halves_te`` come from ``_shared_test_set``.
    The inversion models and their outputs on the training and test sets
    are one ``inversion_fits`` call.
    """
    fmap = cfg.feature_map()
    spec = cfg.target_spec(eps)
    train_set = generate_dataset(spec, ntr, cfg.base_seed + rep)
    phi_tr = featurize_batch(fmap, train_set.features)
    y_tr = train_set.labels
    y_te = frame_labels(test_set, train_set)
    _, models, (pred_tr, pred_te) = inversion_fits(
        phi_tr, y_tr, cfg.ridge, chi_values, halves_te)
    training = cfg.method == BOTH
    if training:
        val_set = generate_dataset(spec, cfg.n_test,
                                   cfg.base_seed + VAL_SEED_OFFSET + rep)
        phi_val = featurize_batch(fmap, val_set.features)
        y_val = frame_labels(val_set, train_set)
        tc = TrainConfig(sweeps=cfg.sweeps, cg_steps=cfg.cg_steps,
                         ridge=cfg.ridge)
    for k, (chi, w) in enumerate(zip(chi_values, models)):
        trace = None
        row = {"axis": chi, "eps": eps, "ntr": ntr, "replicate": rep,
               "train_seed": cfg.base_seed + rep,
               "inv_train_loss": data_loss(pred_tr[:, k], y_tr, MSE),
               "inv_test_loss": data_loss(pred_te[:, k], y_te, MSE)}
        if training:
            w, trace = train_arrays(w, phi_tr, y_tr, phi_val, y_val, config=tc)
            best = trace.best_validation_sweep
            row.update(dmrg_train_loss=trace.train_loss[best],
                       dmrg_val_loss=trace.val_loss[best],
                       dmrg_test_loss=data_loss(w.evaluate_batch(phi_te),
                                                y_te, MSE),
                       dmrg_best_sweep=best, dmrg_sweeps_run=trace.sweeps[-1])
        yield row, w, trace


def _replicate_rows(fits, *args):
    """The raw rows of one replicate job: every row the ``fits`` generator
    (``_regression_fits`` or ``_mnist_fits``) yields for ``args``."""
    return [row for row, _, _ in fits(*args)]


def _map_replicates(cfg, worker, jobs):
    """Run replicate jobs (optionally in a pool) with an ordered merge.

    ``jobs`` is a list of (key, args) pairs, where key is a dict naming
    the job (replicate, ntr and eps or noise).  Returns (rows, failures),
    one failure dict per job that raised: its key plus the exception's
    ``error`` type name and ``message``.
    """
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            futures = [pool.submit(worker, *args) for _, args in jobs]
            results = [_outcome(fut.result) for fut in futures]
    else:
        results = [_outcome(worker, *args) for _, args in jobs]
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


def _outcome(call, *args):
    """``call(*args)``, or the exception it raised."""
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - recorded, counted
        return exc


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
    (row, model, trace) per chi.  The trainer sees no test data; the
    ``test_*`` columns score the model it returns once on the test set."""
    sub = subset(train_pool, ntr, seed=cfg.base_seed + rep)
    if noise > 0.0:
        sub = corrupt_labels(sub, noise,
                             seed=cfg.base_seed + NOISE_SEED_OFFSET + rep)
    tc = TrainConfig(sweeps=cfg.sweeps, cg_steps=cfg.cg_steps, ridge=0.0,
                     loss_kind=CROSS_ENTROPY, checkpoint="last",
                     sweep_tol=0.0)
    phi_te = site_features(test_set)
    for chi in chi_values:
        model, trace = train_classifier(sub, None, None, chi, tc,
                                        seed=cfg.base_seed + rep)
        out = model.evaluate_batch(phi_te)
        test_accuracy = accuracy(out, test_set.labels)
        yield {
            "axis": chi, "ntr": ntr, "noise": noise, "replicate": rep,
            "train_seed": cfg.base_seed + rep,
            "train_loss": trace.train_loss[-1],
            "train_accuracy": trace.train_accuracy[-1],
            "test_loss": data_loss(out, test_set.labels, CROSS_ENTROPY),
            "test_accuracy": test_accuracy,
            "test_error": 1.0 - test_accuracy,
        }, model, trace


def _scan_data(cfg: ExperimentConfig, images):
    """(fits, column, value, shared) of a scan of ``cfg``: with
    ``images=(train_pool, test_set)``, or an image scenario's IDX files
    when none are given, classifiers at the label noise; otherwise
    artificial-data fits at the epsilon against one shared test set.
    ``column`` is the raw.csv column of that noise or epsilon ``value``,
    and ``shared`` the inputs every replicate job takes."""
    if images is None and cfg.scenario in IMAGE_SCENARIOS:
        images = load_mnist_pair(cfg)
    if images is not None:
        return _mnist_fits, "noise", cfg.noise_levels[0], images
    eps = cfg.eps_list[0]
    return _regression_fits, "eps", eps, _shared_test_set(cfg, eps)


def run_single(cfg: ExperimentConfig, images=None):
    """(row, model, trace) of replicate 0 at the first value of every grid:
    the row is that job's raw.csv row in a scan, whose data it reads as
    ``run_scan`` does."""
    cfg.validate()
    fits, _, value, shared = _scan_data(cfg, images)
    return next(fits(cfg, value, cfg.ntr_list[0], cfg.chi_list[:1], 0,
                     *shared))


# ---------------------------------------------------------------------------
# scans

def scan_axis(cfg: ExperimentConfig) -> str:
    """The axis a scan of ``cfg`` runs: ``ntr`` when chi_list has one
    value and ntr_list more, otherwise ``chi``."""
    return "ntr" if len(cfg.chi_list) == 1 < len(cfg.ntr_list) else "chi"


def run_scan(cfg: ExperimentConfig, images=None) -> ScanResult:
    """A test metric against the ``scan_axis`` of ``cfg``, bond dimension
    or training size, over replicate training sets.

    Every other grid holds one value, and a second one raises ValueError
    naming its grid.  With ``images=(train_pool, test_set)``, or an image
    scenario's IDX files when none are given, each replicate trains
    classifiers at the label noise (metric ``test_error``); otherwise it
    fits artificial data at the epsilon against one shared test set
    (metric ``inv_test_loss``, or ``dmrg_test_loss`` when DMRG runs).
    """
    cfg.validate()
    axis = scan_axis(cfg)
    for name in GRIDS:
        if name != f"{axis}_list" and len(getattr(cfg, name)) > 1:
            raise ValueError(f"{name} holds {getattr(cfg, name)}; a {axis} "
                             f"scan runs one value of it")
    start = time.perf_counter()
    axis_values = list(getattr(cfg, f"{axis}_list"))
    fits, column, value, shared = _scan_data(cfg, images)
    metric = ("test_error" if column == "noise" else
              "inv_test_loss" if cfg.method == INVERSION else "dmrg_test_loss")
    jobs = [({"replicate": r, column: value, "ntr": n},
             (fits, cfg, value, n, cfg.chi_list, r, *shared))
            for n in cfg.ntr_list for r in range(cfg.replicates)]
    rows, failures = _map_replicates(cfg, _replicate_rows, jobs)
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


def run_bond_scan(cfg: ExperimentConfig) -> ScanResult:
    """``run_scan`` on artificial data; the name the benchmark harness
    calls and traces."""
    return run_scan(cfg)


# ---------------------------------------------------------------------------
# output files

_HEADER_PRIORITY = ["axis", "eps", "ntr", "noise", "replicate", "train_seed"]
_FAILURE_HEADER = ["replicate", "eps", "ntr", "noise", "error", "message"]


def _header_order(key):
    """_HEADER_PRIORITY's keys in its order, then the rest by name."""
    return (_HEADER_PRIORITY.index(key) if key in _HEADER_PRIORITY
            else len(_HEADER_PRIORITY), key)


def emit_outputs(scan: ScanResult, cfg: ExperimentConfig, out_dir) -> dict:
    """Write raw.csv, summary.csv, failures.csv, figure.svg, and
    manifest.json into ``out_dir``, whose manifest reruns the scan
    there."""
    os.makedirs(out_dir, exist_ok=True)
    return {
        "raw": write_table(
            os.path.join(out_dir, "raw.csv"), scan.raw_header,
            [[row.get(k, "") for k in scan.raw_header]
             for row in scan.raw_rows]),
        "summary": write_table(
            os.path.join(out_dir, "summary.csv"), ["axis", "mean", "std", "n"],
            zip(scan.axis, scan.mean, scan.std, scan.count)),
        "failures": write_table(
            os.path.join(out_dir, "failures.csv"), _FAILURE_HEADER,
            [[failure.get(k, "") for k in _FAILURE_HEADER]
             for failure in scan.failures]),
        **_write_figure_and_manifest(
            cfg, out_dir, [scan], [scan.metric],
            f"{cfg.scenario}: {scan.metric} vs {scan.axis_name}"),
    }


def _write_figure_and_manifest(cfg, out_dir, scans, labels, title) -> dict:
    """figure.svg, each scan's mean curve with a one-sigma band under its
    label (log y when every mean is positive), and manifest.json."""
    paths = {"figure": os.path.join(out_dir, "figure.svg"),
             "manifest": os.path.join(out_dir, "manifest.json")}
    line_plot(paths["figure"],
              [{"x": scan.axis, "y": scan.mean,
                "band": (scan.mean - scan.std, scan.mean + scan.std),
                "label": label} for scan, label in zip(scans, labels)],
              title=title, xlabel=scans[0].axis_name, ylabel=scans[0].metric,
              logy=all(np.all(scan.mean > 0) for scan in scans))
    write_manifest(cfg, paths["manifest"], scans)
    return paths


def write_manifest(cfg: ExperimentConfig, path, scans) -> None:
    """The config that reruns the scans, its conventions, their failed
    replicate jobs and wall seconds, and the numerical software.  The
    config's ``out_dir`` is recorded as ``.``, the manifest's own
    directory, which ``read_config`` resolves it against: the manifest
    reruns the directory it sits in, wherever that is."""
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
        "config": dict(asdict(cfg), out_dir="."),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit_family(cfg: ExperimentConfig, family, plan, scans) -> dict:
    """chi_star.csv (one leading column per ``family`` grid, then the
    best axis value, its mean and sigma), the combined figure and the
    manifest over the scans of a family's ``plan``.  A scan whose mean is
    not finite at some chi raises ValueError before any of them is
    written."""
    stars = [find_optimal_chi(scan) for scan in scans]
    names = [grid.split("_")[0] for grid in family]
    points = [[getattr(config, grid)[0] for grid in family]
              for _, config in plan]
    labels = [", ".join(f"{name}={value}" for name, value in zip(names, point))
              for point in points]
    chi_star = write_table(
        os.path.join(cfg.out_dir, "chi_star.csv"),
        names + [f"{scans[0].axis_name}_star", "mean", "std"],
        [point + list(star) for point, star in zip(points, stars)])
    return {"chi_star": chi_star, **_write_figure_and_manifest(
        cfg, cfg.out_dir, scans, labels,
        f"{cfg.scenario}: scans over {', '.join(names)}")}


def _scenario_plan(cfg: ExperimentConfig):
    """A scenario's family grids and the scans it runs, in order, as
    (directory under out_dir, config) pairs; each scan is written to its
    config's out_dir, which its manifest reruns.  A fig5 bond scan is
    written to out_dir and followed by the train-size scan in
    ``trainsize``, so fig5's manifest reruns both and ``trainsize``'s
    that scan alone.  Otherwise every grid with more than one value but
    the ``scan_axis``'s is a family grid: one scan per point of their
    product, in GRIDS order, at a config whose family grids hold that
    point alone and whose out_dir is the member's directory
    (``eps=0.2/ntr=40``), so its manifest reruns that scan alone, in
    place.  With no family grid the one scan is written to out_dir
    itself."""
    axis = scan_axis(cfg)
    if cfg.scenario == "fig5":
        sizes = replace(cfg, **_PRESETS["fig5"]["trainsize"],
                        out_dir=os.path.join(cfg.out_dir, "trainsize"))
        return [], [("", cfg)] + (
            [("trainsize", sizes)] if axis == "chi" else [])
    family = [grid for grid in GRIDS
              if grid != f"{axis}_list" and len(getattr(cfg, grid)) > 1]
    if not family:
        return [], [("", cfg)]
    plan = []
    for point in itertools.product(*(getattr(cfg, grid) for grid in family)):
        name = os.path.join(*(
            f"{grid.split('_')[0]}={value:g}" if isinstance(value, float)
            else f"{grid.split('_')[0]}={value}"
            for grid, value in zip(family, point)))
        plan.append((name, replace(cfg, **{
            grid: (value,) for grid, value in zip(family, point)},
            out_dir=os.path.join(cfg.out_dir, name))))
    return family, plan


def run_scenario(cfg: ExperimentConfig):
    """Run the plan of ``cfg`` as it stands (``config_from_dict`` applies
    a scenario's preset) and write each scan to its config's out_dir as
    it ends, then a family's summary; returns (ScanResults in plan order,
    paths)."""
    cfg.validate()
    family, plan = _scenario_plan(cfg)
    names = [name for name, _ in plan]
    if len(set(names)) < len(names):
        raise ValueError(f"the values of {family} "
                         f"{[getattr(cfg, grid) for grid in family]} "
                         f"would share the directories {names}")
    images = None
    if cfg.scenario in IMAGE_SCENARIOS:
        images = load_mnist_pair(cfg)
        for _, config in plan:
            for n in config.ntr_list:
                if n > images[0].count:
                    raise ValueError(f"training size {n} exceeds the "
                                     f"{images[0].count}-image training pool")
    scans, paths = [], {}
    for name, config in plan:
        scan = run_scan(config, images)
        written = emit_outputs(scan, config, config.out_dir)
        scans.append(scan)
        if not family:
            paths.update({f"{name}_{k}" if name else k: v
                          for k, v in written.items()})
    if family:
        paths = _emit_family(cfg, family, plan, scans)
    return scans, paths
