"""Command-line interface: mpslab gen|exact|dmrg|mnist|scan.

Exit codes: 0 success, 2 validation failure, 3 aborted scan.
"""

import argparse
import json
import logging
import os
import sys

from . import __version__
from .classify import (corrupt_labels, export_predictions, load_idx,
                       preprocess, subset, train_classifier)
from .datagen import TargetSpec, generate_dataset, save_dataset_csv
from .dmrg import (CROSS_ENTROPY, MSE, TrainConfig, data_loss, frame_labels,
                   train)
from .errors import ScanAbortedError
from .exact import inversion_and_compression
from .experiments import (NOISE_SEED_OFFSET, SCENARIOS, TEST_SEED_OFFSET,
                          VAL_SEED_OFFSET, ExperimentConfig, config_from_dict,
                          run_scenario)
from .features import FeatureMap, featurize_batch
from .mps import save_mps

LOG_FORMAT = "%(levelname)s %(name)s: %(message)s"


def parse_int_list(text: str):
    """Accept '2..27' (inclusive range), '50:800:50', or '2,5,9'."""
    if ".." in text:
        lo, hi = text.split("..")
        return tuple(range(int(lo), int(hi) + 1))
    if ":" in text:
        parts = [int(v) for v in text.split(":")]
        start, stop = parts[0], parts[1]
        step = parts[2] if len(parts) > 2 else 1
        return tuple(range(start, stop + 1, step))
    return tuple(int(v) for v in text.split(","))


def parse_float_list(text: str):
    return tuple(float(v) for v in text.split(","))


def _add_target_flags(p):
    p.add_argument("--n", type=int, default=6, help="number of features/sites")
    p.add_argument("--f", type=int, default=3, help="feature map dimension")
    p.add_argument("--eps", type=float, default=0.3,
                   help="data complexity parameter")
    p.add_argument("--chi-t", type=int, default=27,
                   help="target nilpotent matrix size")
    p.add_argument("--target-seed", type=int, default=0)
    p.add_argument("--no-unitary", action="store_true",
                   help="skip the per-site orthogonal conjugations")


def _target_spec(args) -> TargetSpec:
    return TargetSpec(n_sites=args.n, phys_dim=args.f, epsilon=args.eps,
                      chi_target=args.chi_t, apply_unitary=not args.no_unitary,
                      seed=args.target_seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpslab",
        description="MPS regression/classification laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an artificial dataset as CSV")
    _add_target_flags(p)
    p.add_argument("--ntr", type=int, default=300, help="sample count")
    p.add_argument("--seed", type=int, default=1000, help="sampling seed")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("exact", help="train by inversion and compression")
    _add_target_flags(p)
    p.add_argument("--ntr", type=int, default=300)
    p.add_argument("--chi", type=int, default=27, help="bond dimension cap")
    p.add_argument("--ridge", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=1000)
    p.add_argument("--n-test", type=int, default=1024)
    p.add_argument("--out", default=None, help="directory for model.npz")

    p = sub.add_parser("dmrg", help="sweeping CG training from inversion init")
    _add_target_flags(p)
    p.add_argument("--ntr", type=int, default=300)
    p.add_argument("--chi", type=int, default=8)
    p.add_argument("--ridge", type=float, default=1e-6)
    p.add_argument("--sweeps", type=int, default=50)
    p.add_argument("--cg-steps", type=int, default=5)
    p.add_argument("--seed", type=int, default=1000)
    p.add_argument("--n-test", type=int, default=1024)
    p.add_argument("--out", default=None,
                   help="directory for model.npz and trace.csv")

    p = sub.add_parser("mnist", help="train the image classifier")
    p.add_argument("--images", required=True, help="IDX train images")
    p.add_argument("--labels", required=True, help="IDX train labels")
    p.add_argument("--test-images", required=True)
    p.add_argument("--test-labels", required=True)
    p.add_argument("--chi", type=int, default=6)
    p.add_argument("--ntr", type=int, default=1024)
    p.add_argument("--sweeps", type=int, default=100)
    p.add_argument("--cg-steps", type=int, default=5)
    p.add_argument("--noise", type=float, default=0.0,
                   help="label corruption fraction")
    p.add_argument("--downsample", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None,
                   help="directory for model, trace, predictions")

    p = sub.add_parser("scan", help="replicated scans reproducing the figures")
    p.add_argument("--scenario", choices=SCENARIOS, default="custom")
    p.add_argument("--config", default=None,
                   help="JSON config or manifest; flags override")
    p.add_argument("--chi", type=parse_int_list, default=None,
                   metavar="2..27")
    p.add_argument("--ntr", type=parse_int_list, default=None,
                   metavar="50:800:50")
    p.add_argument("--eps", type=parse_float_list, default=None,
                   metavar="0.1,0.2,0.3")
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="base seed")
    p.add_argument("--method", choices=("inversion", "dmrg", "both"),
                   default=None)
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--sweeps", type=int, default=None)
    p.add_argument("--cg-steps", type=int, default=None)
    p.add_argument("--target-seed", type=int, default=None)
    p.add_argument("--images", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--test-images", default=None)
    p.add_argument("--test-labels", default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--full", action="store_true",
                   help="paper-scale replicate counts")
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel replicate workers")
    return parser


def _scan_config(args) -> ExperimentConfig:
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if "config" in data:
            data = data["config"]
    overrides = {
        "scenario": args.scenario if args.scenario != "custom" or not data
        else None,
        "chi_list": args.chi,
        "ntr_list": args.ntr,
        "eps_list": args.eps,
        "replicates": args.replicates,
        "base_seed": args.seed,
        "method": args.method,
        "ridge": args.ridge,
        "sweeps": args.sweeps,
        "cg_steps": args.cg_steps,
        "target_seed": args.target_seed,
        "mnist_images": args.images,
        "mnist_labels": args.labels,
        "mnist_test_images": args.test_images,
        "mnist_test_labels": args.test_labels,
        "out_dir": args.out,
        "jobs": args.jobs,
    }
    if args.full:
        overrides["full"] = True
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    return config_from_dict(data)


def _cmd_gen(args) -> int:
    d = generate_dataset(_target_spec(args), args.ntr, args.seed)
    save_dataset_csv(d, args.out)
    print(f"wrote {args.ntr} samples to {args.out} "
          f"(label mean {d.label_mean:.6g}, std {d.label_std:.6g})")
    return 0


def _cmd_exact(args) -> int:
    spec = _target_spec(args)
    fmap = FeatureMap(dim=spec.phys_dim)
    train_set = generate_dataset(spec, args.ntr, args.seed)
    test_set = generate_dataset(spec, args.n_test,
                                args.seed + TEST_SEED_OFFSET)
    model = inversion_and_compression(train_set, fmap, args.ridge, args.chi)

    def loss(d, y):
        pred = model.evaluate_batch(featurize_batch(fmap, d.features))
        return data_loss(pred, y, MSE)

    print(f"chi={args.chi} train_loss={loss(train_set, train_set.labels):.6e} "
          f"test_loss={loss(test_set, frame_labels(test_set, train_set)):.6e}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_mps(model, os.path.join(args.out, "model.npz"))
    return 0


def _cmd_dmrg(args) -> int:
    spec = _target_spec(args)
    fmap = FeatureMap(dim=spec.phys_dim)
    train_set = generate_dataset(spec, args.ntr, args.seed)
    test_set = generate_dataset(spec, args.n_test,
                                args.seed + TEST_SEED_OFFSET)
    val_set = generate_dataset(spec, args.n_test,
                               args.seed + VAL_SEED_OFFSET)
    w0 = inversion_and_compression(train_set, fmap, args.ridge, args.chi)
    config = TrainConfig(sweeps=args.sweeps, cg_steps=args.cg_steps,
                         ridge=args.ridge)
    model, trace = train(w0, train_set, val_set, test_set, config, fmap)
    best = trace.best_validation_sweep
    print(f"chi={args.chi} sweeps={trace.sweeps[-1]} best_sweep={best} "
          f"train_loss={trace.train_loss[-1]:.6e} "
          f"val_loss={trace.val_loss[best]:.6e} "
          f"test_loss={trace.test_loss[best]:.6e}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_mps(model, os.path.join(args.out, "model.npz"))
        trace.to_csv(os.path.join(args.out, "trace.csv"))
    return 0


def _cmd_mnist(args) -> int:
    train_pool = preprocess(load_idx(args.images, args.labels),
                            args.downsample)
    test_set = preprocess(load_idx(args.test_images, args.test_labels),
                          args.downsample)
    train_set = subset(train_pool, args.ntr, seed=args.seed)
    if args.noise > 0.0:
        train_set = corrupt_labels(train_set, args.noise,
                                   seed=args.seed + NOISE_SEED_OFFSET)
    config = TrainConfig(sweeps=args.sweeps, cg_steps=args.cg_steps,
                         ridge=0.0, loss_kind=CROSS_ENTROPY,
                         checkpoint="last", sweep_tol=0.0)
    model, trace = train_classifier(train_set, None, test_set, args.chi,
                                    config, seed=args.seed)
    print(f"chi={args.chi} train_acc={trace.train_accuracy[-1]:.4f} "
          f"test_acc={trace.test_accuracy[-1]:.4f} "
          f"train_xent={trace.train_loss[-1]:.4f} "
          f"test_xent={trace.test_loss[-1]:.4f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_mps(model, os.path.join(args.out, "model.npz"))
        trace.to_csv(os.path.join(args.out, "trace.csv"))
        export_predictions(model, test_set,
                           os.path.join(args.out, "predictions.csv"))
    return 0


def _cmd_scan(args) -> int:
    cfg = _scan_config(args)
    _, paths = run_scenario(cfg)
    print(f"scan complete; outputs in {cfg.out_dir}")
    for name, path in sorted(paths.items()):
        print(f"  {name}: {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "exact": _cmd_exact,
        "dmrg": _cmd_dmrg,
        "mnist": _cmd_mnist,
        "scan": _cmd_scan,
    }
    # the package's INFO and WARNING lines (scan progress, failed replicate
    # jobs) go to stderr while the command runs
    log = logging.getLogger("mpslab")
    level = log.level
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter(LOG_FORMAT))
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        return handlers[args.command](args)
    except ScanAbortedError as exc:
        print(f"scan aborted: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
