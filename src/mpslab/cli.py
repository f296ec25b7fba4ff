"""Command-line interface: mpslab gen|exact|dmrg|mnist|scan.

``exact``, ``dmrg`` and ``mnist`` run replicate 0 of the one-point scan
their flags describe, so they print what that scan's raw.csv holds.

Exit codes: 0 success, 2 validation failure, 3 aborted scan.
"""

import argparse
import logging
import os
import sys

from . import __version__
from .classify import export_predictions
from .datagen import generate_dataset, save_dataset_csv
from .errors import ScanAbortedError
from .experiments import (BOTH, ENTRY_TYPES, INVERSION, SCENARIOS,
                          ExperimentConfig, config_from_dict, load_mnist_pair,
                          read_config, run_scenario, run_single)
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
    """The artificial-data flags of gen, exact and dmrg."""
    p.add_argument("--n", dest="n_sites", type=int,
                   help="number of features/sites")
    p.add_argument("--f", dest="phys_dim", type=int,
                   help="feature map dimension")
    p.add_argument("--eps", dest="eps_list", type=float,
                   help="data complexity parameter")
    p.add_argument("--chi-t", dest="chi_target", type=int,
                   help="target nilpotent matrix size")
    p.add_argument("--target-seed", type=int)
    p.add_argument("--no-unitary", dest="apply_unitary",
                   action="store_false",
                   help="skip the per-site orthogonal conjugations")
    p.add_argument("--ntr", dest="ntr_list", type=int, help="sample count")
    p.add_argument("--seed", dest="base_seed", type=int, help="sampling seed")


def _add_image_flags(p, required):
    """The IDX file flags of mnist and of scan's image scenarios."""
    for name in ("images", "labels", "test-images", "test-labels"):
        p.add_argument(f"--{name}", dest="mnist_" + name.replace("-", "_"),
                       required=required, help=f"IDX {name} file")


def build_parser() -> argparse.ArgumentParser:
    """Each flag's dest is the config entry it sets; a flag without a
    default here takes the scenario preset's value or the field's
    default."""
    parser = argparse.ArgumentParser(
        prog="mpslab",
        description="MPS regression/classification laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an artificial dataset as CSV")
    _add_target_flags(p)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("exact", help="train by inversion and compression")
    _add_target_flags(p)
    p.add_argument("--chi", dest="chi_list", type=int, default=27,
                   help="bond dimension cap")
    p.add_argument("--ridge", type=float)
    p.add_argument("--n-test", type=int)
    p.add_argument("--out", help="directory for model.npz")

    p = sub.add_parser("dmrg", help="sweeping CG training from inversion init")
    _add_target_flags(p)
    p.set_defaults(method=BOTH)
    p.add_argument("--chi", dest="chi_list", type=int, default=8)
    p.add_argument("--ridge", type=float)
    p.add_argument("--sweeps", type=int)
    p.add_argument("--cg-steps", type=int)
    p.add_argument("--n-test", type=int)
    p.add_argument("--out", help="directory for model.npz and trace.csv")

    p = sub.add_parser("mnist", help="train the image classifier")
    _add_image_flags(p, required=True)
    p.set_defaults(scenario="fig9")
    p.add_argument("--chi", dest="chi_list", type=int, default=6)
    p.add_argument("--ntr", dest="ntr_list", type=int)
    p.add_argument("--sweeps", type=int)
    p.add_argument("--cg-steps", type=int)
    p.add_argument("--noise", dest="noise_levels", type=float,
                   help="label corruption fraction")
    p.add_argument("--downsample", type=int)
    p.add_argument("--seed", dest="base_seed", type=int, help="training seed")
    p.add_argument("--out", help="directory for model, trace, predictions")

    p = sub.add_parser("scan", help="replicated scans reproducing the figures")
    p.add_argument("--scenario", choices=SCENARIOS,
                   help="default: the config file's, else custom")
    p.add_argument("--config", help="JSON config or manifest; flags override; "
                   "a relative out_dir in it is relative to its directory")
    p.add_argument("--chi", dest="chi_list", type=parse_int_list,
                   metavar="2..27")
    p.add_argument("--ntr", dest="ntr_list", type=parse_int_list,
                   metavar="50:800:50")
    p.add_argument("--eps", dest="eps_list", type=parse_float_list,
                   metavar="0.1,0.2,0.3")
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", dest="base_seed", type=int, help="base seed")
    p.add_argument("--method", choices=(INVERSION, BOTH))
    p.add_argument("--ridge", type=float)
    p.add_argument("--sweeps", type=int)
    p.add_argument("--cg-steps", type=int)
    p.add_argument("--target-seed", type=int)
    _add_image_flags(p, required=False)
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--full", action="store_true", default=None,
                   help="the scenario's paper-scale replicate count, unless "
                        "--replicates is given")
    p.add_argument("--jobs", type=int, help="parallel replicate workers")
    return parser


def _config(args) -> ExperimentConfig:
    """The config of the entries the flags set, over those of
    ``--config``'s file if given."""
    data = read_config(args.config) if getattr(args, "config", None) else {}
    data.update({name: value for name, value in vars(args).items()
                 if name in ENTRY_TYPES and value is not None})
    return config_from_dict(data)


def _cmd_gen(args) -> int:
    cfg = _config(args)
    d = generate_dataset(cfg.target_spec(cfg.eps_list[0]), cfg.ntr_list[0],
                         cfg.base_seed)
    save_dataset_csv(d, args.out)
    print(f"wrote {d.n_samples} samples to {args.out} "
          f"(label mean {d.label_mean:.6g}, std {d.label_std:.6g})")
    return 0


# result lines of the single-run commands, from the replicate's raw.csv row
_RESULT_LINES = {
    "exact": "chi={axis} train_loss={inv_train_loss:.6e} "
             "test_loss={inv_test_loss:.6e}",
    "dmrg": "chi={axis} sweeps={dmrg_sweeps_run} best_sweep={dmrg_best_sweep} "
            "train_loss={dmrg_train_loss:.6e} val_loss={dmrg_val_loss:.6e} "
            "test_loss={dmrg_test_loss:.6e}",
    "mnist": "chi={axis} train_acc={train_accuracy:.4f} "
             "test_acc={test_accuracy:.4f} train_xent={train_loss:.4f} "
             "test_xent={test_loss:.4f}",
}


def _cmd_single(args) -> int:
    """exact, dmrg, mnist: replicate 0 of the one-point scan the flags
    describe; ``--out`` gets its model, trace and test predictions."""
    cfg = _config(args)
    images = load_mnist_pair(cfg) if args.command == "mnist" else None
    row, model, trace = run_single(cfg, images)
    print(_RESULT_LINES[args.command].format(**row))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_mps(model, os.path.join(args.out, "model.npz"))
        if trace is not None:
            trace.to_csv(os.path.join(args.out, "trace.csv"))
        if images is not None:
            export_predictions(model, images[1],
                               os.path.join(args.out, "predictions.csv"))
    return 0


def _cmd_scan(args) -> int:
    cfg = _config(args)
    _, paths = run_scenario(cfg)
    print(f"scan complete; outputs in {cfg.out_dir}")
    for name, path in sorted(paths.items()):
        print(f"  {name}: {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = {"gen": _cmd_gen, "scan": _cmd_scan}.get(args.command,
                                                       _cmd_single)
    # the package's INFO and WARNING lines (scan progress, failed replicate
    # jobs) go to stderr while the command runs
    log = logging.getLogger("mpslab")
    level = log.level
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter(LOG_FORMAT))
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        return command(args)
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
