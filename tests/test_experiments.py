import csv
import dataclasses
import json
import logging
import os
import pathlib
import struct
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mpslab import cli, experiments
from mpslab.datagen import generate_dataset
from mpslab.dmrg import MSE, TrainConfig, data_loss, frame_labels, train
from mpslab.errors import ScanAbortedError
from mpslab.exact import (build_design_system, design_matrix,
                          solve_full_weight)
from mpslab.experiments import (TEST_SEED_OFFSET, VAL_SEED_OFFSET,
                                ExperimentConfig, ScanResult,
                                config_from_dict, emit_outputs,
                                find_optimal_chi, run_bond_scan, run_scan)
from mpslab.features import featurize_batch
from mpslab.mps import compress, load_mps

TINY = ExperimentConfig(chi_list=(2, 3, 4), ntr_list=(60,), eps_list=(0.3,),
                        replicates=3, base_seed=500, n_test=64)


def synthetic_scan(means, stds=None):
    means = np.asarray(means, dtype=float)
    stds = np.zeros_like(means) if stds is None else np.asarray(stds)
    axis = list(range(2, 2 + len(means)))
    return ScanResult(axis_name="chi", axis=axis, mean=means, std=stds,
                      count=np.full(len(means), 5), raw_header=[],
                      raw_rows=[], metric="inv_test_loss")


class TestFindOptimalChi:
    def test_monotone_decreasing_picks_largest(self):
        scan = synthetic_scan([5.0, 4.0, 3.0, 2.0])
        assert find_optimal_chi(scan)[0] == 5

    def test_convex_minimum(self):
        means = [(v - 7) ** 2 + 1 for v in range(2, 13)]
        assert find_optimal_chi(synthetic_scan(means))[0] == 7

    def test_ties_break_to_smaller(self):
        scan = synthetic_scan([3.0, 1.0, 1.0, 2.0])
        assert find_optimal_chi(scan)[0] == 3


class TestBondScan:
    def test_single_replicate_zero_sigma(self):
        cfg = ExperimentConfig(chi_list=(2, 3), ntr_list=(50,),
                               replicates=1, base_seed=7, n_test=32)
        scan = run_bond_scan(cfg)
        np.testing.assert_array_equal(scan.std, [0.0, 0.0])
        np.testing.assert_array_equal(scan.count, [1, 1])

    def test_replicate_seed_protocol(self):
        scan = run_bond_scan(TINY)
        seeds = {r["replicate"]: r["train_seed"] for r in scan.raw_rows}
        assert seeds == {0: 500, 1: 501, 2: 502}

    def test_aggregation_matches_raw(self):
        scan = run_bond_scan(TINY)
        for k, chi in enumerate(scan.axis):
            vals = [r["inv_test_loss"] for r in scan.raw_rows
                    if r["axis"] == chi]
            assert scan.mean[k] == pytest.approx(np.mean(vals), abs=1e-12)
            assert scan.std[k] == pytest.approx(np.std(vals, ddof=1),
                                                abs=1e-12)

    def test_both_method_columns(self):
        cfg = ExperimentConfig(chi_list=(2, 3), ntr_list=(60,), replicates=2,
                               base_seed=11, n_test=48, method="both",
                               sweeps=2, cg_steps=2)
        scan = run_bond_scan(cfg)
        assert scan.metric == "dmrg_test_loss"
        for row in scan.raw_rows:
            assert {"inv_test_loss", "dmrg_test_loss",
                    "dmrg_best_sweep"} <= set(row)

    def test_failed_replicate_recorded(self, tmp_path, monkeypatch, caplog):
        replicate = experiments._regression_replicate

        def flaky(cfg, eps, ntr, chi_values, rep, *shared):
            if rep == 3:
                raise FloatingPointError("diverged, at replicate 3")
            return replicate(cfg, eps, ntr, chi_values, rep, *shared)

        monkeypatch.setattr(experiments, "_regression_replicate", flaky)
        cfg = dataclasses.replace(TINY, replicates=5)
        with caplog.at_level(logging.WARNING, logger="mpslab.experiments"):
            scan = run_bond_scan(cfg)
        assert {r["replicate"] for r in scan.raw_rows} == {0, 1, 2, 4}
        paths = emit_outputs(scan, cfg, tmp_path / "out")
        with open(paths["failures"]) as fh:
            failures = list(csv.DictReader(fh))
        assert failures == [{"replicate": "3", "eps": "0.3", "ntr": "60",
                             "noise": "", "error": "FloatingPointError",
                             "message": "diverged, at replicate 3"}]
        with open(paths["manifest"]) as fh:
            assert json.load(fh)["failures"] == 1
        assert "FloatingPointError" in caplog.text

    def test_abort_on_failures(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr(experiments, "_regression_replicate", broken)
        with pytest.raises(ScanAbortedError):
            run_bond_scan(TINY)


def per_chi_rows(cfg):
    """A bond scan's raw rows recomputed without sharing: a fresh test set
    per replicate, and each chi featurizes every dataset again."""
    fmap = cfg.feature_map()
    eps, ntr = cfg.eps_list[0], cfg.ntr_list[0]
    spec = cfg.target_spec(eps)
    tc = TrainConfig(sweeps=cfg.sweeps, cg_steps=cfg.cg_steps,
                     ridge=cfg.ridge)
    rows = []
    for rep in range(cfg.replicates):
        train_set = generate_dataset(spec, ntr, cfg.base_seed + rep)
        test_set = generate_dataset(spec, cfg.n_test,
                                    cfg.base_seed + TEST_SEED_OFFSET)
        val_set = generate_dataset(spec, cfg.n_test,
                                   cfg.base_seed + VAL_SEED_OFFSET + rep)
        y_te = frame_labels(test_set, train_set)
        full = solve_full_weight(build_design_system(
            featurize_batch(fmap, train_set.features), train_set.labels,
            cfg.ridge))
        for chi in cfg.chi_list:
            w, _ = compress(full, chi)
            pred_tr = w.evaluate_batch(featurize_batch(fmap,
                                                       train_set.features))
            pred = w.evaluate_batch(featurize_batch(fmap, test_set.features))
            row = {"axis": chi, "eps": eps, "ntr": ntr, "replicate": rep,
                   "train_seed": cfg.base_seed + rep,
                   "inv_train_loss": data_loss(pred_tr, train_set.labels, MSE),
                   "inv_test_loss": float(0.5 * np.mean((pred - y_te) ** 2))}
            if cfg.method == "both":
                _, trace = train(w, train_set, val_set, test_set, tc, fmap)
                best = trace.best_validation_sweep
                row.update({"dmrg_train_loss": trace.train_loss[-1],
                            "dmrg_val_loss": trace.val_loss[best],
                            "dmrg_test_loss": trace.test_loss[best],
                            "dmrg_best_sweep": best,
                            "dmrg_sweeps_run": trace.sweeps[-1]})
            rows.append(row)
    return rows


class TestSharedWork:
    """Shared test set, once-per-dataset features and the design-space
    evaluation of every chi leave each raw row equal to the per-chi
    recomputation: keys, seeds and DMRG columns bitwise, the inversion
    losses (one GEMM over the stacked full tensors instead of one
    ``evaluate_batch`` per chi) to roundoff: at most 10 ulp (1.3e-15
    relative) was measured on these two configurations."""

    @pytest.mark.parametrize("cfg", [
        TINY,
        ExperimentConfig(chi_list=(2, 4), ntr_list=(60,), replicates=2,
                         base_seed=11, n_test=48, method="both", sweeps=2,
                         cg_steps=2)], ids=["inversion", "both"])
    def test_rows_match_per_chi_recomputation(self, cfg):
        rows, oracle = run_bond_scan(cfg).raw_rows, per_chi_rows(cfg)
        assert len(rows) == len(oracle)
        for row, want in zip(rows, oracle):
            assert row.keys() == want.keys()
            for key, value in want.items():
                if key.startswith("inv_"):
                    assert row[key] == pytest.approx(value, rel=1e-12,
                                                     abs=0.0)
                else:
                    assert row[key] == value, key

    @pytest.mark.parametrize("axis", ["chi", "ntr"])
    def test_test_set_generated_once_per_scan(self, axis, monkeypatch):
        seeds = []

        def counting(spec, n, seed):
            seeds.append(seed)
            return generate_dataset(spec, n, seed)

        monkeypatch.setattr(experiments, "generate_dataset", counting)
        cfg = dataclasses.replace(TINY, ntr_list=(40, 60), chi_list=(3,))
        run_scan(cfg, axis)
        assert seeds.count(cfg.base_seed + TEST_SEED_OFFSET) == 1
        assert len(seeds) > cfg.replicates


class TestOtherScans:
    def test_epsilon_scan_single_value_reduces_to_bond_scan(self):
        family = dataclasses.replace(TINY, eps_list=(0.2, 0.3))
        scan = run_scan(family, eps=0.3)
        direct = run_bond_scan(TINY)
        np.testing.assert_array_equal(scan.mean, direct.mean)
        assert scan.raw_rows == direct.raw_rows

    def test_trainsize_scan_single_point(self):
        cfg = ExperimentConfig(chi_list=(4,), ntr_list=(80,), replicates=2,
                               base_seed=9, n_test=32)
        scan = run_scan(cfg, "ntr")
        assert scan.axis == [80]
        assert scan.axis_name == "ntr"

    def test_trainsize_scan_axis(self):
        cfg = ExperimentConfig(chi_list=(4,), ntr_list=(60, 90), replicates=2,
                               base_seed=9, n_test=32)
        scan = run_scan(cfg, "ntr")
        assert scan.axis == [60, 90]
        assert all(r["axis"] == r["ntr"] for r in scan.raw_rows)


class TestEmit:
    def test_files_and_contracts(self, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="mpslab.experiments"):
            scan = run_bond_scan(TINY)
        assert "chi scan: 3 replicate jobs in" in caplog.text
        paths = emit_outputs(scan, TINY, tmp_path / "out")
        with open(paths["summary"]) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(scan.axis)
        assert list(rows[0]) == ["axis", "mean", "std", "n"]
        # summary recomputes from raw.csv
        with open(paths["raw"]) as fh:
            raw = list(csv.DictReader(fh))
        for row in rows:
            vals = [float(r["inv_test_loss"]) for r in raw
                    if r["axis"] == row["axis"]]
            assert float(row["mean"]) == pytest.approx(np.mean(vals),
                                                       abs=1e-12)
        ET.parse(paths["figure"])  # well-formed XML
        with open(paths["failures"]) as fh:
            assert fh.read() == "replicate,eps,ntr,noise,error,message\n"
        with open(paths["manifest"]) as fh:
            manifest = json.load(fh)
        assert manifest["failures"] == 0
        assert manifest["seconds"] == scan.seconds > 0.0
        assert manifest["environment"]["numpy"] == np.__version__
        assert set(manifest["environment"]) == {"numpy", "blas"}

    def test_manifest_rerun_bitwise(self, tmp_path):
        scan = run_bond_scan(TINY)
        paths = emit_outputs(scan, TINY, tmp_path / "a")
        with open(paths["manifest"]) as fh:
            cfg2 = config_from_dict(json.load(fh))
        scan2 = run_bond_scan(cfg2)
        paths2 = emit_outputs(scan2, cfg2, tmp_path / "b")
        assert open(paths["raw"]).read() == open(paths2["raw"]).read()

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial = run_bond_scan(TINY)
        parallel = run_bond_scan(dataclasses.replace(TINY, jobs=2))
        np.testing.assert_array_equal(serial.mean, parallel.mean)
        assert serial.raw_rows == parallel.raw_rows

    def test_parallel_jobs_match_serial_every_chi(self):
        """Over chi 2..27 the SVD memo shares work at three bonds; a serial
        scan builds the test design once, while pool jobs are not sent it
        and build their own."""
        cfg = dataclasses.replace(TINY, chi_list=tuple(range(2, 28)),
                                  replicates=2)
        _, phi_te, z_te = experiments._shared_test_set(cfg, 0.3)
        np.testing.assert_array_equal(z_te, design_matrix(phi_te))
        pool = dataclasses.replace(cfg, jobs=2)
        assert experiments._shared_test_set(pool, 0.3)[2] is None
        serial, parallel = run_bond_scan(cfg), run_bond_scan(pool)
        assert len(serial.raw_rows) == 2 * 26
        assert serial.raw_rows == parallel.raw_rows


class TestMnistScans:
    @pytest.fixture()
    def tiny_images(self):
        from mpslab.classify import ImageDataset
        rng = np.random.default_rng(0)
        # separable classes: dark half vs bright half
        images = np.concatenate([rng.uniform(0, 0.3, size=(30, 2, 2)),
                                 rng.uniform(0.7, 1.0, size=(30, 2, 2))])
        labels = np.array([0] * 30 + [1] * 30)
        pool = ImageDataset(images, labels, num_classes=2)
        test = ImageDataset(images[::3], labels[::3], num_classes=2)
        return pool, test

    def test_bond_scan_rows(self, tiny_images):
        pool, test = tiny_images
        cfg = ExperimentConfig(chi_list=(2, 3), ntr_list=(24,), replicates=2,
                               base_seed=5, sweeps=2, cg_steps=2)
        scan = run_scan(cfg, images=(pool, test))
        assert scan.metric == "test_error"
        assert len(scan.raw_rows) == 4
        assert all(0.0 <= r["test_error"] <= 1.0 for r in scan.raw_rows)
        assert all("train_accuracy" in r for r in scan.raw_rows)

    def test_noise_scan_levels(self, tiny_images):
        pool, test = tiny_images
        cfg = ExperimentConfig(chi_list=(2,), ntr_list=(24,), replicates=1,
                               base_seed=5, sweeps=1, cg_steps=2,
                               noise_levels=(0.0, 0.25))
        for noise in cfg.noise_levels:
            scan = run_scan(cfg, images=(pool, test), noise=noise)
            assert {r["noise"] for r in scan.raw_rows} == {noise}

    def test_trainsize_scan_axis(self, tiny_images):
        pool, test = tiny_images
        cfg = ExperimentConfig(chi_list=(2,), ntr_list=(16, 32), replicates=1,
                               base_seed=5, sweeps=1, cg_steps=2)
        scan = run_scan(cfg, "ntr", images=(pool, test))
        assert scan.axis == [16, 32]


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"bond_dim": 4})

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(replicates=0).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(method="newton").validate()
        with pytest.raises(ValueError):
            ExperimentConfig(chi_list=()).validate()
        with pytest.raises(ValueError):
            run_scan(ExperimentConfig(), axis="eps")
        # every grid value's target and the feature map, before any scan;
        # each error names the config field
        for fields, message in ((dict(eps_list=(0.3, 1.5)), "^eps_list"),
                                (dict(chi_target=1), "^chi_target"),
                                (dict(phys_dim=1), "^phys_dim"),
                                (dict(n_sites=0), "^n_sites")):
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(**fields).validate()

    def test_scenario_presets(self):
        cfg = experiments.scenario_config(ExperimentConfig(scenario="fig2"))
        assert cfg.ntr_list == tuple(range(50, 801, 50))
        assert cfg.replicates == 8
        full = experiments.scenario_config(
            ExperimentConfig(scenario="fig2", full=True))
        assert full.replicates == 100
        fig4 = experiments.scenario_config(
            ExperimentConfig(scenario="fig4", full=True))
        assert fig4.method == "both"
        assert fig4.replicates == 32


class TestCli:
    def test_parse_lists(self):
        assert cli.parse_int_list("2..5") == (2, 3, 4, 5)
        assert cli.parse_int_list("50:200:50") == (50, 100, 150, 200)
        assert cli.parse_int_list("2,9") == (2, 9)
        assert cli.parse_float_list("0.1,0.2") == (0.1, 0.2)

    def test_bad_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2

    def test_gen_and_scan_round_trip(self, tmp_path):
        out = tmp_path / "d.csv"
        assert cli.main(["gen", "--ntr", "40", "--seed", "3",
                         "--out", str(out)]) == 0
        assert out.exists()
        scan_dir = tmp_path / "scan"
        code = cli.main(["scan", "--chi", "2,3", "--ntr", "50",
                         "--replicates", "2", "--seed", "77",
                         "--out", str(scan_dir)])
        assert code == 0
        assert (scan_dir / "raw.csv").exists()
        rerun_dir = tmp_path / "rerun"
        code = cli.main(["scan", "--config", str(scan_dir / "manifest.json"),
                         "--out", str(rerun_dir)])
        assert code == 0
        assert (rerun_dir / "raw.csv").read_text() == (
            scan_dir / "raw.csv").read_text()

    def test_family_manifest_rerun_bitwise(self, tmp_path):
        """Criterion 12 for a family: the top-level manifest reruns every
        scan of the family byte for byte."""
        first = tmp_path / "first"
        assert cli.main(["scan", "--chi", "2,3", "--ntr", "40",
                         "--eps", "0.2,0.3", "--replicates", "2",
                         "--seed", "77", "--out", str(first)]) == 0
        rerun = tmp_path / "rerun"
        assert cli.main(["scan", "--config", str(first / "manifest.json"),
                         "--out", str(rerun)]) == 0
        raws = sorted(path.relative_to(first)
                      for path in first.glob("eps=*/raw.csv"))
        assert [str(raw) for raw in raws] == ["eps=0.2/raw.csv",
                                              "eps=0.3/raw.csv"]
        for raw in raws:
            assert (rerun / raw).read_bytes() == (first / raw).read_bytes()

    @pytest.mark.parametrize("flags, config, scans", [
        (["--scenario", "fig3", "--eps", "0.3", "--ntr", "40"], None,
         ["eps=0.3"]),
        (["--scenario", "fig2", "--ntr", "300"], None, ["ntr=300"]),
        ([], {"scenario": "fig3", "eps_list": [0.3], "ntr_list": [40],
              "n_test": 64}, ["eps=0.3"]),
    ])
    def test_explicit_setting_wins_over_preset(self, flags, config, scans,
                                               tmp_path):
        """A flag or config-file entry equal to the dataclass default still
        overrides the scenario's preset grid."""
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            flags = ["--config", str(path)]
        out = tmp_path / "out"
        assert cli.main(["scan", *flags, "--chi", "2,3", "--replicates", "2",
                         "--out", str(out)]) == 0
        assert sorted(entry.name for entry in out.iterdir()
                      if entry.is_dir()) == scans

    def test_validation_failure_exits_2(self, tmp_path):
        code = cli.main(["scan", "--replicates", "0",
                         "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("flags, field", [
        (["--ridge", "0"], "ridge"),
        (["--method", "dmrg", "--sweeps", "0"], "sweeps"),
        (["--method", "dmrg", "--cg-steps", "0"], "cg_steps"),
        (["--chi", "0,2"], "chi_list"),
        (["--ntr", "1"], "ntr_list"),
        (["--config", "n_test.json"], "n_test"),
        (["--jobs", "0"], "jobs"),
        (["--config", "n_sites.json"], "n_sites"),
        (["--chi", "2,2,3"], "chi_list"),
        # two values, one directory name: eps=0.3
        (["--eps", "0.3,0.3000001"], "0.3000001"),
        # the first value is valid, the second fails before its scan
        (["--eps", "0.3,1.5"], "1.5"),
        # the target family's bounds name their fields
        (["--config", "phys_dim1.json"], "error: phys_dim"),
        (["--config", "n_sites0.json"], "error: n_sites"),
        (["--config", "chi_target1.json"], "error: chi_target"),
        (["--eps", "0.3,1.5"], "error: eps_list"),
    ])
    def test_invalid_value_exits_2_before_any_job(self, flags, field,
                                                  tmp_path, monkeypatch,
                                                  capsys):
        """Values that would fail replicate jobs or overwrite outputs are
        rejected up front, naming the config field or value, before any
        job runs or file is written."""
        jobs = []
        replicate = experiments._regression_replicate

        def counted(*args):
            jobs.append(args)
            return replicate(*args)

        monkeypatch.setattr(experiments, "_regression_replicate", counted)
        (tmp_path / "n_test.json").write_text(json.dumps({"n_test": 1}))
        # 3 ** 10 features: past the inversion's design guard
        (tmp_path / "n_sites.json").write_text(json.dumps({"n_sites": 10}))
        for name, value in (("phys_dim", 1), ("n_sites", 0),
                            ("chi_target", 1)):
            (tmp_path / f"{name}{value}.json").write_text(
                json.dumps({name: value}))
        flags = [str(tmp_path / f) if f.endswith(".json") else f
                 for f in flags]
        code = cli.main(["scan", "--chi", "2,3", "--ntr", "40",
                         "--replicates", "2", "--out", str(tmp_path / "out")]
                        + flags)
        assert code == 2
        assert field in capsys.readouterr().err
        assert jobs == []
        assert not (tmp_path / "out").exists()

    def test_aborted_scan_exits_3(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr(experiments, "_regression_replicate", broken)
        code = cli.main(["scan", "--chi", "2", "--ntr", "50",
                         "--replicates", "2", "--out", str(tmp_path / "y")])
        assert code == 3

    def test_missing_mnist_files_exit_2(self, tmp_path):
        code = cli.main(["mnist", "--images", "/nonexistent/i",
                         "--labels", "/nonexistent/l",
                         "--test-images", "/nonexistent/ti",
                         "--test-labels", "/nonexistent/tl",
                         "--out", str(tmp_path / "m")])
        assert code == 2

    def test_scan_logs_progress_to_stderr(self, tmp_path):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + ([path] if path else [])))
        proc = subprocess.run(
            [sys.executable, "-m", "mpslab.cli", "scan", "--chi", "2,3",
             "--ntr", "40", "--replicates", "2",
             "--out", str(tmp_path / "scan")],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "INFO mpslab.experiments: chi scan: 2 replicate jobs in" in (
            proc.stderr)
        assert "scan complete" in proc.stdout
        assert "chi scan:" not in proc.stdout

    def test_design_guard_exits_2_before_any_fit(self, monkeypatch, capsys):
        """A chain whose f ** N design exceeds the inversion's guard is a
        validation error, not a CapacityError traceback."""
        fits = []
        monkeypatch.setattr(experiments, "_regression_fits",
                            lambda *args: fits.append(args))
        assert cli.main(["exact", "--n", "10", "--ntr", "40"]) == 2
        err = capsys.readouterr().err
        assert "n_sites" in err and "phys_dim" in err
        assert fits == []

    def test_exact_subcommand(self, capsys):
        assert cli.main(["exact", "--ntr", "80", "--chi", "4",
                         "--seed", "5", "--n-test", "64"]) == 0
        out = capsys.readouterr().out
        assert "train_loss=" in out and "test_loss=" in out

    def test_dmrg_subcommand(self, tmp_path, capsys):
        out_dir = tmp_path / "dm"
        assert cli.main(["dmrg", "--ntr", "60", "--chi", "3", "--sweeps", "2",
                         "--seed", "5", "--n-test", "48",
                         "--out", str(out_dir)]) == 0
        assert (out_dir / "trace.csv").exists()
        assert (out_dir / "model.npz").exists()


def write_idx(path, magic, array):
    """An uncompressed IDX file holding ``array`` as unsigned bytes."""
    array = np.asarray(array, dtype=np.uint8)
    path.write_bytes(struct.pack(f">I{array.ndim}I", magic, *array.shape)
                     + array.tobytes())
    return str(path)


def image_files(tmp_path, train_count):
    """ExperimentConfig fields naming IDX files of ``train_count`` random
    2x2 training images and 24 test images."""
    rng = np.random.default_rng(4)
    files = {}
    for prefix, count in (("mnist_", train_count), ("mnist_test_", 24)):
        files[prefix + "images"] = write_idx(
            tmp_path / f"{prefix}images.idx", 0x00000803,
            rng.integers(0, 256, size=(count, 2, 2)))
        files[prefix + "labels"] = write_idx(
            tmp_path / f"{prefix}labels.idx", 0x00000801,
            rng.integers(0, 10, size=count))
    return files


# Each case: config fields, then the scan directories run_scenario writes
# (relative to out_dir) with each one's summary.csv axis values and raw.csv
# row count.  Image cases read the tiny IDX files written by idx_files.
REGRESSION = dict(n_test=32, base_seed=21, replicates=2)
SINGLE_KEYS = {"raw", "summary", "failures", "figure", "manifest"}
MULTI_KEYS = {"chi_star", "figure", "manifest"}
DISPATCH_CASES = {
    "custom-bond": (
        dict(REGRESSION, chi_list=(2, 3), ntr_list=(40,)),
        SINGLE_KEYS, {".": ([2, 3], 4)}),
    "custom-trainsize": (
        dict(REGRESSION, chi_list=(3,), ntr_list=(30, 40)),
        SINGLE_KEYS, {".": ([30, 40], 4)}),
    "custom-multi-ntr": (
        dict(REGRESSION, chi_list=(2, 3), ntr_list=(30, 40)),
        MULTI_KEYS, {"ntr=30": ([2, 3], 4), "ntr=40": ([2, 3], 4)}),
    "custom-multi-eps": (
        dict(REGRESSION, chi_list=(2, 3), ntr_list=(40,),
             eps_list=(0.2, 0.3)),
        MULTI_KEYS, {"eps=0.2": ([2, 3], 4), "eps=0.3": ([2, 3], 4)}),
    "fig2": (
        dict(REGRESSION, scenario="fig2", chi_list=(2, 3), ntr_list=(30, 40)),
        MULTI_KEYS, {"ntr=30": ([2, 3], 4), "ntr=40": ([2, 3], 4)}),
    "fig6": (
        dict(REGRESSION, scenario="fig6", chi_list=(2, 3), ntr_list=(40,),
             sweeps=2, cg_steps=2),
        MULTI_KEYS, {"eps=1": ([2, 3], 4)}),
    "fig5": (
        dict(scenario="fig5", chi_list=(2, 3), ntr_list=(16,), sweeps=1,
             cg_steps=2, downsample=1),
        {f"{scan}_{key}" for scan in ("bond", "trainsize")
         for key in SINGLE_KEYS},
        {"bond": ([2, 3], 2),
         "trainsize": ([128, 256, 512, 1024, 2048, 4096], 6)}),
    "fig9": (
        dict(scenario="fig9", chi_list=(2,), ntr_list=(16,),
             noise_levels=(0.0, 0.25), sweeps=1, cg_steps=2, downsample=1),
        MULTI_KEYS, {"noise=0": ([2], 1), "noise=0.25": ([2], 1)}),
}


class TestScenarioDispatch:
    """run_scenario through every branch on tiny grids."""

    @pytest.fixture()
    def idx_files(self, tmp_path):
        # fig5's train-size scan draws up to 4096 training images
        return image_files(tmp_path, 4096)

    @pytest.mark.parametrize("case", list(DISPATCH_CASES))
    def test_branch_outputs(self, case, tmp_path, idx_files):
        fields, keys, scans = DISPATCH_CASES[case]
        if fields.get("scenario") in ("fig5", "fig9"):
            fields = dict(fields, **idx_files)
        out = tmp_path / "out"
        _, paths = experiments.run_scenario(
            ExperimentConfig(out_dir=str(out), **fields))
        assert set(paths) == keys
        assert all(os.path.isfile(path) for path in paths.values())
        subdirs = sorted(entry.name for entry in out.iterdir()
                         if entry.is_dir())
        assert subdirs == sorted(name for name in scans if name != ".")
        for name, (axis, rows) in scans.items():
            with open(out / name / "summary.csv") as fh:
                assert [int(r["axis"]) for r in csv.DictReader(fh)] == axis
            with open(out / name / "raw.csv") as fh:
                assert len(list(csv.DictReader(fh))) == rows
        if keys == MULTI_KEYS:
            with open(paths["chi_star"]) as fh:
                assert len(list(csv.DictReader(fh))) == len(scans)
            seconds = []
            for name in scans:
                with open(out / name / "manifest.json") as fh:
                    seconds.append(json.load(fh)["seconds"])
            with open(paths["manifest"]) as fh:
                assert json.load(fh)["seconds"] == pytest.approx(sum(seconds))


class TestFig5:
    """fig5 checks its training sizes against the image pool before any
    job runs, and writes its bond scan before the train-size scan."""

    FIELDS = dict(scenario="fig5", chi_list=(2, 3), sweeps=1, cg_steps=2,
                  downsample=1)

    @pytest.fixture()
    def jobs(self, monkeypatch):
        """Replicate jobs run, each answered with a fixed test error; jobs
        at 512 or more training images fail."""
        calls = []

        def replicate(cfg, noise, ntr, chi_values, rep, train_pool,
                      test_set):
            calls.append((ntr, rep))
            if ntr >= 512:
                raise RuntimeError(f"no job at ntr={ntr}")
            return [{"axis": chi, "ntr": ntr, "noise": noise,
                     "replicate": rep, "test_error": 0.5}
                    for chi in chi_values]

        monkeypatch.setattr(experiments, "_mnist_replicate", replicate)
        return calls

    def test_small_pool_fails_before_any_job(self, tmp_path, jobs, capsys):
        files = image_files(tmp_path, 300)
        out = tmp_path / "out"
        # the bond scan's 16 images fit; the train-size grid's 512 do not
        with pytest.raises(ValueError, match="training size 512 exceeds "
                                             "the 300-image training pool"):
            experiments.run_scenario(ExperimentConfig(
                out_dir=str(out), ntr_list=(16,), **self.FIELDS, **files))
        code = cli.main(["scan", "--scenario", "fig5",
                         "--images", files["mnist_images"],
                         "--labels", files["mnist_labels"],
                         "--test-images", files["mnist_test_images"],
                         "--test-labels", files["mnist_test_labels"],
                         "--out", str(out)])
        assert code == 2
        assert "training size 1024 exceeds" in capsys.readouterr().err
        assert jobs == []
        assert not out.exists()

    def test_bond_scan_written_before_size_scan(self, tmp_path, jobs):
        out = tmp_path / "out"
        with pytest.raises(ScanAbortedError):
            experiments.run_scenario(ExperimentConfig(
                out_dir=str(out), ntr_list=(16,), **self.FIELDS,
                **image_files(tmp_path, 4096)))
        with open(out / "bond" / "raw.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 2
        assert not (out / "trainsize").exists()
        assert [ntr for ntr, _ in jobs] == [16, 128, 256, 512, 1024, 2048,
                                            4096]


def _cell(text):
    """A raw.csv cell as the value it was written from."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


# Each case: the single-run command's flags, the config fields of the
# one-point scan with the same settings, and the command's result line in
# terms of that scan's raw.csv columns.
SINGLE_RUNS = {
    "exact": (
        ["--ntr", "80", "--chi", "4", "--ridge", "1e-5", "--eps", "0.2",
         "--n", "5", "--f", "2", "--chi-t", "9", "--target-seed", "3",
         "--no-unitary", "--seed", "7", "--n-test", "64"],
        dict(ntr_list=[80], chi_list=[4], ridge=1e-5, eps_list=[0.2],
             n_sites=5, phys_dim=2, chi_target=9, target_seed=3,
             apply_unitary=False, base_seed=7, n_test=64),
        "chi={axis} train_loss={inv_train_loss:.6e} "
        "test_loss={inv_test_loss:.6e}"),
    "dmrg": (
        ["--ntr", "60", "--chi", "3", "--sweeps", "3", "--cg-steps", "2",
         "--seed", "7", "--n-test", "48"],
        dict(method="dmrg", ntr_list=[60], chi_list=[3], sweeps=3,
             cg_steps=2, base_seed=7, n_test=48),
        "chi={axis} sweeps={dmrg_sweeps_run} best_sweep={dmrg_best_sweep} "
        "train_loss={dmrg_train_loss:.6e} val_loss={dmrg_val_loss:.6e} "
        "test_loss={dmrg_test_loss:.6e}"),
    "mnist": (
        ["--chi", "2", "--ntr", "16", "--sweeps", "1", "--cg-steps", "2",
         "--noise", "0.25", "--downsample", "1", "--seed", "5"],
        dict(scenario="fig9", chi_list=[2], ntr_list=[16], sweeps=1,
             cg_steps=2, noise_levels=[0.25], downsample=1, base_seed=5),
        "chi={axis} train_acc={train_accuracy:.4f} "
        "test_acc={test_accuracy:.4f} train_xent={train_loss:.4f} "
        "test_xent={test_loss:.4f}"),
}


class TestSingleRuns:
    """mpslab exact|dmrg|mnist print replicate 0 of the one-point scan
    with the same settings."""

    @staticmethod
    def mnist_flags(files):
        return ["--images", files["mnist_images"],
                "--labels", files["mnist_labels"],
                "--test-images", files["mnist_test_images"],
                "--test-labels", files["mnist_test_labels"]]

    @pytest.mark.parametrize("command", list(SINGLE_RUNS))
    def test_prints_replicate_zero_of_scan(self, command, tmp_path, capsys):
        flags, fields, line = SINGLE_RUNS[command]
        if command == "mnist":
            files = image_files(tmp_path, 40)
            flags = self.mnist_flags(files) + flags
            fields = dict(fields, **files)
        assert cli.main([command] + flags) == 0
        printed = capsys.readouterr().out.strip()
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(fields, replicates=1)))
        out = tmp_path / "scan"
        assert cli.main(["scan", "--config", str(config),
                         "--out", str(out)]) == 0
        (raw,) = out.rglob("raw.csv")
        with open(raw) as fh:
            (row,) = csv.DictReader(fh)
        assert printed == line.format(
            **{key: _cell(value) for key, value in row.items()})

    def test_mnist_writes_outputs(self, tmp_path, capsys):
        files = image_files(tmp_path, 40)
        out = tmp_path / "run"
        assert cli.main(["mnist"] + self.mnist_flags(files)
                        + ["--chi", "2", "--ntr", "16", "--sweeps", "2",
                           "--cg-steps", "2", "--downsample", "1",
                           "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("chi=2 train_acc=")
        model = load_mps(out / "model.npz")
        assert (model.n_sites, model.label_site) == (4, 2)
        with open(out / "trace.csv") as fh:
            trace = list(csv.DictReader(fh))
        assert [int(r["sweep"]) for r in trace] == [0, 1, 2]
        assert "test_accuracy" in trace[0]
        with open(out / "predictions.csv") as fh:
            predictions = list(csv.DictReader(fh))
        assert len(predictions) == 24
        assert list(predictions[0]) == (["index", "true", "predicted"]
                                        + [f"p{c}" for c in range(10)])
        for r in predictions:
            probs = [float(r[f"p{c}"]) for c in range(10)]
            assert sum(probs) == pytest.approx(1.0)
            assert int(r["predicted"]) == int(np.argmax(probs))
