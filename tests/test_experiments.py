import csv
import dataclasses
import itertools
import json
import logging
import os
import pathlib
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpslab import cli, experiments
from mpslab.classify import site_features, train_classifier
from mpslab.datagen import generate_dataset
from mpslab.dmrg import (CROSS_ENTROPY, MSE, TrainConfig, data_loss,
                         frame_labels, train)
from mpslab.errors import ScanAbortedError
from mpslab.exact import (build_design_system, design_matrix,
                          solve_full_weight)
from mpslab.experiments import (TEST_SEED_OFFSET, VAL_SEED_OFFSET,
                                ExperimentConfig, ScanResult,
                                config_from_dict, emit_outputs,
                                find_optimal_chi, has_significant_ushape,
                                load_mnist_pair, read_config, run_bond_scan,
                                run_scan)
from mpslab.features import featurize_batch
from mpslab.mps import compress, load_mps
from mpslab.tensor import row_outer

TINY = ExperimentConfig(chi_list=(2, 3, 4), ntr_list=(60,), eps_list=(0.3,),
                        replicates=3, base_seed=500, n_test=64)


def _entry_values(name):
    """Values of the config entry ``name``: its default, a preset's value
    or any other value of its type."""
    kind = experiments.ENTRY_TYPES[name]
    values = {int: st.integers(0, 5000), float: st.floats(0.0, 1.0),
              bool: st.booleans(), str: st.text(max_size=3)}[kind]
    if name in experiments.GRIDS:
        values = st.lists(values, min_size=1, max_size=3).map(tuple)
    known = [preset[name] for preset in experiments._PRESETS.values()
             if name in preset]
    if name in ExperimentConfig.__dataclass_fields__:
        known.append(getattr(ExperimentConfig(), name))
    return st.one_of(st.sampled_from(known), values) if known else values


READER_ENTRIES = {name: _entry_values(name)
                  for name in experiments.ENTRY_TYPES}
READER_ENTRIES["scenario"] = st.sampled_from(experiments.SCENARIOS)


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

    def test_non_finite_mean_rejected(self):
        scan = synthetic_scan([1.0, np.nan, 0.5, np.inf])
        with pytest.raises(ValueError, match=r"at chi = \[3, 5\]"):
            find_optimal_chi(scan)

    def test_ushape_non_finite_mean_rejected(self):
        scan = synthetic_scan([1.0, np.nan, 0.5, 0.9])
        with pytest.raises(ValueError, match=r"inv_test_loss is not finite "
                                             r"at chi = \[3\]"):
            has_significant_ushape(scan)

    @pytest.mark.parametrize("means, stds", [
        # the minimum at an endpoint: monotone curves, either way
        ([3.0, 2.0, 1.0], None),
        ([1.0, 2.0, 3.0], None),
        # an interior minimum 0.1 below the left end, whose pooled standard
        # error is hypot(1, 1) / sqrt(5) = 0.63
        ([1.0, 0.9, 2.0], [1.0, 1.0, 1.0]),
    ])
    def test_no_ushape_at_an_endpoint_or_within_its_error(self, means, stds):
        """A flat or monotone curve (fig6's at eps 1.0) is no U-shape; the
        same interior dip with no spread is one."""
        assert not has_significant_ushape(synthetic_scan(means, stds))
        assert has_significant_ushape(synthetic_scan([1.0, 0.9, 2.0]))


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

    def test_dmrg_columns_describe_the_checkpoint(self):
        """The dmrg_* losses are those of the model the scan keeps: where
        validation keeps the initial inversion model (best sweep 0), they
        are its inv_* losses to roundoff, though later sweeps ran."""
        cfg = ExperimentConfig(chi_list=(2, 4), ntr_list=(60,), replicates=2,
                               base_seed=11, n_test=48, method="both",
                               sweeps=2, cg_steps=2)
        kept = [row for row in run_bond_scan(cfg).raw_rows
                if row["dmrg_best_sweep"] == 0]
        assert kept and all(row["dmrg_sweeps_run"] == 2 for row in kept)
        for row in kept:
            for loss in ("train_loss", "test_loss"):
                assert row[f"dmrg_{loss}"] == pytest.approx(
                    row[f"inv_{loss}"], rel=1e-12, abs=0.0)

    def test_failed_replicate_recorded(self, tmp_path, monkeypatch, caplog):
        self.check_failed_replicate("diverged, at replicate 3", tmp_path,
                                    monkeypatch, caplog)

    def test_failed_replicate_message_quoted(self, tmp_path, monkeypatch,
                                             caplog):
        # a quote, a line feed and a carriage return are quoted, and read
        # back as written
        for message in ('diverged "badly"\nat replicate 3',
                        "diverged\rat replicate 3"):
            self.check_failed_replicate(message, tmp_path, monkeypatch,
                                        caplog)

    @staticmethod
    def check_failed_replicate(message, tmp_path, monkeypatch, caplog):
        replicate = experiments._replicate_rows

        def flaky(fits, cfg, eps, ntr, chi_values, rep, *shared):
            if rep == 3:
                raise FloatingPointError(message)
            return replicate(fits, cfg, eps, ntr, chi_values, rep, *shared)

        monkeypatch.setattr(experiments, "_replicate_rows", flaky)
        cfg = dataclasses.replace(TINY, replicates=5)
        with caplog.at_level(logging.WARNING, logger="mpslab.experiments"):
            scan = run_bond_scan(cfg)
        assert {r["replicate"] for r in scan.raw_rows} == {0, 1, 2, 4}
        paths = emit_outputs(scan, cfg, tmp_path / "out")
        with open(paths["failures"], newline="") as fh:
            failures = list(csv.DictReader(fh))
        assert failures == [{"replicate": "3", "eps": "0.3", "ntr": "60",
                             "noise": "", "error": "FloatingPointError",
                             "message": message}]
        with open(paths["manifest"]) as fh:
            assert json.load(fh)["failures"] == 1
        assert "FloatingPointError" in caplog.text

    def test_default_scan_memory_bound(self):
        """No T x f^N design matrix: the paper's 1024 x 729 test design
        alone would take 6 MB."""
        cfg = ExperimentConfig(replicates=2)
        tracemalloc.start()
        try:
            run_bond_scan(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_abort_on_failures(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr(experiments, "_replicate_rows", broken)
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
                row.update({"dmrg_train_loss": trace.train_loss[best],
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
    losses (``evaluate_halves`` on the stacked full tensors instead of one
    ``evaluate_batch`` per chi) to roundoff: at most 8 ulp (1.1e-15
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

    @pytest.mark.parametrize("axis, grids", [
        ("chi", dict(ntr_list=(40,), chi_list=(2, 3))),
        ("ntr", dict(ntr_list=(40, 60), chi_list=(3,)))], ids=["chi", "ntr"])
    def test_test_set_generated_once_per_scan(self, axis, grids, monkeypatch):
        seeds = []

        def counting(spec, n, seed):
            seeds.append(seed)
            return generate_dataset(spec, n, seed)

        monkeypatch.setattr(experiments, "generate_dataset", counting)
        cfg = dataclasses.replace(TINY, **grids)
        assert run_scan(cfg).axis_name == axis
        assert seeds.count(cfg.base_seed + TEST_SEED_OFFSET) == 1
        assert len(seeds) > cfg.replicates


class TestOtherScans:
    def test_epsilon_scan_single_value_reduces_to_bond_scan(self):
        family = dataclasses.replace(TINY, eps_list=(0.2, 0.3))
        _, plan = experiments._scenario_plan(family)
        name, member = plan[-1]
        assert name == "eps=0.3"
        scan = run_scan(member)
        direct = run_bond_scan(TINY)
        np.testing.assert_array_equal(scan.mean, direct.mean)
        assert scan.raw_rows == direct.raw_rows

    def test_trainsize_scan_single_point(self):
        """A one-point config, one chi and one training size, is a chi
        scan: no config makes a one-point training-size scan."""
        cfg = ExperimentConfig(chi_list=(4,), ntr_list=(80,), replicates=2,
                               base_seed=9, n_test=32)
        assert experiments.scan_axis(cfg) == "chi"
        scan = run_scan(cfg)
        assert scan.axis == [4]
        assert scan.axis_name == "chi"

    def test_trainsize_scan_axis(self):
        cfg = ExperimentConfig(chi_list=(4,), ntr_list=(60, 90), replicates=2,
                               base_seed=9, n_test=32)
        scan = run_scan(cfg)
        assert scan.axis == [60, 90]
        assert all(r["axis"] == r["ntr"] for r in scan.raw_rows)

    def test_one_site_inversion_scan(self):
        """A one-site target is a degree-2 polynomial of one feature: the
        ridge solution has no bond to cut, so every chi reads the same
        near-zero losses."""
        cfg = ExperimentConfig(n_sites=1, chi_list=(1, 2), ntr_list=(20,),
                               replicates=2, n_test=64)
        scan = run_scan(cfg)
        assert scan.failures == []
        by_chi = {chi: [(r["inv_train_loss"], r["inv_test_loss"])
                        for r in scan.raw_rows if r["axis"] == chi]
                  for chi in cfg.chi_list}
        assert by_chi[1] == by_chi[2] and len(by_chi[1]) == 2
        assert max(scan.mean) < 1e-9


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
        cfg2 = config_from_dict(read_config(paths["manifest"]))
        scan2 = run_bond_scan(cfg2)
        paths2 = emit_outputs(scan2, cfg2, tmp_path / "b")
        assert open(paths["raw"]).read() == open(paths2["raw"]).read()

    def test_manifest_reruns_the_directory_it_is_written_to(self, tmp_path,
                                                            monkeypatch):
        """Written to a directory other than the config's out_dir, the
        manifest records ``.``: rerun without --out it rewrites the
        directory it sits in, byte for byte, and not the config's."""
        monkeypatch.chdir(tmp_path)
        paths = emit_outputs(run_bond_scan(TINY), TINY,
                             os.path.join("elsewhere", "a"))
        with open(paths["manifest"]) as fh:
            assert json.load(fh)["config"]["out_dir"] == "."
        raw = tmp_path / "elsewhere" / "a" / "raw.csv"
        written = raw.read_bytes()
        raw.unlink()
        assert cli.main(["scan", "--config", paths["manifest"]]) == 0
        assert raw.read_bytes() == written
        assert sorted(os.listdir(tmp_path)) == ["elsewhere"]

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial = run_bond_scan(TINY)
        parallel = run_bond_scan(dataclasses.replace(TINY, jobs=2))
        np.testing.assert_array_equal(serial.mean, parallel.mean)
        assert serial.raw_rows == parallel.raw_rows

    def test_parallel_jobs_match_serial_every_chi(self):
        """Over chi 2..27 the SVD memo shares work at three bonds; serial
        and pool scans share one test set's half-chain designs, whose row
        products are its design matrix."""
        cfg = dataclasses.replace(TINY, chi_list=tuple(range(2, 28)),
                                  replicates=2)
        _, phi_te, (left, right) = experiments._shared_test_set(cfg, 0.3)
        assert left.shape == (cfg.n_test, 27) == right.shape
        np.testing.assert_array_equal(row_outer(left, right),
                                      design_matrix(phi_te))
        pool = dataclasses.replace(cfg, jobs=2)
        _, pool_phi, pool_halves = experiments._shared_test_set(pool, 0.3)
        np.testing.assert_array_equal(pool_phi, phi_te)
        for mine, theirs in zip(pool_halves, (left, right)):
            np.testing.assert_array_equal(mine, theirs)
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
            scan = run_scan(dataclasses.replace(cfg, noise_levels=(noise,)),
                            images=(pool, test))
            assert {r["noise"] for r in scan.raw_rows} == {noise}

    def test_image_scenario_reads_its_files(self, tmp_path):
        """An image scenario's scan given no images reads its IDX files:
        it runs what the scan on ``load_mnist_pair`` runs."""
        cfg = ExperimentConfig(scenario="fig9", chi_list=(2, 3),
                               ntr_list=(16,), noise_levels=(0.25,),
                               replicates=2, base_seed=5, sweeps=1,
                               cg_steps=2, downsample=1,
                               **image_files(tmp_path, 40))
        scan = run_scan(cfg)
        assert scan.metric == "test_error"
        assert scan.raw_rows == run_scan(
            cfg, images=load_mnist_pair(cfg)).raw_rows

    def test_trainsize_scan_axis(self, tiny_images):
        pool, test = tiny_images
        cfg = ExperimentConfig(chi_list=(2,), ntr_list=(16, 32), replicates=1,
                               base_seed=5, sweeps=1, cg_steps=2)
        scan = run_scan(cfg, images=(pool, test))
        assert scan.axis == [16, 32]

    def test_trainer_sees_no_test_set(self, tiny_images, monkeypatch):
        """Every classifier an image scan trains is given no test set; the
        test columns score the model it returns, once."""
        pool, test = tiny_images
        calls = []

        def recording(train_set, val_set, test_set, *args, **kwargs):
            model, trace = train_classifier(train_set, val_set, test_set,
                                            *args, **kwargs)
            calls.append((val_set, test_set, model))
            return model, trace

        monkeypatch.setattr(experiments, "train_classifier", recording)
        cfg = ExperimentConfig(chi_list=(2, 3), ntr_list=(24,), replicates=2,
                               base_seed=5, sweeps=2, cg_steps=2)
        rows = run_scan(cfg, images=(pool, test)).raw_rows
        assert len(calls) == len(rows) == 4
        phi_te = site_features(test)
        for (val_set, test_set, model), row in zip(calls, rows):
            assert val_set is None and test_set is None
            out = model.evaluate_batch(phi_te)
            assert row["test_loss"] == data_loss(out, test.labels,
                                                 CROSS_ENTROPY)
            assert row["test_error"] == 1.0 - row["test_accuracy"]

    def test_raw_csv_has_no_best_test_columns(self, tiny_images, tmp_path):
        """An image scan's raw.csv holds the returned model's test columns
        alone: no column selected over the sweeps by test data."""
        pool, test = tiny_images
        cfg = ExperimentConfig(chi_list=(2, 3), ntr_list=(24,), replicates=2,
                               base_seed=5, sweeps=2, cg_steps=2,
                               out_dir=str(tmp_path))
        raw = emit_outputs(run_scan(cfg, images=(pool, test)), cfg,
                           cfg.out_dir)["raw"]
        with open(raw) as fh:
            header = next(csv.reader(fh))
        assert {"test_loss", "test_accuracy", "test_error"} <= set(header)
        assert not [name for name in header if name.startswith("best_test_")]


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
            ExperimentConfig(method="dmrg").validate()
        with pytest.raises(ValueError):
            ExperimentConfig(chi_list=()).validate()
        # a chi scan runs one training size
        with pytest.raises(ValueError, match="^ntr_list"):
            run_scan(dataclasses.replace(TINY, ntr_list=(40, 60)))
        # every grid value's target and the feature map, before any scan;
        # each error names the config field
        for fields, message in ((dict(eps_list=(0.3, 1.5)), "^eps_list"),
                                (dict(scenario="fig10"),
                                 "^unknown scenario 'fig10'"),
                                (dict(chi_target=1), "^chi_target"),
                                (dict(phys_dim=1), "^phys_dim"),
                                (dict(n_sites=0), "^n_sites"),
                                (dict(base_seed=-1), "^base_seed"),
                                (dict(scenario="fig9", base_seed=-1),
                                 "^base_seed"),
                                (dict(target_seed=-3), "^target_seed")):
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(**fields).validate()
        # a negative seed fails before any replicate job, not in one
        with pytest.raises(ValueError, match="^base_seed"):
            run_scan(ExperimentConfig(base_seed=-1, chi_list=(3,),
                                      ntr_list=(40,), replicates=2))

    @pytest.mark.parametrize("scenario", ["custom", "fig2"])
    def test_idx_entry_rejected_on_artificial_data(self, scenario):
        """A config records no IDX file its scan never reads: each entry
        on an artificial-data scenario fails validation by name, and the
        image scenarios take them."""
        for name in ("mnist_images", "mnist_labels", "mnist_test_images",
                     "mnist_test_labels"):
            with pytest.raises(ValueError, match=f"^{name} is not read by "
                                                 f"scenario {scenario!r}"):
                config_from_dict({"scenario": scenario,
                                  name: "train.idx"}).validate()
            for image in ("fig5", "fig9"):
                config_from_dict({"scenario": image,
                                  name: "train.idx"}).validate()

    def test_read_config_resolves_out_dir_against_its_file(self, tmp_path,
                                                          monkeypatch):
        """A config file's relative out_dir is relative to the file's own
        directory, not to the working directory; an absolute one is
        kept."""
        (tmp_path / "configs").mkdir()
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        path = os.path.join("..", "configs", "scan.json")
        for out_dir, want in (("../runs/a", tmp_path / "runs" / "a"),
                              (".", tmp_path / "configs"),
                              (str(tmp_path / "b"), tmp_path / "b")):
            with open(path, "w") as fh:
                json.dump({"chi_list": [2, 3], "out_dir": out_dir}, fh)
            entries = read_config(path)
            assert entries["chi_list"] == [2, 3]
            assert os.path.abspath(entries["out_dir"]) == str(want)

    def test_single_value_fills_one_point_grid(self):
        cfg = config_from_dict({"chi_list": 6, "eps_list": [0.3],
                                "noise_levels": 0})
        assert (cfg.chi_list, cfg.eps_list, cfg.noise_levels) == (
            (6,), (0.3,), (0,))
        # an int is a valid float
        assert config_from_dict({"ridge": 1}).ridge == 1

    @pytest.mark.parametrize("entries, message", [
        ({"replicates": "2"}, "^replicates takes values of type int"),
        ({"replicates": True}, "^replicates takes values of type int"),
        ({"chi_list": "6"}, "^chi_list takes values of type int"),
        ({"ntr_list": [40, 50.0]}, "^ntr_list takes values of type int"),
        ({"ridge": "1e-6"}, "^ridge takes values of type float"),
        ({"apply_unitary": 1}, "^apply_unitary takes values of type bool"),
        ({"out_dir": None}, "^out_dir takes values of type str"),
    ])
    def test_entry_of_wrong_type_rejected(self, entries, message):
        with pytest.raises(ValueError, match=message):
            config_from_dict(entries)

    @pytest.mark.parametrize("scenario, name, values", [
        ("custom", "chi_list", (6, 2, 27, 4, 10)),
        ("custom", "ntr_list", (60, 40)),
        ("custom", "eps_list", (0.3, 0.2)),
        ("fig9", "noise_levels", (0.1, 0.0)),
    ])
    def test_unsorted_grid_rejected_before_any_job(self, scenario, name,
                                                   values, monkeypatch):
        """Every grid is strictly increasing: listed out of order, the
        same scan would put its argmin at a false endpoint and give
        another U-shape verdict, so it fails validation by name before
        any replicate job runs."""
        monkeypatch.setattr(experiments, "_replicate_rows",
                            lambda *args: pytest.fail("a job ran"))
        cfg = ExperimentConfig(**{"scenario": scenario, "ntr_list": (300,),
                                  "replicates": 4, "n_test": 256,
                                  name: values})
        with pytest.raises(ValueError, match=f"^{name} must be non-empty "
                                             f"and strictly increasing"):
            run_scan(cfg)
        ExperimentConfig(scenario=scenario, **{name: tuple(sorted(
            values))}).validate()

    @pytest.mark.parametrize("scenario", ["fig2", "fig9"])
    def test_noise_levels_validated_before_any_scan(self, scenario):
        """An out-of-range label-noise fraction fails ``validate``, not
        every replicate job after the earlier noise levels' scans."""
        for noise in (1.5, -0.1):
            cfg = ExperimentConfig(scenario=scenario,
                                   noise_levels=(0.0, noise))
            with pytest.raises(ValueError, match="^noise_levels"):
                cfg.validate()

    def test_scenario_presets(self):
        cfg = config_from_dict({"scenario": "fig2"})
        assert cfg.ntr_list == tuple(range(50, 801, 50))
        assert cfg.replicates == 8
        full = config_from_dict({"scenario": "fig2", "full": True})
        assert full.replicates == 100
        fig4 = config_from_dict({"scenario": "fig4", "full": True})
        assert fig4.method == "both"
        assert fig4.replicates == 32

    @settings(max_examples=200, deadline=None)
    @given(entries=st.fixed_dictionaries({}, optional=READER_ENTRIES))
    @example(entries={"scenario": "fig3", "eps_list": (0.3,)})
    @example(entries={"scenario": "fig2", "full": True, "replicates": 3})
    @example(entries={"scenario": "fig9", "full": True, "replicates": 1})
    def test_reader_precedence(self, entries):
        """The reader builds the defaults, then the scenario's preset
        fields, then the entries; ``full`` sets the preset's paper-scale
        replicate count unless ``replicates`` is given."""
        preset = experiments._PRESETS.get(entries.get("scenario"), {})
        full = entries.get("full", False) and "replicates" not in entries
        if full and "full_replicates" not in preset:
            with pytest.raises(ValueError, match="^full: scenario"):
                config_from_dict(entries)
            return
        cfg = config_from_dict(entries)
        for name, default in dataclasses.asdict(ExperimentConfig()).items():
            if name in entries:
                assert getattr(cfg, name) == entries[name], name
            elif name == "replicates" and full:
                assert cfg.replicates == preset["full_replicates"]
            else:
                assert getattr(cfg, name) == preset.get(name, default), name
        manifest = json.loads(json.dumps(dataclasses.asdict(cfg)))
        assert config_from_dict(manifest) == cfg

    @pytest.mark.parametrize("scenario", ["custom", "fig5", "fig9"])
    def test_full_rejected_without_paper_scale_count(self, scenario,
                                                     tmp_path, capsys):
        """``full`` on a scenario with no paper-scale replicate count is a
        validation failure, not a flag that does nothing; false, or true
        beside ``replicates`` (old manifests' entries), is accepted."""
        with pytest.raises(ValueError, match=f"^full: scenario {scenario!r}"):
            config_from_dict({"scenario": scenario, "full": True})
        assert config_from_dict({"scenario": scenario, "full": False}) == (
            config_from_dict({"scenario": scenario}))
        assert config_from_dict(
            {"scenario": scenario, "full": True, "replicates": 1}) == (
            config_from_dict({"scenario": scenario, "replicates": 1}))
        out = tmp_path / "x"
        assert cli.main(["scan", "--scenario", scenario, "--full",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "full" in err and scenario in err
        assert not out.exists()


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
         {".": ("eps", "0.3")}),
        (["--scenario", "fig2", "--ntr", "300"], None, {".": ("ntr", "300")}),
        ([], {"scenario": "fig3", "eps_list": [0.3], "ntr_list": [40],
              "n_test": 64}, {".": ("eps", "0.3")}),
    ])
    def test_explicit_setting_wins_over_preset(self, flags, config, scans,
                                               tmp_path):
        """A flag or config-file entry equal to the dataclass default still
        overrides the scenario's preset grid: its one value is a lone scan,
        written to the output directory itself.  ``scans`` maps each scan
        directory to the raw.csv column and the one value it holds."""
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            flags = ["--config", str(path)]
        out = tmp_path / "out"
        assert cli.main(["scan", *flags, "--chi", "2,3", "--replicates", "2",
                         "--out", str(out)]) == 0
        assert sorted(str(raw.parent.relative_to(out))
                      for raw in out.rglob("raw.csv")) == sorted(scans)
        assert [entry for entry in out.iterdir() if entry.is_dir()] == []
        for name, (column, value) in scans.items():
            with open(out / name / "raw.csv") as fh:
                assert {row[column] for row in csv.DictReader(fh)} == {value}

    @pytest.mark.parametrize("flags, member", [
        (["--eps", "0.2,0.3", "--ntr", "40"], "eps=0.2"),
        (["--scenario", "fig3", "--eps", "0.2,0.3", "--ntr", "40"], "eps=0.2"),
        (["--scenario", "fig2", "--ntr", "30,40"], "ntr=30"),
    ])
    def test_member_manifest_reruns_that_scan_alone(self, flags, member,
                                                    tmp_path):
        """A family member's manifest records that member's config: it
        reruns that scan alone, byte for byte."""
        first = tmp_path / "first"
        assert cli.main(["scan", *flags, "--chi", "2,3", "--replicates", "2",
                         "--out", str(first)]) == 0
        rerun = tmp_path / "rerun"
        assert cli.main(["scan", "--config",
                         str(first / member / "manifest.json"),
                         "--out", str(rerun)]) == 0
        (raw,) = rerun.rglob("raw.csv")
        assert raw.read_bytes() == (first / member / "raw.csv").read_bytes()

    @pytest.mark.parametrize("flags, member", [
        (["--eps", "0.2,0.3", "--ntr", "40"], "eps=0.2"),
        (["--scenario", "fig4", "--eps", "0.2,0.3", "--ntr", "40",
          "--sweeps", "2", "--cg-steps", "2"], "eps=0.2"),
        (["--eps", "0.2,0.3", "--ntr", "30,40"], "eps=0.2/ntr=40"),
    ])
    def test_member_rerun_in_place_keeps_family_files(self, flags, member,
                                                      tmp_path):
        """Rerun without --out, a member's manifest reruns that scan alone,
        in place: the family's top-level files and its other members are
        left as they were, the member directory holds one raw.csv, byte-
        identical, and its manifest records the same config."""
        first = tmp_path / "first"
        assert cli.main(["scan", *flags, "--chi", "2,3", "--replicates", "2",
                         "--out", str(first)]) == 0
        home = first / member

        def outside_member():
            return {path: path.read_bytes() for path in first.rglob("*")
                    if path.is_file() and home not in path.parents}

        def config():
            with open(home / "manifest.json") as fh:
                return json.load(fh)["config"]

        before, recorded = outside_member(), config()
        raw = (home / "raw.csv").read_bytes()
        assert cli.main(["scan", "--config",
                         str(home / "manifest.json")]) == 0
        assert outside_member() == before
        assert list(home.rglob("raw.csv")) == [home / "raw.csv"]
        assert (home / "raw.csv").read_bytes() == raw
        assert config() == recorded

    def test_member_scans_every_value_its_manifest_records(self, tmp_path):
        """An eps family at one chi scans training size in each member:
        every member's raw.csv holds rows at each training size its
        manifest records, and chi_star.csv names the best one."""
        out = tmp_path / "out"
        assert cli.main(["scan", "--scenario", "fig3", "--eps", "0.2,0.3",
                         "--ntr", "30,40", "--chi", "2", "--replicates", "1",
                         "--out", str(out)]) == 0
        for eps in ("0.2", "0.3"):
            with open(out / f"eps={eps}" / "raw.csv") as fh:
                assert {(row["eps"], row["ntr"]) for row in csv.DictReader(
                    fh)} == {(eps, "30"), (eps, "40")}
            with open(out / f"eps={eps}" / "manifest.json") as fh:
                assert json.load(fh)["config"]["ntr_list"] == [30, 40]
        with open(out / "chi_star.csv") as fh:
            assert fh.readline() == "eps,ntr_star,mean,std\n"

    @pytest.mark.parametrize("member", ["eps=0.2", "."],
                             ids=["member", "family"])
    def test_manifest_reruns_in_place_from_any_directory(self, member,
                                                         tmp_path,
                                                         monkeypatch):
        """A manifest written under a relative --out, rerun without --out
        from another working directory, rewrites its own scans in place,
        byte for byte, and writes nothing under the working directory."""
        home, elsewhere = tmp_path / "home", tmp_path / "elsewhere"
        home.mkdir()
        elsewhere.mkdir()
        monkeypatch.chdir(home)
        assert cli.main(["scan", "--eps", "0.2,0.3", "--ntr", "40", "--chi",
                         "2,3", "--replicates", "2", "--out", "fam"]) == 0
        target = home / "fam" / member
        raws = {path: path.read_bytes() for path in target.rglob("raw.csv")}
        assert len(raws) == (1 if member != "." else 2)
        for path in raws:
            path.unlink()
        monkeypatch.chdir(elsewhere)
        manifest = os.path.join("..", "home", "fam", member, "manifest.json")
        assert cli.main(["scan", "--config", manifest]) == 0
        assert {path: path.read_bytes()
                for path in target.rglob("raw.csv")} == raws
        assert list(elsewhere.iterdir()) == []

    def test_full_keeps_given_replicates(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["scan", "--scenario", "fig2", "--full",
                         "--replicates", "3", "--chi", "2", "--ntr", "40",
                         "--out", str(out)]) == 0
        with open(out / "raw.csv") as fh:
            assert sorted(row["replicate"] for row in csv.DictReader(fh)) == [
                "0", "1", "2"]

    @pytest.mark.parametrize("content", ["[1, 2]", '{"config": 5}', "{bad"])
    def test_config_file_without_object_exits_2(self, content, tmp_path,
                                                 capsys):
        """A config file that holds no JSON object of entries is a
        validation failure naming the file, not a traceback."""
        path = tmp_path / "config.json"
        path.write_text(content)
        out = tmp_path / "x"
        assert cli.main(["scan", "--config", str(path),
                         "--out", str(out)]) == 2
        assert str(path) in capsys.readouterr().err
        assert not out.exists()

    def test_validation_failure_exits_2(self, tmp_path):
        code = cli.main(["scan", "--replicates", "0",
                         "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("entries", [{"replicates": "2"},
                                         {"chi_list": "6"}])
    def test_config_entry_of_wrong_type_exits_2(self, entries, tmp_path,
                                                capsys):
        """A config-file value that does not fit its field is a validation
        failure naming the key, not a traceback."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(entries))
        out = tmp_path / "x"
        assert cli.main(["scan", "--config", str(path),
                         "--out", str(out)]) == 2
        (key,) = entries
        assert capsys.readouterr().err.startswith(f"error: {key} takes")
        assert not out.exists()

    def test_config_file_single_value_fills_one_point_grid(self, tmp_path):
        """A config file's single grid value scans one point, as the
        matching flag does."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"chi_list": 3, "ntr_list": 40,
                                    "n_test": 64, "replicates": 2}))
        out = tmp_path / "x"
        assert cli.main(["scan", "--config", str(path),
                         "--out", str(out)]) == 0
        with open(out / "raw.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["axis"], row["ntr"]) for row in rows] == [("3", "40")] * 2

    @pytest.mark.parametrize("flags, field", [
        (["--ridge", "0"], "ridge"),
        (["--method", "both", "--sweeps", "0"], "sweeps"),
        (["--method", "both", "--cg-steps", "0"], "cg_steps"),
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
        # a grid no scan of the scenario reads takes one value
        (["--config", "noise2.json"], "error: noise_levels"),
        (["--scenario", "fig9", "--eps", "0.2,0.3"], "error: eps_list"),
        # a ridge that is not finite, which no comparison with 0 rejects
        (["--ridge", "nan"], "error: ridge"),
        (["--ridge", "inf"], "error: ridge"),
        # an IDX file no artificial-data scan reads
        (["--images", "train.idx", "--labels", "labels.idx",
          "--test-images", "test.idx", "--test-labels", "tlabels.idx"],
         "error: mnist_images is not read by scenario 'custom'"),
        (["--scenario", "fig2", "--images", "train.idx"],
         "error: mnist_images is not read by scenario 'fig2'"),
        # a grid out of order
        (["--chi", "6,2,3"], "error: chi_list must be non-empty and "
                             "strictly increasing"),
    ])
    def test_invalid_value_exits_2_before_any_job(self, flags, field,
                                                  tmp_path, monkeypatch,
                                                  capsys):
        """Values that would fail replicate jobs or overwrite outputs are
        rejected up front, naming the config field or value, before any
        job runs or file is written."""
        jobs = []
        replicate = experiments._replicate_rows

        def counted(*args):
            jobs.append(args)
            return replicate(*args)

        monkeypatch.setattr(experiments, "_replicate_rows", counted)
        (tmp_path / "n_test.json").write_text(json.dumps({"n_test": 1}))
        (tmp_path / "noise2.json").write_text(
            json.dumps({"noise_levels": [0, 0.1]}))
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
        monkeypatch.setattr(experiments, "_replicate_rows", broken)
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
    "custom-eps-x-ntr": (
        dict(REGRESSION, chi_list=(2, 3), ntr_list=(30, 40),
             eps_list=(0.2, 0.3)),
        MULTI_KEYS, {f"eps={eps}/ntr={ntr}": ([2, 3], 4)
                     for eps in (0.2, 0.3) for ntr in (30, 40)}),
    "fig2": (
        dict(REGRESSION, scenario="fig2", chi_list=(2, 3), ntr_list=(30, 40)),
        MULTI_KEYS, {"ntr=30": ([2, 3], 4), "ntr=40": ([2, 3], 4)}),
    "fig6": (
        dict(REGRESSION, scenario="fig6", chi_list=(2, 3), ntr_list=(40,),
             sweeps=2, cg_steps=2),
        SINGLE_KEYS, {".": ([2, 3], 4)}),
    "fig5": (
        dict(scenario="fig5", chi_list=(2, 3), ntr_list=(16,), sweeps=1,
             cg_steps=2, downsample=1),
        SINGLE_KEYS | {f"trainsize_{key}" for key in SINGLE_KEYS},
        {".": ([2, 3], 2),
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
            config_from_dict(dict(fields, out_dir=str(out))))
        assert set(paths) == keys
        assert all(os.path.isfile(path) for path in paths.values())
        subdirs = sorted(entry.name for entry in out.iterdir()
                         if entry.is_dir())
        assert subdirs == sorted({name.split("/")[0] for name in scans
                                  if name != "."})
        assert sorted(str(raw.parent.relative_to(out))
                      for raw in out.rglob("raw.csv")) == sorted(scans)
        for name, (axis, rows) in scans.items():
            with open(out / name / "summary.csv") as fh:
                assert [int(r["axis"]) for r in csv.DictReader(fh)] == axis
            with open(out / name / "raw.csv") as fh:
                assert len(list(csv.DictReader(fh))) == rows
        if keys == MULTI_KEYS:
            with open(paths["chi_star"]) as fh:
                reader = csv.DictReader(fh)
                assert len(list(reader)) == len(scans)
            grids = [part.split("=")[0]
                     for part in next(iter(scans)).split("/")]
            assert reader.fieldnames == [*grids, "chi_star", "mean", "std"]
            seconds = []
            for name in scans:
                with open(out / name / "manifest.json") as fh:
                    seconds.append(json.load(fh)["seconds"])
            with open(paths["manifest"]) as fh:
                assert json.load(fh)["seconds"] == pytest.approx(sum(seconds))

    def test_fig5_scans_follow_its_config(self, tmp_path, idx_files):
        """Both fig5 scans train on labels at the config's noise level, and
        each manifest records the config of the scans in its directory:
        fig5's at out_dir, the train-size scan's in ``trainsize``."""
        fields, _, _ = DISPATCH_CASES["fig5"]
        out = tmp_path / "out"
        cfg = config_from_dict(dict(fields, noise_levels=0.25,
                                    out_dir=str(out), **idx_files))
        experiments.run_scenario(cfg)
        sizes = dataclasses.replace(
            cfg, chi_list=(6,), ntr_list=(128, 256, 512, 1024, 2048, 4096),
            out_dir=str(out / "trainsize"))
        for directory, config in ((out, cfg), (out / "trainsize", sizes)):
            with open(directory / "raw.csv") as fh:
                assert {row["noise"] for row in csv.DictReader(fh)} == {"0.25"}
            assert config_from_dict(
                read_config(directory / "manifest.json")) == config

    @staticmethod
    def fig5_outputs(root):
        """Every file under ``root`` by its relative path, each manifest
        without its wall seconds."""
        outputs = {}
        for path in sorted(root.rglob("*")):
            if path.name == "manifest.json":
                outputs[path.relative_to(root)] = dict(
                    json.loads(path.read_text()), seconds=None)
            elif path.is_file():
                outputs[path.relative_to(root)] = path.read_bytes()
        return outputs

    def test_fig5_bond_manifest_reruns_in_place(self, tmp_path, idx_files,
                                                monkeypatch):
        """fig5's bond scan sits at its out_dir, whose manifest records
        out_dir ``.``: rerun from another working directory it rewrites
        both of fig5's scans in place, byte for byte."""
        fields, _, scans = DISPATCH_CASES["fig5"]
        home, elsewhere = tmp_path / "home", tmp_path / "elsewhere"
        home.mkdir()
        elsewhere.mkdir()
        monkeypatch.chdir(home)
        experiments.run_scenario(config_from_dict(dict(
            fields, replicates=1, out_dir="fig5", **idx_files)))
        root = home / "fig5"
        before = self.fig5_outputs(root)
        assert sorted(str(path.parent) for path in before
                      if path.name == "raw.csv") == sorted(scans)
        assert {before[path]["config"]["out_dir"] for path in before
                if path.name == "manifest.json"} == {"."}
        for path in root.rglob("*.csv"):
            path.unlink()
        monkeypatch.chdir(elsewhere)
        assert cli.main(["scan", "--config",
                         str(root / "manifest.json")]) == 0
        assert self.fig5_outputs(root) == before
        assert list(elsewhere.iterdir()) == []

    def test_fig5_trainsize_manifest_reruns_that_scan_alone(
            self, tmp_path, idx_files, monkeypatch):
        """``trainsize/manifest.json`` records a train-size scan at out_dir
        ``.``: rerun from another working directory it rewrites that scan
        alone, in place, byte for byte, and leaves the bond scan as it
        was."""
        fields, _, _ = DISPATCH_CASES["fig5"]
        root, elsewhere = tmp_path / "fig5", tmp_path / "elsewhere"
        elsewhere.mkdir()
        experiments.run_scenario(config_from_dict(dict(
            fields, replicates=1, out_dir=str(root), **idx_files)))
        before = self.fig5_outputs(root)
        bond_raw = (root / "raw.csv").stat().st_mtime_ns
        (root / "trainsize" / "raw.csv").unlink()
        monkeypatch.chdir(elsewhere)
        assert cli.main(["scan", "--config",
                         str(root / "trainsize" / "manifest.json")]) == 0
        assert self.fig5_outputs(root) == before
        assert (root / "raw.csv").stat().st_mtime_ns == bond_raw
        assert list(elsewhere.iterdir()) == []

    def test_family_stops_at_non_finite_mean(self, tmp_path, monkeypatch):
        """Every scan directory is written; chi_star.csv is not."""
        replicate = experiments._replicate_rows

        def diverging(fits, cfg, eps, *args):
            rows = replicate(fits, cfg, eps, *args)
            for row in rows:
                if eps == 0.2 and row["axis"] == 3:
                    row["inv_test_loss"] = np.nan
            return rows

        monkeypatch.setattr(experiments, "_replicate_rows", diverging)
        out = tmp_path / "out"
        fields, _, scans = DISPATCH_CASES["custom-multi-eps"]
        with pytest.raises(ValueError, match=r"at chi = \[3\]"):
            experiments.run_scenario(
                ExperimentConfig(out_dir=str(out), **fields))
        for name in scans:
            assert (out / name / "raw.csv").is_file()
        assert not (out / "chi_star.csv").exists()


def _grid(values):
    """A strategy for a grid: distinct draws from ``values``, in the
    increasing order ``validate`` asks of every grid."""
    return st.lists(st.sampled_from(values), min_size=1,
                    max_size=len(values), unique=True).map(
                        lambda drawn: tuple(sorted(drawn)))


# small grids of a 3-site, f=2 regression and of 2x2-image classifiers
FAMILY_GRIDS = st.one_of(
    st.fixed_dictionaries({"eps_list": _grid((0.2, 0.5, 1.0)),
                           "ntr_list": _grid((8, 12)),
                           "chi_list": _grid((2, 3))}),
    st.fixed_dictionaries({"noise_levels": _grid((0.0, 0.25)),
                           "ntr_list": _grid((8, 12)),
                           "chi_list": _grid((2, 3))}))


class TestFamilies:
    """Every grid with more than one value, but the scan axis's, is a
    family grid: the family runs each point of the grids' product once, and
    each member directory's manifest is that member's config."""

    @settings(max_examples=15, deadline=None)
    @given(grids=FAMILY_GRIDS)
    @example(grids={"eps_list": (0.2, 1.0), "ntr_list": (8, 12),
                    "chi_list": (2, 3)})
    @example(grids={"noise_levels": (0.0, 0.25), "ntr_list": (8, 12),
                    "chi_list": (2,)})
    def test_rows_are_the_grid_product(self, grids):
        image = "noise_levels" in grids
        value_grid = "noise_levels" if image else "eps_list"
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp) / "out"
            fields = dict(grids, replicates=1, sweeps=1, cg_steps=2,
                          out_dir=str(out))
            if image:
                fields.update(scenario="fig9", downsample=1,
                              **image_files(pathlib.Path(tmp), 24))
            else:
                fields.update(n_sites=3, phys_dim=2, chi_target=4, n_test=16)
            cfg = config_from_dict(fields)
            experiments.run_scenario(cfg)
            rows = []
            for raw in out.rglob("raw.csv"):
                member = config_from_dict(
                    read_config(raw.parent / "manifest.json"))
                assert member.out_dir == str(raw.parent)
                # the member differs from the family only in its grids,
                # each the family's grid or one of its values
                assert dataclasses.replace(
                    member, out_dir=cfg.out_dir,
                    **{grid: getattr(cfg, grid) for grid in grids}) == cfg
                for grid in grids:
                    assert getattr(member, grid) == getattr(cfg, grid) or (
                        len(getattr(member, grid)) == 1
                        and getattr(member, grid)[0] in getattr(cfg, grid))
                with open(raw) as fh:
                    member_rows = [(_cell(row[value_grid.split("_")[0]]),
                                    _cell(row["ntr"]), _cell(row["axis"]))
                                   for row in csv.DictReader(fh)]
                assert {value for value, _, _ in member_rows} == set(
                    getattr(member, value_grid))
                rows.extend(member_rows)
        axis = "ntr" if len(cfg.chi_list) == 1 < len(cfg.ntr_list) else "chi"
        want = [(value, ntr, chi if axis == "chi" else ntr)
                for value, ntr, chi in itertools.product(
                    getattr(cfg, value_grid), cfg.ntr_list, cfg.chi_list)]
        assert sorted(rows) == sorted(want)


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

        def replicate(fits, cfg, noise, ntr, chi_values, rep, train_pool,
                      test_set):
            calls.append((ntr, rep))
            if ntr >= 512:
                raise RuntimeError(f"no job at ntr={ntr}")
            return [{"axis": chi, "ntr": ntr, "noise": noise,
                     "replicate": rep, "test_error": 0.5}
                    for chi in chi_values]

        monkeypatch.setattr(experiments, "_replicate_rows", replicate)
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
            experiments.run_scenario(config_from_dict(dict(
                out_dir=str(out), ntr_list=(16,), **self.FIELDS,
                **image_files(tmp_path, 4096))))
        with open(out / "raw.csv") as fh:
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
        dict(method="both", ntr_list=[60], chi_list=[3], sweeps=3,
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

    def test_mnist_default_seed_is_the_scans(self, tmp_path, capsys):
        """``mnist`` without ``--seed`` trains at the scan's base seed: it
        prints the row of a one-point fig9 config with no base_seed."""
        flags, fields, line = SINGLE_RUNS["mnist"]
        seed_at = flags.index("--seed")
        flags = flags[:seed_at] + flags[seed_at + 2:]
        fields = {name: value for name, value in fields.items()
                  if name != "base_seed"}
        files = image_files(tmp_path, 40)
        assert cli.main(["mnist"] + self.mnist_flags(files) + flags) == 0
        printed = capsys.readouterr().out.strip()
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(fields, replicates=1, **files)))
        out = tmp_path / "scan"
        assert cli.main(["scan", "--config", str(config),
                         "--out", str(out)]) == 0
        (raw,) = out.rglob("raw.csv")
        with open(raw) as fh:
            (row,) = csv.DictReader(fh)
        assert row["train_seed"] == str(ExperimentConfig().base_seed)
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
        assert "train_accuracy" in trace[0]
        assert not [name for name in trace[0] if name.startswith("test_")]
        with open(out / "predictions.csv") as fh:
            predictions = list(csv.DictReader(fh))
        assert len(predictions) == 24
        assert list(predictions[0]) == (["index", "true", "predicted"]
                                        + [f"p{c}" for c in range(10)])
        for r in predictions:
            probs = [float(r[f"p{c}"]) for c in range(10)]
            assert sum(probs) == pytest.approx(1.0)
            assert int(r["predicted"]) == int(np.argmax(probs))
