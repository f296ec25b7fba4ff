"""The benchmark's three workloads, each at the geometry of one paper
experiment.

An *op* is the public mpslab call a user waits for.  A workload makes an
op's inputs from (seed, op index) in ``prepare`` (not timed), runs the op
in ``run`` (timed) and checks its outputs in ``check``.  Op 0 of every
run is the *reference op*: its inputs are the default seed's (the
acceptance suite's pinned seeds), whatever ``--seed`` is, so the quality
metrics it yields move only when mpslab's numerics move; ops 1, 2, ...
take their inputs from ``--seed``.  All ops of a run use disjoint seeds.
"""

import math
import os
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

import images
from mpslab import classify, datagen, dmrg, exact, experiments
from mpslab.features import FeatureMap, featurize_batch

DEFAULT_SEED = 0
# Offsets of the acceptance suite, so the reference op reproduces the
# pinned criterion-5 scan and the first criterion-7 replicate.
BASE_SEED = 1000
TEST_SEED_OFFSET = 1_000_003
VAL_SEED_OFFSET = 2_000_003
# Ops of one run are 100 seeds apart (a scan uses base..base+replicates);
# runs with different --seed are 10^7 apart, far from the offsets above.
OP_STRIDE = 100
SEED_STRIDE = 10_000_000

# Seed-state quality at the reference op and the tolerance it is held to.
# Roundoff-level changes (contraction order, BLAS kernels) move these
# figures by far less; a changed algorithm or a bug moves them by more.
REL_TOL = 1e-3
ERROR_TOL_SAMPLES = 2
# Objective increases within this share of the objective are roundoff.
MONOTONE_RTOL = 1e-10


def base_seed(seed: int, op: int) -> int:
    """Integer seed from which op ``op`` of a run draws its inputs."""
    if op == 0:
        seed = DEFAULT_SEED
    return BASE_SEED + OP_STRIDE * op + SEED_STRIDE * seed


def _close(value, ref, rel=REL_TOL) -> bool:
    return abs(value - ref) <= rel * abs(ref)


def _trace_problems(trace, sweeps, losses, increase_tol=0.0) -> list:
    """Invariants of every training run: the sweeps ran, the objective
    never increased (beyond the trainer's own 1e-12 plus
    ``increase_tol``), the losses are finite."""
    bad = []
    if len(trace.sweeps) != sweeps + 1:
        bad.append(f"ran {len(trace.sweeps) - 1} of {sweeps} sweeps")
    if not trace.max_monotonicity_violation <= increase_tol:
        bad.append("objective increased by "
                   f"{trace.max_monotonicity_violation!r}")
    if not all(map(math.isfinite, losses)):
        bad.append("non-finite loss in trace")
    return bad


@dataclass
class InvScan:
    """Criterion-5 inversion bond scan, one ``run_bond_scan`` per op."""

    name: ClassVar[str] = "inv-scan"
    n_sites: int = 6
    phys_dim: int = 3
    epsilon: float = 0.3
    n_train: int = 300
    n_test: int = 1024
    replicates: int = 20
    chis: tuple = tuple(range(2, 28))
    ridge: float = 1e-6
    out_dir: str = "perfbench-out"
    reference: dict = field(default_factory=lambda: {
        "test_loss": 0.06579517571487774})

    @property
    def work_per_op(self) -> int:
        """Fits: replicate x bond dimension."""
        return self.replicates * len(self.chis)

    @property
    def expected_calls(self) -> dict:
        return {"mps.compress": self.replicates * len(self.chis),
                "tensor.solve_linear": self.replicates,
                "dmrg.optimize_site": 0}

    def prepare(self, seed, op):
        return experiments.ExperimentConfig(
            method=experiments.INVERSION, n_sites=self.n_sites,
            phys_dim=self.phys_dim, eps_list=(self.epsilon,),
            ntr_list=(self.n_train,), chi_list=tuple(self.chis),
            replicates=self.replicates, ridge=self.ridge,
            n_test=self.n_test, base_seed=base_seed(seed, op), jobs=1,
            out_dir=os.path.join(self.out_dir, f"op{op}"))

    def run(self, cfg):
        scan = experiments.run_bond_scan(cfg)
        return scan, experiments.emit_outputs(scan, cfg, cfg.out_dir)

    def check(self, cfg, out, reference: bool) -> list:
        scan, paths = out
        bad = []
        if scan.failures:
            bad.append(f"{scan.failures} replicate jobs failed")
        if not np.all(np.isfinite(scan.mean)):
            bad.append("non-finite mean test loss")
        # The largest chi is the full bond dimension f^(N/2), where
        # compression is exact and the model is the ridge fit itself,
        # which no truncation can beat on the training data.
        for rep in range(self.replicates):
            train = {r["axis"]: r["inv_train_loss"] for r in scan.raw_rows
                     if r["replicate"] == rep}
            full = train.pop(self.chis[-1])
            if not full <= min(train.values()) * (1.0 + 1e-9):
                bad.append(f"replicate {rep}: full-chi train loss {full!r} "
                           f"> truncated {min(train.values())!r}")
        with open(paths["raw"]) as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != self.work_per_op:
            bad.append(f"raw.csv has {rows} rows, expected {self.work_per_op}")
        if reference and self.reference:
            # The U-shape is a statistical property of a scan: a shared
            # test set with one extreme label (a 12-sigma one on op 6 of
            # seed 1177403263) lifts every replicate and moves chi* to 2.
            # It is asserted where the inputs are criterion 5's.
            chi_star = experiments.find_optimal_chi(scan)[0]
            if not self.chis[0] < chi_star < self.chis[-1]:
                bad.append(f"chi*={chi_star} is not interior")
            if not experiments.has_significant_ushape(scan):
                bad.append("no significant U-shape")
            loss = self.quality(cfg, out)[0]
            if not _close(loss, self.reference["test_loss"]):
                bad.append(f"reference test_loss {loss!r} != seed state "
                           f"{self.reference['test_loss']!r}")
        return bad

    def quality(self, cfg, out):
        """(mean test half-MSE at chi*, test MSE in training-label
        variances); labels are normalized to unit variance, so the second
        is 1 - R^2 against the training frame."""
        loss = experiments.find_optimal_chi(out[0])[1]
        return loss, 2.0 * loss

    def stalls(self, out) -> int:
        return 0


@dataclass
class DmrgInputs:
    train: object
    val: object
    test: object
    w0: object
    inv_val_loss: float
    inv_test_loss: float


@dataclass
class DmrgReg:
    """Criterion-7 DMRG training near chi*, one ``dmrg.train`` per op.

    The initial model (inversion and compression) is built in ``prepare``.
    """

    name: ClassVar[str] = "dmrg-reg"
    n_sites: int = 6
    phys_dim: int = 3
    epsilon: float = 0.3
    n_train: int = 300
    n_val: int = 1024
    n_test: int = 1024
    chi: int = 6
    sweeps: int = 50
    cg_steps: int = 5
    ridge: float = 1e-6
    reference: dict = field(default_factory=lambda: {
        "test_loss": 0.031153624119011986})

    @property
    def fmap(self) -> FeatureMap:
        return FeatureMap(dim=self.phys_dim)

    @property
    def work_per_op(self) -> int:
        """Site updates: sweeps x (2N - 1)."""
        return self.sweeps * (2 * self.n_sites - 1)

    @property
    def expected_calls(self) -> dict:
        return {"dmrg.optimize_site": self.work_per_op}

    def prepare(self, seed, op) -> DmrgInputs:
        spec = datagen.TargetSpec(n_sites=self.n_sites,
                                  phys_dim=self.phys_dim,
                                  epsilon=self.epsilon, seed=0)
        base = base_seed(seed, op)
        train = datagen.generate_dataset(spec, self.n_train, base)
        val = datagen.generate_dataset(spec, self.n_val,
                                       base + VAL_SEED_OFFSET)
        test = datagen.generate_dataset(spec, self.n_test,
                                        base + TEST_SEED_OFFSET)
        w0 = exact.inversion_and_compression(train, self.fmap, self.ridge,
                                             self.chi)

        def loss(d):
            pred = w0.evaluate_batch(featurize_batch(self.fmap, d.features))
            return float(0.5 * np.mean(
                (pred - dmrg.frame_labels(d, train)) ** 2))

        return DmrgInputs(train, val, test, w0, loss(val), loss(test))

    def run(self, inp: DmrgInputs):
        config = dmrg.TrainConfig(sweeps=self.sweeps, cg_steps=self.cg_steps,
                                  ridge=self.ridge,
                                  checkpoint="best_validation",
                                  sweep_tol=0.0)
        return dmrg.train(inp.w0, inp.train, inp.val, inp.test, config,
                          self.fmap)

    def check(self, inp: DmrgInputs, out, reference: bool) -> list:
        _, trace = out
        bad = _trace_problems(trace, self.sweeps, trace.train_loss
                              + trace.val_loss + trace.test_loss)
        best = trace.best_validation_sweep
        # the checkpoint can always fall back to the inversion model, so
        # its validation loss never exceeds the inversion model's
        if trace.val_loss[best] > inp.inv_val_loss * (1.0 + 1e-9):
            bad.append(f"best validation loss {trace.val_loss[best]!r} > "
                       f"inversion {inp.inv_val_loss!r}")
        if reference and self.reference:
            # On one training set the test loss may go either way (the
            # checkpoint is chosen on validation data); at the reference
            # inputs DMRG improves on inversion, as in criterion 7.
            if trace.test_loss[best] > inp.inv_test_loss:
                bad.append(f"reference test loss {trace.test_loss[best]!r} "
                           f"> inversion {inp.inv_test_loss!r}")
            if not _close(trace.test_loss[best], self.reference["test_loss"]):
                bad.append(f"reference test_loss {trace.test_loss[best]!r} "
                           f"!= seed state {self.reference['test_loss']!r}")
        return bad

    def quality(self, inp, out):
        """(test half-MSE at the best-validation sweep, test MSE in
        training-label variances)."""
        trace = out[1]
        loss = trace.test_loss[trace.best_validation_sweep]
        return loss, 2.0 * loss

    def stalls(self, out) -> int:
        return out[1].stalls


@dataclass
class ClfSweep:
    """Classifier training at MNIST geometry on synthetic images, one
    ``classify.train_classifier`` per op."""

    name: ClassVar[str] = "clf-sweep"
    side: int = images.SIDE
    num_classes: int = images.NUM_CLASSES
    noise: float = 0.08
    n_train: int = 1024
    n_test: int = 1024
    chi: int = 6
    sweeps: int = 1
    cg_steps: int = 5
    # chance is 1 / num_classes; the reference op reaches 0.89
    min_train_accuracy: float = 0.5
    reference: dict = field(default_factory=lambda: {
        "test_loss": 0.9474452316994548, "test_error": 0.1875})

    @property
    def n_sites(self) -> int:
        return self.side * self.side

    @property
    def work_per_op(self) -> int:
        """Site updates: sweeps x (2N - 1)."""
        return self.sweeps * (2 * self.n_sites - 1)

    @property
    def expected_calls(self) -> dict:
        return {"dmrg.optimize_site": self.work_per_op,
                "exact.build_design_system": 0,
                "tensor.solve_linear": 0}

    def prepare(self, seed, op):
        base = base_seed(seed, op)
        rng = np.random.default_rng(base)
        protos = images.prototypes(self.num_classes, self.side)

        def draw(count):
            pixels, labels = images.sample(protos, count, rng, self.noise)
            return classify.ImageDataset(pixels, labels, self.num_classes)

        return draw(self.n_train), draw(self.n_test), base

    def run(self, inp):
        train, test, base = inp
        config = dmrg.TrainConfig(sweeps=self.sweeps, cg_steps=self.cg_steps,
                                  ridge=0.0, loss_kind=dmrg.CROSS_ENTROPY,
                                  checkpoint="last", sweep_tol=0.0)
        return classify.train_classifier(train, None, test, self.chi, config,
                                         seed=base)

    def check(self, inp, out, reference: bool) -> list:
        _, trace = out
        # The trainer flags increases above 1e-12 absolute.  On this chain
        # regauging alone moves the recomputed objective by up to 4e-12
        # (seen on 5 of 10 runs), so increases are judged relative to the
        # objective's size here.
        bad = _trace_problems(trace, self.sweeps, trace.train_loss
                              + trace.test_loss + trace.objective,
                              increase_tol=MONOTONE_RTOL
                              * abs(trace.objective[0]))
        if not trace.train_loss[-1] < trace.train_loss[0]:
            bad.append("the sweep did not lower the training loss")
        if reference and self.reference:
            # One sweep from a random start leaves some seeds near chance
            # (2 of 60 surveyed op seeds: train accuracy 0.12 and 0.18), so
            # "well above chance" is asserted where the inputs are fixed.
            if not trace.train_accuracy[-1] >= self.min_train_accuracy:
                bad.append(f"train accuracy {trace.train_accuracy[-1]!r} < "
                           f"{self.min_train_accuracy}")
            loss, error = self.quality(inp, out)
            if not _close(loss, self.reference["test_loss"]):
                bad.append(f"reference test_loss {loss!r} != seed state "
                           f"{self.reference['test_loss']!r}")
            if abs(error - self.reference["test_error"]) > (
                    ERROR_TOL_SAMPLES / self.n_test + 1e-12):
                bad.append(f"reference test_error {error!r} != seed state "
                           f"{self.reference['test_error']!r}")
        return bad

    def quality(self, inp, out):
        """(final test cross-entropy, 1 - final test accuracy)."""
        trace = out[1]
        return trace.test_loss[-1], 1.0 - trace.test_accuracy[-1]

    def stalls(self, out) -> int:
        return out[1].stalls


WORKLOADS = {w.name: w for w in (InvScan, DmrgReg, ClfSweep)}
