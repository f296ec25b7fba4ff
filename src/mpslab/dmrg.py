"""Sweeping single-site training with nonlinear conjugate gradient.

The chain is kept in mixed canonical gauge; per-sample left/right partial
contractions make the loss and its gradient local to the center core.
Each center update runs a few Polak-Ribiere CG steps, each accepted by an
Armijo test, so the training objective never increases.  One solver,
``optimize_site``, serves both losses; the loss picks its reductions and
its first trial step:

- Squared error (unlabeled chain): the objective is a quadratic in the
  center core.  Each line search starts from the exact step along the
  direction, carries the model outputs (linear in the core) instead of
  applying the trial cores, and every reduction is one BLAS dot product.
  The outputs also carry from site to site, since a QR regauge leaves
  the model unchanged, and give the training loss of each sweep.  Every
  environment operation is a GEMM.  These reductions round differently
  from numpy's pairwise sums, so training agrees with earlier versions
  to roundoff, not bit for bit.
- Cross-entropy (labeled classifier): Armijo backtracking from
  min(1, 4 x the last accepted step), with numpy's pairwise reductions
  and einsum steps, so its training is bit for bit what it always was.
  That training is chaotic under roundoff: scaling the initial cores by
  1 +- 1e-15 moves a 196-site sweep's test error from 0.19 to 0.08 or
  0.34.
"""

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .datagen import Dataset
from .features import FeatureMap, featurize_batch
from .mps import (MPS, _left_ortho_step, _right_ortho_step, canonicalize,
                  left_step, right_step)
from .tensor import row_outer

ARMIJO_C = 1e-4
MAX_HALVINGS = 40
PROB_FLOOR = 1e-300

MSE = "mse"
CROSS_ENTROPY = "cross_entropy"


@dataclass(frozen=True)
class TrainConfig:
    sweeps: int = 50
    cg_steps: int = 5
    ridge: float = 0.0
    loss_kind: str = MSE
    checkpoint: str = "best_validation"  # or "last"
    sweep_tol: float = 1e-10  # early stop when a full sweep improves less

    def __post_init__(self):
        if self.sweeps < 1 or self.cg_steps < 1:
            raise ValueError("sweeps and cg_steps must be >= 1")
        if self.ridge < 0.0:
            raise ValueError("ridge coefficient must be >= 0")
        if self.loss_kind not in (MSE, CROSS_ENTROPY):
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if self.checkpoint not in ("best_validation", "last"):
            raise ValueError(f"unknown checkpoint policy {self.checkpoint!r}")


@dataclass
class TrainTrace:
    """Per-sweep record of a training run (sweep 0 is the initial state).

    ``cg_accepted`` counts the sweep's accepted CG steps, ``mean_step`` is
    their mean step length alpha (0 when none is accepted) and
    ``ls_trials`` counts its line-search objective evaluations.
    ``optimize_seconds``, ``move_seconds`` and ``evaluate_seconds`` split
    its wall time into ``optimize_site``, the QR regauge plus environment
    move, and the per-sweep loss evaluation.  All are 0 at sweep 0.
    """

    sweeps: list = field(default_factory=list)
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    test_loss: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    train_accuracy: list = field(default_factory=list)
    val_accuracy: list = field(default_factory=list)
    test_accuracy: list = field(default_factory=list)
    cg_accepted: list = field(default_factory=list)
    mean_step: list = field(default_factory=list)
    ls_trials: list = field(default_factory=list)
    optimize_seconds: list = field(default_factory=list)
    move_seconds: list = field(default_factory=list)
    evaluate_seconds: list = field(default_factory=list)
    best_validation_sweep: int = 0
    stalls: int = 0
    max_monotonicity_violation: float = 0.0

    def to_csv(self, path) -> None:
        """One row per sweep: sweep, the three losses, objective, seconds,
        then the three accuracies (classifier training), the accepted CG
        steps, their mean length, the line-search trials and the per-phase
        seconds, each when recorded."""
        names = ["sweeps", "train_loss", "val_loss", "test_loss",
                 "objective", "seconds"]
        if self.train_accuracy:
            names += ["train_accuracy", "val_accuracy", "test_accuracy"]
        if self.cg_accepted:
            names += ["cg_accepted", "mean_step", "ls_trials"]
        if self.optimize_seconds:
            names += ["optimize_seconds", "move_seconds", "evaluate_seconds"]
        with open(path, "w") as fh:
            fh.write(",".join(["sweep"] + names[1:]) + "\n")
            for row in zip(*(getattr(self, name) for name in names)):
                fh.write(",".join(repr(v) for v in row) + "\n")


class EnvironmentCache:
    """Per-sample partial contractions L_j / R_j around the center site.

    Environments on the label side of a labeled MPS carry the extra class
    axis.  Entries go stale (None) when the center moves past them.

    On an unlabeled chain every operation is a GEMM on the local block
    X_c = row_outer(L_c, phi_c) of shape (T, chi_l*f): the outputs are the
    row-wise dot of X_c @ core.reshape(chi_l*f, chi_r) with R_c, the
    gradient is ((R_c^T * coeffs) @ X_c)^T, and moving right makes
    L_{c+1} = X_c @ core.reshape(chi_l*f, chi_r) from the same block.
    Environments are built and moved by ``mps.left_step``/``right_step``,
    the steps of ``MPS.evaluate_batch``; they agree with the einsum
    contraction to roundoff, not bit for bit.  This is the local design
    of the alternating linear scheme, as plain GEMMs.

    On a labeled chain every operation is ``np.einsum(...,
    optimize=True)`` bit for bit, run by ``_contract``: the path is
    planned once per subscripts and shapes, and the leading pairwise steps
    that read only L_c, phi_c and R_c are computed once per center.  The
    classifier sweep's training is chaotic under roundoff, so these
    operations keep numpy's exact pairwise steps.

    Products of L_c, phi_c and R_c (X_c, R_c^T, the memoized einsum
    steps) live in a per-center memo that every move drops.
    """

    def __init__(self, cores, phi, label_site=None, center=0):
        n = len(cores)
        t = phi.shape[0]
        self.phi = phi
        self.label_site = label_site
        self.center = center
        self.left = [None] * (n + 1)
        self.right = [None] * (n + 1)
        self.left[0] = np.ones((t, 1))
        self.right[n] = np.ones((t, 1))
        self._memo = {}
        # away from the center: nothing to share, so a fresh memo per site
        for j in range(n - 1, center, -1):
            self.right[j] = self._absorb_right(self.right[j + 1], cores[j], j,
                                               {})
        for j in range(center):
            self.left[j + 1] = self._absorb_left(self.left[j], cores[j], j, {})

    def _absorb_left(self, env, core, j, memo):
        """L_{j+1} from L_j and core j; unlabeled, one GEMM on the local
        block X_j kept in ``memo``."""
        if self.label_site is None:
            return left_step(_memo_block(memo, env, self.phi[:, j]), core)
        lterm, cterm = _env_term("l", env), _core_term(core)
        out = "trc" if "c" in lterm + cterm else "tr"
        return _contract(f"{lterm},{cterm},tf->{out}",
                         (env, core, self.phi[:, j]), 1, memo)

    def _absorb_right(self, env, core, j, memo):
        """R_j from R_{j+1} and core j; unlabeled, one GEMM."""
        if self.label_site is None:
            return right_step(row_outer(self.phi[:, j], env), core)
        rterm, cterm = _env_term("r", env), _core_term(core)
        out = "tlc" if "c" in rterm + cterm else "tl"
        return _contract(f"{rterm},{cterm},tf->{out}",
                         (env, core, self.phi[:, j]), 1, memo)

    def move_right(self, new_core):
        """Center c -> c+1 after ``new_core`` replaced core c."""
        c = self.center
        self.left[c + 1] = self._absorb_left(self.left[c], new_core, c,
                                             self._memo)
        self.right[c + 1] = None
        self._memo = {}
        self.center = c + 1

    def move_left(self, new_core):
        """Center c -> c-1 after ``new_core`` replaced core c."""
        c = self.center
        self.right[c] = self._absorb_right(self.right[c + 1], new_core, c,
                                           self._memo)
        self.left[c] = None
        self._memo = {}
        self.center = c - 1

    def _local_block(self) -> np.ndarray:
        """X_c = row_outer(L_c, phi_c), shape (T, chi_l*f); a memo hit
        reads no slice of phi."""
        block = self._memo.get("X")
        if block is None:
            c = self.center
            block = _memo_block(self._memo, self.left[c], self.phi[:, c])
        return block

    def apply(self, core) -> np.ndarray:
        """Model outputs with ``core`` in the center slot: (T,) or (T, C)."""
        c = self.center
        lenv, renv = self.left[c], self.right[c + 1]
        if self.label_site is None:
            # row-wise dot with R_c, summed by a GEMV.  On these small
            # blocks ndarray.dot, the same BLAS call as @, costs less per
            # call than the matmul ufunc.
            rows = self._local_block().dot(core.reshape(-1, core.shape[-1]))
            rows *= renv
            return rows.dot(_ones(rows.shape[1]))
        spec = (f"{_env_term('l', lenv)},{_core_term(core)},tf,"
                f"{_env_term('r', renv)}->tc")
        return _contract(spec, (lenv, core, self.phi[:, c], renv), 1,
                         self._memo)

    def grad_from_output_coeffs(self, coeffs) -> np.ndarray:
        """Chain rule: d(loss)/d(core) from d(loss)/d(output) coefficients."""
        c = self.center
        lenv, renv = self.left[c], self.right[c + 1]
        if self.label_site is None:
            # ((R_c^T * coeffs) @ X_c)^T: the per-sample scaling runs along
            # the rows of R_c^T, laid out once per center
            renv_t = self._memo.get("RT")
            if renv_t is None:
                renv_t = self._memo["RT"] = np.ascontiguousarray(renv.T)
            grad = (renv_t * coeffs).dot(self._local_block()).T
            return grad.reshape(lenv.shape[1], self.phi.shape[2],
                                renv.shape[1])
        cterm = "lfcr" if c == self.label_site else "lfr"
        spec = (f"tc,{_env_term('l', lenv)},tf,"
                f"{_env_term('r', renv)}->{cterm}")
        return _contract(spec, (coeffs, lenv, self.phi[:, c], renv), 0,
                         self._memo)


def _memo_block(memo: dict, env: np.ndarray, phi_j: np.ndarray) -> np.ndarray:
    """row_outer(env, phi_j), computed once per ``memo``."""
    if "X" not in memo:
        memo["X"] = row_outer(env, phi_j)
    return memo["X"]


def _env_term(bond: str, env: np.ndarray) -> str:
    """einsum term of an environment: "t" + bond, then "c" for a class axis."""
    return "t" + bond + ("c" if env.ndim == 3 else "")


def _core_term(core: np.ndarray) -> str:
    """einsum term of a core: "lfr", or "lfcr" for the labeled core."""
    return "lfcr" if core.ndim == 4 else "lfr"


@functools.lru_cache(maxsize=1024)
def _einsum_plan(subscripts: str, shapes: tuple, varying: int):
    """numpy's ``optimize=True`` path for ``subscripts`` at ``shapes``,
    split after its leading steps that do not read operand ``varying``.

    Returns (head, rest, rest_path).  Each head entry is (positions, step,
    step_path): numpy's pairwise step on the operands at ``positions``
    (ascending) of the current operand list, which numpy pops and
    replaces by the step's result at the end of the list.  ``step`` lists
    those operands' terms in ascending order, so ``np.einsum`` with the
    one-step ``step_path`` pops them back into numpy's order.  The result
    is named as numpy names an intermediate: its indices sorted by (size,
    letter).  ``rest`` and ``rest_path`` are the subscripts and explicit
    path of the remaining steps on the operand list the head leaves.
    """
    dummies = [np.empty(shape) for shape in shapes]
    path = np.einsum_path(subscripts, *dummies, optimize=True)[0][1:]
    inputs, output = subscripts.split("->")
    terms = inputs.split(",")
    size = {}
    for term, shape in zip(terms, shapes):
        for index, n in zip(term, shape):
            size[index] = max(size.get(index, 1), n)
    free = [k != varying for k in range(len(terms))]
    head = []
    for positions in path:
        positions = tuple(sorted(positions))
        if not all(free[p] for p in positions):
            break
        taken = [terms[p] for p in positions]
        for p in reversed(positions):
            del terms[p], free[p]
        kept = set(output).union(*terms)
        result = "".join(sorted(set("".join(taken)) & kept,
                                key=lambda index: (size[index], index)))
        head.append((positions, ",".join(taken) + "->" + result,
                     ("einsum_path", tuple(range(len(positions))))))
        terms.append(result)
        free.append(True)
    rest = ",".join(terms) + "->" + output
    return tuple(head), rest, ("einsum_path",) + tuple(path[len(head):])


def _contract(subscripts: str, operands, varying: int, memo: dict):
    """``np.einsum(subscripts, *operands, optimize=True)``, bit for bit.

    Runs numpy's own pairwise steps, from a path planned once per
    (subscripts, shapes).  The leading steps that do not read
    ``operands[varying]`` are kept in ``memo`` under their subscripts, so
    they are computed once for all calls whose other operands are the
    same arrays under the same index letters (one center of a sweep).
    """
    head, rest, rest_path = _einsum_plan(
        subscripts, tuple(op.shape for op in operands), varying)
    operands = list(operands)
    for positions, step, step_path in head:
        args = [operands[p] for p in positions]
        for p in reversed(positions):
            del operands[p]
        if step not in memo:
            memo[step] = np.einsum(step, *args, optimize=step_path)
        operands.append(memo[step])
    return np.einsum(rest, *operands, optimize=rest_path)


def data_loss(outputs: np.ndarray, y: np.ndarray, kind: str) -> float:
    """Data term of the training objective (no ridge)."""
    if kind == MSE:
        return float(0.5 * np.mean((outputs - y) ** 2))
    p_true, _ = _true_class_probabilities(outputs, y)
    return float(-np.mean(np.log(np.maximum(p_true, PROB_FLOOR))))


def _true_class_probabilities(v: np.ndarray, y: np.ndarray):
    """(p_true, total): v_true^2 / sum(v^2) per row, 0 for an all-zero
    row, and the row totals sum(v^2)."""
    sq = v**2
    total = sq.sum(axis=1)
    p_true = np.zeros(len(y))
    np.divide(sq[_row_indices(len(y)), y], total, out=p_true,
              where=total > 0.0)
    return p_true, total


@functools.lru_cache(maxsize=8)
def _row_indices(t: int) -> np.ndarray:
    """Read-only np.arange(t), to pick one entry per row of a (T, C) block."""
    rows = np.arange(t)
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=64)
def _ones(n: int) -> np.ndarray:
    """Read-only np.ones(n), the vector a row-sum GEMV multiplies by."""
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


def output_grad_coeffs(outputs: np.ndarray, y: np.ndarray, kind: str) -> np.ndarray:
    """d(data term)/d(outputs), already divided by the sample count.

    A cross-entropy row whose true-class probability ``data_loss`` clamps
    at PROB_FLOOR (a zero true-class output or an all-zero row) gets a
    zero row: the clamped loss is flat there.
    """
    t = outputs.shape[0]
    if kind == MSE:
        return (outputs - y) / t
    # -ln(v_true^2 / sum v^2): d/dv_c = 2 v_c / sum(v^2) - 2 delta_{c,true}/v_true
    p_true, total = _true_class_probabilities(outputs, y)
    rows = _row_indices(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = 2.0 * outputs / total[:, None]
        g[rows, y] -= 2.0 / outputs[rows, y]
    g[p_true < PROB_FLOOR] = 0.0
    return g / t


def site_loss(cache: EnvironmentCache, core, y, kind, ridge, outputs=None,
              residual=None):
    """(training objective, model outputs) with ``core`` in the center
    slot (mixed gauge); ``site_gradient`` at that core takes the outputs.

    ``outputs``, when given, are the model outputs at ``core`` already
    (carried along a search line or from the previous site), so
    ``cache.apply`` is skipped.  The MSE objective is 0.5 |r|^2 / T +
    0.5 ridge |core|^2 in BLAS dot products, with r = outputs - y (or
    ``residual``, when the caller has it); it equals ``data_loss`` plus
    the ridge term to roundoff.
    """
    if outputs is None:
        outputs = cache.apply(core)
    if kind == MSE:
        r = outputs - y if residual is None else residual
        value = 0.5 * np.vdot(r, r) / len(r)
    else:
        value = data_loss(outputs, y, kind)
    if ridge:
        value += 0.5 * ridge * _site_dot(kind)(core, core)
    return float(value), outputs


def _site_dot(kind: str):
    """The solver's reduction: a BLAS dot product for MSE, numpy's
    pairwise sum for cross-entropy, whose training is roundoff-chaotic."""
    if kind == MSE:
        return np.vdot
    return lambda a, b: float(np.sum(a * b))


def site_gradient(cache: EnvironmentCache, core, outputs, y, kind,
                  ridge, residual=None) -> np.ndarray:
    """Gradient of the objective at ``core`` from its ``site_loss``
    outputs; an MSE ``residual`` outputs - y, when given, is used as is."""
    if residual is None:
        coeffs = output_grad_coeffs(outputs, y, kind)
    else:
        coeffs = residual / len(residual)
    grad = cache.grad_from_output_coeffs(coeffs)
    if ridge:
        grad = grad + ridge * core
    return grad


@dataclass(frozen=True)
class SiteUpdate:
    """The result of one ``optimize_site`` call.

    It unpacks as (core, objective, stalled, step_sum, accepted, trials).
    ``outputs`` are the model outputs at ``core``; a QR regauge leaves
    the model unchanged, so the next site's solve can start from them.
    """

    core: np.ndarray
    objective: float
    stalled: bool
    step_sum: float
    accepted: int
    trials: int
    outputs: np.ndarray

    def __iter__(self):
        return iter((self.core, self.objective, self.stalled, self.step_sum,
                     self.accepted, self.trials))


def optimize_site(cache: EnvironmentCache, core, y, config: TrainConfig,
                  outputs=None) -> SiteUpdate:
    """Polak-Ribiere (PR+) CG on the center core, at most
    ``config.cg_steps`` steps, each accepted by an Armijo line search.

    ``outputs``, when given, are the model outputs at ``core`` (carried
    from the previous site), so the solve starts without an apply.
    Returns a ``SiteUpdate``: the new core, its objective and outputs,
    the stalled flag, the summed step lengths alpha of the accepted CG
    steps, their number, and the line-search objective evaluations.  The
    objective never increases: a failed line search keeps the old core.

    The loss picks the reductions (``_site_dot``), the PR+ numerator and
    the first trial step.  MSE: the exact minimizer along d
    (``_initial_step``); trials carry the outputs out + alpha * dv,
    linear in the core, and their residual, which the gradient reuses;
    the numerator is |g_new|^2 - g_new.g, with |g_new|^2 kept for the
    next step.  Cross-entropy: min(1, 4 x the last accepted step),
    applying every trial core, and the numerator g_new.(g_new - g).
    """
    kind, ridge = config.loss_kind, config.ridge
    quadratic = kind == MSE
    dot = _site_dot(kind)
    f0, out = site_loss(cache, core, y, kind, ridge, outputs)
    g = site_gradient(cache, core, out, y, kind, ridge)
    gnorm2 = dot(g, g)
    d = -g
    stalled = False
    accepted = trials = 0
    step_sum = 0.0
    alpha = 1.0
    for _ in range(config.cg_steps):
        if gnorm2 <= 1e-28 * max(1.0, abs(f0)):
            break
        g_dot_d = dot(g, d)
        if g_dot_d >= 0.0:  # lost descent; restart on steepest descent
            d = -g
            g_dot_d = -gnorm2
        if quadratic:
            alpha, dv = _initial_step(cache, d, g_dot_d, ridge)
            if alpha is None:
                break
        else:
            alpha = min(1.0, 4.0 * alpha)
        for _ in range(MAX_HALVINGS + 1):
            trials += 1
            candidate = core + alpha * d
            out1 = res1 = None
            if quadratic:  # the outputs are linear in the core
                out1 = out + alpha * dv
                res1 = out1 - y
            f1, out1 = site_loss(cache, candidate, y, kind, ridge, out1, res1)
            if f1 <= f0 + ARMIJO_C * alpha * g_dot_d:
                break
            alpha *= 0.5
        else:
            stalled = True
            break
        accepted += 1
        step_sum += alpha
        core, f0, out = candidate, f1, out1
        g_new = site_gradient(cache, core, out, y, kind, ridge, res1)
        gnorm2_new = dot(g_new, g_new)
        if quadratic:
            beta = (gnorm2_new - dot(g_new, g)) / gnorm2
        else:
            beta = dot(g_new, g_new - g) / gnorm2
        d = max(0.0, beta) * d - g_new
        g, gnorm2 = g_new, gnorm2_new
    return SiteUpdate(core, f0, stalled, step_sum, accepted, trials, out)


def _initial_step(cache, d, g_dot_d, ridge):
    """(exact minimizer along d of the quadratic objective, dv = apply(d));
    the length is None when the objective has no curvature along d."""
    dv = cache.apply(d)
    curvature = np.vdot(dv, dv) / len(dv) + ridge * np.vdot(d, d)
    if curvature <= 0.0:
        return None, dv
    return -g_dot_d / curvature, dv


def _accuracy(outputs: np.ndarray, y: np.ndarray) -> float:
    # predicted class maximizes the squared, normalized output
    return float(np.mean(np.argmax(outputs**2, axis=1) == y))


def train_arrays(w0: MPS, phi_tr, y_tr, phi_val=None, y_val=None,
                 phi_te=None, y_te=None, config: TrainConfig = TrainConfig()):
    """Sweeping CG training on featurized arrays.

    Alternates left-to-right and right-to-left passes, regauging by QR and
    updating the environment cache incrementally.  Returns the checkpointed
    model and the complete TrainTrace.  Squared error trains a chain
    without a label site, cross-entropy one with a label site.

    Squared error carries the model outputs on the training set from each
    site's solve to the next (a regauge leaves them unchanged) and takes
    its training loss from them.  Cross-entropy, whose training is
    roundoff-chaotic, starts every solve from a fresh apply and evaluates
    the training set after each sweep.
    """
    if (config.loss_kind == CROSS_ENTROPY) != (w0.label_site is not None):
        need = "a" if config.loss_kind == CROSS_ENTROPY else "no"
        raise ValueError(f"loss_kind {config.loss_kind!r} needs a chain with "
                         f"{need} label site, got label_site={w0.label_site}")
    n = w0.n_sites
    work = canonicalize(w0, 0)
    cores = [c.copy() for c in work.cores]
    label_site = w0.label_site
    cache = EnvironmentCache(cores, phi_tr, label_site=label_site, center=0)
    classifying = config.loss_kind == CROSS_ENTROPY

    trace = TrainTrace()
    best_val = np.inf
    best_cores = None

    def record(sweep, elapsed, objective, out_tr, accepted=0, step_sum=0.0,
               trials=0, optimize_s=0.0, move_s=0.0):
        started = time.perf_counter()
        model = MPS(cores, label_site=label_site)
        if out_tr is None:
            out_tr = model.evaluate_batch(phi_tr)
        trace.sweeps.append(sweep)
        trace.train_loss.append(data_loss(out_tr, y_tr, config.loss_kind))
        trace.objective.append(objective)
        trace.seconds.append(elapsed)
        trace.cg_accepted.append(accepted)
        trace.mean_step.append(float(step_sum) / accepted if accepted
                               else 0.0)
        trace.ls_trials.append(trials)
        trace.optimize_seconds.append(optimize_s)
        trace.move_seconds.append(move_s)
        if classifying:
            trace.train_accuracy.append(_accuracy(out_tr, y_tr))
        for phi, y, losses, accs in (
            (phi_val, y_val, trace.val_loss, trace.val_accuracy),
            (phi_te, y_te, trace.test_loss, trace.test_accuracy),
        ):
            if phi is None:
                losses.append(np.nan)
                if classifying:
                    accs.append(np.nan)
                continue
            out = model.evaluate_batch(phi)
            losses.append(data_loss(out, y, config.loss_kind))
            if classifying:
                accs.append(_accuracy(out, y))
        trace.evaluate_seconds.append(
            time.perf_counter() - started if sweep else 0.0)

    def checkpoint(sweep):
        nonlocal best_val, best_cores
        if trace.val_loss[-1] <= best_val:
            best_val = trace.val_loss[-1]
            trace.best_validation_sweep = sweep
            best_cores = [c.copy() for c in cores]

    use_best = (config.checkpoint == "best_validation" and phi_val is not None)
    objective, outputs = site_loss(cache, cores[0], y_tr, config.loss_kind,
                                   config.ridge)
    carry = None if classifying else outputs
    record(0, 0.0, objective, carry)
    if use_best:
        checkpoint(0)

    previous_objective = trace.objective[0]
    for sweep in range(1, config.sweeps + 1):
        started = time.perf_counter()
        obj = previous_objective
        accepted = trials = 0
        step_sum = optimize_s = move_s = 0.0
        for site, direction in _sweep_plan(n):
            tick = time.perf_counter()
            update = optimize_site(cache, cores[site], y_tr, config, carry)
            optimize_s += time.perf_counter() - tick
            step_sum += update.step_sum
            accepted += update.accepted
            trials += update.trials
            if update.stalled:
                trace.stalls += 1
            violation = update.objective - obj - 1e-12
            if violation > trace.max_monotonicity_violation:
                trace.max_monotonicity_violation = violation
            cores[site] = update.core
            obj = update.objective
            if not classifying:
                carry = update.outputs
            tick = time.perf_counter()
            if direction == "R":
                _left_ortho_step(cores, site)
                cache.move_right(cores[site])
            elif direction == "L":
                _right_ortho_step(cores, site)
                cache.move_left(cores[site])
            move_s += time.perf_counter() - tick
        record(sweep, time.perf_counter() - started, obj, carry, accepted,
               step_sum, trials, optimize_s, move_s)
        if use_best:
            checkpoint(sweep)
        if previous_objective - obj < config.sweep_tol:
            break
        previous_objective = obj

    final = best_cores if (use_best and best_cores is not None) else cores
    return MPS(final, label_site=label_site), trace


def _sweep_plan(n):
    """Site visit order for one full sweep: left-to-right, then back."""
    if n == 1:
        return [(0, None)]
    plan = [(s, "R") for s in range(n - 1)]
    plan += [(s, "L") for s in range(n - 1, 0, -1)]
    plan.append((0, None))
    return plan


def frame_labels(d: Dataset, frame: Dataset) -> np.ndarray:
    """Re-express d's labels in ``frame``'s normalization (training frame)."""
    raw = d.labels * d.label_std + d.label_mean
    return (raw - frame.label_mean) / frame.label_std


def train(w0: MPS, train_set: Dataset, val_set: Dataset | None,
          test_set: Dataset | None, config: TrainConfig,
          fmap: FeatureMap | None = None):
    """Dataset-level wrapper around train_arrays for regression.

    Validation and test labels are evaluated in the training set's
    normalization frame.
    """
    if fmap is None:
        fmap = FeatureMap(dim=w0.phys_dim)

    def prep(ds):
        if ds is None:
            return None, None
        return featurize_batch(fmap, ds.features), frame_labels(ds, train_set)

    phi_val, y_val = prep(val_set)
    phi_te, y_te = prep(test_set)
    return train_arrays(w0, featurize_batch(fmap, train_set.features),
                        train_set.labels, phi_val, y_val, phi_te, y_te, config)
