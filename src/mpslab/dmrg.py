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
  and ``np.einsum``'s own contraction steps (planned once per subscripts
  and shapes), so its training is bit for bit what it always was.
  That training is chaotic under roundoff: scaling the initial cores by
  1 +- 1e-15 moves a 196-site sweep's test error from 0.19 to 0.08 or
  0.34.  So every solve starts from a fresh apply, not from the
  previous site's outputs.

``train_arrays`` runs the sweeps.  For both losses a sweep's training loss
comes from the outputs of its last solve; only the validation and test
sets are evaluated per sweep.
"""

import functools
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

try:
    # the steps of np.einsum's own contraction loop (numpy >= 2.4)
    from numpy._core.einsumfunc import bmm_einsum, c_einsum
except ImportError as err:
    raise ImportError(
        "mpslab.dmrg runs np.einsum's contraction steps and needs numpy "
        f">= 2.4 (numpy._core.einsumfunc.bmm_einsum); found numpy "
        f"{np.__version__}") from err

from .datagen import Dataset
from .features import FeatureMap, featurize_batch
from .mps import MPS, canonicalize, left_step, right_step, shift_center
from .tables import write_table
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
        if not 0.0 <= self.ridge < math.inf:
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge}")
        if self.loss_kind not in (MSE, CROSS_ENTROPY):
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if self.checkpoint not in ("best_validation", "last"):
            raise ValueError(f"unknown checkpoint policy {self.checkpoint!r}")


@dataclass
class TrainTrace:
    """Per-sweep record of a training run (sweep 0 is the initial state).

    ``train_loss`` and ``train_accuracy`` (classifier) come from the model
    outputs of the sweep's last solve; with ridge 0 the training loss is
    the objective.  ``cg_accepted`` counts the sweep's accepted CG steps,
    ``mean_step`` is their mean step length alpha (0 when none is
    accepted) and ``ls_trials`` counts its line-search objective
    evaluations.  ``optimize_seconds``, ``move_seconds`` and
    ``evaluate_seconds`` split its wall time into ``optimize_site``, the
    QR regauge plus environment move (with the rebuilds of any dropped
    environment a move makes), and the validation and test evaluation.
    All are 0 at sweep 0.  ``clamped_rows`` (classifier) counts the
    training rows of those last outputs whose true-class probability is
    below PROB_FLOOR: ``train_loss`` clamps them and their gradient rows
    are zero.
    """

    sweeps: list = field(default_factory=list)
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    test_loss: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    train_accuracy: list = field(default_factory=list)
    val_accuracy: list = field(default_factory=list)
    test_accuracy: list = field(default_factory=list)
    cg_accepted: list = field(default_factory=list)
    mean_step: list = field(default_factory=list)
    ls_trials: list = field(default_factory=list)
    optimize_seconds: list = field(default_factory=list)
    move_seconds: list = field(default_factory=list)
    evaluate_seconds: list = field(default_factory=list)
    clamped_rows: list = field(default_factory=list)
    best_validation_sweep: int = 0
    stalls: int = 0
    max_monotonicity_violation: float = 0.0

    def to_csv(self, path) -> None:
        """One row per sweep, one column per recorded (non-empty) list
        field in declaration order; ``sweeps`` heads the column
        ``sweep``."""
        names = [f.name for f in fields(self)
                 if f.type is list and getattr(self, f.name)]
        write_table(path, ["sweep" if name == "sweeps" else name
                           for name in names],
                    zip(*(getattr(self, name) for name in names)))


class EnvironmentCache:
    """The chain a sweep trains: its cores, in mixed canonical gauge at
    ``center``, and the per-sample partial contractions L_j / R_j around
    that center.

    ``EnvironmentCache(w, phi, center)`` canonicalizes ``w`` at ``center``
    and keeps C-contiguous copies of its cores in ``cores``: a left QR
    move leaves its isometry a transposed view, and strides pick the
    BLAS path of every later product.  The label site is ``w``'s.  The
    caller writes only ``cores[center]``, its trained center core;
    ``move_right`` and ``move_left`` regauge that core by a QR
    ``shift_center`` on ``cores`` (Schollwoeck, arXiv:1008.3477, sec.
    4.4) and absorb its isometry into the environment on its side.  After
    construction and after every move, the cores before ``center`` are
    left-orthonormal, those after it right-orthonormal, and
    ``left[center]`` and ``right[center + 1]`` are present.

    Environments on the label side of a labeled MPS carry the extra class
    axis.  A None entry is either stale (the center has moved past it) or
    dropped.  Unlabeled chains drop nothing: they keep every environment
    as it is built.  A labeled chain keeps an environment, with or
    without the class axis, only at every k-th index, k = ceil(sqrt(N))
    for a chain of N sites, at the boundaries ``left[0]`` and
    ``right[N]``, and in the segment the center is walking through: when
    a move needs a dropped one, that segment is rebuilt from the nearest
    kept environment (sublinear-memory checkpointing, Chen et al.,
    arXiv:1604.06174).  A sweep then holds O(sqrt N) environments instead
    of O(N), at the cost of about 2N extra absorbs per sweep.  A rebuild
    reads only cores away from the center, which change only by the move
    that absorbs them, so it makes the same ``_absorb_left``/
    ``_absorb_right`` calls on the same arrays as the build or move that
    first made the environment, with a fresh memo, and every environment
    read is bit for bit the one kept before.

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
    optimize=True)`` bit for bit, run by ``_contract``: numpy's own
    contraction list is planned once per subscripts and shapes and run
    step by step as ``np.einsum`` runs it, with no einsum call and no
    re-planning, and the steps that read only L_c, phi_c and R_c are
    computed once per center.  The classifier sweep's training is
    chaotic under roundoff, so these operations keep numpy's exact
    pairwise steps.

    ``phi`` is a (T, N, f) array or ``features.SiteFeatures``, read one
    site at a time.  phi_c and the products of L_c, phi_c and R_c (X_c,
    R_c^T, the memoized einsum steps) live in a per-center memo that every
    move drops; each build or rebuild absorb reads its own site.
    """

    def __init__(self, w: MPS, phi, center=0):
        n = w.n_sites
        t = phi.shape[0]
        self.phi = phi
        self.label_site = w.label_site
        self.center = center
        self.cores = cores = [c.copy() for c in canonicalize(w, center).cores]
        self._stride = math.isqrt(n - 1) + 1  # k = ceil(sqrt(N))
        self.left = [None] * (n + 1)
        self.right = [None] * (n + 1)
        self.left[0] = np.ones((t, 1))
        self.right[n] = np.ones((t, 1))
        self._memo = {}
        # away from the center: nothing to share, so a fresh memo per site
        for j in range(n - 1, center, -1):
            self.right[j] = self._absorb_right(self.right[j + 1], cores[j], j,
                                               {})
            self._drop(self.right, j + 1)
        for j in range(center):
            self.left[j + 1] = self._absorb_left(self.left[j], cores[j], j, {})
            self._drop(self.left, j)

    def _drop(self, envs, j):
        """Drop ``envs[j]`` of a labeled chain unless j is a multiple of k
        or the boundary N, where the rebuild searches end."""
        if (self.label_site is not None and j % self._stride
                and j < len(envs) - 1):
            envs[j] = None

    def _site(self, j, memo):
        """phi_j, site j's (T, f) local vectors, kept in ``memo``: per-site
        features embed a site on every read."""
        if "phi" not in memo:
            memo["phi"] = self.phi[:, j]
        return memo["phi"]

    def _absorb_left(self, env, core, j, memo):
        """L_{j+1} from L_j and core j; unlabeled, one GEMM on the local
        block X_j kept in ``memo``."""
        phi_j = self._site(j, memo)
        if self.label_site is None:
            return left_step(_local_block(memo, env, phi_j), core)
        lterm, cterm = _env_term("l", env), _core_term(core)
        out = "trc" if "c" in lterm + cterm else "tr"
        return _contract(f"{lterm},{cterm},tf->{out}", (env, core, phi_j), 1,
                         memo)

    def _absorb_right(self, env, core, j, memo):
        """R_j from R_{j+1} and core j; unlabeled, one GEMM."""
        phi_j = self._site(j, memo)
        if self.label_site is None:
            return right_step(row_outer(phi_j, env), core)
        rterm, cterm = _env_term("r", env), _core_term(core)
        out = "tlc" if "c" in rterm + cterm else "tl"
        return _contract(f"{rterm},{cterm},tf->{out}", (env, core, phi_j), 1,
                         memo)

    def move_right(self):
        """Center c -> c+1: regauge core c by QR, absorb it into L_{c+1}."""
        c = self.center
        shift_center(self.cores, c, 1)
        self.left[c + 1] = self._absorb_left(self.left[c], self.cores[c], c,
                                             self._memo)
        self._drop(self.left, c)
        self.right[c + 1] = None
        self._memo = {}
        self.center = c + 1
        if self.right[c + 2] is None:
            # rebuild the dropped segment right[c + 2 : m] from kept R_m
            m = c + 3
            while self.right[m] is None:
                m += 1
            for j in range(m - 1, c + 1, -1):
                self.right[j] = self._absorb_right(
                    self.right[j + 1], self.cores[j], j, {})

    def move_left(self):
        """Center c -> c-1: regauge core c by QR, absorb it into R_c."""
        c = self.center
        shift_center(self.cores, c, -1)
        self.right[c] = self._absorb_right(self.right[c + 1], self.cores[c],
                                           c, self._memo)
        self._drop(self.right, c + 1)
        self.left[c] = None
        self._memo = {}
        self.center = c - 1
        if self.left[c - 1] is None:
            # rebuild the dropped segment left[m + 1 : c] from kept L_m
            m = c - 2
            while self.left[m] is None:
                m -= 1
            for j in range(m, c - 1):
                self.left[j + 1] = self._absorb_left(
                    self.left[j], self.cores[j], j, {})

    def apply(self, core) -> np.ndarray:
        """Model outputs with ``core`` in the center slot: (T,) or (T, C)."""
        c = self.center
        lenv, renv = self.left[c], self.right[c + 1]
        phi_c = self._site(c, self._memo)
        if self.label_site is None:
            # row-wise dot with R_c, summed by a GEMV.  On these small
            # blocks ndarray.dot, the same BLAS call as @, costs less per
            # call than the matmul ufunc.
            block = _local_block(self._memo, lenv, phi_c)
            rows = block.dot(core.reshape(-1, core.shape[-1]))
            rows *= renv
            return rows.dot(_ones(rows.shape[1]))
        spec = (f"{_env_term('l', lenv)},{_core_term(core)},tf,"
                f"{_env_term('r', renv)}->tc")
        return _contract(spec, (lenv, core, phi_c, renv), 1, self._memo)

    def grad_from_output_coeffs(self, coeffs) -> np.ndarray:
        """Chain rule: d(loss)/d(core) from d(loss)/d(output) coefficients."""
        c = self.center
        lenv, renv = self.left[c], self.right[c + 1]
        phi_c = self._site(c, self._memo)
        if self.label_site is None:
            # ((R_c^T * coeffs) @ X_c)^T: the per-sample scaling runs along
            # the rows of R_c^T, laid out once per center
            renv_t = self._memo.get("RT")
            if renv_t is None:
                renv_t = self._memo["RT"] = np.ascontiguousarray(renv.T)
            block = _local_block(self._memo, lenv, phi_c)
            grad = (renv_t * coeffs).dot(block).T
            return grad.reshape(lenv.shape[1], self.phi.shape[2],
                                renv.shape[1])
        cterm = "lfcr" if c == self.label_site else "lfr"
        spec = (f"tc,{_env_term('l', lenv)},tf,"
                f"{_env_term('r', renv)}->{cterm}")
        return _contract(spec, (coeffs, lenv, phi_c, renv), 0, self._memo)


def _local_block(memo: dict, env: np.ndarray, phi_j: np.ndarray) -> np.ndarray:
    """The local block X = row_outer(env, phi_j), shape (T, chi_l*f),
    computed once per ``memo`` (one center of a sweep)."""
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
    """numpy's ``optimize=True`` contraction list for ``subscripts`` at
    ``shapes``, each step marked by whether it reads operand ``varying``.

    Each step is (positions, step subscripts, shared), as ``np.einsum``
    runs it: pop the operands at ``positions`` in that (descending) order,
    contract them by the step subscripts, whose intermediates numpy names,
    and append the result to the operand list.  ``shared`` steps read
    neither operand ``varying`` nor any result derived from it.
    """
    dummies = [np.empty(shape) for shape in shapes]
    shared = [k != varying for k in range(len(shapes))]
    steps = []
    for positions, step, _ in np.einsum_path(
            subscripts, *dummies, optimize=True, einsum_call=True)[1]:
        shared.append(all([shared.pop(p) for p in positions]))
        steps.append((positions, step, shared[-1]))
    return tuple(steps)


def _contract(subscripts: str, operands, varying: int, memo: dict):
    """``np.einsum(subscripts, *operands, optimize=True)``, bit for bit.

    Runs numpy's own contraction list, planned once per (subscripts,
    shapes), as ``np.einsum``'s loop does: two operands by ``bmm_einsum``,
    any other count by ``c_einsum``.  The steps that do not read
    ``operands[varying]``, directly or through an earlier step, are kept
    in ``memo`` under their subscripts, so they are computed once for all
    calls whose other operands are the same arrays under the same index
    letters (one center of a sweep).
    """
    operands = list(operands)
    for positions, step, shared in _einsum_plan(
            subscripts, tuple(op.shape for op in operands), varying):
        args = [operands.pop(p) for p in positions]
        if not shared:
            operands.append(_einsum_step(step, args))
            continue
        if step not in memo:
            memo[step] = _einsum_step(step, args)
        operands.append(memo[step])
    return operands[0]


def _einsum_step(step: str, args: list) -> np.ndarray:
    """One step of ``np.einsum``'s contraction loop."""
    if len(args) == 2:
        return bmm_einsum(step, *args)
    return c_einsum(step, *args)


def data_loss(outputs: np.ndarray, y: np.ndarray, kind: str) -> float:
    """Data term of the training objective (no ridge)."""
    if kind == MSE:
        return float(0.5 * np.mean((outputs - y) ** 2))
    return _cross_entropy(_true_class_probabilities(outputs, y)[0])


def _cross_entropy(p_true: np.ndarray) -> float:
    """Mean of -ln p_true, each p_true clamped at PROB_FLOOR."""
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


def site_loss(cache: EnvironmentCache, core, y, kind, ridge, outputs=None):
    """(training objective, model outputs) with ``core`` in the center
    slot (mixed gauge); ``site_gradient`` at that core takes the outputs.

    ``outputs``, when given, are the model outputs at ``core`` already
    (carried along a search line or from the previous site), so
    ``cache.apply`` is skipped.  The MSE objective is 0.5 |r|^2 / T +
    0.5 ridge |core|^2 in BLAS dot products, with r = outputs - y; it
    equals ``data_loss`` plus the ridge term to roundoff.
    """
    if outputs is None:
        outputs = cache.apply(core)
    if kind == MSE:
        r = outputs - y
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
                  ridge) -> np.ndarray:
    """Gradient of the objective at ``core`` from its ``site_loss`` outputs."""
    grad = cache.grad_from_output_coeffs(output_grad_coeffs(outputs, y, kind))
    if ridge:
        grad = grad + ridge * core
    return grad


@dataclass(frozen=True)
class SiteUpdate:
    """The result of one ``optimize_site`` call.

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
    linear in the core, instead of applying the trial core; the
    numerator is |g_new|^2 - g_new.g, with |g_new|^2 kept for the next
    step.  Cross-entropy: min(1, 4 x the last accepted step),
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
            # the MSE outputs are linear in the core
            out1 = out + alpha * dv if quadratic else None
            f1, out1 = site_loss(cache, candidate, y, kind, ridge, out1)
            if f1 <= f0 + ARMIJO_C * alpha * g_dot_d:
                break
            alpha *= 0.5
        else:
            stalled = True
            break
        accepted += 1
        step_sum += alpha
        core, f0, out = candidate, f1, out1
        g_new = site_gradient(cache, core, out, y, kind, ridge)
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


def accuracy(outputs: np.ndarray, y: np.ndarray) -> float:
    """Fraction of rows whose predicted class, the one maximizing the
    squared, normalized output, is the label."""
    return float(np.mean(np.argmax(outputs**2, axis=1) == y))


def train_arrays(w0: MPS, phi_tr, y_tr, phi_val=None, y_val=None,
                 phi_te=None, y_te=None, config: TrainConfig = TrainConfig()):
    """Sweeping CG training on featurized samples: (T, N, f) arrays or
    ``features.SiteFeatures``, read one site at a time.  Cross-entropy
    labels outside the chain's classes raise ValueError before any sweep.

    Alternates left-to-right and right-to-left passes over the chain an
    ``EnvironmentCache`` holds: each solve writes ``cache.cores`` at the
    center, and the cache's moves regauge it and update the environments
    incrementally.  Returns the checkpointed model, mixed-canonical at
    site 0 since every sweep ends there, and the complete TrainTrace.
    Squared error trains a chain without a label site, cross-entropy one
    with a label site.

    Sweep 0 is the loop's first pass, over no sites: it records the
    initial state.  Each sweep's training loss (and classifier accuracy)
    comes from the model outputs of its last solve, and only the
    validation and test sets are evaluated per sweep; the trace holds
    their lists only for the sets given.  Squared error also
    carries those outputs from each site's solve to the next (a regauge
    leaves them unchanged); cross-entropy, whose training is
    roundoff-chaotic, starts every solve from a fresh apply.
    """
    kind, label_site = config.loss_kind, w0.label_site
    classifying = kind == CROSS_ENTROPY
    if classifying != (label_site is not None):
        need = "a" if classifying else "no"
        raise ValueError(f"loss_kind {kind!r} needs a chain with {need} "
                         f"label site, got label_site={label_site}")
    if classifying:
        for name, y in (("y_tr", y_tr), ("y_val", y_val), ("y_te", y_te)):
            _check_classes(name, y, w0.label_dim)
    cache = EnvironmentCache(w0, phi_tr, center=0)
    # a sweep's center moves: right to the last site, back left to site 0,
    # then stay for a last solve there
    n = w0.n_sites
    plan = [1] * (n - 1) + [-1] * (n - 1) + [0]
    use_best = config.checkpoint == "best_validation" and phi_val is not None
    trace = TrainTrace()
    held_out = ((phi_val, y_val, trace.val_loss, trace.val_accuracy),
                (phi_te, y_te, trace.test_loss, trace.test_accuracy))
    best_val = np.inf
    best_cores = None
    objective, outputs = site_loss(cache, cache.cores[0], y_tr, kind,
                                   config.ridge)
    for sweep in range(config.sweeps + 1):
        started = time.perf_counter()
        start_objective = objective
        accepted = trials = 0
        step_sum = optimize_s = move_s = 0.0
        for step in plan if sweep else ():
            tick = time.perf_counter()
            update = optimize_site(cache, cache.cores[cache.center], y_tr,
                                   config, None if classifying else outputs)
            optimize_s += time.perf_counter() - tick
            step_sum += update.step_sum
            accepted += update.accepted
            trials += update.trials
            trace.stalls += update.stalled
            trace.max_monotonicity_violation = max(
                trace.max_monotonicity_violation,
                update.objective - objective - 1e-12)
            cache.cores[cache.center] = update.core
            objective, outputs = update.objective, update.outputs
            tick = time.perf_counter()
            if step:
                (cache.move_right if step > 0 else cache.move_left)()
            move_s += time.perf_counter() - tick

        tick = time.perf_counter()
        trace.sweeps.append(sweep)
        trace.seconds.append(tick - started if sweep else 0.0)
        trace.objective.append(objective)
        if classifying:
            p_true = _true_class_probabilities(outputs, y_tr)[0]
            trace.train_loss.append(_cross_entropy(p_true))
            trace.clamped_rows.append(
                int(np.count_nonzero(p_true < PROB_FLOOR)))
            trace.train_accuracy.append(accuracy(outputs, y_tr))
        else:
            trace.train_loss.append(data_loss(outputs, y_tr, kind))
        trace.cg_accepted.append(accepted)
        trace.mean_step.append(float(step_sum) / accepted if accepted
                               else 0.0)
        trace.ls_trials.append(trials)
        trace.optimize_seconds.append(optimize_s)
        trace.move_seconds.append(move_s)
        model = MPS(cache.cores, label_site=label_site)
        for phi, y, losses, accs in (s for s in held_out if s[0] is not None):
            out = model.evaluate_batch(phi)
            losses.append(data_loss(out, y, kind))
            if classifying:
                accs.append(accuracy(out, y))
        trace.evaluate_seconds.append(
            time.perf_counter() - tick if sweep else 0.0)

        if use_best and trace.val_loss[-1] <= best_val:
            best_val = trace.val_loss[-1]
            trace.best_validation_sweep = sweep
            best_cores = [c.copy() for c in cache.cores]
        if sweep and start_objective - objective < config.sweep_tol:
            break

    return MPS(best_cores or cache.cores, label_site=label_site), trace


def _check_classes(name: str, y, num_classes: int) -> None:
    """ValueError naming ``name`` unless every label of ``y`` (None for an
    absent set) is a class index in [0, num_classes)."""
    if y is None:
        return
    y = np.asarray(y)
    outside = y[(y < 0) | (y >= num_classes)]
    if outside.size:
        raise ValueError(f"{name} holds label {outside[0]}, not a class in "
                         f"[0, {num_classes}) of the chain's label axis")


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
