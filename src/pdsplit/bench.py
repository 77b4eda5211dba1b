"""Synthetic problem generators, reference solutions, and rate diagnostics.

Four seeded kinds of least-squares instance come from two draws.  One
chained-group design feeds the overlapping group lasso (chained groups
sharing a fixed ten-coordinate overlap), its latent variant, and a plain
lasso for tiny smoke problems; the graph-guided fused lasso draws its own
clustered gene-network design and takes differences over its graph.
Generated problems round-trip through a bundle directory of text artifacts,
high-accuracy solutions come from a warm-started bounded accelerated run
with a plain polishing phase, skipping the accelerated run when the warm
pair already meets its residual certificate, and convergence-rate slopes
are fit on the final decade of a trace.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import accel, fb, linops, saddle, textio
from .errors import (
    ConfigError,
    ConstraintViolation,
    InsufficientData,
    InsufficientInactives,
    ResidualTooLarge,
)
from .errors import _arg, _check_fields, _Domain
from .linops import IdentityOp
from .prox import BoxClip, GroupL2Balls, GroupPartition

# Number of coordinates shared by consecutive groups of the chained design.
OVERLAP = 10

# Relative fixed-point residual that certifies a reference solution.
REFERENCE_TOL = 1e-8
# The domain of a reference solve's step budget.
_BUDGET = _Domain("index", "[2, inf)")

# Correlation between a hub variable and each of its satellite variables in
# the clustered network design.
HUB_CORRELATION = 0.7

BUNDLE_META = "meta.txt"
BUNDLE_DESIGN = "design.txt"
BUNDLE_RESPONSE = "response.txt"
BUNDLE_COUPLING = "coupling.txt"
BUNDLE_SIGNAL = "signal.txt"

# The generator kinds, in the order of the CLI's ``problem`` choices.
GENERATOR_KINDS = (
    "overlapping-group-lasso", "graph-guided-fused-lasso", "latent-group-lasso", "lasso")


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic problem instance.

    At construction an unknown kind raises :class:`~pdsplit.errors.UnknownKind`
    and another field outside its declared domain :class:`ConstraintViolation`
    naming it.  Counts are integers (a bool is not one), positive unless said.

    Attributes
    ----------
    kind : str
        One of ``GENERATOR_KINDS``.
    seed : int
        Counter-based generator seed, nonnegative; the same spec and seed
        reproduce the problem bit for bit on any platform.
    n_samples : int
        Number of observation rows.
    n_groups, group_size : int
        Group count and size, above ``OVERLAP``, of the chained-group designs
        (each group shares ``OVERLAP`` coordinates with its successor).
    subnet_size, n_subnets, n_active : int
        Cluster size, cluster count, and number (0 to ``n_subnets``) of
        signal-carrying clusters of the network design.
    dim : int
        Coordinate count of the plain lasso design.
    lam : float or None
        Penalty weight, a finite nonnegative number (a bool is not one);
        ``None`` selects the kind's default rule (``n_groups / 100`` for the
        group designs, 1 otherwise).
    noise_sd : float or None
        Observation noise level, a finite nonnegative number; ``None``
        selects the kind's default (100 for the network design, 1 otherwise).
    """

    kind: str = _arg(MISSING, "word", words=GENERATOR_KINDS)
    seed: int = _arg(0, "index", "[0, inf)")
    n_samples: int = _arg(200, "index", "[1, inf)")
    n_groups: int = _arg(10, "index", "[1, inf)")
    group_size: int = _arg(20, "index", "[1, inf)")
    subnet_size: int = _arg(5, "index", "[1, inf)")
    n_subnets: int = _arg(40, "index", "[1, inf)")
    n_active: int = _arg(4, "index", "[0, inf)")
    dim: int = _arg(20, "index", "[1, inf)")
    lam: float | None = _arg(None, "real", "[0, inf)")
    noise_sd: float | None = _arg(None, "real", "[0, inf)")

    def __post_init__(self):
        _check_fields(self)
        if self.kind in ("overlapping-group-lasso", "latent-group-lasso"):
            if self.group_size <= OVERLAP:
                raise ConstraintViolation(f"group_size must exceed the overlap {OVERLAP}")
        elif self.kind == "graph-guided-fused-lasso" and self.n_active > self.n_subnets:
            raise ConstraintViolation("n_active must lie between 0 and n_subnets")

    @property
    def primal_dim(self):
        """Coordinate count of the generated design, by closed form."""
        if self.kind in ("overlapping-group-lasso", "latent-group-lasso"):
            return self.n_groups * (self.group_size - OVERLAP) + OVERLAP
        if self.kind == "graph-guided-fused-lasso":
            return self.n_subnets * self.subnet_size
        return self.dim

    @property
    def penalty_weight(self):
        """Resolved penalty weight, applying the kind's default rule."""
        if self.lam is not None:
            return float(self.lam)
        if self.kind in ("overlapping-group-lasso", "latent-group-lasso"):
            return self.n_groups / 100.0
        return 1.0

    @property
    def noise_scale(self):
        """Resolved observation-noise level."""
        if self.noise_sd is not None:
            return float(self.noise_sd)
        return 100.0 if self.kind == "graph-guided-fused-lasso" else 1.0


# Types of the numeric keys of bundle metadata and reference summaries.
_VALUE_TYPES = {f.name: float if f.metadata["domain"].kind == "real" else int
                for f in fields(SyntheticSpec) if f.name != "kind"}
_VALUE_TYPES.update(objective=float, residual_rel=float, n_edges=int, primal_dim=int,
                    dual_dim=int, iterations=int, best_effort=int)


@dataclass
class GeneratedProblem:
    """A generated instance, its data and ground truth; ``meta`` holds its spec's values."""

    problem: saddle.SaddleProblem
    design: np.ndarray
    response: np.ndarray
    signal: np.ndarray
    meta: dict


@dataclass
class ReferenceSolution:
    """High-accuracy solution pair with its certificate."""

    x: np.ndarray
    y: np.ndarray
    objective: float
    method: str
    iterations: int
    residual_rel: float
    best_effort: bool


@dataclass
class RateEstimate:
    """Fitted log-log convergence slope over a trace window."""

    slope: float
    stderr: float
    n_points: int


def _rng(seed):
    return np.random.Generator(np.random.Philox(int(seed)))


def _decaying_signal(p):
    """Alternating-sign signal with a slow exponential decay."""
    j = np.arange(p)
    return (-1.0) ** (j + 1) * np.exp(-j / 100.0)


def overlapping_groups(n_groups, group_size):
    """Chained index groups, each sharing ``OVERLAP`` coordinates.

    Group ``j`` covers ``group_size`` consecutive coordinates starting at
    ``j * (group_size - OVERLAP)``; the total coordinate count is
    ``n_groups * (group_size - OVERLAP) + OVERLAP``.
    """
    step = group_size - OVERLAP
    return [np.arange(j * step, j * step + group_size) for j in range(n_groups)]


def _chained_group_data(spec):
    """Draw the design, response, and ground truth of every kind but the
    network design: the overlapping and latent group designs and the plain
    lasso.

    Draw order: the full design matrix first, then the observation noise.
    """
    p = spec.primal_dim
    rng = _rng(spec.seed)
    a = rng.standard_normal((spec.n_samples, p))
    x_true = _decaying_signal(p)
    b = a @ x_true + spec.noise_scale * rng.standard_normal(spec.n_samples)
    return a, b, x_true


def _assemble(spec, a, b, coupling):
    """The saddle problem of ``spec`` on design ``a``, response ``b`` and
    ``coupling`` (an operator or a matrix): the one assembly of each kind,
    shared by :func:`generate` and :func:`load_bundle`.  The lasso (an
    identity coupling) and the latent kind build their coupling from the
    spec and ignore the one given; the overlapping kind builds its group
    membership when given none.

    The group penalty weighs each group's Euclidean norm by
    ``lam * sqrt(group size)``.  The overlapping coupling stacks the group
    selectors, so every group reads its own copy of the shared overlap; the
    latent kind puts the same groups on the duplicated-variable
    construction, whose primal variable stacks ``x`` with one latent block
    per group."""
    lam, p = spec.penalty_weight, spec.primal_dim
    if spec.kind == "graph-guided-fused-lasso":
        hconj = BoxClip(lam, coupling.shape[0])
    elif spec.kind == "lasso":
        coupling, hconj = IdentityOp(p), BoxClip(lam, p)
    else:
        groups = overlapping_groups(spec.n_groups, spec.group_size)
        radii = lam * np.sqrt([len(g) for g in groups])
        if spec.kind == "latent-group-lasso":
            return saddle.latent_group_construct(groups, a, b, radii)
        if coupling is None:
            coupling = linops.build_group_membership(groups, p)
        hconj = GroupL2Balls(GroupPartition([len(g) for g in groups]), radii)
    return saddle.SaddleProblem(saddle.quadratic_loss(a, b), coupling, hconj)


def _generated(spec, a, b, x_true, coupling=None, **extra_meta):
    """Assemble a generated problem and its metadata."""
    problem = _assemble(spec, a, b, coupling)
    meta = {
        "kind": spec.kind,
        "seed": spec.seed,
        "n_samples": spec.n_samples,
        "lam": spec.penalty_weight,
        "noise_sd": spec.noise_scale,
        "primal_dim": problem.dims[0],
        "dual_dim": problem.dims[1],
    }
    if spec.kind in ("overlapping-group-lasso", "latent-group-lasso"):
        meta["n_groups"] = spec.n_groups
        meta["group_size"] = spec.group_size
    elif spec.kind == "graph-guided-fused-lasso":
        meta["subnet_size"] = spec.subnet_size
        meta["n_subnets"] = spec.n_subnets
        meta["n_active"] = spec.n_active
    else:
        meta["dim"] = spec.dim
    return GeneratedProblem(problem, a, b, x_true, {**meta, **extra_meta})


def gen_graph_guided_fused_lasso(spec):
    """Least-squares problem with differences over a clustered network.

    The design holds ``n_subnets`` clusters of ``subnet_size`` variables: one
    hub drawn standard normal and satellites correlated ``HUB_CORRELATION``
    with it (conditionally independent given the hub).  The ground truth is a
    signed staircase over the first ``n_active`` clusters; the difference
    graph joins every pair inside a cluster and links each signal-carrying
    variable to ``n_subnets - 1`` distinct silent variables.

    Draw order: hub columns, satellite noise, observation noise, then one
    ``rng.choice`` of ``n_subnets - 1`` cross-link targets per signal
    variable, in coordinate order.  The edges are built as one ``(m, 2)``
    array: the pairs of each cluster in row-major order, cluster by cluster,
    then each signal variable's links in the order drawn.

    Raises
    ------
    InsufficientInactives
        If fewer than ``n_subnets - 1`` silent variables exist while
        cross-links are required.
    """
    t_size = spec.subnet_size
    j_count = spec.n_subnets
    j_active = spec.n_active
    n = spec.n_samples
    p = spec.primal_dim
    rng = _rng(spec.seed)

    hub = rng.standard_normal((n, j_count))
    satellite = rng.standard_normal((n, j_count, t_size - 1))
    a = np.empty((n, p))
    blocks = a.reshape(n, j_count, t_size)
    blocks[:, :, 0] = hub
    if t_size > 1:
        satellite *= math.sqrt(1.0 - HUB_CORRELATION**2)
        satellite += HUB_CORRELATION * hub[:, :, None]
        blocks[:, :, 1:] = satellite
    del satellite  # design-sized; freed before the graph is built

    levels = np.zeros(j_count)
    j_idx = np.arange(1, j_active + 1)
    levels[:j_active] = (-1.0) ** (j_idx + 1) * ((j_idx + 1) // 2)
    x_true = np.repeat(levels, t_size)
    b = a @ x_true + spec.noise_scale * rng.standard_normal(n)

    u, v = np.triu_indices(t_size, 1)
    base = np.arange(0, p, t_size)[:, None]
    edges = [np.stack([(base + u).ravel(), (base + v).ravel()], axis=1)]
    n_cross = j_count - 1
    active_count = j_active * t_size
    if j_active > 0 and n_cross > 0:
        silent = np.arange(active_count, p)
        if silent.size < n_cross:
            raise InsufficientInactives(
                f"need {n_cross} distinct silent targets, only {silent.size} exist"
            )
        targets = np.stack(
            [rng.choice(silent, size=n_cross, replace=False) for _ in range(active_count)]
        )
        sources = np.repeat(np.arange(active_count), n_cross)
        edges.append(np.stack([sources, targets.ravel()], axis=1))
    edges = np.concatenate(edges)

    k_op = linops.build_graph_difference(edges, p)
    return _generated(spec, a, b, x_true, k_op, n_edges=len(edges))


def generate(spec):
    """The problem of ``spec``, with its data and ground truth.

    The network kind draws its own clustered data
    (:func:`gen_graph_guided_fused_lasso`); every other kind draws the one
    chained-group design and its response (``_chained_group_data``) and
    assembles its problem on it (``_assemble``).

    Returns
    -------
    GeneratedProblem
    """
    if spec.kind == "graph-guided-fused-lasso":
        return gen_graph_guided_fused_lasso(spec)
    return _generated(spec, *_chained_group_data(spec))


def save_bundle(path, generated):
    """Write a generated problem to a bundle directory.

    The bundle holds the metadata as flat ``key=value`` text, the design and
    coupling matrices in triplet format, and the response and ground-truth
    vectors as one value per line.
    """
    textio.write_keyvalue(os.path.join(path, BUNDLE_META), generated.meta)
    textio.write_triplets(os.path.join(path, BUNDLE_DESIGN), generated.design)
    textio.write_vector(os.path.join(path, BUNDLE_RESPONSE), generated.response)
    coupling = linops.to_sparse(generated.problem.K)
    textio.write_triplets(os.path.join(path, BUNDLE_COUPLING), coupling)
    textio.write_vector(os.path.join(path, BUNDLE_SIGNAL), generated.signal)


def _read_typed(path, required):
    """The entries of a ``key=value`` file, typed by ``_VALUE_TYPES``; each
    key of ``required`` must be present, and no key may repeat."""
    values = {}
    for lineno, key, text in textio.read_keyvalue(path):
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        kind = _VALUE_TYPES.get(key, str)
        try:
            values[key] = kind(text)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: {key}={text!r} is not {kind.__name__}") from None
    for key in required:
        if key not in values:
            raise ConfigError(f"{path} lacks a {key} entry")
    return values


def load_bundle(path):
    """Read a bundle directory back into a :class:`GeneratedProblem`.

    The stored matrices are authoritative and go through the assembly of
    the kind's generator; the latent and lasso couplings, deterministic
    functions of the spec, are reassembled instead of read.  A
    ``primal_dim`` or ``dual_dim`` entry that disagrees with the assembled
    problem raises :class:`ConfigError` naming the file and the key.
    """
    meta_path = os.path.join(path, BUNDLE_META)
    meta = _read_typed(meta_path, ["kind"])
    spec_fields = {f.name for f in fields(SyntheticSpec)}
    spec = SyntheticSpec(**{k: v for k, v in meta.items() if k in spec_fields})
    design = textio.read_triplets(os.path.join(path, BUNDLE_DESIGN)).toarray()
    response = textio.read_vector(os.path.join(path, BUNDLE_RESPONSE))
    signal = textio.read_vector(os.path.join(path, BUNDLE_SIGNAL))
    coupling = textio.read_triplets(os.path.join(path, BUNDLE_COUPLING))
    problem = _assemble(spec, design, response, coupling)
    for key, dim in zip(("primal_dim", "dual_dim"), problem.dims):
        if meta.get(key, dim) != dim:
            raise ConfigError(f"{meta_path}: {key}={meta[key]} disagrees with the "
                              f"stored matrices, which give {dim}")
    return GeneratedProblem(problem, design, response, signal, meta)


def _relative_residual(problem, x, y, tau, sigma):
    resid = saddle.fixed_point_residual(problem, x, y, tau, sigma)
    return resid / (1.0 + float(np.linalg.norm(x)) + float(np.linalg.norm(y)))


def auto_norm_bounds(problem, warm_iters=2000):
    """Iterate-norm bounds for the bounded schedules, from a plain warmup.

    Runs the plain iteration from zero for ``warm_iters`` steps and returns
    ``2 * sqrt(2)`` times each block norm, floored at 1, together with the
    warmup result for warm-starting.
    """
    warm = fb.run_fb(
        problem,
        fb.FbParams(kappa=0.0, max_iters=warm_iters, record_every=warm_iters),
    )
    omega_x = 2.0 * math.sqrt(2.0) * max(1.0, float(np.linalg.norm(warm.x)))
    omega_y = 2.0 * math.sqrt(2.0) * max(1.0, float(np.linalg.norm(warm.y)))
    return omega_x, omega_y, warm


def reference_solve(problem, budget=100000):
    """Compute a high-accuracy solution pair with a residual certificate.

    The certificate is a relative fixed-point residual of at most
    ``REFERENCE_TOL``.  The pipeline warm-starts with a short plain run,
    derives iterate-norm bounds from the warm point, runs the bounded
    accelerated iteration at the block-diagonal continuum position with
    splitting parameters tuned for a ``budget``-step horizon, and then
    polishes with the plain iteration until the certificate holds.  ``budget`` is a cap: the certificate is checked
    on the warm pair, and when it holds there the accelerated phase and the
    polish are skipped and ``method`` is ``"plain"``.  A problem whose
    coupling norm is zero skips straight to the polish (the accelerated dual
    step is undefined there).

    If the certificate cannot be met the best iterate is returned with
    ``best_effort`` set and a :class:`ResidualTooLarge` warning.

    Returns
    -------
    ReferenceSolution
        ``iterations`` counts the steps the phases actually took.

    Raises
    ------
    ConstraintViolation
        If ``budget`` is not an integer of at least 2.
    """
    budget = int(_BUDGET.check("reference budget", budget))
    tol = REFERENCE_TOL
    p, l = problem.dims
    zero_coupling = problem.k_norm == 0.0
    if zero_coupling:
        if problem.L_f <= 0:
            raise ConstraintViolation(
                "a zero-coupling problem needs a positive curvature bound"
            )
        tau = fb.RECIPE_FACTOR * 2.0 / problem.L_f
        sigma = 1.0
    else:
        tau, sigma = fb.default_step_sizes(problem, 0.0)

    iterations = 0
    if zero_coupling:
        x = np.zeros(p)
        y = np.zeros(l)
    else:
        warm_iters = max(10, min(2000, budget // 10))
        omega_x, omega_y, warm = auto_norm_bounds(problem, warm_iters)
        iterations += warm.iterations
        x, y = warm.x, warm.y
    method = "plain"
    residual_rel = _relative_residual(problem, x, y, tau, sigma)
    if not zero_coupling and residual_rel > tol:
        factors = accel.mode_factors("kappa", 0.0)
        q, r = accel.tune_qr(
            "bounded",
            problem.L_f,
            problem.k_norm,
            factors,
            budget,
            omega_x=omega_x,
            omega_y=omega_y,
        )
        params = accel.AccelParams(
            mode="kappa",
            kappa=0.0,
            setting="bounded",
            omega_x=omega_x,
            omega_y=omega_y,
            q=q,
            r=r,
            max_iters=budget,
            record_every=budget,
        )
        acc = accel.run_accel(problem, params, x0=x, y0=y)
        iterations += acc.iterations
        x, y = acc.x, acc.y
        method = "accel-bounded-polish"
        residual_rel = _relative_residual(problem, x, y, tau, sigma)

    shrink = 0.3
    for _ in range(5):
        if residual_rel <= tol:
            break
        step_tol = shrink * tol * (1.0 + float(np.linalg.norm(x)) + float(np.linalg.norm(y)))
        pol = fb.run_fb(
            problem,
            fb.FbParams(
                kappa=0.0, tau=tau, sigma=sigma, max_iters=budget, record_every=budget
            ),
            x0=x,
            y0=y,
            tol=step_tol,
        )
        iterations += pol.iterations
        x, y = pol.x, pol.y
        residual_rel = _relative_residual(problem, x, y, tau, sigma)
        if pol.converged:
            shrink *= 0.1

    best_effort = residual_rel > tol
    if best_effort:
        warnings.warn(
            f"reference solve stopped at relative residual {residual_rel:.3g} "
            f"(target {tol:.3g})",
            ResidualTooLarge,
        )
    return ReferenceSolution(
        x=x,
        y=y,
        objective=saddle.primal_objective(problem, x),
        method=method,
        iterations=iterations,
        residual_rel=residual_rel,
        best_effort=best_effort,
    )


REFERENCE_SUMMARY = "reference.txt"
REFERENCE_X = "solution_x.txt"
REFERENCE_Y = "solution_y.txt"


def save_reference(path, ref):
    """Write a reference solution to a directory of text artifacts."""
    textio.write_vector(os.path.join(path, REFERENCE_X), ref.x)
    textio.write_vector(os.path.join(path, REFERENCE_Y), ref.y)
    summary = dict(objective=f"{ref.objective:.17g}", method=ref.method,
                   iterations=ref.iterations, residual_rel=f"{ref.residual_rel:.17g}",
                   best_effort=int(ref.best_effort))
    textio.write_keyvalue(os.path.join(path, REFERENCE_SUMMARY), summary)


def load_reference(path):
    """Read a reference solution written by :func:`save_reference`."""
    summary = _read_typed(os.path.join(path, REFERENCE_SUMMARY), [
        "objective", "method", "iterations", "residual_rel", "best_effort"])
    return ReferenceSolution(
        x=textio.read_vector(os.path.join(path, REFERENCE_X)),
        y=textio.read_vector(os.path.join(path, REFERENCE_Y)),
        objective=summary["objective"],
        method=summary["method"],
        iterations=summary["iterations"],
        residual_rel=summary["residual_rel"],
        best_effort=bool(summary["best_effort"]),
    )


def rate_slope(trace, f_star):
    """Least-squares slope of log gap against log k on the final decade.

    Reads the trace's ``ergodic_objective`` column and keeps rows with
    ``k`` in the last decade (at or above a tenth of the largest recorded
    index) whose gap to ``f_star`` sits above the rounding floor
    ``100 * eps * |f_star|``, then fits a line to log gap over log k.

    Returns
    -------
    RateEstimate

    Raises
    ------
    InsufficientData
        If fewer than 10 usable points remain.
    """
    ks = trace.column("k")
    vals = trace.column("ergodic_objective")
    if ks.size == 0:
        raise InsufficientData("trace is empty")
    window = ks >= ks.max() / 10.0
    gap = vals - float(f_star)
    floor = 100.0 * np.finfo(float).eps * abs(float(f_star))
    keep = window & (gap > floor)
    kept = int(keep.sum())
    if kept < 10:
        raise InsufficientData(
            f"only {kept} usable points in the final decade (need 10)"
        )
    t = np.log(ks[keep])
    g = np.log(gap[keep])
    dt = t - t.mean()
    denom = float(dt @ dt)
    if denom == 0.0:
        raise InsufficientData("the window has no spread in k")
    slope = float(dt @ (g - g.mean())) / denom
    resid = g - g.mean() - slope * dt
    dof = max(t.size - 2, 1)
    stderr = math.sqrt(float(resid @ resid) / dof / denom)
    return RateEstimate(slope=slope, stderr=stderr, n_points=int(t.size))
