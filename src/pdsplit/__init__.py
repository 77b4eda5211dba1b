"""Primal-dual splitting solvers for composite problems ``f(x) + h(Kx)``.

The package is organized around :class:`~pdsplit.saddle.SaddleProblem`, which
bundles a least-squares loss ``f(x) = 0.5 * ||A x - b||^2`` that carries its
design operator ``A``, a coupling operator ``K``, and the conjugate prox of
the penalty.  Solvers act on that container:

- :func:`~pdsplit.fb.run_fb` runs the relaxed preconditioned iteration whose
  position on the continuum is set by ``kappa`` in ``[-1, 1]``.
- :func:`~pdsplit.fb.run_fbf` runs the inertial forward-backward-forward
  benchmark method.
- :func:`~pdsplit.accel.run_accel` runs the accelerated variants with bounded
  or unbounded step-size schedules.
- :func:`~pdsplit.stoch.run_stoc` runs the stochastic accelerated variants on
  sampled oracles over one or more seeds.
- :func:`~pdsplit.shard.run_fb_sharded` runs the plain iteration, bitwise,
  on a layout of feature shards, with a ledger of the entries each step's
  products would move between workers.

All five runners share one iteration loop, the private driver in
:mod:`pdsplit.fb`; each supplies only its step and its trace columns, and a
run's result is a :class:`~pdsplit.fb.RunResult` with its own fields.  The
paper's guarantees that no run reports (Fejér monotonicity in the
preconditioner's metric, the perturbation envelope of unbounded
accelerated runs, the Moreau split behind the conjugate prox) are checked
by the test suite against its own oracles.

:mod:`pdsplit.bench` generates test problems, stores them as bundles, and
computes reference solutions and empirical rate slopes.  The ``pdsplit``
console script (:mod:`pdsplit.cli`) drives all of it from flat config files.
"""

from .accel import (
    AccelParams,
    AccelResult,
    Schedule,
    bounded_gap_bound,
    build_schedule,
    mode_coefficients,
    mode_factors,
    run_accel,
    tune_qr,
)
from .bench import (
    GeneratedProblem,
    RateEstimate,
    ReferenceSolution,
    SyntheticSpec,
    auto_norm_bounds,
    generate,
    load_bundle,
    load_reference,
    rate_slope,
    reference_solve,
    save_bundle,
    save_reference,
)
from .errors import (
    ConfigError,
    ConstraintViolation,
    DegenerateProblem,
    DimensionError,
    InsufficientData,
    InsufficientInactives,
    NonFiniteIterate,
    ResidualTooLarge,
    SolverError,
    UnknownKind,
    UnsupportedMode,
)
from .fb import (
    FbParams,
    FbResult,
    IterTrace,
    RunResult,
    convergence_region,
    default_step_sizes,
    fb_step,
    relaxation_cap,
    run_fb,
    run_fbf,
    validate_params,
)
from .linops import (
    DenseOp,
    HStackOp,
    IdentityOp,
    LinearOperator,
    SparseOp,
    ZeroOp,
    build_graph_difference,
    build_group_membership,
    matrix_operator,
    op_norm,
)
from .prox import (
    BoxClip,
    Composite,
    GroupL2Balls,
    IdentityShift,
)
from .saddle import (
    SaddleProblem,
    SmoothLoss,
    fixed_point_residual,
    latent_group_construct,
    primal_objective,
    quadratic_loss,
)
from .shard import (
    ShardPlan,
    ShardResult,
    partition_problem,
    run_fb_sharded,
)
from .stoch import (
    MaskedGradOracle,
    StocParams,
    StocResult,
    StochasticOracle,
    masked_oracle_factory,
    run_stoc,
)

__version__ = "0.1.0"

__all__ = [
    "AccelParams",
    "AccelResult",
    "BoxClip",
    "Composite",
    "ConfigError",
    "ConstraintViolation",
    "DegenerateProblem",
    "DenseOp",
    "DimensionError",
    "FbParams",
    "FbResult",
    "GeneratedProblem",
    "GroupL2Balls",
    "HStackOp",
    "IdentityOp",
    "IdentityShift",
    "InsufficientData",
    "InsufficientInactives",
    "IterTrace",
    "LinearOperator",
    "MaskedGradOracle",
    "NonFiniteIterate",
    "RateEstimate",
    "ReferenceSolution",
    "ResidualTooLarge",
    "RunResult",
    "SaddleProblem",
    "Schedule",
    "ShardPlan",
    "ShardResult",
    "SmoothLoss",
    "SolverError",
    "SparseOp",
    "StocParams",
    "StocResult",
    "StochasticOracle",
    "SyntheticSpec",
    "UnknownKind",
    "UnsupportedMode",
    "ZeroOp",
    "auto_norm_bounds",
    "bounded_gap_bound",
    "build_graph_difference",
    "build_group_membership",
    "build_schedule",
    "convergence_region",
    "default_step_sizes",
    "fb_step",
    "fixed_point_residual",
    "generate",
    "latent_group_construct",
    "load_bundle",
    "load_reference",
    "masked_oracle_factory",
    "matrix_operator",
    "mode_coefficients",
    "mode_factors",
    "op_norm",
    "partition_problem",
    "primal_objective",
    "quadratic_loss",
    "rate_slope",
    "reference_solve",
    "relaxation_cap",
    "run_accel",
    "run_fb",
    "run_fb_sharded",
    "run_fbf",
    "run_stoc",
    "save_bundle",
    "save_reference",
    "tune_qr",
    "validate_params",
]
