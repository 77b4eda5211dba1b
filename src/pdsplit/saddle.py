"""Smooth-plus-composite problems in saddle form.

A problem ``min_x f(x) + h(Kx)`` is handled through its saddle formulation
``min_x max_y f(x) + <Kx, y> - h*(y)``.  The smooth part is a loss on a
linear model, ``f(x) = phi(A x)``: a :class:`SmoothLoss` carries its design
operator ``A`` next to ``phi``, its gradient and the curvature bound, so
whatever needs the design (a sharded run sizing its traffic) reads it from
the loss.  A :class:`SaddleProblem` is exactly the loss, the
coupling operator ``K`` and the conjugate-prox spec of the penalty.  The
loss is least squares, :func:`quadratic_loss`, and
:func:`latent_group_construct` builds the latent group problem on it.

The design image ``A x`` is what both the loss value and its gradient read.
``SmoothLoss.value``, ``SmoothLoss.grad`` and :func:`primal_objective` take
it as an optional ``ax``: a caller that already holds ``A x`` (the
forward-backward runners compute it once per iterate) passes it in, and
the design product is then skipped.

``SmoothLoss.grad`` also maps a block of points, one per column, to the
block of their gradients: the design products and ``phi_grad`` of every
loss here act column by column.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import linops
from .errors import DegenerateProblem, DimensionError
from .linops import HStackOp, LinearOperator, ZeroOp, matrix_operator
from .prox import (
    Composite,
    ConjugateProx,
    GroupL2Balls,
    GroupPartition,
    IdentityShift,
    _per_row,
)

class SmoothLoss:
    """Smooth convex loss ``f(x) = phi(A x)`` with an explicit curvature bound.

    Attributes
    ----------
    A : LinearOperator
        Design operator of the linear model.
    phi, phi_grad : callable
        Outer function on the row space of ``A`` and its gradient;
        ``phi_grad`` maps a block of images, one per column, columnwise.
    L_f : float
        Lipschitz constant of the gradient of ``f`` (0 for a vanishing loss).
    """

    def __init__(self, design, phi, phi_grad, lipschitz):
        self.A = design
        self.phi = phi
        self.phi_grad = phi_grad
        self.L_f = float(lipschitz)

    def value(self, x, ax=None):
        """``phi(A x)``; a supplied ``ax`` must equal ``A x``."""
        return self.phi(self.A.apply(x) if ax is None else ax)

    def grad(self, x, ax=None):
        """``A' phi_grad(A x)``; a supplied ``ax`` must equal ``A x``."""
        return self.A.apply_adjoint(self.phi_grad(self.A.apply(x) if ax is None else ax))

    def on(self, design):
        """The same loss read through another operator for the same matrix.

        ``L_f`` is kept as it is, so ``design`` must have the spectral norm
        of ``A``, as ``A`` padded with zero columns has.
        """
        return SmoothLoss(design, self.phi, self.phi_grad, self.L_f)


def quadratic_loss(a, b):
    """Least-squares loss ``f(x) = 0.5 * ||A x - b||^2``.

    The curvature bound is the squared spectral norm of ``A`` with the
    iterative-estimate safety factor applied.

    Parameters
    ----------
    a : LinearOperator or matrix
    b : ndarray
        Response vector matching the rows of ``a``.

    Returns
    -------
    SmoothLoss

    Raises
    ------
    DegenerateProblem
        If ``0.5 * ||b||^2``, the loss at zero, is not finite.
    """
    a_op = a if isinstance(a, LinearOperator) else matrix_operator(a)
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.shape[0] != a_op.shape[0]:
        raise DimensionError(f"response length {b.shape} does not match {a_op.shape[0]} rows")
    with np.errstate(over="ignore"):
        half = 0.5 * float(b @ b)
    if not np.isfinite(half):
        raise DegenerateProblem(f"the loss at zero, 0.5 * ||b||^2, is {half}: "
                                "the response is not finite or too large")

    def phi(t):
        r = t - b
        return 0.5 * float(r @ r)

    def phi_grad(t):
        return t - _per_row(b, t)

    return SmoothLoss(a_op, phi, phi_grad, linops.safe_op_norm(a_op) ** 2)


class SaddleProblem:
    """Problem bundle for ``min_x f(x) + h(Kx)``.

    Attributes
    ----------
    loss : SmoothLoss
        Smooth part ``f(x) = phi(A x)``.
    K : LinearOperator
        Coupling operator from primal to dual space.
    hconj : ConjugateProx
        Prox spec of the penalty conjugate ``h*``.
    dims : tuple of int
        ``(primal dimension, dual dimension)``.
    """

    def __init__(self, loss, k_op, hconj):
        if not isinstance(k_op, LinearOperator):
            k_op = matrix_operator(k_op)
        if not isinstance(hconj, ConjugateProx):
            raise DimensionError("hconj must be a ConjugateProx spec")
        if hconj.dim != k_op.shape[0]:
            raise DimensionError(
                f"penalty dimension {hconj.dim} does not match operator rows {k_op.shape[0]}"
            )
        if loss.A.shape[1] != k_op.shape[1]:
            raise DimensionError(
                f"design columns {loss.A.shape[1]} do not match operator columns "
                f"{k_op.shape[1]}"
            )
        self.loss = loss
        self.K = k_op
        self.hconj = hconj
        self.dims = (k_op.shape[1], k_op.shape[0])
        self._k_norm = None

    @property
    def L_f(self):
        return self.loss.L_f

    @property
    def k_norm(self):
        """Safety-inflated spectral norm of the coupling operator, cached."""
        if self._k_norm is None:
            self._k_norm = linops.safe_op_norm(self.K)
        return self._k_norm


def primal_objective(problem, x, ax=None):
    """Objective ``f(x) + h(Kx)``; a supplied ``ax`` must equal ``A x``."""
    x = np.asarray(x, dtype=float)
    return float(problem.loss.value(x, ax)) + float(
        problem.hconj.primal_value(problem.K.apply(x))
    )


def fixed_point_residual(problem, x, y, tau, sigma):
    """Norm of the displacement of one plain primal-dual update.

    Computes ``x - x_next`` and ``y - y_next`` for the unpreconditioned
    update (gradient step on the primal, conjugate prox on the dual, both
    from the current point) and returns the combined Euclidean norm.  Zero
    exactly at saddle points for any positive step sizes.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    gx = problem.loss.grad(x) + problem.K.apply_adjoint(y)
    ry = y - problem.hconj.prox(y + sigma * problem.K.apply(x), sigma)
    return float(np.sqrt(tau * tau * float(gx @ gx) + float(ry @ ry)))


def latent_group_construct(groups, a, b, radii):
    """Build the latent (duplicated-variable) group problem.

    The latent penalty picks the cheapest split of ``x`` into group-supported
    parts.  Introducing one latent block per group and an equality constraint
    tying their scatter-sum back to ``x`` turns the least-squares model into
    a saddle problem on the stacked variable ``(x, v)``:

    * the first dual block reads ``v`` and applies the blockwise norm
      penalty with the given radii,
    * the second dual block reads ``x - scatter(v)`` and enforces equality
      through a linear conjugate (the reported penalty value of that block
      is zero; constraint violation shows up in the solver residual).

    The loss reads only ``x``: its design is ``A`` padded with one zero
    column per latent coordinate.

    Parameters
    ----------
    groups : sequence of sequences of int
        0-based coordinate indices of each group.
    a : LinearOperator or matrix
        Design matrix of the least-squares loss on ``x``.
    b : ndarray
        Observation vector.
    radii : ndarray or float
        Blockwise penalty weights, one per group (scalars broadcast).

    Returns
    -------
    SaddleProblem
        Problem on the stacked variable of length ``p + sum of group sizes``.
    """
    a_op = a if isinstance(a, LinearOperator) else matrix_operator(a)
    loss = quadratic_loss(a_op, b)
    n, p = a_op.shape
    member = linops.build_group_membership(groups, p)
    d_mat = linops.to_sparse(member)
    q = member.shape[0]
    k_mat = sp.bmat(
        [
            [sp.csr_array((q, p)), sp.eye(q)],
            [sp.eye(p), -d_mat.T],
        ],
        format="csr",
    )
    partition = GroupPartition([len(g) for g in groups])
    hconj = Composite([GroupL2Balls(partition, radii), IdentityShift(p)])
    stacked = loss.on(HStackOp([a_op, ZeroOp((n, q))]))
    return SaddleProblem(stacked, matrix_operator(k_mat), hconj)
