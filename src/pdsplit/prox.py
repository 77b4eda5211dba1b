"""Proximal maps for penalty conjugates.

The dual update of every solver in this package needs the proximal map of a
penalty conjugate ``h*``.  The penalties are those of the generated
problems: the weighted l1 norm (:class:`BoxClip`, whose conjugate is a box
indicator) and a weighted sum of group Euclidean norms
(:class:`GroupL2Balls`, a product of balls), so the prox is a projection.
The latent group problem pairs the group penalty, in a :class:`Composite`,
with an equality constraint (:class:`IdentityShift`), whose conjugate is
linear, so its prox is a shift.  Each spec also knows the primal value
``h(u)`` for reported objectives.  No run evaluates ``h*`` itself, so no
spec does; its public data (``lam``, ``partition`` and ``radii``, ``shift``,
a composite's ``parts``) describe it.  The primal prox is
``prox_{s h}(z) = z - s * prox_{h*/s}(z / s)`` (the Moreau identity) and
needs no rule of its own.

Every ``prox`` also maps a block, a 2-d array with one dual vector per
column, column by column: a multi-seed run projects all its seeds in one
call, and each column comes out bitwise as the 1-d map of that column.  The
step ``sigma`` of a block is a scalar or a ``(B,)`` row with one step per
column, as a region scan gives every column its own.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateProblem, DimensionError, UnknownKind, _is_real


class GroupPartition:
    """Contiguous partition of a vector into blocks.

    Attributes
    ----------
    sizes : ndarray of int
        Block lengths, all positive.
    offsets : ndarray of int
        Prefix sums; block ``j`` covers ``offsets[j]:offsets[j + 1]``.
    """

    def __init__(self, sizes):
        sizes = np.asarray(sizes, dtype=int)
        if sizes.ndim != 1 or sizes.size == 0:
            raise DegenerateProblem("partition needs at least one block")
        if np.any(sizes <= 0):
            raise DegenerateProblem("partition blocks must be non-empty")
        self.sizes = sizes
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])

    @property
    def n_blocks(self):
        return self.sizes.size

    @property
    def total(self):
        return int(self.offsets[-1])

    def block_norms(self, v):
        """Euclidean norm of every block of ``v``."""
        return np.sqrt(np.add.reduceat(v * v, self.offsets[:-1]))

    def expand(self, per_block):
        """Repeat one value (or row) per block over the block's coordinates."""
        return np.repeat(per_block, self.sizes, axis=0)


def _weight(value, what="penalty weight"):
    """``value`` as a float, once it is a finite nonnegative real number (a
    bool is not): an infinite weight has no finite penalty, not even at
    zero."""
    if not (_is_real(value) and 0 <= value < np.inf):
        raise DegenerateProblem(f"{what} must be a finite nonnegative number, got {value!r}")
    return float(value)


def _per_row(values, v):
    """One value per row of ``v``, shaped to broadcast over its columns."""
    return values.reshape(values.shape + (1,) * (v.ndim - 1))


class ConjugateProx:
    """Base class for penalty-conjugate prox specs: ``h*``'s prox, ``h``'s value.

    Attributes
    ----------
    dim : int
        Length of the dual vectors the spec acts on.
    """

    def __init__(self, dim):
        dim = int(dim)
        if dim <= 0:
            raise DegenerateProblem("prox spec needs a positive dimension")
        self.dim = dim

    def _check(self, v, block=False):
        """``v`` as floats: a ``dim`` vector, or with ``block`` also a column block."""
        v = np.asarray(v, dtype=float)
        if v.ndim not in ((1, 2) if block else (1,)) or v.shape[0] != self.dim:
            raise DimensionError(
                f"expected a vector of length {self.dim}, got shape {v.shape}"
            )
        return v

    def prox(self, v, sigma):
        """Proximal point of ``sigma * h*`` at ``v``.

        ``v`` is a vector or a block with one vector per column; for a
        block, ``sigma`` is a scalar or a ``(B,)`` row, and column ``j`` of
        the result is bitwise the prox of column ``j`` alone at its step.
        """
        raise NotImplementedError

    def primal_value(self, u):
        """Value of the penalty ``h`` at ``u``."""
        raise NotImplementedError


class BoxClip(ConjugateProx):
    """Conjugate of the weighted absolute-value penalty ``lam * sum |u_i|``.

    The conjugate is the indicator of the box ``[-lam, lam]^dim``, so the
    prox is a coordinatewise clip independent of the step.
    """

    def __init__(self, lam, dim):
        super().__init__(dim)
        self.lam = _weight(lam)

    def prox(self, v, sigma):
        v = self._check(v, block=True)
        return np.clip(v, -self.lam, self.lam)

    def primal_value(self, u):
        u = self._check(u)
        return self.lam * float(np.abs(u).sum())


class GroupL2Balls(ConjugateProx):
    """Conjugate of a weighted sum of blockwise Euclidean norms.

    With partition blocks ``u_g`` and weights ``radii[g]`` the penalty is
    ``sum_g radii[g] * ||u_g||_2`` and the conjugate is the indicator of the
    product of Euclidean balls, so the prox projects each block radially.
    Every map works on all blocks at once through the partition's block
    norms.
    """

    def __init__(self, partition, radii):
        if not isinstance(partition, GroupPartition):
            raise DimensionError("group-l2-balls needs a GroupPartition")
        super().__init__(partition.total)
        # An object array keeps each entry's own type: a float array would
        # hide a bool among floats.
        radii = np.broadcast_to(np.asarray(radii, dtype=object), (partition.n_blocks,))
        radii = np.array([_weight(r, "group radii") for r in radii])
        self.partition = partition
        self.radii = radii

    def prox(self, v, sigma):
        v = self._check(v, block=True)
        nrm = self.partition.block_norms(v)
        radii = _per_row(self.radii, nrm)
        over = nrm > radii
        scale = np.ones_like(nrm)
        np.divide(radii, nrm, out=scale, where=over)
        return v * self.partition.expand(scale)

    def primal_value(self, u):
        u = self._check(u)
        return float(self.radii @ self.partition.block_norms(u))


class IdentityShift(ConjugateProx):
    """Conjugate of the equality indicator ``h(u) = 0 if u == shift``.

    The conjugate is linear, ``h*(y) = <shift, y>``, so the prox is the
    shift map ``v - sigma * shift`` (the identity when the shift is zero).
    The penalty value is reported as zero; feasibility of the constraint is
    tracked through the solver residual, not through the objective.
    """

    def __init__(self, dim, shift=None):
        super().__init__(dim)
        if shift is None:
            shift = np.zeros(self.dim)
        self.shift = self._check(shift)

    def prox(self, v, sigma):
        v = self._check(v, block=True)
        return v - sigma * _per_row(self.shift, v)

    def primal_value(self, u):
        self._check(u)
        return 0.0


class Composite(ConjugateProx):
    """Blockwise combination of conjugate-prox specs.

    The dual vector splits into consecutive segments, one per part, and each
    part acts on its own segment.  Values add across parts.
    """

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise DegenerateProblem("composite of zero parts")
        for part in parts:
            if not isinstance(part, ConjugateProx):
                raise UnknownKind("composite parts must be ConjugateProx instances")
        super().__init__(sum(part.dim for part in parts))
        self.parts = parts
        self.offsets = np.concatenate([[0], np.cumsum([p.dim for p in parts])])

    def _segments(self, v):
        for part, lo, hi in zip(self.parts, self.offsets[:-1], self.offsets[1:]):
            yield part, v[lo:hi]

    def prox(self, v, sigma):
        v = self._check(v, block=True)
        return np.concatenate(
            [part.prox(seg, sigma) for part, seg in self._segments(v)]
        )

    def primal_value(self, u):
        u = self._check(u)
        return float(sum(part.primal_value(seg) for part, seg in self._segments(u)))

