"""The joint smooth coupling term and its per-block smoothness certificate.

The solvers majorize this term by its linearization at the phase anchor plus
``0.5 * eta_i ||x_i - y_i||^2`` per block, with ``eta_i`` read from
``SmoothQuadCoupling.cert``; that majorant is part of the block model that
``solvers.assemble_block`` builds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .blockspace import BlockVector, WeightMatrix

__all__ = ["SmoothQuadCoupling"]


class SmoothQuadCoupling:
    """Smooth joint term ``(w/2) ||sum_i B_i x_i - c||^2`` across blocks.

    Used by objectives whose coupling lives in the objective rather than the
    constraints. The per-block smoothness certificate is
    ``w * k * ||B_i||_2^2 I`` with ``k`` the number of participating blocks.
    """

    def __init__(self, weight: float, ops: Sequence, offset: np.ndarray):
        if weight <= 0:
            raise ValueError("coupling weight must be positive")
        self.weight = float(weight)
        self.ops = tuple(ops)
        self.offset = np.asarray(offset, dtype=float)
        self.support = tuple(i for i, op in enumerate(self.ops) if op is not None)
        k = len(self.support)
        self.cert = tuple(
            WeightMatrix.scaled_identity(self.weight * k * op.op_norm_sq)
            if op is not None
            else WeightMatrix.zero()
            for op in self.ops
        )

    def residual(self, x: BlockVector) -> np.ndarray:
        out = -self.offset.copy()
        for i in self.support:
            out += self.ops[i].apply(x[i])
        return out

    def value(self, x: BlockVector) -> float:
        r = self.residual(x)
        return 0.5 * self.weight * float(np.vdot(r, r))

    def grad(self, x: BlockVector) -> BlockVector:
        r = self.residual(x)
        return BlockVector(
            [
                self.weight * self.ops[i].adjoint(r)
                if i in self.support
                else np.zeros(x[i].shape)
                for i in range(len(self.ops))
            ]
        )
