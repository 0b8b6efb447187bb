"""Block-structured vectors and abstract linear operators.

The constraint of every problem in this package has the form
``sum_i A_i x_i = b`` where each block ``x_i`` is a dense vector or matrix
and each ``A_i`` is a linear map into a shared constraint space. Operators
are abstract (dense matrix, scaled identity, left/right matrix multiply,
entry mask, negation, zero, stacked rows) so that adjoints, certified
operator norms, and Gram structure are available without materializing
matrices unless a solve path genuinely needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "BlockVector",
    "BlockOperator",
    "DenseMatrixOp",
    "ScaledIdentityOp",
    "LeftMultiplyOp",
    "RightMultiplyOp",
    "MaskProjectionOp",
    "NegationOp",
    "ZeroOp",
    "StackedOp",
    "RowGroup",
    "BlockOperatorFamily",
    "WeightMatrix",
    "NormEstimate",
    "DimensionError",
    "InvalidWeightError",
    "StructureError",
    "residual",
    "estimate_op_norm_sq",
    "gram_cross_is_zero",
    "combined_op_norm_sq",
    "stack_rows",
    "detect_row_groups",
    "dense_matrix",
]

# Relative inflation applied to every norm certificate so that the exact
# inequality ||A v||^2 <= cert * ||v||^2 survives floating-point rounding.
_CERT_GUARD = 1.0 + 1e-12


class DimensionError(ValueError):
    """Raised when block or constraint-space shapes are incompatible."""


class InvalidWeightError(ValueError):
    """Raised when a weight matrix is evaluated outside its PSD domain."""


class StructureError(ValueError):
    """Raised when declared row-group structure is inconsistent."""


# ---------------------------------------------------------------------------
# Block vectors
# ---------------------------------------------------------------------------


class BlockVector:
    """Ordered list of dense blocks forming one primal variable.

    Parameters
    ----------
    blocks : sequence of ndarray
        Per-block arrays, vector- or matrix-shaped. Arrays are stored as
        float64 and treated as immutable; arithmetic returns new instances.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: Sequence[np.ndarray]):
        if len(blocks) < 1:
            raise DimensionError("a BlockVector needs at least one block")
        self.blocks = tuple(np.asarray(blk, dtype=float) for blk in blocks)

    @classmethod
    def zeros(cls, shapes: Sequence[tuple]) -> "BlockVector":
        return cls([np.zeros(s) for s in shapes])

    @property
    def n(self) -> int:
        return len(self.blocks)

    @property
    def shapes(self) -> tuple:
        return tuple(blk.shape for blk in self.blocks)

    def copy(self) -> "BlockVector":
        return BlockVector([blk.copy() for blk in self.blocks])

    def replace(self, i: int, value: np.ndarray) -> "BlockVector":
        """Return a copy with block ``i`` replaced (shape-checked)."""
        value = np.asarray(value, dtype=float)
        if value.shape != self.blocks[i].shape:
            raise DimensionError(
                f"block {i} has shape {self.blocks[i].shape}, got {value.shape}"
            )
        blocks = list(self.blocks)
        blocks[i] = value
        return BlockVector(blocks)

    def _check_same_shape(self, other: "BlockVector") -> None:
        if self.shapes != other.shapes:
            raise DimensionError(
                f"mismatched block shapes {self.shapes} vs {other.shapes}"
            )

    def __getitem__(self, i: int) -> np.ndarray:
        return self.blocks[i]

    def __add__(self, other: "BlockVector") -> "BlockVector":
        self._check_same_shape(other)
        return BlockVector([a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "BlockVector") -> "BlockVector":
        self._check_same_shape(other)
        return BlockVector([a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, scalar: float) -> "BlockVector":
        return BlockVector([scalar * blk for blk in self.blocks])

    __rmul__ = __mul__

    def dot(self, other: "BlockVector") -> float:
        self._check_same_shape(other)
        return float(
            sum(np.vdot(a, b) for a, b in zip(self.blocks, other.blocks))
        )

    def norm_sq(self) -> float:
        return float(sum(np.vdot(blk, blk) for blk in self.blocks))

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def block_norms(self) -> tuple:
        return tuple(float(np.linalg.norm(blk)) for blk in self.blocks)

    def __repr__(self) -> str:
        return f"BlockVector(shapes={self.shapes})"


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


class NormEstimate(NamedTuple):
    """Certified upper bound on a squared operator norm."""

    value: float
    converged: bool


class BlockOperator:
    """Linear map from one block into the constraint space.

    Subclasses provide ``apply``, ``adjoint``, an exact or certified
    ``op_norm_sq`` upper bound, an ``in_shape``/``out_shape`` pair, and a
    ``kind`` tag. ``gram_rep`` exposes the structure of ``A^T A`` for exact
    subproblem solves when one is available.
    """

    kind: str = "abstract"

    def __init__(self, in_shape: tuple, out_shape: tuple):
        self.in_shape = tuple(in_shape)
        self.out_shape = tuple(out_shape)
        self._norm_sq: Optional[float] = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _compute_norm_sq(self) -> float:
        raise NotImplementedError

    @property
    def op_norm_sq(self) -> float:
        if self._norm_sq is None:
            self._norm_sq = self._compute_norm_sq()
        return self._norm_sq

    def gram_rep(self):
        """Structure of ``A^T A`` as one of
        ``("scalar", c)``, ``("diag", D)``, ``("left", M)``, ``("right", M)``,
        ``("dense", M)``, or ``None`` when no exact form is available.
        ``left``/``right`` act on matrix blocks as ``M @ V`` / ``V @ M``.
        """
        return None

    def gram_apply(self, v: np.ndarray) -> np.ndarray:
        """Return ``A^T A v`` without materializing the Gram matrix."""
        return self.adjoint(self.apply(v))

    def _check_in(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != self.in_shape:
            raise DimensionError(
                f"{self.kind} operator expects input {self.in_shape}, got {v.shape}"
            )
        return v

    def _check_out(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != self.out_shape:
            raise DimensionError(
                f"{self.kind} operator expects output-space {self.out_shape}, "
                f"got {u.shape}"
            )
        return u


class DenseMatrixOp(BlockOperator):
    """Dense matrix acting on a vector block: ``v -> M v``."""

    kind = "dense-matrix"

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise DimensionError("dense operator needs a 2-d matrix")
        super().__init__((matrix.shape[1],), (matrix.shape[0],))
        self.matrix = matrix

    def apply(self, v):
        return self.matrix @ self._check_in(v)

    def adjoint(self, u):
        return self.matrix.T @ self._check_out(u)

    def _compute_norm_sq(self):
        # Power-iteration certificate; the dense SVD is kept as an
        # independent oracle in the tests rather than fused here.
        return estimate_op_norm_sq(self).value

    def gram_rep(self):
        return ("dense", self.matrix.T @ self.matrix)

    def trace_gram(self) -> float:
        return float(np.sum(self.matrix * self.matrix))


class ScaledIdentityOp(BlockOperator):
    """``v -> c * v`` on a block of any shape."""

    kind = "identity-scaled"

    def __init__(self, scale: float, shape: tuple):
        super().__init__(shape, shape)
        self.scale = float(scale)

    def apply(self, v):
        return self.scale * self._check_in(v)

    def adjoint(self, u):
        return self.scale * self._check_out(u)

    def _compute_norm_sq(self):
        # The guard absorbs the rounding of (c*v)^2 versus c^2 * v^2, keeping
        # the certificate inequality exact in floating point.
        return self.scale * self.scale * _CERT_GUARD

    def gram_rep(self):
        return ("scalar", self.scale * self.scale)

    def trace_gram(self) -> float:
        return self.scale * self.scale * _size(self.in_shape)


class LeftMultiplyOp(BlockOperator):
    """``V -> M V`` on a matrix block (shared left factor)."""

    kind = "left-multiply"

    def __init__(self, factor: np.ndarray, in_shape: tuple):
        factor = np.asarray(factor, dtype=float)
        if factor.ndim != 2 or len(in_shape) != 2:
            raise DimensionError("left-multiply needs 2-d factor and block")
        if factor.shape[1] != in_shape[0]:
            raise DimensionError("left factor columns must match block rows")
        super().__init__(tuple(in_shape), (factor.shape[0], in_shape[1]))
        self.factor = factor

    def apply(self, v):
        return self.factor @ self._check_in(v)

    def adjoint(self, u):
        return self.factor.T @ self._check_out(u)

    def _compute_norm_sq(self):
        return _spectral_norm_sq(self.factor)

    def gram_rep(self):
        return ("left", self.factor.T @ self.factor)

    def trace_gram(self) -> float:
        return float(np.sum(self.factor * self.factor)) * self.in_shape[1]


class RightMultiplyOp(BlockOperator):
    """``V -> V M`` on a matrix block (shared right factor)."""

    kind = "right-multiply"

    def __init__(self, factor: np.ndarray, in_shape: tuple):
        factor = np.asarray(factor, dtype=float)
        if factor.ndim != 2 or len(in_shape) != 2:
            raise DimensionError("right-multiply needs 2-d factor and block")
        if factor.shape[0] != in_shape[1]:
            raise DimensionError("right factor rows must match block columns")
        super().__init__(tuple(in_shape), (in_shape[0], factor.shape[1]))
        self.factor = factor

    def apply(self, v):
        return self._check_in(v) @ self.factor

    def adjoint(self, u):
        return self._check_out(u) @ self.factor.T

    def _compute_norm_sq(self):
        return _spectral_norm_sq(self.factor)

    def gram_rep(self):
        return ("right", self.factor @ self.factor.T)

    def trace_gram(self) -> float:
        return float(np.sum(self.factor * self.factor)) * self.in_shape[0]


class MaskProjectionOp(BlockOperator):
    """Entry mask: keeps entries inside the index set, zeros the rest."""

    kind = "mask-projection"

    def __init__(self, mask: np.ndarray):
        mask = np.asarray(mask)
        super().__init__(mask.shape, mask.shape)
        self.mask = mask.astype(float)

    def apply(self, v):
        return self.mask * self._check_in(v)

    def adjoint(self, u):
        return self.mask * self._check_out(u)

    def _compute_norm_sq(self):
        return 1.0 if np.any(self.mask != 0.0) else 0.0

    def gram_rep(self):
        return ("diag", self.mask.copy())

    def trace_gram(self) -> float:
        return float(np.sum(self.mask))


class NegationOp(BlockOperator):
    """``v -> -(inner v)``; Gram structure matches the inner operator."""

    kind = "negation"

    def __init__(self, inner: BlockOperator):
        super().__init__(inner.in_shape, inner.out_shape)
        self.inner = inner

    def apply(self, v):
        return -self.inner.apply(v)

    def adjoint(self, u):
        return -self.inner.adjoint(u)

    def _compute_norm_sq(self):
        return self.inner.op_norm_sq

    def gram_rep(self):
        return self.inner.gram_rep()

    def trace_gram(self) -> float:
        return self.inner.trace_gram()


class ZeroOp(BlockOperator):
    """Maps every input to zero."""

    kind = "zero"

    def __init__(self, in_shape: tuple, out_shape: tuple):
        super().__init__(in_shape, out_shape)

    def apply(self, v):
        self._check_in(v)
        return np.zeros(self.out_shape)

    def adjoint(self, u):
        self._check_out(u)
        return np.zeros(self.in_shape)

    def _compute_norm_sq(self):
        return 0.0

    def gram_rep(self):
        return ("scalar", 0.0)

    def trace_gram(self) -> float:
        return 0.0


class StackedOp(BlockOperator):
    """One block's action across several stacked constraint rows.

    The stacked constraint space is the concatenation of the flattened row
    spaces; rows where the block does not appear are skipped. The norm
    certificate is the sum of the member certificates, which upper-bounds
    the stacked spectral norm.
    """

    kind = "stacked"

    def __init__(self, pieces: Sequence[tuple], total_len: int, in_shape: tuple):
        # pieces: (offset, row_out_shape, op or None), one per constraint row
        super().__init__(tuple(in_shape), (int(total_len),))
        self.pieces = tuple(
            (int(off), tuple(shape), op) for off, shape, op in pieces
        )
        for off, shape, op in self.pieces:
            if op is not None and op.out_shape != shape:
                raise DimensionError("stacked piece shape mismatch")
            if op is not None and op.in_shape != self.in_shape:
                raise DimensionError("stacked piece input-shape mismatch")

    def apply(self, v):
        v = self._check_in(v)
        out = np.zeros(self.out_shape)
        for off, shape, op in self.pieces:
            if op is not None:
                out[off : off + _size(shape)] = op.apply(v).ravel()
        return out

    def adjoint(self, u):
        u = self._check_out(u)
        acc = np.zeros(self.in_shape)
        for off, shape, op in self.pieces:
            if op is not None:
                acc += op.adjoint(u[off : off + _size(shape)].reshape(shape))
        return acc

    def _compute_norm_sq(self):
        return sum(op.op_norm_sq for _, _, op in self.pieces if op is not None)

    def active_spans(self) -> tuple:
        return tuple(
            (off, off + _size(shape))
            for off, shape, op in self.pieces
            if op is not None
        )

    def gram_rep(self):
        # The stacked Gram is the sum of member Grams; combine when the
        # members share a compatible structure.
        reps = [op.gram_rep() for _, _, op in self.pieces if op is not None]
        if any(rep is None for rep in reps):
            return None
        scalar = 0.0
        diag = None
        sided: dict = {}
        dense = None
        for tag, payload in reps:
            if tag == "scalar":
                scalar += payload
            elif tag == "diag":
                diag = payload if diag is None else diag + payload
            elif tag in ("left", "right"):
                sided[tag] = payload if tag not in sided else sided[tag] + payload
            elif tag == "dense":
                dense = payload if dense is None else dense + payload
        kinds = [
            name
            for name, present in (
                ("diag", diag is not None),
                ("left", "left" in sided),
                ("right", "right" in sided),
                ("dense", dense is not None),
            )
            if present
        ]
        if len(kinds) > 1:
            return None
        if not kinds:
            return ("scalar", scalar)
        if kinds[0] == "diag":
            return ("diag", diag + scalar)
        if kinds[0] == "dense":
            M = dense
            if scalar:
                M = M + scalar * np.eye(M.shape[0])
            return ("dense", M)
        tag = kinds[0]
        M = sided[tag]
        if scalar:
            M = M + scalar * np.eye(M.shape[0])
        return (tag, M)

    def trace_gram(self) -> float:
        return sum(op.trace_gram() for _, _, op in self.pieces if op is not None)


def _size(shape: tuple) -> int:
    return int(np.prod(shape)) if shape else 1


def _spectral_norm_sq(matrix: np.ndarray) -> float:
    s = np.linalg.svd(matrix, compute_uv=False)
    top = float(s[0]) if s.size else 0.0
    return top * top * _CERT_GUARD


# ---------------------------------------------------------------------------
# Families and row groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowGroup:
    """A group of constraint rows and the blocks acting on it.

    ``active`` lists block indices with nonzero action inside the group and
    ``member_norm_sq`` the per-member certified ``||A_{g,i}||_2^2``.
    """

    active: tuple
    member_norm_sq: tuple

    def __post_init__(self):
        if len(self.active) != len(self.member_norm_sq):
            raise StructureError("row group members and norms must align")

    def count(self) -> int:
        return len(self.active)

    def norm_sq_of(self, block: int) -> float:
        return self.member_norm_sq[self.active.index(block)]


@dataclass(frozen=True)
class BlockOperatorFamily:
    """The constraint map ``A = [A_1, ..., A_n]`` into one shared space."""

    operators: tuple
    out_shape: tuple
    row_groups: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "operators", tuple(self.operators))
        object.__setattr__(self, "out_shape", tuple(self.out_shape))
        if len(self.operators) < 1:
            raise DimensionError("a family needs at least one operator")
        for op in self.operators:
            if op.out_shape != self.out_shape:
                raise DimensionError(
                    "all operators must share the constraint space "
                    f"{self.out_shape}; got {op.out_shape}"
                )
        if self.row_groups is not None:
            object.__setattr__(self, "row_groups", tuple(self.row_groups))
            n = len(self.operators)
            for group in self.row_groups:
                if any(i < 0 or i >= n for i in group.active):
                    raise StructureError("row group names an unknown block")

    @property
    def n(self) -> int:
        return len(self.operators)

    @property
    def block_shapes(self) -> tuple:
        return tuple(op.in_shape for op in self.operators)

    def apply(self, x: BlockVector) -> np.ndarray:
        if x.n != self.n:
            raise DimensionError(f"expected {self.n} blocks, got {x.n}")
        out = np.zeros(self.out_shape)
        for op, blk in zip(self.operators, x.blocks):
            out += op.apply(blk)
        return out

    def adjoint(self, u: np.ndarray) -> BlockVector:
        return BlockVector([op.adjoint(u) for op in self.operators])

    def norms_sq(self) -> tuple:
        return tuple(op.op_norm_sq for op in self.operators)


def residual(A: BlockOperatorFamily, x: BlockVector, b: np.ndarray) -> np.ndarray:
    """Constraint residual ``sum_i A_i x_i - b``."""
    b = np.asarray(b, dtype=float)
    if b.shape != A.out_shape:
        raise DimensionError(
            f"rhs shape {b.shape} does not match constraint space {A.out_shape}"
        )
    return A.apply(x) - b


# ---------------------------------------------------------------------------
# Norm estimation
# ---------------------------------------------------------------------------


def estimate_op_norm_sq(
    op: BlockOperator,
    tol: float = 1e-6,
    max_iter: int = 500,
    seed: int = 0,
) -> NormEstimate:
    """Certified upper bound on ``||A||_2^2`` by power iteration on A^T A.

    The converged Rayleigh quotient lower-bounds the true value by at most a
    relative ``tol``, so the returned value is inflated by ``1/(1 - tol)`` to
    act as an upper bound. If the iteration does not settle within
    ``max_iter`` steps the conservative bound ``trace(A^T A)`` is returned
    with ``converged=False``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.in_shape)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        v = np.ones(op.in_shape)
        nv = np.linalg.norm(v)
    v /= nv
    ray_prev = -1.0
    restarts = 0
    for _ in range(max_iter):
        w = op.gram_apply(v)
        ray = float(np.vdot(v, w))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            if restarts == 0:
                # v may sit in the null space; one fresh start.
                restarts = 1
                v = rng.standard_normal(op.in_shape)
                v /= max(np.linalg.norm(v), 1e-300)
                ray_prev = -1.0
                continue
            return NormEstimate(0.0, True)
        if ray_prev >= 0.0 and abs(ray - ray_prev) <= tol * max(ray, 1e-300):
            return NormEstimate(ray / (1.0 - tol) * _CERT_GUARD, True)
        ray_prev = ray
        v = w / nw
    return NormEstimate(float(op.trace_gram()), False)


def combined_op_norm_sq(
    A: BlockOperatorFamily,
    indices: Sequence[int],
    tol: float = 1e-6,
    max_iter: int = 500,
    seed: int = 0,
) -> float:
    """Certified ``||[A_i]_{i in indices}||_2^2`` of a horizontal stack."""
    indices = list(indices)
    if not indices:
        return 0.0
    rng = np.random.default_rng(seed)
    blocks = [rng.standard_normal(A.operators[i].in_shape) for i in indices]
    scale = math.sqrt(sum(float(np.vdot(b, b)) for b in blocks))
    blocks = [b / scale for b in blocks]
    ray_prev = -1.0
    for _ in range(max_iter):
        u = np.zeros(A.out_shape)
        for i, blk in zip(indices, blocks):
            u += A.operators[i].apply(blk)
        w = [A.operators[i].adjoint(u) for i in indices]
        ray = sum(float(np.vdot(b, wi)) for b, wi in zip(blocks, w))
        nw = math.sqrt(sum(float(np.vdot(wi, wi)) for wi in w))
        if nw == 0.0:
            return 0.0
        if ray_prev >= 0.0 and abs(ray - ray_prev) <= tol * max(ray, 1e-300):
            return ray / (1.0 - tol) * _CERT_GUARD
        ray_prev = ray
        blocks = [wi / nw for wi in w]
    return sum(A.operators[i].trace_gram() for i in indices)


def gram_cross_is_zero(
    op_i: BlockOperator, op_j: BlockOperator, tol: float = 1e-10
) -> bool:
    """Whether ``A_i^T A_j = 0`` up to ``tol * ||A_i||_2 ||A_j||_2``.

    Structural shortcuts cover zero operators, stacked operators on disjoint
    row spans, and disjoint masks; otherwise the cross norm is estimated by
    power iteration through the adjoint/apply maps.
    """
    if op_i.out_shape != op_j.out_shape:
        raise DimensionError("operators live in different constraint spaces")
    if isinstance(op_i, ZeroOp) or isinstance(op_j, ZeroOp):
        return True
    ci, cj = op_i.op_norm_sq, op_j.op_norm_sq
    if ci == 0.0 or cj == 0.0:
        return True
    if isinstance(op_i, StackedOp) and isinstance(op_j, StackedOp):
        if not _spans_overlap(op_i.active_spans(), op_j.active_spans()):
            return True
    inner_i = op_i.inner if isinstance(op_i, NegationOp) else op_i
    inner_j = op_j.inner if isinstance(op_j, NegationOp) else op_j
    if isinstance(inner_i, MaskProjectionOp) and isinstance(
        inner_j, MaskProjectionOp
    ):
        if not np.any(inner_i.mask * inner_j.mask):
            return True
    cross_sq = _cross_norm_sq(op_i, op_j)
    return math.sqrt(max(cross_sq, 0.0)) <= tol * math.sqrt(ci * cj)


def _spans_overlap(spans_a: tuple, spans_b: tuple) -> bool:
    for a0, a1 in spans_a:
        for b0, b1 in spans_b:
            if a0 < b1 and b0 < a1:
                return True
    return False


def _cross_norm_sq(
    op_i: BlockOperator, op_j: BlockOperator, iters: int = 60, seed: int = 0
) -> float:
    # Power iteration on (A_i^T A_j)^T (A_i^T A_j); exact zeros stay zero.
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op_j.in_shape)
    v /= max(np.linalg.norm(v), 1e-300)
    ray = 0.0
    for _ in range(iters):
        w = op_i.adjoint(op_j.apply(v))
        back = op_j.adjoint(op_i.apply(w))
        ray = float(np.vdot(v, back))
        nb = np.linalg.norm(back)
        if nb == 0.0:
            return 0.0
        v = back / nb
    return max(ray, 0.0)


# ---------------------------------------------------------------------------
# Weight matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightMatrix:
    """Per-block proximal weight ``G_i`` in one of four forms.

    form:
        ``zero``                        G = 0
        ``scaled-identity``             G = eta I
        ``scaled-identity-minus-gram``  G = eta I - A^T A   (PSD iff eta >= ||A||_2^2)
        ``scaled-gram``                 G = gram_coef A^T A + eta I
    """

    form: str
    eta: float = 0.0
    op: Optional[BlockOperator] = None
    gram_coef: float = 0.0

    _FORMS = (
        "zero",
        "scaled-identity",
        "scaled-identity-minus-gram",
        "scaled-gram",
    )

    def __post_init__(self):
        if self.form not in self._FORMS:
            raise InvalidWeightError(f"unknown weight form {self.form!r}")
        if self.form == "scaled-identity" and self.eta < 0:
            raise InvalidWeightError("scaled-identity weight needs eta >= 0")
        if self.form == "scaled-identity-minus-gram" and self.op is None:
            raise InvalidWeightError("minus-gram form needs its operator")
        if self.form == "scaled-gram" and self.op is None:
            raise InvalidWeightError("scaled-gram form needs its operator")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "WeightMatrix":
        return cls("zero")

    @classmethod
    def scaled_identity(cls, eta: float) -> "WeightMatrix":
        return cls("scaled-identity", eta=float(eta))

    @classmethod
    def identity_minus_gram(cls, eta: float, op: BlockOperator) -> "WeightMatrix":
        return cls("scaled-identity-minus-gram", eta=float(eta), op=op)

    @classmethod
    def scaled_gram(
        cls, coef: float, op: BlockOperator, ridge: float = 0.0
    ) -> "WeightMatrix":
        return cls("scaled-gram", eta=float(ridge), op=op, gram_coef=float(coef))

    # -- evaluation ---------------------------------------------------

    def norm_sq(self, v: np.ndarray) -> float:
        """``v^T G v``; raises when a minus-gram weight is not PSD at ``v``."""
        v = np.asarray(v, dtype=float)
        if self.form == "zero":
            return 0.0
        if self.form == "scaled-identity":
            return self.eta * float(np.vdot(v, v))
        av = self.op.apply(v)
        if self.form == "scaled-gram":
            return self.gram_coef * float(np.vdot(av, av)) + self.eta * float(
                np.vdot(v, v)
            )
        val = self.eta * float(np.vdot(v, v)) - float(np.vdot(av, av))
        floor = -1e-12 * max(self.eta * float(np.vdot(v, v)), 1.0)
        if val < floor:
            raise InvalidWeightError(
                "negative weighted norm: eta is below the Gram norm"
            )
        return max(val, 0.0)

    def mat_vec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        iso, coef, op = self.iso_split()
        out = iso * v
        if coef != 0.0:
            out = out + coef * op.gram_apply(v)
        return out

    def to_dense(self, shape: tuple) -> np.ndarray:
        """Materialize as a dense matrix on the flattened block (small sizes)."""
        shape = tuple(shape)
        return _columns(self.mat_vec, shape, shape)

    def iso_split(self) -> tuple:
        """``(iso, gram_coef, op)`` with ``G = iso I + gram_coef A^T A``."""
        if self.form == "zero":
            return (0.0, 0.0, None)
        if self.form == "scaled-identity":
            return (self.eta, 0.0, None)
        if self.form == "scaled-identity-minus-gram":
            return (self.eta, -1.0, self.op)
        return (self.eta, self.gram_coef, self.op)


# ---------------------------------------------------------------------------
# Stacking and structure detection
# ---------------------------------------------------------------------------


def stack_rows(rows: Sequence[tuple], block_shapes: Sequence[tuple]):
    """Combine constraint rows into one flattened family.

    Parameters
    ----------
    rows : sequence of (ops, rhs)
        Each row gives per-block operators (``None`` where a block does not
        appear) and the row's right-hand side array.
    block_shapes : sequence of tuple
        Shapes of the blocks, used to type absent entries.

    Returns
    -------
    (BlockOperatorFamily, ndarray)
        The stacked family (1-d constraint space) with automatic row groups,
        and the concatenated right-hand side.
    """
    block_shapes = [tuple(s) for s in block_shapes]
    n = len(block_shapes)
    offsets = []
    total = 0
    rhs_parts = []
    for ops, rhs in rows:
        if len(ops) != n:
            raise DimensionError("every row must name all blocks (use None)")
        rhs = np.asarray(rhs, dtype=float)
        offsets.append((total, rhs.shape))
        total += _size(rhs.shape)
        rhs_parts.append(rhs.ravel())
    if len(rows) == 1:
        ops, rhs = rows[0]
        rhs = np.asarray(rhs, dtype=float)
        full_ops = [
            op if op is not None else ZeroOp(block_shapes[i], rhs.shape)
            for i, op in enumerate(ops)
        ]
        active = tuple(i for i, op in enumerate(ops) if op is not None)
        groups = (
            RowGroup(
                active,
                tuple(full_ops[i].op_norm_sq for i in active),
            ),
        )
        return (
            BlockOperatorFamily(full_ops, rhs.shape, row_groups=groups),
            rhs,
        )
    stacked_ops = []
    for i in range(n):
        pieces = []
        for (off, shape), (ops, _) in zip(offsets, rows):
            pieces.append((off, shape, ops[i]))
        stacked_ops.append(StackedOp(pieces, total, block_shapes[i]))
    groups = []
    for (ops, _), (off, shape) in zip(rows, offsets):
        active = tuple(i for i, op in enumerate(ops) if op is not None)
        if active:
            groups.append(
                RowGroup(
                    active,
                    tuple(ops[i].op_norm_sq for i in active),
                )
            )
    family = BlockOperatorFamily(
        stacked_ops, (total,), row_groups=tuple(groups)
    )
    return family, np.concatenate(rhs_parts) if rhs_parts else np.zeros(0)


def detect_row_groups(A: BlockOperatorFamily) -> BlockOperatorFamily:
    """Attach row groups found by scanning dense-matrix row support.

    Constraint rows are grouped by their set of acting blocks; only families
    made entirely of dense matrix operators on a 1-d constraint space are
    scanned. Other families are returned unchanged.
    """
    if A.row_groups is not None or len(A.out_shape) != 1:
        return A
    mats = []
    for op in A.operators:
        inner = op.inner if isinstance(op, NegationOp) else op
        if not isinstance(inner, DenseMatrixOp):
            return A
        mats.append(inner.matrix)
    d = A.out_shape[0]
    signatures = {}
    for r in range(d):
        sig = tuple(bool(np.any(m[r, :] != 0.0)) for m in mats)
        signatures.setdefault(sig, []).append(r)
    groups = []
    for sig, rows in sorted(signatures.items(), key=lambda kv: kv[1][0]):
        active = tuple(i for i, hit in enumerate(sig) if hit)
        if not active:
            continue
        norms = tuple(
            _spectral_norm_sq(mats[i][rows, :]) for i in active
        )
        groups.append(RowGroup(active, norms))
    return BlockOperatorFamily(A.operators, A.out_shape, row_groups=tuple(groups))


def _columns(apply, in_shape: tuple, out_shape: tuple) -> np.ndarray:
    """Dense matrix of a linear map between block shapes, one column per entry."""
    dim = _size(in_shape)
    out = np.zeros((_size(out_shape), dim))
    basis = np.zeros(dim)
    for j in range(dim):
        basis[:] = 0.0
        basis[j] = 1.0
        out[:, j] = apply(basis.reshape(in_shape)).ravel()
    return out


def _op_dense(op: BlockOperator) -> np.ndarray:
    return _columns(op.apply, op.in_shape, op.out_shape)


def dense_matrix(A: BlockOperatorFamily) -> np.ndarray:
    """Materialize the stacked constraint matrix (small problems only)."""
    return np.hstack([_op_dense(op) for op in A.operators])
