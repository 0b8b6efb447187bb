"""Block-structured vectors and abstract linear operators.

The constraint of every problem in this package has the form
``sum_i A_i x_i = b`` where each block ``x_i`` is a dense vector or matrix
and each ``A_i`` is a linear map into a shared constraint space. Operators
are abstract (dense matrix, scaled identity, left/right matrix multiply,
entry mask, zero, stacked rows) so that adjoints, certified
operator norms, and Gram structure are available without materializing
matrices unless a solve path genuinely needs them. Every proximal weight is
one form, ``G_i = eta I + gram_coef A_i^T A_i`` (:class:`WeightMatrix`).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
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
    "ZeroOp",
    "StackedOp",
    "BlockOperatorFamily",
    "WeightMatrix",
    "NormEstimate",
    "DimensionError",
    "InvalidWeightError",
    "residual",
    "estimate_op_norm_sq",
    "gram_cross_is_zero",
    "combined_op_norm_sq",
    "certified_lambda_max",
    "dense_norm_sq",
    "dense_row_constant",
    "stack_rows",
    "dense_matrix",
]

# Relative inflation applied to the scaled-identity certificate and to the
# power-iteration estimates so that the exact inequality
# ||A v||^2 <= cert * ||v||^2 survives floating-point rounding.
_CERT_GUARD = 1.0 + 1e-12
# The float64 unit roundoff and smallest positive (subnormal) float64.
_U = np.finfo(float).eps / 2
_TINY = math.ldexp(1.0, -1074)
# Columns per partial Gram in dense_norm_sq: a matrix of at most this many
# columns (latlrr3's X has 150) is one BLAS product, and a wider one sums
# ceil(k / c) partial Grams, which keeps the rounding bound at
# gamma_{c+p-1} rather than gamma_k (see there). The bound grows with c:
# the certificates of nnsc's case-I prefixes (990 to 2,970 columns) sit up
# to 8.2e-13 above the exact norm at 160 columns, 1.2e-12 at 256 and
# 4.6e-12 at 1,024.
_GRAM_CHUNK = 160
# dense_norm_sq forms the Gram of the matrix itself, with no scaled copy,
# when the binary exponent e of its top entry has |e| <= _RAW_EXP.
_RAW_EXP = 128


class DimensionError(ValueError):
    """Raised when block or constraint-space shapes are incompatible."""


class InvalidWeightError(ValueError):
    """Raised when a weight matrix is given invalid fields."""


# ---------------------------------------------------------------------------
# Block vectors
# ---------------------------------------------------------------------------


class _Layout:
    """Block shapes and each block's ``(start, stop)`` in a packed buffer."""

    __slots__ = ("shapes", "bounds", "size")

    def __init__(self, shapes: Sequence[tuple]):
        self.shapes = tuple(tuple(s) for s in shapes)
        bounds = []
        stop = 0
        for s in self.shapes:
            start, stop = stop, stop + math.prod(s)
            bounds.append((start, stop))
        self.bounds = tuple(bounds)
        self.size = stop

    def runs(self, blocks: Sequence[int], keys: Sequence) -> tuple:
        """Split ``blocks`` into maximal runs that lie back to back here.

        A block joins the run of the block before it in ``blocks`` when it
        starts where that block stops and their ``keys`` (indexed by block)
        are equal; a key of ``None`` keeps its block alone. Returns
        ``(members, start, stop)`` per run, in the order of ``blocks``.
        """
        runs = []
        for i in blocks:
            start, stop = self.bounds[i]
            if runs and keys[i] is not None:
                members, first, last = runs[-1]
                if last == start and keys[members[-1]] == keys[i]:
                    runs[-1] = (members + (i,), first, stop)
                    continue
            runs.append(((i,), start, stop))
        return tuple(runs)


class BlockVector:
    """Ordered list of dense blocks forming one primal variable.

    The blocks live back to back, each in C order, in one float64 buffer
    ``flat``; ``blocks`` holds one view of ``flat`` per block, shaped as the
    block. Building a vector from per-block arrays copies them into a new
    buffer once, so later changes to those arrays do not reach the vector.
    Vectors are treated as immutable: ``+``, ``-``, scalar ``*``, ``dot``
    and the norms are single numpy calls on ``flat``, and arithmetic returns
    new instances.

    Parameters
    ----------
    blocks : sequence of ndarray
        Per-block arrays, vector- or matrix-shaped.
    """

    __slots__ = ("flat", "_layout", "_blocks")

    def __init__(self, blocks: Sequence[np.ndarray]):
        if len(blocks) < 1:
            raise DimensionError("a BlockVector needs at least one block")
        arrays = [np.asarray(blk, dtype=float) for blk in blocks]
        self.flat = np.concatenate([a.ravel() for a in arrays])
        self._layout = _Layout([a.shape for a in arrays])
        self._blocks = None

    @classmethod
    def _wrap(cls, flat: np.ndarray, layout: _Layout) -> "BlockVector":
        """A vector over ``flat`` itself (no copy), laid out as ``layout``."""
        out = cls.__new__(cls)
        out.flat, out._layout, out._blocks = flat, layout, None
        return out

    @classmethod
    def zeros(cls, shapes: Sequence[tuple]) -> "BlockVector":
        """Zero blocks of the given shapes in one zeroed buffer."""
        if len(shapes) < 1:
            raise DimensionError("a BlockVector needs at least one block")
        layout = _Layout(shapes)
        return cls._wrap(np.zeros(layout.size), layout)

    @property
    def blocks(self) -> tuple:
        if self._blocks is None:
            flat = self.flat
            self._blocks = tuple(
                flat[lo:hi].reshape(shape)
                for shape, (lo, hi) in zip(self._layout.shapes, self._layout.bounds)
            )
        return self._blocks

    @property
    def n(self) -> int:
        return len(self._layout.shapes)

    @property
    def shapes(self) -> tuple:
        return self._layout.shapes

    def copy(self) -> "BlockVector":
        return self._wrap(self.flat.copy(), self._layout)

    def replace(self, i: int, value: np.ndarray) -> "BlockVector":
        """Return a copy with block ``i`` replaced (shape-checked)."""
        value = np.asarray(value, dtype=float)
        if value.shape != self.shapes[i]:
            raise DimensionError(
                f"block {i} has shape {self.shapes[i]}, got {value.shape}"
            )
        flat = self.flat.copy()
        lo, hi = self._layout.bounds[i]
        flat[lo:hi] = value.ravel()
        return self._wrap(flat, self._layout)

    def _check_same_shape(self, other: "BlockVector") -> None:
        if other._layout is not self._layout and self.shapes != other.shapes:
            raise DimensionError(
                f"mismatched block shapes {self.shapes} vs {other.shapes}"
            )

    def __getitem__(self, i: int) -> np.ndarray:
        return self.blocks[i]

    def __add__(self, other: "BlockVector") -> "BlockVector":
        self._check_same_shape(other)
        return self._wrap(self.flat + other.flat, self._layout)

    def __sub__(self, other: "BlockVector") -> "BlockVector":
        self._check_same_shape(other)
        return self._wrap(self.flat - other.flat, self._layout)

    def __mul__(self, scalar: float) -> "BlockVector":
        return self._wrap(scalar * self.flat, self._layout)

    __rmul__ = __mul__

    def dot(self, other: "BlockVector") -> float:
        self._check_same_shape(other)
        return float(np.dot(self.flat, other.flat))

    def norm_sq(self) -> float:
        return float(np.dot(self.flat, self.flat))

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
    """Power-iteration estimate of a squared operator norm.

    When ``converged`` is false it is the operator's certificate, an upper
    bound.
    """

    value: float
    converged: bool


def _dims(shape, kind: str) -> tuple:
    """``shape`` as a tuple of ints; raises :class:`DimensionError` naming it
    unless every dimension is a nonnegative integer other than a ``bool``."""
    dims = tuple(shape)
    for n in dims:  # plain ints first: every operator of every build comes here
        if type(n) is not int or n < 0:
            break
    else:
        return dims
    if all(isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in dims):
        dims = tuple(map(int, dims))
        if min(dims, default=0) >= 0:
            return dims
    raise DimensionError(
        f"{kind} operator shape {dims} needs nonnegative integer dimensions"
    )


class BlockOperator:
    """Linear map from one block into the constraint space.

    Subclasses provide ``apply``, ``adjoint``, an exact or certified
    ``op_norm_sq`` upper bound, an ``in_shape``/``out_shape`` pair, and a
    ``kind`` tag. ``gram_rep`` exposes the structure of ``A^T A`` for exact
    subproblem solves when one is available.
    """

    kind: str = "abstract"

    def __init__(self, in_shape: tuple, out_shape: tuple):
        self.in_shape = _dims(in_shape, self.kind)
        self.out_shape = _dims(out_shape, self.kind)
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

    def gram_kind(self) -> Optional[str]:
        """The tag of :meth:`gram_rep` (``None`` when it has none).

        Operators whose Gram is costly to build answer without building it.
        """
        rep = self.gram_rep()
        return None if rep is None else rep[0]

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
    """Dense matrix acting on a vector block: ``v -> M v``.

    Its norm certificate keeps the Gram it is read from (:class:`_Gram`),
    for :func:`dense_row_constant`.
    """

    kind = "dense-matrix"

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise DimensionError("dense operator needs a 2-d matrix")
        super().__init__((matrix.shape[1],), (matrix.shape[0],))
        self.matrix = matrix
        self._gram: Optional[_Gram] = None

    def apply(self, v):
        return self.matrix @ self._check_in(v)

    def adjoint(self, u):
        return self.matrix.T @ self._check_out(u)

    def _compute_norm_sq(self):
        # The top eigenvalue of the smaller Gram, with the rounding of
        # forming it added in (see dense_norm_sq).
        self._gram = _dense_gram([self.matrix])
        return _gram_norm_sq(self._gram)

    def _output_gram(self) -> Optional["_Gram"]:
        """The kept :class:`_Gram` of ``M M^T`` (``None`` when ``M`` is 0).

        The certificate keeps the smaller Gram; for a tall ``M`` (fewer
        columns than rows) that is ``M^T M``, so ``M M^T`` is formed here
        once and kept in its place.
        """
        if self.op_norm_sq > 0.0 and not self._gram.out:
            self._gram = _dense_gram([self.matrix], out=True)
        return self._gram

    def gram_rep(self):
        return ("dense", self.matrix.T @ self.matrix)

    def gram_kind(self):
        return "dense"


class ScaledIdentityOp(BlockOperator):
    """``v -> c * v`` on a block of any shape."""

    kind = "identity-scaled"

    def __init__(self, scale: float, shape: tuple):
        super().__init__(shape, shape)
        if isinstance(scale, bool):
            raise ValueError(f"identity scale must be a number, got {scale!r}")
        self.scale = float(scale)
        if not math.isfinite(self.scale):
            raise ValueError(f"identity scale must be finite, got {self.scale}")

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
        self._factor_cert = functools.cache(lambda: dense_norm_sq(factor))

    def apply(self, v):
        return self.factor @ self._check_in(v)

    def adjoint(self, u):
        return self.factor.T @ self._check_out(u)

    def _compute_norm_sq(self):
        return self._factor_cert()

    def gram_rep(self):
        return ("left", self.factor.T @ self.factor)

    def gram_kind(self):
        return "left"


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
        self._factor_cert = functools.cache(lambda: dense_norm_sq(factor))

    def apply(self, v):
        return self._check_in(v) @ self.factor

    def adjoint(self, u):
        return self._check_out(u) @ self.factor.T

    def _compute_norm_sq(self):
        return self._factor_cert()

    def gram_rep(self):
        return ("right", self.factor @ self.factor.T)

    def gram_kind(self):
        return "right"


class MaskProjectionOp(BlockOperator):
    """Entry mask: keeps entries inside the index set, zeros the rest.

    Every mask entry is 0 or 1 (or a boolean), so the map is a projection.
    """

    kind = "mask-projection"

    def __init__(self, mask: np.ndarray):
        mask = np.asarray(mask)
        if not ((mask == 0) | (mask == 1)).all():
            raise ValueError("mask entries must be 0 or 1")
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
        # (span, shape, op) of each row the block acts in, its span the
        # row's slice of the stacked space.
        self.spans = tuple(
            (slice(off, off + math.prod(shape)), shape, op)
            for off, shape, op in self.pieces
            if op is not None
        )

    def apply(self, v):
        v = self._check_in(v)
        out = np.zeros(self.out_shape)
        for span, _, op in self.spans:
            out[span] = op.apply(v).ravel()
        return out

    def adjoint(self, u):
        u = self._check_out(u)
        acc = np.zeros(self.in_shape)
        for span, shape, op in self.spans:
            acc += op.adjoint(u[span].reshape(shape))
        return acc

    def _members(self):
        """The operators of the rows the block acts in."""
        return [op for _, _, op in self.spans]

    def _compute_norm_sq(self):
        return sum(op.op_norm_sq for op in self._members())

    def gram_kind(self):
        return _stacked_gram_kind([op.gram_kind() for op in self._members()])

    def gram_rep(self):
        # The stacked Gram is the sum of the member Grams.
        reps = [op.gram_rep() for op in self._members()]
        tag = _stacked_gram_kind([None if rep is None else rep[0] for rep in reps])
        if tag is None:
            return None
        scalar = sum((c for t, c in reps if t == "scalar"), 0.0)
        if tag == "scalar":
            return ("scalar", scalar)
        first, *others = (M for t, M in reps if t != "scalar")
        M = sum(others, first)
        if tag == "diag":
            return ("diag", M + scalar)
        if scalar:
            M = M + scalar * np.eye(M.shape[0])
        return (tag, M)


def _stacked_gram_kind(tags: Sequence[Optional[str]]) -> Optional[str]:
    """The Gram tag of a sum of Grams tagged ``tags``.

    The scalar members add to the one other tag, when the members carry at
    most one; all scalar is ``"scalar"``; a member without a form, or two
    different other tags, give ``None``.
    """
    if None in tags:
        return None
    rest = {tag for tag in tags if tag != "scalar"}
    if len(rest) > 1:
        return None
    return rest.pop() if rest else "scalar"


def _gamma(k: int) -> float:
    """Higham's ``gamma_k = k u / (1 - k u)`` for the float64 unit roundoff."""
    return k * _U / (1.0 - k * _U)


def certified_lambda_max(grams: np.ndarray, rounding: float) -> float:
    """An upper bound on ``lambda_max(G)`` from a computed Gram sum ``H``.

    ``grams`` is ``H``, the computed ``d x d`` value of a sum ``G`` of
    Grams, so ``G`` is positive semidefinite; only the lower triangle of
    ``H`` enters the bound. ``rounding`` bounds ``||E||_2`` for a symmetric
    ``E >= |H - G|`` (entrywise), the rounding of forming ``H``. Returns a
    float never below ``lambda_max(G)``; a ``0 x 0`` sum gives ``0.0``.
    Raises ``ValueError``, naming the argument, unless ``rounding`` is
    finite and nonnegative and ``grams`` is a square 2-d array of finite
    entries: a negative or ``nan`` rounding, or a ``nan`` in ``H``, would
    return a value below ``lambda_max(G)`` or ``nan``.

    Proof. Let ``H_L`` be the symmetric matrix that the lower triangle of
    ``H`` defines and ``r = rounding >= 0``. Entry by entry ``|H_L - G| <=
    E``, so ``||H_L - G||_2 <= r``: by Weyl's inequality ``lambda_max(G) <=
    lambda_max(H_L) + r``, and ``lambda_min(H_L) >= -r`` as ``G`` is
    semidefinite. The symmetric eigensolver (LAPACK ``syevd``) is normwise
    backward stable: its eigenvalues are exact for ``H_L + F`` with
    ``||F||_2 <= b ||H_L||_2``, ``b = p(d) u`` for the unit roundoff ``u``
    and a modestly growing ``p``; we take ``p(d) = 2d``. A ``1 x 1`` ``H``
    is its own eigenvalue, read with no eigensolver (``F = 0``). With
    ``lam`` the computed top eigenvalue raised to 0 and ``||H_L||_2 <=
    max(lambda_max(H_L), 0) + r``, ``lambda_max(H_L) <= lam + b
    (lambda_max(H_L) + r)`` when ``lambda_max(H_L) >= 0``, so in every case
    ``lambda_max(G) <= (lam + b r) / (1 - b) + r = (lam + r) / (1 - b)``.
    The sum takes one rounding and the product by the exact factor
    ``1 + (4d + 4) u`` one more, and ``(1 - u)^2 (1 + (4d + 4) u) >=
    1 / (1 - 2du)``.
    """
    r = float(rounding)
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(
            f"certified_lambda_max: rounding must be finite and nonnegative, "
            f"got {rounding!r}"
        )
    H = np.asarray(grams, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(
            f"certified_lambda_max: grams must be a square 2-d array, "
            f"got shape {H.shape}"
        )
    d = H.shape[0]
    if d == 0:
        return 0.0
    if not np.isfinite(H).all():
        raise ValueError("certified_lambda_max: grams has non-finite entries")
    top = H[0, 0] if d == 1 else np.linalg.eigvalsh(H)[-1]
    lam = max(float(top), 0.0)
    return (lam + r) * (1.0 + (4 * d + 4) * _U)


class _Gram(NamedTuple):
    """A Gram kept with what certifies it, as :func:`_dense_gram` forms it.

    ``H`` is the computed value of the exact Gram ``G`` of ``2^-s M``,
    ``M M^T`` when ``out`` and ``M^T M`` otherwise, and ``rounding`` bounds
    ``||E||_2`` for a symmetric ``E >= |H - G|`` (entrywise).
    """

    H: np.ndarray
    rounding: float
    s: int
    out: bool


def dense_norm_sq(*matrices: np.ndarray) -> float:
    """Certified ``||M||_2^2`` of ``M = [M_1 ... M_q]``, ``matrices`` side by side.

    One matrix is ``M`` itself. The result is :func:`certified_lambda_max`
    of ``M M^T`` or ``M^T M``, whichever is smaller, and never below the
    exact ``||M||_2^2``. Empty and all-zero stacks give ``0.0``. Raises
    ``ValueError`` when a matrix is not 2-d or the row counts differ, when
    an entry is not finite, and when the squared norm overflows the float
    range. The matrices are only read: the Gram is summed from them in place
    unless the top entry is far from 1 in magnitude; only a chunk of columns
    (below) that straddles two is joined, and a tall ``M`` is formed.

    Proof of the rounding bound. Let ``2^(e-1) <= max |M_ij| < 2^e`` and
    ``S = 2^-s M``, transposed when tall (unless :func:`_dense_gram` is
    asked for ``M M^T``), so ``S`` is ``d x k``, ``N = dk`` entries, and the
    Gram is ``S S^T``. When ``|e| <= 128``, ``s = 0`` and ``S`` is
    ``M`` itself: every entry is below ``2^128`` and ``N < 2^63``, so every
    sum below stays under ``2^321``, far from overflow. Otherwise ``s =
    e``, so ``|S_ij| < 1`` and nothing below overflows; this scaling is
    exact except for entries that land below the normal range, each off by
    less than ``2^-1075``, and with ``s = 0`` there is no such error. Either
    way the Gram's largest entry lies within ``2^+-485``, where ``syevd``
    works on it unscaled. All terms below are in units of ``S``, which with
    ``s = 0`` are the units of ``M``. ``S`` is cut into ``p = ceil(k / c)``
    chunks of at most ``c = min(k, 160)`` columns and ``H = fl(sum_q
    fl(S_q S_q^T))``, summed in order; up to 160 columns that is one
    product, ``p = 1``. A dot product of length at most ``c``, in any order
    (BLAS splits the inner dimension as it likes), errs by at most
    ``gamma_c |x|^T |y|``, and a recursive sum of ``p`` terms by
    ``gamma_{p-1}`` times the sum of their magnitudes (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., sections 3.1 and 4.2),
    so ``|H - S S^T| <= gamma_{c+p-1} |S| |S|^T`` (Higham's Lemma 3.3), up
    to underflow; this holds for any ``c``. Its
    2-norm is at most ``gamma_{c+p-1} || |S| ||_2^2 <= gamma_{c+p-1}
    ||S||_F^2``. The diagonal of ``H`` sums nonnegative terms, so each
    ``H_ii >= (1 - gamma_{c+p-1}) (S S^T)_ii``, and the computed trace ``f
    = fl(sum_i H_ii)`` gives ``||S||_F^2 <= f / (1 - gamma_{c+p+d})``.
    Underflow adds absolute terms only, since sums below the normal range
    are exact: at most ``2^-1075`` per product, ``N 2^-1074`` in all on
    ``H`` and ``N 2^-1075`` on ``||S||_F^2``; for the scaling errors ``D``,
    ``|S S^T - (S + D)(S + D)^T| <= |D| |S|^T + |S| |D|^T + |D| |D|^T``
    with 2-norm at most ``(2 + 1) N 2^-1075`` (``||S||_F^2 <= N``). So
    ``rounding = gamma_{c+p} f / (1 - gamma_{c+p+d}) + 3 N 2^-1074`` bounds
    the 2-norm of a symmetric entrywise bound on ``|H - G|``, where ``G`` is
    the exact Gram of ``2^-s M``, and ``gamma_{c+p} / gamma_{c+p-1} >= 1 +
    1/(c+p)`` covers the rounding of this scalar arithmetic. The
    scaled-back product ``2^(2s) lambda`` is exact unless it overflows,
    which raises, or lands below the normal range, where it is rounded up.
    """
    return _gram_norm_sq(_dense_gram(matrices))


def _dense_gram(matrices: Sequence[np.ndarray], out: bool = False) -> Optional[_Gram]:
    """The :class:`_Gram` of ``M = [M_1 ... M_q]`` that :func:`dense_norm_sq`
    certifies, with its checks and its rounding bound: the smaller of ``M
    M^T`` and ``M^T M``, or ``M M^T`` when ``out``. ``None`` when ``M`` is
    empty or zero."""
    pieces = [np.asarray(M, dtype=float) for M in matrices]
    for P in pieces:
        if P.ndim != 2:
            raise ValueError(f"dense_norm_sq needs a 2-d matrix, got shape {P.shape}")
        if P.shape[0] != pieces[0].shape[0]:
            raise ValueError("dense_norm_sq stacks matrices of equal row counts")
    pieces = [P for P in pieces if P.size]
    tops = [max(float(P.max()), -float(P.min())) for P in pieces]
    if not all(map(math.isfinite, tops)):
        raise ValueError("no norm certificate: the matrix has non-finite entries")
    top = max(tops, default=0.0)
    if top == 0.0:
        return None
    e = math.frexp(top)[1]
    s = 0 if abs(e) <= _RAW_EXP else e
    S = pieces if s == 0 else [np.ldexp(P, -s) for P in pieces]
    tall = not out and S[0].shape[0] > sum(P.shape[1] for P in S)
    if tall:
        S = [(S[0] if len(S) == 1 else np.hstack(S)).T]
    edges = np.cumsum([0] + [P.shape[1] for P in S])
    d, k = S[0].shape[0], int(edges[-1])
    c = min(k, _GRAM_CHUNK)
    for j in range(0, k, c):
        # Columns j to j + c of the stack, as each piece holds them (or none).
        parts = [P[:, max(j - lo, 0) : max(j + c - lo, 0)] for P, lo in zip(S, edges)]
        parts = [V for V in parts if V.shape[1]]
        X = parts[0] if len(parts) == 1 else np.hstack(parts)
        H = X @ X.T if j == 0 else np.add(H, X @ X.T, out=H)
    f = float(np.trace(H))
    p = -(-k // c)
    rounding = _gamma(c + p) * f / (1.0 - _gamma(c + p + d)) + 3.0 * d * k * _TINY
    return _Gram(H, rounding, s, not tall)


def _gram_norm_sq(gram: Optional[_Gram]) -> float:
    """The certified ``||M||_2^2`` that ``gram``, a Gram of ``M``, gives
    (``0.0`` for ``None``); see :func:`dense_norm_sq`."""
    if gram is None:
        return 0.0
    lam = certified_lambda_max(gram.H, gram.rounding)
    try:
        out = math.ldexp(lam, 2 * gram.s)
    except OverflowError:
        raise ValueError(
            "no norm certificate: the squared norm overflows the float range"
        ) from None
    if math.ldexp(out, -2 * gram.s) < lam:
        # Rounded down below the normal range: take the next float up.
        out = math.nextafter(out, math.inf)
    return out


def dense_row_constant(pieces: Sequence[BlockOperator]) -> float:
    """Certified ``c = lambda_max(sum_j A_j A_j^T / cert_j)`` of one row's pieces.

    ``pieces`` are the operators ``A_j`` of some blocks in one constraint
    row and ``cert_j`` their ``op_norm_sq``; a piece with ``cert_j = 0`` is
    zero and drops out. With ``B_j = A_j / sqrt(cert_j)``, ``||[B_1 ...
    B_q]||_2^2 = lambda_max(sum_j B_j B_j^T)``, so

        ``||sum_j A_j d_j||^2 = ||sum_j B_j sqrt(cert_j) d_j||^2 <= c sum_j
        cert_j ||d_j||^2``

    for every ``d``, and ``c <= q`` as each ``||B_j||_2 <= 1``. The sum
    is read from the Grams ``A_j A_j^T`` that the pieces' certificates keep
    (:meth:`DenseMatrixOp._output_gram`); none is formed again. Returns
    ``math.inf``, no bound, when a piece is not a :class:`DenseMatrixOp` or
    the nonzero pieces have fewer columns in all than the row has entries
    (their stacked input Gram is then the smaller one), and ``0.0`` when no
    piece is nonzero.

    Proof that the result is never below ``c``. Let ``m`` be the row's
    length and, for each of the ``q`` nonzero pieces, ``H_j``, ``s_j`` and
    ``r_j`` its kept Gram, scale exponent and rounding bound (``||E_j||_2
    <= r_j`` for a symmetric ``E_j >= |H_j - G_j|``), ``G_j`` the exact
    Gram of ``2^-s_j A_j`` and ``L_j = 2^(-2 s_j) cert_j``, exact as a
    normal float (``cert_j`` in the units of ``H_j``). ``w_j``, the next
    float above ``fl(1 / L_j)``, exceeds ``1 / L_j``, so ``T = sum_j w_j G_j
    >= sum_j A_j A_j^T / cert_j`` (as forms). The computed ``K = fl(sum_j
    fl(w_j H_j))`` errs by at most ``gamma_q sum_j w_j |H_j|`` (one product
    and at most ``q - 1`` sums per entry), and ``|H_j| <= |G_j| + E_j``, so
    ``|K - T| <= sum_j w_j ((1 + gamma_q) E_j + gamma_q |G_j|)``, a
    symmetric bound. For a semidefinite ``G``, ``|G_ik| <= sqrt(G_ii
    G_kk)``, so ``|| |G| ||_2 <= trace(G) <= m lambda_max(G)``, and
    ``lambda_max(G_j) <= L_j`` with ``w_j L_j <= 1 + 4u``: the bound's
    2-norm is at most ``(1 + gamma_q) R + gamma_q (1 + 4u) q m`` with ``R =
    sum_j w_j r_j``. The rounding passed on, ``2 fl(R) + gamma_{q+2} q m``,
    exceeds that: doubling covers ``gamma_q R`` and the ``q + 2`` roundings
    of summing ``R`` and the total, and ``gamma_{q+2} / gamma_q >= 1 + 2/q``
    covers ``4u`` and the 5 roundings of its term. Products that land below
    the normal range add at most ``2^-1075`` each, so ``q m 2^-1074`` covers
    them. :func:`certified_lambda_max` of ``K`` is then at least
    ``lambda_max(T) >= c``.
    """
    if not all(isinstance(op, DenseMatrixOp) for op in pieces):
        return math.inf
    live = [op for op in pieces if op.op_norm_sq > 0.0]
    if not live:
        return 0.0
    m = live[0].out_shape[0]
    if sum(op.in_shape[0] for op in live) < m:
        return math.inf
    K = np.zeros((m, m))
    R = 0.0
    for op in live:
        gram = op._output_gram()
        w = math.nextafter(1.0 / math.ldexp(op.op_norm_sq, -2 * gram.s), math.inf)
        K += w * gram.H
        R += w * gram.rounding
    q = len(live)
    return certified_lambda_max(K, 2.0 * R + _gamma(q + 2) * q * m + q * m * _TINY)


def _share_factor_certificates(ops) -> None:
    """Give the left and right multiplies on one factor array one certificate.

    Each reads its certificate from ``_factor_cert``, a cached call of
    :func:`dense_norm_sq` on its factor; after this, the first of them to
    need it certifies the array once for all.
    """
    first = {}
    for op in ops:
        if isinstance(op, (LeftMultiplyOp, RightMultiplyOp)):
            op._factor_cert = first.setdefault(id(op.factor), op)._factor_cert


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockOperatorFamily:
    """The constraint map ``A = [A_1, ..., A_n]`` into one shared space.

    ``rows`` is the one record of the constraint's row structure: one tuple
    per constraint row of ``(i, A_row_i)`` pairs, the piece that each block
    acting in the row applies there. Blocks that share no row have
    ``A_i^T A_j = 0``. The default is one row of the blocks whose
    certificate is nonzero, each acting through its own operator. A pair
    whose index or input shape does not match the family raises
    :class:`DimensionError`; a block with a nonzero certificate that acts
    in no row raises ``ValueError``.
    """

    operators: tuple
    out_shape: tuple
    rows: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "operators", tuple(self.operators))
        object.__setattr__(self, "out_shape", tuple(self.out_shape))
        ops = self.operators
        if len(ops) < 1:
            raise DimensionError("a family needs at least one operator")
        for op in ops:
            if op.out_shape != self.out_shape:
                raise DimensionError(
                    "all operators must share the constraint space "
                    f"{self.out_shape}; got {op.out_shape}"
                )
        if self.rows is None:
            rows = (tuple((i, op) for i, op in enumerate(ops) if op.op_norm_sq > 0.0),)
        else:
            rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        acting = set()
        for r, row in enumerate(rows):
            for i, op in row:
                if not (0 <= i < len(ops) and op.in_shape == ops[i].in_shape):
                    raise DimensionError(
                        f"row {r}: the family has no block {i} of shape {op.in_shape}"
                    )
                acting.add(i)
        for i, op in enumerate(ops):
            if i not in acting and op.op_norm_sq > 0.0:
                raise ValueError(f"block {i} acts outside every row")

    @property
    def n(self) -> int:
        return len(self.operators)

    @property
    def block_shapes(self) -> tuple:
        return tuple(op.in_shape for op in self.operators)

    def apply(self, x: BlockVector) -> np.ndarray:
        if x.n != self.n:
            raise DimensionError(f"expected {self.n} blocks, got {x.n}")
        return self.image_sum(
            op.apply(blk) for op, blk in zip(self.operators, x.blocks)
        )

    def image_sum(self, images) -> np.ndarray:
        """``sum_i c_i`` of the block images ``c_i = A_i x_i``, in block order."""
        out = np.zeros(self.out_shape)
        for ci in images:
            out += ci
        return out

    def adjoint(self, u: np.ndarray) -> BlockVector:
        return BlockVector([op.adjoint(u) for op in self.operators])

    def norms_sq(self) -> tuple:
        return tuple(op.op_norm_sq for op in self.operators)


def residual(A: BlockOperatorFamily, x: BlockVector, b, image=None) -> np.ndarray:
    """Constraint residual ``sum_i A_i x_i - b``, with ``b`` shape-checked.

    ``image`` is ``A x`` when the caller has formed it already.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != A.out_shape:
        raise DimensionError(
            f"rhs shape {b.shape} does not match constraint space {A.out_shape}"
        )
    return (A.apply(x) if image is None else image) - b


# ---------------------------------------------------------------------------
# Norm estimation
# ---------------------------------------------------------------------------


def _power_iteration(gram_apply, shape, tol, max_iter, seed=0, stop_above=math.inf):
    """Top eigenvalue of a positive semidefinite map by power iteration.

    The start is a standard normal draw of ``shape`` from ``seed``.
    Returns ``(ray, ended)``: the last Rayleigh quotient and whether the
    iteration ended within ``max_iter`` steps, which it does at the first
    quotient above ``stop_above``, when the image vanishes (``ray`` is then
    0), or once the quotient stalls to a relative ``tol``. The quotients do
    not decrease, so the full iteration's estimate lies above the one that
    ended it at ``stop_above``. A stalled quotient does not bound its own
    error, so it is an estimate, not a certified bound: it can fall below
    the true value when the top of the spectrum is clustered.
    """
    v = np.random.default_rng(seed).standard_normal(shape)
    v /= np.linalg.norm(v)
    ray_prev = -1.0
    ray = 0.0
    for _ in range(max_iter):
        w = gram_apply(v)
        ray = float(np.vdot(v, w))
        if ray > stop_above:
            return ray, True
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, True
        if ray_prev >= 0.0 and abs(ray - ray_prev) <= tol * max(ray, 1e-300):
            return ray, True
        ray_prev = ray
        v = w / nw
    return ray, False


def estimate_op_norm_sq(
    op: BlockOperator,
    tol: float = 1e-6,
    max_iter: int = 500,
    seed: int = 0,
) -> NormEstimate:
    """Estimate of ``||A||_2^2`` by power iteration on A^T A.

    Once the Rayleigh quotient stalls to a relative ``tol`` it is inflated
    by ``1/(1 - tol)``; it is still an estimate (see
    :func:`_power_iteration`). If the iteration does not settle within
    ``max_iter`` steps, the operator's certificate ``op_norm_sq``, an upper
    bound, is returned with ``converged=False``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    ray, ended = _power_iteration(op.gram_apply, op.in_shape, tol, max_iter, seed)
    if not ended:
        return NormEstimate(op.op_norm_sq, False)
    return NormEstimate(ray / (1.0 - tol) * _CERT_GUARD, True)


def combined_op_norm_sq(
    A: BlockOperatorFamily,
    indices: Sequence[int],
    tol: float = 1e-6,
    max_iter: int = 500,
    seed: int = 0,
) -> float:
    """Estimate of ``||[A_i]_{i in indices}||_2^2`` of a horizontal stack.

    Power iteration as in :func:`estimate_op_norm_sq`, on one vector laid
    out as the stacked blocks, so not a certified bound. It scores the
    case-I prefixes that hold an operator other than
    :class:`DenseMatrixOp`; all-dense prefixes take :func:`dense_norm_sq`.
    If the iteration does not settle within ``max_iter`` steps, the sum of
    the member certificates is returned, an upper bound since
    ``||[A_i]||^2 <= sum ||A_i||^2``.
    """
    ops = [A.operators[i] for i in indices]
    if not ops:
        return 0.0
    layout = _Layout([op.in_shape for op in ops])

    def gram_apply(v):
        blocks = BlockVector._wrap(v, layout).blocks
        u = sum(op.apply(x) for op, x in zip(ops, blocks))
        return np.concatenate([op.adjoint(u).ravel() for op in ops])

    ray, ended = _power_iteration(gram_apply, layout.size, tol, max_iter, seed)
    if not ended:
        return sum(op.op_norm_sq for op in ops)
    return ray / (1.0 - tol) * _CERT_GUARD


# Relative size below which ``gram_cross_is_zero`` takes a cross Gram for 0.
_CROSS_RTOL = 1e-10


def gram_cross_is_zero(op_i: BlockOperator, op_j: BlockOperator) -> bool:
    """Whether ``A_i^T A_j = 0`` up to ``1e-10 ||A_i||_2 ||A_j||_2``.

    Structural shortcuts cover zero operators and disjoint masks; otherwise
    ``||A_i^T A_j||_2^2`` is estimated by at most 60 power steps through
    the adjoint/apply maps, stopped early once it lies clearly above the
    bound or stalls to a relative 1e-6. Blocks that share no row of a
    family need no call: ``A_i^T A_j = 0`` for them by construction.
    """
    if op_i.out_shape != op_j.out_shape:
        raise DimensionError("operators live in different constraint spaces")
    ci, cj = op_i.op_norm_sq, op_j.op_norm_sq
    if ci == 0.0 or cj == 0.0:
        return True
    if isinstance(op_i, MaskProjectionOp) and isinstance(op_j, MaskProjectionOp):
        if not np.any(op_i.mask * op_j.mask):
            return True

    def gram_apply(v):
        return op_j.adjoint(op_i.apply(op_i.adjoint(op_j.apply(v))))

    bound_sq = _CROSS_RTOL * _CROSS_RTOL * ci * cj
    cross_sq, _ = _power_iteration(
        gram_apply, op_j.in_shape, 1e-6, 60, stop_above=4.0 * bound_sq
    )
    return math.sqrt(max(cross_sq, 0.0)) <= _CROSS_RTOL * math.sqrt(ci * cj)


# ---------------------------------------------------------------------------
# Weight matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightMatrix:
    """Per-block proximal weight ``G = eta I + gram_coef A^T A``.

    ``op`` is the block's operator ``A``, required when ``gram_coef`` is not
    zero. The constructors name the weights the solvers use: ``zero``
    (``G = 0``), ``scaled_identity`` (``eta I``), ``identity_minus_gram``
    (``eta I - A^T A``, PSD iff ``eta >= ||A||_2^2``) and ``scaled_gram``
    (``coef A^T A + ridge I``).
    """

    eta: float = 0.0
    gram_coef: float = 0.0
    op: Optional[BlockOperator] = None

    def __post_init__(self):
        if not (math.isfinite(self.eta) and math.isfinite(self.gram_coef)):
            raise InvalidWeightError(
                f"weight eta and gram_coef must be finite, got {self.eta}, "
                f"{self.gram_coef}"
            )
        if self.gram_coef == 0.0 and self.eta < 0:
            raise InvalidWeightError("a weight eta I needs eta >= 0")
        if self.gram_coef != 0.0 and self.op is None:
            raise InvalidWeightError("a weight with a Gram term needs its operator")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "WeightMatrix":
        return cls()

    @classmethod
    def scaled_identity(cls, eta: float) -> "WeightMatrix":
        return cls(eta=float(eta))

    @classmethod
    def identity_minus_gram(cls, eta: float, op: BlockOperator) -> "WeightMatrix":
        return cls(eta=float(eta), gram_coef=-1.0, op=op)

    @classmethod
    def scaled_gram(
        cls, coef: float, op: BlockOperator, ridge: float = 0.0
    ) -> "WeightMatrix":
        return cls(eta=float(ridge), gram_coef=float(coef), op=op)

    # -- evaluation ---------------------------------------------------

    def mat_vec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        out = self.eta * v
        if self.gram_coef != 0.0:
            out = out + self.gram_coef * self.op.gram_apply(v)
        return out

    def to_dense(self, shape: tuple) -> np.ndarray:
        """Materialize as a dense matrix on the flattened block (small sizes)."""
        shape = tuple(shape)
        return _columns(self.mat_vec, shape, shape)


# ---------------------------------------------------------------------------
# Stacking constraint rows
# ---------------------------------------------------------------------------


def stack_rows(rows: Sequence[tuple], block_shapes: Sequence[tuple]):
    """Combine constraint rows into one flattened family.

    Parameters
    ----------
    rows : sequence of (ops, rhs)
        Each row gives per-block operators (``None`` where a block does not
        appear) and the row's right-hand side array, which must be finite.
    block_shapes : sequence of tuple
        Shapes of the blocks, used to type absent entries.

    Returns
    -------
    (BlockOperatorFamily, ndarray)
        The family and the concatenated right-hand side. One row keeps its
        own shape, with a zero operator for each absent block; several rows
        are flattened into one 1-d space. The family's ``rows`` hold the
        given operators of each row with an acting block. The left and right
        multiplies given on one factor array share its certificate, which
        the first of them to need it computes.
    """
    block_shapes = [tuple(s) for s in block_shapes]
    n = len(block_shapes)
    _share_factor_certificates(op for ops, _ in rows for op in ops if op is not None)
    offsets, rhs_parts, acting = [], [], []
    total = 0
    for r, (ops, rhs) in enumerate(rows):
        if len(ops) != n:
            raise DimensionError("every row must name all blocks (use None)")
        rhs = np.asarray(rhs, dtype=float)
        if not np.isfinite(rhs).all():
            raise ValueError(f"row {r}: the right-hand side has non-finite entries")
        offsets.append((total, rhs.shape))
        total += math.prod(rhs.shape)
        rhs_parts.append(rhs)
        row = tuple((i, op) for i, op in enumerate(ops) if op is not None)
        if row:
            acting.append(row)
    if len(rows) == 1:
        (ops, _), rhs = rows[0], rhs_parts[0]
        full_ops = [
            op if op is not None else ZeroOp(block_shapes[i], rhs.shape)
            for i, op in enumerate(ops)
        ]
        return BlockOperatorFamily(full_ops, rhs.shape, rows=acting), rhs
    stacked_ops = [
        StackedOp(
            [(off, shape, ops[i]) for (off, shape), (ops, _) in zip(offsets, rows)],
            total,
            block_shapes[i],
        )
        for i in range(n)
    ]
    family = BlockOperatorFamily(stacked_ops, (total,), rows=acting)
    rhs = np.concatenate([r.ravel() for r in rhs_parts]) if rhs_parts else np.zeros(0)
    return family, rhs


def _columns(apply, in_shape: tuple, out_shape: tuple) -> np.ndarray:
    """Dense matrix of a linear map between block shapes, one column per entry."""
    dim = math.prod(in_shape)
    out = np.zeros((math.prod(out_shape), dim))
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
