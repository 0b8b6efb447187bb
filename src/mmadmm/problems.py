"""Benchmark problem builders and their synthetic data generators.

Every builder returns a :class:`ProblemSpec` wiring block terms, constraint
rows, an optional joint smooth term, and a recommended partition for the
solvers. Data generation is deterministic: one ``SeedSequence`` per problem
is split into per-block child streams (PCG64), so block ``i``'s draws do not
depend on how many other blocks exist before it is generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .blockspace import (
    BlockVector,
    DenseMatrixOp,
    LeftMultiplyOp,
    MaskProjectionOp,
    NegationOp,
    RightMultiplyOp,
    ScaledIdentityOp,
    stack_rows,
)
from .partition import Partition
from .prox import ProxFunction
from .surrogates import SmoothQuadCoupling

__all__ = [
    "DataGenSpec",
    "ProblemSpec",
    "build_nonneg_sparse_coding",
    "build_nonneg_sparse_coding_noisy",
    "build_latent_lrr",
    "build_lrr",
    "build_nonneg_matrix_completion",
    "make_subspace_data",
    "from_manifest",
    "PROBLEM_NAMES",
]

PROBLEM_NAMES = ("nnsc", "nnsc-noisy", "latlrr2", "latlrr3", "lrr", "nmc")


@dataclass(frozen=True)
class DataGenSpec:
    """Synthetic-data recipe; identical specs generate identical bytes.

    ``block_dims`` defaults to ``(10, 20, ..., 10 n)`` when omitted.
    ``sparsity`` is the fraction of nonzero entries in the planted blocks.
    """

    seed: int
    d: int = 50
    n: int = 100
    block_dims: Optional[tuple] = None
    sparsity: float = 0.1
    noise_sigma: float = 0.0
    rank: int = 5
    obs_fraction: float = 0.6

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise ValueError("dimensions must be positive")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ValueError("sparsity is a fraction in [0, 1]")
        if not 0.0 < self.obs_fraction <= 1.0:
            raise ValueError("observation fraction must lie in (0, 1]")
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.block_dims is not None:
            dims = tuple(int(m) for m in self.block_dims)
            if len(dims) != self.n or any(m < 1 for m in dims):
                raise ValueError("need one positive dimension per block")
            object.__setattr__(self, "block_dims", dims)

    def dims(self) -> tuple:
        if self.block_dims is not None:
            return self.block_dims
        return tuple(10 * (i + 1) for i in range(self.n))


class ProblemSpec:
    """A linearly constrained block problem ready for the solvers.

    Parameters
    ----------
    name : str
    rows : sequence of (ops, rhs)
        Constraint rows; ``ops`` holds one operator or ``None`` per block.
        Rows are stacked into a single constraint space for the solvers,
        while the originals stay available for per-row residuals.
    terms : sequence of ProxFunction or None
        Per-block objective terms.
    smooth : SmoothQuadCoupling, optional
        Joint smooth objective term across blocks.
    linearize_smooth : bool
        Whether solvers should replace the smooth term by its gradient
        anchor plus certified quadratic (required whenever it couples
        blocks).
    recommended_partition : Partition, optional
    meta : dict
        Flat manifest keys sufficient to regenerate the instance.
    data : dict
        Named arrays behind the instance, for file export.
    """

    def __init__(
        self,
        name: str,
        rows: Sequence[tuple],
        block_shapes: Sequence[tuple],
        terms: Sequence[Optional[ProxFunction]],
        smooth: Optional[SmoothQuadCoupling] = None,
        linearize_smooth: bool = True,
        recommended_partition: Optional[Partition] = None,
        meta: Optional[dict] = None,
        data: Optional[dict] = None,
        suggested: Optional[dict] = None,
    ):
        self.name = name
        self.rows = tuple((tuple(ops), np.asarray(rhs, dtype=float)) for ops, rhs in rows)
        self.block_shapes = tuple(tuple(s) for s in block_shapes)
        self.terms = tuple(terms)
        self.smooth = smooth
        self.linearize_smooth = bool(linearize_smooth)
        self.recommended_partition = recommended_partition
        self.meta = dict(meta or {})
        self.data = dict(data or {})
        self.suggested = dict(suggested or {})
        n = len(self.block_shapes)
        if len(self.terms) != n:
            raise ValueError("one term entry per block is required (use None)")
        for ops, _ in self.rows:
            if len(ops) != n:
                raise ValueError("every row must name all blocks (use None)")
        for i in range(n):
            in_row = any(ops[i] is not None for ops, _ in self.rows)
            in_smooth = smooth is not None and smooth.ops[i] is not None
            if not in_row and self.terms[i] is None and not in_smooth:
                raise ValueError(f"block {i} appears nowhere in the problem")
        self.family, self.b = stack_rows(self.rows, self.block_shapes)

    @property
    def n(self) -> int:
        return len(self.block_shapes)

    def objective(self, x: BlockVector) -> float:
        total = 0.0
        for term, blk in zip(self.terms, x.blocks):
            if term is not None:
                total += term.value(blk)
        if self.smooth is not None:
            total += self.smooth.value(x)
        return float(total)

    def row_residuals(self, x: BlockVector) -> list:
        out = []
        for ops, rhs in self.rows:
            acc = -rhs.copy()
            for op, blk in zip(ops, x.blocks):
                if op is not None:
                    acc += op.apply(blk)
            out.append(acc)
        return out


# ---------------------------------------------------------------------------
# Nonnegative sparse coding
# ---------------------------------------------------------------------------


def _nnsc_draws(gen: DataGenSpec):
    dims = gen.dims()
    streams = np.random.SeedSequence(gen.seed).spawn(gen.n + 1)
    mats = []
    x_star = []
    for i, m in enumerate(dims):
        rng = np.random.default_rng(streams[i])
        mats.append(rng.standard_normal((gen.d, m)))
        x = np.zeros(m)
        nnz = int(round(gen.sparsity * m))
        if nnz > 0:
            idx = rng.choice(m, size=nnz, replace=False)
            # Magnitudes only: the planted point then witnesses feasibility
            # of the nonnegativity constraint.
            x[idx] = np.abs(rng.standard_normal(nnz))
        x_star.append(x)
    noise_rng = np.random.default_rng(streams[gen.n])
    e_star = gen.noise_sigma * noise_rng.standard_normal(gen.d)
    return mats, x_star, e_star


def build_nonneg_sparse_coding(gen: DataGenSpec) -> ProblemSpec:
    """``min sum_i ||x_i||_1 s.t. sum_i A_i x_i = y, x_i >= 0``.

    Entries of each ``A_i`` are i.i.d. standard normal; the planted point
    has ``sparsity * m_i`` nonzero entries per block and ``y`` is its image.
    """
    mats, x_star, _ = _nnsc_draws(gen)
    y = np.zeros(gen.d)
    for M, x in zip(mats, x_star):
        y += M @ x
    ops = tuple(DenseMatrixOp(M) for M in mats)
    rows = [(ops, y)]
    shapes = tuple(op.in_shape for op in ops)
    terms = tuple(ProxFunction("l1-nonneg", 1.0) for _ in ops)
    data = {f"A_{i}": M for i, M in enumerate(mats)}
    data["y"] = y
    meta = {
        "problem": "nnsc",
        "seed": gen.seed,
        "d": gen.d,
        "n": gen.n,
        "block_dims": ",".join(str(m) for m in gen.dims()),
        "sparsity": gen.sparsity,
    }
    return ProblemSpec(
        "nnsc", rows, shapes, terms, meta=meta, data=data
    )


def build_nonneg_sparse_coding_noisy(
    gen: DataGenSpec, lam: float = 1.0
) -> ProblemSpec:
    """Adds a free noise block: ``min sum_i ||x_i||_1 + lam ||e||_1``
    subject to ``sum_i A_i x_i + e = y``.

    The coding blocks reuse exactly the noiseless draws for the same seed;
    ``y`` picks up Gaussian noise with scale ``noise_sigma``.
    """
    if lam <= 0:
        raise ValueError("noise weight lam must be positive")
    mats, x_star, e_star = _nnsc_draws(gen)
    y = e_star.copy()
    for M, x in zip(mats, x_star):
        y += M @ x
    ops = [DenseMatrixOp(M) for M in mats]
    ops.append(ScaledIdentityOp(1.0, (gen.d,)))
    rows = [(tuple(ops), y)]
    shapes = tuple(op.in_shape for op in ops)
    terms = tuple(
        [ProxFunction("l1-nonneg", 1.0) for _ in mats] + [ProxFunction("l1", lam)]
    )
    data = {f"A_{i}": M for i, M in enumerate(mats)}
    data["y"] = y
    meta = {
        "problem": "nnsc-noisy",
        "seed": gen.seed,
        "d": gen.d,
        "n": gen.n,
        "block_dims": ",".join(str(m) for m in gen.dims()),
        "sparsity": gen.sparsity,
        "noise_sigma": gen.noise_sigma,
        "lam": lam,
    }
    return ProblemSpec(
        "nnsc-noisy", rows, shapes, terms, meta=meta, data=data
    )


# ---------------------------------------------------------------------------
# Latent low-rank representation
# ---------------------------------------------------------------------------


def build_latent_lrr(
    X: np.ndarray, lam: float, formulation: str = "3-block", meta: Optional[dict] = None
) -> ProblemSpec:
    """Latent low-rank representation of the columns of ``X``.

    2-block: ``min ||Z||_* + ||L||_* + (lam/2) ||X Z + L X - X||_F^2``
    subject to ``1^T Z = 1^T``, the quadratic kept as a joint smooth term.

    3-block: ``min ||Z||_* + ||L||_* + (lam/2) ||E||_F^2`` subject to
    ``1^T Z = 1^T`` and ``X Z + L X - E = X``, recommended super blocks
    ``{Z} | {L, E}``.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a matrix")
    d, n = X.shape
    ones_row = np.ones((1, n))
    z_shape, l_shape, e_shape = (n, n), (d, d), (d, n)
    data = {"X": X}
    base_meta = dict(meta or {})
    base_meta.update({"lam": lam, "formulation": formulation})
    if formulation == "2-block":
        rows = [((LeftMultiplyOp(ones_row, z_shape), None), ones_row)]
        smooth = SmoothQuadCoupling(
            lam,
            (LeftMultiplyOp(X, z_shape), RightMultiplyOp(X, l_shape)),
            offset=X,
        )
        base_meta.setdefault("problem", "latlrr2")
        return ProblemSpec(
            "latlrr2",
            rows,
            (z_shape, l_shape),
            (ProxFunction("nuclear", 1.0), ProxFunction("nuclear", 1.0)),
            smooth=smooth,
            meta=base_meta,
            data=data,
        )
    if formulation != "3-block":
        raise ValueError("formulation must be '2-block' or '3-block'")
    rows = [
        ((LeftMultiplyOp(ones_row, z_shape), None, None), ones_row),
        (
            (
                LeftMultiplyOp(X, z_shape),
                RightMultiplyOp(X, l_shape),
                NegationOp(ScaledIdentityOp(1.0, e_shape)),
            ),
            X,
        ),
    ]
    terms = (
        ProxFunction("nuclear", 1.0),
        ProxFunction("nuclear", 1.0),
        ProxFunction("sq-frobenius", lam),
    )
    base_meta.setdefault("problem", "latlrr3")
    return ProblemSpec(
        "latlrr3",
        rows,
        (z_shape, l_shape, e_shape),
        terms,
        recommended_partition=Partition((0,), (1, 2), case="user"),
        meta=base_meta,
        data=data,
    )


def build_lrr(
    X: np.ndarray, A_dict: np.ndarray, lam: float, meta: Optional[dict] = None
) -> ProblemSpec:
    """Low-rank representation with column-sparse error.

    ``min ||J||_* + lam ||E||_{2,1}`` subject to ``X = A Z + E`` and
    ``Z = J``. The recommended super blocks ``{J, E} | {Z}`` make every
    update exact: prox steps for ``J`` and ``E``, one linear solve for ``Z``.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    X = np.asarray(X, dtype=float)
    A_dict = np.asarray(A_dict, dtype=float)
    if X.ndim != 2 or A_dict.ndim != 2 or A_dict.shape[0] != X.shape[0]:
        raise ValueError("X and the dictionary must share their row space")
    d, n = X.shape
    na = A_dict.shape[1]
    j_shape, e_shape, z_shape = (na, n), (d, n), (na, n)
    rows = [
        ((None, ScaledIdentityOp(1.0, e_shape), LeftMultiplyOp(A_dict, z_shape)), X),
        (
            (
                NegationOp(ScaledIdentityOp(1.0, j_shape)),
                None,
                ScaledIdentityOp(1.0, z_shape),
            ),
            np.zeros(z_shape),
        ),
    ]
    terms = (ProxFunction("nuclear", 1.0), ProxFunction("l21", lam), None)
    base_meta = dict(meta or {})
    base_meta.setdefault("problem", "lrr")
    base_meta["lam"] = lam
    return ProblemSpec(
        "lrr",
        rows,
        (j_shape, e_shape, z_shape),
        terms,
        recommended_partition=Partition((0, 1), (2,), case="user"),
        meta=base_meta,
        data={"X": X, "A_dict": A_dict},
    )


# ---------------------------------------------------------------------------
# Nonnegative noisy matrix completion
# ---------------------------------------------------------------------------


def build_nonneg_matrix_completion(gen: DataGenSpec, lam: float = 10.0) -> ProblemSpec:
    """``min ||X||_* + (lam/2) ||E||^2 s.t. P(Z) + E = B, X = Z, Z >= 0``.

    ``P`` keeps the observed entries. The ground truth is a product of
    entrywise-absolute Gaussian factors of the given rank; observed entries
    carry Gaussian noise. Recommended super blocks: ``{X, E} | {Z}``.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    d1, d2 = gen.d, gen.n
    streams = np.random.SeedSequence(gen.seed).spawn(3)
    rng_factors = np.random.default_rng(streams[0])
    w1 = np.abs(rng_factors.standard_normal((d1, gen.rank)))
    w2 = np.abs(rng_factors.standard_normal((gen.rank, d2)))
    truth = w1 @ w2
    rng_mask = np.random.default_rng(streams[1])
    mask = (rng_mask.random((d1, d2)) < gen.obs_fraction).astype(float)
    rng_noise = np.random.default_rng(streams[2])
    b_obs = mask * (truth + gen.noise_sigma * rng_noise.standard_normal((d1, d2)))
    shape = (d1, d2)
    rows = [
        ((None, ScaledIdentityOp(1.0, shape), MaskProjectionOp(mask)), b_obs),
        (
            (
                ScaledIdentityOp(1.0, shape),
                None,
                NegationOp(ScaledIdentityOp(1.0, shape)),
            ),
            np.zeros(shape),
        ),
    ]
    terms = (
        ProxFunction("nuclear", 1.0),
        ProxFunction("sq-frobenius", lam),
        ProxFunction("indicator-nonneg", 1.0),
    )
    meta = {
        "problem": "nmc",
        "seed": gen.seed,
        "d": d1,
        "n": d2,
        "rank": gen.rank,
        "obs_fraction": gen.obs_fraction,
        "noise_sigma": gen.noise_sigma,
        "lam": lam,
    }
    suggested = {
        "beta0": min(d1, d2) * 1e-4,
        "rho": 10.0,
        "schedule": "adaptive",
        "eps_primal": 1e-3,
        "eps_step": 1e-3,
    }
    return ProblemSpec(
        "nmc",
        rows,
        (shape, shape, shape),
        terms,
        recommended_partition=Partition((0, 1), (2,), case="user"),
        meta=meta,
        data={"B_obs": b_obs, "mask": mask, "truth": truth},
        suggested=suggested,
    )


# ---------------------------------------------------------------------------
# Subspace data for the representation problems
# ---------------------------------------------------------------------------


def make_subspace_data(
    seed: int,
    d: int = 50,
    rank: int = 4,
    n_subspaces: int = 5,
    per_subspace: int = 30,
    corrupt_frac: float = 0.2,
    noise_scale: float = 0.2,
) -> np.ndarray:
    """Columns drawn from a chain of rotated low-dimensional subspaces.

    The first basis is a random column-orthogonal ``d x rank`` matrix; each
    next basis is a random rotation of the previous one. A fraction of the
    columns is corrupted by Gaussian noise whose scale is
    ``noise_scale * ||column||`` (the source text reads "variance"; scale is
    the reading used here).
    """
    if not 0.0 <= corrupt_frac <= 1.0:
        raise ValueError("corrupt_frac is a fraction in [0, 1]")
    streams = np.random.SeedSequence(seed).spawn(3)
    rng = np.random.default_rng(streams[0])
    basis, _ = np.linalg.qr(rng.standard_normal((d, rank)))
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    cols = []
    for _ in range(n_subspaces):
        coeffs = rng.standard_normal((rank, per_subspace))
        cols.append(basis @ coeffs)
        basis = rotation @ basis
    X = np.hstack(cols)
    total = X.shape[1]
    n_bad = int(round(corrupt_frac * total))
    if n_bad > 0:
        rng_pick = np.random.default_rng(streams[1])
        rng_noise = np.random.default_rng(streams[2])
        bad = rng_pick.choice(total, size=n_bad, replace=False)
        for j in bad:
            scale = noise_scale * float(np.linalg.norm(X[:, j]))
            X[:, j] += scale * rng_noise.standard_normal(d)
    return X


# ---------------------------------------------------------------------------
# Manifest round-trip
# ---------------------------------------------------------------------------


def _subspace_from_meta(meta: dict) -> np.ndarray:
    return make_subspace_data(
        seed=int(meta["seed"]),
        d=int(meta.get("d", 50)),
        rank=int(meta.get("rank", 4)),
        n_subspaces=int(meta.get("n_subspaces", 5)),
        per_subspace=int(meta.get("per_subspace", 30)),
        corrupt_frac=float(meta.get("corrupt_frac", 0.2)),
    )


def from_manifest(meta: dict) -> ProblemSpec:
    """Rebuild a problem instance from flat manifest keys.

    The manifest records the generation recipe, not the data itself, so the
    rebuild is exact for a given seed.
    """
    name = meta.get("problem")
    if name in ("nnsc", "nnsc-noisy"):
        dims = None
        if meta.get("block_dims"):
            dims = tuple(int(v) for v in str(meta["block_dims"]).split(","))
        gen = DataGenSpec(
            seed=int(meta["seed"]),
            d=int(meta["d"]),
            n=int(meta["n"]),
            block_dims=dims,
            sparsity=float(meta.get("sparsity", 0.1)),
            noise_sigma=float(meta.get("noise_sigma", 0.0)),
        )
        if name == "nnsc":
            return build_nonneg_sparse_coding(gen)
        return build_nonneg_sparse_coding_noisy(gen, lam=float(meta.get("lam", 1.0)))
    if name in ("latlrr2", "latlrr3"):
        X = _subspace_from_meta(meta)
        spec = build_latent_lrr(
            X,
            lam=float(meta.get("lam", 0.1)),
            formulation="2-block" if name == "latlrr2" else "3-block",
        )
        spec.meta.update(meta)
        return spec
    if name == "lrr":
        X = _subspace_from_meta(meta)
        spec = build_lrr(X, X, lam=float(meta.get("lam", 0.1)))
        spec.meta.update(meta)
        return spec
    if name == "nmc":
        gen = DataGenSpec(
            seed=int(meta["seed"]),
            d=int(meta["d"]),
            n=int(meta["n"]),
            rank=int(meta.get("rank", 5)),
            obs_fraction=float(meta.get("obs_fraction", 0.6)),
            noise_sigma=float(meta.get("noise_sigma", 0.1)),
        )
        return build_nonneg_matrix_completion(gen, lam=float(meta.get("lam", 10.0)))
    raise ValueError(f"unknown problem name {name!r}; options: {PROBLEM_NAMES}")
