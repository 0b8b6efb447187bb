"""Benchmark problem builders and their synthetic data generators.

Every builder returns a :class:`ProblemSpec` wiring block terms, constraint
rows, an optional joint smooth term, and a recommended partition for the
solvers. Data generation is deterministic: one ``SeedSequence`` per problem
is split into per-block child streams (PCG64), so block ``i``'s draws do not
depend on how many other blocks exist before it is generated.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .blockspace import (
    BlockVector,
    DenseMatrixOp,
    DimensionError,
    LeftMultiplyOp,
    MaskProjectionOp,
    RightMultiplyOp,
    ScaledIdentityOp,
    _Layout,
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
    "MANIFEST_CASTS",
    "PROBLEM_NAMES",
]

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
        for name, least in (("seed", 0), ("d", 1), ("n", 1), ("rank", 1)):
            object.__setattr__(self, name, _whole(name, getattr(self, name), least))
        _check_fraction("sparsity", self.sparsity)
        _check_fraction("obs_fraction", self.obs_fraction, open_low=True)
        _check_scale("noise_sigma", self.noise_sigma)
        if self.block_dims is not None:
            dims = tuple(
                _whole(f"block_dims[{i}]", m, 1) for i, m in enumerate(self.block_dims)
            )
            if len(dims) != self.n:
                raise ValueError("need one dimension per block")
            object.__setattr__(self, "block_dims", dims)

    def dims(self) -> tuple:
        if self.block_dims is not None:
            return self.block_dims
        return tuple(10 * (i + 1) for i in range(self.n))


def _whole(name: str, value, least: int) -> int:
    """``value`` as an ``int``; it must be integral (``10.0`` but not
    ``2.5`` or ``True``) and at least ``least``."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    whole = int(value)
    if whole < least:
        raise ValueError(f"{name} must be at least {least}, got {whole}")
    return whole


def _check_fraction(name: str, value, open_low: bool = False) -> None:
    """A fraction is a real number, not ``bool``, in ``[0, 1]``, or in
    ``(0, 1]`` with ``open_low``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and (0.0 < value if open_low else 0.0 <= value) and value <= 1.0):
        interval = "(0, 1]" if open_low else "[0, 1]"
        raise ValueError(f"{name} is a fraction in {interval}, got {value!r}")


def _check_scale(name: str, value: float) -> None:
    """A noise scale must be finite and nonnegative."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def _check_lam(lam: float) -> None:
    """A builder's term weight ``lam`` must be finite and positive."""
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be positive and finite, got {lam}")


class ProblemSpec:
    """A linearly constrained block problem ready for the solvers.

    Parameters
    ----------
    name : str
    rows : sequence of (ops, rhs)
        Constraint rows; ``ops`` holds one operator or ``None`` per block.
        :func:`stack_rows` stacks them into ``family`` and ``b``, and
        ``family.rows`` keeps each row's operators.
    terms : sequence of ProxFunction or None
        Per-block objective terms.
    smooth : SmoothQuadCoupling, optional
        Joint smooth objective term across blocks; every solver kind but
        ``l-admm-ps`` replaces it by its gradient anchor plus certified
        quadratic.
    recommended_partition : Partition, optional
    meta : dict
        Flat manifest keys: the whole recipe for a generated instance, the
        builder's own keys for one built from given data.
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
        recommended_partition: Optional[Partition] = None,
        meta: Optional[dict] = None,
        data: Optional[dict] = None,
        suggested: Optional[dict] = None,
    ):
        self.name = name
        self.block_shapes = tuple(tuple(s) for s in block_shapes)
        self.terms = tuple(terms)
        self.smooth = smooth
        self.recommended_partition = recommended_partition
        self.meta = dict(meta or {})
        self.data = dict(data or {})
        self.suggested = dict(suggested or {})
        n = len(self.block_shapes)
        if len(self.terms) != n:
            raise ValueError("one term entry per block is required (use None)")
        if smooth is not None:
            if len(smooth.ops) != n:
                raise ValueError(
                    f"the smooth coupling has {len(smooth.ops)} operators for "
                    f"{n} blocks; give one per block (use None)"
                )
            for i, op in enumerate(smooth.ops):
                if op is not None and op.in_shape != self.block_shapes[i]:
                    raise DimensionError(
                        f"block {i}: smooth coupling operator takes shape "
                        f"{op.in_shape}, the block has shape {self.block_shapes[i]}"
                    )
        self.family, self.b = stack_rows(rows, self.block_shapes)
        acting = {i for row in self.family.rows for i, _ in row}
        for i in range(n):
            in_smooth = smooth is not None and smooth.ops[i] is not None
            if i not in acting and self.terms[i] is None and not in_smooth:
                raise ValueError(f"block {i} appears nowhere in the problem")
        # (first block, term, start, stop, shape) per run of back-to-back
        # blocks with equal entrywise terms, shape None; any other term is a
        # run of one block that keeps its shape.
        layout = _Layout(self.block_shapes)
        keys = [(t,) if t is not None and t.entrywise else None for t in self.terms]
        scored = [i for i, t in enumerate(self.terms) if t is not None]
        self._term_runs = tuple(
            (i, self.terms[i], start, stop, None if keys[i] else layout.shapes[i])
            for (i, *_), start, stop in layout.runs(scored, keys)
        )

    @property
    def n(self) -> int:
        return len(self.block_shapes)

    def objective(self, x: BlockVector, values: Optional[dict] = None) -> float:
        """Block terms plus the smooth term at ``x``.

        Each run of back-to-back blocks with equal entrywise terms is scored
        by one ``value`` call on its packed entries; any other term is a run
        of one, scored by its own call. ``values`` may map a block to its
        term's value at ``x`` (``None``: unknown), as ``solvers.run`` carries
        them from the proxes that produced ``x``; a run of one whose value is
        given then makes no call. Without ``values`` every term is scored
        from ``x``.
        """
        if x.shapes != self.block_shapes:
            raise DimensionError(
                f"blocks of shapes {x.shapes}, problem has {self.block_shapes}"
            )
        values = values or {}
        total = 0.0
        for i, term, start, stop, shape in self._term_runs:
            known = None if shape is None else values.get(i)
            if known is None:
                v = x.flat[start:stop]
                known = term.value(v if shape is None else v.reshape(shape))
            total += known
        if self.smooth is not None:
            total += self.smooth.value(x)
        return float(total)


# ---------------------------------------------------------------------------
# Nonnegative sparse coding
# ---------------------------------------------------------------------------


def build_nonneg_sparse_coding(gen: DataGenSpec) -> ProblemSpec:
    """``min sum_i ||x_i||_1 s.t. sum_i A_i x_i = y, x_i >= 0``.

    Entries of each ``A_i`` are i.i.d. standard normal; the planted point
    has ``sparsity * m_i`` nonzero entries per block and ``y`` is its image.
    """
    return _nnsc(gen)


def build_nonneg_sparse_coding_noisy(
    gen: DataGenSpec, lam: float = 1.0
) -> ProblemSpec:
    """Adds a free noise block: ``min sum_i ||x_i||_1 + lam ||e||_1``
    subject to ``sum_i A_i x_i + e = y``.

    The coding blocks reuse exactly the noiseless draws for the same seed;
    ``y`` picks up Gaussian noise with scale ``noise_sigma``.
    """
    _check_lam(lam)
    return _nnsc(gen, lam)


def _nnsc(gen: DataGenSpec, lam: Optional[float] = None) -> ProblemSpec:
    """The nnsc builders' body; a ``lam`` adds the noise block and its term.

    Block ``i`` draws from child stream ``i`` and the noise from stream
    ``n``; without a noise block ``y`` starts at zero.
    """
    streams = np.random.SeedSequence(gen.seed).spawn(gen.n + 1)
    if lam is None:
        y = np.zeros(gen.d)
    else:
        noise_rng = np.random.default_rng(streams[gen.n])
        y = gen.noise_sigma * noise_rng.standard_normal(gen.d)
    mats = []
    x_star = []
    for i, m in enumerate(gen.dims()):
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
    # Summed after the draws: a product inside the loop made the d=50
    # n=100 build about 15% slower.
    for M, x in zip(mats, x_star):
        y += M @ x
    ops = [DenseMatrixOp(M) for M in mats]
    terms = [ProxFunction("l1-nonneg", 1.0) for _ in mats]
    if lam is not None:
        ops.append(ScaledIdentityOp(1.0, (gen.d,)))
        terms.append(ProxFunction("l1", lam))
    data = {f"A_{i}": M for i, M in enumerate(mats)}
    data["y"] = y
    name = "nnsc" if lam is None else "nnsc-noisy"
    return ProblemSpec(
        name,
        [(tuple(ops), y)],
        [op.in_shape for op in ops],
        terms,
        meta=_manifest(name, gen, lam=lam),
        data=data,
    )


# ---------------------------------------------------------------------------
# Latent low-rank representation
# ---------------------------------------------------------------------------


def build_latent_lrr(
    X: np.ndarray, lam: float = 0.1, formulation: str = "3-block"
) -> ProblemSpec:
    """Latent low-rank representation of the columns of ``X``.

    2-block: ``min ||Z||_* + ||L||_* + (lam/2) ||X Z + L X - X||_F^2``
    subject to ``1^T Z = 1^T``, the quadratic kept as a joint smooth term.

    3-block: ``min ||Z||_* + ||L||_* + (lam/2) ||E||_F^2`` subject to
    ``1^T Z = 1^T`` and ``X Z + L X - E = X``, recommended super blocks
    ``{Z} | {L, E}``.
    """
    _check_lam(lam)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a matrix")
    d, n = X.shape
    ones_row = np.ones((1, n))
    z_shape, l_shape, e_shape = (n, n), (d, d), (d, n)
    data = {"X": X}
    if formulation == "2-block":
        rows = [((LeftMultiplyOp(ones_row, z_shape), None), ones_row)]
        smooth = SmoothQuadCoupling(
            lam,
            (LeftMultiplyOp(X, z_shape), RightMultiplyOp(X, l_shape)),
            offset=X,
        )
        return ProblemSpec(
            "latlrr2",
            rows,
            (z_shape, l_shape),
            (ProxFunction("nuclear", 1.0), ProxFunction("nuclear", 1.0)),
            smooth=smooth,
            meta={"lam": lam, "formulation": formulation, "problem": "latlrr2"},
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
                ScaledIdentityOp(-1.0, e_shape),
            ),
            X,
        ),
    ]
    terms = (
        ProxFunction("nuclear", 1.0),
        ProxFunction("nuclear", 1.0),
        ProxFunction("sq-frobenius", lam),
    )
    return ProblemSpec(
        "latlrr3",
        rows,
        (z_shape, l_shape, e_shape),
        terms,
        recommended_partition=Partition((0,), (1, 2), case="user"),
        meta={"lam": lam, "formulation": formulation, "problem": "latlrr3"},
        data=data,
    )


def build_lrr(X: np.ndarray, A_dict: np.ndarray, lam: float = 0.1) -> ProblemSpec:
    """Low-rank representation with column-sparse error.

    ``min ||J||_* + lam ||E||_{2,1}`` subject to ``X = A Z + E`` and
    ``Z = J``. The recommended super blocks ``{J, E} | {Z}`` make every
    update exact: prox steps for ``J`` and ``E``, one linear solve for ``Z``.
    """
    _check_lam(lam)
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
                ScaledIdentityOp(-1.0, j_shape),
                None,
                ScaledIdentityOp(1.0, z_shape),
            ),
            np.zeros(z_shape),
        ),
    ]
    terms = (ProxFunction("nuclear", 1.0), ProxFunction("l21", lam), None)
    return ProblemSpec(
        "lrr",
        rows,
        (j_shape, e_shape, z_shape),
        terms,
        recommended_partition=Partition((0, 1), (2,), case="user"),
        meta={"problem": "lrr", "lam": lam},
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
    _check_lam(lam)
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
                ScaledIdentityOp(-1.0, shape),
            ),
            np.zeros(shape),
        ),
    ]
    terms = (
        ProxFunction("nuclear", 1.0),
        ProxFunction("sq-frobenius", lam),
        ProxFunction("indicator-nonneg", 1.0),
    )
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
        meta=_manifest("nmc", gen, lam=lam),
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
    seed = _whole("seed", seed, 0)
    d = _whole("d", d, 1)
    rank = _whole("rank", rank, 1)
    n_subspaces = _whole("n_subspaces", n_subspaces, 1)
    per_subspace = _whole("per_subspace", per_subspace, 1)
    if rank > d:
        raise ValueError(f"rank must not exceed d={d}, got {rank}")
    _check_fraction("corrupt_frac", corrupt_frac)
    _check_scale("noise_scale", noise_scale)
    streams = np.random.SeedSequence(seed).spawn(3)
    rng = np.random.default_rng(streams[0])
    basis, _ = np.linalg.qr(rng.standard_normal((d, rank)))
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    total = n_subspaces * per_subspace
    X = np.empty((d, total))
    # Subspace k's coefficients are slab k of one draw, in stream order.
    coeffs = rng.standard_normal((n_subspaces, rank, per_subspace))
    for k in range(n_subspaces):
        if k:
            basis = rotation @ basis
        X[:, k * per_subspace : (k + 1) * per_subspace] = basis @ coeffs[k]
    n_bad = int(round(corrupt_frac * total))
    if n_bad > 0:
        rng_pick = np.random.default_rng(streams[1])
        rng_noise = np.random.default_rng(streams[2])
        bad = rng_pick.choice(total, size=n_bad, replace=False)
        # Row i of noise and cols belongs to column bad[i]. Each row of cols
        # is contiguous, so its 1 x d by d x 1 product is the unit-stride
        # BLAS ddot that np.linalg.norm takes of the column: the norms, and
        # so the instances, are bitwise those of a per-column loop.
        noise = rng_noise.standard_normal((n_bad, d))
        cols = np.ascontiguousarray(X.T[bad])
        sq = (cols[:, None, :] @ cols[:, :, None]).ravel()
        X.T[bad] = cols + (noise_scale * np.sqrt(sq))[:, None] * noise
    return X


# ---------------------------------------------------------------------------
# Manifest round-trip
# ---------------------------------------------------------------------------


def _dims(value) -> Optional[tuple]:
    return tuple(int(v) for v in str(value).split(",")) if value else None


# The manifest schema. ``MANIFEST_CASTS`` maps each key a recipe may set,
# besides ``problem`` and ``seed``, to its cast from manifest text. Per
# problem, ``_RECIPES`` names the keys it reads, in the order its manifest
# lists them, which of them have no default, and the keys its name fixes.
# ``lam`` and ``formulation`` go to the builder and the other keys to its
# data source; an absent key takes the default of the function it goes to.
MANIFEST_CASTS = {
    "d": int,
    "n": int,
    "block_dims": _dims,
    "sparsity": float,
    "noise_sigma": float,
    "lam": float,
    "rank": int,
    "obs_fraction": float,
    "n_subspaces": int,
    "per_subspace": int,
    "corrupt_frac": float,
}
_BUILDER_KEYS = ("lam", "formulation")
_SIZE = ("d", "n")
_LRR_KEYS = ("lam", "d", "rank", "n_subspaces", "per_subspace", "corrupt_frac")


@dataclass(frozen=True)
class _Recipe:
    build: Callable  # (seed, **keys) -> ProblemSpec
    keys: tuple
    required: tuple = ()
    implied: dict = field(default_factory=dict)


def _manifest(name: str, gen: DataGenSpec, **extra) -> dict:
    """The manifest of a generated problem: ``problem``, ``seed`` and each
    of ``name``'s keys, from ``extra`` or else from ``gen``."""
    keys = _RECIPES[name].keys
    extra["block_dims"] = ",".join(str(m) for m in gen.dims())
    return {
        "problem": name,
        "seed": gen.seed,
        **{k: extra[k] if k in extra else getattr(gen, k) for k in keys},
    }


def _generated(builder: Callable) -> Callable:
    """The builder on a ``DataGenSpec``, which records its own manifest."""

    def build(seed, **keys):
        own = {k: keys.pop(k) for k in _BUILDER_KEYS if k in keys}
        return builder(DataGenSpec(seed, **keys), **own)

    return build


def _on_subspaces(builder: Callable) -> Callable:
    """The builder on ``make_subspace_data``; the data keys join its meta."""

    def build(seed, **keys):
        own = {k: keys.pop(k) for k in _BUILDER_KEYS if k in keys}
        spec = builder(make_subspace_data(seed, **keys), **own)
        spec.meta.update(seed=seed, **keys)
        return spec

    return build


# Each rebuild looks its builder up when it runs, so a builder patched on
# this module (as the benchmark's tracer patches them) is the one called.
_LATLRR = _on_subspaces(lambda X, **own: build_latent_lrr(X, **own))
_RECIPES = {
    "nnsc": _Recipe(
        _generated(lambda gen, **own: build_nonneg_sparse_coding(gen, **own)),
        (*_SIZE, "block_dims", "sparsity"),
        _SIZE,
    ),
    "nnsc-noisy": _Recipe(
        _generated(lambda gen, **own: build_nonneg_sparse_coding_noisy(gen, **own)),
        (*_SIZE, "block_dims", "sparsity", "noise_sigma", "lam"),
        _SIZE,
    ),
    "latlrr2": _Recipe(_LATLRR, _LRR_KEYS, implied={"formulation": "2-block"}),
    "latlrr3": _Recipe(_LATLRR, _LRR_KEYS, implied={"formulation": "3-block"}),
    "lrr": _Recipe(_on_subspaces(lambda X, **own: build_lrr(X, X, **own)), _LRR_KEYS),
    "nmc": _Recipe(
        _generated(lambda gen, **own: build_nonneg_matrix_completion(gen, **own)),
        (*_SIZE, "rank", "obs_fraction", "noise_sigma", "lam"),
        _SIZE,
    ),
}
PROBLEM_NAMES = tuple(_RECIPES)


def from_manifest(meta: dict) -> ProblemSpec:
    """Rebuild a problem instance from flat manifest keys.

    The manifest records the generation recipe, not the data itself, so the
    rebuild is exact for a given seed. ``seed`` is always required, and
    ``d`` and ``n`` too for the generated problems; any other absent key
    takes the default of the function it is passed to. A key the problem
    does not read (``lam`` for nnsc, say) raises ``ValueError``, so a
    misspelled key cannot fall back to a default unnoticed; the latent LRR
    problems also accept the ``formulation`` their builder records, which
    must match the name. ``_RECIPES`` and ``MANIFEST_CASTS`` hold the keys
    and casts. The returned problem's ``meta`` is a manifest that rebuilds
    it, as ``mmadmm generate`` writes it.
    """
    name = meta.get("problem")
    if name not in _RECIPES:
        raise ValueError(f"unknown problem name {name!r}; options: {PROBLEM_NAMES}")
    recipe = _RECIPES[name]
    for key, value in recipe.implied.items():
        if meta.get(key, value) != value:
            raise ValueError(
                f"{key} {meta[key]!r} does not match "
                f"problem {name!r}, which is {value!r}"
            )
    accepted = {"problem", "seed", *recipe.keys, *recipe.implied}
    unknown = sorted(set(meta) - accepted)
    if unknown:
        raise ValueError(
            f"unknown manifest key(s) {unknown} for problem {name!r}; "
            f"accepted keys: {sorted(accepted)}"
        )
    seed = _cast(int, "seed", meta["seed"])
    keys = {
        k: _cast(MANIFEST_CASTS[k], k, meta[k])
        for k in recipe.keys
        if k in meta or k in recipe.required
    }
    return recipe.build(seed, **recipe.implied, **keys)


def _cast(cast: Callable, key: str, value):
    """``cast(value)``; a failed cast raises ``ValueError`` naming ``key``."""
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad value for {key!r}: {exc}") from None
