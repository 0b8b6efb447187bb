"""Proximal operators for every per-block subproblem used by the solvers.

All operators are exact closed forms. Thresholds may be scalars or, for the
entrywise operators, arrays broadcastable against the input, which lets
diagonal-quadratic subproblems reuse the same formulas entrywise. The
nuclear and ``l21`` operators take a matrix and one scalar threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "prox_l1",
    "prox_l1_nonneg",
    "prox_nuclear",
    "prox_l21",
    "project_nonneg",
    "ProxFunction",
]


def prox_l1(v: np.ndarray, t) -> np.ndarray:
    """Soft threshold: minimizes ``t ||x||_1 + 0.5 ||x - v||^2``.

    Ties at ``|v_j| = t`` resolve to exactly 0.
    """
    _check_threshold(t)
    return _shrink(np.asarray(v, dtype=float), t)


def prox_l1_nonneg(v: np.ndarray, t) -> np.ndarray:
    """Minimizes ``t ||x||_1 + 0.5 ||x - v||^2`` over ``x >= 0``."""
    _check_threshold(t)
    return _shrink_nonneg(np.asarray(v, dtype=float), t)


def _shrink(v: np.ndarray, t, out=None) -> np.ndarray:
    """``sign(v) max(|v| - t, 0)`` into ``out`` (which may be ``v``), one temporary."""
    mag = np.abs(v)
    mag -= t
    np.maximum(mag, 0.0, out=mag)
    return np.copysign(mag, v, out=mag if out is None else out)


def _shrink_nonneg(v: np.ndarray, t, out=None) -> np.ndarray:
    """``max(v - t, 0)`` into ``out`` (which may be ``v``), no temporary."""
    out = np.subtract(v, t, out=out)
    return np.maximum(out, 0.0, out=out)


def prox_nuclear(V: np.ndarray, t: float) -> np.ndarray:
    """Singular value thresholding: minimizes ``t ||X||_* + 0.5 ||X - V||_F^2``."""
    _check_scalar_threshold(t, "nuclear")
    return _svt(np.asarray(V, dtype=float), t)[0]


_EPS = float(np.finfo(float).eps)
# Below this ``t^2``, underflow in squaring entries could exceed the zero
# test's margin, so :func:`_svt` takes the SVD.
_SQ_MIN = float(np.finfo(float).tiny) / _EPS
# The largest ``eps ||V||_F / t`` for which :func:`_svt` squares ``V``.
_GRAM_RTOL = 1e-12


def _svt(V: np.ndarray, t: float):
    """``(X, s)``: the thresholded matrix and its nonzero singular values.

    ``X = U diag(max(s_V - t, 0)) W^T`` for the SVD ``V = U diag(s_V) W^T``,
    and ``s`` holds the kept ``s_V - t``. Three paths, each making at most
    one factorization when it succeeds:

    * **Zero.** When ``||V||_F <= t`` every ``s_V <= ||V||_F`` is
      thresholded away, so ``X = 0`` exactly and ``s`` is empty. The test
      ``f <= t^2 (1 - 2 (N + 2) eps)``, with ``f`` the computed
      ``||V||_F^2`` over ``N`` entries, is never passed when ``X != 0``:
      ``f >= (1 - gamma_N) ||V||_F^2`` with ``gamma_N = N u / (1 - N u)
      <= 2 N u`` and ``u = eps / 2``, whatever the summation order, less
      at most ``N 2^-1075 <= 2 N u^2 t^2`` of underflow (``t^2 >=
      _SQ_MIN``, else this path is not taken); and the right side, three
      roundings of ``t^2 (1 - 4 (N + 2) u)``, is at most ``t^2 (1 + 4u)(1
      - 4 (N + 2) u) <= t^2 (1 - 4 N u - 4u)``. Hence ``(1 - 2 N u)
      ||V||_F^2 <= t^2 (1 - 4 N u - 4u + 2 N u^2) <= t^2 (1 - 2 N u)``.
    * **Gram.** Otherwise, while ``eps ||V||_F / t <= _GRAM_RTOL``, take
      ``eigh`` of the smaller Gram, ``V^T V = W diag(w) W^T`` for a tall
      ``V`` (the mirror image for a wide one), set ``s_V = sqrt(max(w, 0))``
      and form ``X = V W_k diag((s_k - t) / s_k) W_k^T`` over the kept
      ``s_k > t``. Error bound: forming the Gram errs by at most
      ``gamma_m ||V||_F^2`` in Frobenius norm, and ``eigh`` is backward
      stable, so the computed pairs are exact for ``V^T V + E`` with
      ``||E||_F <= p u ||V||_F^2`` for a modest polynomial ``p`` in the
      sizes. ``X = V f(V^T V)`` with ``f(l) = max(1 - t / sqrt(l), 0)``. In
      the singular basis, a change ``E`` of the Gram changes ``X`` to first
      order by ``U (S F o W^T E W) W^T``, where ``F_ij`` is the divided
      difference ``f[s_i^2, s_j^2]``, and ``|s_i F_ij| <= 1 / (2t)`` for
      all ``i, j``: for ``s_i, s_j > t`` it is ``t / (s_j (s_i + s_j))``;
      for ``s_j <= t < s_i`` it is ``(s_i - t) / (s_i^2 - s_j^2) <= 1 /
      (s_i + t)``, and with the roles swapped ``s_j (s_i - t) / (s_i
      (s_i^2 - s_j^2)) <= t / (s_i (s_i + t))``, both below ``1 / (2t)``;
      for ``s_i, s_j <= t`` it is 0. So, to first order and up to the
      rounding of the two products, ``||X_computed - X||_F <= ||E||_F /
      (2t) <= (p / 4) eps ||V||_F^2 / t``, which is ``(p / 4) _GRAM_RTOL``
      relative to ``||V||_F``. By Weyl, each kept value errs by at most
      ``||E||_2 / t``, and a value near ``t`` that is wrongly kept or
      dropped weighs no more than that.
    * **SVD.** Otherwise, on non-finite input (its ``||V||_F^2`` is not a
      number the comparisons pass), or when ``eigh`` raises: the thin SVD,
      by ``gesdd`` and then ``gesvd``.
    """
    _check_matrix(V, "nuclear")
    t_sq = t * t
    if t_sq >= _SQ_MIN:
        fro_sq = float(np.vdot(V, V))
        if fro_sq <= t_sq * (1.0 - 2.0 * (V.size + 2) * _EPS):
            return np.zeros_like(V), np.zeros(0)
        if _EPS * math.sqrt(fro_sq) <= _GRAM_RTOL * t:
            try:
                return _svt_gram(V, t)
            except np.linalg.LinAlgError:
                pass
    try:
        U, s, Wt = _svd(V)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "SVD failed in singular value thresholding; matrix has "
            f"shape {V.shape}, max |entry| {np.max(np.abs(V)):.3e}, "
            f"any non-finite: {bool(~np.all(np.isfinite(V)))}"
        ) from exc
    keep = s > t
    s = s[keep] - t
    return (U[:, keep] * s) @ Wt[keep], s


def _svt_gram(V: np.ndarray, t: float):
    """:func:`_svt`'s Gram path: ``eigh`` of the smaller of ``V^T V``, ``V V^T``."""
    tall = V.shape[0] >= V.shape[1]
    w, W = np.linalg.eigh(V.T @ V if tall else V @ V.T)
    s = np.sqrt(np.maximum(w, 0.0))
    keep = s > t
    s, W = s[keep], W[:, keep]
    kept = s - t
    scaled = W * (kept / s)
    X = (V @ scaled) @ W.T if tall else scaled @ (W.T @ V)
    return X, kept


def _nuclear_value(weight: float, s: np.ndarray) -> float:
    """``weight * ||X||_*`` from the singular values ``s`` of ``X``."""
    return weight * float(np.sum(s))


def _svd(V: np.ndarray, compute_uv: bool = True):
    """Thin SVD by LAPACK ``gesdd``, retried with ``gesvd`` if it fails to converge.

    A failure of the retry, or of ``gesdd`` on non-finite input, raises
    ``LinAlgError``.
    """
    try:
        return np.linalg.svd(V, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        if not np.all(np.isfinite(V)):
            raise
        return scipy.linalg.svd(
            V,
            full_matrices=False,
            compute_uv=compute_uv,
            check_finite=False,
            lapack_driver="gesvd",
        )


def prox_l21(V: np.ndarray, t: float) -> np.ndarray:
    """Columnwise group soft threshold: minimizes ``t ||X||_{2,1} + 0.5 ||X - V||_F^2``."""
    _check_scalar_threshold(t, "l21")
    V = np.asarray(V, dtype=float)
    _check_matrix(V, "l21")
    norms = np.linalg.norm(V, axis=0)
    scale = np.zeros_like(norms)
    nz = norms > 0.0
    scale[nz] = np.maximum(1.0 - t / norms[nz], 0.0)
    return V * scale[None, :]


def project_nonneg(v: np.ndarray, out=None) -> np.ndarray:
    """Componentwise ``max(v, 0)``; normalizes ``-0.0`` to ``+0.0``.

    ``out``, when given, receives the result; it may be ``v`` itself.
    """
    out = np.maximum(np.asarray(v, dtype=float), 0.0, out=out)
    out += 0.0
    return out


def _check_threshold(t) -> bool:
    """Reject a threshold that is NaN or not positive (in any entry).

    Returns whether ``t`` is a scalar.
    """
    scalar = isinstance(t, float) or np.isscalar(t)
    if not (t > 0 if scalar else np.all(np.asarray(t) > 0)):
        raise ValueError(f"threshold must be positive, got {float(np.min(t))}")
    return scalar


def _check_scalar_threshold(t, kind: str) -> None:
    """Reject a threshold that is not one positive number."""
    if not _check_threshold(t):
        raise ValueError(f"{kind} prox needs a scalar threshold")


def _check_matrix(V: np.ndarray, kind: str) -> None:
    """Reject an input that is not a matrix."""
    if V.ndim != 2:
        raise ValueError(f"{kind} prox needs a matrix, got shape {V.shape}")


_ENTRYWISE_KINDS = frozenset(
    {"l1", "l1-nonneg", "sq-frobenius", "indicator-nonneg", "zero"}
)
_ALL_KINDS = _ENTRYWISE_KINDS | {"nuclear", "l21"}


@dataclass(frozen=True)
class ProxFunction:
    """A weighted convex term ``weight * g(x)`` with a closed-form prox.

    kind:
        ``l1``               ``||x||_1``
        ``l1-nonneg``        ``||x||_1`` plus the nonnegativity indicator
        ``nuclear``          ``||X||_*``
        ``sq-frobenius``     ``(1/2) ||x||^2`` (weight plays the role of lambda)
        ``l21``              sum of column 2-norms
        ``indicator-nonneg`` 0 on ``x >= 0``, infinity elsewhere
        ``zero``             identically 0
    """

    kind: str
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown prox kind {self.kind!r}")
        if isinstance(self.weight, (bool, np.bool_)):
            raise ValueError(f"weight must be a number, got {self.weight!r}")
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(
                f"weight must be finite and nonnegative, got {self.weight}"
            )

    @property
    def entrywise(self) -> bool:
        """Whether the prox separates over entries (diagonal solves allowed)."""
        return self.kind in _ENTRYWISE_KINDS

    def value(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        if self.kind == "zero" or self.weight == 0.0 and self.kind not in (
            "indicator-nonneg",
            "l1-nonneg",
        ):
            return 0.0
        if self.kind == "l1":
            return self.weight * float(np.sum(np.abs(v)))
        if self.kind == "l1-nonneg":
            if np.any(v < 0.0):
                return float("inf")
            return self.weight * float(np.sum(v))
        if self.kind == "nuclear":
            return _nuclear_value(self.weight, _svd(v, compute_uv=False))
        if self.kind == "sq-frobenius":
            return 0.5 * self.weight * float(np.vdot(v, v))
        if self.kind == "l21":
            return self.weight * float(np.sum(np.linalg.norm(v, axis=0)))
        if np.any(v < 0.0):
            return float("inf")
        return 0.0

    def prox(self, v: np.ndarray, t, out=None, return_value: bool = False):
        """Minimize ``t * weight * g(x) + 0.5 ||x - v||^2``.

        ``t`` must be positive; it may be an array (entrywise kinds only), in
        which case entry j solves its own scalar subproblem with threshold
        ``t_j * weight``. A zero weight leaves ``v`` unchanged, or projects
        it for the nonnegative kinds. ``out``, when given, receives the
        result; it may be ``v`` itself, and entrywise kinds of weight 1 then
        make no fresh full-size arrays.

        With ``return_value``, returns ``(x, value)``: ``value`` is the
        term's value at ``x`` where the prox knows it, else ``None``. Only
        singular value thresholding does: the singular values of ``x`` are
        ``max(s - t weight, 0)``, so a nuclear term of positive weight
        gives ``weight`` times their sum, :meth:`value` of ``x`` up to
        rounding, without a second SVD.
        """
        v = np.asarray(v, dtype=float)
        if not _check_threshold(t):
            if not self.entrywise:
                raise ValueError(f"{self.kind} prox needs a scalar threshold")
            t = np.asarray(t, dtype=float)
        value = None
        if self.kind == "indicator-nonneg" or (
            self.kind == "l1-nonneg" and self.weight == 0.0
        ):
            x = project_nonneg(v, out)
        elif self.kind == "zero" or self.weight == 0.0:
            x = v if out is not None else v.copy()
        else:
            tw = t if self.weight == 1.0 else t * self.weight
            if self.kind == "l1":
                x = _shrink(v, tw, out)
            elif self.kind == "l1-nonneg":
                x = _shrink_nonneg(v, tw, out)
            elif self.kind == "sq-frobenius":
                # min (tw/2) x^2 + (1/2)(x - v)^2  =>  x = v / (1 + tw)
                x = np.divide(v, 1.0 + tw, out=out)
            elif self.kind == "nuclear":
                x, s = _svt(v, tw)
                value = _nuclear_value(self.weight, s)
            else:
                x = prox_l21(v, tw)
        if out is not None and x is not out:
            out[...] = x
            x = out
        return (x, value) if return_value else x
