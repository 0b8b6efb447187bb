"""Variable-partition heuristics for the two-super-block solvers.

Three strategies split the ``n`` blocks into super blocks ``B1`` (updated
first) and ``B2`` (updated second): a sort-and-scan heuristic minimizing the
combined parallelization penalty ``L_B1 + L_B2``, an orthogonality-based
split via two-coloring of the non-orthogonality graph, and a hybrid that
contracts orthogonal subgroups before scanning. :func:`choose_partition`
maps a choice by name (or a first-block size) to one of them; the solvers
and the CLI both resolve ``"auto"`` through it.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .blockspace import (
    BlockOperatorFamily,
    DenseMatrixOp,
    combined_op_norm_sq,
    dense_norm_sq,
    gram_cross_is_zero,
)

__all__ = [
    "Partition",
    "best_prefix",
    "choose_partition",
    "case1_partition",
    "case1_scan",
    "case2_partition",
    "case3_partition",
]


@dataclass(frozen=True)
class Partition:
    """A two-super-block split of blocks ``0..n-1``.

    ``b1`` may be empty (the all-parallel degenerate case); ``b1`` and ``b2``
    are disjoint and together cover all blocks. ``score`` is the
    ``L_B1 + L_B2`` value for sort-and-scan partitions, ``None`` otherwise.
    ``case`` tags the originating strategy: ``I``, ``II``, ``III``, or
    ``user``.
    """

    b1: tuple
    b2: tuple
    case: str = "user"
    score: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "b1", tuple(self.b1))
        object.__setattr__(self, "b2", tuple(self.b2))
        overlap = set(self.b1) & set(self.b2)
        if overlap:
            raise ValueError(f"blocks {sorted(overlap)} appear in both super blocks")
        if len(set(self.b1)) != len(self.b1) or len(set(self.b2)) != len(self.b2):
            raise ValueError("duplicate block index inside a super block")

    @property
    def n(self) -> int:
        return len(self.b1) + len(self.b2)

    def covers(self, n: int) -> bool:
        return set(self.b1) | set(self.b2) == set(range(n))

    def side_of(self, i: int) -> int:
        """1 or 2 according to the super block holding block ``i``."""
        if i in self.b1:
            return 1
        if i in self.b2:
            return 2
        raise KeyError(f"block {i} is not in the partition")


def _penalty(count: int, norm_sum: float) -> float:
    return (count - 1) * norm_sum


# Largest prefix whose case-I score takes the combined-norm footnote term.
_FOOTNOTE_MAX = 3


def case1_scan(
    norms_sq: Sequence[float], A: Optional[BlockOperatorFamily] = None
) -> tuple:
    """Score every prefix split of the descending-norm order.

    Returns ``(order, scores)`` where ``order`` lists block indices sorted by
    norm descending (ties stable by index) and ``scores[k]`` is
    ``L_B1 + L_B2`` for ``n1 = k + 1``. ``L_B1`` uses
    ``(n1 - 1) * sum - ||A_B1||^2`` with the combined-norm refinement applied
    only when ``A`` is supplied and ``n1 <= 3`` (the term is
    dropped for larger prefixes), and ``L_B2 = (n2 - 1) * sum``.
    ``||A_B1||^2`` is :func:`dense_norm_sq` of the prefix's matrices,
    stacked side by side, when every operator in the prefix is a
    :class:`DenseMatrixOp` (of one block, its cached ``op_norm_sq``), and
    :func:`combined_op_norm_sq` otherwise.
    """
    norms = [float(v) for v in norms_sq]
    n = len(norms)
    if n == 0:
        raise ValueError("at least one block norm is required")
    if any(v < 0 for v in norms):
        raise ValueError("squared norms must be nonnegative")
    order = sorted(range(n), key=lambda i: (-norms[i], i))
    total = sum(norms)
    scores = []
    prefix = 0.0
    for k, idx in enumerate(order):
        n1 = k + 1
        prefix += norms[idx]
        l_b1 = _penalty(n1, prefix)
        if A is not None and n1 <= _FOOTNOTE_MAX:
            l_b1 -= _prefix_norm_sq(A, order[:n1])
        l_b2 = _penalty(n - n1, total - prefix)
        scores.append(l_b1 + l_b2)
    return tuple(order), tuple(scores)


def _prefix_norm_sq(A: BlockOperatorFamily, indices: Sequence[int]) -> float:
    ops = [A.operators[i] for i in indices]
    if not all(isinstance(op, DenseMatrixOp) for op in ops):
        return combined_op_norm_sq(A, indices)
    if len(ops) == 1:
        return ops[0].op_norm_sq  # dense_norm_sq of its matrix, kept on op
    return dense_norm_sq(*(op.matrix for op in ops))


def best_prefix(order: Sequence[int], scores: Sequence[float]) -> Partition:
    """The case-I split of a :func:`case1_scan` result ``(order, scores)``.

    ``B1`` is the prefix of ``order`` with the smallest score (ties favor
    the smallest ``n1``) and ``B2`` the rest.
    """
    best = min(range(len(scores)), key=lambda k: (scores[k], k))
    n1 = best + 1
    b1 = tuple(sorted(order[:n1]))
    b2 = tuple(sorted(order[n1:]))
    return Partition(b1, b2, case="I", score=scores[best])


def case1_partition(
    norms_sq: Sequence[float],
    A: Optional[BlockOperatorFamily] = None,
) -> Partition:
    """Sort blocks by ``||A_i||_2^2`` descending and pick the best prefix.

    Scans ``n1 = 1..n`` over the sorted order and returns the split with the
    smallest ``L_B1 + L_B2`` (ties favor the smallest ``n1``).
    """
    if len(norms_sq) < 2:
        raise ValueError("partitioning needs at least two blocks")
    return best_prefix(*case1_scan(norms_sq, A))


def _nonorthogonality_edges(A: BlockOperatorFamily) -> list:
    # Blocks that share no row of the family are orthogonal by construction.
    adj = [set() for _ in range(A.n)]
    shared = {(i, j) for row in A.rows for i, _ in row for j, _ in row if i < j}
    for i, j in sorted(shared):
        if not gram_cross_is_zero(A.operators[i], A.operators[j]):
            adj[i].add(j)
            adj[j].add(i)
    return adj


def case2_partition(A: BlockOperatorFamily) -> Optional[Partition]:
    """Two-color the non-orthogonality graph when it is bipartite.

    Blocks ``i`` and ``j`` are adjacent when ``A_i^T A_j != 0``. A valid
    two-coloring yields super blocks whose within-group cross Grams all
    vanish, so each phase solves its blocks exactly in parallel. Returns
    ``None`` when the graph contains an odd cycle. Isolated blocks are
    spread across the two sides to balance their sizes.
    """
    n = A.n
    if n < 2:
        raise ValueError("partitioning needs at least two blocks")
    adj = _nonorthogonality_edges(A)
    color = [-1] * n
    sides = ([], [])
    for start in range(n):
        if color[start] >= 0:
            continue
        if not adj[start]:
            # Isolated block: place on the currently smaller side.
            side = 0 if len(sides[0]) <= len(sides[1]) else 1
            color[start] = side
            sides[side].append(start)
            continue
        component = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in sorted(adj[u]):
                if v not in component:
                    component[v] = component[u] ^ 1
                    queue.append(v)
                elif component[v] == component[u]:
                    return None
        # The class containing the component's lowest index goes to the
        # currently smaller side (ties to side 1).
        side = 0 if len(sides[0]) <= len(sides[1]) else 1
        for v, c in component.items():
            color[v] = side if c == 0 else side ^ 1
            sides[color[v]].append(v)
    return Partition(
        tuple(sorted(sides[0])), tuple(sorted(sides[1])), case="II"
    )


def case3_partition(A: BlockOperatorFamily) -> Partition:
    """Contract orthogonal subgroups, then run the sort-and-scan heuristic.

    Greedily groups blocks into pairwise-orthogonal subgroups (first-fit in
    index order), keeps each subgroup whole inside one super block, and
    scores supernodes with norm equal to the largest member norm and an
    effective block count of one. When every subgroup is a singleton this
    reduces to the plain sort-and-scan heuristic on the original blocks.
    """
    n = A.n
    if n < 2:
        raise ValueError("partitioning needs at least two blocks")
    adj = _nonorthogonality_edges(A)
    groups: list = []
    for i in range(n):
        placed = False
        for g in groups:
            if all(j not in adj[i] for j in g):
                g.append(i)
                placed = True
                break
        if not placed:
            groups.append([i])
    norms = [op.op_norm_sq for op in A.operators]
    if all(len(g) == 1 for g in groups):
        inner = case1_partition(norms, A)
        return Partition(inner.b1, inner.b2, case="III", score=inner.score)
    super_norms = [max(norms[i] for i in g) for g in groups]
    split = best_prefix(*case1_scan(super_norms))
    b1 = sorted(i for g in split.b1 for i in groups[g])
    b2 = sorted(i for g in split.b2 for i in groups[g])
    return Partition(b1, b2, case="III", score=split.score)


def choose_partition(problem, choice: str = "auto", n1: Optional[int] = None):
    """The partition a user asks for by name.

    ``n1`` takes the first ``n1`` blocks of the case-I order (descending
    ``||A_i||^2``) as the first super block. Otherwise ``choice`` is
    ``"auto"``, the problem's recommended partition or else the case-I
    split; or ``"case1"``, ``"case2"`` or ``"case3"``, the heuristic of that
    name. Raises ``ValueError`` for an unknown choice, an ``n1`` that is
    not an integer in ``[1, n]``, a case-II request without a two-coloring,
    or ``"auto"`` on one block.
    """
    A = problem.family
    n = A.n
    if n1 is not None:
        if isinstance(n1, bool) or not isinstance(n1, numbers.Integral):
            raise ValueError(f"n1 must be an integer, got {n1!r}")
        if not 1 <= n1 <= n:
            raise ValueError(f"n1 must lie in [1, {n}]")
        # The order alone needs no footnote term: take it from the norms.
        order, _ = case1_scan(list(A.norms_sq()))
        return Partition(tuple(sorted(order[:n1])), tuple(sorted(order[n1:])))
    if choice == "auto":
        if problem.recommended_partition is not None:
            return problem.recommended_partition
        if n < 2:
            raise ValueError(
                f"cannot choose a partition for {n} block; "
                "pass a Partition, such as Partition((0,), ())"
            )
        choice = "case1"
    if choice == "case1":
        return case1_partition(list(A.norms_sq()), A)
    if choice == "case2":
        part = case2_partition(A)
        if part is None:
            raise ValueError("no two-coloring split exists for this problem")
        return part
    if choice == "case3":
        return case3_partition(A)
    raise ValueError(f"unknown partition choice {choice!r}")
