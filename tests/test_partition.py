"""Partition heuristics: scan scores, two-coloring, subgroup contraction."""

import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mmadmm.blockspace import (
    BlockOperatorFamily,
    DenseMatrixOp,
    ScaledIdentityOp,
    combined_op_norm_sq,
    dense_norm_sq,
    gram_cross_is_zero,
)
from mmadmm import partition
from mmadmm.partition import (
    Partition,
    best_prefix,
    case1_partition,
    case1_scan,
    case2_partition,
    case3_partition,
    choose_partition,
)
from mmadmm.problems import (
    DataGenSpec,
    build_latent_lrr,
    build_lrr,
    build_nonneg_matrix_completion,
    build_nonneg_sparse_coding,
    build_nonneg_sparse_coding_noisy,
    make_subspace_data,
)

from helpers import l1_toy, quad_problem


def _column_op(col, d=4):
    """A d x 1 dense block supported on the given coordinates."""
    m = np.zeros((d, 1))
    for i, v in col:
        m[i, 0] = v
    return DenseMatrixOp(m)


class TestPartitionContainer:
    def test_basic_properties(self):
        p = Partition((0, 2), (1, 3), case="I", score=5.0)
        assert p.n == 4
        assert p.covers(4)
        assert not p.covers(5)
        assert p.side_of(0) == 1
        assert p.side_of(3) == 2
        with pytest.raises(KeyError):
            p.side_of(7)

    def test_empty_first_side_allowed(self):
        p = Partition((), (0, 1))
        assert p.n == 2
        assert p.side_of(0) == 2

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Partition((0, 1), (1, 2))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Partition((0, 0), (1,))

    @pytest.mark.parametrize(
        "b1, b2, side, bad",
        [
            ((0.5,), (1,), "b1", 0.5),
            ((-1,), (0,), "b1", -1),
            (("a",), (0,), "b1", "a"),
            # True == 1, so this one would cover 4 blocks.
            ((True, 2), (0, 3), "b1", True),
            ((0,), (1, np.int64(-2)), "b2", np.int64(-2)),
        ],
        ids=["fraction", "negative", "string", "bool", "numpy-negative"],
    )
    def test_non_index_rejected_naming_side_and_value(self, b1, b2, side, bad):
        message = f"^{side} holds {re.escape(repr(bad))}, not a block index"
        with pytest.raises(ValueError, match=message):
            Partition(b1, b2)

    def test_numpy_indices_stored_as_int(self):
        p = Partition(np.array([0, 2]), (np.int32(1), np.uint8(3)))
        assert p == Partition((0, 2), (1, 3))
        assert all(type(i) is int for i in p.b1 + p.b2)


class TestScan:
    def test_hand_example(self):
        order, scores = case1_scan([4.0, 3.0, 2.0, 1.0])
        assert order == (0, 1, 2, 3)
        assert scores == (12.0, 10.0, 18.0, 30.0)

    def test_order_sorts_descending(self):
        order, scores = case1_scan([1.0, 2.0, 3.0, 4.0])
        assert order == (3, 2, 1, 0)
        assert scores == (12.0, 10.0, 18.0, 30.0)

    def test_ties_stable_by_index(self):
        order, _ = case1_scan([2.0, 2.0, 1.0, 2.0])
        assert order == (0, 1, 3, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            case1_scan([])
        with pytest.raises(ValueError):
            case1_scan([1.0, -0.5])

    def test_combined_norm_refinement_small_prefixes(self):
        rng = np.random.default_rng(70)
        ops = tuple(DenseMatrixOp(rng.standard_normal((6, 2))) for _ in range(5))
        A = BlockOperatorFamily(ops, (6,))
        norms = [op.op_norm_sq for op in ops]
        order, scores = case1_scan(norms, A)
        total = sum(float(v) for v in norms)
        prefix = 0.0
        n = len(norms)
        for k, idx in enumerate(order):
            n1 = k + 1
            prefix += float(norms[idx])
            want = (n1 - 1) * prefix + (n - n1 - 1) * (total - prefix)
            if n1 <= 3:
                want -= dense_norm_sq(np.hstack([ops[i].matrix for i in order[:n1]]))
            assert scores[k] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_refinement_against_dense_stack(self):
        rng = np.random.default_rng(71)
        mats = [rng.standard_normal((6, 2)) for _ in range(3)]
        ops = tuple(DenseMatrixOp(m) for m in mats)
        A = BlockOperatorFamily(ops, (6,))
        norms = [op.op_norm_sq for op in ops]
        order, scores = case1_scan(norms, A)
        _, plain = case1_scan(norms)
        for k in range(2):
            stacked = np.hstack([mats[i] for i in order[: k + 1]])
            exact = np.linalg.svd(stacked, compute_uv=False)[0] ** 2
            drop = plain[k] - scores[k]
            assert drop == pytest.approx(exact, rel=1e-5)
            assert drop >= exact * (1 - 1e-12)

    def test_footnote_max_limits_refinement(self):
        # Only the first three prefixes take the footnote term.
        rng = np.random.default_rng(72)
        ops = tuple(DenseMatrixOp(rng.standard_normal((6, 2))) for _ in range(5))
        A = BlockOperatorFamily(ops, (6,))
        norms = [op.op_norm_sq for op in ops]
        _, refined = case1_scan(norms, A)
        _, plain = case1_scan(norms)
        assert all(refined[k] < plain[k] for k in range(3))
        assert refined[3] == plain[3]
        assert refined[4] == plain[4]

    @staticmethod
    def _footnotes(monkeypatch):
        """Record each footnote route's calls as ``(route, indices, value)``."""
        seen = []

        def recording(route, footnote, key):
            def recorded(*args, **kwargs):
                value = footnote(*args, **kwargs)
                seen.append((route, key(*args), value))
                return value

            return recorded

        monkeypatch.setattr(partition, "dense_norm_sq", recording(
            "gram", partition.dense_norm_sq, lambda *Ms: [M.shape for M in Ms]))
        monkeypatch.setattr(partition, "combined_op_norm_sq", recording(
            "power", partition.combined_op_norm_sq, lambda A, idx: list(idx)))
        return seen

    def test_footnote_is_the_stacked_norm_on_nnsc(self, monkeypatch):
        problem = build_nonneg_sparse_coding(DataGenSpec(0, d=50, n=100))
        A = problem.family
        seen = self._footnotes(monkeypatch)
        footnotes, prefix_norm_sq = [], partition._prefix_norm_sq

        def recorded(A, indices):
            footnotes.append(prefix_norm_sq(A, indices))
            return footnotes[-1]

        monkeypatch.setattr(partition, "_prefix_norm_sq", recorded)
        order, _ = case1_scan(list(A.norms_sq()), A)
        # The one-block prefix reads its block's certificate.
        assert [route for route, _, _ in seen] == ["gram"] * 2
        assert footnotes[0] == A.operators[order[0]].op_norm_sq
        for n1, value in enumerate(footnotes, start=1):
            stacked = np.hstack([A.operators[i].matrix for i in order[:n1]])
            top = scipy.linalg.svd(stacked, compute_uv=False, lapack_driver="gesvd")
            exact = top[0] ** 2
            assert exact <= value <= exact * (1 + 1e-12)

    def test_prefix_with_a_non_dense_operator_takes_the_power_iteration(
        self, monkeypatch
    ):
        # Norms 9, 4, 2.25, 1: the identity is third in the case-I order.
        cols = [np.zeros((4, 1)) for _ in range(3)]
        for j, v in enumerate((3.0, 2.0, 1.0)):
            cols[j][j, 0] = v
        ops = (
            DenseMatrixOp(cols[0]),
            DenseMatrixOp(cols[1]),
            ScaledIdentityOp(1.5, (4,)),
            DenseMatrixOp(cols[2]),
        )
        A = BlockOperatorFamily(ops, (4,))
        seen = self._footnotes(monkeypatch)
        order, _ = case1_scan([op.op_norm_sq for op in ops], A)
        assert order == (0, 1, 2, 3)
        assert [(route, key) for route, key, _ in seen] == [
            ("gram", [(4, 1), (4, 1)]),
            ("power", [0, 1, 2]),
        ]
        assert seen[1][2] == combined_op_norm_sq(A, [0, 1, 2])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_footnote_reads_the_prefix_in_place_on_nnsc(self, seed):
        # No prefix is formed: each footnote is bitwise the certificate of
        # the formed stack, a one-block prefix's its block's certificate.
        spec = DataGenSpec(seed, sparsity=0.1, d=50, n=100)
        A = build_nonneg_sparse_coding(spec).family
        order, _ = case1_scan(list(A.norms_sq()), A)
        for n1 in (1, 2, 3):
            stacked = np.hstack([A.operators[i].matrix for i in order[:n1]])
            got = partition._prefix_norm_sq(A, order[:n1])
            assert got == dense_norm_sq(stacked)


class TestCase1Partition:
    def test_hand_example(self):
        p = case1_partition([4.0, 3.0, 2.0, 1.0])
        assert p.b1 == (0, 1)
        assert p.b2 == (2, 3)
        assert p.case == "I"
        assert p.score == 10.0

    def test_ties_prefer_smaller_first_side(self):
        p = case1_partition([0.0, 0.0])
        assert p.b1 == (0,)
        assert p.b2 == (1,)

    def test_best_prefix_of_a_scan(self):
        norms = [4.0, 3.0, 2.0, 1.0]
        assert best_prefix(*case1_scan(norms)) == case1_partition(norms)
        # The lowest score wins, a tie going to the shorter prefix.
        got = best_prefix((2, 0, 1), (5.0, 1.0, 1.0))
        assert got == Partition((0, 2), (1,), case="I", score=1.0)

    def test_needs_two_blocks(self):
        with pytest.raises(ValueError):
            case1_partition([1.0])

    def test_matches_exhaustive_prefix_search(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            norms = rng.uniform(0.0, 10.0, size=n).tolist()
            p = case1_partition(norms)
            order = sorted(range(n), key=lambda i: (-norms[i], i))
            total = sum(norms)
            best_k, best_score = None, None
            prefix = 0.0
            for k in range(n):
                prefix += norms[order[k]]
                score = k * prefix + (n - k - 2) * (total - prefix)
                if best_score is None or score < best_score:
                    best_k, best_score = k, score
            assert len(p.b1) == best_k + 1
            assert p.score == best_score
            assert p.covers(n)
            assert p.b1 == tuple(sorted(order[: best_k + 1]))

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=2,
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_partition_invariants(self, norms):
        p = case1_partition(norms)
        n = len(norms)
        assert p.covers(n)
        assert 1 <= len(p.b1) <= n
        assert set(p.b1) & set(p.b2) == set()
        order, scores = case1_scan(norms)
        assert p.score == min(scores)


class TestCase2Partition:
    def test_path_graph_two_coloring(self):
        ops = (
            _column_op([(0, 1.0)]),
            _column_op([(0, 1.0), (1, 1.0)]),
            _column_op([(1, 1.0)]),
        )
        A = BlockOperatorFamily(ops, (4,))
        p = case2_partition(A)
        assert p is not None
        assert p.case == "II"
        assert p.covers(3)
        sides = (p.b1, p.b2)
        assert any(side == (0, 2) for side in sides)
        assert any(side == (1,) for side in sides)

    def test_within_group_grams_vanish(self):
        ops = (
            _column_op([(0, 1.0)]),
            _column_op([(0, 2.0), (1, 1.0)]),
            _column_op([(1, 3.0), (2, 1.0)]),
            _column_op([(2, 2.0)]),
        )
        A = BlockOperatorFamily(ops, (4,))
        p = case2_partition(A)
        assert p is not None
        for side in (p.b1, p.b2):
            for a in side:
                for b in side:
                    if a < b:
                        assert gram_cross_is_zero(ops[a], ops[b])

    def test_odd_cycle_returns_none(self):
        ops = (
            _column_op([(0, 1.0), (1, 1.0)]),
            _column_op([(1, 1.0), (2, 1.0)]),
            _column_op([(2, 1.0), (0, 1.0)]),
        )
        A = BlockOperatorFamily(ops, (4,))
        assert case2_partition(A) is None

    def test_isolated_blocks_balanced(self):
        ops = tuple(_column_op([(i, 1.0)]) for i in range(4))
        A = BlockOperatorFamily(ops, (4,))
        p = case2_partition(A)
        assert p is not None
        assert {len(p.b1), len(p.b2)} == {2}
        assert p.covers(4)

    def test_needs_two_blocks(self):
        A = BlockOperatorFamily((_column_op([(0, 1.0)]),), (4,))
        with pytest.raises(ValueError):
            case2_partition(A)

    def test_pairs_sharing_no_row_are_not_checked(self, monkeypatch):
        # lrr's rows are X Z + E = X (blocks 1, 2) and Z - J = 0 (blocks 0,
        # 2): J and E share no row, so A_0^T A_1 = 0 needs no check.
        X = make_subspace_data(0, d=5, rank=2, n_subspaces=2, per_subspace=4)
        A = build_lrr(X, X).family
        checked = []

        def spy(op_i, op_j):
            checked.append((A.operators.index(op_i), A.operators.index(op_j)))
            return gram_cross_is_zero(op_i, op_j)

        monkeypatch.setattr(partition, "gram_cross_is_zero", spy)
        for heuristic in (case2_partition, case3_partition):
            checked.clear()
            heuristic(A)
            assert checked == [(0, 2), (1, 2)]
        assert case2_partition(A) == Partition((0, 1), (2,), case="II")


class TestCase3Partition:
    def test_all_singletons_reduces_to_scan(self):
        rng = np.random.default_rng(74)
        ops = tuple(DenseMatrixOp(rng.standard_normal((5, 2))) for _ in range(4))
        A = BlockOperatorFamily(ops, (5,))
        p = case3_partition(A)
        base = case1_partition([op.op_norm_sq for op in ops], A)
        assert p.case == "III"
        assert p.b1 == base.b1
        assert p.b2 == base.b2
        assert p.score == base.score

    def test_orthogonal_pair_contracted(self):
        ops = (
            _column_op([(0, 3.0)]),
            _column_op([(1, 2.0)]),
            _column_op([(0, 1.0), (1, 1.0)]),
        )
        A = BlockOperatorFamily(ops, (4,))
        p = case3_partition(A)
        assert p.case == "III"
        # Blocks 0 and 1 are orthogonal and contract into one supernode of
        # norm 9; the supernode outranks block 2 and fills the first side.
        assert p.b1 == (0, 1)
        assert p.b2 == (2,)
        assert p.score == 0.0

    def test_subgroups_stay_together(self):
        ops = (
            _column_op([(0, 1.0)]),
            _column_op([(1, 1.0)]),
            _column_op([(0, 1.0), (1, 1.0), (2, 1.0)]),
            _column_op([(2, 2.0), (3, 1.0)]),
            _column_op([(3, 3.0)]),
        )
        A = BlockOperatorFamily(ops, (4,))
        p = case3_partition(A)
        assert p.covers(5)
        # 0 and 1 only touch block 2, so the greedy pass groups them.
        assert p.side_of(0) == p.side_of(1)

    def test_needs_two_blocks(self):
        A = BlockOperatorFamily((_column_op([(0, 1.0)]),), (4,))
        with pytest.raises(ValueError):
            case3_partition(A)


def _chooser_problem(ops, recommended=None):
    """What ``choose_partition`` reads of a problem: its family and advice."""
    A = BlockOperatorFamily(ops, ops[0].out_shape)
    return SimpleNamespace(family=A, recommended_partition=recommended)


class TestChoosePartition:
    def _problem(self, recommended=None):
        rng = np.random.default_rng(77)
        ops = tuple(DenseMatrixOp(rng.standard_normal((5, m))) for m in (2, 4, 3))
        return _chooser_problem(ops, recommended)

    def test_auto_takes_the_recommendation_else_case1(self):
        problem = self._problem()
        norms = list(problem.family.norms_sq())
        assert choose_partition(problem) == case1_partition(norms, problem.family)
        advice = Partition((2,), (0, 1))
        assert choose_partition(self._problem(advice), "auto") is advice

    def test_named_heuristics(self):
        problem = self._problem(Partition((2,), (0, 1)))
        A = problem.family
        assert choose_partition(problem, "case1") == case1_partition(
            list(A.norms_sq()), A
        )
        assert choose_partition(problem, "case3") == case3_partition(A)
        ops = (_column_op([(0, 1.0)]), _column_op([(1, 1.0)]))
        assert choose_partition(_chooser_problem(ops), "case2") == case2_partition(
            BlockOperatorFamily(ops, (4,))
        )

    def test_n1_takes_a_prefix_of_the_case1_order(self):
        problem = self._problem(Partition((2,), (0, 1)))
        order, _ = case1_scan(list(problem.family.norms_sq()), problem.family)
        for n1 in (1, 2, 3):
            part = choose_partition(problem, "case3", n1=n1)
            assert part == Partition(
                tuple(sorted(order[:n1])), tuple(sorted(order[n1:])), case="user"
            )

    def test_n1_runs_no_footnote_power_iteration(self, monkeypatch):
        problem = self._problem()
        order, _ = case1_scan(list(problem.family.norms_sq()), problem.family)
        calls = []

        def counting(footnote):
            def counted(*args, **kwargs):
                calls.append(args)
                return footnote(*args, **kwargs)

            return counted

        # Neither footnote route runs: the dense Gram nor the power iteration.
        for name in ("dense_norm_sq", "combined_op_norm_sq"):
            monkeypatch.setattr(partition, name, counting(getattr(partition, name)))
        for n1 in (1, 2, 3):
            part = choose_partition(problem, n1=n1)
            assert part.b1 == tuple(sorted(order[:n1]))
        assert calls == []

    @pytest.mark.parametrize("n1", [0, 4])
    def test_n1_out_of_range(self, n1):
        with pytest.raises(ValueError, match=r"n1 must lie in \[1, 3\]"):
            choose_partition(self._problem(), n1=n1)

    @pytest.mark.parametrize("n1", [True, 1.5, 2.0, "2"])
    def test_n1_must_be_an_integer(self, n1):
        with pytest.raises(ValueError, match=r"n1 must be an integer, got"):
            choose_partition(self._problem(), n1=n1)

    def test_n1_takes_a_numpy_integer(self):
        problem = self._problem()
        assert choose_partition(problem, n1=np.int64(2)) == choose_partition(
            problem, n1=2
        )

    def test_grid_problems_keep_their_partitions(self):
        # The problems of tools/hash_runs.py, with the partitions each named
        # heuristic gave while every cross-Gram check ran its full power
        # iteration; ``None`` is a refusal (no two-coloring split).
        def subspace():
            return make_subspace_data(0, d=10, rank=2, n_subspaces=3, per_subspace=6)

        problems = {
            "nnsc": build_nonneg_sparse_coding(DataGenSpec(0, d=30, n=40)),
            "nnsc-noisy": build_nonneg_sparse_coding_noisy(
                DataGenSpec(0, d=20, n=12, noise_sigma=0.1)
            ),
            "latlrr3": build_latent_lrr(subspace(), formulation="3-block"),
            "latlrr2": build_latent_lrr(subspace(), formulation="2-block"),
            "lrr": build_lrr(subspace(), subspace()),
            "nmc": build_nonneg_matrix_completion(
                DataGenSpec(0, d=12, n=10, rank=2, noise_sigma=0.1)
            ),
            "quad": quad_problem(3),
            "l1_toy": l1_toy(),
        }
        nnsc = (tuple(range(24, 40)), tuple(range(24)))
        noisy = ((7, 8, 9, 10, 11), (0, 1, 2, 3, 4, 5, 6, 12))
        want = {
            "nnsc": (nnsc, None, nnsc),
            "nnsc-noisy": (noisy, None, noisy),
            "latlrr3": (((0,), (1, 2)), None, ((0,), (1, 2))),
            "latlrr2": (((0,), (1,)), ((0,), (1,)), ((0, 1), ())),
            "lrr": (((2,), (0, 1)), ((0, 1), (2,)), ((2,), (0, 1))),
            "nmc": (((2,), (0, 1)), ((0, 1), (2,)), ((2,), (0, 1))),
            "quad": (((0,), (1,)),) * 3,
            "l1_toy": (((0,), (1,)),) * 3,
        }
        choices = (("case1", "I"), ("case2", "II"), ("case3", "III"))
        for name, problem in problems.items():
            for (choice, case), split in zip(choices, want[name]):
                if split is None:
                    with pytest.raises(ValueError, match="no two-coloring split"):
                        choose_partition(problem, choice)
                    continue
                part = choose_partition(problem, choice)
                assert (part.b1, part.b2, part.case) == (*split, case), (name, choice)

    def test_refusals(self):
        ops = (
            _column_op([(0, 1.0), (1, 1.0)]),
            _column_op([(1, 1.0), (2, 1.0)]),
            _column_op([(2, 1.0), (0, 1.0)]),
        )
        with pytest.raises(ValueError, match="no two-coloring split exists"):
            choose_partition(_chooser_problem(ops), "case2")
        with pytest.raises(ValueError, match="unknown partition choice 'case4'"):
            choose_partition(self._problem(), "case4")
        one = _chooser_problem((_column_op([(0, 1.0)]),))
        with pytest.raises(ValueError, match="for 1 block; pass a Partition"):
            choose_partition(one)
