"""Outside-in layer tracing for the solve benchmark.

``Tracer`` wraps public functions and methods of the ``mmadmm`` modules for
the duration of a ``with`` block and restores the originals on exit; the
package itself carries no timers. Spans are aggregated in memory as they
close: per span name the number of calls, the inclusive time and the self
time (duration minus the time of wrapped calls inside it).

Operator-level calls (``apply``, ``adjoint``, ``gram_rep`` and norm
certificates) open a span only at the outermost level. Calls they make
into other operators, such as the pieces of a ``StackedOp``, the inner
operator of a ``NegationOp`` or the ``gram_apply`` steps of a power
iteration, are folded into the parent span.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

from mmadmm import blockspace, partition, problems, prox, solvers

_MODULES = tuple(
    module
    for name, module in sorted(sys.modules.items())
    if name == "mmadmm" or name.startswith("mmadmm.")
)


def _dense_flops(op) -> float:
    """Computed flops of one apply or adjoint of a dense-factor operator."""
    if isinstance(op, blockspace.DenseMatrixOp):
        return 2.0 * op.matrix.size
    if isinstance(op, blockspace.LeftMultiplyOp):
        return 2.0 * op.factor.size * op.in_shape[1]
    return 2.0 * op.factor.size * op.in_shape[0]


_DENSE_OPS = (
    blockspace.DenseMatrixOp,
    blockspace.LeftMultiplyOp,
    blockspace.RightMultiplyOp,
)


def _operator_classes():
    seen = []
    todo = [blockspace.BlockOperator]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


class Tracer:
    """Aggregated spans over the calls made while it is installed."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._open = []  # child time accumulated by each open span
        self._fold = False  # inside an operator-level span
        self._undo = []

    # -- spans --------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        child = [0.0]
        self._open.append(child)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = perf_counter() - start
            self._open.pop()
            self.calls[name] += 1
            self.total_s[name] += took
            self.self_s[name] += took - child[0]
            if self._open:
                self._open[-1][0] += took

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def _operator_level(self, name, fn, dense=False):
        @functools.wraps(fn)
        def wrapper(op, *args, **kwargs):
            if dense:
                self.counts["dense_flop"] += _dense_flops(op)
            if self._fold:
                return fn(op, *args, **kwargs)
            self._fold = True
            try:
                return self.span(name, fn, op, *args, **kwargs)
            finally:
                self._fold = False

        return wrapper

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr, wrap):
        """Replace ``module.attr`` wherever an mmadmm module imported it."""
        original = getattr(module, attr)
        wrapped = wrap(original)
        for mod in _MODULES:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapped)

    def install(self):
        for cls in _operator_classes():
            own = cls.__dict__
            dense = cls in _DENSE_OPS
            if "apply" in own:
                self._set(cls, "apply", self._operator_level(
                    "blockspace.op_apply", own["apply"], dense))
            if "adjoint" in own:
                self._set(cls, "adjoint", self._operator_level(
                    "blockspace.op_adjoint", own["adjoint"], dense))
            if "gram_rep" in own:
                self._set(cls, "gram_rep", self._operator_level(
                    "blockspace.gram_rep", own["gram_rep"]))

        # A certificate is computed on the first read of ``op_norm_sq``;
        # later reads return the cached value and are not spans.
        norm_getter = blockspace.BlockOperator.__dict__["op_norm_sq"].fget
        cert = self._operator_level("blockspace.norm_cert", norm_getter)

        def op_norm_sq(op):
            return cert(op) if op._norm_sq is None else norm_getter(op)

        self._set(blockspace.BlockOperator, "op_norm_sq", property(op_norm_sq))
        for attr in ("estimate_op_norm_sq", "combined_op_norm_sq"):
            self._patch_function(blockspace, attr, functools.partial(
                self._operator_level, "blockspace.norm_cert"))

        bv = blockspace.BlockVector
        for attr in ("__add__", "__sub__", "__mul__", "__rmul__", "dot",
                     "norm_sq", "norm", "block_norms", "copy", "replace"):
            self._set(bv, attr, self._spanned(
                "blockspace.blockvector", bv.__dict__[attr]))

        for attr in ("case1_partition", "case1_scan", "case2_partition",
                     "case3_partition"):
            self._patch_function(partition, attr, functools.partial(
                self._spanned, f"partition.{attr}"))
        part = partition.Partition
        for attr in ("__post_init__", "covers", "side_of"):
            self._set(part, attr, self._spanned(
                "partition.Partition", part.__dict__[attr]))

        for attr in problems.__all__:
            if attr.startswith(("build_", "make_")):
                self._patch_function(problems, attr, functools.partial(
                    self._spanned, "problems.build"))
        self._set(problems.ProblemSpec, "objective", self._spanned(
            "problems.objective", problems.ProblemSpec.__dict__["objective"]))

        pf = prox.ProxFunction
        self._set(pf, "prox", self._spanned("prox.prox", pf.__dict__["prox"]))
        value = self._spanned("prox.value", pf.__dict__["value"])

        def counted_value(term, v):
            if term.kind == "nuclear":
                self.counts["svd"] += 1
            return value(term, v)

        self._set(pf, "value", counted_value)
        nuclear = prox.prox_nuclear

        def counted_prox_nuclear(V, t):
            self.counts["svd"] += 1
            return nuclear(V, t)

        self._patch_function(prox, "prox_nuclear", lambda _: counted_prox_nuclear)

        for attr in ("run", "prepare_context", "default_weights", "assemble_block"):
            self._patch_function(solvers, attr, functools.partial(
                self._spanned, f"solvers.{attr}"))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        try:
            return self.install()
        except BaseException:
            self.uninstall()
            raise

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def self_time(self, prefix: str) -> float:
        """Summed self time of the spans whose names start with ``prefix``."""
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

