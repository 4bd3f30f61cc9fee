"""The eager NumPy interpreter of the vector lifecycle model.

:class:`NumpyOps` runs :mod:`repro.engine.vector.model` as in-order
ufuncs — the same operations, in the same order, as the scalar
sub-models — so results agree with the scalar path to the last ulp
wherever IEEE semantics permit (NumPy's transcendental implementations
may differ from libm by one ulp, far inside the ``rtol=1e-12`` parity
bound).  It serves :meth:`VectorizedEvaluator.evaluate_param_batch`
and, over the scalar :func:`comparator_constants`,
:meth:`VectorizedEvaluator.evaluate_batch`.

Beside it live the composition helpers both tiers share:
:class:`FoldPlan` reproduces the per-application folds bit for bit,
and :func:`ratio_kernel`/:func:`winner_kernel` the degenerate-ratio
semantics of
:class:`~repro.core.comparison.ComparisonResult` with masks instead of
branches, raising no floating-point warnings.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.errors import CapacityError
from repro.manufacturing.yield_model import YieldModel

#: Relative tolerance of the kernel tiers against the scalar models
#: (the documented parity contract; winners must match exactly).
KERNEL_RTOL = 1e-12

#: Stable integer codes for the statistical yield models, used because
#: enum members don't belong in float matrices.
YIELD_MODEL_CODES = {
    YieldModel.MURPHY: 0,
    YieldModel.POISSON: 1,
    YieldModel.SEEDS: 2,
}


# ----------------------------------------------------------------------
# Composition helpers
# ----------------------------------------------------------------------


class FoldPlan:
    """Shared schedule for row-wise per-application left folds.

    The scalar lifecycle models accumulate per-application terms with
    repeated ``+=``; ``count * x`` rounds differently for counts >= 4,
    so bit-parity requires reproducing the fold.  A plan is built once
    per ``counts`` column: rows are ordered by descending count, so the
    rows still folding at step ``k`` (those with ``count >= k``) form a
    prefix.  The plan records that prefix's length at each distinct
    count, so it stays O(rows) in memory however large the counts are.
    :meth:`fold` then folds any number of operands together with one
    in-place add per step over the active prefix of a stacked tile —
    ``max(count) - 1`` Python-level steps per tile and
    ``sum(count - 1)`` element adds per operand.  Every element receives
    the same additions in the same order as the scalar fold, so results
    are bit-identical to it.  Uniform counts (including stride-0
    :meth:`ScenarioBatch.tile` columns) skip the permutation.
    """

    __slots__ = ("size", "order", "levels")

    #: Rows per stacked fold tile: bounds the transient scratch to two
    #: ``operands x TILE_ROWS`` float64 blocks whatever the batch size.
    TILE_ROWS = 16_384

    def __init__(self, counts: np.ndarray) -> None:
        counts = np.asarray(counts).reshape(-1)
        n = counts.shape[0]
        self.size = n
        #: ``(count, live)`` pairs, ascending by count, one per distinct
        #: positive count: ``live`` rows have at least ``count``.
        self.levels: list[tuple[int, int]] = []
        if n == 0:
            self.order = None
        elif counts.strides[0] == 0 or counts.min() == counts.max():
            # Identity order: every row folds for every step.
            self.order = None
            if counts[0] >= 1:
                self.levels = [(int(counts[0]), n)]
        else:
            self.order = np.argsort(-counts, kind="stable")
            ascending = counts[self.order][::-1]
            distinct = np.unique(ascending[ascending >= 1])
            live = n - np.searchsorted(ascending, distinct)
            self.levels = list(zip(distinct.tolist(), live.tolist()))

    def fold(self, *operands: np.ndarray) -> np.ndarray:
        """Fold each operand ``count`` times per row; ``(m, n)`` result.

        An operand is a float column of the plan's length or of length
        1 (broadcast), or a per-step ``(n, w)`` block whose step ``k``
        adds column ``min(k, w - 1)`` (per-application lifetimes).  Row
        ``j`` of the result is the fold of operand ``j``, and rows with
        ``count < 1`` are ``0.0``.
        """
        n = self.size
        m = len(operands)
        out = np.zeros((m, n))
        cols = []
        blocks = []  # (operand, (n, w) block) of the per-step operands
        for j, x in enumerate(operands):
            x = np.asarray(x, dtype=np.float64)
            if x.ndim == 2:
                blocks.append((j, np.broadcast_to(x, (n, x.shape[1]))))
                cols.append(blocks[-1][1][:, 0])
            else:
                cols.append(np.broadcast_to(x.reshape(-1), (n,)))
        width = max((block.shape[1] for _, block in blocks), default=1)
        order = self.order
        levels = self.levels
        active = levels[0][1] if levels else 0
        for t0 in range(0, active, self.TILE_ROWS):
            t1 = min(t0 + self.TILE_ROWS, active)
            addend = np.empty((m, t1 - t0))
            if order is None:
                rows = None
                for j, col in enumerate(cols):
                    addend[j] = col[t0:t1]
                acc = out[:, t0:t1]
            else:
                rows = order[t0:t1]
                for j, col in enumerate(cols):
                    np.take(col, rows, out=addend[j], mode="clip")
                acc = np.empty_like(addend)
            np.copyto(acc, addend)
            # Addends ``done + 1 .. count`` go to the rows holding at
            # least ``count``: no distinct count lies in between.
            done = 1
            for count, live in levels:
                live = min(live, t1) - t0
                if live <= 0:
                    break
                head = acc[:, :live]
                tail = addend[:, :live]
                for step in range(done, count):
                    if step < width:
                        self._load_step(addend, blocks, step, rows, t0, live)
                    np.add(head, tail, out=head)
                done = count
            if order is not None:
                out[:, rows] = acc
        return out

    @staticmethod
    def _load_step(addend, blocks, step, rows, t0, live) -> None:
        """Refresh the per-step operands' addends for application ``step``."""
        for j, block in blocks:
            if step < block.shape[1]:
                column = block[:, step]
                if rows is None:
                    addend[j, :live] = column[t0:t0 + live]
                else:
                    np.take(column, rows[:live], out=addend[j, :live],
                            mode="clip")


def ratio_kernel(
    fpga_totals: np.ndarray,
    asic_totals: np.ndarray,
    out: "np.ndarray | None" = None,
) -> np.ndarray:
    """Vectorised :attr:`ComparisonResult.ratio` with degenerate masks.

    A zero ASIC total yields signed infinity (``copysign(inf, fpga)``),
    two zero totals a perfect tie of ``1.0`` — identical semantics to the
    scalar property, with warnings suppressed rather than raised.
    ``out`` receives the result when given (the fused tier's pool).
    """
    fpga = np.asarray(fpga_totals, dtype=np.float64)
    asic = np.asarray(asic_totals, dtype=np.float64)
    if out is None:
        out = np.empty(np.broadcast_shapes(fpga.shape, asic.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(fpga, asic, out=out)
    if np.count_nonzero(asic) != asic.size:  # degenerate rows: rare path
        zero = np.broadcast_to(asic, out.shape) == 0.0
        numerators = np.broadcast_to(fpga, out.shape)[zero]
        out[zero] = np.where(
            numerators == 0.0, 1.0, np.copysign(np.inf, numerators)
        )
    return out


def winner_kernel(fpga_totals: np.ndarray, asic_totals: np.ndarray) -> np.ndarray:
    """Vectorised :attr:`ComparisonResult.winner` (ties go to the ASIC)."""
    return np.where(
        np.asarray(fpga_totals) < np.asarray(asic_totals), "fpga", "asic"
    )




# ----------------------------------------------------------------------
# The eager interpreter
# ----------------------------------------------------------------------


def _rows(x, mask: np.ndarray):
    """The rows of operand ``x`` that ``mask`` selects (scalars pass)."""
    if np.ndim(x) == 0:
        return x
    return np.broadcast_to(x, mask.shape)[mask]


class NumpyOps:
    """Eager interpreter of :mod:`repro.engine.vector.model`.

    Each operation is the in-order NumPy ufunc (or Python operator) the
    scalar models spell, so operand shapes and dtypes flow exactly as
    in hand-written array code.  ``counts`` (the batch's application
    counts) and ``lifetime_ndim`` (2 for a per-application ``(n, w)``
    lifetime block) are needed only by :meth:`fold` and :meth:`app`.
    """

    add = operator.add
    sub = operator.sub
    mul = operator.mul
    div = div_exact = operator.truediv
    neg = operator.neg
    pow = operator.pow
    sqrt = np.sqrt
    ceil = np.ceil
    floor = np.floor
    exp = np.exp
    expm1 = np.expm1
    maximum = np.maximum
    less = operator.lt
    isnan = np.isnan
    aligned = staticmethod(np.broadcast_arrays)

    def __init__(
        self, counts: "np.ndarray | None" = None, lifetime_ndim: int = 1
    ) -> None:
        self._counts = counts
        self._block = lifetime_ndim == 2

    def app(self, x):
        """Row column ``x`` against a ``(n, w)`` lifetime block."""
        return np.reshape(x, (-1, 1)) if self._block else x

    def fold(self, *xs) -> np.ndarray:
        """Per-application left folds of ``xs`` through one shared plan."""
        return FoldPlan(self._counts).fold(*xs)

    @staticmethod
    def reject(x, cmp, limit, message: str) -> None:
        if np.any(cmp(x, limit)):
            raise CapacityError(message.format(worst=float(np.max(x))))

    def switch(self, key, cases, *operands):
        """Per-row case select; a uniform ``key`` runs one case whole.

        Mixed keys evaluate each case on the rows that name it (so a
        case's capacity checks see only its own rows); rows naming no
        case and no default stay NaN.
        """
        key = np.asarray(key)
        if key.size == 0:
            return np.empty(key.shape)
        first = key.flat[0]
        case = cases.get(first, cases.get(None))
        if case is not None and bool(np.all(key == first)):
            return case(self, *operands)
        out = np.full(key.shape, np.nan)
        rest = np.ones(key.shape, dtype=bool)
        for value, case in cases.items():
            if value is None:
                continue
            mask = key == value
            if mask.any():
                rest &= ~mask
                out[mask] = case(self, *(_rows(x, mask) for x in operands))
        default = cases.get(None)
        if default is not None and rest.any():
            out[rest] = default(self, *(_rows(x, rest) for x in operands))
        return out
