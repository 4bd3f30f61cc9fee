"""Fused single-pass kernel tier for reduce-only streaming workloads.

The eager kernel chain (:class:`~repro.engine.vector.kernels.NumpyOps`
running :mod:`repro.engine.vector.model`) broadcasts every sub-model
input to full batch rank and allocates a fresh temporary per expression
— dozens of megabytes per 131072-row chunk, mostly recomputing values
that are constant across the batch.  :class:`FusedKernel` runs the
*same* model through a second interpreter, :class:`DeferredOps`, which
is *rank- and linearity-aware*: length-1 parameter columns and
value-uniform scenario columns are computed as scalars, and the algebra
over genuinely per-row columns flows through deferred linear forms
(:class:`_Lin`: ``sum(c_i * base_i) + offset``) whose scalar
coefficients absorb every multiply/add/divide-by-scalar.  Full-rank
work, written with ``out=`` ufuncs into a :class:`ScratchPool`, happens
only at nonlinear joints (yield curves, ceil, products of two per-row
chains, the final ratio) — ~25 passes per Table-1 chunk instead of the
chain's ~150.  Uniform application counts fold as one multiply, uniform
charge and yield-code columns take their case statically, and mixed
ones run the eager interpreter over flushed columns.

Reassociating scalar algebra changes rounding, so per-element parity
with the chain is ``rtol <= 1e-12`` (measured ~1e-14) rather than
bitwise; winners are decided on float64 totals and ``tests/test_fused.py``
verifies they match the chain draw for draw.  Per-row results depend
only on the row's values, never on chunk shape, so streaming summaries
stay bit-identical across chunk sizes and worker counts.  After the
first chunk the pool serves every request from its free lists: zero
per-chunk array allocation, verified by ``tracemalloc``.

Tier selection: ``REPRO_KERNEL`` or ``EvaluationEngine(kernel_tier=)``
picks ``fused`` (this module, the default) or ``numpy`` (the chain).
The tier is *reduce-only*: a :class:`FusedResult` carries ratios,
totals, a lazy winner column and an exact FPGA win count.
"""

from __future__ import annotations

import math
import os

import numpy as np

from repro.engine.vector.columns import ScenarioBatch
from repro.engine.vector.kernels import KERNEL_RTOL, FoldPlan, ratio_kernel
from repro.engine.vector.model import EAGER, compose, side_constants
from repro.engine.vector.params import ParameterBatch
from repro.errors import CapacityError, ParameterError

#: Environment knob selecting the kernel tier for new evaluators.
KERNEL_TIER_ENV = "REPRO_KERNEL"

#: Accepted ``REPRO_KERNEL`` / ``kernel_tier=`` spellings.
KERNEL_TIERS = ("fused", "numpy")

#: Largest uniform application count the NumPy fused backend serves:
#: beyond it the worst-case gap between its ``x * count`` shortcut and
#: the chain's left fold, ``(count - 1) * 2**-53`` relative, exceeds
#: :data:`~repro.engine.vector.kernels.KERNEL_RTOL`.
MAX_UNIFORM_FOLD_COUNT = 1 + int(KERNEL_RTOL / 2.0**-53)


def resolve_kernel_tier(requested: "str | None" = None) -> str:
    """Resolve a tier request to ``"fused"`` or ``"chain"``.

    ``requested`` wins over the ``REPRO_KERNEL`` environment variable;
    an unset or empty request means ``fused``.  ``numpy`` selects the
    plain kernel chain (no fused tier).
    """
    tier = requested if requested is not None else os.environ.get(KERNEL_TIER_ENV)
    tier = str(tier).strip().lower() if tier is not None else ""
    if not tier:
        tier = "fused"
    if tier not in KERNEL_TIERS:
        raise ParameterError(
            f"unknown kernel tier {tier!r}; expected one of {KERNEL_TIERS}"
        )
    return "chain" if tier == "numpy" else "fused"


def kernel_tier_label(requested: "str | None" = None) -> str:
    """Human-readable name of the tier a request resolves to.

    ``fused-numpy`` / ``numpy-chain`` — printed by ``greenfpga mc`` and
    embedded in bench artifacts so they are self-describing.
    """
    if resolve_kernel_tier(requested) == "chain":
        return "numpy-chain"
    return FusedKernel.name


def make_kernel(requested: "str | None" = None) -> "FusedKernel | None":
    """Build a :class:`FusedKernel` for a tier request.

    Returns ``None`` when the request resolves to the plain chain
    (``REPRO_KERNEL=numpy``) — callers fall back to the existing
    evaluator path.
    """
    if resolve_kernel_tier(requested) == "chain":
        return None
    return FusedKernel()


# ----------------------------------------------------------------------
# Scratch buffers
# ----------------------------------------------------------------------


class ScratchPool:
    """Reusable ndarray buffers keyed by (length, dtype).

    ``take`` hands out a buffer (recycled when one of the right shape is
    free, freshly allocated otherwise); ``reclaim`` returns everything
    lent since the last reclaim to the free lists.  A kernel reclaims at
    the *start* of each evaluation, so the buffers backing the previous
    :class:`FusedResult` stay valid until the next call — and because a
    streaming workload's rank pattern is constant across chunks, every
    chunk after the first is served entirely from the free lists (the
    zero-allocation property ``tests/test_fused.py`` verifies with
    ``tracemalloc``).
    """

    __slots__ = ("_free", "_lent")

    def __init__(self) -> None:
        self._free: dict[tuple[int, str], list[np.ndarray]] = {}
        self._lent: list[np.ndarray] = []

    def take(self, length: int, dtype: "np.dtype | type" = np.float64) -> np.ndarray:
        """A writable 1-D buffer of ``length`` elements (contents undefined)."""
        key = (int(length), np.dtype(dtype).str)
        stack = self._free.get(key)
        arr = stack.pop() if stack else np.empty(key[0], dtype=dtype)
        self._lent.append(arr)
        return arr

    def mark(self) -> int:
        """Checkpoint of the lent list, for scoped reclaims."""
        return len(self._lent)

    def reclaim(self, mark: int = 0) -> None:
        """Return buffers lent since ``mark`` (default: all) to the pool.

        The tiled evaluation loop reclaims per tile so every tile reuses
        the same cache-hot buffers; output buffers taken before the mark
        stay lent until the next full reclaim.
        """
        free = self._free
        lent = self._lent
        for arr in lent[mark:]:
            free.setdefault((arr.shape[0], arr.dtype.str), []).append(arr)
        del lent[mark:]


def _blen(*operands: "np.ndarray | float") -> int:
    """Broadcast length of 1-D operands (scalars count as length 1)."""
    n = 1
    for o in operands:
        if isinstance(o, np.ndarray) and o.shape[0] > n:
            n = o.shape[0]
    return n


def _pyf(o):
    """Length-1 float64 columns as Python floats.

    A Python-scalar operand is the cheapest thing a ufunc can consume
    (no second array to stream, no broadcasting machinery, and crucially
    ``power(x, scalar)`` dispatches its fast path where ``power(x,
    length-1 array)`` does not).  Bit-for-bit this changes nothing:
    ufuncs on this build produce identical results for scalar, length-1
    and full-rank operands, which ``tests/test_fused.py`` locks in.
    """
    if isinstance(o, np.ndarray) and o.shape == (1,) and o.dtype == np.float64:
        return float(o[0])
    return o


# ----------------------------------------------------------------------
# Deferred linear forms
#
# The lifecycle model is affine in almost every registry column: a
# per-row column enters the final totals through chains of
# multiply-by-scalar / add-scalar / add-each-other steps, with only a
# handful of genuinely nonlinear joints (yield curves, ``ceil``, the
# operation ``ci * duty`` product, the final ratio).  ``_Lin`` carries
# ``sum(coeff_i * base_i) + offset`` symbolically — scalar algebra
# lands in the coefficients for free — and materialises (``_flush``)
# only at those joints, so the number of full-rank vectorised passes
# per chunk tracks the number of nonlinearities, not the number of
# expressions.  Reassociating scalar algebra perturbs rounding by a few
# ULPs (measured ~1e-14 relative), inside the tier's ``rtol <= 1e-12``
# parity contract; winners stay bit-identical because both sides drift
# together by amounts far below any realistic FPGA/ASIC gap.
# ----------------------------------------------------------------------

_F64 = np.float64
_L_ZERO = _F64(0.0)
_L_ONE = _F64(1.0)


class _Lin:
    """A deferred linear form over full-rank base columns.

    ``terms`` maps ``id(base) -> (base, coeff)``; the value it denotes
    is ``sum(coeff * base) + offset``.  Instances are immutable after
    construction (helpers always build fresh dicts), and bases are
    treated as read-only, so flushing a single-term, unit-coefficient,
    zero-offset form can return the base array itself without a copy.
    """

    __slots__ = ("terms", "offset")

    def __init__(self, terms, offset=_L_ZERO):
        self.terms = terms
        self.offset = offset


def _unit(out: np.ndarray) -> _Lin:
    return _Lin({id(out): (out, _L_ONE)})


def _val(ops: "DeferredOps", x):
    """Normalise an operand to ``np.float64`` scalar or :class:`_Lin`."""
    if isinstance(x, (_Lin, _F64)):
        return x
    if isinstance(x, np.ndarray):
        if x.ndim == 0 or x.shape[0] == 1:
            return _F64(x.flat[0])
        if x.strides[0] == 0:
            return _F64(x[0])
        if x.dtype != np.float64:
            base = ops.pool.take(x.shape[0])
            np.copyto(base, x, casting="unsafe")
        else:
            base = x
        return _unit(base)
    return _F64(x)


def _flush_owned(ops: "DeferredOps", x) -> tuple:
    """Materialise a value: ``(array or scalar, owned)``.

    ``owned`` is True when the array is a pool buffer made by this
    flush, which nothing else references: the caller may write its
    result into it.
    """
    if not isinstance(x, _Lin):
        return x, False
    items = list(x.terms.values())
    base0, c0 = items[0]
    if len(items) == 1 and c0 == 1.0 and x.offset == 0.0:
        return base0, False
    out = ops.pool.take(base0.shape[0])
    if c0 == 1.0:
        np.copyto(out, base0)
    else:
        np.multiply(base0, c0, out=out)
    if len(items) > 1:
        scratch = ops.pool.take(base0.shape[0])
        for base, c in items[1:]:
            if c == 1.0:
                np.add(out, base, out=out)
            else:
                np.multiply(base, c, out=scratch)
                np.add(out, scratch, out=out)
    if x.offset != 0.0:
        np.add(out, x.offset, out=out)
    return out, True


def _flush(ops: "DeferredOps", x) -> "np.ndarray | np.float64":
    """Materialise a value: scalars pass through, forms become arrays."""
    return _flush_owned(ops, x)[0]


def _as_col(ops: "DeferredOps", x) -> np.ndarray:
    """Materialise to a 1-D float64 array (length 1 for scalars)."""
    flushed = _flush(ops, _val(ops, x))
    if isinstance(flushed, np.ndarray):
        return flushed
    out = ops.pool.take(1)
    out[0] = flushed
    return out


def _apply(ops: "DeferredOps", ufunc, *operands) -> _Lin:
    """``ufunc`` over flushed operands, into a buffer one of them owns
    when it has the result's length, else a fresh pool buffer."""
    flushed = [_flush_owned(ops, x) for x in operands]
    n = _blen(*(arr for arr, _ in flushed))
    out = next(
        (arr for arr, owned in flushed if owned and arr.shape[0] == n), None
    )
    if out is None:
        out = ops.pool.take(n)
    ufunc(*(_pyf(arr) for arr, _ in flushed), out=out)
    return _unit(out)


def _product(ops: "DeferredOps", a: np.ndarray, b: np.ndarray) -> np.ndarray:
    key = (id(a), id(b)) if id(a) <= id(b) else (id(b), id(a))
    got = ops.products.get(key)
    if got is None:
        got = ops.pool.take(a.shape[0])
        np.multiply(a, b, out=got)
        ops.products[key] = got
    return got


def _scaled(lin: _Lin, s) -> _Lin:
    return _Lin(
        {k: (base, c * s) for k, (base, c) in lin.terms.items()},
        lin.offset * s,
    )


def _mul(ops: "DeferredOps", a, b):
    a = _val(ops, a)
    b = _val(ops, b)
    if isinstance(a, _Lin):
        if isinstance(b, _Lin):
            return _mul_lin(ops, a, b)
        if b == 1.0:
            return a
        return _scaled(a, b)
    if isinstance(b, _Lin):
        if a == 1.0:
            return b
        return _scaled(b, a)
    return a * b


def _mul_lin(ops: "DeferredOps", a: _Lin, b: _Lin) -> _Lin:
    # Expanding a product multiplies term counts; re-base wide operands
    # so pathological chains cannot blow the form up combinatorially.
    if len(a.terms) * len(b.terms) > 4:
        a = _unit(_flush(ops, a))
    terms: dict[int, tuple[np.ndarray, np.float64]] = {}

    def acc(base, c):
        key = id(base)
        old = terms.get(key)
        terms[key] = (base, old[1] + c) if old else (base, c)

    for base_a, ca in a.terms.values():
        for base_b, cb in b.terms.values():
            acc(_product(ops, base_a, base_b), ca * cb)
        if b.offset != 0.0:
            acc(base_a, ca * b.offset)
    if a.offset != 0.0:
        for base_b, cb in b.terms.values():
            acc(base_b, cb * a.offset)
    return _Lin(terms, a.offset * b.offset)


def _add(ops: "DeferredOps", a, b):
    a = _val(ops, a)
    b = _val(ops, b)
    if isinstance(a, _Lin):
        if isinstance(b, _Lin):
            terms = dict(a.terms)
            for key, (base, c) in b.terms.items():
                old = terms.get(key)
                terms[key] = (base, old[1] + c) if old else (base, c)
            return _Lin(terms, a.offset + b.offset)
        return _Lin(a.terms, a.offset + b)
    if isinstance(b, _Lin):
        return _Lin(b.terms, b.offset + a)
    return a + b


def _neg(ops: "DeferredOps", x):
    x = _val(ops, x)
    if isinstance(x, _Lin):
        return _scaled(x, _F64(-1.0))
    return -x


def _sub(ops: "DeferredOps", a, b):
    return _add(ops, a, _neg(ops, b))


def _div(ops: "DeferredOps", a, b):
    a = _val(ops, a)
    b = _val(ops, b)
    if isinstance(b, _Lin):
        return _apply(ops, np.divide, a, b)
    if not isinstance(a, _Lin):
        return a / b
    if b == 1.0:
        return a
    if b != 0.0 and math.isfinite(b):
        return _scaled(a, _L_ONE / b)
    # Zero/non-finite divisors: coefficient-wise division would turn
    # per-row sign information into sign-of-coefficient infinities;
    # divide the materialised numerator instead.
    return _apply(ops, np.divide, a, b)


def _nonlinear(ufunc):
    """A nonlinear op: scalars stay scalar, forms flush into the pool."""

    def op(ops: "DeferredOps", *operands):
        operands = [_val(ops, x) for x in operands]
        if any(isinstance(x, _Lin) for x in operands):
            return _apply(ops, ufunc, *operands)
        return ufunc(*operands)

    return op


def _pow(ops: "DeferredOps", a, b):
    b = _val(ops, b)
    if not isinstance(b, _Lin) and b == 1.0:
        return _val(ops, a)
    return _power(ops, a, b)


_power = _nonlinear(np.power)


def _compare(ops: "DeferredOps", cmp, x, limit):
    """``cmp(x, limit)``: a bool scalar, or a pooled bool column."""
    x = _val(ops, x)
    if not isinstance(x, _Lin):
        return cmp(x, limit)
    arr = _flush(ops, x)
    return cmp(arr, limit, out=ops.pool.take(arr.shape[0], np.bool_))


class DeferredOps:
    """Deferred interpreter of :mod:`repro.engine.vector.model`.

    Values are ``np.float64`` scalars (length-1 and value-uniform
    columns) or :class:`_Lin` forms over full-rank pool buffers; only
    nonlinear operations materialise.  Products of two per-row bases
    (``ci * duty`` is the one the model produces) are cached by
    unordered id pair, so both platform sides share a single full-rank
    multiply per chunk.  ``counts`` is the chunk's (folded) application
    count column.
    """

    __slots__ = ("pool", "products", "counts")

    def __init__(self, pool: ScratchPool, counts: np.ndarray) -> None:
        self.pool = pool
        self.products: dict[tuple[int, int], np.ndarray] = {}
        self.counts = counts

    add = _add
    sub = _sub
    mul = _mul
    div = _div
    div_exact = _nonlinear(np.divide)
    neg = _neg
    pow = _pow
    maximum = _nonlinear(np.maximum)
    sqrt = _nonlinear(np.sqrt)
    ceil = _nonlinear(np.ceil)
    floor = _nonlinear(np.floor)
    exp = _nonlinear(np.exp)
    expm1 = _nonlinear(np.expm1)

    def aligned(self, *xs):
        """Operands stay at natural rank (mixed switches broadcast)."""
        return xs

    def app(self, x):
        """Per-application lifetime blocks never reach this interpreter."""
        return x

    def isnan(self, x):
        return np.isnan(_flush(self, _val(self, x)))

    def less(self, x, limit):
        return _compare(self, np.less, x, limit)

    def reject(self, x, cmp, limit, message: str) -> None:
        if np.any(_compare(self, cmp, x, limit)):
            worst = np.max(_flush(self, _val(self, x)))
            raise CapacityError(message.format(worst=float(worst)))

    def fold(self, *xs) -> list:
        """Per-application folds: ``x * count`` for uniform counts.

        The fold's worst-case relative error against the exact product
        is ``(count - 1) * 2**-53``, so the two agree within the tier's
        parity bound only up to :data:`MAX_UNIFORM_FOLD_COUNT`;
        :meth:`FusedKernel.evaluate` yields larger counts to the chain.
        Ragged counts fold exactly through a :class:`FoldPlan`.
        """
        counts = self.counts
        if counts.size > 1 and counts.min() != counts.max():
            plan = FoldPlan(counts)
            rows = plan.fold(*(_as_col(self, x) for x in xs))
            return [_val(self, row) for row in rows]
        c = int(counts.flat[0]) if counts.size else 1
        if c == 1:
            # A one-step fold is the operand itself.
            return [_val(self, x) for x in xs]
        if c < 1:
            return [_L_ZERO] * len(xs)
        return [_mul(self, x, _F64(c)) for x in xs]

    def switch(self, key, cases, *operands):
        """A uniform ``key`` takes its case statically; a mixed one runs
        the eager interpreter over the flushed operands."""
        key = np.asarray(key)
        if key.size > 1 and key.min() != key.max():
            columns = [_as_col(self, x) for x in operands]
            return _val(self, EAGER.switch(key, cases, *columns))
        return cases.get(key.flat[0], cases.get(None))(self, *operands)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


class FusedResult:
    """Reduce-only batch outcome (the fused tier's ``BatchResult``).

    Carries exactly what streaming reducers consume — ``ratios``,
    ``fpga_totals``, ``asic_totals`` — plus an exact ``fpga_win_count``
    (``count_nonzero(fpga < asic)``, always computed on float64 totals)
    that :class:`~repro.engine.vector.reducers.WinCountReducer` uses to
    skip the string winner column entirely.  ``winners`` materialises
    lazily for consumers that do want strings.

    The arrays are views into the owning kernel's scratch pool: valid
    until the next ``evaluate`` on the same kernel, which is exactly the
    lifetime of one ``reduction.update`` call in the streaming loop.
    """

    __slots__ = (
        "ratios", "fpga_totals", "asic_totals", "fpga_win_count",
        "_fpga_wins_mask", "_winners",
    )

    def __init__(
        self,
        ratios: np.ndarray,
        fpga_totals: np.ndarray,
        asic_totals: np.ndarray,
        fpga_wins_mask: np.ndarray,
    ) -> None:
        self.ratios = ratios
        self.fpga_totals = fpga_totals
        self.asic_totals = asic_totals
        self._fpga_wins_mask = fpga_wins_mask
        self.fpga_win_count = int(np.count_nonzero(fpga_wins_mask))
        self._winners: "np.ndarray | None" = None

    @property
    def size(self) -> int:
        """Number of rows in the batch."""
        return int(self.ratios.shape[0])

    def __len__(self) -> int:
        return self.size

    @property
    def winners(self) -> np.ndarray:
        """Per-row winner strings, materialised on first access."""
        if self._winners is None:
            self._winners = np.where(self._fpga_wins_mask, "fpga", "asic")
        return self._winners


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------


class FusedKernel:
    """One reusable fused evaluator (scratch persists across chunks).

    Build one per worker (the streaming layer keeps one per resolved
    tier per process) and call :meth:`evaluate` per chunk; the scratch
    pool is sized by the first chunk and recycled afterwards.
    """

    #: Tier label for bench artifacts.
    name = "fused-numpy"

    def __init__(self) -> None:
        self.pool = ScratchPool()

    def evaluate(
        self, params: ParameterBatch, batch: ScenarioBatch
    ) -> "FusedResult | None":
        """One fused pass over a chunk; ``None`` when the tier must yield.

        Returns ``None`` for batches with a per-application ``(n, w)``
        lifetime block — the chain folds those per step — and for
        application counts above
        :data:`MAX_UNIFORM_FOLD_COUNT`, where its multiply shortcut for
        the per-application fold would leave the parity bound.  Raises
        the same :class:`~repro.errors.CapacityError` family as the
        chain for infeasible geometry.
        """
        if params.size != batch.size:
            raise ParameterError(
                f"parameter batch has {params.size} rows, "
                f"scenario batch has {batch.size}"
            )
        if batch.size == 0 or batch.lifetime.ndim != 1:
            return None
        self.pool.reclaim()
        counts = batch.num_apps
        top = counts[0] if counts.strides[0] == 0 else counts.max()
        if top > MAX_UNIFORM_FOLD_COUNT:
            return None
        return self._evaluate_numpy(params, batch)

    def _fold(self, x: np.ndarray) -> np.ndarray:
        """``x[:1]`` when every element of scenario column ``x`` equals
        ``x[0]`` (all-NaN counts: NaN spells "unset"), else ``x``.

        The comparison runs through a pooled buffer, so uniformity
        detection itself allocates nothing in steady state.
        """
        n = x.shape[0]
        if n <= 1 or x.strides[0] == 0:  # stride 0: ScenarioBatch.tile
            return x[:1]
        first = x[0]
        buf = self.pool.take(n, np.bool_)
        if x.dtype.kind == "f" and np.isnan(first):
            np.isnan(x, out=buf)
        else:
            np.equal(x, first, out=buf)
        return x[:1] if bool(buf.all()) else x

    #: Rows per evaluation tile.  Streaming chunks fit in one tile and
    #: take the copy-free fast path below; the tile bound only kicks in
    #: for huge materialized batches, where it caps the scratch pool at
    #: a few dozen 2 MB buffers instead of a few dozen ``n``-row ones.
    TILE_ROWS = 262_144

    def _evaluate_numpy(self, p: ParameterBatch, batch: ScenarioBatch) -> FusedResult:
        pool = self.pool
        n = batch.size
        tile = self.TILE_ROWS
        if n <= tile:
            ratios, ftot, atot, wins = self._evaluate_tile(p, batch)
            return self._package(ratios, ftot, atot, wins, n)
        out_ratios = pool.take(n)
        out_ftot = pool.take(n)
        out_atot = pool.take(n)
        out_wins = pool.take(n, np.bool_)
        for start in range(0, n, tile):
            stop = min(start + tile, n)
            mark = pool.mark()
            ratios, ftot, atot, wins = self._evaluate_tile(
                p.slice_rows(start, stop), batch.slice_rows(start, stop)
            )
            np.copyto(out_ratios[start:stop], np.broadcast_to(ratios, (stop - start,)))
            np.copyto(out_ftot[start:stop], np.broadcast_to(ftot, (stop - start,)))
            np.copyto(out_atot[start:stop], np.broadcast_to(atot, (stop - start,)))
            np.copyto(out_wins[start:stop], np.broadcast_to(wins, (stop - start,)))
            pool.reclaim(mark)
        return self._package(out_ratios, out_ftot, out_atot, out_wins, n)

    def _evaluate_tile(
        self, p: ParameterBatch, batch: ScenarioBatch
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        pool = self.pool
        ops = DeferredOps(pool, self._fold(batch.num_apps))
        life = compose(
            ops,
            side_constants(ops, p, fpga_side=True),
            side_constants(ops, p, fpga_side=False),
            self._fold(batch.volume),
            self._fold(batch.lifetime),
            self._fold(batch.evaluation_years),
            self._fold(batch.app_size_mgates),
            self._fold(batch.enforce_chip_lifetime),
            _L_ZERO,
        )
        fpga_col = _as_col(ops, life.fpga_total)
        asic_col = _as_col(ops, life.asic_total)
        n = _blen(fpga_col, asic_col)
        ratios = ratio_kernel(fpga_col, asic_col, out=pool.take(n))
        # The FPGA-wins mask; FusedResult renders winner strings lazily.
        wins = pool.take(n, np.bool_)
        np.less(fpga_col, asic_col, out=wins)
        return ratios, fpga_col, asic_col, wins

    def _package(
        self,
        ratios: np.ndarray,
        fpga_totals: np.ndarray,
        asic_totals: np.ndarray,
        wins: np.ndarray,
        n: int,
    ) -> FusedResult:
        return FusedResult(
            np.broadcast_to(ratios, (n,)),
            np.broadcast_to(fpga_totals, (n,)),
            np.broadcast_to(asic_totals, (n,)),
            np.broadcast_to(wins, (n,)),
        )
