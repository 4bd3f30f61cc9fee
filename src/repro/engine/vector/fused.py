"""Fused single-pass kernel tier for reduce-only streaming workloads.

The plain kernel chain (:mod:`repro.engine.vector.kernels` composed by
:mod:`repro.engine.vector.evaluator`) broadcasts every sub-model input
to full batch rank and allocates a fresh temporary per expression — on a
131072-row chunk that is dozens of megabytes of allocation and memory
traffic per chunk, most of it spent recomputing values that are constant
across the batch.  This module closes that gap with one
:class:`FusedKernel`, a buffer-reuse NumPy evaluator: the kernel chain
rewritten over a :class:`ScratchPool` of preallocated per-chunk buffers
with ``out=``/in-place ufuncs, and — crucially — *rank- and
linearity-aware*: length-1 broadcast parameter columns and value-uniform
scenario columns are computed as scalars, and the lifecycle algebra over
genuinely per-row columns flows through deferred linear forms
(:class:`_Lin`: ``sum(c_i * base_i) + offset``) whose scalar
coefficients absorb every multiply/add/divide-by-scalar and fold at zero
full-rank passes.  Full-rank work happens only at nonlinear boundaries
(yield curves, ceil, products of two per-row chains, the final ratio) —
on the Table-1 streaming workload that is ~25 vectorised passes per
chunk instead of the chain's ~150.  Reassociating scalar algebra changes
rounding, so per-element parity with the chain is ``rtol <= 1e-12``
(measured ~1e-14) rather than bitwise — but winners are still decided on
float64 totals and ``tests/test_fused.py`` verifies they match the chain
bit-for-bit, draw for draw, on the committed studies.  Per-row results
depend only on the row's values, never on chunk shape, so streaming
summaries remain bit-identical across any chunk size and worker count.
After the first chunk the pool serves every request from its free lists:
zero per-chunk array allocation, verified by ``tracemalloc``.

Tier selection: the ``REPRO_KERNEL`` environment variable or the
``EvaluationEngine(kernel_tier=)`` knob picks ``fused`` (this module,
the default) or ``numpy`` (the plain kernel chain).

Every ``fused_*`` kernel here has a NumPy twin of the same name (minus
the prefix) in :mod:`repro.engine.vector.kernels` with an identical
positional signature — the GF-FUSE audit check enforces the pairing.

The tier is *reduce-only*: it produces a :class:`FusedResult` (ratios,
totals, a lazy winner column and an exact FPGA win count) for streaming
reducers, not the full component breakdown of ``BatchResult``.
"""

from __future__ import annotations

import math
import os

import numpy as np

from repro.engine.vector import params as P
from repro.engine.vector.columns import ScenarioBatch
from repro.engine.vector.kernels import (
    GENERATIONS_EPSILON,
    KERNEL_RTOL,
    YIELD_MODEL_CODES,
    die_yield_kernel,
    manufacturing_per_die_kg,
    repeat_add,
)
from repro.engine.vector.params import ParameterBatch
from repro.errors import CapacityError, ParameterError
from repro.manufacturing.yield_model import YieldModel
from repro.units import HOURS_PER_YEAR, MM2_PER_CM2, RETICLE_LIMIT_MM2

#: Environment knob selecting the kernel tier for new evaluators.
KERNEL_TIER_ENV = "REPRO_KERNEL"

#: Accepted ``REPRO_KERNEL`` / ``kernel_tier=`` spellings.
KERNEL_TIERS = ("fused", "numpy")

#: Largest uniform application count the NumPy fused backend serves:
#: beyond it the worst-case gap between its ``x * count`` shortcut and
#: the chain's left fold, ``(count - 1) * 2**-53`` relative, exceeds
#: :data:`~repro.engine.vector.kernels.KERNEL_RTOL`.
MAX_UNIFORM_FOLD_COUNT = 1 + int(KERNEL_RTOL / 2.0**-53)

_MURPHY = YIELD_MODEL_CODES[YieldModel.MURPHY]
_POISSON = YIELD_MODEL_CODES[YieldModel.POISSON]
_SEEDS = YIELD_MODEL_CODES[YieldModel.SEEDS]


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


def _uniform_view(pool: ScratchPool, x: np.ndarray) -> "np.ndarray | None":
    """``x[:1]`` when every element of ``x`` equals ``x[0]``, else None.

    NaN columns count as uniform when they are all-NaN (the ``nan``
    spelling of "unset" in scenario columns).  The comparison runs
    through a pooled buffer so uniformity detection itself allocates
    nothing in steady state.
    """
    n = x.shape[0]
    if n <= 1:
        return x
    if x.strides[0] == 0:
        # Stride-0 broadcast column (ScenarioBatch.tile) — uniform by
        # construction, no scan needed.
        return x[:1]
    first = x[0]
    buf = pool.take(n, np.bool_)
    if x.dtype.kind == "f" and np.isnan(first):
        np.isnan(x, out=buf)
    else:
        np.equal(x, first, out=buf)
    return x[:1] if bool(buf.all()) else None


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


class _AffineCtx:
    """Per-evaluation context: the scratch pool plus a product cache.

    Products of two per-row bases (``ci * duty`` is the one the model
    produces) are cached by unordered id pair, so both platform sides
    share a single full-rank multiply per chunk.
    """

    __slots__ = ("pool", "products")

    def __init__(self, pool: ScratchPool) -> None:
        self.pool = pool
        self.products: dict[tuple[int, int], np.ndarray] = {}


def _val(ctx: _AffineCtx, x):
    """Normalise an operand to ``np.float64`` scalar or :class:`_Lin`."""
    if isinstance(x, (_Lin, _F64)):
        return x
    if isinstance(x, np.ndarray):
        if x.ndim == 0 or x.shape[0] == 1:
            return _F64(x.flat[0])
        if x.strides[0] == 0:
            return _F64(x[0])
        if x.dtype != np.float64:
            base = ctx.pool.take(x.shape[0])
            np.copyto(base, x, casting="unsafe")
        else:
            base = x
        return _Lin({id(base): (base, _L_ONE)})
    return _F64(x)


def _flush(ctx: _AffineCtx, x) -> "np.ndarray | np.float64":
    """Materialise a value: scalars pass through, forms become arrays."""
    if not isinstance(x, _Lin):
        return x
    items = list(x.terms.values())
    base0, c0 = items[0]
    if len(items) == 1 and c0 == 1.0 and x.offset == 0.0:
        return base0
    out = ctx.pool.take(base0.shape[0])
    if c0 == 1.0:
        np.copyto(out, base0)
    else:
        np.multiply(base0, c0, out=out)
    if len(items) > 1:
        scratch = ctx.pool.take(base0.shape[0])
        for base, c in items[1:]:
            if c == 1.0:
                np.add(out, base, out=out)
            else:
                np.multiply(base, c, out=scratch)
                np.add(out, scratch, out=out)
    if x.offset != 0.0:
        np.add(out, x.offset, out=out)
    return out


def _as_col(ctx: _AffineCtx, x) -> np.ndarray:
    """Materialise to a 1-D float64 array (length 1 for scalars)."""
    flushed = _flush(ctx, _val(ctx, x))
    if isinstance(flushed, np.ndarray):
        return flushed
    out = ctx.pool.take(1)
    out[0] = flushed
    return out


def _product(ctx: _AffineCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    key = (id(a), id(b)) if id(a) <= id(b) else (id(b), id(a))
    got = ctx.products.get(key)
    if got is None:
        got = ctx.pool.take(a.shape[0])
        np.multiply(a, b, out=got)
        ctx.products[key] = got
    return got


def _scaled(lin: _Lin, s) -> _Lin:
    return _Lin(
        {k: (base, c * s) for k, (base, c) in lin.terms.items()},
        lin.offset * s,
    )


def _mul(ctx: _AffineCtx, a, b):
    a = _val(ctx, a)
    b = _val(ctx, b)
    if isinstance(a, _Lin):
        if isinstance(b, _Lin):
            return _mul_lin(ctx, a, b)
        if b == 1.0:
            return a
        return _scaled(a, b)
    if isinstance(b, _Lin):
        if a == 1.0:
            return b
        return _scaled(b, a)
    return a * b


def _mul_lin(ctx: _AffineCtx, a: _Lin, b: _Lin) -> _Lin:
    # Expanding a product multiplies term counts; re-base wide operands
    # so pathological chains cannot blow the form up combinatorially.
    if len(a.terms) * len(b.terms) > 4:
        rebased = _flush(ctx, a)
        a = _Lin({id(rebased): (rebased, _L_ONE)}, _L_ZERO)
    terms: dict[int, tuple[np.ndarray, np.float64]] = {}

    def acc(base, c):
        key = id(base)
        old = terms.get(key)
        terms[key] = (base, old[1] + c) if old else (base, c)

    for base_a, ca in a.terms.values():
        for base_b, cb in b.terms.values():
            acc(_product(ctx, base_a, base_b), ca * cb)
        if b.offset != 0.0:
            acc(base_a, ca * b.offset)
    if a.offset != 0.0:
        for base_b, cb in b.terms.values():
            acc(base_b, cb * a.offset)
    return _Lin(terms, a.offset * b.offset)


def _add(ctx: _AffineCtx, a, b):
    a = _val(ctx, a)
    b = _val(ctx, b)
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


def _neg(x):
    if isinstance(x, _Lin):
        return _scaled(x, _F64(-1.0))
    return -x


def _sub(ctx: _AffineCtx, a, b):
    return _add(ctx, _val(ctx, a), _neg(_val(ctx, b)))


def _div(ctx: _AffineCtx, a, b):
    a = _val(ctx, a)
    b = _val(ctx, b)
    if not isinstance(b, _Lin):
        if isinstance(a, _Lin):
            if b == 1.0:
                return a
            if b != 0.0 and math.isfinite(b):
                return _scaled(a, _L_ONE / b)
            # Zero/non-finite divisors: coefficient-wise division would
            # turn per-row sign information into sign-of-coefficient
            # infinities; divide the materialised numerator instead.
            num = _flush(ctx, a)
            out = ctx.pool.take(num.shape[0])
            np.divide(num, b, out=out)
            return _Lin({id(out): (out, _L_ONE)})
        return a / b
    den = _flush(ctx, b)
    out = ctx.pool.take(den.shape[0])
    np.divide(_flush(ctx, a), den, out=out)
    return _Lin({id(out): (out, _L_ONE)})


def _un_flushed(ctx: _AffineCtx, ufunc, x):
    """Nonlinear unary op: flush, apply into a pool buffer (or scalar)."""
    x = _val(ctx, x)
    if isinstance(x, _Lin):
        arr = _flush(ctx, x)
        out = ctx.pool.take(arr.shape[0])
        ufunc(arr, out=out)
        return _Lin({id(out): (out, _L_ONE)})
    return ufunc(x)


def _pow(ctx: _AffineCtx, a, b):
    a = _val(ctx, a)
    b = _val(ctx, b)
    if isinstance(b, _Lin) or isinstance(a, _Lin):
        if not isinstance(b, _Lin) and b == 1.0:
            return a
        base = _flush(ctx, a)
        exp = _flush(ctx, b)
        if isinstance(base, np.ndarray) or isinstance(exp, np.ndarray):
            out = ctx.pool.take(_blen(base, exp))
            np.power(_pyf(base), _pyf(exp), out=out)
            return _Lin({id(out): (out, _L_ONE)})
        return np.power(base, exp)
    return np.power(a, b)


def _maximum(ctx: _AffineCtx, a, b):
    a = _val(ctx, a)
    b = _val(ctx, b)
    if isinstance(a, _Lin) or isinstance(b, _Lin):
        fa, fb = _flush(ctx, a), _flush(ctx, b)
        out = ctx.pool.take(_blen(fa, fb))
        np.maximum(_pyf(fa), _pyf(fb), out=out)
        return _Lin({id(out): (out, _L_ONE)})
    return np.maximum(a, b)


# ----------------------------------------------------------------------
# Fused twins of the chain kernels (buffer-reuse NumPy backend)
#
# Each ``fused_*`` function mirrors its twin in ``kernels.py`` —
# identical positional signature (GF-FUSE enforces this), same model
# algebra to ``rtol <= 1e-12`` — but computes over deferred linear
# forms at natural rank into pool buffers instead of broadcasting
# everything to batch rank.  Twins accept raw column arrays, scalars or
# :class:`_Lin` values and return a scalar or :class:`_Lin`; callers
# materialise with ``_flush``/``_as_col``.
# ----------------------------------------------------------------------


def fused_repeat_add(x, counts, *, ctx: _AffineCtx):
    """Twin of :func:`~repro.engine.vector.kernels.repeat_add`.

    Uniform counts (the tiled-scenario streaming case) collapse the
    ``count``-step left fold to a single multiply on the deferred form.
    The fold's worst-case relative error against the exact product is
    ``(count - 1) * 2**-53``, so the two agree within the tier's parity
    bound only up to :data:`MAX_UNIFORM_FOLD_COUNT`;
    :meth:`FusedKernel.evaluate` yields larger uniform counts to the
    chain.  Ragged counts delegate to the chain twin, which folds
    exactly.
    """
    counts = np.asarray(counts)
    if counts.size > 1 and counts.min() != counts.max():
        return _val(ctx, repeat_add(_as_col(ctx, x), counts))
    if counts.size == 0:
        return _val(ctx, x)
    c = int(counts.flat[0])
    if c == 1:
        # A one-step fold is the operand itself (the chain's masked
        # fold selects x verbatim at step 1).
        return _val(ctx, x)
    if c < 1:
        return _F64(0.0)
    return _mul(ctx, x, _F64(c))


def fused_generations_kernel(years, chip_lifetime_years, *, ctx: _AffineCtx):
    """Twin of :func:`~repro.engine.vector.kernels.generations_kernel`.

    Returns float64 generation counts (exact small integers) instead of
    the chain's int64 — downstream fleet arithmetic is float either
    way.
    """
    t = _div(ctx, years, chip_lifetime_years)
    t = _sub(ctx, t, _F64(GENERATIONS_EPSILON))
    t = _un_flushed(ctx, np.ceil, t)
    return _maximum(ctx, _F64(1.0), t)


def fused_ratio_kernel(fpga_totals, asic_totals, *, pool: ScratchPool) -> np.ndarray:
    """Twin of :func:`~repro.engine.vector.kernels.ratio_kernel`."""
    out = pool.take(_blen(fpga_totals, asic_totals))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(_pyf(fpga_totals), _pyf(asic_totals), out=out)
    asic = np.asarray(asic_totals, dtype=np.float64)
    if np.count_nonzero(asic) != asic.size:  # degenerate rows: rare path
        zero = np.broadcast_to(asic, out.shape) == 0.0
        fpga = np.broadcast_to(
            np.asarray(fpga_totals, dtype=np.float64), out.shape
        )[zero]
        out[zero] = np.where(fpga == 0.0, 1.0, np.copysign(np.inf, fpga))
    return out


def fused_winner_kernel(fpga_totals, asic_totals, *, pool: ScratchPool) -> np.ndarray:
    """Twin of :func:`~repro.engine.vector.kernels.winner_kernel`.

    Returns the boolean FPGA-wins mask instead of materialised strings;
    :class:`FusedResult` renders ``winners`` lazily from it (reducers on
    the hot path count wins without ever touching a string array).
    """
    lt = pool.take(_blen(fpga_totals, asic_totals), np.bool_)
    np.less(fpga_totals, asic_totals, out=lt)
    return lt


def fused_dies_per_wafer_kernel(
    die_area_mm2, wafer_diameter_mm, edge_exclusion_mm, scribe_mm, *, ctx: _AffineCtx
):
    """Twin of :func:`~repro.engine.vector.kernels.dies_per_wafer_kernel`."""
    area = _val(ctx, die_area_mm2)
    if isinstance(area, _Lin):
        arr = _flush(ctx, area)
        over = ctx.pool.take(arr.shape[0], np.bool_)
        np.greater(arr, RETICLE_LIMIT_MM2, out=over)
        too_big, worst = bool(over.any()), float(arr.max()) if over.any() else 0.0
    else:
        too_big, worst = bool(area > RETICLE_LIMIT_MM2), float(area)
    if too_big:
        raise CapacityError(
            f"die area {worst:.0f} mm^2 exceeds the reticle limit "
            f"({RETICLE_LIMIT_MM2:.0f} mm^2); split the design across chips"
        )
    side_mm = _add(ctx, _un_flushed(ctx, np.sqrt, area), scribe_mm)
    footprint_mm2 = _pow(ctx, side_mm, 2.0)
    usable = _sub(
        ctx, wafer_diameter_mm, _mul(ctx, 2.0, edge_exclusion_mm)
    )
    half = _div(ctx, usable, 2.0)
    area_term = _div(
        ctx, _mul(ctx, np.pi, _pow(ctx, half, 2.0)), footprint_mm2
    )
    denom = _un_flushed(ctx, np.sqrt, _mul(ctx, 2.0, footprint_mm2))
    edge_term = _div(ctx, _mul(ctx, np.pi, usable), denom)
    gross = _un_flushed(ctx, np.floor, _sub(ctx, area_term, edge_term))
    if isinstance(gross, _Lin):
        garr = _flush(ctx, gross)
        low = ctx.pool.take(garr.shape[0], np.bool_)
        np.less(garr, 1.0, out=low)
        no_fit = bool(low.any())
    else:
        no_fit = bool(gross < 1.0)
    if no_fit:
        raise CapacityError("a die in the batch does not fit on its wafer")
    return gross


def fused_wafer_area_per_die_kernel(
    die_area_mm2, wafer_diameter_mm, edge_exclusion_mm, scribe_mm, *, ctx: _AffineCtx
):
    """Twin of :func:`~repro.engine.vector.kernels.wafer_area_per_die_kernel`."""
    gross = fused_dies_per_wafer_kernel(
        die_area_mm2, wafer_diameter_mm, edge_exclusion_mm, scribe_mm, ctx=ctx
    )
    radius_mm = _sub(
        ctx, _div(ctx, wafer_diameter_mm, 2.0), edge_exclusion_mm
    )
    if isinstance(radius_mm, _Lin):
        rarr = _flush(ctx, radius_mm)
        bad = ctx.pool.take(rarr.shape[0], np.bool_)
        np.less_equal(rarr, 0.0, out=bad)
        degenerate = bool(bad.any())
    else:
        degenerate = bool(radius_mm <= 0.0)
    if degenerate:
        raise CapacityError("edge exclusion leaves no usable wafer area")
    usable_cm2 = _div(
        ctx, _mul(ctx, np.pi, _pow(ctx, radius_mm, 2.0)), MM2_PER_CM2
    )
    per_die = _div(ctx, usable_cm2, gross)
    alt = _div(ctx, die_area_mm2, MM2_PER_CM2)
    return _maximum(ctx, per_die, alt)


def fused_die_yield_kernel(
    area_cm2, defect_density_per_cm2, model_code, line_yield, *, ctx: _AffineCtx
):
    """Twin of :func:`~repro.engine.vector.kernels.die_yield_kernel`.

    Uniform model codes (every realistic batch) take a single branch at
    natural rank; per-row mixed codes delegate to the chain twin.
    """
    code = np.asarray(model_code)
    if code.size > 1 and code.min() != code.max():
        return _val(ctx, die_yield_kernel(
            _as_col(ctx, area_cm2), defect_density_per_cm2, model_code,
            line_yield,
        ))
    faults = _flush(ctx, _mul(ctx, area_cm2, defect_density_per_cm2))
    c = int(code.flat[0])
    if c == _MURPHY:
        with np.errstate(divide="ignore", invalid="ignore"):
            if isinstance(faults, np.ndarray):
                curve = ctx.pool.take(faults.shape[0])
                np.negative(faults, out=curve)
                np.expm1(curve, out=curve)
                np.negative(curve, out=curve)
                np.divide(curve, faults, out=curve)
                np.power(curve, 2.0, out=curve)
                small = ctx.pool.take(faults.shape[0], np.bool_)
                np.less(faults, 1.0e-12, out=small)
                curve[small] = 1.0
                statistical = _Lin({id(curve): (curve, _L_ONE)})
            else:
                if faults < 1.0e-12:
                    statistical = _F64(1.0)
                else:
                    ramp = -np.expm1(-faults) / faults
                    statistical = ramp * ramp
    elif c == _POISSON:
        statistical = _un_flushed(ctx, np.exp, _neg(_val(ctx, faults)))
    elif c == _SEEDS:
        statistical = _div(ctx, 1.0, _add(ctx, 1.0, faults))
    else:
        return _val(ctx, die_yield_kernel(
            _as_col(ctx, area_cm2), defect_density_per_cm2, model_code,
            line_yield,
        ))
    return _mul(ctx, statistical, line_yield)


def fused_manufacturing_per_die_kg(
    die_area_mm2,
    epa_kwh_per_cm2,
    gpa_kg_per_cm2,
    mpa_new_kg_per_cm2,
    mpa_recycled_kg_per_cm2,
    defect_density_per_cm2,
    line_yield,
    wafer_diameter_mm,
    fab_intensity_kg_per_kwh,
    gas_abatement,
    edge_exclusion_mm,
    scribe_mm,
    recycled_fraction,
    yield_model_code,
    charge_wafer_waste,
    *,
    ctx: _AffineCtx,
):
    """Twin of :func:`~repro.engine.vector.kernels.manufacturing_per_die_kg`.

    Structurally mixed batches (per-row charge flags or yield models)
    delegate to the chain twin over broadcast inputs — exactly what the
    chain's side-constant builder does — so the fused path only ever
    takes uniform branches.
    """
    die_area_mm2 = np.asarray(die_area_mm2, dtype=np.float64)
    charge = np.asarray(charge_wafer_waste)
    code = np.asarray(yield_model_code)
    mixed_charge = charge.size > 1 and charge.min() != charge.max()
    mixed_code = code.size > 1 and code.min() != code.max()
    if mixed_charge or mixed_code:
        broadcast = np.broadcast_arrays(
            die_area_mm2, epa_kwh_per_cm2, gpa_kg_per_cm2, mpa_new_kg_per_cm2,
            mpa_recycled_kg_per_cm2, defect_density_per_cm2, line_yield,
            wafer_diameter_mm, fab_intensity_kg_per_kwh, gas_abatement,
            edge_exclusion_mm, scribe_mm, recycled_fraction, yield_model_code,
            charge_wafer_waste,
        )
        return _val(
            ctx, manufacturing_per_die_kg(*broadcast[:-1], broadcast[-1] != 0.0)
        )
    if bool(charge.flat[0]):
        area_cm2 = fused_wafer_area_per_die_kernel(
            die_area_mm2, wafer_diameter_mm, edge_exclusion_mm, scribe_mm,
            ctx=ctx,
        )
    else:
        area_cm2 = _div(ctx, die_area_mm2, MM2_PER_CM2)
    total_yield = fused_die_yield_kernel(
        _div(ctx, die_area_mm2, MM2_PER_CM2),
        defect_density_per_cm2,
        yield_model_code,
        line_yield,
        ctx=ctx,
    )
    scale = _div(ctx, area_cm2, total_yield)
    energy = _mul(
        ctx, _mul(ctx, epa_kwh_per_cm2, fab_intensity_kg_per_kwh), scale
    )
    gas = _mul(ctx, gpa_kg_per_cm2, _sub(ctx, 1.0, gas_abatement))
    gas = _mul(ctx, gas, scale)
    blended = _mul(ctx, recycled_fraction, mpa_recycled_kg_per_cm2)
    other = _mul(
        ctx, _sub(ctx, 1.0, recycled_fraction), mpa_new_kg_per_cm2
    )
    material = _mul(ctx, _add(ctx, blended, other), scale)
    return _add(ctx, _add(ctx, energy, gas), material)


def fused_packaging_per_chip(
    die_area_mm2,
    substrate_kg_per_cm2,
    assembly_kwh_per_package,
    assembly_intensity_kg_per_kwh,
    fanout_factor,
    base_kg_per_package,
    mass_g_per_cm2,
    base_mass_g,
    *,
    ctx: _AffineCtx,
):
    """Twin of :func:`~repro.engine.vector.kernels.packaging_per_chip`."""
    pkg_area_cm2 = _div(
        ctx, _mul(ctx, die_area_mm2, fanout_factor), MM2_PER_CM2
    )
    substrate = _add(
        ctx, base_kg_per_package,
        _mul(ctx, substrate_kg_per_cm2, pkg_area_cm2),
    )
    assembly = _mul(
        ctx, assembly_kwh_per_package, assembly_intensity_kg_per_kwh
    )
    mass_g = _add(ctx, base_mass_g, _mul(ctx, mass_g_per_cm2, pkg_area_cm2))
    return _add(ctx, substrate, assembly), mass_g


def fused_eol_per_chip_kg(
    package_mass_g,
    recycled_fraction,
    discard_kg_per_kg,
    recycle_credit_kg_per_kg,
    transport_kg_per_kg,
    *,
    ctx: _AffineCtx,
):
    """Twin of :func:`~repro.engine.vector.kernels.eol_per_chip_kg`."""
    mass_kg = _div(ctx, package_mass_g, 1000.0)
    discard_coef = _mul(
        ctx, _sub(ctx, 1.0, recycled_fraction), discard_kg_per_kg
    )
    discard = _mul(ctx, discard_coef, mass_kg)
    credit = _mul(
        ctx, _mul(ctx, recycled_fraction, recycle_credit_kg_per_kg), mass_kg
    )
    transport = _mul(ctx, transport_kg_per_kg, mass_kg)
    return _add(ctx, _sub(ctx, discard, credit), transport)


def fused_design_project_kg(
    gates_mgates,
    annual_energy_kwh_effective,
    project_years,
    intensity_kg_per_kwh,
    avg_gates_per_chip_mgates,
    gate_scaling_beta,
    *,
    ctx: _AffineCtx,
):
    """Twin of :func:`~repro.engine.vector.kernels.design_project_kg`."""
    gate_scale = _pow(
        ctx, _div(ctx, gates_mgates, avg_gates_per_chip_mgates),
        gate_scaling_beta,
    )
    total = _mul(ctx, annual_energy_kwh_effective, project_years)
    total = _mul(ctx, total, intensity_kg_per_kwh)
    return _mul(ctx, total, gate_scale)


def fused_operation_per_chip_year_kg(
    power_w,
    duty_cycle,
    idle_fraction_of_peak,
    pue,
    intensity_kg_per_kwh,
    *,
    ctx: _AffineCtx,
):
    """Twin of :func:`~repro.engine.vector.kernels.operation_per_chip_year_kg`.

    The duty/PUE prefix stays a deferred form over the duty column, so
    both platform sides share its bases (and the single ``ci * duty``
    product pass) through the evaluation context's caches.
    """
    idle = _mul(ctx, _sub(ctx, 1.0, duty_cycle), idle_fraction_of_peak)
    effective_duty = _mul(ctx, _add(ctx, duty_cycle, idle), pue)
    energy = _mul(ctx, _div(ctx, power_w, 1000.0), effective_duty)
    energy = _mul(ctx, energy, HOURS_PER_YEAR)
    return _mul(ctx, intensity_kg_per_kwh, energy)


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

    @property
    def fpga_advantage_kg(self) -> np.ndarray:
        """ASIC total minus FPGA total per row (positive = FPGA wins)."""
        return self.asic_totals - self.fpga_totals


class _FusedSide:
    """Per-chip constant columns of one side, at natural rank."""

    __slots__ = (
        "design", "mfg", "pkg", "eol", "op",
        "dev_kg", "config_kw", "chpu", "ad_ci", "life", "capacity",
    )

    def __init__(self, **fields) -> None:
        for name, value in fields.items():
            setattr(self, name, value)


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

    def _side_constants(
        self,
        p: ParameterBatch,
        ctx: _AffineCtx,
        *,
        fpga_side: bool,
    ) -> _FusedSide:
        if fpga_side:
            area, power, life = p.col(P.F_AREA), p.col(P.F_POWER), p.col(P.F_LIFE)
            gates = p.col(P.F_GATES)
            epa, gpa = p.col(P.F_EPA), p.col(P.F_GPA)
            mpa_new, mpa_rec = p.col(P.F_MPA_NEW), p.col(P.F_MPA_REC)
            defect, line_yield = p.col(P.F_DEFECT), p.col(P.F_LINE_YIELD)
            wafer_d = p.col(P.F_WAFER_D)
            team_years, dev_kg = p.col(P.F_TEAM_YEARS), p.col(P.F_DEV_KG)
            chpu = p.col(P.F_CHPU)
            capacity = p.col(P.F_CAPACITY)
        else:
            area, power, life = p.col(P.A_AREA), p.col(P.A_POWER), p.col(P.A_LIFE)
            gates = p.col(P.A_GATES)
            epa, gpa = p.col(P.A_EPA), p.col(P.A_GPA)
            mpa_new, mpa_rec = p.col(P.A_MPA_NEW), p.col(P.A_MPA_REC)
            defect, line_yield = p.col(P.A_DEFECT), p.col(P.A_LINE_YIELD)
            wafer_d = p.col(P.A_WAFER_D)
            team_years, dev_kg = p.col(P.A_TEAM_YEARS), p.col(P.A_DEV_KG)
            chpu = p.col(P.A_CHPU)
            capacity = None
        mfg = fused_manufacturing_per_die_kg(
            area, epa, gpa, mpa_new, mpa_rec, defect, line_yield, wafer_d,
            p.col(P.MFG_FAB_CI), p.col(P.MFG_ABATE), p.col(P.MFG_EDGE),
            p.col(P.MFG_SCRIBE), p.col(P.MFG_RHO), p.col(P.MFG_YIELD_CODE),
            p.col(P.MFG_CHARGE), ctx=ctx,
        )
        pkg, mass_g = fused_packaging_per_chip(
            area, p.col(P.PKG_SUB), p.col(P.PKG_ASM_KWH), p.col(P.PKG_ASM_CI),
            p.col(P.PKG_FANOUT), p.col(P.PKG_BASE_KG), p.col(P.PKG_MASS_CM2),
            p.col(P.PKG_BASE_MASS), ctx=ctx,
        )
        eol = fused_eol_per_chip_kg(
            mass_g, p.col(P.EOL_DELTA), p.col(P.EOL_DISCARD),
            p.col(P.EOL_CREDIT), p.col(P.EOL_TRANSPORT), ctx=ctx,
        )
        design = fused_design_project_kg(
            gates, p.col(P.DES_ANNUAL_KWH), team_years, p.col(P.DES_CI),
            p.col(P.DES_AVG_GATES), p.col(P.DES_BETA), ctx=ctx,
        )
        op = fused_operation_per_chip_year_kg(
            power, p.col(P.OP_DUTY), p.col(P.OP_IDLE), p.col(P.OP_PUE),
            p.col(P.OP_CI), ctx=ctx,
        )
        return _FusedSide(
            design=design, mfg=mfg, pkg=pkg, eol=eol, op=op,
            dev_kg=dev_kg, config_kw=p.col(P.AD_CONFIG_KW), chpu=chpu,
            ad_ci=p.col(P.AD_CI), life=life, capacity=capacity,
        )

    def _fold(self, x: np.ndarray) -> np.ndarray:
        """Fold a scenario column to length 1 when value-uniform."""
        folded = _uniform_view(self.pool, x)
        return x if folded is None else folded

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
        ctx = _AffineCtx(pool)

        fpga = self._side_constants(p, ctx, fpga_side=True)
        asic = self._side_constants(p, ctx, fpga_side=False)

        num_apps = self._fold(batch.num_apps)
        volume = self._fold(batch.volume)
        lifetime = self._fold(batch.lifetime)
        eval_years = self._fold(batch.evaluation_years)
        app_size = self._fold(batch.app_size_mgates)
        enforce = self._fold(batch.enforce_chip_lifetime)

        # N_FPGA = ceil(app_size / capacity), 1 when sized to the device.
        capacity = fpga.capacity
        if app_size.shape[0] == 1:
            if np.isnan(app_size[0]):
                n_fpga = _F64(1.0)
            else:
                units = _div(ctx, app_size, capacity)
                n_fpga = _maximum(ctx, 1.0, _un_flushed(ctx, np.ceil, units))
        else:
            # Mixed sized/unsized apps: rare materialized-batch path.
            sized = ~np.isnan(app_size)
            cap = np.broadcast_to(
                np.asarray(capacity, dtype=np.float64), app_size.shape
            )
            safe_size = np.where(sized, app_size, cap)
            units = np.maximum(1.0, np.ceil(safe_size / cap))
            n_fpga = _val(ctx, np.where(sized, units, 1.0))

        total_years = fused_repeat_add(lifetime, num_apps, ctx=ctx)
        if eval_years.shape[0] == 1:
            horizon = total_years if np.isnan(eval_years[0]) else _val(
                ctx, eval_years
            )
        else:
            horizon = _val(ctx, np.where(
                np.isnan(eval_years),
                np.broadcast_to(_as_col(ctx, total_years), eval_years.shape),
                eval_years,
            ))
        if enforce.shape[0] == 1:
            if enforce[0]:
                fpga_gen = fused_generations_kernel(horizon, fpga.life, ctx=ctx)
            else:
                fpga_gen = _F64(1.0)
        else:
            gens = fused_generations_kernel(horizon, fpga.life, ctx=ctx)
            fpga_gen = _val(ctx, np.where(
                enforce,
                np.broadcast_to(_as_col(ctx, gens), enforce.shape),
                1.0,
            ))

        unit_count = _mul(ctx, volume, n_fpga)
        fleet = _mul(ctx, unit_count, fpga_gen)

        f_design = _add(ctx, 0.0, fpga.design)
        f_mfg = _mul(ctx, fpga.mfg, fleet)
        f_pkg = _mul(ctx, fpga.pkg, fleet)
        f_eol = _mul(ctx, fpga.eol, fleet)
        op_app = _mul(ctx, _mul(ctx, lifetime, unit_count), fpga.op)
        f_op = fused_repeat_add(op_app, num_apps, ctx=ctx)
        config_hours = _mul(ctx, fpga.chpu, unit_count)
        configuration = _mul(
            ctx, _mul(ctx, fpga.config_kw, config_hours), fpga.ad_ci
        )
        appdev_app = _add(ctx, fpga.dev_kg, configuration)
        f_appdev = fused_repeat_add(appdev_app, num_apps, ctx=ctx)
        fpga_totals = _add(ctx, f_design, f_mfg)
        fpga_totals = _add(ctx, fpga_totals, f_pkg)
        fpga_totals = _add(ctx, fpga_totals, f_eol)
        fpga_totals = _add(ctx, fpga_totals, _add(ctx, f_op, f_appdev))

        asic_gen = fused_generations_kernel(lifetime, asic.life, ctx=ctx)
        chips = _mul(ctx, volume, asic_gen)
        a_design_app = _add(ctx, 0.0, asic.design)
        a_mfg_app = _mul(ctx, asic.mfg, chips)
        a_pkg_app = _mul(ctx, asic.pkg, chips)
        a_eol_app = _mul(ctx, asic.eol, chips)
        a_op_app = _mul(ctx, _mul(ctx, lifetime, volume), asic.op)
        a_config_hours = _mul(ctx, asic.chpu, volume)
        a_configuration = _mul(
            ctx, _mul(ctx, asic.config_kw, a_config_hours), asic.ad_ci
        )
        a_appdev_app = _add(ctx, asic.dev_kg, a_configuration)
        a_design = fused_repeat_add(a_design_app, num_apps, ctx=ctx)
        a_mfg = fused_repeat_add(a_mfg_app, num_apps, ctx=ctx)
        a_pkg = fused_repeat_add(a_pkg_app, num_apps, ctx=ctx)
        a_eol = fused_repeat_add(a_eol_app, num_apps, ctx=ctx)
        a_op = fused_repeat_add(a_op_app, num_apps, ctx=ctx)
        a_appdev = fused_repeat_add(a_appdev_app, num_apps, ctx=ctx)
        asic_totals = _add(ctx, a_design, a_mfg)
        asic_totals = _add(ctx, asic_totals, a_pkg)
        asic_totals = _add(ctx, asic_totals, a_eol)
        asic_totals = _add(ctx, asic_totals, _add(ctx, a_op, a_appdev))

        fpga_col = _as_col(ctx, fpga_totals)
        asic_col = _as_col(ctx, asic_totals)
        ratios = fused_ratio_kernel(fpga_col, asic_col, pool=pool)
        wins = fused_winner_kernel(fpga_col, asic_col, pool=pool)
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
