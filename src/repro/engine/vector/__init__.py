"""Vectorized NumPy evaluation kernel behind the evaluation engine.

See :mod:`repro.engine.vector.model` for the lifecycle model both
kernel tiers interpret, and :mod:`repro.engine.vector.evaluator` for
the evaluation regimes.
"""

from repro.engine.vector.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    CheckpointJournal,
    source_token,
)
from repro.engine.vector.columns import ScenarioBatch
from repro.engine.vector.evaluator import (
    BatchResult,
    VectorizedEvaluator,
    comparator_constants,
)
from repro.engine.vector.fused import (
    KERNEL_TIER_ENV,
    KERNEL_TIERS,
    FusedKernel,
    FusedResult,
    kernel_tier_label,
    make_kernel,
    resolve_kernel_tier,
)
from repro.engine.vector.params import N_PARAM_COLS, ParameterBatch, extract_row
from repro.engine.vector.reducers import (
    DEFAULT_RESERVOIR_K,
    REDUCE_BLOCK,
    REDUCER_REGISTRY,
    HistogramReducer,
    MomentsReducer,
    ParetoReducer,
    ReservoirQuantiles,
    StreamingReducer,
    StreamingReduction,
    TopKReducer,
    WinCountReducer,
)
from repro.engine.vector.streaming import (
    DEFAULT_STREAM_CHUNK_ROWS,
    MAX_STREAM_WORKERS,
    ArrayChunkSource,
    MonteCarloChunkSource,
    SharedArrayChunkSource,
    aligned_chunk_rows,
    run_stream,
)
from repro.engine.vector.kernels import (
    YIELD_MODEL_CODES,
    ratio_kernel,
    repeat_add,
    winner_kernel,
)
from repro.engine.vector.model import SideConstants

__all__ = [
    "ArrayChunkSource",
    "BatchResult",
    "CHECKPOINT_FORMAT_VERSION",
    "Checkpoint",
    "CheckpointJournal",
    "DEFAULT_RESERVOIR_K",
    "DEFAULT_STREAM_CHUNK_ROWS",
    "FusedKernel",
    "FusedResult",
    "HistogramReducer",
    "KERNEL_TIER_ENV",
    "KERNEL_TIERS",
    "MAX_STREAM_WORKERS",
    "MomentsReducer",
    "MonteCarloChunkSource",
    "N_PARAM_COLS",
    "ParameterBatch",
    "ParetoReducer",
    "REDUCE_BLOCK",
    "REDUCER_REGISTRY",
    "ReservoirQuantiles",
    "ScenarioBatch",
    "SharedArrayChunkSource",
    "SideConstants",
    "StreamingReducer",
    "StreamingReduction",
    "TopKReducer",
    "WinCountReducer",
    "aligned_chunk_rows",
    "extract_row",
    "kernel_tier_label",
    "make_kernel",
    "resolve_kernel_tier",
    "run_stream",
    "source_token",
    "VectorizedEvaluator",
    "YIELD_MODEL_CODES",
    "comparator_constants",
    "ratio_kernel",
    "repeat_add",
    "winner_kernel",
]
