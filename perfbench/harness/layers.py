"""Which public functions a traced run wraps, and the per-layer metrics.

Layers are named after the repo's modules.  Each table row is
``(module, class or None, attribute, span name, attrs)``; the module
is the one the callers look the name up in, so the wrapper is what they
call.
"""

from __future__ import annotations

from harness.common import PER_LAYER
from harness.trace import summarise, unattributed_share


def _flush_attrs(args, kwargs, wrote):
    return {"wrote": int(bool(wrote))}


def _write_attrs(args, kwargs, result):
    return {"bytes": len(args[1])}


def _batch_rows(args, kwargs, result):
    return {"rows": int(result.size)}


#: In-process engine layers: streaming, evaluator, reducers, checkpoint,
#: store, heatmap.  Used by the batch workloads and by the serving
#: workload's replay of its batches through ``evaluate_job``.
ENGINE_LAYERS = (
    ("repro.engine.vector.streaming", "MonteCarloChunkSource", "chunk",
     "streaming.chunk", None),
    ("repro.engine.vector.evaluator", "VectorizedEvaluator", "reduce_batch",
     "evaluator.reduce_batch", None),
    ("repro.engine.vector.evaluator", "VectorizedEvaluator", "evaluate_batch",
     "evaluator.evaluate_batch", _batch_rows),
    ("repro.engine.vector.reducers", "StreamingReduction", "update",
     "reducers.update", None),
    ("repro.engine.vector.reducers", "MomentsReducer", "update",
     "reducers.moments", None),
    ("repro.engine.vector.reducers", "ReservoirQuantiles", "update",
     "reducers.quantiles", None),
    ("repro.engine.vector.reducers", "WinCountReducer", "update",
     "reducers.wins", None),
    ("repro.engine.vector.checkpoint", "CheckpointJournal", "flush",
     "checkpoint.flush", _flush_attrs),
    ("repro.engine.vector.checkpoint", None, "atomic_write_bytes",
     "atomicio.write", _write_attrs),
    ("repro.engine.engine", None, "batch_digests", "store.digest", None),
    ("repro.engine.store", "ShardedResultStore", "get_batch",
     "store.get_batch", None),
    ("repro.engine.store", "ShardedResultStore", "put_batch",
     "store.put_batch", None),
    ("repro.analysis.heatmap", None, "heatmap_columns", "heatmap.columns",
     None),
    ("repro.engine.serve.worker", None, "evaluate_job",
     "worker.evaluate_job", None),
)

#: Load-generator side of the wire.
CLIENT_LAYERS = (
    ("repro.engine.serve.protocol", None, "encode_request",
     "protocol.encode_request", None),
    ("repro.engine.serve.protocol", None, "decode_response",
     "protocol.decode_response", None),
)


def _decoded_key(args, kwargs, result):
    return {"key": id(result[1].num_apps)}


def _submitted_key(args, kwargs, result):
    return {"key": id(args[1]["columns"]["num_apps"])}


#: Server-process side: installed by the server launcher before the
#: ``BatchServer`` starts.  The ``key`` attrs pair each request's decode
#: with its submit (same decoded column object) to time the queue wait.
SERVER_LAYERS = (
    ("repro.engine.serve.protocol", None, "decode_request",
     "protocol.decode_request", _decoded_key),
    ("repro.engine.serve.protocol", None, "encode_response",
     "protocol.encode_response", None),
    ("repro.engine.serve.supervisor", "WorkerSupervisor", "submit",
     "supervisor.submit", _submitted_key),
)


def zero_metrics() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def engine_metrics(spans, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of in-process engine spans over ``wall_s``.

    ``self_s`` is a layer's self time; ``share`` is the share of the
    traced wall time spent inside the layer, children included.
    """
    layers = summarise(spans)
    out: dict[str, float] = {}

    def field(name, key):
        return float(layers.get(name, {}).get(key, 0))

    def share(name):
        return field(name, "total_s") / wall_s if wall_s > 0 else 0.0

    out["streaming.chunk.calls"] = field("streaming.chunk", "calls")
    out["streaming.chunk.self_s"] = field("streaming.chunk", "self_s")
    out["streaming.chunk.share"] = share("streaming.chunk")
    out["evaluator.reduce_batch.self_s"] = field(
        "evaluator.reduce_batch", "self_s")
    out["evaluator.reduce_batch.share"] = share("evaluator.reduce_batch")
    for key in ("calls", "rows", "self_s"):
        out[f"evaluator.evaluate_batch.{key}"] = field(
            "evaluator.evaluate_batch", key)
    out["evaluator.evaluate_batch.share"] = share("evaluator.evaluate_batch")
    for reducer in ("moments", "quantiles", "wins"):
        out[f"reducers.{reducer}.self_s"] = field(
            f"reducers.{reducer}", "self_s")
    out["reducers.update.share"] = share("reducers.update")
    out["checkpoint.flush.calls"] = field("checkpoint.flush", "wrote")
    out["checkpoint.flush.self_s"] = field("checkpoint.flush", "self_s")
    out["checkpoint.flush.share"] = share("checkpoint.flush")
    flushes = out["checkpoint.flush.calls"]
    out["checkpoint.flush.bytes"] = (
        field("atomicio.write", "bytes") / flushes if flushes else 0.0)
    out["atomicio.write.self_s"] = field("atomicio.write", "self_s")
    for name in ("digest", "get_batch", "put_batch"):
        out[f"store.{name}.self_s"] = field(f"store.{name}", "self_s")
    out["heatmap.columns.self_s"] = field("heatmap.columns", "self_s")
    out["trace.unattributed_share"] = unattributed_share(spans, wall_s)
    return out


def store_metrics(before, after, rows_before: int, rows_after: int,
                  cells: int) -> dict[str, float]:
    """Store and engine counters between two engine snapshots.

    Every computed covered cell is inserted once, so the entries that
    did not add to the store's size were evictions.
    """
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    computed = rows_after - rows_before
    return {
        "store.hit_ratio": hits / lookups if lookups else 0.0,
        "store.evictions": float(computed - (after.size - before.size)),
        "engine.rows_computed_ratio": computed / cells if cells else 0.0,
    }


def durations_ms(spans, name: str) -> list[float]:
    return [
        (record[2] - record[1]) * 1e3 for record in spans if record[0] == name
    ]


def queue_waits_ms(spans) -> list[float]:
    """Per request: end of ``decode_request`` to start of ``submit``."""
    decoded: dict[int, float] = {}
    waits = []
    for record in sorted(spans, key=lambda r: r[1]):
        name, start, end, _, attrs = record
        if name == "protocol.decode_request":
            decoded[attrs["key"]] = end
        elif name == "supervisor.submit" and attrs.get("key") in decoded:
            waits.append((start - decoded.pop(attrs["key"])) * 1e3)
    return waits

