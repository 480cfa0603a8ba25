"""The serving wire format: JSON bodies shared by server and client.

One module owns every byte that crosses the socket, so
:class:`~repro.server.app.ReproServer` and
:class:`~repro.api.client.ServeClient` cannot drift apart. The protocol
is deliberately plain: JSON objects over HTTP/1.1, numpy record arrays
as base64 when the caller wants them.

Requests (``POST /v1/jobs``)::

    {"kind": "run",              # any Scheduler job kind
     "tenant": "acme",           # optional; server default when absent
     "priority": "interactive",  # optional; first configured class
     "label": "...",             # optional client metadata
     "deadline_ms": 500,         # optional queue deadline
     "timeout_s": 2.0,           # optional admission-control bound
     "records": "full",          # "full" | "digest" | "none"
     "config": {"engine": {"backend": "fused"}}}  # sparse overlay

``config`` is a *sparse* RunConfig dict overlaid section-by-section on
the server's default config — clients send only what differs, and the
merged result passes the full :meth:`RunConfig.from_dict` validation.

Responses: ``{"ok": true, "job_id": ..., "result": {...}}`` on success,
``{"ok": false, "error": {"type", "message", "job_id", "label",
"batch_size"}}`` on failure, with the HTTP status carrying the serving
semantics (429 saturated, 504 deadline, 500 job failure — see
:data:`STATUS_BY_ERROR`).

Records travel in one of three modes — the bit-identity contract only
holds for ``full``:

* ``full`` — dtype + shape + base64 of ``records.tobytes()``; decodes
  to a byte-identical array (the end-to-end identity tests rely on it).
* ``digest`` — dtype + shape + BLAKE2b of the bytes; enough to *prove*
  identity without shipping megabytes (the throughput benchmark mode).
* ``none`` — tile count only.

Streams (``POST /v1/streams``) take the same request body (``kind`` is
implicitly ``"stream"``) but answer with ``Transfer-Encoding: chunked``
NDJSON — one JSON object per line, flushed per window:

1. a header frame ``{"ok": true, "job_id", "tenant", "priority",
   "kind": "stream"}``;
2. one :func:`encode_stream_chunk` frame per executed window, records
   in the requested transport mode;
3. a final frame ``{"done": true, "result": ...}`` from
   :func:`encode_stream_result` — or ``{"done": true, "error": ...}``
   when the stream failed mid-flight (the HTTP status is long gone by
   then, so stream errors are always in-band; ``error.type`` maps back
   to the :data:`STATUS_BY_ERROR` semantics client-side).
"""

from __future__ import annotations

import base64
import hashlib

import numpy as np

from repro.api.session import EngineRunResult, RunResult

__all__ = [
    "RECORD_MODES",
    "STATUS_BY_ERROR",
    "decode_records",
    "encode_records",
    "encode_result",
    "encode_stream_chunk",
    "encode_stream_result",
    "error_body",
    "merge_config_dict",
    "records_digest",
]

#: Record transport modes for run-job responses.
RECORD_MODES = ("full", "digest", "none")

#: HTTP status per serving error type (the documented mapping).
STATUS_BY_ERROR = {
    "SchedulerSaturated": 429,
    "DeadlineExceeded": 504,
    "BatchExecutionError": 500,
    "ValidationError": 400,
    "Draining": 503,
    "InjectedRejection": 503,
}


def records_digest(records: np.ndarray) -> str:
    """Stable content digest of a record array (dtype-independent bytes)."""
    return hashlib.blake2b(records.tobytes(), digest_size=16).hexdigest()


def encode_records(records: np.ndarray, mode: str) -> dict:
    if mode not in RECORD_MODES:
        raise ValueError(f"unknown records mode {mode!r}; expected one of {RECORD_MODES}")
    body: dict = {
        "mode": mode,
        "dtype": str(records.dtype),
        "shape": list(records.shape),
    }
    if mode == "full":
        body["data"] = base64.b64encode(records.tobytes()).decode("ascii")
    elif mode == "digest":
        body["blake2b"] = records_digest(records)
    return body


def decode_records(body: dict) -> np.ndarray | None:
    """Rebuild the array from a ``full`` payload; ``None`` otherwise."""
    if body.get("mode") != "full":
        return None
    raw = base64.b64decode(body["data"])
    array = np.frombuffer(raw, dtype=np.dtype(body["dtype"]))
    return array.reshape(tuple(body["shape"])).copy()


def encode_result(result: RunResult, records_mode: str) -> dict:
    """Kind-specific result payload for a completed job.

    ``run`` jobs serialize the full engine report (records per the
    transport mode); every other kind reports its result type and
    wall-clock — the network protocol serves the engine path first, and
    analysis kinds are driven end-to-end by their in-process tests.
    """
    if not isinstance(result, EngineRunResult):
        return {"type": type(result).__name__, "seconds": result.seconds}
    report = result.report
    return {
        "type": "EngineRunResult",
        "seconds": result.seconds,
        "verified": result.verified,
        "report": {
            "backend": report.backend,
            "plan": report.plan,
            "tile_m": report.tile_m,
            "tile_k": report.tile_k,
            "model": report.model,
            "dataset": report.dataset,
            "planned_tiles": report.planned_tiles,
            "unique_tiles": report.unique_tiles,
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "store_hits": report.store_hits,
            "store_misses": report.store_misses,
            "runs": [
                {
                    "name": run.name,
                    "kind": run.kind,
                    "tiles": run.tiles,
                    "seconds": run.seconds,
                    "records": encode_records(run.records, records_mode),
                }
                for run in report.runs
            ],
        },
    }


def encode_stream_chunk(chunk, records_mode: str) -> dict:
    """One NDJSON frame for one executed stream window.

    ``chunk`` is a :class:`~repro.streaming.StreamChunk`; per-workload
    records travel in the requested transport mode, so a ``full``-mode
    client can reassemble the batch-identical record arrays by
    concatenating frames per workload name.
    """
    return {
        "chunk": chunk.index,
        "start_step": chunk.start_step,
        "stop_step": chunk.stop_step,
        "final": chunk.final,
        "seconds": chunk.seconds,
        "tiles": chunk.tiles,
        "planned_tiles": chunk.planned_tiles,
        "unique_tiles": chunk.unique_tiles,
        "cache_hits": chunk.cache_hits,
        "cache_misses": chunk.cache_misses,
        "runs": [
            {
                "name": run.name,
                "kind": run.kind,
                "tiles": run.tiles,
                "records": encode_records(run.records, records_mode),
            }
            for run in chunk.runs
        ],
    }


def encode_stream_result(result) -> dict:
    """The final NDJSON frame's payload for a completed stream.

    ``result`` is a :class:`~repro.streaming.StreamResult`. The chunks
    already shipped every record, so per-workload entries here carry
    only a digest — enough for a client to *prove* its concatenated
    frames match the stream's full record arrays without a re-send.
    """
    report = result.report
    return {
        "type": "StreamResult",
        "windows": result.windows,
        "steps": result.steps,
        "dedup_ratio": result.dedup_ratio,
        "report": {
            "backend": report.backend,
            "plan": report.plan,
            "tile_m": report.tile_m,
            "tile_k": report.tile_k,
            "model": report.model,
            "total_tiles": report.total_tiles,
            "total_seconds": report.total_seconds,
            "tiles_per_sec": report.tiles_per_sec,
            "planned_tiles": report.planned_tiles,
            "unique_tiles": report.unique_tiles,
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "store_hits": report.store_hits,
            "store_misses": report.store_misses,
            "runs": [
                {
                    "name": run.name,
                    "kind": run.kind,
                    "tiles": run.tiles,
                    "records": encode_records(run.records, "digest"),
                }
                for run in report.runs
            ],
        },
    }


def error_body(
    error_type: str,
    message: str,
    *,
    job_id: int | None = None,
    label: str = "",
    batch_size: int | None = None,
) -> tuple[int, dict]:
    """(HTTP status, JSON body) for one serving error."""
    detail: dict = {"type": error_type, "message": message}
    if job_id is not None:
        detail["job_id"] = job_id
    if label:
        detail["label"] = label
    if batch_size is not None:
        detail["batch_size"] = batch_size
    status = STATUS_BY_ERROR.get(error_type, 500)
    return status, {"ok": False, "error": detail}


def merge_config_dict(base: dict, overlay: dict) -> dict:
    """Overlay a sparse request config on the server's default config.

    One level deep — sections are dicts of scalars/lists, so a
    per-section ``dict.update`` is the whole merge. Unknown sections or
    keys are *kept* for :meth:`RunConfig.from_dict` to reject with its
    canonical error message.
    """
    merged = {name: dict(values) for name, values in base.items()}
    for name, values in overlay.items():
        if isinstance(values, dict) and isinstance(merged.get(name), dict):
            merged[name].update(values)
        else:
            merged[name] = values
    return merged
