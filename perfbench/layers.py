"""Where each layer is entered, and how its spans become metrics.

``PROBES`` lists the public function (or method) that enters each layer;
a traced run wraps them all (see :mod:`perfbench.tracing`).  Span names
double as metric names: the self time of every span called ``X`` is
reported as ``X_s``, per traced round.  ``after`` hooks count work where
it is done.  A layer a workload never enters reports 0.

Which end-to-end metric each layer metric should move, and on which
workload (``job_s`` on paper-eval is the Table II/III ``eval_s``;
``frames_per_s`` is ``stream_frames_per_s`` on crowd-stream and
``fanin_frames_per_s`` on sensor-fanin; ``latency_*`` on crowd-stream
is the window latency):

=====================================================  ==========================
layer metrics                                          moves
=====================================================  ==========================
simulator.run_s, simulator.frames                      job_s, paper-eval only
traces.intern_s, core.database.learn_s                 job_s, paper-eval
core.detection.candidates_s, .score_s, .score_pairs    job_s, paper-eval
core.matcher.match_s, .calls, .pairs                   latency_*, frames_per_s on
                                                       crowd-stream (heavy); not
                                                       job_s on paper-eval (light)
radiotap.decode_s, radiotap.frames                     frames_per_s, crowd-stream
streaming.windows.update_s, .closed,                   crowd-stream metrics
streaming.engine.process_chunk_s,
streaming.matcher.match_window_s
streaming.builder.update_s, .calls, .rows_per_call,    frames_per_s on crowd-stream
.senders_per_call, .candidate_ratio                    and sensor-fanin
core.parameters.extract_s, core.histogram.bin_s,       all three workloads
core.histogram.kept_ratio
service.wire.decode_s, .bytes, service.router.         frames_per_s, sensor-fanin
partition_s, .shard_skew, service.pipeline.ingest_s,
.chunks, service.queue_peak_chunks,
service.worker_busy_share
core.database.merge_s, persistence.checkpoint_s,       frames_per_s, sensor-fanin
.checkpoint_bytes, persistence.save_s
persistence.load_s                                     setup_s, crowd-stream
generator.busy_share                                   none: shows the sensors
                                                       are not the limit
trace.overhead_share, .unaccounted_share, .round_s     none: the traced run's own
                                                       cost and coverage
=====================================================  ==========================
"""

from __future__ import annotations

import numpy as np

from perfbench.common import median
from perfbench.tracing import BENCH_PREFIX, Probe, Tracer

#: Layers whose self time is reported as ``<name>_s`` (seconds per round).
TIMED_LAYERS = (
    "simulator.run",
    "traces.intern",
    "core.database.learn",
    "core.detection.candidates",
    "core.detection.score",
    "core.matcher.match",
    "radiotap.decode",
    "streaming.windows.update",
    "streaming.engine.process_chunk",
    "streaming.matcher.match_window",
    "streaming.builder.update",
    "core.parameters.extract",
    "core.histogram.bin",
    "service.wire.decode",
    "service.router.partition",
    "service.pipeline.ingest",
    "core.database.merge",
    "persistence.checkpoint",
    "persistence.save",
    "persistence.load",
)

#: Counters reported per round, with their units.
COUNTED = {
    "simulator.frames": "frames",
    "core.detection.score_pairs": "count",
    "core.matcher.calls": "count",
    "core.matcher.pairs": "count",
    "radiotap.frames": "frames",
    "streaming.windows.closed": "count",
    "streaming.builder.calls": "count",
    "service.wire.bytes": "bytes",
    "service.pipeline.chunks": "chunks",
    "persistence.checkpoint_bytes": "bytes",
}

#: Ratios and shares (unit, description) — no per-round scaling.
RATIOS = {
    "streaming.builder.rows_per_call": "rows/call",
    "streaming.builder.senders_per_call": "senders/call",
    "streaming.builder.candidate_ratio": "ratio",
    "core.histogram.kept_ratio": "ratio",
    "service.router.shard_skew": "ratio",
    "service.queue_peak_chunks": "chunks",
    "service.worker_busy_share": "ratio",
    "generator.busy_share": "ratio",
    "trace.overhead_share": "ratio",
    "trace.unaccounted_share": "ratio",
    "trace.round_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {f"{layer}_s": "s" for layer in TIMED_LAYERS}
    units.update(COUNTED)
    units.update(RATIOS)
    return units


# -- counting hooks -------------------------------------------------------
def _frames(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("simulator.frames", len(result.captures))


def _score_pairs(tracer: Tracer, args, kwargs, result) -> None:
    candidates, database, config = args[:3]
    tracer.count(
        "core.detection.score_pairs",
        len(config.thresholds) * len(candidates) * len(database),
    )


def _match(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("core.matcher.calls")
    tracer.count("core.matcher.pairs", len(args[0]) * len(args[1]))


def _decoded(tracer: Tracer, args, kwargs, chunk) -> None:
    tracer.count("radiotap.frames", len(chunk))


def _window_item(tracer: Tracer, args, kwargs, item) -> None:
    if item[0] == "closed":
        tracer.count("streaming.windows.closed")


def _flushed(tracer: Tracer, args, kwargs, closed) -> None:
    tracer.count("streaming.windows.closed", len(closed))


def _builder_update(tracer: Tracer, args, kwargs, result) -> None:
    table = args[1]
    lo = args[2] if len(args) > 2 else kwargs.get("lo", 0)
    hi = args[3] if len(args) > 3 else kwargs.get("hi")
    if hi is None:
        hi = len(table)
    codes = table.sender_idx[lo:hi]
    seen = np.zeros(len(table.senders) + 1, dtype=bool)
    seen[codes + 1] = True
    tracer.count("streaming.builder.calls")
    tracer.count("streaming.builder.rows", hi - lo)
    tracer.count("streaming.builder.senders", int(np.count_nonzero(seen[1:])))


def _signatures(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("streaming.builder.candidates", len(result))
    tracer.count("streaming.builder.accumulated", args[0].resident_count)


def _binned(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("core.histogram.values", result.size)
    tracer.count("core.histogram.kept", int(np.count_nonzero(result >= 0)))


def _wire_bytes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("service.wire.bytes", len(args[0]))


def _partitioned(tracer: Tracer, args, kwargs, parts) -> None:
    for shard, part in enumerate(parts):
        tracer.count(f"service.router.rows.{shard}", len(part))


def _ingested(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("service.pipeline.chunks")


def _checkpointed(tracer: Tracer, args, kwargs, base) -> None:
    size = sum(
        entry.stat().st_size for entry in base.rglob("*") if entry.is_file()
    )
    tracer.count("persistence.checkpoint_bytes", size)


PROBES = [
    Probe("repro.simulator.scenario:Scenario.run", "simulator.run", _frames),
    Probe("repro.traces.trace:Trace.table", "traces.intern"),
    Probe("repro.traces.table:FrameTable.from_frames", "traces.intern"),
    Probe(
        "repro.core.database:ReferenceDatabase.from_training_table",
        "core.database.learn",
    ),
    Probe(
        "repro.core.detection:extract_window_candidates",
        "core.detection.candidates",
    ),
    Probe(
        "repro.core.detection:evaluate_similarity",
        "core.detection.score",
        _score_pairs,
    ),
    Probe("repro.core.detection:evaluate_identification", "core.detection.score"),
    Probe("repro.core.matcher:batch_match_signatures", "core.matcher.match", _match),
    Probe(
        "repro.radiotap.pcap:iter_trace_tables",
        "radiotap.decode",
        _decoded,
        generator=True,
    ),
    Probe(
        "repro.streaming.windows:WindowManager.update_table",
        "streaming.windows.update",
        _window_item,
        generator=True,
    ),
    Probe(
        "repro.streaming.windows:WindowManager.flush",
        "streaming.windows.update",
        _flushed,
    ),
    Probe(
        "repro.streaming.engine:StreamEngine.process_chunk",
        "streaming.engine.process_chunk",
    ),
    Probe(
        "repro.streaming.matcher:OnlineMatcher.match_window",
        "streaming.matcher.match_window",
    ),
    Probe(
        "repro.streaming.builder:StreamingSignatureBuilder.update_table",
        "streaming.builder.update",
        _builder_update,
    ),
    Probe(
        "repro.streaming.builder:StreamingSignatureBuilder.signatures",
        None,
        _signatures,
    ),
    Probe(
        "repro.core.parameters:NetworkParameter.observe_table",
        "core.parameters.extract",
        subclasses=True,
    ),
    Probe(
        "repro.core.parameters:ObservationStream.push_table",
        "core.parameters.extract",
        subclasses=True,
    ),
    Probe(
        "repro.core.histogram:BinSpec.index_many",
        "core.histogram.bin",
        _binned,
        subclasses=True,
    ),
    Probe("repro.service.wire:decode_chunk", "service.wire.decode", _wire_bytes),
    Probe(
        "repro.service.router:ShardRouter.partition",
        "service.router.partition",
        _partitioned,
    ),
    Probe(
        "repro.service.server:SensorPipeline.ingest",
        "service.pipeline.ingest",
        _ingested,
    ),
    # The per-sensor worker loop: busy while a child span runs, idle
    # (waiting on its queue) otherwise.
    Probe("repro.service.server:IngestServer._drain", "service.worker"),
    Probe("repro.core.database:merge_databases", "core.database.merge"),
    Probe("repro.core.database:ReferenceDatabase.merge", "core.database.merge"),
    Probe(
        "repro.service.server:SensorPipeline.checkpoint",
        "persistence.checkpoint",
        _checkpointed,
    ),
    Probe("repro.persistence.checkpoint:save_checkpoint", "persistence.checkpoint"),
    Probe("repro.persistence.store:save_database", "persistence.save"),
    Probe("repro.persistence.store:load_database", "persistence.load"),
    # Sensor side (benchmark process): what the load generator spends.
    Probe("repro.service.session:SensorSession.connect", "generator.session"),
    Probe("repro.service.session:encode_chunk", "generator.encode"),
]


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(summary: dict, rounds: int) -> dict[str, float]:
    """Per-layer metric values from merged :meth:`Tracer.summary` data.

    Times and counts are per traced round; a layer the workload never
    enters reports 0.
    """
    spans = summary["spans"]
    counters = summary["counters"]

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def total_s(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    values = {f"{layer}_s": self_s(layer) / rounds for layer in TIMED_LAYERS}
    for name in COUNTED:
        values[name] = counters.get(name, 0.0) / rounds
    calls = counters.get("streaming.builder.calls", 0.0)
    values["streaming.builder.rows_per_call"] = _share(
        counters.get("streaming.builder.rows", 0.0), calls
    )
    values["streaming.builder.senders_per_call"] = _share(
        counters.get("streaming.builder.senders", 0.0), calls
    )
    values["streaming.builder.candidate_ratio"] = _share(
        counters.get("streaming.builder.candidates", 0.0),
        counters.get("streaming.builder.accumulated", 0.0),
    )
    values["core.histogram.kept_ratio"] = _share(
        counters.get("core.histogram.kept", 0.0),
        counters.get("core.histogram.values", 0.0),
    )
    shard_rows = [
        value
        for key, value in counters.items()
        if key.startswith("service.router.rows.")
    ]
    values["service.router.shard_skew"] = (
        _share(max(shard_rows), sum(shard_rows) / len(shard_rows))
        if shard_rows
        else 0.0
    )
    values["service.queue_peak_chunks"] = counters.get("service.queue_peak", 0.0)
    worker = total_s("service.worker")
    values["service.worker_busy_share"] = _share(
        worker - self_s("service.worker"), worker
    )
    values["generator.busy_share"] = _share(
        total_s("generator.encode"), total_s("generator.session")
    )
    values["trace.overhead_share"] = summary.get("overhead_share", 0.0)
    # Speed-probe samples inside a round are not the program's time.
    probe = total_s(BENCH_PREFIX + "probe")
    round_s = total_s(BENCH_PREFIX + "round") - probe
    bench_self = sum(
        entry["self_s"]
        for name, entry in spans.items()
        if name.startswith(BENCH_PREFIX)
    )
    values["trace.unaccounted_share"] = _share(bench_self - probe, round_s)
    values["trace.round_s"] = (
        round_s / rounds if round_s > 0 else summary.get("round_s", 0.0)
    )
    return values


def merge_summaries(summaries: list[dict]) -> dict:
    """Add several processes' :meth:`Tracer.summary` results together."""
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for summary in summaries:
        for name, entry in summary["spans"].items():
            target = spans.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            for key, value in entry.items():
                target[key] += value
        for key, value in summary["counters"].items():
            if key == "service.queue_peak":
                counters[key] = max(counters.get(key, 0.0), value)
            else:
                counters[key] = counters.get(key, 0.0) + value
    return {"spans": spans, "counters": counters}


def traced_report(
    rounds: list[dict], summaries: list[dict]
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced run, with its unit.

    ``rounds`` alternate traced and untraced; the overhead is the
    traced rounds' median wall time over the untraced rounds' median,
    both rescaled by their speed factors.
    """
    traced = [r["wall_s"] * r["speed"] for r in rounds if r["traced"]]
    untraced = [
        r["wall_s"] * r["speed"]
        for r in rounds
        if not r["traced"] and not r["warmup"]
    ]
    summary = merge_summaries(summaries)
    summary["overhead_share"] = median(traced) / median(untraced) - 1.0
    summary["round_s"] = median(traced)
    values = layer_metrics(summary, len(traced))
    return {name: (values[name], unit) for name, unit in per_layer_units().items()}
