"""crowd-stream: live monitoring of a crowded venue, closed loop.

A radiotap pcap and a reference store are generated from the seed
(:func:`perfbench.inputs.crowd_inputs`).  Each round does what
``repro-80211 stream venue.pcap --db refs.store --chunk-frames 2048``
does: load the store, pack it, build the engine (set-up), then pull
chunks from ``pcap_chunk_source`` into ``StreamEngine.run_chunked``
with live matching on ``InterArrivalTime``; the engine asks for the
next chunk only once it has finished the previous one.

Every window's events must equal those of the per-frame engine
(``StreamEngine.run`` over ``pcap_source``) on the same capture,
computed in the benchmark process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from collections import defaultdict

from perfbench.common import Context, Outcome, end_to_end, run_child, timed_rounds
from perfbench.inputs import CrowdShape, crowd_inputs
from perfbench.layers import traced_report

SHAPE = CrowdShape()
CHUNK_FRAMES = 2048
#: Set-ups per round (load + pack + engine), for a steadier median.
SETUP_REPEATS = 3


class _Sink:
    """Collects ``(arrival time, chunk mark, event)`` for every event."""

    def __init__(self, marks: list[float]) -> None:
        self.marks = marks
        self.events: list[tuple[float, int, object]] = []

    def __call__(self, event) -> None:
        self.events.append((time.perf_counter(), len(self.marks) - 1, event))


def _marked(chunks, marks: list[float], tracer, index: int, probe, spent: list):
    """Pass chunks through, noting when the source yielded each one.

    The speed probe runs before each chunk is pulled, after the engine
    has finished the previous one (``spent`` collects its durations).
    The last mark is the end of the source, when the engine flushes.
    """
    iterator = iter(chunks)
    number = 0
    while True:
        with tracer.span("bench.probe"):
            spent.append(probe.sample())
        try:
            chunk = next(iterator)
        except StopIteration:
            break
        marks.append(time.perf_counter())
        tracer.set_request(f"round{index}/chunk{number}")
        yield chunk
        number += 1
    marks.append(time.perf_counter())
    tracer.set_request(f"round{index}/flush")


def _event_key(event) -> tuple:
    return (type(event).__name__,) + dataclasses.astuple(event)


def window_digests(events) -> dict[str, str]:
    """Window index -> digest of that window's events, in emission order."""
    grouped = defaultdict(list)
    for event in events:
        grouped[event.window_index].append(_event_key(event))
    return {
        str(window): hashlib.sha256(repr(keys).encode()).hexdigest()
        for window, keys in grouped.items()
    }


def window_latencies(sink: _Sink) -> list[float]:
    """Per window: its last event's arrival minus the yield of the chunk
    during which its first event was emitted."""
    first_mark: dict[int, int] = {}
    last_arrival: dict[int, float] = {}
    for arrival, mark, event in sink.events:
        first_mark.setdefault(event.window_index, mark)
        last_arrival[event.window_index] = arrival
    return [
        last_arrival[window] - sink.marks[mark]
        for window, mark in first_mark.items()
    ]


def program(spec: dict, tracer) -> list[dict]:
    """Child side: set up and stream the capture until the time is up."""
    # Looked up at call time, so a traced round sees the wrapped loader.
    import repro.persistence as persistence
    from repro.core.parameters import parameter_by_name
    from repro.streaming import (
        StreamEngine,
        StreamingSignatureBuilder,
        WindowConfig,
        pcap_chunk_source,
    )

    def one_round(index: int, tracer, probe) -> dict:
        with tracer.span("bench.round"):
            setups = []
            for _ in range(SETUP_REPEATS):
                with tracer.span("bench.setup"):
                    begin = time.perf_counter()
                    loaded = persistence.load_database(spec["store"])
                    database = loaded.database
                    database.packed()
                    parameter = parameter_by_name(loaded.parameter)
                    marks: list[float] = []
                    sink = _Sink(marks)
                    engine = StreamEngine(
                        lambda: StreamingSignatureBuilder(
                            parameter, min_observations=SHAPE.min_observations
                        ),
                        database=database,
                        window=WindowConfig(window_s=SHAPE.window_s),
                        sinks=[sink],
                    )
                    setups.append(time.perf_counter() - begin)
            spent: list[float] = []
            begin = time.perf_counter()
            stats = engine.run_chunked(
                _marked(
                    pcap_chunk_source(spec["pcap"], chunk_frames=CHUNK_FRAMES),
                    marks,
                    tracer,
                    index,
                    probe,
                    spent,
                )
            )
            stream_s = time.perf_counter() - begin - sum(spent)
        return {
            "setup_s": setups,
            "stream_s": stream_s,
            "probe_s": sum(spent),
            "frames": stats.frames,
            "latencies": window_latencies(sink),
            "digests": window_digests(event for _, _, event in sink.events),
            "candidates": stats.candidates,
        }

    return timed_rounds(spec, tracer, one_round)


def reference_digests(inputs) -> dict[str, str]:
    """Per-frame engine over the same capture and store."""
    from repro.core.parameters import parameter_by_name
    from repro.persistence import load_database
    from repro.streaming import (
        StreamEngine,
        StreamingSignatureBuilder,
        WindowConfig,
        pcap_source,
    )

    loaded = load_database(inputs.store)
    parameter = parameter_by_name(loaded.parameter)
    events: list = []
    engine = StreamEngine(
        lambda: StreamingSignatureBuilder(
            parameter, min_observations=SHAPE.min_observations
        ),
        database=loaded.database,
        window=WindowConfig(window_s=SHAPE.window_s),
        sinks=[events.append],
    )
    engine.run(pcap_source(str(inputs.pcap)))
    return window_digests(events)


def check(rounds: list[dict], reference: dict[str, str]) -> tuple[int, int]:
    """(attempted, failed) windows: a window fails when its events differ
    from the reference or when it is missing or unexpected."""
    attempted = failed = 0
    for result in rounds:
        digests = result["digests"]
        for window in set(reference) | set(digests):
            attempted += 1
            failed += digests.get(window) != reference.get(window)
    return attempted, failed


def run(ctx: Context, env: dict) -> Outcome:
    inputs = crowd_inputs(ctx.seed, ctx.work, SHAPE)
    result = run_child(
        ctx,
        {
            "workload": ctx.workload,
            "seed": ctx.seed,
            "seconds": ctx.seconds,
            "trace": ctx.trace,
            "env": env,
            "spans_path": str(ctx.traces / f"{ctx.workload}-seed{ctx.seed}.jsonl"),
            "pcap": str(inputs.pcap),
            "store": str(inputs.store),
        },
    )
    rounds = result["rounds"]
    attempted, failed = check(rounds, reference_digests(inputs))
    info = {
        "rounds": len(rounds),
        "frames": inputs.frames,
        "reference_devices": inputs.reference_devices,
        "candidates_per_round": rounds[0]["candidates"],
        "speed": [r["speed"] for r in rounds],
    }
    if ctx.trace:
        return Outcome(
            attempted, failed, traced_report(rounds, [result["summary"]]), info
        )
    timed = [r for r in rounds if not r["warmup"]]
    metrics, facts = end_to_end(
        setups=[s * r["speed"] for r in timed for s in r["setup_s"]],
        peak_rss_mb=result["peak_rss_mb"],
        attempted=attempted,
        failed=failed,
        jobs=[r["stream_s"] * r["speed"] for r in timed],
        frames_per_s=[r["frames"] / (r["stream_s"] * r["speed"]) for r in timed],
        latencies=[w * r["speed"] for r in timed for w in r["latencies"]],
    )
    info.update(facts)
    info["raw_stream_s"] = [r["stream_s"] for r in timed]
    return Outcome(attempted, failed, metrics, info)
