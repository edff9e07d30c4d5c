"""sensor-fanin: many small chunks from concurrent sensors, closed loop.

Each round starts ``repro-80211 serve`` in its own process (set-up ends
when it prints that it is listening), then two sensor sessions — one
per CPU, as threads of the benchmark process — stream 1M rows of a
12-device capture each, in 512-row columnar chunks, over loopback TCP.
The server routes every chunk across 4 shards, checkpoints every 64
chunks, and once both sessions end merges the harvests and publishes
the store.  Backpressure comes from the server's bounded queues: a
sensor blocks in ``send`` while its queue is full.  The latency of one
operation (a session) runs from its connect until the server has
accepted its last record.

The speed probe (:class:`perfbench.common.SpeedProbe`) runs in the
benchmark process before the server starts, once it listens, every
0.1 s while the sensors stream (they mostly wait on their sockets, so
it takes an otherwise idle CPU) and after the store is published;
timings are rescaled by those samples.  The round includes the server's
0.2 s accept poll at shutdown, which is why a round streams a million
rows per sensor: the poll then moves the round time by under 3%.

Every session must complete, and the published store must equal
``run_inline`` on the same chunks bin for bin.  A session that has not
finished within its timeout counts as failed; the server is killed.
"""

from __future__ import annotations

import json
import queue
import shutil
import subprocess
import sys
import threading
import time

from perfbench.common import (
    ROOT,
    Context,
    Outcome,
    child_env,
    SpeedProbe,
    end_to_end,
    median,
    nproc,
    speed_factor,
)
from perfbench.inputs import FaninShape, sensor_captures
from perfbench.layers import PROBES, traced_report
from perfbench.tracing import Tracer, install

SHAPE = FaninShape()
SHARDS = 4
WINDOW_S = 10.0
MIN_OBSERVATIONS = 10
QUEUE_CHUNKS = 8
CHECKPOINT_EVERY_CHUNKS = 64
#: Per-round limits: server start, all sessions, publish + exit.
LISTEN_TIMEOUT_S = 30.0
SESSION_TIMEOUT_S = 60.0
PUBLISH_TIMEOUT_S = 30.0
#: Speed-probe cadence while the sensors stream (one sample is ~1 ms).
PROBE_EVERY_S = 0.1


class _Lines:
    """Reads a process's stdout on a thread, timestamping each line."""

    def __init__(self, stream) -> None:
        self._queue: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._pump, args=(stream,))
        self._thread.start()

    def _pump(self, stream) -> None:
        for line in stream:
            self._queue.put((time.perf_counter(), line))
        self._queue.put((time.perf_counter(), None))

    def wait_for(self, prefix: str, timeout: float) -> tuple[float, str]:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no {prefix!r} line within {timeout}s")
            stamp, line = self._queue.get(timeout=remaining)
            if line is None:
                raise RuntimeError(f"server exited before printing {prefix!r}")
            if line.startswith(prefix):
                return stamp, line

    def join(self) -> None:
        self._thread.join()


def _serve_argv(round_dir, sessions: int) -> list[str]:
    return [
        "serve",
        "--port", "0",
        "--shards", str(SHARDS),
        "--window-s", str(WINDOW_S),
        "--min-observations", str(MIN_OBSERVATIONS),
        "--queue-chunks", str(QUEUE_CHUNKS),
        "--checkpoint-dir", str(round_dir / "checkpoints"),
        "--checkpoint-every-chunks", str(CHECKPOINT_EVERY_CHUNKS),
        "--sessions", str(sessions),
        "--db-out", str(round_dir / "published.store"),
        "--stats-json", str(round_dir / "stats.json"),
    ]


def one_round(
    ctx: Context, captures: dict, index: int, traced: bool, probe: SpeedProbe
) -> dict:
    """Start a server, stream every sensor into it, wait for the store."""
    from repro.service import SensorSession

    round_dir = ctx.work / f"round{index}"
    round_dir.mkdir()
    report_path = round_dir / "report.json"
    spans_path = ctx.traces / f"{ctx.workload}-seed{ctx.seed}-round{index}.jsonl"
    command = [
        sys.executable, "-u", "-m", "perfbench.fanin_server",
        str(report_path), str(spans_path), "1" if traced else "0", "--",
    ] + _serve_argv(round_dir, len(captures))
    tracer = Tracer()
    reports: dict[str, object] = {}
    sessions: dict[str, float] = {}
    result: dict = {"traced": traced, "warmup": index == 0, "dir": str(round_dir)}
    before = [probe.sample() for _ in range(3)]
    started = time.perf_counter()
    server = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    lines = _Lines(server.stdout)
    try:
        listening_at, line = lines.wait_for("listening on", LISTEN_TIMEOUT_S)
        result["setup_s"] = listening_at - started
        listening = [probe.sample() for _ in range(3)]
        result["setup_speed"] = speed_factor(before + listening)
        port = int(line.split()[2].rpartition(":")[2])

        def stream(sensor: str, chunks: list) -> None:
            begin = time.perf_counter()
            reports[sensor] = SensorSession(sensor, chunks).connect("127.0.0.1", port)
            sessions[sensor] = time.perf_counter() - begin

        installation = install(tracer, PROBES) if traced else None
        try:
            threads = [
                threading.Thread(target=stream, args=item, daemon=True)
                for item in captures.items()
            ]
            connect_at = time.perf_counter()
            for thread in threads:
                thread.start()
            # The sensors mostly wait on their sockets, so this thread
            # probes the host's speed while the round runs.
            deadline = time.monotonic() + SESSION_TIMEOUT_S
            during = []
            for thread in threads:
                while thread.is_alive() and time.monotonic() < deadline:
                    during.append(probe.sample())
                    thread.join(timeout=PROBE_EVERY_S)
        finally:
            if installation is not None:
                installation.remove()
        if any(thread.is_alive() for thread in threads):
            raise TimeoutError("sensor sessions did not finish in time")
        published_at, _ = lines.wait_for("published", PUBLISH_TIMEOUT_S)
        result["fanin_s"] = published_at - connect_at
        server.wait(timeout=PUBLISH_TIMEOUT_S)
        result["wall_s"] = result["fanin_s"]
        result["report"] = json.loads(report_path.read_text())
        result["stats"] = json.loads((round_dir / "stats.json").read_text())
        result["session_s"] = list(sessions.values())
        result["speed"] = speed_factor(during + [probe.sample() for _ in range(3)])
    except (TimeoutError, RuntimeError, queue.Empty, OSError, ValueError) as error:
        result["error"] = f"{type(error).__name__}: {error}"
    finally:
        if server.poll() is None:
            server.kill()
        server.wait()
        lines.join()
        server.stdout.close()
    result["ended"] = {
        sensor: bool(getattr(report, "ended", False)) for sensor, report in reports.items()
    }
    if traced:
        result["generator"] = tracer.summary()
    return result


def databases_equal(left, right) -> bool:
    """Bin-for-bin equality of two reference databases (order included)."""
    import numpy as np

    if left.devices != right.devices:
        return False
    for (_, a), (_, b) in zip(left.items(), right.items()):
        if (
            list(a.histograms) != list(b.histograms)
            or a.weights != b.weights
            or a.observation_counts != b.observation_counts
        ):
            return False
        for key, histogram in a.histograms.items():
            if not np.array_equal(histogram, b.histograms[key]):
                return False
    return True


def check(result: dict, sensors: list[str], reference) -> int:
    """Failed sessions of one round: a session fails when it did not end,
    when the server does not report it completed, or when the published
    store differs from the reference."""
    from repro.persistence import load_database

    if "error" in result:
        return len(sensors)
    completed = {
        entry["sensor"]: entry["completed"] for entry in result["stats"]["sensors"]
    }
    store_ok = result["report"]["exit"] == 0 and databases_equal(
        load_database(f"{result['dir']}/published.store").database, reference
    )
    return sum(
        not (store_ok and result["ended"].get(s) and completed.get(s))
        for s in sensors
    )


def _rounds(ctx: Context, captures: dict, reference, probe: SpeedProbe):
    """Rounds until ``ctx.seconds`` elapse: (rounds, attempted, failed)."""
    sensors = sorted(captures)
    rounds: list[dict] = []
    attempted = failed = 0
    started = None
    index = 0
    while True:
        traced = ctx.trace and index % 2 == 1
        result = one_round(ctx, captures, index, traced, probe)
        rounds.append(result)
        attempted += len(sensors)
        failed += check(result, sensors, reference)
        shutil.rmtree(result["dir"], ignore_errors=True)
        index += 1
        if "error" in result:
            break  # a hung or broken server: do not pile up timeouts
        if started is None:
            started = time.perf_counter()
        elif time.perf_counter() - started >= ctx.seconds and (
            not ctx.trace or index >= 3
        ):
            return rounds, attempted, failed
    return rounds, attempted, failed


def run(ctx: Context, env: dict) -> Outcome:
    from repro.core.parameters import InterArrivalTime
    from repro.service import ServiceConfig, run_inline
    from repro.streaming import WindowConfig

    # The load generator: one sensor connection (thread) per CPU at most.
    if SHAPE.sensors > nproc():
        raise SystemExit(
            f"sensor-fanin needs {SHAPE.sensors} CPUs for its sensors, "
            f"have {nproc()}"
        )
    captures = sensor_captures(ctx.seed, SHAPE)
    config = ServiceConfig(
        parameter=InterArrivalTime(),
        shard_count=SHARDS,
        window=WindowConfig(window_s=WINDOW_S),
        min_observations=MIN_OBSERVATIONS,
        queue_chunks=QUEUE_CHUNKS,
    )
    reference = run_inline(captures, config).database
    rounds, attempted, failed = _rounds(ctx, captures, reference, SpeedProbe())

    frames = SHAPE.sensors * SHAPE.frames_per_sensor
    good = [r for r in rounds if "error" not in r]
    info = {
        "rounds": len(rounds),
        "frames_per_round": frames,
        "sensors": SHAPE.sensors,
        "errors": [r["error"] for r in rounds if "error" in r],
    }
    timed = [r for r in good if not r["warmup"]] or good
    if not timed:
        raise RuntimeError(f"sensor-fanin: no round completed: {info['errors']}")
    if ctx.trace:
        summaries = [r["report"]["summary"] for r in good if r["traced"]]
        summaries += [r["generator"] for r in good if r["traced"]]
        summaries.append(
            {
                "spans": {},
                "counters": {
                    "service.queue_peak": max(
                        r["stats"]["queue_peak"] for r in good if r["traced"]
                    )
                },
            }
        )
        return Outcome(attempted, failed, traced_report(good, summaries), info)
    metrics, facts = end_to_end(
        setups=[r["setup_s"] * r["setup_speed"] for r in timed],
        peak_rss_mb=median([r["report"]["peak_rss_mb"] for r in timed]),
        attempted=attempted,
        failed=failed,
        jobs=[r["fanin_s"] * r["speed"] for r in timed],
        frames_per_s=[frames / (r["fanin_s"] * r["speed"]) for r in timed],
        latencies=[t * r["speed"] for r in timed for t in r["session_s"]],
    )
    info.update(facts)
    info["raw_fanin_s"] = [r["fanin_s"] for r in timed]
    info["speed"] = [r["speed"] for r in timed]
    return Outcome(attempted, failed, metrics, info)
