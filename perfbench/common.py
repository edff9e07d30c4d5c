"""Shared plumbing: run context, statistics, environment record, the
child process that hosts the program under test."""

from __future__ import annotations

import contextlib
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent

#: Percentiles a latency tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: How long the program's process may take beyond ``--seconds`` twice.
CHILD_TIMEOUT_S = 150.0

#: Mean time of one :meth:`SpeedProbe.sample` on the 2-CPU x86-64
#: development box when the host is quiet.  Timings are rescaled to it.
PROBE_REFERENCE_S = 0.0012


@dataclass
class Context:
    """One benchmark run: its arguments and working directory."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    #: Where the traced run writes its spans (kept after the run).
    traces: Path


#: The end-to-end metrics every workload reports, with their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
    "job_s": "s",
    "frames_per_s": "frames/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}


@dataclass
class Outcome:
    """What a workload reports back to ``run.py``."""

    attempted: int
    failed: int
    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]]
    info: dict = field(default_factory=dict)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (the 'inclusive' quantile rule)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile that still has
    at least ten samples beyond it (the maximum if none has)."""
    count = len(values)
    for pct in TAIL_PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= 10.0:
            return pct, percentile(values, pct)
    return 100.0, float(max(values))


def end_to_end(
    *,
    setups: list[float],
    peak_rss_mb: float,
    attempted: int,
    failed: int,
    jobs: list[float],
    frames_per_s: list[float],
    latencies: list[float],
) -> tuple[dict[str, tuple[float, str]], dict]:
    """The end-to-end metrics from per-round samples (already rescaled
    by each round's speed factor), plus the latency sample facts."""
    tail_pct, tail_s = tail(latencies)
    values = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb,
        "success_ratio": (attempted - failed) / attempted,
        "job_s": median(jobs),
        "frames_per_s": median(frames_per_s),
        "latency_p50_ms": 1e3 * median(latencies),
        "latency_tail_ms": 1e3 * tail_s,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return metrics, {"latency_samples": len(latencies), "latency_tail_percentile": tail_pct}


class SpeedProbe:
    """Measures how fast the host runs right now, between operations.

    The benchmark host is shared: its speed drifts by up to 2x over
    tens of seconds, far beyond any bound a regression check could use.
    A workload samples the probe between its operations (chunks,
    cells), leaves the sample time out of its timings, and multiplies
    each round's timings by :meth:`factor`: seconds at the quiet host's
    speed.  The probe is a fixed mix of the program's kinds of work —
    dict lookups on tuple keys, byte unpacking, a scatter count and a
    sort — in the benchmark's own code, run in the program's process so
    it sees the same core and caches.  It allocates next to nothing and
    holds the garbage collector off, so the size of the program's heap
    does not move it, and it never starts BLAS threads, whose wake-up
    time would be measured instead of the host's speed.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        keys = [("mac", int(v)) for v in rng.integers(0, 1 << 40, 3000)]
        self._index = dict(zip(keys, range(len(keys))))
        self._lookups = keys[::2] * 2
        self._blob = rng.integers(0, 255, 200_000, dtype=np.uint8).tobytes()
        self._unpack = struct.Struct("<IH").unpack_from
        self._codes = rng.integers(0, 5000, 50_000)
        self._values = rng.random(20_000)
        self.samples: list[float] = []

    def sample(self) -> float:
        """Run the probe once; returns (and records) its duration."""
        index = self._index
        unpack = self._unpack
        blob = self._blob
        gc.disable()
        try:
            begin = time.perf_counter()
            total = 0
            for key in self._lookups:
                total += index[key]
            offset = 0
            for _ in range(3000):
                first, second = unpack(blob, offset)
                total += first ^ second
                offset += 61
            total += int(np.bincount(self._codes, minlength=5000).argmax())
            total += int(np.argsort(self._values)[0])
            elapsed = time.perf_counter() - begin
        finally:
            gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def factor(self) -> float:
        """Multiplier to reference-speed seconds; resets the samples."""
        factor = speed_factor(self.samples)
        self.samples = []
        return factor


def speed_factor(samples: list[float]) -> float:
    """Reference probe time over the mean of these probe samples."""
    return PROBE_REFERENCE_S * len(samples) / sum(samples)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas() -> dict:
    info: dict = {"library": None, "threads": None}
    try:
        config = np.show_config(mode="dicts")
        info["library"] = config["Build Dependencies"]["blas"].get("name")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "blas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


def environment(seed: int) -> dict:
    """The facts a result is meaningless without."""
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "seed": seed,
        "machine": platform.machine(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(ctx: Context, spec: dict) -> dict:
    """Run the program under test in its own process.

    The child imports ``perfbench.workloads.<workload>`` and calls its
    ``program(spec, tracer)``; the benchmark process keeps only input
    generation and checking, so the child's peak RSS is the program's.
    """
    spec_path = ctx.work / "child-spec.json"
    result_path = ctx.work / "child-result.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.child", str(spec_path), str(result_path)],
        cwd=ROOT,
        env=child_env(),
        timeout=CHILD_TIMEOUT_S + 2 * ctx.seconds,
        stdout=subprocess.DEVNULL,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"program process exited with {proc.returncode}")
    return json.loads(result_path.read_text())


class NullTracer:
    """Stand-in used by untraced rounds: spans and requests cost nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def set_request(self, request) -> None:
        pass


def timed_rounds(spec: dict, tracer, round_fn) -> list[dict]:
    """Run ``round_fn(index, tracer, probe)`` until ``spec['seconds']``
    elapse.

    ``round_fn`` samples the :class:`SpeedProbe` between its operations
    and returns, besides its outputs, the seconds those samples took as
    ``probe_s``.  Each round records its ``speed`` factor.  Round 0 is
    a warm-up: its outputs are returned (and checked) but it is marked
    ``warmup`` so no timing uses it.  In a traced run odd rounds are
    traced and even rounds are not, so the two wall times can be
    compared (the tracing overhead).
    """
    from perfbench.layers import PROBES
    from perfbench.tracing import install

    null = NullTracer()
    probe = SpeedProbe()
    rounds = []
    started = None
    index = 0
    while True:
        traced = spec["trace"] and index % 2 == 1
        installation = install(tracer, PROBES) if traced else None
        try:
            probe.sample()
            begin = time.perf_counter()
            result = round_fn(index, tracer if traced else null, probe)
            result["wall_s"] = time.perf_counter() - begin - result["probe_s"]
            probe.sample()
        finally:
            if installation is not None:
                installation.remove()
        result["speed"] = probe.factor()
        # Free the round's garbage now, so every round starts alike.
        gc.collect()
        result["traced"] = traced
        result["warmup"] = index == 0
        rounds.append(result)
        index += 1
        if started is None:
            started = time.perf_counter()
        elif time.perf_counter() - started >= spec["seconds"] and (
            not spec["trace"] or index >= 3
        ):
            return rounds
