"""Macro-benchmark: event-simulator throughput, simulate vs intern.

The event simulator produces every trace the paper reproduction scores,
and it is the wall-clock floor of the paper-eval job and of the bench
suite's ``datasets`` fixture.  This benchmark times two presets:

* ``office-baseline`` — the golden-pinned 3-station office (90 s);
* ``lecture-hall`` ×1.875 — the 30-station hall behind paper-eval's
  Table II/III row, at a paper-eval scenario seed.

For each it reports simulated frames per second of ``Scenario.run``
and, separately, the one-time interning of the capture into a
``FrameTable`` (the simulate vs intern split); the two sum to the wall
time of producing a scorable trace.  Each figure is the best of
``REPEATS`` runs.

There is no absolute frames/s bar: ``BENCH_simulator.json`` records the
trajectory, and a batched engine with a relative gate is future work.
What the benchmark does assert is that the simulator's output did not
move: every capture digest in ``tests/golden/simulator_digests.json``
(8 presets, 4 dataset analogues, one RTS scenario) is reproduced bit
for bit.
"""

from __future__ import annotations

import json
import os
import time

from repro.scenarios import build_scenario
from repro.traces.table import FrameTable
from benchmarks.conftest import bench_smoke, write_bench_json
from tests.capture_digest import GOLDEN_PATH, compute_digests

SMOKE = bench_smoke()
REPEATS = 1 if SMOKE else 3
#: (label, preset, scale, seed, duration_s); ``None`` keeps the preset's.
WORKLOADS = (
    ("office-baseline", "office-baseline", 1.0, None, 30.0 if SMOKE else None),
    ("lecture-hall-x1.875", "lecture-hall", 1.875, 1002, 30.0 if SMOKE else None),
)
CPU_COUNT = os.cpu_count() or 1


def _measure(preset: str, scale: float, seed: int | None, duration_s: float | None):
    """Best-of-``REPEATS`` simulate and intern seconds, and the frame count."""
    simulate_s, intern_s = [], []
    frames = 0
    for _ in range(REPEATS):
        scenario = build_scenario(preset, duration_s=duration_s, seed=seed, scale=scale).scenario
        start = time.perf_counter()
        result = scenario.run()
        simulate_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        FrameTable.from_frames(result.captures)
        intern_s.append(time.perf_counter() - start)
        frames = result.frame_count
    return min(simulate_s), min(intern_s), frames


def test_simulator_throughput():
    # Output first: a fast simulator that drifted is a broken one.
    golden = json.loads(GOLDEN_PATH.read_text())
    digests = compute_digests()
    assert digests == golden, "simulator captures drifted from the golden digests"

    runs = {}
    for label, preset, scale, seed, duration_s in WORKLOADS:
        simulate_s, intern_s, frames = _measure(preset, scale, seed, duration_s)
        runs[label] = {
            "preset": preset,
            "scale": scale,
            "seed": seed,
            "duration_s": duration_s,
            "frames": frames,
            "simulate_s": simulate_s,
            "intern_s": intern_s,
            "wall_s": simulate_s + intern_s,
            "simulated_frames_per_s": frames / simulate_s,
            "layers": {"simulator.run_s": simulate_s, "traces.intern_s": intern_s},
        }
        print(
            f"\n{label}: {frames} frames, simulate {simulate_s:.3f}s "
            f"({frames / simulate_s:,.0f} frames/s), intern {intern_s:.3f}s"
        )
    write_bench_json(
        "simulator",
        {
            "cpu_count": CPU_COUNT,
            "repeats": REPEATS,
            "digest_cases": len(golden),
            "workloads": runs,
        },
    )
    for run in runs.values():
        assert run["frames"] > 1000
