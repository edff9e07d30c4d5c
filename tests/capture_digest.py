"""Capture digests: a bit-exact fingerprint of what the simulator emits.

:func:`capture_digest` hashes every field of every captured frame (the
timestamp by ``repr``, so float bits count), which pins the simulator's
output and its RNG draw order at once: any reordered or added draw moves
a timestamp, a signal or a capture decision.

:func:`compute_digests` runs every scenario preset and every
``traces.datasets`` analogue at a short duration and small scale.  The
set covers mobility (``mobile-commuters``, the conference datasets),
several BSSs (``overlapping-bss``) and, since no preset frame crosses a
library profile's RTS threshold, one ``rts-mobile`` scenario whose
stations protect every data frame with RTS/CTS over lossy, moving links.  The pinned
values live in ``tests/golden/simulator_digests.json``; regenerate them
only for a deliberate change to simulated behaviour:

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_simulator.py -k digest
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Callable, Iterable

from repro.dot11.capture import CapturedFrame

GOLDEN_PATH = Path(__file__).parent / "golden" / "simulator_digests.json"

#: Preset runs: short, small, and with the presets' own default seeds.
PRESET_DURATION_S = 20.0
PRESET_SCALE = 1.0
#: Dataset analogues: 2 devices each, 30–60 s of simulated time.
DATASET_SCALE = 0.02


def _address(mac) -> str:
    return "-" if mac is None else str(mac)


def capture_digest(captures: Iterable[CapturedFrame]) -> str:
    """SHA-256 over every field of every capture, in capture order."""
    digest = hashlib.sha256()
    for captured in captures:
        frame = captured.frame
        fields = (
            repr(captured.timestamp_us),
            repr(captured.rate_mbps),
            repr(captured.signal_dbm),
            captured.channel,
            repr(captured.airtime_us),
            frame.subtype.name,
            frame.size,
            _address(frame.addr1),
            _address(frame.addr2),
            _address(frame.addr3),
            frame.retry,
            frame.seq,
            frame.duration_us,
            frame.to_ds,
            frame.from_ds,
            frame.protected,
            frame.power_mgmt,
        )
        digest.update(repr(fields).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _rts_mobile_captures() -> list[CapturedFrame]:
    """RTS/CTS exchanges, RTS losses and collisions on moving stations."""
    from dataclasses import replace

    from repro.simulator import CbrTraffic, ChannelModel, Scenario, StationSpec
    from repro.simulator.profiles import PROFILE_LIBRARY

    scenario = Scenario(
        duration_s=8.0,
        seed=17,
        area_m=60.0,
        channel_model=ChannelModel(path_loss_exponent=3.4, shadowing_sigma_db=3.0),
    )
    for index, profile in enumerate(PROFILE_LIBRARY[:6]):
        scenario.add_station(
            StationSpec(
                name=f"rts-{index}",
                profile=replace(profile, rts_threshold=300),
                sources=[CbrTraffic(payload=900, interval_ms=15.0)],
                speed_mps=1.5 if index % 2 else 0.0,
                pause_s=1.0,
            )
        )
    return scenario.run().captures


def digest_cases() -> dict[str, Callable[[], list[CapturedFrame]]]:
    """Every pinned simulation, by name: a callable returning captures."""
    from repro.scenarios import build_scenario, scenario_names
    from repro.traces.datasets import build_dataset, _spec

    cases: dict[str, Callable[[], list[CapturedFrame]]] = {}
    for name in scenario_names():
        cases[f"preset/{name}"] = lambda name=name: build_scenario(
            name, duration_s=PRESET_DURATION_S, scale=PRESET_SCALE
        ).scenario.run().captures
    for name in ("conference1", "conference2", "office1", "office2"):
        cases[f"dataset/{name}"] = lambda name=name: list(
            build_dataset(_spec(name, DATASET_SCALE)).frames
        )
    cases["rts-mobile"] = _rts_mobile_captures
    return cases


def compute_digests() -> dict[str, dict]:
    """Frame count and capture digest of every pinned simulation."""
    results = {}
    for name, run in digest_cases().items():
        captures = run()
        results[name] = {"frames": len(captures), "sha256": capture_digest(captures)}
    return results
