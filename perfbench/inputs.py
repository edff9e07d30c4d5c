"""Seeded input generators for the benchmark workloads.

The program under test only ever sees what these functions write: a
radiotap pcap of a crowded venue plus the reference store learnt from
the same population (crowd-stream), and per-sensor columnar captures
(sensor-fanin).  Everything is drawn from ``numpy.random.default_rng``
seeded by the run's ``--seed``, so one seed always gives the same
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.database import ReferenceDatabase
from repro.core.parameters import InterArrivalTime
from repro.core.signature import SignatureBuilder
from repro.dot11.frames import Dot11Frame, FrameSubtype, ack_frame
from repro.dot11.mac import MacAddress, vendor_mac
from repro.persistence import save_database
from repro.radiotap.dot11_codec import encode_dot11
from repro.radiotap.pcap import PcapWriter
from repro.radiotap.writer import build_radiotap
from repro.traces.table import FrameTable

#: Frame types of the crowd capture, in ``ftype_idx`` order.
_SUBTYPES = (FrameSubtype.QOS_DATA, FrameSubtype.NULL_FUNCTION, FrameSubtype.ACK)
_ACK = 2
_NULL_SIZE = 28
_ACK_SIZE = 14
_ACK_RATE = 24.0
_SIFS_US = 10.0
_SLOT_US = 9.0
_PREAMBLE_US = 20.0
_OUIS = ("00:1b:63", "00:13:e8", "00:26:82", "f0:27:65")
_UNKNOWN_OUI = "00:1c:b3"
_AP = vendor_mac("00:0f:b5", 1)
#: Placeholder TSFT written into every radiotap template, then patched.
_TSFT_MARK = 0x0123456789ABCDEF


@dataclass(frozen=True)
class CrowdShape:
    """Traffic shape of the crowded-venue capture."""

    population: int = 2500
    unknown_pool: int = 500
    active_known: int = 200
    active_unknown: int = 40
    windows: int = 16
    window_s: float = 5.0
    #: Share of a window's active devices that talk enough to clear the
    #: signature gate; the rest send one burst and are accumulated in
    #: vain (what ``streaming.builder.candidate_ratio`` shows).
    heavy_share: float = 0.25
    heavy_bursts: int = 4
    min_observations: int = 10
    #: Training segments that cover the whole population once.
    training_segments: int = 10
    training_bursts_per_device: int = 8


@dataclass
class _Traits:
    """Per-device behaviour: what makes a fingerprint."""

    gap_us: np.ndarray
    cw: np.ndarray
    rate: np.ndarray
    size_a: np.ndarray
    size_b: np.ndarray
    burst_mean: np.ndarray
    null_share: np.ndarray


def _traits(rng: np.random.Generator, count: int) -> _Traits:
    sizes = np.array([64, 90, 128, 180, 256, 400, 576, 900, 1200, 1500])
    return _Traits(
        gap_us=rng.uniform(16.0, 120.0, count),
        cw=rng.choice(np.array([7, 15, 31, 63]), count),
        rate=rng.choice(np.array([6.0, 12.0, 24.0, 36.0, 48.0, 54.0]), count),
        size_a=rng.choice(sizes, count),
        size_b=rng.choice(sizes, count),
        burst_mean=rng.uniform(2.0, 6.0, count),
        null_share=rng.uniform(0.0, 0.2, count),
    )


def _segment(
    rng: np.random.Generator,
    traits: _Traits,
    active: np.ndarray,
    bursts: np.ndarray,
    start_us: float,
    span_us: float,
) -> tuple[np.ndarray, ...]:
    """One segment of channel time: bursts of data frames, each ACKed.

    ``bursts[i]`` is how many bursts ``active[i]`` sends.  Returns the
    row arrays ``(timestamps, device, ftype, size, rate, receiver)``;
    ``device`` is ``-1`` on ACK rows, whose ``receiver`` is the device
    being acknowledged.
    """
    burst_dev = rng.permutation(np.repeat(active, bursts))
    lengths = 1 + rng.poisson(traits.burst_mean[burst_dev] - 1.0)
    dev = np.repeat(burst_dev, lengths)
    count = dev.size
    first = np.zeros(count, dtype=bool)
    first[np.cumsum(lengths) - lengths] = True
    null = rng.random(count) < traits.null_share[dev]
    size = np.where(rng.random(count) < 0.5, traits.size_a[dev], traits.size_b[dev])
    size = np.where(null, _NULL_SIZE, size).astype(np.float64)
    rate = traits.rate[dev]
    gap = traits.gap_us[dev] + _SLOT_US * rng.integers(0, traits.cw[dev] + 1)
    air = _PREAMBLE_US + size * 8.0 / rate
    ack_step = _SIFS_US + _PREAMBLE_US + _ACK_SIZE * 8.0 / _ACK_RATE
    busy = float(gap.sum() + air.sum()) + count * ack_step
    idle = rng.exponential(1.0, int(first.sum()))
    idle *= max(0.97 * span_us - busy, 0.0) / idle.sum()
    gap[first] += idle
    step = np.empty(2 * count)
    step[0::2] = gap + air
    step[1::2] = ack_step
    stamps = np.round(start_us + np.cumsum(step))
    rows_dev = np.full(2 * count, -1, dtype=np.int64)
    rows_dev[0::2] = dev
    ftype = np.full(2 * count, _ACK, dtype=np.int64)
    ftype[0::2] = null.astype(np.int64)
    rows_size = np.full(2 * count, float(_ACK_SIZE))
    rows_size[0::2] = size
    rows_rate = np.full(2 * count, _ACK_RATE)
    rows_rate[0::2] = rate
    receiver = np.repeat(dev, 2)
    return stamps, rows_dev, ftype, rows_size, rows_rate, receiver


@dataclass
class CrowdCapture:
    """A generated capture: the columns plus each row's ACK receiver."""

    table: FrameTable
    receiver: np.ndarray


def _capture(
    rng: np.random.Generator,
    traits: _Traits,
    macs: tuple[MacAddress, ...],
    actives: list[tuple[np.ndarray, np.ndarray]],
    segment_s: float,
) -> CrowdCapture:
    """``actives`` holds one ``(devices, bursts per device)`` per segment."""
    span_us = segment_s * 1e6
    parts = [
        _segment(rng, traits, active, bursts, 1e6 + k * span_us, span_us)
        for k, (active, bursts) in enumerate(actives)
    ]
    stamps, dev, ftype, size, rate, receiver = (
        np.concatenate(column) for column in zip(*parts)
    )
    table = FrameTable(
        timestamp_us=stamps,
        size=size,
        rate_mbps=rate,
        sender_idx=dev,
        ftype_idx=ftype,
        senders=macs,
        ftype_keys=tuple(subtype.label for subtype in _SUBTYPES),
    )
    return CrowdCapture(table=table, receiver=receiver)


@dataclass
class CrowdInputs:
    pcap: Path
    store: Path
    frames: int
    reference_devices: int


def crowd_inputs(seed: int, directory: Path, shape: CrowdShape) -> CrowdInputs:
    """Write the venue capture (pcap) and the learnt reference store."""
    rng = np.random.default_rng(seed)
    total = shape.population + shape.unknown_pool
    traits = _traits(rng, total)
    macs = tuple(
        vendor_mac(_OUIS[i % len(_OUIS)], i + 1) for i in range(shape.population)
    ) + tuple(vendor_mac(_UNKNOWN_OUI, i + 1) for i in range(shape.unknown_pool))

    order = rng.permutation(shape.population)
    training = _capture(
        rng,
        traits,
        macs,
        [
            (block, np.full(block.size, shape.training_bursts_per_device))
            for block in np.array_split(order, shape.training_segments)
        ],
        segment_s=shape.window_s,
    )
    builder = SignatureBuilder(
        InterArrivalTime(), min_observations=shape.min_observations
    )
    database = ReferenceDatabase.from_training_table(builder, training.table)
    store = save_database(database, directory / "refs.store", parameter="interarrival")

    actives = []
    for _ in range(shape.windows):
        active = np.concatenate(
            [
                rng.choice(shape.population, shape.active_known, replace=False),
                shape.population
                + rng.choice(shape.unknown_pool, shape.active_unknown, replace=False),
            ]
        )
        heavy = rng.permutation(active.size) < round(shape.heavy_share * active.size)
        actives.append((active, np.where(heavy, shape.heavy_bursts, 1)))
    capture = _capture(rng, traits, macs, actives, shape.window_s)
    pcap = directory / "venue.pcap"
    write_pcap(pcap, capture)
    return CrowdInputs(
        pcap=pcap,
        store=store,
        frames=len(capture.table),
        reference_devices=len(database),
    )


def write_pcap(path: Path, capture: CrowdCapture) -> None:
    """Serialise a capture as a radiotap pcap.

    Each distinct (device, frame type, size, rate) row shape is encoded
    once with the repository's own encoders; rows then differ only in
    their radiotap TSFT, which is patched in place.
    """
    table = capture.table
    templates: dict[tuple, tuple[bytes, bytes]] = {}
    mark = _TSFT_MARK.to_bytes(8, "little")
    with PcapWriter(path) as writer:
        for stamp, dev, ftype, size, rate, receiver in zip(
            table.timestamp_us.tolist(),
            table.sender_idx.tolist(),
            table.ftype_idx.tolist(),
            table.size.tolist(),
            table.rate_mbps.tolist(),
            capture.receiver.tolist(),
        ):
            key = (dev, ftype, size, rate, receiver if dev < 0 else -1)
            template = templates.get(key)
            if template is None:
                if dev < 0:
                    frame = ack_frame(table.senders[receiver])
                else:
                    frame = Dot11Frame(
                        subtype=_SUBTYPES[ftype],
                        size=int(size),
                        addr1=_AP,
                        addr2=table.senders[dev],
                        addr3=_AP,
                        to_ds=True,
                    )
                radiotap = build_radiotap(
                    tsft_us=_TSFT_MARK,
                    rate_mbps=rate,
                    channel=6,
                    antenna_signal_dbm=-50,
                )
                head, found, tail = (radiotap + encode_dot11(frame)).partition(mark)
                if not found:
                    raise RuntimeError("radiotap template has no TSFT field")
                template = templates[key] = (head, tail)
            head, tail = template
            writer.write_record(
                stamp, head + int(stamp).to_bytes(8, "little") + tail
            )


# -- sensor fan-in --------------------------------------------------------
@dataclass(frozen=True)
class FaninShape:
    """Traffic shape of one sensor-fanin round."""

    sensors: int = 2
    frames_per_sensor: int = 1_000_000
    #: Capture time every sensor's rows span, whatever the seed draws.
    span_s: float = 1200.0
    devices: int = 12
    chunk_frames: int = 512
    #: Devices two neighbouring sensors both hear (merge conflicts).
    shared_devices: int = 4


def sensor_captures(seed: int, shape: FaninShape) -> dict[str, list[FrameTable]]:
    """Per-sensor columnar captures, cut into ``chunk_frames`` chunks."""
    rng = np.random.default_rng(seed)
    captures = {}
    stride = shape.devices - shape.shared_devices
    for sensor in range(shape.sensors):
        frames = shape.frames_per_sensor
        # Each device keeps its own mean gap, so signatures differ.
        device_gap = rng.uniform(300.0, 3000.0, shape.devices)
        sender_idx = rng.integers(0, shape.devices, frames, dtype=np.int64)
        gaps = rng.exponential(1.0, frames) * device_gap[sender_idx] + 30.0
        sender_idx[rng.random(frames) < 0.1] = -1  # ACK/CTS rows
        clock = np.cumsum(gaps)
        table = FrameTable(
            timestamp_us=10_000.0 + clock * (shape.span_s * 1e6 / clock[-1]),
            size=rng.choice(np.array([90.0, 400.0, 1500.0]), frames),
            rate_mbps=rng.choice(np.array([6.0, 24.0, 54.0]), frames),
            sender_idx=sender_idx,
            ftype_idx=rng.integers(0, 2, frames, dtype=np.int64),
            senders=tuple(
                vendor_mac("00:13:e8", sensor * stride + i + 1)
                for i in range(shape.devices)
            ),
            ftype_keys=("QoS Data", "Beacon"),
        )
        captures[f"sensor-{sensor}"] = [
            table.slice_rows(lo, min(lo + shape.chunk_frames, frames))
            for lo in range(0, frames, shape.chunk_frames)
        ]
    return captures
