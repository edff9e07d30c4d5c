"""The five network parameters of Section III.

Each parameter turns a captured frame sequence into per-sender
observations ``(sender, frame type, value)`` following the paper's
Section IV-A semantics:

* frames whose sender a passive monitor cannot attribute (ACK, CTS)
  produce **no observation** — their measured value is dropped — but
  they still advance the channel clock (``t_{i-1}``) for the
  time-derived parameters, exactly as in the paper's Figure 1 example;
* ``rate_i`` and ``size_i`` come straight from the Radiotap header;
* ``tt_i = size_i / rate_i`` (µs) is the paper's simplified
  transmission time;
* ``i_i = t_i − t_{i−1}`` is the inter-arrival between consecutive
  end-of-receptions on the channel, regardless of sender;
* ``mtime_i = (t_i − tt_i) − t_{i−1}`` is the idle gap the sender
  waited between the previous frame's end and its own frame's start.

All parameters also accept a *default binning* used throughout the
evaluation (ablated in ``benchmarks/test_ablation_bin_width.py``).

Each parameter writes its formula twice: :meth:`~NetworkParameter.value`
is the scalar formula for one frame given the channel clock (the
per-frame streaming hot path and the reference the tests compare
against), and :meth:`~NetworkParameter.observe_table` is the same
formula vectorized over a columnar
:class:`~repro.traces.table.FrameTable` (the time-derived parameters
become shifted-array subtractions under a sender mask — DESIGN.md §6).
Everything else is generic and written once here:
:meth:`~NetworkParameter.observations` and :class:`ObservationStream`,
whose only state is the channel clock.  Equivalence is property-pinned
in ``tests/test_parameters.py`` and ``tests/test_table.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.dot11.capture import CapturedFrame
from repro.dot11.mac import MacAddress
from repro.dot11.phy import PAPER_RATE_AXIS, paper_transmission_time_us
from repro.core.histogram import BinSpec, CategoricalBins, UniformBins
from repro.traces.table import FrameTable, TableObservations


@dataclass(frozen=True, slots=True)
class Observation:
    """One attributed measurement."""

    sender: MacAddress
    ftype_key: str
    value: float


class NetworkParameter:
    """Base class: a passively measurable per-frame quantity.

    Every parameter is causal with one frame of memory: an observation
    depends only on its frame and the channel clock ``t_{i-1}``, the
    end-of-reception of the previous frame on the channel (any sender,
    ACK/CTS included).
    """

    #: Short identifier used in tables and the CLI.
    name: str = "abstract"
    #: Human-readable label matching the paper's terminology.
    label: str = "abstract parameter"
    #: Frames of channel memory an observation consumes (0 for pure
    #: per-frame values, 1 for the ``t_{i-1}``-derived parameters).
    #: The detection fast path uses this to slice a whole-trace
    #: observation batch into per-window batches: an observation at
    #: table row ``p`` is valid for a window starting at row ``lo``
    #: iff ``p >= lo + table_memory`` (DESIGN.md §6).
    table_memory: int = 0

    def default_bins(self) -> BinSpec:
        """Binning used by the evaluation unless overridden."""
        raise NotImplementedError

    def value(self, frame: CapturedFrame, previous_t: float | None) -> float | None:
        """The formula for one attributable frame.

        ``previous_t`` is the channel clock ``t_{i-1}`` (``None`` for
        the first frame of a capture); ``None`` means the frame yields
        no observation.
        """
        raise NotImplementedError

    def observe_table(
        self, table: FrameTable, previous_t: float | None = None
    ) -> TableObservations:
        """:meth:`value` vectorized over a columnar table.

        Returns the observation batch as aligned arrays — the same
        (sender, frame type, value) sequence :meth:`observations`
        yields on ``table.to_frames()``, bit for bit.  ``previous_t``
        is the channel clock carried in from the rows before the table
        (the previous chunk of a stream); when given, row 0 observes
        against it.
        """
        raise NotImplementedError

    def observations(
        self, frames: Iterable[CapturedFrame]
    ) -> Iterator[Observation]:
        """Yield attributed observations from a frame sequence."""
        stream = self.online()
        for frame in frames:
            yield from stream.push(frame)

    def online(self) -> "ObservationStream":
        """A stateful extractor fed one frame or one chunk at a time."""
        return ObservationStream(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class ObservationStream:
    """Incremental observation extraction (streaming engine).

    The stream's whole state is the channel clock ``t_{i-1}``, carried
    across :meth:`push` calls (one frame) and :meth:`push_table` calls
    (one chunk span) alike, so any interleaving of the two yields the
    observations of pushing every frame one at a time.
    """

    __slots__ = ("_parameter", "_previous_t")

    def __init__(self, parameter: NetworkParameter) -> None:
        self._parameter = parameter
        self._previous_t: float | None = None

    def push(self, frame: CapturedFrame) -> tuple[Observation, ...]:
        """Observations this frame contributes (at most one)."""
        previous_t = self._previous_t
        self._previous_t = frame.timestamp_us
        sender = frame.sender
        if sender is None:
            return ()
        value = self._parameter.value(frame, previous_t)
        if value is None:
            return ()
        return (Observation(sender, frame.ftype_key, value),)

    def push_table(self, table: FrameTable, lo: int, hi: int) -> TableObservations:
        """Vectorized push of chunk rows ``[lo, hi)`` (chunked streaming).

        Returns the observation batch those rows contribute — exactly
        what feeding each row's frame through :meth:`push` would yield,
        with ``positions`` in the chunk's row coordinates — and
        advances the clock past row ``hi - 1``.
        """
        observed = self._parameter.observe_table(
            table.slice_rows(lo, hi), self._previous_t
        )
        if hi > lo:
            self._previous_t = float(table.timestamp_us[hi - 1])
        return observed._replace(positions=observed.positions + lo)

    def export_state(self) -> dict:
        """Checkpointable state (see :mod:`repro.persistence.checkpoint`)."""
        return {"previous_t": self._previous_t}

    def restore_state(self, state: dict) -> None:
        """Re-arm the stream from :meth:`export_state` output."""
        self._previous_t = state.get("previous_t")


def _attributable(table: FrameTable) -> np.ndarray:
    """Rows that can yield an observation (sender known)."""
    return np.flatnonzero(table.sender_idx >= 0)


def _clocked(
    table: FrameTable, previous_t: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """Rows yielding a time-derived observation, and their ``t_{i-1}``.

    Those are the attributable rows with a predecessor on the channel:
    ``t_{i-1}`` is the timestamp column shifted by one row, because
    *every* frame (ACK/CTS included) advances the clock.  Row 0 has a
    predecessor only when the clock ``previous_t`` is carried in.
    Only the observed rows are gathered.
    """
    attributable = table.sender_idx >= 0
    if previous_t is None:
        positions = np.flatnonzero(attributable[1:]) + 1
        return positions, table.timestamp_us[positions - 1]
    positions = np.flatnonzero(attributable)
    previous = table.timestamp_us[positions - 1]
    if positions.size and positions[0] == 0:
        previous[0] = previous_t  # row 0's predecessor is the carried clock
    return positions, previous


def _gathered(
    table: FrameTable, positions: np.ndarray, values: np.ndarray
) -> TableObservations:
    return TableObservations(
        sender_idx=table.sender_idx[positions],
        ftype_idx=table.ftype_idx[positions],
        values=values,
        positions=positions,
    )


class TransmissionRate(NetworkParameter):
    """``p_i = rate_i`` — the Radiotap-reported transmission rate."""

    name = "rate"
    label = "Transmission rate"

    def default_bins(self) -> BinSpec:
        return CategoricalBins(categories=tuple(float(r) for r in PAPER_RATE_AXIS))

    def value(self, frame: CapturedFrame, previous_t: float | None) -> float:
        return frame.rate_mbps

    def observe_table(
        self, table: FrameTable, previous_t: float | None = None
    ) -> TableObservations:
        positions = _attributable(table)
        return _gathered(table, positions, table.rate_mbps[positions])


class FrameSize(NetworkParameter):
    """``p_i = size_i`` — the full MAC-layer frame size in bytes."""

    name = "size"
    label = "Frame size"

    def default_bins(self) -> BinSpec:
        return UniformBins(lo=0.0, hi=2400.0, width=32.0)

    def value(self, frame: CapturedFrame, previous_t: float | None) -> float:
        return float(frame.size)

    def observe_table(
        self, table: FrameTable, previous_t: float | None = None
    ) -> TableObservations:
        positions = _attributable(table)
        return _gathered(table, positions, table.size[positions])


class TransmissionTime(NetworkParameter):
    """``tt_i = size_i / rate_i`` in microseconds (Section IV-A)."""

    name = "txtime"
    label = "Transmission time"

    def default_bins(self) -> BinSpec:
        # The range must reach size/rate of a full frame at 1 Mbps
        # (~19 ms), otherwise low-rate broadcast traffic piles into the
        # clip bin and washes out device differences.
        return UniformBins(lo=0.0, hi=20000.0, width=20.0)

    def value(self, frame: CapturedFrame, previous_t: float | None) -> float:
        return paper_transmission_time_us(frame.size, frame.rate_mbps)

    def observe_table(
        self, table: FrameTable, previous_t: float | None = None
    ) -> TableObservations:
        # size * 8 / rate over float64 columns is bit-identical to the
        # scalar paper_transmission_time_us (sizes are exact in float64).
        positions = _attributable(table)
        values = table.size[positions] * 8.0 / table.rate_mbps[positions]
        return _gathered(table, positions, values)


class InterArrivalTime(NetworkParameter):
    """``i_i = t_i − t_{i−1}`` between consecutive end-of-receptions.

    The previous frame may come from *any* sender (or be an
    unattributable ACK/CTS); only the attribution of the value follows
    the current frame's sender.  The first frame of a capture yields no
    observation.
    """

    name = "interarrival"
    label = "Inter-arrival time"
    table_memory = 1

    def default_bins(self) -> BinSpec:
        # The paper's histograms span 0-2500 µs (Figure 2); longer
        # idle-tail gaps are dropped rather than clipped — a clip bin
        # would dominate every lightly-loaded device's signature and
        # make them mutually indistinguishable.
        return UniformBins(lo=0.0, hi=2500.0, width=50.0, drop_outside=True)

    def value(
        self, frame: CapturedFrame, previous_t: float | None
    ) -> float | None:
        if previous_t is None:
            return None
        return frame.timestamp_us - previous_t

    def observe_table(
        self, table: FrameTable, previous_t: float | None = None
    ) -> TableObservations:
        positions, previous = _clocked(table, previous_t)
        return _gathered(table, positions, table.timestamp_us[positions] - previous)


class MediumAccessTime(NetworkParameter):
    """``mtime_i = (t_i − tt_i) − t_{i−1}`` — the sender's idle wait.

    The frame's start-of-reception is estimated as ``t_i − tt_i`` using
    the paper's simplified transmission time; subtracting the previous
    end-of-reception yields how long the sender left the medium idle
    (DIFS + backoff slots, SIFS inside protected exchanges).
    """

    name = "access"
    label = "Medium access time"
    table_memory = 1

    def default_bins(self) -> BinSpec:
        # Same tail treatment as the inter-arrival time: only waits in
        # the contention range carry device information.
        return UniformBins(lo=0.0, hi=1000.0, width=20.0, drop_outside=True)

    def value(
        self, frame: CapturedFrame, previous_t: float | None
    ) -> float | None:
        if previous_t is None:
            return None
        tt_i = paper_transmission_time_us(frame.size, frame.rate_mbps)
        return (frame.timestamp_us - tt_i) - previous_t

    def observe_table(
        self, table: FrameTable, previous_t: float | None = None
    ) -> TableObservations:
        # The start-of-reception estimate t_i − tt_i in place of the
        # inter-arrival's t_i; the operation order matches the scalar
        # path bit for bit.
        positions, previous = _clocked(table, previous_t)
        tt = table.size[positions] * 8.0 / table.rate_mbps[positions]
        values = (table.timestamp_us[positions] - tt) - previous
        return _gathered(table, positions, values)


#: The paper's five parameters, in its Section III order.
ALL_PARAMETERS: tuple[NetworkParameter, ...] = (
    TransmissionRate(),
    FrameSize(),
    MediumAccessTime(),
    TransmissionTime(),
    InterArrivalTime(),
)


def parameter_by_name(name: str) -> NetworkParameter:
    """Look up one of the five parameters by its short name."""
    for parameter in ALL_PARAMETERS:
        if parameter.name == name:
            return parameter
    raise KeyError(f"unknown network parameter: {name!r}")
