"""Online signature construction: one frame at a time, O(1) per frame.

:class:`StreamingSignatureBuilder` is the incremental counterpart of
:class:`~repro.core.signature.SignatureBuilder`: it consumes frames
through the parameter's :meth:`~repro.core.parameters.NetworkParameter.online`
extractor and maintains per-device, per-frame-type bin counters.  With
decay disabled the counters are *exactly* the batch builder's histogram
counts, so :meth:`signature`/:meth:`signatures` reproduce
:meth:`SignatureBuilder.build` bin-for-bin on the same frames
(property-tested in ``tests/test_streaming_builder.py``).  Chunked
ingest (:meth:`StreamingSignatureBuilder.update_table`) accepts whole
columnar row spans and scatters their kept observations through one
flat ``np.bincount`` — bit-identical to per-frame :meth:`update`
calls, including every checkpoint-visible detail
(``tests/test_streaming_chunked.py``, DESIGN.md §8).

Optional exponential decay turns the counters into a recency-weighted
profile for long-lived accumulators (live tracking, adaptive
references): each observation's weight halves every
``decay_half_life_s`` seconds.  Decay is implemented with the inflated
weight trick — an observation at time ``t`` is recorded with weight
``exp(λ(t − t0))`` against a per-device reference time ``t0``, so the
whole histogram never needs rescaling on update (O(1) per frame); the
common inflation factor cancels in frequencies and weights, and the
counters are rebased once the factor grows past ``1e9`` to keep the
floats healthy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    from repro.traces.table import FrameTable

from repro.dot11.capture import CapturedFrame
from repro.dot11.mac import MacAddress
from repro.core.histogram import BinSpec
from repro.core.parameters import NetworkParameter
from repro.core.signature import DEFAULT_MIN_OBSERVATIONS, Signature

#: Rebase a device's counters once its inflation factor exceeds this.
_REBASE_AT = 1e9


class _DeviceState:
    """One device's live accumulators."""

    __slots__ = ("counts", "totals", "t0_us", "last_seen_us")

    def __init__(self, now_us: float) -> None:
        #: ftype → per-bin weighted counts (plain lists: scalar
        #: increments are several times faster than ndarray item set).
        self.counts: dict[str, list[float]] = {}
        #: ftype → total weighted count (inflated units, like counts).
        self.totals: dict[str, float] = {}
        #: Decay reference time: weights are relative to this instant.
        self.t0_us = now_us
        self.last_seen_us = now_us


class StreamingSignatureBuilder:
    """Per-device incremental histograms with optional exponential decay.

    One builder is bound to a network parameter and a bin spec, like
    the batch :class:`~repro.core.signature.SignatureBuilder`; frames
    are fed through :meth:`update` and signatures can be read out at
    any instant.  Memory is O(resident devices × frame types × bins),
    independent of stream length; :meth:`evict` and :meth:`evict_idle`
    bound the resident set.
    """

    def __init__(
        self,
        parameter: NetworkParameter,
        bins: BinSpec | None = None,
        min_observations: int = DEFAULT_MIN_OBSERVATIONS,
        decay_half_life_s: float | None = None,
    ) -> None:
        if min_observations < 1:
            raise ValueError(f"min_observations must be >= 1: {min_observations}")
        if decay_half_life_s is not None and decay_half_life_s <= 0:
            raise ValueError(
                f"decay half-life must be positive: {decay_half_life_s}"
            )
        self.parameter = parameter
        self.bins = bins if bins is not None else parameter.default_bins()
        self.min_observations = min_observations
        self.decay_half_life_s = decay_half_life_s
        #: Decay rate λ in 1/µs (0 = decay off).
        self._decay_rate = (
            math.log(2.0) / (decay_half_life_s * 1e6) if decay_half_life_s else 0.0
        )
        self._stream = parameter.online()
        self._devices: dict[MacAddress, _DeviceState] = {}
        self._bin_count = self.bins.bin_count
        self.frames_seen = 0
        self.observations_kept = 0

    # -- ingest --------------------------------------------------------
    def update(self, frame: CapturedFrame) -> int:
        """Consume one frame; returns how many observations were kept."""
        self.frames_seen += 1
        observations = self._stream.push(frame)
        if not observations:
            return 0
        kept = 0
        now_us = frame.timestamp_us
        for observation in observations:
            index = self.bins.index(observation.value)
            if index is None:
                continue
            self._accumulate(observation.sender, observation.ftype_key, index, now_us)
            kept += 1
        self.observations_kept += kept
        return kept

    def _accumulate(
        self, sender: MacAddress, ftype_key: str, index: int, now_us: float
    ) -> None:
        """Fold one kept observation into the device's accumulators."""
        state = self._devices.get(sender)
        if state is None:
            state = _DeviceState(now_us)
            self._devices[sender] = state
        if self._decay_rate:
            weight = math.exp(self._decay_rate * (now_us - state.t0_us))
            if weight > _REBASE_AT:
                self._rebase(state, now_us)
                weight = 1.0
        else:
            weight = 1.0
        counts = state.counts.get(ftype_key)
        if counts is None:
            counts = [0.0] * self._bin_count
            state.counts[ftype_key] = counts
            state.totals[ftype_key] = 0.0
        counts[index] += weight
        state.totals[ftype_key] += weight
        state.last_seen_us = now_us

    def update_table(
        self, table: "FrameTable", lo: int = 0, hi: int | None = None
    ) -> int:
        """Consume rows ``[lo, hi)`` of a columnar chunk (vectorized).

        The chunked counterpart of feeding each backing frame through
        :meth:`update`: observations are extracted in one
        :meth:`~repro.core.parameters.ObservationStream.push_table`
        pass, binned with ``index_many`` and scattered into the
        per-device counters with one flat ``np.bincount`` — leaving
        accumulator state (counts, totals, ``t0_us``/``last_seen_us``,
        device and frame-type insertion order, extractor channel clock)
        bit-identical to the per-frame path.  The channel clock carries
        across calls, so a window spanning many chunks can be fed chunk
        by chunk.  With decay on, the extraction is still vectorized
        but observations are folded in one at a time so the exp/rebase
        arithmetic matches the per-frame path exactly.
        """
        if hi is None:
            hi = len(table)
        count = hi - lo
        if count <= 0:
            return 0
        pushed = self._stream.push_table(table, lo, hi)
        self.frames_seen += count
        bin_idx = self.bins.index_many(pushed.values)
        keep = bin_idx >= 0
        kept = int(np.count_nonzero(keep))
        if kept == 0:
            return 0
        self.observations_kept += kept
        sender_k = pushed.sender_idx[keep]
        ftype_k = pushed.ftype_idx[keep]
        bin_k = bin_idx[keep]
        stamps = table.timestamp_us[pushed.positions[keep]]
        if self._decay_rate:
            senders = table.senders
            ftype_keys = table.ftype_keys
            for code, fcode, index, now_us in zip(
                sender_k.tolist(), ftype_k.tolist(), bin_k.tolist(), stamps.tolist()
            ):
                self._accumulate(senders[code], ftype_keys[fcode], index, now_us)
            return kept
        self._scatter(table, sender_k, ftype_k, bin_k, stamps, kept)
        return kept

    def _scatter(
        self,
        table: "FrameTable",
        sender_k: np.ndarray,
        ftype_k: np.ndarray,
        bin_k: np.ndarray,
        stamps: np.ndarray,
        kept: int,
    ) -> None:
        """Decay-free batch fold: one bincount over (sender, ftype, bin).

        Increments are unit weights, so batch-summed integer counts
        added to the held float counters reproduce the one-at-a-time
        additions exactly (integers are exact in float64).  Devices and
        frame types are visited in first-kept-observation order via the
        reversed-scatter trick (duplicate fancy-assignment indices keep
        the last write), preserving the per-frame path's dict orders.
        """
        n_senders = len(table.senders)
        n_ftypes = len(table.ftype_keys)
        n_bins = self._bin_count
        pair = sender_k * n_ftypes + ftype_k
        counts = (
            np.bincount(pair * n_bins + bin_k, minlength=n_senders * n_ftypes * n_bins)
            .astype(np.float64)
            .reshape(n_senders, n_ftypes, n_bins)
        )
        order = np.arange(kept, dtype=np.int64)
        first_pair = np.full(n_senders * n_ftypes, kept, dtype=np.int64)
        first_pair[pair[::-1]] = order[::-1]
        first_pair = first_pair.reshape(n_senders, n_ftypes)
        first_sender = first_pair.min(axis=1)
        last_sender = np.zeros(n_senders, dtype=np.int64)
        last_sender[sender_k] = order
        active = np.flatnonzero(first_sender < kept).tolist()
        active.sort(key=first_sender.__getitem__)
        for code in active:
            device = table.senders[code]
            state = self._devices.get(device)
            if state is None:
                state = _DeviceState(float(stamps[first_sender[code]]))
                self._devices[device] = state
            state.last_seen_us = float(stamps[last_sender[code]])
            present = np.flatnonzero(first_pair[code] < kept).tolist()
            present.sort(key=first_pair[code].__getitem__)
            for fcode in present:
                key = table.ftype_keys[fcode]
                batch = counts[code, fcode]
                held = state.counts.get(key)
                if held is None:
                    state.counts[key] = batch.tolist()
                    state.totals[key] = float(batch.sum())
                else:
                    state.counts[key] = (np.asarray(held) + batch).tolist()
                    state.totals[key] += float(batch.sum())

    def _rebase(self, state: _DeviceState, now_us: float) -> None:
        """Re-anchor a device's inflated counters at ``now_us``."""
        deflate = math.exp(-self._decay_rate * (now_us - state.t0_us))
        for counts in state.counts.values():
            for index, value in enumerate(counts):
                counts[index] = value * deflate
        for ftype_key in state.totals:
            state.totals[ftype_key] *= deflate
        state.t0_us = now_us

    # -- read-out ------------------------------------------------------
    def observation_mass(
        self, device: MacAddress, now_us: float | None = None
    ) -> float:
        """The device's decayed total observation mass (0 if absent).

        ``now_us`` anchors the decay evaluation (defaults to the
        device's last update, like :meth:`signature`).  With decay off
        this is exactly the batch builder's total observation count.
        """
        state = self._devices.get(device)
        if state is None:
            return 0.0
        total = sum(state.totals.values())
        if self._decay_rate:
            anchor = state.last_seen_us if now_us is None else now_us
            total *= math.exp(-self._decay_rate * (anchor - state.t0_us))
        return total

    def signature(
        self, device: MacAddress, now_us: float | None = None
    ) -> Signature | None:
        """The device's current signature (``None`` below the gate).

        ``now_us`` anchors the decay evaluation (defaults to the
        device's last update); frequencies and weights are invariant to
        it, only the absolute mass used for gating and the reported
        observation counts decay.
        """
        state = self._devices.get(device)
        if state is None:
            return None
        deflate = 1.0
        if self._decay_rate:
            anchor = state.last_seen_us if now_us is None else now_us
            deflate = math.exp(-self._decay_rate * (anchor - state.t0_us))
        total = sum(state.totals.values())
        if total * deflate < self.min_observations:
            return None
        histograms: dict[str, np.ndarray] = {}
        weights: dict[str, float] = {}
        observation_counts: dict[str, int] = {}
        for ftype_key, counts in state.counts.items():
            ftype_total = state.totals[ftype_key]
            if ftype_total <= 0.0:
                continue
            histograms[ftype_key] = np.asarray(counts, dtype=np.float64) / ftype_total
            weights[ftype_key] = ftype_total / total
            observation_counts[ftype_key] = int(round(ftype_total * deflate))
        if not histograms:
            return None
        return Signature(
            histograms=histograms,
            weights=weights,
            observation_counts=observation_counts,
        )

    def signatures(
        self, now_us: float | None = None
    ) -> dict[MacAddress, Signature]:
        """Signatures of every resident device clearing the gate."""
        out: dict[MacAddress, Signature] = {}
        for device in self._devices:
            signature = self.signature(device, now_us)
            if signature is not None:
                out[device] = signature
        return out

    # -- checkpointing -------------------------------------------------
    def export_state(self) -> dict:
        """Everything needed to resume this builder mid-capture.

        The returned structure is JSON-shaped; the extractor state is
        its channel clock, one float (or ``None`` before the first
        frame).
        """
        return {
            "parameter": self.parameter.name,
            "bin_count": self._bin_count,
            "min_observations": self.min_observations,
            "decay_half_life_s": self.decay_half_life_s,
            "frames_seen": self.frames_seen,
            "observations_kept": self.observations_kept,
            "stream": self._stream.export_state(),
            "devices": [
                {
                    "mac": device.value,
                    "t0_us": state.t0_us,
                    "last_seen_us": state.last_seen_us,
                    "counts": {
                        ftype: list(counts) for ftype, counts in state.counts.items()
                    },
                    "totals": dict(state.totals),
                }
                for device, state in self._devices.items()
            ],
        }

    def restore_state(self, payload: dict) -> None:
        """Resume from :meth:`export_state` output.

        The builder must have been constructed with the same parameter,
        binning and gating configuration the snapshot was taken under —
        a mismatch raises ``ValueError`` instead of silently mixing
        incompatible histograms.
        """
        for key, mine in (
            ("parameter", self.parameter.name),
            ("bin_count", self._bin_count),
            ("min_observations", self.min_observations),
            ("decay_half_life_s", self.decay_half_life_s),
        ):
            theirs = payload.get(key)
            if theirs != mine:
                raise ValueError(
                    f"checkpoint {key} mismatch: snapshot has {theirs!r}, "
                    f"this builder has {mine!r}"
                )
        self._stream.restore_state(payload.get("stream", {}))
        self.frames_seen = int(payload["frames_seen"])
        self.observations_kept = int(payload["observations_kept"])
        self._devices = {}
        for entry in payload["devices"]:
            state = _DeviceState(float(entry["t0_us"]))
            state.last_seen_us = float(entry["last_seen_us"])
            state.counts = {
                ftype: [float(value) for value in counts]
                for ftype, counts in entry["counts"].items()
            }
            state.totals = {
                ftype: float(total) for ftype, total in entry["totals"].items()
            }
            self._devices[MacAddress(int(entry["mac"]))] = state
        return None

    # -- residency -----------------------------------------------------
    @property
    def resident_count(self) -> int:
        """Number of devices currently holding accumulators."""
        return len(self._devices)

    def devices(self) -> Iterator[MacAddress]:
        """Resident devices, in first-observation order."""
        return iter(self._devices)

    def last_seen_us(self, device: MacAddress) -> float | None:
        """When the device last contributed a kept observation."""
        state = self._devices.get(device)
        return None if state is None else state.last_seen_us

    def evict(self, device: MacAddress) -> bool:
        """Drop one device's accumulators; ``False`` if absent."""
        return self._devices.pop(device, None) is not None

    def evict_idle(self, now_us: float, idle_timeout_s: float) -> list[MacAddress]:
        """Drop devices with no kept observation for ``idle_timeout_s``.

        Returns the evicted devices.  This bounds the resident set on
        open-ended streams at the cost of forgetting devices that
        return after a long silence — exactness is traded for memory,
        so it is opt-in (see ``WindowConfig.idle_timeout_s``).
        """
        horizon = now_us - idle_timeout_s * 1e6
        victims = [
            device
            for device, state in self._devices.items()
            if state.last_seen_us < horizon
        ]
        for device in victims:
            del self._devices[device]
        return victims
