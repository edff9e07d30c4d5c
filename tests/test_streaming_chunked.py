"""Chunked columnar ingest is bit-identical to the per-frame path.

The chunked fast path (``StreamEngine.process_chunk``,
``StreamingSignatureBuilder.update_table``,
``WindowManager.update_table``) exists purely for throughput — every
test here pins that it produces exactly the events, stats, and
resumable state of the per-frame reference path, for every chunking of
the same frames.  Signatures and ``ClosedWindow`` objects hold ndarray
fields, so equivalence is asserted through events (scalar frozen
dataclasses), ``StreamStats``, and ``export_state()`` dictionaries.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import ALL_PARAMETERS, InterArrivalTime
from repro.dot11.capture import CapturedFrame
from repro.dot11.frames import Dot11Frame, FrameSubtype
from repro.dot11.mac import MacAddress, vendor_mac
from repro.streaming import (
    CollectingSink,
    DeviceEvicted,
    StreamEngine,
    StreamingSignatureBuilder,
    WindowClosed,
    WindowConfig,
    replay_chunk_source,
    table_chunks,
)
from repro.traces.table import FrameTable
from tests.conftest import make_data_capture
from tests.test_table import JOINT_PARAMETERS

AP = vendor_mac("00:0f:66", 99)


def synth_frames(
    count: int = 1200, seed: int = 3, devices: int = 5, ack_share: float = 0.1
) -> list[CapturedFrame]:
    """A mixed capture: several devices, ACKs advancing the channel clock."""
    rng = random.Random(seed)
    senders = [vendor_mac("00:13:e8", i + 1) for i in range(devices)]
    frames = []
    t = 10_000.0
    for _ in range(count):
        t += rng.uniform(400, 5000)
        if rng.random() < ack_share:
            frames.append(
                CapturedFrame(
                    timestamp_us=t,
                    frame=Dot11Frame(subtype=FrameSubtype.ACK, size=14, addr1=AP),
                    rate_mbps=24.0,
                )
            )
        else:
            frames.append(
                make_data_capture(
                    t,
                    rng.choice(senders),
                    AP,
                    size=rng.choice([90, 400, 1500]),
                    rate=rng.choice([6.0, 24.0, 54.0]),
                    subtype=rng.choice(
                        [FrameSubtype.QOS_DATA, FrameSubtype.DATA, FrameSubtype.BEACON]
                    ),
                )
            )
    return frames


FRAMES = synth_frames()
TABLE = FrameTable.from_frames(FRAMES)


def chunk_spans(total: int, sizes: list[int]):
    """Cut ``[0, total)`` into spans cycling through ``sizes``."""
    spans, lo, i = [], 0, 0
    while lo < total:
        hi = min(total, lo + sizes[i % len(sizes)])
        spans.append((lo, hi))
        lo, i = hi, i + 1
    return spans


class TestBuilderEquivalence:
    @pytest.mark.parametrize(
        "parameter", ALL_PARAMETERS + JOINT_PARAMETERS, ids=lambda p: p.name
    )
    @pytest.mark.parametrize("half_life", [None, 3.0], ids=["nodecay", "decay"])
    @given(sizes=st.lists(st.integers(1, 400), min_size=1, max_size=6))
    @settings(deadline=None, max_examples=15)
    def test_update_table_matches_per_frame(self, parameter, half_life, sizes):
        reference = StreamingSignatureBuilder(
            parameter, min_observations=10, decay_half_life_s=half_life
        )
        for frame in FRAMES:
            reference.update(frame)

        chunked = StreamingSignatureBuilder(
            parameter, min_observations=10, decay_half_life_s=half_life
        )
        for lo, hi in chunk_spans(len(TABLE), sizes):
            chunked.update_table(TABLE, lo, hi)

        assert chunked.export_state() == reference.export_state()

    def test_mid_burst_chunk_boundary_carries_channel_clock(self):
        """A chunk cut between two frames of one device's burst must
        still observe the gap across the cut (the carried ``t_{i-1}``)."""
        a = vendor_mac("00:13:e8", 1)
        frames = [make_data_capture(1000.0 * i, a, AP) for i in range(1, 11)]
        table = FrameTable.from_frames(frames)
        parameter = InterArrivalTime()
        reference = StreamingSignatureBuilder(parameter, min_observations=1)
        for frame in frames:
            reference.update(frame)
        for cut in range(1, len(frames)):
            chunked = StreamingSignatureBuilder(parameter, min_observations=1)
            chunked.update_table(table, 0, cut)
            chunked.update_table(table, cut, len(frames))
            assert chunked.export_state() == reference.export_state()


def make_engine(parameter, sink, window_s=10.0, slide_s=None, idle_timeout_s=None):
    return StreamEngine(
        lambda: StreamingSignatureBuilder(parameter, min_observations=10),
        window=WindowConfig(
            window_s=window_s, slide_s=slide_s, idle_timeout_s=idle_timeout_s
        ),
        sinks=[sink],
    )


class TestEngineEquivalence:
    @pytest.mark.parametrize("parameter", ALL_PARAMETERS, ids=lambda p: p.name)
    @pytest.mark.parametrize(
        "slide_s", [None, 3.0], ids=["tumbling", "sliding"]
    )
    @given(chunk_frames=st.integers(1, 2000))
    @settings(deadline=None, max_examples=10)
    def test_run_chunked_matches_run(self, parameter, slide_s, chunk_frames):
        ref_sink = CollectingSink()
        reference = make_engine(parameter, ref_sink, slide_s=slide_s)
        reference.run(FRAMES)

        chunk_sink = CollectingSink()
        chunked = make_engine(parameter, chunk_sink, slide_s=slide_s)
        chunked.run_chunked(replay_chunk_source(TABLE, chunk_frames))

        assert chunk_sink.events == ref_sink.events
        assert chunked.stats == reference.stats

    def test_chunk_boundary_exactly_on_window_boundary(self):
        """Windows of 10 s, one frame per second, chunks of 10 frames:
        every chunk boundary coincides with a window boundary — the
        hardest alignment for the splitting logic."""
        a, b = vendor_mac("00:13:e8", 1), vendor_mac("00:18:f8", 2)
        frames = [
            make_data_capture(1e6 * i, a if i % 2 else b, AP) for i in range(100)
        ]
        for chunk_frames in (10, 20, 5):
            ref_sink, chunk_sink = CollectingSink(), CollectingSink()
            reference = make_engine(InterArrivalTime(), ref_sink)
            reference.run(frames)
            chunked = make_engine(InterArrivalTime(), chunk_sink)
            chunked.run_chunked(table_chunks(frames, chunk_frames))
            assert chunk_sink.events == ref_sink.events
            assert chunked.stats == reference.stats
        assert ref_sink.of_type(WindowClosed)  # the scenario closes windows

    def test_checkpoint_at_chunk_boundary_resumes_identically(self, tmp_path):
        """Checkpoint after N whole chunks, restore into a fresh engine,
        finish with the remaining chunks: the two halves must splice
        into exactly the uninterrupted run's event stream and stats."""
        parameter = InterArrivalTime()
        whole_sink = CollectingSink()
        whole = make_engine(parameter, whole_sink)
        whole.run(FRAMES)

        chunks = list(replay_chunk_source(TABLE, 170))
        for boundary in (1, len(chunks) // 2, len(chunks) - 1):
            first_sink = CollectingSink()
            first = make_engine(parameter, first_sink)
            for chunk in chunks[:boundary]:
                first.process_chunk(chunk)
            checkpoint = first.checkpoint(tmp_path / "ck.json")

            second_sink = CollectingSink()
            second = make_engine(parameter, second_sink)
            second.restore(checkpoint)
            for chunk in chunks[boundary:]:
                second.process_chunk(chunk)
            second.flush()

            assert first_sink.events + second_sink.events == whole_sink.events
            assert second.stats == whole.stats


class TestPromptEviction:
    def frames_with_idle_device(self):
        a, b = vendor_mac("00:13:e8", 1), vendor_mac("00:18:f8", 2)
        frames = [
            make_data_capture(0.0, a, AP),
            make_data_capture(1000.0, a, AP),
        ]
        t = 1000.0
        for _ in range(1100):  # B alone, far past A's idle timeout
            t += 20_000.0
            frames.append(make_data_capture(t, b, AP))
        return frames, a

    def test_eviction_emitted_at_sweep_time_not_window_close(self):
        frames, a = self.frames_with_idle_device()
        sink = CollectingSink()
        engine = make_engine(
            InterArrivalTime(), sink, window_s=3600.0, idle_timeout_s=5.0
        )
        engine.run(frames)
        (evicted,) = sink.of_type(DeviceEvicted)
        (closed,) = sink.of_type(WindowClosed)
        assert evicted.device == a
        # Prompt emission: the sweep fires mid-window, long before the
        # window's end stamps the closure.
        assert evicted.timestamp_us < closed.end_us
        assert sink.events.index(evicted) < sink.events.index(closed)

    def test_eviction_events_identical_under_chunking(self):
        frames, _ = self.frames_with_idle_device()
        ref_sink = CollectingSink()
        make_engine(
            InterArrivalTime(), ref_sink, window_s=3600.0, idle_timeout_s=5.0
        ).run(frames)
        for chunk_frames in (1, 256, 512, 513, 4096):
            sink = CollectingSink()
            make_engine(
                InterArrivalTime(), sink, window_s=3600.0, idle_timeout_s=5.0
            ).run_chunked(table_chunks(frames, chunk_frames))
            assert sink.events == ref_sink.events


class TestChunkedAnalyzers:
    """Analyzers under the chunked engine see what the per-frame engine
    shows them; frame-less analyzers need no backing frames at all."""

    @staticmethod
    def events(analyzer_factory, chunks=None, frames=None):
        sink = CollectingSink()
        engine = StreamEngine(
            lambda: StreamingSignatureBuilder(
                InterArrivalTime(), min_observations=30
            ),
            window=WindowConfig(window_s=1.0),
            analyzers=[analyzer_factory()],
            sinks=[sink],
        )
        if chunks is not None:
            engine.run_chunked(chunks)
        else:
            engine.run(frames)
        return sink.events

    def test_frame_less_analyzers_skip_the_frame_replay(self):
        from repro.applications.attacks import spoof_mac
        from repro.applications.spoof_detector import SpoofDetector
        from repro.applications.tracker import DeviceTracker
        from repro.streaming import (
            LiveTracker,
            OnlineSpoofGuard,
            PseudonymLinked,
            SpoofAlert,
        )

        detector = SpoofDetector(min_observations=30)
        detector.learn(FRAMES[:600], set(TABLE.senders[:3]))
        tracker = DeviceTracker(min_observations=30, link_threshold=0.0)
        tracker.learn(FRAMES[:600])
        device = TABLE.senders[0]
        pseudonymous = spoof_mac(FRAMES, device, device.randomized(random.Random(3)))
        for factory, frames, alert in (
            (lambda: OnlineSpoofGuard(detector), FRAMES, SpoofAlert),
            (lambda: LiveTracker(tracker), pseudonymous, PseudonymLinked),
        ):
            expected = self.events(factory, frames=frames)
            assert any(isinstance(event, alert) for event in expected)
            # No backing frames: frame_at raises if anything asks for one.
            table = FrameTable.from_frames(frames)
            bare = FrameTable(
                table.timestamp_us, table.size, table.rate_mbps, table.sender_idx,
                table.ftype_idx, table.senders, table.ftype_keys,
            )
            chunks = replay_chunk_source(bare, 97)
            assert self.events(factory, chunks=chunks) == expected

    def test_frame_hook_analyzer_reads_lazily_decoded_pcap_frames(self, tmp_path):
        from repro.applications.rogue_ap import RogueApDetector
        from repro.core.parameters import FrameSize
        from repro.radiotap.pcap import write_trace_pcap
        from repro.streaming import (
            OnlineRogueApGuard,
            RogueApAlert,
            pcap_chunk_source,
            pcap_source,
        )

        path = tmp_path / "capture.pcap"
        write_trace_pcap(path, FRAMES)
        ap = TABLE.senders[0]
        detector = RogueApDetector(parameter=FrameSize(), min_observations=1)
        assert detector.learn(FRAMES, ap)
        detector.accept_threshold = 1.01  # force an alert per window
        factory = lambda: OnlineRogueApGuard(detector, ap)  # noqa: E731
        expected = self.events(factory, frames=pcap_source(path))
        alerts = [event for event in expected if isinstance(event, RogueApAlert)]
        assert alerts and all(alert.observations > 0 for alert in alerts)
        chunked = self.events(factory, chunks=pcap_chunk_source(path, chunk_frames=97))
        assert chunked == expected
