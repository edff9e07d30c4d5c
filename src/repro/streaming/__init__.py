"""Streaming fingerprint engine: online signatures, incremental
matching, live alert pipeline.

The batch pipeline (``repro.core``) takes complete frame lists; this
package feeds the same vectorized core incrementally, so captures of
unbounded length run in bounded memory at wire speed (DESIGN.md §4):

* :class:`StreamingSignatureBuilder` — per-device incremental
  histograms, O(1) per frame, optional exponential decay, provably
  equivalent to the batch builder with decay off;
* :class:`WindowManager` — tumbling/sliding detection windows with
  observation-count gating and idle-device eviction;
* :class:`OnlineMatcher` — Algorithm 1 over closed windows against a
  live (incrementally re-packed) reference database;
* :class:`StreamEngine` — pluggable frame sources in
  (:mod:`~repro.streaming.sources`), typed events out
  (:mod:`~repro.streaming.events`), with online adapters for all three
  Section VII applications (:mod:`~repro.streaming.apps`).

Ingest comes in two bit-identical flavours: the per-frame reference
path (``run``/``process_frame``) and the chunked columnar fast path
(``run_chunked``/``process_chunk``), which consumes
:class:`~repro.traces.table.FrameTable` chunks from the
``*_chunk_source`` builders and scatters whole observation batches
into the incremental histograms (DESIGN.md §8).
"""

from repro.streaming.builder import StreamingSignatureBuilder
from repro.streaming.engine import StreamEngine, StreamStats
from repro.streaming.events import (
    CollectingSink,
    DeviceEvicted,
    DeviceMatched,
    JsonLinesSink,
    PseudonymLinked,
    RogueApAlert,
    SpoofAlert,
    StreamEvent,
    WindowClosed,
)
from repro.streaming.apps import (
    LiveTracker,
    OnlineRogueApGuard,
    OnlineSpoofGuard,
    WindowAnalyzer,
)
from repro.core.detection import WindowCandidate as StreamCandidate
from repro.streaming.matcher import OnlineMatcher
from repro.streaming.sources import (
    pcap_chunk_source,
    pcap_source,
    replay_chunk_source,
    replay_source,
    simulation_chunk_source,
    simulation_source,
    skip_processed_chunks,
    skip_processed_frames,
    table_chunks,
)
from repro.streaming.windows import ClosedWindow, WindowConfig, WindowManager

__all__ = [
    "ClosedWindow",
    "CollectingSink",
    "DeviceEvicted",
    "DeviceMatched",
    "JsonLinesSink",
    "LiveTracker",
    "OnlineMatcher",
    "OnlineRogueApGuard",
    "OnlineSpoofGuard",
    "PseudonymLinked",
    "RogueApAlert",
    "SpoofAlert",
    "StreamCandidate",
    "StreamEngine",
    "StreamEvent",
    "StreamStats",
    "StreamingSignatureBuilder",
    "WindowAnalyzer",
    "WindowClosed",
    "WindowConfig",
    "WindowManager",
    "pcap_chunk_source",
    "pcap_source",
    "replay_chunk_source",
    "replay_source",
    "simulation_chunk_source",
    "simulation_source",
    "skip_processed_chunks",
    "skip_processed_frames",
    "table_chunks",
]
