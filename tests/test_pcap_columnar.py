"""The columnar pcap decoder equals the per-frame decoder.

:func:`~repro.radiotap.pcap.iter_trace_tables` decodes records
column-wise and hands anything its vectorised checks reject to the
scalar decoder.  These tests pin it to the reference built from
:func:`~repro.radiotap.pcap.iter_trace_pcap`: every chunk equals
``FrameTable.from_frames`` of the matching per-frame batch bit for bit
(columns, dtypes, intern tuples, backing frames), malformed captures
fail with the same exception after the same chunks, and
``skip_bad_fcs`` drops the same frames.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dot11.frames import Dot11Frame, FrameSubtype
from repro.dot11.mac import vendor_mac
from repro.radiotap.dot11_codec import encode_dot11, header_length
from repro.radiotap.pcap import (
    LINKTYPE_IEEE802_11_RADIOTAP,
    PCAP_MAGIC_US,
    iter_trace_pcap,
    iter_trace_tables,
    read_trace_table,
)
from repro.radiotap.writer import build_radiotap
from repro.traces.table import FrameTable

AP = vendor_mac("00:0f:b5", 1)
SENDERS = [vendor_mac("00:13:e8", i + 1) for i in range(4)]
RATES = [1.0, 2.0, 5.5, 11.0, 6.0, 12.0, 24.0, 54.0]
COLUMNS = ("timestamp_us", "size", "rate_mbps", "sender_idx", "ftype_idx")


def pcap_bytes(records, big_endian: bool = False) -> bytes:
    """A radiotap pcap of ``(ts_sec, ts_usec, data)`` records."""
    order = ">" if big_endian else "<"
    parts = [
        struct.pack(
            order + "IHHiIII", PCAP_MAGIC_US, 2, 4, 0, 0, 65535,
            LINKTYPE_IEEE802_11_RADIOTAP,
        )
    ]
    for ts_sec, ts_usec, data in records:
        parts.append(struct.pack(order + "IIII", ts_sec, ts_usec, len(data), len(data)))
        parts.append(data)
    return b"".join(parts)


def frame_bytes(subtype: FrameSubtype, sender, extra: int = 0, payload=b"") -> bytes:
    """On-air bytes of one frame, ``extra`` bytes above its minimum size."""
    addr2 = sender if subtype.has_transmitter_address else None
    probe = Dot11Frame(subtype=subtype, size=100, addr1=AP, addr2=addr2)
    frame = Dot11Frame(
        subtype=subtype,
        size=header_length(probe) + 4 + extra,
        addr1=AP,
        addr2=addr2,
        addr3=AP,
        payload=payload,
    )
    return encode_dot11(frame)


def reference_batches(data: bytes, chunk_frames: int, skip_bad_fcs: bool = False):
    """The per-frame decoder's frames, batched ``chunk_frames`` at a time."""
    batch = []
    for captured in iter_trace_pcap(data, skip_bad_fcs=skip_bad_fcs):
        batch.append(captured)
        if len(batch) == chunk_frames:
            yield batch
            batch = []
    if batch:
        yield batch


def assert_same_table(table: FrameTable, frames) -> None:
    expected = FrameTable.from_frames(frames)
    for column in COLUMNS:
        got, want = getattr(table, column), getattr(expected, column)
        assert got.dtype == want.dtype, column
        assert got.tobytes() == want.tobytes(), column
    assert table.senders == expected.senders
    assert table.ftype_keys == expected.ftype_keys
    assert table.to_frames() == frames
    if frames:
        assert table.frame_at(len(frames) - 1) == frames[-1]


def drain(iterable):
    """Items an iterator yields before it stops, plus what it raised."""
    items = []
    try:
        for item in iterable:
            items.append(item)
    except Exception as error:  # the outcome under test
        return items, (type(error), str(error))
    return items, None


@st.composite
def records(draw):
    """One record: any modelled subtype, any mix of radiotap fields."""
    subtype = draw(st.sampled_from(list(FrameSubtype)))
    data = frame_bytes(
        subtype,
        draw(st.sampled_from(SENDERS)),
        extra=draw(st.integers(0, 24)),
        payload=draw(st.binary(max_size=8)),
    )
    if draw(st.integers(0, 9)) == 0:  # corrupt the FCS
        data = data[:-1] + bytes([data[-1] ^ 0xFF])
    radiotap = build_radiotap(
        tsft_us=draw(st.none() | st.integers(0, 2**64 - 1)),
        rate_mbps=draw(st.none() | st.sampled_from(RATES)),
        channel=draw(st.none() | st.integers(1, 14)),
        antenna_signal_dbm=draw(st.none() | st.integers(-90, -20)),
    )
    return (
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(0, 999_999)),
        radiotap + data,
    )


class TestChunkEquivalence:
    @given(
        capture=st.lists(records(), min_size=1, max_size=24),
        big_endian=st.booleans(),
        chunk=st.sampled_from(["one", "small", "over"]),
        skip_bad_fcs=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_chunks_equal_per_frame_batches(
        self, capture, big_endian, chunk, skip_bad_fcs
    ):
        data = pcap_bytes(capture, big_endian)
        chunk_frames = {"one": 1, "small": 5, "over": len(capture) + 3}[chunk]
        tables = list(iter_trace_tables(data, chunk_frames, skip_bad_fcs))
        batches = list(reference_batches(data, chunk_frames, skip_bad_fcs))
        assert len(tables) == len(batches)
        for table, frames in zip(tables, batches):
            assert_same_table(table, frames)
        assert_same_table(
            read_trace_table(data, skip_bad_fcs),
            [frame for frames in batches for frame in frames],
        )

    def test_empty_capture(self):
        data = pcap_bytes([])
        assert list(iter_trace_tables(data, 4)) == []
        table = read_trace_table(data)
        assert len(table) == 0 and table.to_frames() == []

    def test_file_source(self, tmp_path):
        capture = [
            (7, 100 * i, build_radiotap(rate_mbps=24.0) + frame_bytes(subtype, SENDERS[0]))
            for i, subtype in enumerate(FrameSubtype)
        ]
        path = tmp_path / "all-subtypes.pcap"
        path.write_bytes(pcap_bytes(capture))
        tables = list(iter_trace_tables(path, chunk_frames=4))
        batches = list(reference_batches(path.read_bytes(), 4))
        assert [len(t) for t in tables] == [len(b) for b in batches]
        for table, frames in zip(tables, batches):
            assert_same_table(table, frames)

    def test_chunk_frames_must_be_positive(self):
        with pytest.raises(ValueError):
            next(iter_trace_tables(pcap_bytes([]), chunk_frames=0))


# -- malformed input ----------------------------------------------------------
def base_capture():
    """Ten valid records: QoS data with TSFT/Rate/Channel/signal, plus ACKs."""
    capture = []
    for i in range(10):
        subtype = FrameSubtype.ACK if i % 4 == 3 else FrameSubtype.QOS_DATA
        radiotap = build_radiotap(
            tsft_us=1_000 * (i + 1), rate_mbps=24.0, channel=6, antenna_signal_dbm=-40
        )
        capture.append((1, i, radiotap + frame_bytes(subtype, SENDERS[i % 3], extra=i)))
    return capture


#: Offsets inside ``build_radiotap(tsft, rate, channel, signal)``.
_LENGTH, _PRESENT, _RATE, _CHANNEL, _FRAME = 2, 4, 17, 18, 23


def patch(data: bytes, offset: int, raw: bytes) -> bytes:
    return data[:offset] + raw + data[offset + len(raw) :]


def bad_record(mutate):
    """Mutate record 5's data (in the second chunk of four)."""

    def build():
        capture = base_capture()
        ts_sec, ts_usec, data = capture[5]
        capture[5] = (ts_sec, ts_usec, mutate(data))
        return pcap_bytes(capture)

    return build


def bad_usec():
    capture = base_capture()
    capture[5] = (1, 1_000_000, capture[5][2])
    return pcap_bytes(capture)


def bad_radiotap_then_bad_usec():
    capture = base_capture()
    capture[4] = (1, 4, patch(capture[4][2], 0, b"\x01"))
    capture[6] = (1, 1_000_000, capture[6][2])
    return pcap_bytes(capture)


def present_with(bit: int):
    def mutate(data: bytes) -> bytes:
        (present,) = struct.unpack_from("<I", data, _PRESENT)
        return patch(data, _PRESENT, struct.pack("<I", present | 1 << bit))

    return mutate


MALFORMED = {
    "truncated record header": lambda: pcap_bytes(base_capture()) + b"\x00" * 5,
    "truncated record body": lambda: pcap_bytes(base_capture())[:-3],
    "bad microseconds": bad_usec,
    "radiotap error before bad microseconds": bad_radiotap_then_bad_usec,
    "radiotap version 1": bad_record(lambda d: patch(d, 0, b"\x01")),
    "radiotap length past record": bad_record(
        lambda d: patch(d, _LENGTH, struct.pack("<H", len(d) + 1))
    ),
    "radiotap length below 8": bad_record(
        lambda d: patch(d, _LENGTH, struct.pack("<H", 4))
    ),
    "radiotap shorter than its fields": bad_record(
        lambda d: patch(d, _LENGTH, struct.pack("<H", 20))
    ),
    "record shorter than radiotap": bad_record(lambda d: d[:6]),
    "unsupported present bit": bad_record(present_with(20)),
    "extended present word": bad_record(present_with(31)),
    "rate byte 0": bad_record(lambda d: patch(d, _RATE, b"\x00")),
    "5 GHz frequency": bad_record(
        lambda d: patch(d, _CHANNEL, struct.pack("<H", 5180))
    ),
    "protocol version 1": bad_record(
        lambda d: patch(d, _FRAME, bytes([d[_FRAME] | 0x1]))
    ),
    "unknown subtype": bad_record(lambda d: patch(d, _FRAME, bytes([1 << 2 | 7 << 4]))),
    "frame shorter than 10 bytes": bad_record(lambda d: d[: _FRAME + 8]),
}
for _subtype in FrameSubtype:
    # One byte short of the subtype's header plus FCS.
    MALFORMED[f"{_subtype.label} one byte short"] = bad_record(
        lambda d, subtype=_subtype: d[:_FRAME] + frame_bytes(subtype, SENDERS[0])[:-1]
    )


class TestMalformedParity:
    @pytest.mark.parametrize("name", list(MALFORMED))
    @pytest.mark.parametrize("skip_bad_fcs", [False, True])
    def test_same_outcome_as_per_frame(self, name, skip_bad_fcs):
        data = MALFORMED[name]()
        tables, error = drain(iter_trace_tables(data, 4, skip_bad_fcs))
        batches, expected = drain(reference_batches(data, 4, skip_bad_fcs))
        assert error == expected
        assert len(tables) == len(batches)
        for table, frames in zip(tables, batches):
            assert_same_table(table, frames)
        _, whole_error = drain(read_trace_table(data, skip_bad_fcs) for _ in [0])
        assert whole_error == expected

    def test_malformed_cases_really_fail(self):
        failing = [
            name for name, build in MALFORMED.items()
            if drain(iter_trace_pcap(build()))[1] is not None
        ]
        # The EXT bit makes the parser read TSFT bytes as a second
        # present word; that word is non-zero here, so it fails too.
        assert failing == list(MALFORMED)


# -- skip_bad_fcs ---------------------------------------------------------------
class TestSkipBadFcs:
    @pytest.fixture()
    def corrupted(self):
        capture = base_capture()[:9]
        ts_sec, ts_usec, data = capture[2]
        capture[2] = (ts_sec, ts_usec, data[:-1] + bytes([data[-1] ^ 0xFF]))
        return pcap_bytes(capture)

    def test_per_frame_drops_only_with_flag(self, corrupted):
        kept = list(iter_trace_pcap(corrupted))
        dropped = list(iter_trace_pcap(corrupted, skip_bad_fcs=True))
        assert len(kept) == 9 and len(dropped) == 8
        assert dropped == kept[:2] + kept[3:]

    @pytest.mark.parametrize("skip_bad_fcs", [False, True])
    def test_chunks_stay_full_size(self, corrupted, skip_bad_fcs):
        tables = list(iter_trace_tables(corrupted, 4, skip_bad_fcs))
        assert [len(t) for t in tables] == ([4, 4] if skip_bad_fcs else [4, 4, 1])
        batches = list(reference_batches(corrupted, 4, skip_bad_fcs))
        for table, frames in zip(tables, batches):
            assert_same_table(table, frames)
