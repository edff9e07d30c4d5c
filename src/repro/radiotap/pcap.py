"""libpcap file reader/writer for radiotap-encapsulated 802.11 captures.

Implements the classic pcap container (24-byte global header, 16-byte
per-record headers) with microsecond timestamps and
``LINKTYPE_IEEE802_11_RADIOTAP`` (127) — the format monitor-mode
captures such as the Sigcomm'08 CRAWDAD trace ship in.

Integration helpers bridge pcap files and the in-memory trace model:
:func:`write_trace_pcap` persists a list of
:class:`~repro.dot11.capture.CapturedFrame`, :func:`read_trace_pcap`
re-materialises them, and :func:`iter_trace_pcap` streams them one at
a time in O(1) memory (the per-frame reference decoder), so every
fingerprinting experiment can run off a standard on-disk capture.
:func:`iter_trace_tables` and :func:`read_trace_table` decode the same
records column-wise into :class:`~repro.traces.table.FrameTable`
chunks without building per-frame objects; any record the vectorised
checks reject is handed to the scalar decoder, so both paths accept,
reject and decode every record identically.
"""

from __future__ import annotations

import io
import struct
import sys
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple

import numpy as np

from repro.dot11.capture import CapturedFrame
from repro.dot11.frames import Dot11Frame, FrameSubtype
from repro.dot11.mac import MacAddress
from repro.radiotap.dot11_codec import decode_dot11, encode_dot11, header_length
from repro.radiotap.fields import FIELD_SPECS, RadiotapField, align_offset
from repro.radiotap.parser import parse_radiotap
from repro.radiotap.writer import build_radiotap

PCAP_MAGIC_US = 0xA1B2C3D4
PCAP_MAGIC_US_SWAPPED = 0xD4C3B2A1
LINKTYPE_IEEE802_11_RADIOTAP = 127

_GLOBAL = struct.Struct("<IHHiIII")
_GLOBAL_BE = struct.Struct(">IHHiIII")
_RECORD = struct.Struct("<IIII")
_RECORD_BE = struct.Struct(">IIII")


class PcapError(ValueError):
    """Raised on malformed pcap containers."""


@dataclass(slots=True)
class PcapRecord:
    """One raw pcap record: timestamp plus captured bytes."""

    ts_sec: int
    ts_usec: int
    orig_len: int
    data: bytes

    @property
    def timestamp_us(self) -> float:
        """Timestamp in microseconds since the epoch of the capture."""
        return self.ts_sec * 1e6 + self.ts_usec


class PcapWriter:
    """Streaming pcap writer.

    Usable as a context manager::

        with PcapWriter(path) as writer:
            writer.write_record(timestamp_us, frame_bytes)
    """

    def __init__(
        self,
        destination: str | Path | BinaryIO,
        linktype: int = LINKTYPE_IEEE802_11_RADIOTAP,
        snaplen: int = 65535,
    ) -> None:
        if isinstance(destination, (str, Path)):
            self._stream: BinaryIO = open(destination, "wb")
            self._owns_stream = True
        else:
            self._stream = destination
            self._owns_stream = False
        self._snaplen = snaplen
        self._stream.write(
            _GLOBAL.pack(PCAP_MAGIC_US, 2, 4, 0, 0, snaplen, linktype)
        )

    def write_record(self, timestamp_us: float, data: bytes) -> None:
        """Append one record; truncates at the snap length."""
        if timestamp_us < 0:
            raise PcapError(f"negative timestamp: {timestamp_us}")
        captured = data[: self._snaplen]
        ts_sec, ts_usec = divmod(round(timestamp_us), 1_000_000)
        self._stream.write(_RECORD.pack(ts_sec, ts_usec, len(captured), len(data)))
        self._stream.write(captured)

    def close(self) -> None:
        """Flush and close (only closes streams this writer opened)."""
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class PcapReader:
    """Streaming pcap reader supporting both byte orders."""

    def __init__(self, source: str | Path | BinaryIO | bytes) -> None:
        if isinstance(source, bytes):
            self._stream: BinaryIO = io.BytesIO(source)
            self._owns_stream = True
        elif isinstance(source, (str, Path)):
            self._stream = open(source, "rb")
            self._owns_stream = True
        else:
            self._stream = source
            self._owns_stream = False
        header = self._stream.read(_GLOBAL.size)
        if len(header) != _GLOBAL.size:
            raise PcapError("truncated pcap global header")
        magic = struct.unpack_from("<I", header)[0]
        if magic == PCAP_MAGIC_US:
            self._global_struct, self._record_struct = _GLOBAL, _RECORD
        elif magic == PCAP_MAGIC_US_SWAPPED:
            self._global_struct, self._record_struct = _GLOBAL_BE, _RECORD_BE
        else:
            raise PcapError(f"bad pcap magic: {magic:#010x}")
        (
            _magic,
            major,
            minor,
            _thiszone,
            _sigfigs,
            self.snaplen,
            self.linktype,
        ) = self._global_struct.unpack(header)
        if (major, minor) != (2, 4):
            raise PcapError(f"unsupported pcap version: {major}.{minor}")

    def __iter__(self) -> Iterator[PcapRecord]:
        return self

    def __next__(self) -> PcapRecord:
        header = self._stream.read(_RECORD.size)
        if not header:
            raise StopIteration
        if len(header) != _RECORD.size:
            raise PcapError("truncated pcap record header")
        ts_sec, ts_usec, incl_len, orig_len = self._record_struct.unpack(header)
        if ts_usec >= 1_000_000:
            raise PcapError(f"invalid microsecond field: {ts_usec}")
        data = self._stream.read(incl_len)
        if len(data) != incl_len:
            raise PcapError("truncated pcap record body")
        return PcapRecord(ts_sec=ts_sec, ts_usec=ts_usec, orig_len=orig_len, data=data)

    def close(self) -> None:
        """Close the underlying stream if this reader opened it."""
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_trace_pcap(
    destination: str | Path | BinaryIO, frames: Iterable[CapturedFrame]
) -> int:
    """Persist captured frames as a radiotap pcap; returns the count.

    Each frame is serialised as radiotap (TSFT/Flags/Rate/Channel/
    signal) followed by the full 802.11 bytes with FCS.
    """
    count = 0
    with PcapWriter(destination) as writer:
        for captured in frames:
            radiotap = build_radiotap(
                tsft_us=round(captured.timestamp_us),
                rate_mbps=captured.rate_mbps,
                channel=captured.channel,
                antenna_signal_dbm=round(captured.signal_dbm),
            )
            writer.write_record(
                captured.timestamp_us, radiotap + encode_dot11(captured.frame)
            )
            count += 1
    return count


def _open_radiotap(source: str | Path | BinaryIO | bytes) -> PcapReader:
    """Open a pcap and check that it carries radiotap frames."""
    reader = PcapReader(source)
    if reader.linktype != LINKTYPE_IEEE802_11_RADIOTAP:
        reader.close()
        raise PcapError(f"expected radiotap linktype 127, got {reader.linktype}")
    return reader


def _decode_record(record: PcapRecord, skip_bad_fcs: bool) -> CapturedFrame | None:
    """Decode one radiotap record (``None`` if dropped for its FCS).

    The scalar reference decoder: timestamps prefer the radiotap TSFT
    and fall back to the pcap record timestamp; a missing Rate reads as
    1 Mbps and a missing Channel as channel 6.
    """
    header = parse_radiotap(record.data)
    decoded = decode_dot11(record.data[header.length :], has_fcs=True)
    if skip_bad_fcs and not decoded.fcs_ok:
        return None
    timestamp_us = (
        float(header.tsft_us) if header.tsft_us is not None else record.timestamp_us
    )
    return CapturedFrame(
        timestamp_us=timestamp_us,
        frame=decoded.frame,
        rate_mbps=header.rate_mbps if header.rate_mbps else 1.0,
        signal_dbm=float(
            header.antenna_signal_dbm
            if header.antenna_signal_dbm is not None
            else -50
        ),
        channel=header.channel or 6,
    )


def iter_trace_pcap(
    source: str | Path | BinaryIO | bytes, skip_bad_fcs: bool = False
) -> Iterator[CapturedFrame]:
    """Stream a radiotap pcap one frame at a time, in O(1) memory.

    The streaming engine's pcap source: records are decoded lazily as
    the iterator advances, so captures of unbounded length never
    materialise as a list.  Timestamps prefer the radiotap TSFT (µs
    precision inside the capture) and fall back to the pcap record
    timestamp.  Frames whose FCS fails verification are kept unless
    ``skip_bad_fcs`` is set — mirroring the choice a real monitoring
    deployment must make.
    """
    with _open_radiotap(source) as reader:
        for record in reader:
            captured = _decode_record(record, skip_bad_fcs)
            if captured is not None:
                yield captured


def read_trace_pcap(
    source: str | Path | BinaryIO | bytes, skip_bad_fcs: bool = False
) -> list[CapturedFrame]:
    """Load a radiotap pcap fully into memory (batch pipeline)."""
    return list(iter_trace_pcap(source, skip_bad_fcs=skip_bad_fcs))


# -- columnar decode ----------------------------------------------------------
#: Bytes pulled from the capture per refill of the record-block reader.
_BLOCK_BYTES = 1 << 20

#: Every modelled subtype; a row's subtype code indexes this tuple.
_SUBTYPES = tuple(FrameSubtype)
#: Subtype code by frame-control bits 2-7 (type | subtype << 2); -1 for
#: pairs the codec rejects.
_CODE_BY_FC = np.full(64, -1, dtype=np.int64)
_CODE_BY_FC[[st.ftype.value | st.subtype_code << 2 for st in _SUBTYPES]] = np.arange(
    len(_SUBTYPES)
)
#: Shortest frame :func:`decode_dot11` accepts, by subtype code: the
#: MAC header plus the 4-byte FCS.
_MIN_BYTES = np.array(
    [header_length(Dot11Frame(subtype=st, size=100)) + 4 for st in _SUBTYPES]
)
_HAS_SENDER = np.array([st.has_transmitter_address for st in _SUBTYPES])


class _RecordBlocks:
    """Reads a pcap's records as contiguous byte blocks.

    :meth:`read` returns the bytes of up to ``count`` consecutive
    records (record headers included) with each record's start offset,
    after the same container checks as :meth:`PcapReader.__next__`.  A
    container error ends the block before the offending record and is
    returned rather than raised, so the caller decodes the records
    before it first and errors surface in capture order.
    """

    def __init__(self, reader: PcapReader) -> None:
        self._stream = reader._stream
        self.record = reader._record_struct
        self._tail = b""

    def read(self, count: int) -> tuple[bytes, list[int], PcapError | None]:
        buffer = bytearray(self._tail)
        unpack = self.record.unpack_from
        starts: list[int] = []
        error: PcapError | None = None
        pos = 0
        while len(starts) < count:
            if pos + _RECORD.size > len(buffer) and not self._fill(
                buffer, pos + _RECORD.size
            ):
                if pos < len(buffer):
                    error = PcapError("truncated pcap record header")
                break
            _ts_sec, ts_usec, incl_len, _orig_len = unpack(buffer, pos)
            if ts_usec >= 1_000_000:
                error = PcapError(f"invalid microsecond field: {ts_usec}")
                break
            end = pos + _RECORD.size + incl_len
            if end > len(buffer) and not self._fill(buffer, end):
                error = PcapError("truncated pcap record body")
                break
            starts.append(pos)
            pos = end
        self._tail = bytes(buffer[pos:])
        return bytes(buffer[:pos]), starts, error

    def _fill(self, buffer: bytearray, size: int) -> bool:
        """Grow ``buffer`` to at least ``size`` bytes; False at end of file."""
        while len(buffer) < size:
            more = self._stream.read(max(_BLOCK_BYTES, size - len(buffer)))
            if not more:
                return False
            buffer += more
        return True


def _record_at(block: bytes, start: int, record: struct.Struct) -> PcapRecord:
    """The pcap record whose header starts at ``block[start]``."""
    ts_sec, ts_usec, incl_len, orig_len = record.unpack_from(block, start)
    body = start + _RECORD.size
    return PcapRecord(ts_sec, ts_usec, orig_len, block[body : body + incl_len])


class _LazyFrames(Sequence):
    """A decoded chunk's backing frames, decoded on demand.

    Row ``i`` is decoded from the chunk's retained record bytes by the
    scalar decoder, so it equals the frame :func:`iter_trace_pcap`
    yields for that record; nothing is cached.
    """

    __slots__ = ("_block", "_starts", "_record")

    def __init__(self, block: bytes, starts: np.ndarray, record: struct.Struct) -> None:
        self._block = block
        self._starts = starts
        self._record = record

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[row] for row in range(*index.indices(len(self)))]
        start = int(self._starts[index])
        return _decode_record(_record_at(self._block, start, self._record), False)


class _Rows(NamedTuple):
    """Decoded columns of one record block (kept rows only)."""

    block: bytes
    starts: np.ndarray
    timestamp_us: np.ndarray
    size: np.ndarray
    rate_mbps: np.ndarray
    subtype: np.ndarray
    sender: np.ndarray


def _gather(data: np.ndarray, offsets: np.ndarray, dtype: str) -> np.ndarray:
    """One fixed-width field at each (unaligned) byte offset."""
    width = np.dtype(dtype).itemsize
    return data[offsets[:, None] + np.arange(width)].view(dtype)[:, 0]


def _layout(present: int) -> tuple[dict[RadiotapField, int], int] | None:
    """Field offsets and header end for a single ``present`` word.

    ``None`` when the word has a bit outside :data:`FIELD_SPECS`.
    """
    offsets: dict[RadiotapField, int] = {}
    offset = 8
    for bit in range(31):
        if present & (1 << bit):
            spec = FIELD_SPECS.get(bit)
            if spec is None:
                return None
            offset = align_offset(offset, spec.align)
            offsets[spec.field] = offset
            offset += spec.size
    return offsets, offset


def _is_channel_frequency(freq: np.ndarray) -> np.ndarray:
    """Vectorised :func:`channel_from_frequency` validity test."""
    channel, remainder = np.divmod(freq - 2407, 5)
    return (freq == 2484) | ((remainder == 0) & (channel >= 1) & (channel <= 13))


def _decode_block(
    block: bytes, starts: list[int], record: struct.Struct, skip_bad_fcs: bool
) -> _Rows:
    """Decode a record block into columns in capture order.

    Rows are grouped by radiotap ``present`` word, and each group's
    fields are gathered at offsets computed once from
    :data:`FIELD_SPECS`.  A row that fails any vectorised validity
    check goes through the scalar :func:`_decode_record`, so malformed
    input raises exactly what :func:`iter_trace_pcap` raises, at the
    same record.  The CRC is only computed when ``skip_bad_fcs`` needs
    it.
    """
    data = np.frombuffer(block, dtype=np.uint8)
    start = np.asarray(starts, dtype=np.int64)
    count = len(start)
    order = record.format[0]
    ts_sec = _gather(data, start, order + "u4")
    ts_usec = _gather(data, start + 4, order + "u4")
    incl = _gather(data, start + 8, order + "u4").astype(np.int64)
    body = start + _RECORD.size

    # Radiotap fixed header: version 0, sane length, one present word.
    ok = incl >= 8
    head = np.where(ok, body, 0)
    length = _gather(data, head + 2, "<u2").astype(np.int64)
    present = _gather(data, head + 4, "<u4")
    ok &= (
        (data[head] == 0)
        & (length >= 8)
        & (length <= incl)
        & (present >> RadiotapField.EXT == 0)
    )
    timestamp_us = ts_sec * 1e6 + ts_usec
    rate_mbps = np.ones(count)
    for word in np.unique(present[ok]).tolist():
        group = ok & (present == word)
        layout = _layout(word)
        if layout is None:
            ok &= ~group
            continue
        offsets, end = layout
        ok &= ~group | (length >= end)
        rows = np.flatnonzero(group & ok)
        base = body[rows]
        if RadiotapField.TSFT in offsets:
            tsft = _gather(data, base + offsets[RadiotapField.TSFT], "<u8")
            timestamp_us[rows] = tsft.astype(np.float64)
        if RadiotapField.RATE in offsets:
            units = data[base + offsets[RadiotapField.RATE]]
            ok[rows[units == 0]] = False
            rate_mbps[rows] = units / 2.0
        if RadiotapField.CHANNEL in offsets:
            freq = _gather(data, base + offsets[RadiotapField.CHANNEL], "<u2")
            ok[rows[~_is_channel_frequency(freq.astype(np.int64))]] = False

    # 802.11: protocol version 0, a modelled subtype, long enough for
    # its header plus FCS.
    frame = body + length
    size = incl - length
    ok &= size >= 10
    control = data[np.where(ok, frame, 0)]
    subtype = _CODE_BY_FC[control >> 2]
    ok &= ((control & 0x3) == 0) & (subtype >= 0)
    ok &= size >= _MIN_BYTES[subtype]
    sender = np.full(count, -1, dtype=np.int64)
    rows = np.flatnonzero(ok & _HAS_SENDER[subtype])
    addr2 = np.zeros((len(rows), 8), dtype=np.uint8)
    addr2[:, 2:] = data[frame[rows, None] + np.arange(10, 16)]
    sender[rows] = addr2.view(">u8")[:, 0]

    keep = np.ones(count, dtype=bool)
    if skip_bad_fcs:
        view = memoryview(block)
        fcs_at = frame + size - 4
        for row in np.flatnonzero(ok).tolist():
            lo, hi = int(frame[row]), int(fcs_at[row])
            stored = int.from_bytes(view[hi : hi + 4], "little")
            keep[row] = zlib.crc32(view[lo:hi]) == stored
    for row in np.flatnonzero(~ok).tolist():
        captured = _decode_record(_record_at(block, starts[row], record), skip_bad_fcs)
        if captured is None:
            keep[row] = False
            continue
        timestamp_us[row] = captured.timestamp_us
        size[row] = captured.frame.size
        rate_mbps[row] = captured.rate_mbps
        subtype[row] = _SUBTYPES.index(captured.frame.subtype)
        sender[row] = -1 if captured.sender is None else captured.sender.value
    return _Rows(
        block=block,
        starts=start[keep],
        timestamp_us=timestamp_us[keep],
        size=size[keep].astype(np.float64),
        rate_mbps=rate_mbps[keep],
        subtype=subtype[keep],
        sender=sender[keep],
    )


def _intern(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-appearance codes of ``values`` (-1 stays -1) and the distinct
    values in code order."""
    codes = np.full(len(values), -1, dtype=np.int64)
    known = values >= 0
    distinct, first, inverse = np.unique(
        values[known], return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    codes[known] = rank[inverse]
    return codes, distinct[order]


def _table(pieces: list[_Rows], record: struct.Struct):
    """Intern decoded blocks into one :class:`FrameTable` chunk."""
    from repro.traces.table import FrameTable

    if len(pieces) == 1:
        rows = pieces[0]
    else:  # a chunk refilled after FCS drops
        shifts = np.cumsum([0] + [len(piece.block) for piece in pieces[:-1]])
        rows = _Rows(
            b"".join(piece.block for piece in pieces),
            np.concatenate([p.starts + shift for p, shift in zip(pieces, shifts)]),
            *(np.concatenate(column) for column in zip(*(p[2:] for p in pieces))),
        )
    sender_idx, senders = _intern(rows.sender)
    ftype_idx, subtypes = _intern(rows.subtype)
    return FrameTable(
        timestamp_us=rows.timestamp_us,
        size=rows.size,
        rate_mbps=rows.rate_mbps,
        sender_idx=sender_idx,
        ftype_idx=ftype_idx,
        senders=tuple(MacAddress(value) for value in senders.tolist()),
        ftype_keys=tuple(_SUBTYPES[code].label for code in subtypes.tolist()),
        frames=_LazyFrames(rows.block, rows.starts, record),
    )


def iter_trace_tables(
    source: str | Path | BinaryIO | bytes,
    chunk_frames: int = 8192,
    skip_bad_fcs: bool = False,
):
    """Stream a radiotap pcap as columnar chunks of ``chunk_frames``.

    The chunked streaming engine's pcap source.  Each chunk's records
    are read into one buffer and decoded column-wise
    (:func:`_decode_block`) straight into an independent
    :class:`~repro.traces.table.FrameTable`, so memory stays bounded by
    the chunk size and no per-frame objects are built.  Chunks dropped
    short by ``skip_bad_fcs`` are refilled, so every chunk but the last
    has exactly ``chunk_frames`` rows.  Each chunk equals
    ``FrameTable.from_frames`` of the matching :func:`iter_trace_pcap`
    frames, and its backing frames decode lazily from the retained
    bytes.
    """
    if chunk_frames < 1:
        raise ValueError(f"chunk_frames must be >= 1: {chunk_frames}")
    with _open_radiotap(source) as reader:
        blocks = _RecordBlocks(reader)
        at_end = False
        while not at_end:
            pieces: list[_Rows] = []
            filled = 0
            while filled < chunk_frames and not at_end:
                wanted = chunk_frames - filled
                block, starts, error = blocks.read(wanted)
                if starts:
                    pieces.append(
                        _decode_block(block, starts, blocks.record, skip_bad_fcs)
                    )
                    filled += len(pieces[-1].starts)
                if error is not None:
                    raise error
                at_end = len(starts) < wanted
            if filled:
                yield _table(pieces, blocks.record)


def read_trace_table(source: str | Path | BinaryIO | bytes, skip_bad_fcs: bool = False):
    """Load a radiotap pcap straight into a columnar
    :class:`~repro.traces.table.FrameTable`.

    The whole capture is decoded as one :func:`iter_trace_tables`
    chunk — the columnar analysis backbone never sees a :class:`Trace`
    intermediate, and the backing frames decode lazily for lossless
    ``to_frames`` round-trips.
    """
    from repro.traces.table import FrameTable

    tables = list(
        iter_trace_tables(source, chunk_frames=sys.maxsize, skip_bad_fcs=skip_bad_fcs)
    )
    return tables[0] if tables else FrameTable.from_frames([])
