"""Two-dimensional (joint) histogram signatures — §IV-A extension.

The paper notes that plain histograms "may eliminate characteristic
patterns" and name-checks n-dimensional histograms as a candidate
refinement.  This module implements the 2-D case: a
:class:`JointParameter` measures a *pair* of the five base parameters
per frame and bins the pair into a flattened 2-D histogram, which then
flows through the unchanged signature/matching machinery.

Example: the (inter-arrival × frame size) joint distribution separates
"short gap because of a small frame" from "short gap because of an
aggressive backoff", which the marginals confuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.histogram import BinSpec
from repro.core.parameters import NetworkParameter, parameter_by_name
from repro.dot11.capture import CapturedFrame
from repro.traces.table import FrameTable, TableObservations


@dataclass(frozen=True)
class JointBins(BinSpec):
    """Cartesian product of two bin specs, flattened row-major.

    The value passed to :meth:`index` is an encoded pair produced by
    :meth:`encode`; the flattening keeps the downstream histogram and
    similarity code unchanged (they only see one long vector).
    """

    x_bins: BinSpec
    y_bins: BinSpec

    bin_count: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.y_bins.bin_count > self._BASE:
            raise ValueError(
                f"y bin count {self.y_bins.bin_count} exceeds the joint "
                f"encoding base {self._BASE}"
            )
        object.__setattr__(self, "bin_count", self.x_bins.bin_count * self.y_bins.bin_count)

    #: Encoding base: ``y_bins`` may have at most this many bins, so
    #: ``ix * _BASE + iy`` never aliases two pairs.
    _BASE = 1 << 20

    def encode(self, x: float, y: float) -> float | None:
        """Encode a raw value pair into a joint scalar (None = drop)."""
        ix = self.x_bins.index(x)
        iy = self.y_bins.index(y)
        if ix is None or iy is None:
            return None
        return float(ix * self._BASE + iy)

    def index(self, value: float) -> int | None:
        encoded = int(value)
        ix, iy = divmod(encoded, self._BASE)
        if not (0 <= ix < self.x_bins.bin_count and 0 <= iy < self.y_bins.bin_count):
            return None
        return ix * self.y_bins.bin_count + iy

    def bin_label(self, index: int) -> str:
        ix, iy = divmod(index, self.y_bins.bin_count)
        return f"{self.x_bins.bin_label(ix)}×{self.y_bins.bin_label(iy)}"


class JointParameter(NetworkParameter):
    """A pair of base parameters measured jointly per frame.

    ``x``/``y`` are base-parameter names (``rate``, ``size``,
    ``txtime``, ``interarrival``, ``access``).  Bin specs default to
    the base parameters' own defaults.  A frame yields a joint
    observation when both base parameters observe it and both values
    land in a bin.
    """

    def __init__(
        self,
        x: str,
        y: str,
        x_bins: BinSpec | None = None,
        y_bins: BinSpec | None = None,
    ) -> None:
        self._x = parameter_by_name(x)
        self._y = parameter_by_name(y)
        if x == y:
            raise ValueError("joint parameter needs two distinct base parameters")
        self.name = f"joint:{x}x{y}"
        self.label = f"Joint {self._x.label} × {self._y.label}"
        # A joint observation reaches back as far as either base one.
        self.table_memory = max(self._x.table_memory, self._y.table_memory)
        self._bins = JointBins(
            x_bins=x_bins if x_bins is not None else self._x.default_bins(),
            y_bins=y_bins if y_bins is not None else self._y.default_bins(),
        )

    def default_bins(self) -> BinSpec:
        return self._bins

    def value(
        self, frame: CapturedFrame, previous_t: float | None
    ) -> float | None:
        x_value = self._x.value(frame, previous_t)
        y_value = self._y.value(frame, previous_t)
        if x_value is None or y_value is None:
            return None
        return self._bins.encode(x_value, y_value)

    def observe_table(
        self, table: FrameTable, previous_t: float | None = None
    ) -> TableObservations:
        x = self._x.observe_table(table, previous_t)
        y = self._y.observe_table(table, previous_t)
        positions, in_x, in_y = np.intersect1d(
            x.positions, y.positions, assume_unique=True, return_indices=True
        )
        ix = self._bins.x_bins.index_many(x.values[in_x])
        iy = self._bins.y_bins.index_many(y.values[in_y])
        kept = (ix >= 0) & (iy >= 0)
        positions = positions[kept]
        return TableObservations(
            sender_idx=table.sender_idx[positions],
            ftype_idx=table.ftype_idx[positions],
            values=(ix[kept] * JointBins._BASE + iy[kept]).astype(np.float64),
            positions=positions,
        )
