"""Simulated 802.11 stations.

A :class:`Station` owns a transmit queue, the DCF backoff state, its
profile's timing personality, a rate controller and a mobility process.
The medium (:mod:`repro.simulator.medium`) arbitrates *when* a station
transmits; the station decides *what* goes on air — RTS/CTS usage,
rates, frame construction — and performs the channel/monitor draws for
its exchange.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from repro.dot11.capture import CapturedFrame
from repro.dot11.frames import (
    ACK_SIZE,
    CTS_SIZE,
    RTS_SIZE,
    Dot11Frame,
    FrameSubtype,
    FrameType,
    ack_frame,
    cts_frame,
    rts_frame,
)
from repro.dot11.mac import BROADCAST, MacAddress
from repro.dot11.phy import ALL_RATES, DSSS_RATES, Phy
from repro.dot11.timing import MacTiming
from repro.simulator.channel import ChannelModel, Mobility, Position
from repro.simulator.profiles import (
    BackoffStyle,
    DeviceProfile,
    RateAlgorithm,
    draw_backoff,
)
from repro.simulator.ratecontrol import (
    AarfRateControl,
    ArfRateControl,
    FixedRateControl,
    JitteryRateControl,
    RateControl,
    SnrRateControl,
)
from repro.simulator.traffic import (
    DST_AP,
    DST_BROADCAST,
    DST_MULTICAST,
    DST_PEER,
    AppFrame,
)

#: A multicast group address (01:00:5e…) used for service frames.
MULTICAST_GROUP = MacAddress.parse("01:00:5e:00:00:fb")

#: Subtype classes the per-frame path branches on, as set lookups
#: rather than ``subtype.ftype.value`` enum walks.
_MANAGEMENT_SUBTYPES = frozenset(
    subtype for subtype in FrameSubtype if subtype.ftype is FrameType.MANAGEMENT
)
_DATA_SUBTYPES = frozenset(
    subtype for subtype in FrameSubtype if subtype.ftype is FrameType.DATA
)
#: Subtypes that carry an encryptable payload.
_PROTECTABLE_SUBTYPES = frozenset({FrameSubtype.DATA, FrameSubtype.QOS_DATA})
#: Null-function frames carry no payload, hence nothing to protect.
_NULL_SUBTYPES = frozenset({FrameSubtype.NULL_FUNCTION, FrameSubtype.QOS_NULL})
#: Destination classes sent at a basic rate without acknowledgement.
_GROUP_DESTINATIONS = frozenset({DST_BROADCAST, DST_MULTICAST})


def build_rate_control(
    profile: DeviceProfile, phy: Phy, channel: ChannelModel, rng: random.Random
) -> RateControl:
    """Instantiate the rate controller a profile declares."""
    algorithm = profile.rate_algorithm
    if algorithm is RateAlgorithm.FIXED_54:
        return FixedRateControl(54.0 if not profile.b_only else 11.0)
    if algorithm is RateAlgorithm.FIXED_11:
        return FixedRateControl(11.0)
    if algorithm is RateAlgorithm.ARF:
        return ArfRateControl(phy, initial_rate=phy.supported_rates[-1])
    if algorithm is RateAlgorithm.AARF:
        return AarfRateControl(phy, initial_rate=phy.supported_rates[-1])
    if algorithm is RateAlgorithm.SNR:
        return SnrRateControl(phy, channel)
    if algorithm is RateAlgorithm.SNR_JITTERY:
        return JitteryRateControl(SnrRateControl(phy, channel), phy, rng)
    raise AssertionError(f"unhandled rate algorithm: {algorithm}")


@dataclass(slots=True)
class ExchangeOutcome:
    """Result of one medium access: captures plus bookkeeping.

    ``aired`` lists the primary frames that actually went on air
    (independent of whether the monitor captured them) so reactive
    behaviours — an AP answering a probe request — can be wired up.
    """

    captures: list[CapturedFrame]
    busy_until_us: float
    dequeued: bool
    aired: list[Dot11Frame] = field(default_factory=list)


@dataclass(slots=True)
class StationStats:
    """Per-station transmission counters (useful in tests/benchmarks)."""

    enqueued: int = 0
    transmitted: int = 0
    retries: int = 0
    dropped: int = 0
    collisions: int = 0


class Station:
    """One simulated 802.11 client station (or AP, see subclass)."""

    def __init__(
        self,
        mac: MacAddress,
        profile: DeviceProfile,
        channel_model: ChannelModel,
        network_timing: MacTiming,
        rng: random.Random,
        mobility: Mobility | None = None,
        bssid: MacAddress | None = None,
        encrypted: bool = False,
        channel_number: int = 6,
    ) -> None:
        self.mac = mac
        self.profile = profile
        self.phy = profile.phy()
        self.channel_model = channel_model
        self.rng = rng
        self.mobility = mobility if mobility is not None else Mobility()
        self.bssid = bssid if bssid is not None else BROADCAST
        self.encrypted = encrypted
        self.channel_number = channel_number
        self.queue: deque[AppFrame] = deque()
        self.stats = StationStats()
        # DCF state.
        self.timing = MacTiming(
            slot_us=network_timing.slot_us,
            sifs_us=network_timing.sifs_us,
            cw_min=profile.cw_min,
            cw_max=network_timing.cw_max,
        )
        self.backoff_counter: int | None = None
        self.pending_difs_us: float = 0.0
        self.retry_count = 0
        # Per-unit manufacturing spread: two cards of the same model
        # still differ slightly in radio turnaround calibration.
        self.unit_difs_offset_us = rng.gauss(0.0, 0.7)
        self._seq = rng.randint(0, 4000)
        self.rate_control = build_rate_control(profile, self.phy, channel_model, rng)
        # Positions the exchange draws need; set by the scenario.  For
        # clients the peer is the AP; for an AP it is a nominal client.
        self.peer_position = Position(0.0, 0.0)
        self.monitor_position = Position(5.0, 5.0)
        # Responder SIFS personality of the AP answering this station is
        # configured by the scenario (affects CTS/ACK gaps we observe).
        self.responder_sifs_offset_us = 0.0
        # Per-station tables: the basic rate for management and group
        # frames, and per data rate the control-response rate with the
        # CTS, ACK and RTS airtimes at that rate.
        self._basic_rate = 1.0 if 1.0 in self.phy.supported_rates else 6.0
        self._control: dict[float, tuple[float, float, float, float]] = {}
        for rate in ALL_RATES:
            ctl_rate = self.control_response_rate(rate)
            self._control[rate] = (
                ctl_rate,
                self.phy.airtime_us(CTS_SIZE, ctl_rate),
                self.phy.airtime_us(ACK_SIZE, ctl_rate),
                self.phy.airtime_us(RTS_SIZE, ctl_rate),
            )
        # Link cache (see ``_track_links``), keyed on the identity of
        # the station's, the peer's and the monitor's ``Position``; the
        # distances are those of the latest exchange.
        self._position_key: Position | None = None
        self._peer_key: Position | None = None
        self._monitor_key: Position | None = None
        self.peer_distance_m = 0.0
        self.monitor_distance_m = 0.0
        self._peer_loss_db = 0.0
        self._monitor_link = (0.0, 0.0)
        self._responder_link = (0.0, 0.0)

    # ------------------------------------------------------------------
    # Queue / contention state
    # ------------------------------------------------------------------
    @property
    def wants_medium(self) -> bool:
        """Whether the station is contending for the channel."""
        return bool(self.queue)

    def enqueue(self, app_frame: AppFrame) -> bool:
        """Queue an application frame; returns True if contention must
        (re)start — i.e. the queue was previously empty."""
        self.queue.append(app_frame)
        self.stats.enqueued += 1
        if self.backoff_counter is None:
            self.draw_backoff()
            return True
        return False

    def draw_backoff(self) -> None:
        """Draw a fresh backoff and per-attempt DIFS timing."""
        cw = self.timing.backoff_window(self.retry_count)
        self.backoff_counter = draw_backoff(self.profile.backoff_style, cw, self.rng)
        self.pending_difs_us = (
            self.timing.difs_us
            + self.profile.difs_offset_us
            + self.unit_difs_offset_us
            + self.rng.gauss(0.0, self.profile.timing_jitter_us)
        )

    def access_time(self, contention_start_us: float) -> float:
        """Earliest transmit time in the current contention round."""
        if self.backoff_counter is None:
            raise RuntimeError(f"{self.mac} has no backoff drawn")
        offset = self.pending_difs_us + self.backoff_counter * self.timing.slot_us
        return contention_start_us + max(offset, 1.0)

    def consume_elapsed_slots(self, idle_until_us: float, contention_start_us: float) -> None:
        """Freeze semantics: deduct slots that elapsed before the medium
        went busy again at ``idle_until_us``."""
        if self.backoff_counter is None or self.backoff_counter <= 0:
            return
        waited = idle_until_us - (contention_start_us + self.pending_difs_us)
        if waited <= 0:
            return
        elapsed = int(waited // self.timing.slot_us)
        self.backoff_counter = max(0, self.backoff_counter - elapsed)

    # ------------------------------------------------------------------
    # Frame construction
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq = (self._seq + 1) % 4096
        return self._seq

    def _destination(self, app_frame: AppFrame) -> MacAddress:
        if app_frame.destination == DST_AP:
            return self.bssid
        if app_frame.destination == DST_PEER:
            peer = app_frame.peer
            if not isinstance(peer, MacAddress):
                raise TypeError(f"peer must be a MacAddress, got {type(peer)!r}")
            return peer
        if app_frame.destination == DST_BROADCAST:
            return BROADCAST
        return MULTICAST_GROUP

    _QOS_DOWNGRADE = {
        FrameSubtype.QOS_DATA: FrameSubtype.DATA,
        FrameSubtype.QOS_NULL: FrameSubtype.NULL_FUNCTION,
    }

    def materialize(self, app_frame: AppFrame, retry: bool) -> Dot11Frame:
        """Build the on-air frame for a queued application frame.

        Non-QoS cards transmit plain Data/Null frames regardless of
        what the application asked for — the QoS-vs-legacy frame-type
        mix is itself part of a card's fingerprint.
        """
        subtype = app_frame.subtype
        if not self.profile.qos_capable:
            subtype = self._QOS_DOWNGRADE.get(subtype, subtype)
        destination = self._destination(app_frame)
        protect = self.encrypted and subtype in _PROTECTABLE_SUBTYPES
        size = app_frame.size + (8 if protect else 0)
        if subtype in _NULL_SUBTYPES:
            size = app_frame.size  # null frames carry no payload to protect
        is_data = subtype in _DATA_SUBTYPES
        return Dot11Frame(
            subtype=subtype,
            size=max(size, 28),
            addr1=destination,
            addr2=self.mac,
            addr3=self.bssid,
            retry=retry,
            to_ds=is_data and app_frame.destination == DST_AP,
            from_ds=is_data and app_frame.destination == DST_PEER,
            protected=protect,
            power_mgmt=app_frame.power_mgmt,
            seq=self._next_seq(),
        )

    def data_rate_for(self, app_frame: AppFrame) -> float:
        """Rate selection: management and group-addressed frames go at
        a low basic rate, unicast data at the rate controller's choice."""
        if (
            app_frame.subtype in _MANAGEMENT_SUBTYPES
            or app_frame.destination in _GROUP_DESTINATIONS
        ):
            return self._basic_rate
        return self.phy.clamp_rate(self.rate_control.current_rate())

    def control_response_rate(self, data_rate: float) -> float:
        """Rate of CTS/ACK answering a frame sent at ``data_rate``."""
        if data_rate in DSSS_RATES:
            return min(data_rate, 2.0)
        return 24.0 if data_rate >= 24.0 else (12.0 if data_rate >= 12.0 else 6.0)

    # ------------------------------------------------------------------
    # Exchange execution
    # ------------------------------------------------------------------
    def position_at(self, time_us: float) -> Position:
        """Current position (advances the mobility process)."""
        return self.mobility.position_at(time_us, self.rng)

    def _track_links(self, position: Position) -> None:
        """Refresh the cached link geometry for a station at ``position``.

        Distances and mean path losses to the peer and the monitor (and
        the peer's own loss to the monitor, for CTS/ACK captures) are
        recomputed only when one of the three ``Position`` objects is
        replaced: static stations compute them once, moving stations once
        per step.  The cache holds one entry, so it stays bounded however
        far a station roams.  The channel model is fixed per station.
        """
        peer, monitor = self.peer_position, self.monitor_position
        channel = self.channel_model
        if peer is not self._peer_key or monitor is not self._monitor_key:
            self._peer_key, self._monitor_key = peer, monitor
            self._responder_link = self._monitor_link_at(peer.distance_to(monitor))
            self._position_key = None
        if position is not self._position_key:
            self._position_key = position
            self.peer_distance_m = position.distance_to(peer)
            self.monitor_distance_m = position.distance_to(monitor)
            self._peer_loss_db = channel.path_loss_db(self.peer_distance_m)
            self._monitor_link = self._monitor_link_at(self.monitor_distance_m)

    def _monitor_link_at(self, distance_m: float) -> tuple[float, float]:
        """(mean path loss, captured signal) of a sender ``distance_m``
        from the monitor."""
        channel = self.channel_model
        loss = channel.path_loss_db(distance_m)
        return loss, max(-95.0, channel.tx_power_dbm - loss)

    def _capture(
        self,
        captures: list[CapturedFrame],
        end_time_us: float,
        frame: Dot11Frame,
        rate: float,
        link: tuple[float, float],
    ) -> None:
        """Append a monitor capture draw for one on-air frame sent over
        ``link`` (a ``_monitor_link_at`` pair)."""
        loss, signal = link
        if self.channel_model.monitor_decodes(loss, rate, frame.size, self.rng):
            captures.append(
                CapturedFrame(end_time_us, frame, rate, signal, self.channel_number)
            )

    def _uses_rts(self, frame: Dot11Frame, unicast: bool) -> bool:
        threshold = self.profile.rts_threshold
        return unicast and threshold is not None and frame.size > threshold

    def execute_exchange(self, tx_start_us: float) -> ExchangeOutcome:
        """Run a full medium access starting at ``tx_start_us``.

        Handles RTS/CTS when the profile's threshold demands it, the
        data frame, the responder's ACK, channel error draws, retry
        bookkeeping, rate-control feedback and monitor capture draws.
        """
        if not self.queue:
            raise RuntimeError(f"{self.mac} won arbitration with an empty queue")
        app_frame = self.queue[0]
        retry = self.retry_count > 0
        frame = self.materialize(app_frame, retry)
        rate = self.data_rate_for(app_frame)
        self._track_links(self.position_at(tx_start_us))
        channel = self.channel_model
        rng = self.rng
        # Any unicast frame is acknowledged; group-addressed frames
        # (broadcast data, probe requests, beacons) are fire-and-forget.
        needs_ack = not frame.addr1.is_multicast
        captures: list[CapturedFrame] = []
        aired: list[Dot11Frame] = [frame]
        sifs = self.timing.sifs_us
        responder_sifs = sifs + self.responder_sifs_offset_us
        now = tx_start_us
        data_air = self.phy.airtime_us(frame.size, rate)
        ctl_rate, cts_air, ack_air, rts_air = self._control[rate]

        # SNR hint for rate control (driver channel estimation).
        snr_hint = channel.link_snr_db(self._peer_loss_db, rng)
        self.rate_control.on_snr_hint(snr_hint)

        if self._uses_rts(frame, needs_ack):
            nav = round(3 * sifs + cts_air + data_air + ack_air)
            rts = rts_frame(self.mac, frame.addr1, nav)
            rts_end = now + rts_air
            self._capture(captures, rts_end, rts, ctl_rate, self._monitor_link)
            rts_ok = channel.link_succeeds(self._peer_loss_db, ctl_rate, rts.size, rng)
            if not rts_ok:
                # No CTS: the sender times out and recontends.
                self._on_failure()
                return ExchangeOutcome(
                    captures=captures,
                    busy_until_us=rts_end + sifs + cts_air,
                    dequeued=False,
                    aired=[rts],
                )
            cts = cts_frame(self.mac, max(0, nav - round(sifs + cts_air)))
            cts_end = rts_end + responder_sifs + cts_air
            self._capture(captures, cts_end, cts, ctl_rate, self._responder_link)
            now = cts_end + sifs
        # Data (or management/null) frame itself.
        data_end = now + data_air
        self._capture(captures, data_end, frame, rate, self._monitor_link)

        if not needs_ack:
            # Group-addressed / management-broadcast: fire and forget.
            self._on_success()
            return ExchangeOutcome(
                captures=captures, busy_until_us=data_end, dequeued=True, aired=aired
            )

        data_ok = channel.link_succeeds(self._peer_loss_db, rate, frame.size, rng)
        if not data_ok:
            self._on_failure()
            return ExchangeOutcome(
                captures=captures,
                busy_until_us=data_end + sifs + ack_air,
                dequeued=False,
                aired=aired,
            )
        ack = ack_frame(self.mac)
        ack_end = data_end + responder_sifs + ack_air
        self._capture(captures, ack_end, ack, ctl_rate, self._responder_link)
        self._on_success()
        return ExchangeOutcome(
            captures=captures, busy_until_us=ack_end, dequeued=True, aired=aired
        )

    def execute_collision_leg(self, tx_start_us: float) -> float:
        """This station's part of a collision: its frame airs but is
        unreceivable.  Returns the air end time."""
        if not self.queue:
            raise RuntimeError(f"{self.mac} collided with an empty queue")
        app_frame = self.queue[0]
        frame = self.materialize(app_frame, self.retry_count > 0)
        rate = self.data_rate_for(app_frame)
        unicast = not frame.addr1.is_multicast
        if self._uses_rts(frame, unicast):
            air = self._control[rate][3]  # only the RTS airs
        else:
            air = self.phy.airtime_us(frame.size, rate)
        self.stats.collisions += 1
        if unicast:
            self._on_failure()
        else:
            # Group frames are never retried: the loss is silent.
            self._on_success()
        return tx_start_us + air

    # ------------------------------------------------------------------
    # Outcome bookkeeping
    # ------------------------------------------------------------------
    def _on_success(self) -> None:
        self.queue.popleft()
        self.retry_count = 0
        self.stats.transmitted += 1
        self.rate_control.on_result(True)
        self.backoff_counter = None
        if self.queue:
            self.draw_backoff()

    def _on_failure(self) -> None:
        self.retry_count += 1
        self.stats.retries += 1
        self.rate_control.on_result(False)
        if self.retry_count > self.profile.retry_limit:
            self.queue.popleft()
            self.retry_count = 0
            self.stats.dropped += 1
        self.backoff_counter = None
        if self.queue:
            self.draw_backoff()
