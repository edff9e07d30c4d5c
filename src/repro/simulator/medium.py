"""Shared-channel arbitration: the DCF contention engine.

The medium serialises transmissions on one channel.  Contention follows
802.11 DCF semantics with the freeze/resume backoff model:

* when the medium goes idle, every contender's earliest transmit time
  is ``idle_start + DIFS_i + counter_i × slot`` (``DIFS_i`` carries the
  device's timing personality, ``counter_i`` its quirky backoff draw);
* the earliest contender wins and runs its exchange atomically (the
  NAV protects RTS/CTS/DATA/ACK sequences from interleaving);
* contenders whose transmit times fall within half a slot of the
  winner's collide — all their frames air and are lost;
* losers deduct the slots that elapsed before the medium went busy
  (freeze semantics) and resume in the next idle period.

Event-queue staleness is handled with generation tokens so arbitration
can be recomputed whenever membership changes.  Every change to the
contention state (a join, a finished round) bumps the generation, so
the contender times computed when a round is scheduled are still valid
when it fires: each round computes every contender's access time once.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable

from repro.dot11.capture import CapturedFrame
from repro.dot11.frames import Dot11Frame
from repro.simulator.device import Station
from repro.simulator.events import EventQueue

#: Signature of reactive hooks: (sender, frame, air-end time in µs).
AiredHook = Callable[[Station, Dot11Frame, float], None]

#: One contender in a round: (transmit time, round start, station).
_Timed = tuple[float, float, Station]
_by_tx_time = itemgetter(0)


class Medium:
    """Single-channel DCF arbitration and capture collection."""

    def __init__(self, queue: EventQueue) -> None:
        self.queue = queue
        self.busy_until = 0.0
        self.contention_start = 0.0
        self.contenders: dict[Station, float] = {}  # station -> join time
        self.captures: list[CapturedFrame] = []
        #: Reactive listeners (e.g. an AP answering probe requests).
        self.aired_hooks: list[AiredHook] = []
        self._generation = 0
        #: Every contender's times in the round scheduled under
        #: ``_generation``, in join order.
        self._timed: list[_Timed] = []
        self._exchanges = 0
        self._collision_rounds = 0

    @property
    def exchange_count(self) -> int:
        """Number of completed medium accesses (incl. collisions)."""
        return self._exchanges

    @property
    def collision_rounds(self) -> int:
        """Number of arbitration rounds that ended in a collision."""
        return self._collision_rounds

    # ------------------------------------------------------------------
    def join(self, station: Station, now_us: float) -> None:
        """Register a station that has (newly) pending traffic."""
        if station in self.contenders:
            return
        self.contenders[station] = now_us
        if now_us >= self.busy_until:
            # Medium is idle: this join opens (or extends) a contention
            # round anchored at the later of idle start and join time.
            self.contention_start = max(self.contention_start, self.busy_until)
        self._reschedule(now_us)

    # ------------------------------------------------------------------
    def _reschedule(self, now_us: float) -> None:
        """Recompute the next winner and schedule its transmission."""
        self._generation += 1
        generation = self._generation
        if not self.contenders:
            return
        anchor = max(self.contention_start, self.busy_until)
        timed = self._timed = []
        for station, join_us in self.contenders.items():
            start = max(anchor, join_us)
            timed.append((station.access_time(start), start, station))
        fire_at = max(min(timed, key=_by_tx_time)[0], now_us)
        self.queue.schedule(fire_at, lambda: self._fire(generation))

    def _fire(self, generation: int) -> None:
        """Execute the arbitration winner (or the collision set)."""
        if generation != self._generation:
            return  # superseded by a membership change
        now = self.queue.now
        # Stable sort: equal transmit times keep join order.
        timed = sorted(self._timed, key=_by_tx_time)
        win_time, _start, winner = timed[0]
        slot = winner.timing.slot_us
        colliders = [
            station for tx, _start, station in timed[1:] if tx - win_time < slot / 2
        ]

        self._exchanges += 1
        aired_frames = []
        if colliders:
            self._collision_rounds += 1
            end = winner.execute_collision_leg(win_time)
            for station in colliders:
                end = max(end, station.execute_collision_leg(win_time))
            participants = [winner, *colliders]
        else:
            outcome = winner.execute_exchange(win_time)
            self.captures.extend(outcome.captures)
            end = outcome.busy_until_us
            participants = [winner]
            aired_frames = outcome.aired

        # Freeze semantics for everyone who lost this round.
        for _tx, start, station in timed:
            if station not in participants:
                station.consume_elapsed_slots(win_time, start)

        for station in participants:
            if not station.wants_medium:
                del self.contenders[station]
            else:
                # Re-anchor the retry/post-tx contention at round end.
                self.contenders[station] = end
        self.busy_until = max(self.busy_until, end)
        self.contention_start = self.busy_until

        # Reactive hooks run after bookkeeping so joins they trigger see
        # a consistent medium state; they reschedule internally.
        if self.aired_hooks and aired_frames:
            for frame in aired_frames:
                for hook in self.aired_hooks:
                    hook(winner, frame, end)
        self._reschedule(now)

    # ------------------------------------------------------------------
    def verify_capture_order(self) -> None:
        """Invariant check: monitor timestamps are non-decreasing."""
        previous = -1.0
        for captured in self.captures:
            if captured.timestamp_us < previous - 1e-6:
                raise AssertionError(
                    f"capture order violated: {captured.timestamp_us} < {previous}"
                )
            previous = captured.timestamp_us
