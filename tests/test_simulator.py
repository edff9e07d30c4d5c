"""Integration tests for stations, the medium and scenarios."""

from __future__ import annotations

import json
import os
import random
from collections import Counter

import pytest

from repro.dot11.frames import FrameSubtype
from repro.dot11.mac import MacAddress
from repro.dot11.timing import TIMING_BG_MIXED
from repro.simulator import (
    CbrTraffic,
    ChannelModel,
    Scenario,
    StationSpec,
    WebTraffic,
)
from repro.simulator.channel import Mobility, Position
from repro.simulator.device import Station
from repro.simulator.events import EventQueue
from repro.simulator.medium import Medium
from repro.simulator.profiles import profile_by_name
from repro.simulator.traffic import AppFrame
from tests.capture_digest import GOLDEN_PATH, compute_digests


def _make_station(seed: int = 1, profile: str = "intel-2200bg-linux") -> Station:
    return Station(
        mac=MacAddress.parse("00:13:e8:00:00:01"),
        profile=profile_by_name(profile),
        channel_model=ChannelModel(noiseless=True),
        network_timing=TIMING_BG_MIXED,
        rng=random.Random(seed),
        mobility=Mobility(speed_mps=0.0, _position=Position(3, 3)),
        bssid=MacAddress.parse("00:0f:b5:0a:00:00"),
    )


class TestStation:
    def test_enqueue_signals_contention_once(self):
        station = _make_station()
        first = station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        second = station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        assert first and not second
        assert station.wants_medium

    def test_access_time_includes_difs_and_backoff(self):
        station = _make_station()
        station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        access = station.access_time(1000.0)
        assert access >= 1000.0 + 1.0
        assert station.backoff_counter is not None

    def test_exchange_produces_data_and_ack(self):
        station = _make_station()
        station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        outcome = station.execute_exchange(10_000.0)
        assert outcome.dequeued
        subtypes = [c.subtype for c in outcome.captures]
        assert FrameSubtype.QOS_DATA in subtypes
        assert FrameSubtype.ACK in subtypes
        assert outcome.busy_until_us > 10_000.0

    def test_broadcast_has_no_ack(self):
        station = _make_station()
        station.enqueue(
            AppFrame(subtype=FrameSubtype.DATA, size=200, destination="broadcast")
        )
        outcome = station.execute_exchange(10_000.0)
        subtypes = [c.subtype for c in outcome.captures]
        assert FrameSubtype.ACK not in subtypes

    def test_rts_used_above_threshold(self):
        station = _make_station(profile="atheros-ar9285-ath9k")  # RTS at 2000
        station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=2100))
        outcome = station.execute_exchange(10_000.0)
        subtypes = [c.subtype for c in outcome.captures]
        assert FrameSubtype.RTS in subtypes
        assert FrameSubtype.CTS in subtypes

    def test_no_rts_below_threshold(self):
        station = _make_station(profile="atheros-ar9285-ath9k")
        station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        outcome = station.execute_exchange(10_000.0)
        assert FrameSubtype.RTS not in [c.subtype for c in outcome.captures]

    def test_monotone_capture_times_within_exchange(self):
        station = _make_station()
        station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=2500))
        outcome = station.execute_exchange(10_000.0)
        times = [c.timestamp_us for c in outcome.captures]
        assert times == sorted(times)

    def test_sequence_numbers_increment(self):
        station = _make_station()
        seqs = []
        for _ in range(3):
            station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        time = 10_000.0
        for _ in range(3):
            outcome = station.execute_exchange(time)
            data = next(c for c in outcome.captures if c.subtype is FrameSubtype.QOS_DATA)
            seqs.append(data.frame.seq)
            time = outcome.busy_until_us + 100
        assert seqs[1] == (seqs[0] + 1) % 4096
        assert seqs[2] == (seqs[1] + 1) % 4096

    def test_encrypted_station_sets_protected(self):
        station = _make_station()
        station.encrypted = True
        station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=500))
        outcome = station.execute_exchange(10_000.0)
        data = next(c for c in outcome.captures if c.subtype is FrameSubtype.QOS_DATA)
        assert data.frame.protected
        assert data.size == 508  # +8 bytes CCMP overhead


class TestLinkCache:
    """A station's cached link geometry always equals a fresh computation."""

    def _roaming_station(self) -> Station:
        channel = ChannelModel(path_loss_exponent=3.4, shadowing_sigma_db=3.0)
        station = Station(
            mac=MacAddress.parse("00:13:e8:00:00:01"),
            profile=profile_by_name("samsung-mobile"),
            channel_model=channel,
            network_timing=TIMING_BG_MIXED,
            rng=random.Random(3),
            mobility=Mobility(
                area_m=60.0, speed_mps=4.0, pause_s=0.2, _position=Position(1, 1)
            ),
            bssid=MacAddress.parse("00:0f:b5:0a:00:00"),
        )
        station.peer_position = Position(30.0, 30.0)
        station.monitor_position = Position(20.0, 35.0)
        return station

    def test_moving_station_distances_match_fresh_geometry(self):
        station = self._roaming_station()
        channel = station.channel_model
        positions = set()
        for step in range(400):
            now = 10_000.0 + step * 50_000.0
            if step == 200:
                # Replacing an end point invalidates the cache too.
                station.peer_position = Position(5.0, 50.0)
            station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=900))
            outcome = station.execute_exchange(now)
            position = station.position_at(now)  # no new draw: same instant
            positions.add((position.x, position.y))
            peer_distance = position.distance_to(station.peer_position)
            monitor_distance = position.distance_to(station.monitor_position)
            assert station.peer_distance_m == peer_distance
            assert station.monitor_distance_m == monitor_distance
            peer_to_monitor = station.peer_position.distance_to(station.monitor_position)
            own_signal = channel.tx_power_dbm - channel.path_loss_db(monitor_distance)
            peer_signal = channel.tx_power_dbm - channel.path_loss_db(peer_to_monitor)
            for captured in outcome.captures:
                sent_by_peer = captured.sender is None  # CTS/ACK
                expected = peer_signal if sent_by_peer else own_signal
                assert captured.signal_dbm == max(-95.0, expected)
            station.queue.clear()
            station.backoff_counter = None
        assert len(positions) > 50  # the station really moved

    def test_path_loss_is_the_snr_formula(self):
        channel = ChannelModel(path_loss_exponent=3.1, shadowing_sigma_db=2.0)
        for distance in (0.1, 0.5, 1.0, 7.3, 42.0):
            loss = channel.path_loss_db(distance)
            snr = channel.snr_db(distance, random.Random(9))
            shadowing = random.Random(9).gauss(0.0, channel.shadowing_sigma_db)
            assert snr == channel.tx_power_dbm - loss + shadowing - channel.noise_floor_dbm


class TestMedium:
    def test_two_contenders_serialize(self):
        queue = EventQueue()
        medium = Medium(queue)
        a = _make_station(seed=1)
        b = _make_station(seed=2)
        b.mac = MacAddress.parse("00:18:f8:00:00:02")
        for station in (a, b):
            station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=800))
            medium.join(station, 0.0)
        queue.run_until(1e6)
        medium.verify_capture_order()
        senders = {c.sender for c in medium.captures if c.sender is not None}
        assert senders == {a.mac, b.mac}
        # No two data frames overlap in time.
        data = [c for c in medium.captures if c.subtype is FrameSubtype.QOS_DATA]
        assert len(data) == 2

    def test_exchange_counter(self):
        queue = EventQueue()
        medium = Medium(queue)
        station = _make_station()
        for _ in range(5):
            station.enqueue(AppFrame(subtype=FrameSubtype.QOS_DATA, size=400))
        medium.join(station, 0.0)
        queue.run_until(1e6)
        assert medium.exchange_count == 5
        assert not station.wants_medium


class TestScenario:
    def test_deterministic_runs(self):
        def run() -> list[float]:
            scenario = Scenario(duration_s=10.0, seed=77)
            scenario.add_station(
                StationSpec(
                    name="a",
                    profile="intel-2200bg-linux",
                    sources=[CbrTraffic(interval_ms=40)],
                )
            )
            return [c.timestamp_us for c in scenario.run().captures]

        assert run() == run()

    def test_seed_changes_output(self):
        def run(seed: int) -> int:
            scenario = Scenario(duration_s=10.0, seed=seed)
            scenario.add_station(
                StationSpec(
                    name="a",
                    profile="intel-2200bg-linux",
                    sources=[CbrTraffic(interval_ms=40)],
                )
            )
            return len(scenario.run().captures)

        assert run(1) != run(2) or True  # counts may coincide; spot-check below
        scenario_a = Scenario(duration_s=10.0, seed=1)
        scenario_b = Scenario(duration_s=10.0, seed=2)
        for scenario in (scenario_a, scenario_b):
            scenario.add_station(
                StationSpec(
                    name="a",
                    profile="intel-2200bg-linux",
                    sources=[CbrTraffic(interval_ms=40)],
                )
            )
        times_a = [c.timestamp_us for c in scenario_a.run().captures][:50]
        times_b = [c.timestamp_us for c in scenario_b.run().captures][:50]
        assert times_a != times_b

    def test_ap_emits_beacons(self, small_office_result):
        beacons = [
            c
            for c in small_office_result.captures
            if c.subtype is FrameSubtype.BEACON
        ]
        # 90 s at ~102.4 ms intervals, modulo capture loss.
        assert len(beacons) > 400

    def test_probe_requests_answered(self, small_office_result):
        types = Counter(c.subtype for c in small_office_result.captures)
        assert types[FrameSubtype.PROBE_REQUEST] > 0
        assert types[FrameSubtype.PROBE_RESPONSE] > 0

    def test_station_names_mapped(self, small_office_result):
        names = set(small_office_result.station_names.values())
        assert {"alice", "bob", "carol", "ap-0"} <= names

    def test_departure_stops_traffic(self):
        scenario = Scenario(duration_s=30.0, seed=3)
        scenario.add_station(
            StationSpec(
                name="early-leaver",
                profile="intel-2200bg-linux",
                sources=[CbrTraffic(interval_ms=20)],
                departure_s=10.0,
            )
        )
        result = scenario.run()
        leaver = next(
            mac for mac, name in result.station_names.items() if name == "early-leaver"
        )
        last = max(
            (c.timestamp_us for c in result.captures if c.sender == leaver),
            default=0.0,
        )
        assert last < 11e6

    def test_arrival_delays_traffic(self):
        scenario = Scenario(duration_s=30.0, seed=3)
        scenario.add_station(
            StationSpec(
                name="late-arriver",
                profile="intel-2200bg-linux",
                sources=[CbrTraffic(interval_ms=20)],
                arrival_s=20.0,
            )
        )
        result = scenario.run()
        arriver = next(
            mac for mac, name in result.station_names.items() if name == "late-arriver"
        )
        first = min(
            (c.timestamp_us for c in result.captures if c.sender == arriver),
            default=float("inf"),
        )
        assert first >= 20e6

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            Scenario(duration_s=0.0)
        scenario = Scenario(duration_s=10.0)
        scenario.add_station(
            StationSpec(
                name="bad",
                profile="intel-2200bg-linux",
                arrival_s=5.0,
                departure_s=1.0,
            )
        )
        with pytest.raises(ValueError):
            scenario.run()

    def test_collisions_occur_under_load(self):
        scenario = Scenario(duration_s=10.0, seed=13)
        for index in range(8):
            scenario.add_station(
                StationSpec(
                    name=f"station-{index}",
                    profile="intel-2200bg-linux",
                    sources=[CbrTraffic(interval_ms=5)],
                )
            )
        result = scenario.run()
        assert result.collision_rounds > 0
        assert result.frame_count > 1000


class TestCaptureDigests:
    """Bit-identity of the simulator's captures (and RNG draw order)."""

    def test_captures_match_golden_digests(self):
        digests = compute_digests()
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
            pytest.skip(f"golden file regenerated at {GOLDEN_PATH}")
        golden = json.loads(GOLDEN_PATH.read_text())
        assert set(digests) == set(golden), "digest case set drifted"
        for name, expected in golden.items():
            assert digests[name] == expected, f"{name}: captures drifted"

    def test_digest_covers_every_preset_and_dataset(self):
        from repro.scenarios import scenario_names

        golden = json.loads(GOLDEN_PATH.read_text())
        presets = {name for name in golden if name.startswith("preset/")}
        assert presets == {f"preset/{name}" for name in scenario_names()}
        assert sum(name.startswith("dataset/") for name in golden) == 4
        assert all(entry["frames"] > 1000 for entry in golden.values())
