"""Unit tests for PHY rates and airtime computation."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dot11.phy import (
    ALL_RATES,
    DSSS_RATES,
    OFDM_RATES,
    PHY_B_ONLY,
    PHY_BG,
    Phy,
    PhyKind,
    frame_airtime_us,
    paper_transmission_time_us,
    phy_kind_for_rate,
)


class TestRateClassification:
    def test_dsss_rates(self):
        for rate in DSSS_RATES:
            assert phy_kind_for_rate(rate) is PhyKind.DSSS

    def test_ofdm_rates(self):
        for rate in OFDM_RATES:
            assert phy_kind_for_rate(rate) is PhyKind.OFDM

    def test_unknown_rate_rejected(self):
        with pytest.raises(ValueError):
            phy_kind_for_rate(13.0)


class TestAirtime:
    def test_airtime_1500_at_54(self):
        # 16+4 preamble/signal + ceil((22+12000)/216) symbols * 4 = 244 µs.
        assert frame_airtime_us(1500, 54.0) == pytest.approx(244.0)

    def test_airtime_monotone_in_size(self):
        assert frame_airtime_us(1500, 54.0) > frame_airtime_us(100, 54.0)

    def test_airtime_monotone_in_rate(self):
        assert frame_airtime_us(1500, 6.0) > frame_airtime_us(1500, 54.0)

    def test_dsss_long_preamble_at_1mbps(self):
        # 1 Mbps must use the long preamble regardless of capability.
        assert frame_airtime_us(100, 1.0, short_preamble=True) == pytest.approx(
            192.0 + 800.0
        )

    def test_dsss_short_preamble(self):
        short = frame_airtime_us(100, 11.0, short_preamble=True)
        long = frame_airtime_us(100, 11.0, short_preamble=False)
        assert long - short == pytest.approx(96.0)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            frame_airtime_us(0, 54.0)

    @given(
        st.integers(min_value=14, max_value=2400),
        st.sampled_from(ALL_RATES),
    )
    def test_airtime_always_exceeds_paper_tt_for_ofdm(self, size, rate):
        # Physical airtime includes preamble overhead, so it dominates
        # the paper's idealised size/rate figure.
        airtime = frame_airtime_us(size, rate)
        assert airtime >= paper_transmission_time_us(size, rate) - 1e-9


class TestAirtimeMemo:
    """``frame_airtime_us`` is memoised; the cache must be invisible."""

    def test_memo_equals_uncached_formula(self):
        uncached = frame_airtime_us.__wrapped__
        for short_preamble in (True, False):
            phy = Phy(short_preamble=short_preamble)
            for rate in ALL_RATES:
                for size in range(1, 2347):
                    expected = uncached(size, rate, short_preamble)
                    assert frame_airtime_us(size, rate, short_preamble) == expected
                    # Second call: served from the cache.
                    assert frame_airtime_us(size, rate, short_preamble) == expected
                    assert phy.airtime_us(size, rate) == expected

    @pytest.mark.parametrize(
        ("size", "rate"), [(0, 54.0), (-1, 54.0), (-1500, 1.0), (100, 13.0), (100, 0.0)]
    )
    def test_invalid_input_raises_with_warm_cache(self, size, rate):
        for valid_size in (14, 100, 1500):
            for valid_rate in ALL_RATES:
                frame_airtime_us(valid_size, valid_rate)
        assert frame_airtime_us.cache_info().currsize > 0
        for _ in range(2):  # a raising call is never cached
            with pytest.raises(ValueError):
                frame_airtime_us(size, rate)
            with pytest.raises(ValueError):
                PHY_BG.airtime_us(size, rate)


class TestPaperTransmissionTime:
    def test_units(self):
        # 1500 bytes at 54 Mbps: 12000 bits / 54 Mbps = 222.2 µs.
        assert paper_transmission_time_us(1500, 54.0) == pytest.approx(222.22, abs=0.01)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            paper_transmission_time_us(1500, 0.0)


class TestPhy:
    def test_clamp_rate(self):
        assert PHY_B_ONLY.clamp_rate(54.0) == 11.0
        assert PHY_BG.clamp_rate(54.0) == 54.0
        assert PHY_BG.clamp_rate(0.5) == 1.0

    def test_rate_ladder(self):
        assert PHY_BG.next_rate_up(54.0) == 54.0
        assert PHY_BG.next_rate_down(1.0) == 1.0
        assert PHY_BG.next_rate_up(11.0) == 12.0
        assert PHY_BG.next_rate_down(12.0) == 11.0

    def test_unsorted_rates_rejected(self):
        with pytest.raises(ValueError):
            Phy(supported_rates=(54.0, 1.0))

    def test_empty_rates_rejected(self):
        with pytest.raises(ValueError):
            Phy(supported_rates=())

    @given(st.sampled_from(ALL_RATES))
    def test_ladder_inverse(self, rate):
        up = PHY_BG.next_rate_up(rate)
        if up != rate:
            assert PHY_BG.next_rate_down(up) == rate
