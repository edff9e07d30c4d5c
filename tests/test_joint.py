"""Tests for joint (2-D) histogram signatures."""

from __future__ import annotations

import pytest

from repro.core.histogram import Histogram, UniformBins
from repro.core.joint import JointBins, JointParameter
from repro.core.signature import SignatureBuilder
from repro.dot11.mac import MacAddress
from tests.conftest import make_data_capture

A = MacAddress.parse("00:13:e8:00:00:0a")
AP = MacAddress.parse("00:0f:b5:00:00:01")


class TestJointBins:
    def test_bin_count_is_product(self):
        joint = JointBins(
            x_bins=UniformBins(lo=0, hi=100, width=10),
            y_bins=UniformBins(lo=0, hi=30, width=10),
        )
        assert joint.bin_count == 30

    def test_encode_index_round_trip(self):
        joint = JointBins(
            x_bins=UniformBins(lo=0, hi=100, width=10),
            y_bins=UniformBins(lo=0, hi=30, width=10),
        )
        encoded = joint.encode(55.0, 25.0)
        assert encoded is not None
        index = joint.index(encoded)
        assert index == 5 * 3 + 2
        assert "×" in joint.bin_label(index)

    def test_y_bin_count_beyond_encoding_base_rejected(self):
        """Past 2^20 y bins, (x=0, y=2^20+1) and (x=1, y=1) would share
        one encoded joint value."""
        with pytest.raises(ValueError, match="encoding base"):
            JointBins(
                x_bins=UniformBins(lo=0, hi=100, width=10),
                y_bins=UniformBins(lo=0, hi=2e6, width=1.0),
            )
        # Exactly 2^20 y bins still encode every pair uniquely.
        JointBins(
            x_bins=UniformBins(lo=0, hi=100, width=10),
            y_bins=UniformBins(lo=0, hi=float(1 << 20), width=1.0),
        )

    def test_dropped_component_drops_pair(self):
        joint = JointBins(
            x_bins=UniformBins(lo=0, hi=100, width=10, drop_outside=True),
            y_bins=UniformBins(lo=0, hi=30, width=10),
        )
        assert joint.encode(500.0, 25.0) is None


class TestJointParameter:
    def test_validation(self):
        with pytest.raises(KeyError):
            JointParameter("size", "entropy")
        with pytest.raises(ValueError):
            JointParameter("size", "size")

    def test_size_rate_joint_extraction(self):
        frames = [
            make_data_capture(1000.0 * i, A, AP, size=500, rate=54.0)
            for i in range(10)
        ]
        parameter = JointParameter("size", "rate")
        observations = list(parameter.observations(frames))
        assert len(observations) == 10
        histogram = Histogram(parameter.default_bins())
        for observation in observations:
            assert histogram.add(observation.value)
        # All identical pairs land in one joint bin.
        assert (histogram.frequencies() > 0).sum() == 1

    def test_joint_separates_what_marginals_confuse(self):
        """Two devices with identical size AND inter-arrival marginals
        but opposite correlation are separable only jointly."""
        from repro.core.similarity import cosine_similarity

        # Device A: small frames after short gaps, big after long.
        # Device B: the opposite pairing. Marginals: 50/50 either way.
        frames_a, frames_b = [], []
        t_a = t_b = 0.0
        for i in range(60):
            short_gap = i % 2 == 0
            gap = 300.0 if short_gap else 1500.0
            t_a += gap
            frames_a.append(
                make_data_capture(t_a, A, AP, size=100 if short_gap else 1500)
            )
            t_b += gap
            frames_b.append(
                make_data_capture(t_b, A, AP, size=1500 if short_gap else 100)
            )
        joint = JointParameter("interarrival", "size")
        builder = SignatureBuilder(joint, min_observations=10)
        sig_a = builder.build(frames_a)[A]
        sig_b = builder.build(frames_b)[A]
        joint_sim = cosine_similarity(
            sig_a.histograms["QoS Data"], sig_b.histograms["QoS Data"]
        )
        assert joint_sim < 0.1  # jointly near-disjoint

        # The size marginal alone cannot tell them apart.
        from repro.core.parameters import FrameSize

        size_builder = SignatureBuilder(FrameSize(), min_observations=10)
        size_a = size_builder.build(frames_a)[A]
        size_b = size_builder.build(frames_b)[A]
        size_sim = cosine_similarity(
            size_a.histograms["QoS Data"], size_b.histograms["QoS Data"]
        )
        assert size_sim > 0.95

    def test_pipeline_integration(self, small_office_trace):
        """Joint signatures run through the standard evaluation."""
        from repro.core.detection import DetectionConfig
        from repro.core.pipeline import evaluate_trace

        result = evaluate_trace(
            small_office_trace,
            JointParameter("interarrival", "size"),
            training_s=30.0,
            config=DetectionConfig(window_s=15.0),
        )
        assert result.auc > 0.7
