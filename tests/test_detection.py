"""Unit tests for the detection phase (similarity & identification)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import ReferenceDatabase
from repro.core.detection import (
    DEFAULT_THRESHOLDS,
    DetectionConfig,
    WindowCandidate,
    evaluate_identification,
    evaluate_similarity,
    extract_window_candidates,
)
from repro.core.matcher import best_match
from repro.core.parameters import FrameSize
from repro.core.signature import Signature, SignatureBuilder
from repro.dot11.mac import MacAddress, vendor_mac
from repro.traces.trace import Trace
from tests.conftest import make_data_capture
from tests.oracles import detection as oracle

A = MacAddress.parse("00:13:e8:00:00:0a")
B = MacAddress.parse("00:18:f8:00:00:0b")
C = MacAddress.parse("00:14:a4:00:00:0c")
AP = MacAddress.parse("00:0f:b5:00:00:01")


def _distinct_trace(duration_s: float = 120.0) -> Trace:
    """A, B, C transmit at distinct sizes: perfectly separable."""
    frames = []
    sizes = {A: 200, B: 900, C: 1800}
    t = 0.0
    index = 0
    while t < duration_s * 1e6:
        sender = (A, B, C)[index % 3]
        frames.append(make_data_capture(t, sender, AP, size=sizes[sender]))
        index += 1
        t += 1e5
    return Trace(frames=frames, name="distinct")


@pytest.fixture()
def separable_setup():
    trace = _distinct_trace()
    config = DetectionConfig(window_s=20.0, min_observations=20)
    builder = SignatureBuilder(FrameSize(), min_observations=20)
    split = trace.split(training_s=30.0)
    database = ReferenceDatabase.from_training(builder, split.training.frames)
    candidates = extract_window_candidates(split.validation, builder, database, config)
    return database, candidates, config


class TestCandidateExtraction:
    def test_one_candidate_per_device_per_window(self, separable_setup):
        database, candidates, _config = separable_setup
        windows = {c.window_index for c in candidates}
        for window in windows:
            devices = [c.device for c in candidates if c.window_index == window]
            assert len(devices) == len(set(devices))

    def test_similarities_populated(self, separable_setup):
        database, candidates, _config = separable_setup
        for candidate in candidates:
            assert set(candidate.similarities) == set(database.devices)


class TestSimilarityTest:
    def test_perfectly_separable_auc(self, separable_setup):
        database, candidates, config = separable_setup
        outcome = evaluate_similarity(candidates, database, config)
        assert outcome.auc > 0.99
        assert outcome.known_candidates == outcome.total_candidates

    def test_low_threshold_returns_everyone(self, separable_setup):
        database, candidates, config = separable_setup
        outcome = evaluate_similarity(candidates, database, config)
        # The lowest-threshold point has TPR 1 and near-max FPR.
        max_fpr_point = max(outcome.curve.points, key=lambda p: p.fpr)
        assert max_fpr_point.tpr == pytest.approx(1.0)
        assert max_fpr_point.fpr == pytest.approx(1.0)

    def test_high_threshold_returns_nothing_wrong(self, separable_setup):
        database, candidates, config = separable_setup
        outcome = evaluate_similarity(candidates, database, config)
        top = min(outcome.curve.points, key=lambda p: p.fpr)
        assert top.fpr == pytest.approx(0.0)


class TestIdentificationTest:
    def test_perfectly_separable_identification(self, separable_setup):
        database, candidates, config = separable_setup
        outcome = evaluate_identification(candidates, database, config)
        assert outcome.ratio_at_fpr(0.01) == pytest.approx(1.0)

    def test_unknown_candidates_counted_in_fpr(self):
        # Train only on A; B appears at validation with A-like sizes.
        frames = []
        t = 0.0
        for _ in range(60):
            frames.append(make_data_capture(t, A, AP, size=500))
            t += 1e5
        for _ in range(60):
            frames.append(make_data_capture(t, B, AP, size=500))
            t += 1e5
        trace = Trace(frames=frames)
        config = DetectionConfig(window_s=6.0, min_observations=20)
        builder = SignatureBuilder(FrameSize(), min_observations=20)
        database = ReferenceDatabase.from_training(builder, trace.frames[:60])
        candidates = extract_window_candidates(
            Trace(frames=trace.frames[60:]), builder, database, config
        )
        outcome = evaluate_identification(candidates, database, config)
        # B is unknown but matches A perfectly: at low thresholds it is
        # identified as A, a false positive with zero known candidates.
        assert outcome.known_candidates == 0
        zero_threshold = outcome.curve.points[0]
        assert zero_threshold.fpr > 0

    def test_acceptance_threshold_reduces_fpr(self, separable_setup):
        database, candidates, config = separable_setup
        outcome = evaluate_identification(candidates, database, config)
        fprs = [p.fpr for p in outcome.curve.points]
        assert fprs == sorted(fprs, reverse=True)  # higher T, lower FPR


# -- sorted-count sweeps vs the dict-walking oracle ------------------------
SIGNATURE = Signature(
    histograms={"Data": np.array([1.0, 0.0])}, weights={"Data": 1.0}
)
REFERENCES = [vendor_mac("00:13:e8", i) for i in range(6)]
STRANGERS = [vendor_mac("00:18:f8", i) for i in range(3)]
#: Scores sitting exactly on sweep thresholds, so ties with T occur.
ON_THRESHOLD = [0.0, 0.5, 0.995, 1.0]
scores_strategy = st.one_of(
    st.sampled_from(ON_THRESHOLD + [math.nan, -math.inf, math.inf]),
    st.floats(min_value=-0.5, max_value=1.5),
)
thresholds_strategy = st.lists(
    st.one_of(
        st.sampled_from(DEFAULT_THRESHOLDS),
        st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
    ),
    max_size=12,
).map(tuple)


@st.composite
def scored_candidates(draw):
    """A database of N references and K candidates sharing one score matrix."""
    n = draw(st.integers(min_value=0, max_value=len(REFERENCES)))
    database = ReferenceDatabase()
    for device in REFERENCES[:n]:
        database.add(device, SIGNATURE)
    references = tuple(database.devices)
    devices = draw(st.lists(st.sampled_from(REFERENCES + STRANGERS), max_size=8))
    size = len(devices) * n
    flat = draw(st.lists(scores_strategy, min_size=size, max_size=size))
    matrix = np.array(flat, dtype=np.float64).reshape(len(devices), n)
    candidates = [
        WindowCandidate(
            device=device,
            window_index=index,
            signature=SIGNATURE,
            references=references,
            scores=row,
        )
        for index, (device, row) in enumerate(zip(devices, matrix))
    ]
    return candidates, database


@settings(max_examples=300, deadline=None)
@given(scored=scored_candidates(), thresholds=thresholds_strategy)
def test_sweeps_equal_the_dict_walk(scored, thresholds):
    candidates, database = scored
    config = DetectionConfig(thresholds=thresholds)
    expected = oracle.evaluate_similarity(candidates, database, config)
    assert evaluate_similarity(candidates, database, config) == expected
    expected = oracle.evaluate_identification(candidates, database, config)
    assert evaluate_identification(candidates, database, config) == expected
    for candidate in candidates:
        assert candidate.best == oracle.best(candidate.similarities)


class TestNanAndTieRule:
    def _candidate(self, scores):
        return WindowCandidate(
            device=REFERENCES[0],
            window_index=0,
            signature=SIGNATURE,
            references=tuple(REFERENCES[: len(scores)]),
            scores=np.array(scores, dtype=np.float64),
        )

    def test_nan_never_wins_and_ties_go_first(self):
        candidate = self._candidate([math.nan, 0.7, 0.9, 0.9])
        assert candidate.best == (REFERENCES[2], 0.9)

    def test_all_nan_row_identifies_nothing(self):
        candidate = self._candidate([math.nan, math.nan])
        assert candidate.best == (None, 0.0)
        database = ReferenceDatabase()
        for device in REFERENCES[:2]:
            database.add(device, SIGNATURE)
        outcome = evaluate_identification([candidate], database, DetectionConfig())
        assert all(p.identification_ratio == 0.0 for p in outcome.curve.points)
        assert all(p.fpr == 0.0 for p in outcome.curve.points)

    def test_best_match_skips_nan_scores(self):
        database = ReferenceDatabase()
        for device in REFERENCES[:3]:
            database.add(device, SIGNATURE)
        assert best_match(SIGNATURE, database, lambda a, b: math.nan) == (None, 0.0)

    def test_candidates_must_share_references(self):
        first = self._candidate([0.1, 0.2])
        second = self._candidate([0.1, 0.2, 0.3])
        database = ReferenceDatabase()
        database.add(REFERENCES[0], SIGNATURE)
        with pytest.raises(ValueError):
            evaluate_identification([first, second], database, DetectionConfig())
