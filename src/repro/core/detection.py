"""The detection phase: similarity and identification tests.

Implements Section IV-B's protocol: the validation trace is cut into
detection windows (5 minutes in the paper); each window yields one
candidate signature per device active enough to clear the minimum
observation count; every candidate is matched against the reference
database (Algorithm 1) and the two tests are scored across a threshold
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dot11.mac import MacAddress
from repro.core.database import ReferenceDatabase
from repro.core.matcher import argmax_scores, batch_match_signatures, best_index
from repro.core.metrics import (
    CurvePoint,
    IdentificationCurve,
    IdentificationPoint,
    SimilarityCurve,
)
from repro.core.signature import Signature, SignatureBuilder
from repro.core.similarity import SimilarityMeasure, cosine_similarity
from repro.traces.table import window_bounds
from repro.traces.trace import Trace

#: Default threshold sweep: fine steps near the top where cosine
#: similarities concentrate.
DEFAULT_THRESHOLDS: tuple[float, ...] = tuple(
    round(t, 4) for t in [i / 200 for i in range(0, 201)]
)


@dataclass(frozen=True)
class DetectionConfig:
    """Evaluation protocol parameters (paper defaults)."""

    window_s: float = 300.0
    min_observations: int = 50
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    measure: SimilarityMeasure = cosine_similarity


@dataclass(slots=True)
class WindowCandidate:
    """One candidate: a device's signature in one detection window.

    ``scores[i]`` is the candidate's Algorithm 1 similarity to
    ``references[i]``.  Every candidate matched in one batch shares the
    same ``references`` tuple (database order) and holds its row of the
    batch's score matrix as a view, so no per-candidate copy or dict is
    made.  The streaming matcher produces the same type.
    """

    device: MacAddress
    window_index: int
    signature: Signature
    references: tuple[MacAddress, ...]
    scores: np.ndarray

    @property
    def similarities(self) -> dict[MacAddress, float]:
        """Reference -> similarity, built on demand."""
        return dict(zip(self.references, self.scores.tolist()))

    @property
    def best(self) -> tuple[MacAddress | None, float]:
        """Argmax reference and its similarity ((None, 0.0) if none).

        Ties go to the first reference in database order and a NaN
        score never wins (:func:`~repro.core.matcher.best_index`).
        """
        winner = best_index(self.scores)
        if winner < 0:
            return None, 0.0
        return self.references[winner], float(self.scores[winner])


def _columnar_window_signatures(
    validation: Trace, builder: SignatureBuilder, config: DetectionConfig
) -> list[tuple[int, MacAddress, Signature]]:
    """Every ``(window, device, signature)``, columnar path (DESIGN.md §6).

    Observations for the *whole* validation trace are extracted and
    binned once; each detection window is then an ``np.searchsorted``
    slice of that batch.  A window's first ``table_memory`` rows are
    excluded so a channel-clock observation never reaches back across
    the window boundary — exactly reproducing per-window extraction.
    """
    table = validation.table()
    observed = builder.parameter.observe_table(table)
    bin_idx = builder.bins.index_many(observed.values)
    memory = builder.parameter.table_memory
    found: list[tuple[int, MacAddress, Signature]] = []
    for window_index, (lo, hi) in enumerate(
        window_bounds(table.timestamp_us, config.window_s)
    ):
        obs_lo, obs_hi = np.searchsorted(
            observed.positions, (lo + memory, hi), side="left"
        )
        signatures = builder.build_binned(
            observed.sender_idx[obs_lo:obs_hi],
            observed.ftype_idx[obs_lo:obs_hi],
            bin_idx[obs_lo:obs_hi],
            table.senders,
            table.ftype_keys,
        )
        for device, signature in signatures.items():
            found.append((window_index, device, signature))
    return found


def extract_window_candidates(
    validation: Trace,
    builder: SignatureBuilder,
    database: ReferenceDatabase,
    config: DetectionConfig,
    measure: SimilarityMeasure | None = None,
    columnar: bool = True,
) -> list[WindowCandidate]:
    """Build and match all window candidates of a validation trace.

    With ``columnar=True`` (the default) signature construction runs
    on the trace's :class:`~repro.traces.table.FrameTable`: one
    vectorized observation/binning pass over the whole validation
    trace, O(log n) window cuts, one ``np.bincount`` scatter per
    window.  ``columnar=False`` runs the per-window object reference
    path instead (used by the equivalence tests and benchmarks).  Both
    paths produce bin-for-bin identical candidates.

    Candidate signatures are collected first, then matched in a single
    :func:`~repro.core.matcher.batch_match_signatures` call — for the
    cosine measure that is one matrix–matrix product per frame type
    over every (window, device) candidate at once.  Each candidate
    keeps its row of the resulting ``(K, N)`` score matrix as a view,
    with one ``tuple(database.devices)`` shared as ``references``.
    """
    chosen = measure if measure is not None else config.measure
    if columnar:
        found = _columnar_window_signatures(validation, builder, config)
    else:
        found = [
            (window_index, device, signature)
            for window_index, window in enumerate(validation.windows(config.window_s))
            for device, signature in builder.build(window.frames).items()
        ]
    scores = batch_match_signatures(
        [signature for _, _, signature in found], database, chosen
    )
    references = tuple(database.devices)
    return [
        WindowCandidate(
            device=device,
            window_index=window_index,
            signature=signature,
            references=references,
            scores=row,
        )
        for (window_index, device, signature), row in zip(found, scores)
    ]


def _score_matrix(
    candidates: list[WindowCandidate],
) -> tuple[np.ndarray, np.ndarray]:
    """Stack non-empty ``candidates``' score rows into one ``(K, N)`` matrix.

    Also returns each candidate's own column (−1 when its device is
    not among the references).  All candidates must share one
    reference order, as every candidate of one matching batch does.
    """
    references = candidates[0].references
    if any(
        c.references is not references and c.references != references
        for c in candidates
    ):
        raise ValueError("candidates were scored against different references")
    scores = np.array([c.scores for c in candidates], dtype=np.float64)
    column = {device: i for i, device in enumerate(references)}
    truth = np.array([column.get(c.device, -1) for c in candidates], dtype=np.intp)
    return scores, truth


def _count_at_least(values: np.ndarray, thresholds: Sequence[float]) -> list[int]:
    """For each threshold ``T``, how many ``values`` are ``>= T``.

    NaN never counts (``NaN >= T`` is False), so it is dropped before
    sorting; ``np.sort`` would otherwise place it last and it would be
    counted above every threshold.
    """
    ordered = np.sort(values[~np.isnan(values)])
    return (len(ordered) - np.searchsorted(ordered, thresholds, side="left")).tolist()


@dataclass
class SimilarityOutcome:
    """Similarity-test result: the full curve plus bookkeeping."""

    curve: SimilarityCurve
    known_candidates: int
    total_candidates: int

    @property
    def auc(self) -> float:
        """Area under the similarity curve (Table II)."""
        return self.curve.auc


def evaluate_similarity(
    candidates: list[WindowCandidate],
    database: ReferenceDatabase,
    config: DetectionConfig,
) -> SimilarityOutcome:
    """Score the similarity test across the threshold sweep.

    TPR: fraction of known candidates whose returned set (similarity ≥
    T) contains the true device.  FPR: wrong references returned,
    normalised by the N−1 wrong references available per candidate.

    The sweep is counted, not walked: with the known candidates' rows
    stacked into one ``(K, N)`` matrix, ``returned(T)`` is the number of
    scores ≥ T and ``tp(T)`` the number of true-device scores ≥ T, both
    read off sorted arrays with ``np.searchsorted`` for every threshold
    at once, and ``fp(T) = returned(T) − tp(T)``.  NaN scores are never
    returned.  No points are produced without known candidates.
    """
    known = [c for c in candidates if c.device in database]
    points: list[CurvePoint] = []
    if known:
        scores, truth = _score_matrix(known)
        matched = np.flatnonzero(truth >= 0)
        returned = _count_at_least(scores, config.thresholds)
        true_positives = _count_at_least(
            scores[matched, truth[matched]], config.thresholds
        )
        false_capacity = len(known) * max(len(database) - 1, 1)
        points = [
            CurvePoint(
                threshold=threshold,
                tpr=tp / len(known),
                fpr=(total - tp) / false_capacity,
            )
            for threshold, total, tp in zip(
                config.thresholds, returned, true_positives
            )
        ]
    return SimilarityOutcome(
        curve=SimilarityCurve(points=points),
        known_candidates=len(known),
        total_candidates=len(candidates),
    )


@dataclass
class IdentificationOutcome:
    """Identification-test result across the acceptance sweep."""

    curve: IdentificationCurve
    known_candidates: int
    total_candidates: int

    def ratio_at_fpr(self, fpr_budget: float) -> float:
        """Identification ratio at an FPR budget (Table III)."""
        return self.curve.ratio_at_fpr(fpr_budget)


def evaluate_identification(
    candidates: list[WindowCandidate],
    database: ReferenceDatabase,
    config: DetectionConfig,
) -> IdentificationOutcome:
    """Score the identification test across acceptance thresholds.

    A candidate is *identified* as the argmax reference if that best
    similarity clears the acceptance threshold.  The identification
    ratio counts known candidates identified correctly; the FPR counts
    candidates (known or not) identified as a wrong device.

    One row-wise :func:`~repro.core.matcher.argmax_scores` over the
    stacked ``(K, N)`` matrix gives every candidate's winner and best
    score (NaN never wins, ties go to the first reference, an empty
    database identifies nothing); ``correct(T)`` and ``wrong(T)`` are
    then sorted counts of the best scores ≥ T on each side.
    """
    known_total = sum(1 for c in candidates if c.device in database)
    points: list[IdentificationPoint] = []
    if candidates:
        scores, truth = _score_matrix(candidates)
        winner, best = argmax_scores(scores)
        claimed = winner >= 0
        hit = claimed & (winner == truth)
        correct = _count_at_least(best[hit], config.thresholds)
        wrong = _count_at_least(best[claimed & ~hit], config.thresholds)
        points = [
            IdentificationPoint(
                threshold=threshold,
                identification_ratio=right / known_total if known_total else 0.0,
                fpr=miss / len(candidates),
            )
            for threshold, right, miss in zip(config.thresholds, correct, wrong)
        ]
    return IdentificationOutcome(
        curve=IdentificationCurve(points=points),
        known_candidates=known_total,
        total_candidates=len(candidates),
    )
