"""Scalar reference for the detection-phase threshold sweeps.

These are the dict-walking implementations of the similarity and
identification tests (Section IV-B): per threshold, per candidate, per
reference.  :mod:`repro.core.detection` computes the same curves from
sorted score counts; the property tests require the two to agree
point for point with ``==``.

The walk fixes the NaN and tie rule the array code must reproduce: a
NaN score is never returned (``sim >= T`` is False) and never wins the
argmax (strict ``>`` from −inf), and ties go to the first reference in
database order.
"""

from __future__ import annotations

from repro.core.detection import (
    DetectionConfig,
    IdentificationOutcome,
    SimilarityOutcome,
    WindowCandidate,
)
from repro.core.metrics import (
    CurvePoint,
    IdentificationCurve,
    IdentificationPoint,
    SimilarityCurve,
)
from repro.dot11.mac import MacAddress


def evaluate_similarity(
    candidates: list[WindowCandidate], database, config: DetectionConfig
) -> SimilarityOutcome:
    """TPR/FPR of the similarity test by walking each returned set."""
    reference_count = len(database)
    known = [c for c in candidates if c.device in database]
    similarities = [c.similarities for c in known]
    points: list[CurvePoint] = []
    for threshold in config.thresholds:
        true_positives = 0
        false_positives = 0
        false_capacity = 0
        for candidate, scores in zip(known, similarities):
            returned = {device for device, sim in scores.items() if sim >= threshold}
            if candidate.device in returned:
                true_positives += 1
            false_positives += len(returned - {candidate.device})
            false_capacity += max(reference_count - 1, 1)
        if not known:
            continue
        points.append(
            CurvePoint(
                threshold=threshold,
                tpr=true_positives / len(known),
                fpr=false_positives / false_capacity,
            )
        )
    return SimilarityOutcome(
        curve=SimilarityCurve(points=points),
        known_candidates=len(known),
        total_candidates=len(candidates),
    )


def best(similarities: dict[MacAddress, float]) -> tuple[MacAddress | None, float]:
    """The strict-``>`` argmax walk from −inf; ``(None, 0.0)`` if nothing wins."""
    best_device: MacAddress | None = None
    best_sim = float("-inf")
    for device, sim in similarities.items():
        if sim > best_sim:
            best_device, best_sim = device, sim
    return (best_device, best_sim) if best_device is not None else (None, 0.0)


def evaluate_identification(
    candidates: list[WindowCandidate], database, config: DetectionConfig
) -> IdentificationOutcome:
    """Identification ratio/FPR by a strict-``>`` argmax walk."""
    known_total = sum(1 for c in candidates if c.device in database)
    points: list[IdentificationPoint] = []
    prepared: list[tuple[WindowCandidate, MacAddress | None, float]] = []
    for candidate in candidates:
        best_device, best_sim = best(candidate.similarities)
        prepared.append((candidate, best_device, best_sim))

    for threshold in config.thresholds:
        correct = 0
        wrong = 0
        for candidate, best_device, best_sim in prepared:
            if best_device is None or best_sim < threshold:
                continue  # rejected: no identification claimed
            if best_device == candidate.device:
                correct += 1
            else:
                wrong += 1
        if not candidates:
            continue
        points.append(
            IdentificationPoint(
                threshold=threshold,
                identification_ratio=correct / known_total if known_total else 0.0,
                fpr=wrong / len(candidates),
            )
        )
    return IdentificationOutcome(
        curve=IdentificationCurve(points=points),
        known_candidates=known_total,
        total_candidates=len(candidates),
    )
