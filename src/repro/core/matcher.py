"""Algorithm 1: matching a candidate signature against the database.

For every frame type the candidate exhibits, the candidate histogram is
compared with each reference's histogram of the same frame type; the
per-type similarity is weighted by the **reference** signature's frame
type weight and accumulated:

``sim_i += weight^ftype(r_i) × simCos(hist^ftype(c), hist^ftype(r_i))``

A reference lacking a frame type the candidate shows contributes 0 for
that type (its weight for the type is 0), naturally penalising
behavioural mismatches.  The result is the similarity vector
``<sim_1, …, sim_N>`` over the reference devices.

Matrix formulation
------------------

Because cosine similarity is a normalised inner product, Algorithm 1
is a sum of matrix products.  Pack the database per frame type ``f``
into the unit-row matrix ``R̂_f`` (row ``i`` is
``hist^f(r_i)/‖hist^f(r_i)‖``, all-zero when device ``i`` lacks ``f``)
and the weight vector ``w_f`` (:class:`~repro.core.database.PackedDatabase`);
normalise the candidate histogram to ``ĉ_f``.  Then the whole
similarity vector is

``sim = Σ_f  w_f ⊙ clip(R̂_f ĉ_f, 0, 1)``

one matrix–vector product per frame type instead of N·|ftypes| scalar
cosine calls.  For M candidates at once, stack the ``ĉ_f`` rows into
``Ĉ_f`` and the ``(M, N)`` similarity matrix is
``Σ_f clip(Ĉ_f R̂_fᵀ, 0, 1) ⊙ w_f`` — a matrix–matrix product per
frame type (:func:`batch_match_signatures`).  Zero-norm rows stay
all-zero under :func:`~repro.core.similarity.normalize_rows`, which
reproduces the scalar zero-norm convention, and a candidate frame type
no reference exhibits contributes nothing, exactly as in the scalar
loop.

:func:`match_signature` takes this fast path automatically when the
measure *is* :func:`~repro.core.similarity.cosine_similarity`; any
other :class:`~repro.core.similarity.SimilarityMeasure` (or a database
that cannot be packed into rectangular matrices) falls back to the
original scalar loop with identical results.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.dot11.mac import MacAddress
from repro.core.database import PackedDatabase, ReferenceDatabase
from repro.core.signature import Signature
from repro.core.similarity import (
    SimilarityMeasure,
    _EPS,
    cosine_similarity,
    normalize_rows,
    unit_cosine_product,
)


def _cosine_scores(candidate: Signature, packed: PackedDatabase) -> np.ndarray:
    """The matrix formulation for one candidate: ``Σ_f w_f ⊙ clip(R̂_f ĉ_f)``.

    Frame types accumulate in sorted order, so the floating-point sum
    is independent of signature/database construction order — the
    canonical-order guarantee the sharded engine's per-shard fan-out
    relies on (DESIGN.md §5).
    """
    totals = np.zeros(len(packed.devices), dtype=np.float64)
    for ftype_key in sorted(candidate.histograms):
        candidate_hist = candidate.histograms[ftype_key]
        references = packed.normalized.get(ftype_key)
        if references is None:
            continue  # no reference exhibits this type: contributes 0
        norm = float(np.linalg.norm(candidate_hist))
        if norm < _EPS:
            continue
        scores = unit_cosine_product(candidate_hist / norm, references)[0]
        totals += packed.weights[ftype_key] * scores
    return totals


def _scalar_match(
    candidate: Signature,
    database: ReferenceDatabase,
    measure: SimilarityMeasure,
) -> dict[MacAddress, float]:
    """The original per-pair loop, kept for non-cosine measures."""
    similarities: dict[MacAddress, float] = {device: 0.0 for device in database}
    for ftype_key, candidate_hist in candidate.histograms.items():
        for device, reference in database.items():
            reference_hist = reference.histogram(ftype_key)
            if reference_hist is None:
                continue
            score = measure(candidate_hist, reference_hist)
            similarities[device] += reference.weight(ftype_key) * score
    return similarities


def match_signature(
    candidate: Signature,
    database: ReferenceDatabase,
    measure: SimilarityMeasure = cosine_similarity,
) -> dict[MacAddress, float]:
    """Run Algorithm 1; returns per-reference combined similarities.

    Uses the packed matrix fast path for the cosine measure and the
    scalar loop otherwise; both yield the same numbers.  A
    :class:`~repro.core.sharding.ShardedReferenceDatabase` is accepted
    transparently — the call fans out per shard and merges.
    """
    if getattr(database, "is_sharded", False):
        return database.match(candidate, measure)
    packed = database.packed() if measure is cosine_similarity else None
    if packed is None:
        return _scalar_match(candidate, database, measure)
    scores = _cosine_scores(candidate, packed)
    return dict(zip(packed.devices, scores.tolist()))


def batch_match_signatures(
    candidates: Sequence[Signature],
    database: ReferenceDatabase,
    measure: SimilarityMeasure = cosine_similarity,
) -> np.ndarray:
    """Algorithm 1 for many candidates at once.

    Returns the ``(len(candidates), len(database))`` similarity matrix
    whose row ``i`` equals ``match_signature(candidates[i], database,
    measure)`` values in database insertion order (``database.devices``).
    For the cosine measure this is one matrix–matrix product per frame
    type (accumulated in sorted frame-type order, so the float sum does
    not depend on database construction order); other measures fall
    back to the scalar loop per row.  A
    :class:`~repro.core.sharding.ShardedReferenceDatabase` is accepted
    transparently — the call fans out per shard and merges columns.
    """
    if getattr(database, "is_sharded", False):
        return database.batch_match(candidates, measure)
    packed = database.packed() if measure is cosine_similarity else None
    if packed is None:
        return np.array(
            [
                list(_scalar_match(candidate, database, measure).values())
                for candidate in candidates
            ],
            dtype=np.float64,
        ).reshape(len(candidates), len(database))
    totals = np.zeros((len(candidates), len(packed.devices)), dtype=np.float64)
    for ftype_key in sorted(packed.normalized):
        references = packed.normalized[ftype_key]
        rows = [
            row
            for row, candidate in enumerate(candidates)
            if ftype_key in candidate.histograms
        ]
        if not rows:
            continue
        stacked = np.stack(
            [candidates[row].histograms[ftype_key] for row in rows]
        ).astype(np.float64, copy=False)
        scores = unit_cosine_product(normalize_rows(stacked), references)
        totals[rows] += scores * packed.weights[ftype_key]
    return totals


def best_index(scores: np.ndarray) -> int:
    """Column of a score row's best score, or −1 if no score is above −inf.

    This is the identification rule of a strict-``>`` walk from −inf
    over the row: NaN never wins and ties go to the first column
    (database order).  :func:`best_match`, ``WindowCandidate.best`` and
    :func:`argmax_scores` all follow it.
    """
    if len(scores) == 0:
        return -1
    winner = int(scores.argmax())
    if math.isnan(scores[winner]):  # argmax stops at the first NaN
        winner = int(np.where(np.isnan(scores), -np.inf, scores).argmax())
    return winner if scores[winner] > -np.inf else -1


def argmax_scores(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`best_index` for every row of a ``(K, N)`` score matrix.

    Returns ``(winner, best)``: each row's best column (−1 where none)
    and that row's best score (−inf where none).
    """
    if scores.shape[1] == 0:
        return np.full(len(scores), -1, dtype=np.intp), np.full(len(scores), -np.inf)
    masked = np.where(np.isnan(scores), -np.inf, scores)
    winner = masked.argmax(axis=1)
    best = masked[np.arange(len(masked)), winner]
    return np.where(best > -np.inf, winner, -1), best


def best_match(
    candidate: Signature,
    database: ReferenceDatabase,
    measure: SimilarityMeasure = cosine_similarity,
) -> tuple[MacAddress | None, float]:
    """The identification test's core: the argmax reference device.

    Returns ``(None, 0.0)`` on an empty database or when no score is
    above −inf.  Ties break towards the earliest-registered reference
    for determinism and a NaN score never wins (:func:`best_index`).
    """
    similarities = match_signature(candidate, database, measure)
    scores = np.fromiter(similarities.values(), np.float64, len(similarities))
    winner = best_index(scores)
    if winner < 0:
        return None, 0.0
    return list(similarities)[winner], float(scores[winner])
