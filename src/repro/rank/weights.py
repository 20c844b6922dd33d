"""Per-instance weight models for ranking/score outcomes.

A ranking outcome assigns every instance a real *weight* derived from
its position in the ranking induced by a score (highest score = rank 1)
or from the raw score itself. Subgroup divergence is then the
difference between the subgroup's mean weight and the global mean —
e.g. with the ``exposure`` model, how much less visibility a subgroup
receives than the population at large.

Models
------
``exposure``
    DCG-style logarithmic position discount ``1 / log2(rank + 1)``:
    rank 1 gets weight 1, attention decays with depth. The standard
    exposure model of the fair-ranking literature.
``topk``
    Membership indicator of the top-``k`` prefix (requires ``k``):
    subgroup mean = the subgroup's top-``k`` representation rate.
``reciprocal_rank``
    ``1 / rank`` — steeper than exposure, emphasizes the very top.
``score``
    The raw score itself (e.g. ``predict_proba``): mean-score
    divergence, the Kittler delta-style view of a classifier.

Ranks are assigned by descending score with ties broken by row index
(a stable sort whenever ties exist), so every weight vector is
deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ReproError

#: The built-in weight models, in documentation order.
WEIGHT_MODELS = ("exposure", "topk", "reciprocal_rank", "score")


def rank_positions(scores: np.ndarray) -> np.ndarray:
    """1-based rank of every row: highest score first, ties by row index.

    Ties are broken by row index, so every backend (and every shard
    plan) sees identical weights. Without ties the descending order is
    unique, so numpy's default (unstable, faster) argsort already gives
    it; the stable argsort runs only when two adjacent sorted scores are
    equal (``-0.0 == 0.0`` counts as a tie).
    """
    scores = _validated(scores)
    keys = -scores
    order = np.argsort(keys)
    ordered = keys[order]
    if (ordered[1:] == ordered[:-1]).any():
        order = np.argsort(keys, kind="stable")
    ranks = np.empty(scores.shape[0], dtype=np.int64)
    ranks[order] = np.arange(1, scores.shape[0] + 1)
    return ranks


def rank_weights(
    scores: np.ndarray,
    model: str,
    k: int | None = None,
    ranks: np.ndarray | None = None,
) -> np.ndarray:
    """Per-instance weights of a ranking outcome.

    Parameters
    ----------
    scores:
        Finite per-instance ranking scores.
    model:
        One of :data:`WEIGHT_MODELS`.
    k:
        Top-list size; required by (and only meaningful for) the
        ``topk`` model.
    ranks:
        ``rank_positions(scores)``, when the caller already has it:
        one argsort then serves every rank-based model.

    Returns
    -------
    float64 weight vector aligned with ``scores``.
    """
    scores = _validated(scores)
    if model == "score":
        return scores.copy()
    if model not in WEIGHT_MODELS:
        raise ReproError(
            f"unknown weight model {model!r}; expected one of "
            f"{', '.join(WEIGHT_MODELS)}"
        )
    if ranks is None:
        ranks = rank_positions(scores)
    if model == "exposure":
        return 1.0 / np.log2(ranks + 1.0)
    if model == "reciprocal_rank":
        return 1.0 / ranks
    # topk
    if k is None:
        raise ReproError("weight model 'topk' requires a top-list size k")
    k = int(k)
    if k < 1:
        raise ReproError(f"topk size must be >= 1, got {k}")
    return (ranks <= k).astype(np.float64)


def _validated(scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ReproError(
            f"scores must be one-dimensional, got shape {scores.shape}"
        )
    if not np.isfinite(scores).all():
        raise ReproError("scores must be finite")
    return scores
