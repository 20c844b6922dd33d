"""Overflow-safe fixed-point encoding of real-valued outcome weights.

The frequent-pattern miners accumulate per-itemset *channel sums* in
int64. Real-valued scores are carried through those accumulators as
fixed-point integers: a weight ``w`` becomes ``round(w * SCALE)`` and
``round(w**2 * SCALE)``, so every itemset's (Σw, Σw²) — and from them
mean, variance and a Welch t — fall out of the same single mining pass
that counts support.

int64 addition is exact, but only while the totals fit. The worst-case
sum over ``n`` rows is ``n * max(|fixed|, fixed_sq)``; at the default
scale of 1e6, a score of magnitude ~1e3 squared over 10M rows already
exceeds 2**63 and earlier code silently wrapped around. This module is
the single shared encoder (used by :mod:`repro.core.continuous` and
:mod:`repro.rank`): it checks the bound up front and raises a clear
:class:`~repro.exceptions.ReproError` instead of corrupting results.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ReproError

#: Fixed-point scaling used to carry real-valued scores through the
#: integer channel accumulators without precision loss that matters.
SCALE = 1_000_000

#: Headroom bound for the worst-case int64 channel sum: we require the
#: sum to stay below 2**62 (half the int64 range), so even a pessimistic
#: accounting of rounding cannot push an accumulator over the edge.
_SUM_LIMIT = 2**62


def encode_weight_channels(
    weights: np.ndarray, scale: int = SCALE
) -> np.ndarray:
    """Encode per-row weights as (Σw, Σw²) fixed-point mining channels.

    Parameters
    ----------
    weights:
        Finite per-row real weights, shape ``(n_rows,)``.
    scale:
        Fixed-point multiplier (default :data:`SCALE`).

    Returns
    -------
    ``(n_rows, 2)`` int64 array: column 0 is ``round(w * scale)``,
    column 1 is ``round(w**2 * scale)``. Summing either column over any
    row subset is exact in int64 thanks to the overflow check.

    Raises
    ------
    ReproError
        If any weight is non-finite, or the worst-case channel sum
        ``n_rows * max(|fixed|, fixed_sq)`` could exceed the int64
        headroom bound. Center or standardize the scores (e.g.
        ``(w - w.mean()) / w.std()``) to shrink the magnitudes.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1:
        raise ReproError(
            f"weights must be one-dimensional, got shape {weights.shape}"
        )
    if not np.isfinite(weights).all():
        raise ReproError("weights must be finite")
    n_rows = weights.shape[0]
    peak = float(np.abs(weights).max(initial=0.0))
    # Check in float space *before* casting: the cast itself wraps
    # silently once round(w^2 * scale) passes 2**63.
    worst = max(peak, peak * peak) * float(scale) + 1.0
    if n_rows * worst > _SUM_LIMIT:
        raise ReproError(
            "fixed-point overflow: weights of magnitude up to "
            f"{peak:.6g} summed over {n_rows} rows exceed the int64 "
            "accumulator headroom; center or standardize the scores "
            "(e.g. subtract the mean and divide by the standard "
            "deviation) before exploring"
        )
    # One float buffer, rounded in place (``rint`` rounds half to even,
    # like ``np.round``) and cast into its column of the output.
    channels = np.empty((n_rows, 2), dtype=np.int64)
    buffer = np.multiply(weights, scale)
    channels[:, 0] = np.rint(buffer, out=buffer)
    np.multiply(weights, weights, out=buffer)
    buffer *= scale
    channels[:, 1] = np.rint(buffer, out=buffer)
    return channels


def decode_moments(
    sum_w: np.ndarray | float,
    sum_w_sq: np.ndarray | float,
    counts: np.ndarray | int,
    scale: int = SCALE,
) -> tuple[np.ndarray, np.ndarray]:
    """Recover (mean, variance) from fixed-point channel sums.

    Vectorized over aligned arrays; zero-count entries decode to NaN
    mean and zero variance. Variance is the population second moment
    ``E[w²] - E[w]²``, clipped at zero against fixed-point rounding.
    """
    sum_w = np.asarray(sum_w, dtype=np.float64)
    sum_w_sq = np.asarray(sum_w_sq, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.where(counts > 0, sum_w / scale / counts, np.nan)
        variance = np.where(
            counts > 0,
            np.maximum(sum_w_sq / scale / counts - mean * mean, 0.0),
            0.0,
        )
    return mean, variance
