"""Divergence-drift scoring between consecutive windows.

Consecutive windows of a stationary stream produce near-identical
divergence tables; drift shows up as (a) a per-itemset divergence shift
that is both large and statistically significant, or (b) churn of the
top-k ranking. Itemsets are aligned across windows by their canonical
key (the frozenset of global item ids — identical across windows
because the catalog is fixed for the stream's lifetime).

Per aligned itemset, the shift test compares the two windows' outcome
counts with the same Beta-posterior Welch machinery the paper uses for
within-window significance (:mod:`repro.core.significance`): posterior
moments of each window's rate, Welch t between them, gated by a
divergence-delta threshold. Alerts are structured records
(:class:`DriftAlert`) ready for the CLI table and the server's
``/api/monitor/alerts`` payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.result import PatternDivergenceResult
from repro.exceptions import ReproError
from repro.resilience import checkpoint


@dataclass(frozen=True)
class DriftConfig:
    """Alert thresholds for windowed drift detection.

    ``min_delta`` is the minimum absolute change of an itemset's
    divergence between consecutive windows (the primary
    ``alert_threshold`` knob); ``min_t`` the minimum Welch t between the
    two windows' posterior rates (suppresses small-sample noise);
    ``churn_threshold`` the minimum top-k churn fraction for a
    ranking-level alert; ``top_k`` the ranking depth churn is measured
    over. ``max_alerts_per_window`` caps shift alerts per window pair
    (strongest first) so a regime change cannot flood the alert log.
    """

    min_delta: float = 0.15
    min_t: float = 3.0
    churn_threshold: float = 0.6
    top_k: int = 10
    max_alerts_per_window: int = 20

    def __post_init__(self) -> None:
        if not math.isfinite(self.min_delta) or self.min_delta < 0:
            raise ReproError(f"min_delta must be >= 0, got {self.min_delta}")
        if not math.isfinite(self.min_t) or self.min_t < 0:
            raise ReproError(f"min_t must be >= 0, got {self.min_t}")
        if self.churn_threshold < 0:
            raise ReproError(
                f"churn_threshold must be >= 0, got {self.churn_threshold}"
            )
        if self.top_k < 1:
            raise ReproError(f"top_k must be >= 1, got {self.top_k}")


@dataclass(frozen=True)
class DriftAlert:
    """One structured drift alert.

    ``kind`` is ``"divergence_shift"`` (per-itemset, ``itemset`` names
    the subgroup) or ``"rank_churn"`` (window-level, ``itemset`` is
    ``None`` and ``churn`` carries the churned fraction of the top-k).
    ``window_index`` is the index of the *newer* window of the pair.
    """

    kind: str
    window_index: int
    itemset: str | None = None
    key: frozenset[int] | None = field(default=None, repr=False)
    prev_divergence: float = float("nan")
    cur_divergence: float = float("nan")
    delta: float = float("nan")
    t_statistic: float = float("nan")
    prev_support: float = float("nan")
    cur_support: float = float("nan")
    churn: float = float("nan")

    def as_dict(self) -> dict:
        """JSON-ready representation (non-finite floats stay; the
        server's sanitizer nulls them at the edge)."""
        return {
            "kind": self.kind,
            "window": self.window_index,
            "itemset": self.itemset,
            "items": sorted(self.key) if self.key is not None else None,
            "prev_divergence": self.prev_divergence,
            "cur_divergence": self.cur_divergence,
            "delta": self.delta,
            "t": self.t_statistic,
            "prev_support": self.prev_support,
            "cur_support": self.cur_support,
            "churn": self.churn,
        }


def rank_churn(
    prev: PatternDivergenceResult,
    cur: PatternDivergenceResult,
    k: int,
) -> float:
    """Fraction of the top-k divergent itemsets replaced between windows.

    ``0`` when the rankings agree as sets, ``1`` when they are disjoint.
    The comparison depth is capped by the shorter ranking; two windows
    with no ranked patterns have zero churn.
    """
    prev_top = [prev.key_of(r.itemset) for r in prev.top_k(k)]
    cur_top = [cur.key_of(r.itemset) for r in cur.top_k(k)]
    depth = min(len(prev_top), len(cur_top))
    if depth == 0:
        return 0.0
    overlap = len(set(prev_top[:depth]) & set(cur_top[:depth]))
    return 1.0 - overlap / depth


def score_drift(
    prev: PatternDivergenceResult,
    cur: PatternDivergenceResult,
    window_index: int,
    config: DriftConfig | None = None,
) -> list[DriftAlert]:
    """Score window ``window_index`` against its predecessor.

    Returns divergence-shift alerts (strongest delta first, capped at
    ``config.max_alerts_per_window``) followed by an optional rank-churn
    alert. Itemsets are aligned by canonical key; itemsets frequent in
    only one window contribute to churn but not to shift alerts (no
    paired counts to test).
    """
    config = config or DriftConfig()
    checkpoint("stream.drift")
    # One batched lookup aligns the windows: prev's row of every
    # non-empty cur row, in cur's table order.
    prev_rows = prev.frequent.rows_in(cur.frequent)
    shared = np.flatnonzero((cur.length_vector() > 0) & (prev_rows >= 0))
    prev_rows = prev_rows[shared]
    alerts: list[DriftAlert] = []
    if shared.size:
        prev_counts = prev.frequent.count_matrix[prev_rows, :3].astype(np.float64)
        cur_counts = cur.frequent.count_matrix[shared, :3].astype(np.float64)
        prev_div = prev.divergence_vector(zero_nan=True)[prev_rows]
        cur_div = cur.divergence_vector(zero_nan=True)[shared]
        delta = cur_div - prev_div
        t_stat = _welch_between_windows(prev_counts, cur_counts)
        hit = (np.abs(delta) >= config.min_delta) & (t_stat >= config.min_t)
        order = np.argsort(-np.abs(delta))
        picked = [i for i in order.tolist() if hit[i]]
        picked = picked[: config.max_alerts_per_window]
        for i in picked:
            key = cur.frequent.key_at(int(shared[i]))
            alerts.append(
                DriftAlert(
                    kind="divergence_shift",
                    window_index=window_index,
                    itemset=str(cur.itemset_of(key)),
                    key=key,
                    prev_divergence=float(prev_div[i]),
                    cur_divergence=float(cur_div[i]),
                    delta=float(delta[i]),
                    t_statistic=float(t_stat[i]),
                    prev_support=float(prev_counts[i, 0] / prev.n_rows),
                    cur_support=float(cur_counts[i, 0] / cur.n_rows),
                )
            )
    churn = rank_churn(prev, cur, config.top_k)
    if churn >= config.churn_threshold:
        alerts.append(
            DriftAlert(
                kind="rank_churn",
                window_index=window_index,
                churn=churn,
            )
        )
    return alerts


def _welch_between_windows(
    prev_counts: np.ndarray, cur_counts: np.ndarray
) -> np.ndarray:
    """Vectorized Welch |t| between two windows' posterior rates.

    ``*_counts`` are ``(N, 3)`` float arrays of ``[n, T, F]`` per
    aligned itemset; element ``i`` equals
    ``welch_t_statistic(*beta_moments(T_prev, F_prev),
    *beta_moments(T_cur, F_cur))`` exactly.
    """
    mu_p, var_p = _beta_moments_vec(prev_counts[:, 1], prev_counts[:, 2])
    mu_c, var_c = _beta_moments_vec(cur_counts[:, 1], cur_counts[:, 2])
    diff = mu_c - mu_p
    denom = np.sqrt(var_p + var_c)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(denom == 0.0, np.where(diff != 0.0, np.inf, 0.0),
                       np.abs(diff) / denom)
    return out


def _beta_moments_vec(
    k_pos: np.ndarray, k_neg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vector form of :func:`repro.core.significance.beta_moments`."""
    total = k_pos + k_neg
    mean = (k_pos + 1.0) / (total + 2.0)
    variance = (
        (k_pos + 1.0) * (k_neg + 1.0) / ((total + 2.0) ** 2 * (total + 3.0))
    )
    return mean, variance
