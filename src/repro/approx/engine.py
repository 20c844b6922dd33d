"""Approximate divergence results and the progressive refinement driver.

:class:`ApproxResult` is a :class:`~repro.core.result.PatternDivergenceResult`
mined on a row sample, extended with Beta-posterior credible intervals
on every divergence (finite-population-corrected, so they collapse to
the point estimate as the sample approaches the dataset) and with
rank-stability analysis: a rank in the top-k is *stable* when its
credible interval is separated from the interval of everything ranked
below it, i.e. no refinement can displace it at the requested
confidence.

:func:`progressive_explore` is the anytime driver: it mines a small
seeded sample, checks top-k stability, and doubles the sample in
resilience-checkpointed rounds until the ranking is guaranteed or the
sample is the full dataset — at which point the result *is* the exact
``explore`` result, bit-identical by construction.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from statistics import NormalDist

import numpy as np

from repro.core.result import PatternDivergenceResult
from repro.core.significance import beta_moments
from repro.exceptions import ReproError
from repro.fpm.miner import FrequentItemsets
from repro.fpm.transactions import ItemCatalog
from repro.obs import get_registry, span
from repro.resilience import CancelToken, Deadline, cancel_scope, checkpoint


def _z_for(confidence: float) -> float:
    """Two-sided normal quantile of a central ``confidence`` interval."""
    if not (0.0 < confidence < 1.0) or not math.isfinite(confidence):
        raise ReproError(
            f"confidence must be in (0, 1), got {confidence!r}"
        )
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


class ApproxResult(PatternDivergenceResult):
    """A sampled divergence table with credible intervals.

    Behaves exactly like an exact result for every downstream analysis
    (the count table simply describes fewer rows); additionally carries
    the sampling frame and per-pattern uncertainty. ``n_rows`` is the
    *sample* size; :attr:`total_rows` is the full dataset.
    """

    def __init__(
        self,
        frequent: FrequentItemsets,
        catalog: ItemCatalog,
        metric: str,
        min_support: float,
        *,
        total_rows: int,
        confidence: float = 0.95,
        sample_seed: int | None = 0,
        rounds: int = 1,
    ) -> None:
        super().__init__(frequent, catalog, metric, min_support)
        self._z = _z_for(confidence)
        if total_rows < self.n_rows:
            raise ReproError(
                f"total_rows {total_rows} smaller than sample {self.n_rows}"
            )
        self.total_rows = int(total_rows)
        self.confidence = float(confidence)
        self.sample_seed = sample_seed
        self.rounds = rounds
        self._ci: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def sample_rows(self) -> int:
        """Rows the table was mined on (alias of ``n_rows`` for clarity)."""
        return self.n_rows

    @property
    def approximate(self) -> bool:
        """Whether the table describes a strict subset of the dataset."""
        return self.n_rows < self.total_rows

    # ------------------------------------------------------------------
    # credible intervals
    # ------------------------------------------------------------------

    def _finite_population_factor(self) -> float:
        """Variance shrinkage for sampling without replacement.

        ``(N - n) / (N - 1)`` — 1 for a vanishing sampling fraction, 0
        at the full dataset, so intervals collapse onto the (then
        exact) point estimates as refinement completes.
        """
        n, total = self.n_rows, self.total_rows
        return max(0.0, (total - n) / max(total - 1, 1))

    def ci_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row ``(ci_low, ci_high)`` on the divergence estimates.

        Central credible intervals at :attr:`confidence` from the
        normal approximation of the Beta posteriors (paper Eq. 3): the
        divergence variance is the sum of the subgroup's and the
        dataset's posterior variances (they are computed on disjoint
        information scales, the same independence assumption as the
        Welch statistic), scaled by the finite-population factor.
        All-BOTTOM rows (undefined rate) stay NaN.
        """
        if self._ci is None:
            t_col = self._count_matrix[:, 1].astype(np.float64)
            f_col = self._count_matrix[:, 2].astype(np.float64)
            total = t_col + f_col
            var = (
                (t_col + 1.0)
                * (f_col + 1.0)
                / ((total + 2.0) ** 2 * (total + 3.0))
            )
            _, var_d = beta_moments(self.t_total, self.f_total)
            fpc = self._finite_population_factor()
            half = self._z * np.sqrt((var + var_d) * fpc)
            center = self._rates - self.global_rate
            self._ci = (center - half, center + half)
        return self._ci

    def _rows_of(self, keys: Sequence[frozenset[int]]) -> np.ndarray:
        rows = self.frequent.rows_of(keys)
        if (rows < 0).any():
            missing = keys[int(np.argmax(rows < 0))]
            raise ReproError(f"pattern {set(missing)} is not in the sampled table")
        return rows

    def ci_for_key(self, key: frozenset[int]) -> tuple[float, float]:
        """``(ci_low, ci_high)`` of one pattern by internal key."""
        low, high = self.ci_bounds()
        row = self._rows_of([frozenset(key)])[0]
        return float(low[row]), float(high[row])

    # ------------------------------------------------------------------
    # rank stability
    # ------------------------------------------------------------------

    def stable_flags_for_keys(
        self, keys: Sequence[frozenset[int]], beyond: float = -np.inf
    ) -> list[bool]:
        """Stability of each position of a ranked key list.

        Position ``i`` is stable when its ``ci_low`` weakly dominates
        the highest ``ci_high`` anywhere below it — no sample
        refinement can promote a lower-ranked pattern above it at the
        result's confidence. ``beyond`` is the highest ``ci_high`` of
        the ranked patterns after the list; with none, the last
        position is compared against nothing and is stable by
        convention. NaN intervals are never stable and never dominate.
        """
        if not keys:
            return []
        low, high = self.ci_bounds()
        rows = self._rows_of(keys)
        lows = low[rows]
        highs = np.append(np.nan_to_num(high[rows], nan=-np.inf), beyond)
        # Highest upper bound strictly below each position.
        below = np.maximum.accumulate(highs[::-1])[::-1][1:]
        with np.errstate(invalid="ignore"):
            flags = lows >= below
        return [bool(f) and not math.isnan(lows[i]) for i, f in enumerate(flags)]

    def stable_ranks(self, k: int = 10, by: str = "divergence") -> list[bool]:
        """Which of the current top-k ranks are already CI-separated.

        Rank ``i`` is stable when its interval dominates every
        lower-ranked pattern *in the whole table* — not just the
        displayed k — so the k-th flag genuinely certifies membership.
        Returns one flag per displayed rank (may be shorter than ``k``
        when fewer patterns exist). A non-approximate result (sample ==
        dataset) is exact: every rank is stable. Patterns whose sampled
        rate is undefined (all-BOTTOM in the sample) are unrankable and
        excluded, as in :meth:`top_k`. Only the top k are ranked; the
        rest of the table enters through one ``max`` of ``ci_high``.
        """
        ranked = self.top_k(k=min(k, len(self)), by=by)
        if not self.approximate or not ranked:
            return [True] * len(ranked)
        keys = [self.key_of(r.itemset) for r in ranked]
        # The rankable rows below the top k, as top_k selects them.
        rest = (self.length_vector() > 0) & ~np.isnan(self.statistic_vector(by))
        rest[self._rows_of(keys)] = False
        highs = self.ci_bounds()[1][rest]
        beyond = np.nan_to_num(highs, nan=-np.inf).max(initial=-np.inf)
        return self.stable_flags_for_keys(keys, beyond)

    def topk_converged(self, k: int = 10, by: str = "divergence") -> bool:
        """Whether the top-k ranking is guaranteed at this confidence."""
        if not self.approximate:
            return True
        flags = self.stable_ranks(k, by)
        return bool(flags) and all(flags)

    def as_meta(self, k: int = 10) -> dict[str, object]:
        """Approximation metadata for serializations (server payloads)."""
        return {
            "approximate": self.approximate,
            "sample_rows": self.sample_rows,
            "total_rows": self.total_rows,
            "confidence": self.confidence,
            "rounds": self.rounds,
            "stable_ranks": self.stable_ranks(k),
        }

    def __repr__(self) -> str:
        return (
            f"ApproxResult(metric={self.metric!r}, patterns={len(self)}, "
            f"sample_rows={self.sample_rows}/{self.total_rows}, "
            f"confidence={self.confidence}, rounds={self.rounds})"
        )


def progressive_explore(
    explorer,
    metric: str = "fpr",
    min_support: float = 0.1,
    *,
    k: int = 10,
    confidence: float = 0.95,
    initial_rows: int | None = None,
    sample_seed: int | None = 0,
    algorithm: str = "bitset",
    max_length: int | None = None,
    use_cache: bool = True,
    n_workers: int | None = None,
    deadline: Deadline | float | None = None,
    cancel_token: CancelToken | None = None,
    stop_when_converged: bool = True,
    on_round: Callable[[PatternDivergenceResult], None] | None = None,
) -> PatternDivergenceResult:
    """Anytime exploration: sample, check top-k stability, double, repeat.

    Runs :meth:`DivergenceExplorer.explore` on a seeded sample and keeps
    doubling it (nested draws — every round extends the previous one)
    in cooperative rounds separated by ``approx.round`` checkpoints, so
    a deadline or cancel token aborts *between* rounds with the latest
    answer recoverable via ``on_round``. Terminates when the top-k
    ranking is CI-guaranteed (unless ``stop_when_converged=False``) or
    when the sample reaches the dataset — the returned result is then
    the plain exact result, bit-identical to ``explore`` and cacheable
    as such.
    """
    total = explorer.table.n_rows
    target = initial_rows if initial_rows is not None else None
    if target is None:
        from repro.approx.sampler import auto_sample_rows

        target = auto_sample_rows(total)
    registry = get_registry()
    rounds = 0
    with cancel_scope(deadline=deadline, token=cancel_token):
        with span("approx.progressive"):
            while True:
                checkpoint("approx.round")
                rounds += 1
                result = explorer.explore(
                    metric,
                    min_support=min_support,
                    algorithm=algorithm,
                    max_length=max_length,
                    use_cache=use_cache,
                    n_workers=n_workers,
                    sample=target,
                    confidence=confidence,
                    sample_seed=sample_seed,
                )
                if isinstance(result, ApproxResult):
                    result.rounds = rounds
                if on_round is not None:
                    on_round(result)
                if not getattr(result, "approximate", False):
                    return result
                if stop_when_converged and result.topk_converged(k):
                    return result
                registry.counter("approx.refinements").inc()
                # Double the *achieved* sample, not the request: block
                # granularity rounds requests up, and doubling the
                # request alone could stall inside one block.
                target = min(total, max(result.sample_rows * 2, target * 2))
