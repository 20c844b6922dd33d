"""The rank-divergence table: mean-weight statistics per subgroup.

:class:`RankDivergenceResult` specializes
:class:`~repro.core.result.PatternDivergenceResult` for real-valued
weight outcomes. The miners carry the fixed-point sufficient statistics
(Σw, Σw², count) per frequent itemset; this class decodes them into a
fully **vectorized** table of means, variances, divergences (subgroup
mean − global mean) and Welch t-statistics — single array expressions
over the count matrix, not a per-record loop.

Because the class keeps the parent's columnar contract (the
``frequent`` key table and its row lookup, the ``_count_matrix``
columns, ``divergence_vector``, ``lattice_index``), every lattice
analysis — global item divergence, redundancy pruning, corrective
items, Shapley explanations, FDR control — works unchanged on ranking
outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fixedpoint import decode_moments
from repro.core.items import Itemset
from repro.core.result import PatternDivergenceResult
from repro.core.significance import mean_divergence_t_statistics


@dataclass(frozen=True)
class RankPatternRecord:
    """One subgroup with its mean-weight statistics.

    ``divergence`` is the subgroup mean minus the global mean weight;
    ``t_statistic`` the Welch magnitude and ``t_signed`` its directional
    form. ``rate`` aliases ``mean`` so rate-keyed rankings and
    serializations work uniformly across outcome families.
    """

    itemset: Itemset
    support: float
    support_count: int
    mean: float
    variance: float
    divergence: float
    t_statistic: float
    t_signed: float = float("nan")

    @property
    def rate(self) -> float:
        """Alias of ``mean`` (the outcome statistic of this family)."""
        return self.mean

    @property
    def length(self) -> int:
        """Number of items in the pattern."""
        return len(self.itemset)


class RankDivergenceResult(PatternDivergenceResult):
    """All frequent subgroups with their exposure/rank divergence.

    Not constructed directly — obtained from
    :meth:`repro.rank.RankDivergenceExplorer.explore`. ``metric`` names
    the weight model (e.g. ``"exposure"`` or ``"topk@10"``).
    """

    def _derive_statistics(self) -> None:
        """Decode the fixed-point moment sums instead of Boolean rates.

        Overrides the parent's single derivation hook (see
        :meth:`~repro.core.result.PatternDivergenceResult._derive_statistics`),
        so the count matrix is decoded exactly once — columns are
        (count, Σw_fixed, Σw²_fixed) — in one vectorized shot.
        """
        totals = self.frequent.totals
        g_mean, g_var = decode_moments(totals[1], totals[2], totals[0])
        self.global_mean = float(g_mean)
        self.global_variance = float(g_var)
        counts = self._count_matrix
        means, variances = decode_moments(
            counts[:, 1], counts[:, 2], counts[:, 0]
        )
        self._means = means
        self._variances = variances
        # The statistic of this family is the mean weight.
        self._rates = means
        self._div_vector = means - self.global_mean
        # Boolean totals are meaningless for weight channels.
        self.t_total = self.f_total = 0
        self.global_rate = self.global_mean

    # ------------------------------------------------------------------

    def t_statistics_vector(self, signed: bool = False) -> np.ndarray:
        """Welch t of every subgroup mean vs. the global mean (cached)."""
        if self._t_stats_signed is None:
            self._t_stats_signed = mean_divergence_t_statistics(
                self._div_vector,
                self._variances,
                self._count_matrix[:, 0],
                self.global_variance,
                self.n_rows,
                signed=True,
            )
            self._t_stats = np.abs(self._t_stats_signed)
        return self._t_stats_signed if signed else self._t_stats

    def _records_at(self, rows: np.ndarray) -> list[RankPatternRecord]:
        counts = self._count_matrix
        t_stats = self.t_statistics_vector()
        t_signed = self.t_statistics_vector(signed=True)
        return [
            RankPatternRecord(
                itemset=self.itemset_of(key),
                support=counts[row, 0] / self.n_rows,
                support_count=int(counts[row, 0]),
                mean=float(self._means[row]),
                variance=float(self._variances[row]),
                divergence=float(self._div_vector[row]),
                t_statistic=float(t_stats[row]),
                t_signed=float(t_signed[row]),
            )
            for row, key in zip(rows.tolist(), self.frequent.keys_at(rows))
        ]

    def __repr__(self) -> str:
        return (
            f"RankDivergenceResult(metric={self.metric!r}, "
            f"patterns={len(self)}, min_support={self.min_support}, "
            f"global_mean={self.global_mean:.4f})"
        )
