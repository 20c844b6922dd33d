"""Divergence of a real-valued outcome: the ``"score"`` weight model.

The paper defines divergence for Boolean outcome functions and leaves
other statistics as future work (Sec. 7). For a real-valued
per-instance score (a regression residual, a model loss, a probability)
the statistic is the subgroup's *mean* score, and divergence is that
mean minus the global mean. This is the ``"score"`` weight model of
:class:`~repro.rank.RankDivergenceExplorer`: the miners carry the
fixed-point (Σ score, Σ score²) channels, and the result is a
:class:`~repro.rank.RankDivergenceResult` with ``metric == "score"``
holding mean, variance and Welch t of every frequent subgroup.
"""

from __future__ import annotations

from repro.rank.explorer import RankDivergenceExplorer
from repro.rank.result import RankDivergenceResult
from repro.resilience import CancelToken, Deadline


class ContinuousDivergenceExplorer(RankDivergenceExplorer):
    """Mean-score divergence over all frequent subgroups.

    Takes the arguments of :class:`~repro.rank.RankDivergenceExplorer`
    (``table``, ``scores``, ``attributes``, ``mining_cache``,
    ``n_workers``); :meth:`explore` always runs the ``"score"`` model.
    """

    def explore(
        self,
        min_support: float = 0.1,
        algorithm: str = "bitset",
        max_length: int | None = None,
        use_cache: bool = True,
        deadline: Deadline | float | None = None,
        cancel_token: CancelToken | None = None,
        n_workers: int | None = None,
    ) -> RankDivergenceResult:
        """Mine all frequent subgroups and their mean-score divergence.

        The options are those of
        :meth:`repro.rank.RankDivergenceExplorer.explore`.
        """
        return super().explore(
            "score",
            min_support,
            algorithm=algorithm,
            max_length=max_length,
            use_cache=use_cache,
            deadline=deadline,
            cancel_token=cancel_token,
            n_workers=n_workers,
        )
