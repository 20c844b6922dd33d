"""Exploration driver for ranking/score outcomes.

:class:`RankDivergenceExplorer` is the ranking counterpart of
:class:`~repro.core.divergence.DivergenceExplorer`: it derives a
per-instance weight vector from the ranking scores (see
:mod:`repro.rank.weights`), encodes it as overflow-checked fixed-point
(Σw, Σw²) channels and runs the outcome-augmented miners — any backend,
serial or row-sharded — then decodes the sufficient statistics into a
vectorized :class:`~repro.rank.result.RankDivergenceResult`.

The explorer groups its rows once (:class:`~repro.fpm.transactions.
ItemLayer`). A ranking pool has few attributes over many candidates, so
its encoded rows repeat heavily: every weight model then sums its
channels per distinct row and mines the distinct rows, with the row
multiplicity as one more bit-sliced channel.

Mining runs are memoized through a
:class:`~repro.fpm.cache.MiningCache`; the dataset fingerprint hashes
the channel values, so different weight models (or different top-k
sizes) can never alias each other's cache entries.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.explorer_base import ExplorerBase
from repro.core.fixedpoint import encode_weight_channels
from repro.exceptions import ReproError
from repro.fpm.cache import MiningCache
from repro.fpm.miner import mine_frequent
from repro.fpm.transactions import TransactionDataset
from repro.obs import get_registry
from repro.rank.result import RankDivergenceResult
from repro.rank.weights import rank_positions, rank_weights
from repro.resilience import CancelToken, Deadline, cancel_scope, checkpoint
from repro.tabular.table import Table


class RankDivergenceExplorer(ExplorerBase):
    """Explore exposure/rank divergence over all frequent subgroups.

    Parameters
    ----------
    table:
        Discretized dataset (analysis attributes categorical).
    scores:
        Per-instance ranking scores (length ``table.n_rows``), e.g. a
        recommender's relevance scores or ``predict_proba`` outputs.
        Higher score = better rank.
    attributes:
        Analysis attributes; defaults to all categorical columns.
    mining_cache:
        Cache for completed mining runs; a fresh private
        :class:`~repro.fpm.cache.MiningCache` by default.
    n_workers:
        Default worker count for mining runs: ``None``/``1`` serial,
        ``0`` auto, ``>= 2`` row-sharded (:mod:`repro.fpm.sharded`).
        Sharded results are bit-identical to serial ones. Overridable
        per :meth:`explore` call.
    """

    def __init__(
        self,
        table: Table,
        scores: np.ndarray,
        attributes: Sequence[str] | None = None,
        mining_cache: MiningCache | None = None,
        n_workers: int | None = None,
    ) -> None:
        scores = np.asarray(scores, dtype=float)
        if scores.shape != (table.n_rows,):
            raise ReproError(
                f"scores must have length {table.n_rows}, got {scores.shape}"
            )
        if not np.isfinite(scores).all():
            raise ReproError("scores must be finite")
        self.scores = scores
        super().__init__(table, attributes, mining_cache, n_workers)
        # Rank positions of the scores: one stable argsort, computed at
        # the first rank-based weight model and shared by all of them.
        self._ranks: np.ndarray | None = None
        # One dataset per (weight_model, topk) on the item layer: the
        # channel sums and the mining-cache fingerprint stay warm across
        # explore() calls.
        self._datasets: dict[tuple[str, int | None], TransactionDataset] = {}

    # ------------------------------------------------------------------

    def explore(
        self,
        weight_model: str = "exposure",
        min_support: float = 0.1,
        topk: int | None = None,
        algorithm: str = "bitset",
        max_length: int | None = None,
        use_cache: bool = True,
        deadline: Deadline | float | None = None,
        cancel_token: CancelToken | None = None,
        n_workers: int | None = None,
    ) -> RankDivergenceResult:
        """Mine all frequent subgroups and their rank divergence.

        Parameters
        ----------
        weight_model:
            One of :data:`repro.rank.weights.WEIGHT_MODELS`:
            ``"exposure"`` (default), ``"topk"``, ``"reciprocal_rank"``
            or ``"score"``.
        min_support:
            The support threshold ``s``.
        topk:
            Top-list size for the ``topk`` model (required there,
            ignored elsewhere).
        algorithm, max_length, use_cache, deadline, cancel_token,
        n_workers:
            Exactly as in
            :meth:`repro.core.divergence.DivergenceExplorer.explore`.
        """
        workers = n_workers if n_workers is not None else self.n_workers
        with cancel_scope(deadline=deadline, token=cancel_token):
            checkpoint("rank.explore")
            dataset, metric = self._dataset_for(weight_model, topk)
            if use_cache:
                frequent = self.mining_cache.mine(
                    dataset,
                    min_support,
                    algorithm=algorithm,
                    max_length=max_length,
                    n_workers=workers,
                )
            else:
                frequent = mine_frequent(
                    dataset,
                    min_support,
                    algorithm=algorithm,
                    max_length=max_length,
                    n_workers=workers,
                )
            checkpoint("rank.explore.result")
            get_registry().counter("rank.explorations").inc()
            return RankDivergenceResult(
                frequent, self.catalog, metric, min_support
            )

    def weights(self, weight_model: str, topk: int | None = None) -> np.ndarray:
        """The per-instance weight vector a model assigns to this data."""
        if weight_model != "score" and self._ranks is None:
            self._ranks = rank_positions(self.scores)
        return rank_weights(
            self.scores,
            weight_model,
            k=topk if weight_model == "topk" else None,
            ranks=self._ranks,
        )

    def _dataset_for(
        self, weight_model: str, topk: int | None
    ) -> tuple[TransactionDataset, str]:
        """The transaction dataset for a weight model (cached per model).

        The metric label folds the top-k size in (``topk@10``), so
        result tables are self-describing.
        """
        key = (weight_model, topk if weight_model == "topk" else None)
        dataset = self._datasets.get(key)
        if dataset is None:
            channels = encode_weight_channels(self.weights(weight_model, topk))
            dataset = self.item_layer.dataset(channels)
            self._datasets[key] = dataset
        metric = (
            f"topk@{int(topk)}" if weight_model == "topk" else weight_model
        )
        return dataset, metric
