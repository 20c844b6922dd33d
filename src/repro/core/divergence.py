"""The DivExplorer algorithm (paper Sec. 5, Algorithm 1).

:class:`DivergenceExplorer` wires everything together: it encodes the
outcome function as one-hot channels, runs an outcome-augmented frequent
pattern miner (the packed-bitmap ``"bitset"`` backend by default;
FP-growth, Apriori, ECLAT and brute force optionally) and returns a
:class:`~repro.core.result.PatternDivergenceResult` with the divergence
of *all* frequent itemsets. The exploration is sound and complete up to
the support threshold (Thm. 5.1), which is what enables global
divergence and corrective-item analysis downstream.

The explorer groups its rows once (:class:`~repro.fpm.transactions.
ItemLayer`): when the encoded attribute rows repeat enough, every metric
mines the distinct rows, with the row multiplicity as one more
bit-sliced channel, and gets the same table as over every row.

Mining runs are memoized per explorer through a
:class:`~repro.fpm.cache.MiningCache`, so repeated explorations of the
same configuration (Shapley sweeps, pruning sweeps, the app server) pay
the mining cost once; a run at support ``s`` also serves any later
request at ``s' >= s`` by filtering.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.outcomes import outcome_channels, outcome_metric
from repro.core.result import PatternDivergenceResult
from repro.exceptions import ReproError, SchemaError
from repro.fpm.cache import MiningCache
from repro.fpm.miner import mine_frequent
from repro.fpm.transactions import ItemCatalog, ItemLayer, TransactionDataset
from repro.resilience import CancelToken, Deadline, cancel_scope, checkpoint
from repro.tabular.table import Table


class DivergenceExplorer:
    """Explore classifier divergence over all frequent data subgroups.

    Parameters
    ----------
    table:
        The discretized dataset. Every analysis attribute must be
        categorical; use :func:`repro.tabular.discretize_table` first if
        the data has continuous columns.
    true_column:
        Name of the ground-truth column (boolean or 0/1 valued).
    pred_column:
        Name of the prediction column. May be omitted when only
        ground-truth rates (metric ``"posr"``) are analyzed.
    attributes:
        The analysis attributes. Defaults to every categorical column
        except the class columns.
    mining_cache:
        Cache for completed mining runs; a fresh private
        :class:`~repro.fpm.cache.MiningCache` by default. Pass a shared
        instance to pool cached runs across explorers of the same data.
    n_workers:
        Default worker count for mining runs: ``None``/``1`` serial,
        ``0`` auto (sharded only for large datasets), ``>= 2`` row-
        sharded across that many processes (:mod:`repro.fpm.sharded`).
        Sharded results are bit-identical to serial ones, so this is
        purely a performance knob. Overridable per :meth:`explore` call.
    """

    def __init__(
        self,
        table: Table,
        true_column: str,
        pred_column: str | None = None,
        attributes: Sequence[str] | None = None,
        mining_cache: MiningCache | None = None,
        n_workers: int | None = None,
    ) -> None:
        self.table = table
        self.true_column = true_column
        self.pred_column = pred_column
        self.n_workers = n_workers
        self.mining_cache = mining_cache if mining_cache is not None else MiningCache()
        # One item layer for every metric (built at the first explore),
        # and per metric its outcome array with the dataset built from
        # it, so channel sums and fingerprints survive across calls.
        self._layer: ItemLayer | None = None
        self._datasets: dict[str, tuple[np.ndarray, TransactionDataset]] = {}
        # Progressive-sampling state: one block permutation per seed and
        # one sampled dataset per (metric, rows, seed), so repeated
        # sampled requests (server auto mode, refinement rounds) reuse
        # the sample's packed bitmaps and its mining-cache fingerprint.
        self._sample_designs: dict[tuple[int, int | None], object] = {}
        self._sampled_datasets: dict[
            tuple[str, int, int | None], TransactionDataset
        ] = {}
        self._truth = _class_array(table, true_column)
        self._pred = _class_array(table, pred_column) if pred_column else None

        reserved = {true_column, pred_column} - {None}
        if attributes is None:
            attributes = [
                n for n in table.categorical_names if n not in reserved
            ]
        else:
            attributes = list(attributes)
            overlap = reserved & set(attributes)
            if overlap:
                raise SchemaError(
                    f"class columns cannot be analysis attributes: {sorted(overlap)}"
                )
        if not attributes:
            raise SchemaError("no analysis attributes available")
        bad = [n for n in attributes if not table.column(n).is_categorical]
        if bad:
            raise SchemaError(
                f"attributes must be categorical (discretize first): {bad}"
            )
        self.attributes = attributes
        self.catalog = ItemCatalog(
            attributes, [table.categorical(n).categories for n in attributes]
        )
        self._matrix = table.encoded_matrix(attributes)

    # ------------------------------------------------------------------

    def explore(
        self,
        metric: str = "fpr",
        min_support: float = 0.1,
        algorithm: str = "bitset",
        max_length: int | None = None,
        use_cache: bool = True,
        deadline: Deadline | float | None = None,
        cancel_token: CancelToken | None = None,
        n_workers: int | None = None,
        sample: float | int | str | None = None,
        confidence: float = 0.95,
        sample_seed: int | None = 0,
    ) -> PatternDivergenceResult:
        """Run Algorithm 1 and return the full divergence table.

        Parameters
        ----------
        metric:
            One of the built-in outcome metrics
            (:data:`repro.core.outcomes.OUTCOME_METRICS`), e.g. ``"fpr"``,
            ``"fnr"``, ``"error"``, ``"accuracy"``, ``"posr"``.
        min_support:
            The support threshold ``s`` — the single algorithm parameter.
        algorithm:
            FPM backend: ``"bitset"`` (default), ``"fpgrowth"``,
            ``"apriori"``, ``"eclat"`` or ``"bruteforce"``. All produce
            identical results; they differ only in speed.
        max_length:
            Optional cap on itemset length (all lengths by default).
        use_cache:
            Serve repeated configurations from :attr:`mining_cache`
            (including monotone reuse: a cached run at support ``s``
            answers any ``s' >= s``). Disable to force a fresh mining
            run, e.g. when benchmarking.
        deadline:
            Optional wall-clock budget (seconds or
            :class:`~repro.resilience.Deadline`). The mining loops
            checkpoint cooperatively and raise
            :class:`~repro.resilience.DeadlineExceeded` when it
            expires mid-exploration. Adds to (never replaces) any
            ambient :func:`~repro.resilience.cancel_scope`.
        cancel_token:
            Optional :class:`~repro.resilience.CancelToken` another
            thread can trigger to abort the exploration cooperatively
            (raises :class:`~repro.resilience.OperationCancelled`).
        n_workers:
            Per-call override of the explorer's default worker count
            (``None`` keeps the default; ``1`` forces serial, ``0``
            auto, ``>= 2`` row-sharded). Results are identical either
            way — cached runs are shared across worker counts.
        sample:
            Mine a seeded row sample instead of the full dataset: a
            fraction in ``(0, 1)``, an integral row count ``> 1``, or
            ``"auto"`` (:func:`repro.approx.auto_sample_rows`). Returns
            an :class:`~repro.approx.ApproxResult` carrying credible
            intervals and rank-stability flags; a sample covering every
            row falls through to the (bit-identical) exact path.
        confidence:
            Credible-interval mass for sampled results, in ``(0, 1)``.
            Ignored on the exact path.
        sample_seed:
            Seed of the sample draw (shared RNG convention with the
            synthetic dataset generators). Same seed + larger sample =
            nested draw, which is what the refinement driver exploits.
        """
        workers = n_workers if n_workers is not None else self.n_workers
        with cancel_scope(deadline=deadline, token=cancel_token):
            checkpoint("explore")
            dataset = self._dataset_for(metric)
            if sample is not None:
                sampled = self._sampled_dataset(
                    metric, dataset.n_rows, sample, sample_seed
                )
                if sampled is not None:
                    return self._explore_sampled(
                        sampled,
                        dataset.n_rows,
                        metric,
                        min_support,
                        algorithm,
                        max_length,
                        use_cache,
                        workers,
                        confidence,
                        sample_seed,
                    )
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
            checkpoint("explore.result")
            return PatternDivergenceResult(
                frequent, self.catalog, metric, min_support
            )

    def _sampled_dataset(
        self,
        metric: str,
        n_rows: int,
        sample: float | int | str,
        seed: int | None,
    ) -> TransactionDataset | None:
        """The sampled dataset for a ``sample=`` spec (cached per round).

        Returns ``None`` when the resolved sample covers every row. The
        sample is drawn from the original rows, never from distinct
        ones: its rows and outcome channels are gathered straight from
        the encoded matrix and the metric's outcome array, so a grouped
        explorer never builds a whole-table dataset of original rows.
        Designs and gathered datasets are cached so refinement rounds
        and repeated server requests pay the gather once.
        """
        from repro.approx.sampler import SampleDesign, resolve_sample_rows

        rows = resolve_sample_rows(sample, n_rows)
        design_key = (n_rows, seed)
        design = self._sample_designs.get(design_key)
        if design is None:
            design = SampleDesign(n_rows, seed)
            self._sample_designs[design_key] = design
        actual = design.rows_for(rows)
        if actual >= n_rows:
            return None
        cache_key = (metric, actual, seed)
        sampled = self._sampled_datasets.get(cache_key)
        if sampled is None:
            from repro.obs import span

            outcome = self._datasets[metric][0]
            with span("approx.sample"):
                index = design.row_index(rows)
                sampled = TransactionDataset(
                    self._matrix[index],
                    self.catalog,
                    outcome_channels(outcome[index]),
                )
            self._sampled_datasets[cache_key] = sampled
        return sampled

    def _explore_sampled(
        self,
        sampled: TransactionDataset,
        total_rows: int,
        metric: str,
        min_support: float,
        algorithm: str,
        max_length: int | None,
        use_cache: bool,
        workers: int | None,
        confidence: float,
        sample_seed: int | None,
    ) -> "ApproxResult":
        """Mine a sampled dataset and wrap it with credible intervals."""
        from repro.approx.engine import ApproxResult
        from repro.obs import get_registry

        if use_cache:
            frequent = self.mining_cache.mine(
                sampled,
                min_support,
                algorithm=algorithm,
                max_length=max_length,
                n_workers=workers,
            )
        else:
            frequent = mine_frequent(
                sampled,
                min_support,
                algorithm=algorithm,
                max_length=max_length,
                n_workers=workers,
            )
        checkpoint("explore.result")
        get_registry().counter("approx.rounds").inc()
        return ApproxResult(
            frequent,
            self.catalog,
            metric,
            min_support,
            total_rows=total_rows,
            confidence=confidence,
            sample_seed=sample_seed,
        )

    @property
    def item_layer(self) -> ItemLayer:
        """The rows every metric mines: distinct rows when they compress."""
        if self._layer is None:
            self._layer = ItemLayer(self._matrix, self.catalog, group=True)
        return self._layer

    def _dataset_for(self, metric: str) -> TransactionDataset:
        """The transaction dataset for ``metric``, reused across calls.

        Reuse keeps the channel sums and the cache fingerprint warm.
        The cached instance is revalidated against a freshly computed
        outcome array, so re-registering a custom metric under the same
        name cannot serve stale outcomes.
        """
        outcome = self.outcome_array(metric)
        cached = self._datasets.get(metric)
        if cached is None or not np.array_equal(cached[0], outcome):
            dataset = self.item_layer.dataset(outcome_channels(outcome))
            cached = self._datasets[metric] = (outcome, dataset)
        return cached[1]

    def outcome_array(self, metric: str) -> np.ndarray:
        """Evaluate the named outcome function on every instance."""
        fn = outcome_metric(metric)
        if self._pred is None:
            if metric not in ("posr",):
                raise ReproError(
                    f"metric {metric!r} needs a prediction column; "
                    "only 'posr' works without one"
                )
            pred = self._truth  # unused by posr but required by signature
        else:
            pred = self._pred
        return fn(self._truth, pred)


def _class_array(table: Table, name: str) -> np.ndarray:
    """Extract a boolean class array from a 0/1 or boolean column."""
    col = table.column(name)
    if col.is_continuous:
        values = np.asarray(table.continuous(name).values)
    else:
        values = np.asarray(table.categorical(name).values_as_objects())
    try:
        as_float = values.astype(float)
    except (TypeError, ValueError):
        raise SchemaError(
            f"class column {name!r} must be boolean or 0/1, got {values[:3]!r}"
        ) from None
    uniq = np.unique(as_float)
    if not np.all(np.isin(uniq, [0.0, 1.0])):
        raise SchemaError(
            f"class column {name!r} must be boolean or 0/1, got values {uniq[:5]}"
        )
    return as_float.astype(bool)
