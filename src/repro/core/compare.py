"""Multi-classifier comparison over a shared itemset lattice.

The paper lists *model comparison* among the applications of subgroup
analysis (Sec. 1, citing MLCube and Slice Finder); Boxer (Gleicher et
al.) shows the interactive value of comparing N classifier result sets
over shared subgroups, and Kittler & Zor's *delta divergence* gives a
decision-cognizant incongruence measure between two classifiers. This
module provides both layers:

- :func:`explore_compare` is the shared-lattice engine: the (T, F, ⊥)
  outcome channels of every model are stacked into one channel matrix,
  the dataset is **mined once** (any backend: bitset, FP-growth,
  row-sharded), and one
  :class:`~repro.core.result.PatternDivergenceResult` per model is
  sliced out of the shared frequent-itemset table. Every per-model
  table is bit-identical to an independent
  ``DivergenceExplorer.explore`` of that model, but N models cost
  about one mining pass instead of N. Because every model is counted
  over the *same* frequent set, no pattern can be visible to one
  model's table and invisible to another's.
- :func:`compare_results` / :func:`regressions` align two divergence
  tables (shared-mine or independently mined) and rank the patterns
  whose behaviour changed. Alignment and statistics run as vectorized
  :class:`~repro.core.lattice_index.LatticeIndex` kernels; the
  historical dict walks are the test suite's oracles
  (``tests/oracles.py``), pinned bit-identical to these kernels.

Two historical blind spots are fixed here. First, the old loop walked
``result_a.frequent`` only, so a pattern frequent solely under model B
(possible whenever the two tables come from different supports or
different data) was silently invisible; both paths now take the *union*
of the keys and flag one-sided patterns via ``in_a``/``in_b``. Second,
``PatternShift.t_statistic`` was the unsigned Welch magnitude, so an
improvement and a regression of equal size were indistinguishable; it
is now signed (positive = B's subgroup rate above A's, the same
direction as ``shift``), with ``min_t`` applied to its absolute value.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.divergence import DivergenceExplorer, _class_array
from repro.core.items import Itemset
from repro.core.outcomes import BOTTOM, TRUE, outcome_channels, outcome_metric
from repro.core.result import PatternDivergenceResult
from repro.core.significance import welch_t_statistics_pair
from repro.exceptions import ReproError
from repro.fpm.miner import FrequentItemsets
from repro.obs import get_registry, span
from repro.resilience import CancelToken, Deadline, cancel_scope, checkpoint
from repro.tabular.table import Table

_NAN = float("nan")


@dataclass(frozen=True)
class PatternShift:
    """One pattern's change between two models.

    ``t_statistic`` is the *signed* Beta-posterior Welch statistic of
    the two subgroup rates (Sec. 3.3): positive when model B's rate
    exceeds model A's, i.e. the same sign as ``shift``.
    ``delta_divergence`` is the decision-cognizant incongruence score
    (see :func:`delta_divergence_score`). Patterns frequent in only one
    table carry NaN statistics on the missing side; ``in_a``/``in_b``
    say which side is populated.
    """

    itemset: Itemset
    divergence_a: float
    divergence_b: float
    rate_a: float
    rate_b: float
    t_statistic: float
    delta_divergence: float = _NAN
    in_a: bool = True
    in_b: bool = True

    @property
    def shift(self) -> float:
        """Signed change in divergence (B minus A)."""
        return self.divergence_b - self.divergence_a

    @property
    def one_sided(self) -> bool:
        """Whether the pattern is frequent in only one of the tables."""
        return not (self.in_a and self.in_b)

    def as_row(self) -> dict[str, object]:
        """JSON-ready row (floats raw; sanitize NaN at the boundary)."""
        return {
            "itemset": str(self.itemset),
            "divergence_a": self.divergence_a,
            "divergence_b": self.divergence_b,
            "shift": self.shift,
            "rate_a": self.rate_a,
            "rate_b": self.rate_b,
            "t": self.t_statistic,
            "delta_divergence": self.delta_divergence,
            "in_a": self.in_a,
            "in_b": self.in_b,
        }

    def __str__(self) -> str:
        if self.one_sided:
            side = "A" if self.in_a else "B"
            div = self.divergence_a if self.in_a else self.divergence_b
            return (
                f"({self.itemset}) only frequent under model {side} "
                f"(Δ {div:+.3f})"
            )
        return (
            f"({self.itemset}) Δ {self.divergence_a:+.3f} -> "
            f"{self.divergence_b:+.3f} (shift {self.shift:+.3f}, "
            f"t={self.t_statistic:+.1f}, δ={self.delta_divergence:.3f})"
        )


def delta_divergence_score(
    rate_a: float, divergence_a: float, rate_b: float, divergence_b: float
) -> float:
    """Decision-cognizant incongruence of two models on one subgroup.

    After Kittler & Zor's delta divergence: classifier disagreement
    only signals trouble when the models are *incongruent* about the
    direction of the anomaly. The score is the rate gap
    ``|rate_b - rate_a|``, gated to the decision-cognizant case where
    the divergences point in opposite directions (one model's subgroup
    behaviour sits above its global rate while the other's sits below);
    congruent subgroups — both better or both worse than their global
    rates — score 0. NaN when either side is unmeasurable.
    """
    if math.isnan(divergence_a) or math.isnan(divergence_b):
        return _NAN
    if divergence_a * divergence_b < 0.0:
        return abs(rate_b - rate_a)
    return 0.0


# ----------------------------------------------------------------------
# pairwise comparison of two divergence tables
# ----------------------------------------------------------------------


def _check_compatible(
    result_a: PatternDivergenceResult, result_b: PatternDivergenceResult
) -> None:
    if result_a.metric != result_b.metric:
        raise ReproError(
            f"cannot compare different metrics: "
            f"{result_a.metric!r} vs {result_b.metric!r}"
        )
    if result_a.catalog.attributes != result_b.catalog.attributes or (
        result_a.catalog.categories != result_b.catalog.categories
    ):
        raise ReproError("catalogs differ; explore the same schema first")


def _order_key(shift: PatternShift) -> tuple[int, float]:
    """Shared ordering contract of :func:`compare_results`.

    Measurable shifts first, by |shift| descending; one-sided patterns
    after, by the |divergence| of their populated side descending. Ties
    keep generation order (stable sorts on both paths): A's table order,
    then B-only patterns in B's table order.
    """
    if shift.one_sided:
        present = shift.divergence_a if shift.in_a else shift.divergence_b
        return (1, -abs(present))
    return (0, -abs(shift.shift))


class _AlignedPair(NamedTuple):
    """Vectorized alignment of two divergence tables.

    Measurable (present and defined on both sides) patterns come as
    parallel arrays in A's table order; one-sided patterns as row
    indices into their own table, in that table's order.
    """

    a_rows: np.ndarray
    b_rows: np.ndarray
    div_a: np.ndarray
    div_b: np.ndarray
    rate_a: np.ndarray
    rate_b: np.ndarray
    t: np.ndarray
    delta: np.ndarray
    only_a_rows: np.ndarray
    only_b_rows: np.ndarray
    rows_b_of_a: np.ndarray


def _aligned_pair(
    result_a: PatternDivergenceResult, result_b: PatternDivergenceResult
) -> _AlignedPair:
    """Align B's table to A's through B's key-to-row lookup.

    One batched ``searchsorted`` resolves every A-key in B (the mapping
    is the identity when both tables share their keys, as shared-mine
    siblings do); the complement of the matched B rows is the B-only
    side.
    """
    rows_b_of_a = result_b.frequent.rows_in(result_a.frequent)
    nonempty_a = result_a.length_vector() > 0
    matched = rows_b_of_a >= 0

    div_a_all = result_a.divergence_vector()
    div_b_all = result_b.divergence_vector()

    a_rows = np.flatnonzero(nonempty_a & matched)
    b_rows = rows_b_of_a[a_rows]
    da = div_a_all[a_rows]
    db = div_b_all[b_rows]
    measurable = ~np.isnan(da) & ~np.isnan(db)
    a_rows, b_rows = a_rows[measurable], b_rows[measurable]
    da, db = da[measurable], db[measurable]

    counts_a = result_a._count_matrix
    counts_b = result_b._count_matrix
    t = welch_t_statistics_pair(
        counts_b[b_rows, 1],
        counts_b[b_rows, 2],
        counts_a[a_rows, 1],
        counts_a[a_rows, 2],
    )
    ra = result_a._rates[a_rows]
    rb = result_b._rates[b_rows]
    delta = np.where(da * db < 0.0, np.abs(rb - ra), 0.0)

    only_a_rows = np.flatnonzero(nonempty_a & ~matched)
    only_a_rows = only_a_rows[~np.isnan(div_a_all[only_a_rows])]
    matched_b = np.zeros(len(result_b), dtype=bool)
    matched_b[rows_b_of_a[matched]] = True
    only_b_rows = np.flatnonzero(~matched_b & (result_b.length_vector() > 0))
    only_b_rows = only_b_rows[~np.isnan(div_b_all[only_b_rows])]

    return _AlignedPair(
        a_rows, b_rows, da, db, ra, rb, t, delta,
        only_a_rows, only_b_rows, rows_b_of_a,
    )


def _one_sided_shift(
    result: PatternDivergenceResult, row: int, in_a: bool
) -> PatternShift:
    div = float(result.divergence_vector()[row])
    rate = float(result._rates[row])
    return PatternShift(
        itemset=result.itemset_of(result.frequent.key_at(row)),
        divergence_a=div if in_a else _NAN,
        divergence_b=_NAN if in_a else div,
        rate_a=rate if in_a else _NAN,
        rate_b=_NAN if in_a else rate,
        t_statistic=_NAN,
        in_a=in_a,
        in_b=not in_a,
    )


def _two_sided_shift(
    result_a: PatternDivergenceResult,
    result_b: PatternDivergenceResult,
    pair: _AlignedPair,
    j: int,
) -> PatternShift:
    return PatternShift(
        itemset=result_a.itemset_of(result_a.frequent.key_at(int(pair.a_rows[j]))),
        divergence_a=float(pair.div_a[j]),
        divergence_b=float(pair.div_b[j]),
        rate_a=float(pair.rate_a[j]),
        rate_b=float(pair.rate_b[j]),
        t_statistic=float(pair.t[j]),
        delta_divergence=float(pair.delta[j]),
    )


def compare_results(
    result_a: PatternDivergenceResult,
    result_b: PatternDivergenceResult,
    k: int = 10,
    min_t: float = 0.0,
) -> list[PatternShift]:
    """Patterns whose divergence shifted most between two explorations.

    Both explorations must use the same metric and compatible catalogs
    (same attributes and categories). The walk covers the *union* of
    the two frequent sets: patterns frequent on both sides are ranked
    by |shift| with a signed Welch ``t`` (positive = B's subgroup rate
    above A's; ``min_t`` gates on |t|), and patterns frequent on only
    one side — invisible to the pre-union implementation — follow,
    flagged via ``in_a``/``in_b`` and ranked by the |divergence| of
    their populated side. Alignment and statistics run as vectorized
    ``LatticeIndex`` kernels; the output is bit-identical to the
    historical dict walk (to the last ulp for subgroups up to ~2·10^5
    rows, see
    :func:`~repro.core.significance.welch_t_statistics_pair`).
    """
    _check_compatible(result_a, result_b)
    pair = _aligned_pair(result_a, result_b)
    kept = np.flatnonzero(np.abs(pair.t) >= min_t)
    shift = pair.div_b[kept] - pair.div_a[kept]

    n_two = kept.size
    n_only_a = pair.only_a_rows.size
    group = np.concatenate(
        [
            np.zeros(n_two, dtype=np.int8),
            np.ones(n_only_a + pair.only_b_rows.size, dtype=np.int8),
        ]
    )
    magnitude = np.concatenate(
        [
            -np.abs(shift),
            -np.abs(result_a.divergence_vector()[pair.only_a_rows]),
            -np.abs(result_b.divergence_vector()[pair.only_b_rows]),
        ]
    )
    order = np.lexsort((magnitude, group))[: max(int(k), 0)]

    shifts: list[PatternShift] = []
    for position in order:
        position = int(position)
        if position < n_two:
            shifts.append(
                _two_sided_shift(result_a, result_b, pair, int(kept[position]))
            )
        elif position < n_two + n_only_a:
            row = int(pair.only_a_rows[position - n_two])
            shifts.append(_one_sided_shift(result_a, row, in_a=True))
        else:
            row = int(pair.only_b_rows[position - n_two - n_only_a])
            shifts.append(_one_sided_shift(result_b, row, in_a=False))
    return shifts


def regressions(
    result_a: PatternDivergenceResult,
    result_b: PatternDivergenceResult,
    k: int = 10,
    min_t: float = 2.0,
) -> list[PatternShift]:
    """Patterns where model B diverges *more* than model A, significantly.

    The "did my new model get worse anywhere?" query: patterns with
    ``|Δ_b| > |Δ_a|`` passing the |t| gate, largest increase first.
    Filtering happens in one vectorized pass over the aligned table;
    one-sided patterns (no measurable shift) never qualify.
    """
    _check_compatible(result_a, result_b)
    pair = _aligned_pair(result_a, result_b)
    kept = np.flatnonzero(
        (np.abs(pair.t) >= min_t)
        & (np.abs(pair.div_b) > np.abs(pair.div_a))
    )
    score = -(np.abs(pair.div_b[kept]) - np.abs(pair.div_a[kept]))
    order = np.argsort(score, kind="stable")[: max(int(k), 0)]
    return [
        _two_sided_shift(result_a, result_b, pair, int(kept[int(i)]))
        for i in order
    ]


def delta_columns(
    result_a: PatternDivergenceResult, result_b: PatternDivergenceResult
) -> dict[str, np.ndarray]:
    """The full vectorized delta table, aligned with A's table rows.

    Returns parallel float64 arrays — one entry per row of
    ``result_a.frequent`` — named ``divergence_a``,
    ``divergence_b``, ``shift``, ``rate_a``, ``rate_b``, ``t`` (signed
    Welch) and ``delta_divergence``, plus the int64 ``row_b`` mapping
    into B's table (``-1`` where the pattern is not frequent under B).
    Entries are NaN wherever the pattern is one-sided or unmeasurable;
    the empty pattern's row is all-NaN.
    """
    _check_compatible(result_a, result_b)
    pair = _aligned_pair(result_a, result_b)
    n = len(result_a)
    columns: dict[str, np.ndarray] = {
        name: np.full(n, _NAN)
        for name in (
            "divergence_a", "divergence_b", "shift", "rate_a", "rate_b",
            "t", "delta_divergence",
        )
    }
    columns["divergence_a"][pair.a_rows] = pair.div_a
    columns["divergence_b"][pair.a_rows] = pair.div_b
    columns["shift"][pair.a_rows] = pair.div_b - pair.div_a
    columns["rate_a"][pair.a_rows] = pair.rate_a
    columns["rate_b"][pair.a_rows] = pair.rate_b
    columns["t"][pair.a_rows] = pair.t
    columns["delta_divergence"][pair.a_rows] = pair.delta
    if pair.only_a_rows.size:
        columns["divergence_a"][pair.only_a_rows] = (
            result_a.divergence_vector()[pair.only_a_rows]
        )
        columns["rate_a"][pair.only_a_rows] = result_a._rates[pair.only_a_rows]
    columns["row_b"] = pair.rows_b_of_a
    return columns


# ----------------------------------------------------------------------
# the shared-lattice multi-model engine
# ----------------------------------------------------------------------


class _ChannelLayout(NamedTuple):
    """How the per-model outcome channels were stacked for mining.

    ``paired`` carries the (T, F) pair of every model (2N channels).
    ``derived`` exploits metrics whose BOTTOM mask depends on the
    ground truth alone (fpr, fnr, error, accuracy, tpr, tnr, ... —
    every model shares it): only the N TRUE channels plus at most one
    shared BOTTOM channel are mined, and each model's F count is
    derived exactly as ``n - T - ⊥``. Fewer channels means less
    per-itemset popcount work, which is what keeps N-model mining close
    to single-model cost.
    """

    kind: str
    n_models: int
    has_bottom: bool


def _stack_channels(
    outcomes: Sequence[np.ndarray],
) -> tuple[np.ndarray, _ChannelLayout]:
    bottoms = [outcome == BOTTOM for outcome in outcomes]
    if all(np.array_equal(bottoms[0], b) for b in bottoms[1:]):
        blocks = [outcome == TRUE for outcome in outcomes]
        has_bottom = bool(bottoms[0].any())
        if has_bottom:
            blocks.append(bottoms[0])
        channels = np.column_stack(blocks).astype(np.int64)
        return channels, _ChannelLayout("derived", len(outcomes), has_bottom)
    channels = np.hstack([outcome_channels(o) for o in outcomes])
    return channels, _ChannelLayout("paired", len(outcomes), False)


def _model_counts(
    frequent: FrequentItemsets, model_index: int, layout: _ChannelLayout
) -> FrequentItemsets:
    """Slice one model's ``[n, T, F]`` table out of the shared counts."""
    matrix = frequent.count_matrix
    if layout.kind == "paired":
        t_col = 1 + 2 * model_index
        triples = matrix[:, [0, t_col, t_col + 1]]
    else:
        n_col = matrix[:, 0]
        t = matrix[:, 1 + model_index]
        bottom = matrix[:, 1 + layout.n_models] if layout.has_bottom else 0
        # T, F and ⊥ partition each itemset's coverage, so F is exact.
        triples = np.column_stack([n_col, t, n_col - t - bottom])
    return frequent.with_counts(triples)


class CompareResult:
    """N per-model divergence tables over one shared mined lattice.

    Obtained from :func:`explore_compare`. Every per-model
    :class:`PatternDivergenceResult` covers the *same* frequent-itemset
    table (mined once over the stacked outcome channels) and is
    bit-identical to an independent exploration of that model; the
    shared :class:`~repro.core.lattice_index.LatticeIndex` is built
    once and reused by every pairwise view.
    """

    def __init__(
        self,
        results: dict[str, PatternDivergenceResult],
        metric: str,
        min_support: float,
    ) -> None:
        self.results = results
        self.model_names = list(results)
        self.metric = metric
        self.min_support = min_support
        self.baseline = self.model_names[0]

    def __getitem__(self, name: str) -> PatternDivergenceResult:
        return self.result(name)

    def result(self, name: str) -> PatternDivergenceResult:
        """The divergence table of one model."""
        try:
            return self.results[name]
        except KeyError:
            raise ReproError(
                f"unknown model {name!r}; compared: {self.model_names}"
            ) from None

    @property
    def n_patterns(self) -> int:
        """Number of frequent patterns (shared by every model)."""
        return len(self.results[self.baseline]) - 1

    @property
    def global_rates(self) -> dict[str, float]:
        """Dataset-wide metric rate per model."""
        return {
            name: result.global_rate for name, result in self.results.items()
        }

    def lattice_index(self):
        """The shared lattice index, installed on every per-model table."""
        index = self.results[self.baseline].lattice_index()
        for result in self.results.values():
            result._lattice_index = index
        return index

    def shifts(
        self,
        model: str,
        baseline: str | None = None,
        k: int = 10,
        min_t: float = 0.0,
    ) -> list[PatternShift]:
        """:func:`compare_results` of ``baseline -> model``."""
        self.lattice_index()
        return compare_results(
            self.result(baseline or self.baseline),
            self.result(model),
            k=k,
            min_t=min_t,
        )

    def regressions(
        self,
        model: str,
        baseline: str | None = None,
        k: int = 10,
        min_t: float = 2.0,
    ) -> list[PatternShift]:
        """:func:`regressions` of ``baseline -> model``."""
        self.lattice_index()
        return regressions(
            self.result(baseline or self.baseline),
            self.result(model),
            k=k,
            min_t=min_t,
        )

    def delta_table(
        self, model: str, baseline: str | None = None
    ) -> dict[str, np.ndarray]:
        """:func:`delta_columns` of ``baseline -> model``."""
        self.lattice_index()
        return delta_columns(
            self.result(baseline or self.baseline), self.result(model)
        )

    def __repr__(self) -> str:
        return (
            f"CompareResult(metric={self.metric!r}, "
            f"models={self.model_names}, patterns={self.n_patterns}, "
            f"min_support={self.min_support})"
        )


def _normalize_models(
    table: Table,
    true_column: str,
    models: Mapping[str, object] | Sequence[str],
) -> tuple[list[str], dict[str, np.ndarray], set[str]]:
    """Resolve the ``models`` argument into named prediction arrays.

    Accepts a mapping of name -> (column name | 0/1 array) or a plain
    sequence of column names. Returns the ordered names, the boolean
    prediction arrays, and the set of table columns consumed as class
    or prediction columns (excluded from the default analysis
    attributes).
    """
    if isinstance(models, Mapping):
        pairs = list(models.items())
    else:
        pairs = [(str(m), m) for m in models]
    if len(pairs) < 2:
        raise ReproError(
            f"explore_compare needs at least two models, got {len(pairs)}"
        )
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        raise ReproError(f"duplicate model names in {names}")
    consumed = {true_column}
    predictions: dict[str, np.ndarray] = {}
    for name, spec in pairs:
        if isinstance(spec, str):
            consumed.add(spec)
            predictions[name] = _class_array(table, spec)
        else:
            arr = np.asarray(spec)
            if arr.ndim != 1 or arr.shape[0] != table.n_rows:
                raise ReproError(
                    f"model {name!r} predictions must be a 1-D array "
                    f"covering all {table.n_rows} rows, got shape {arr.shape}"
                )
            predictions[name] = arr
    return names, predictions, consumed


def explore_compare(
    table: Table,
    true_column: str,
    models: Mapping[str, object] | Sequence[str],
    metric: str = "fpr",
    min_support: float = 0.1,
    attributes: Sequence[str] | None = None,
    algorithm: str = "bitset",
    max_length: int | None = None,
    n_workers: int | None = None,
    mining_cache=None,
    deadline: Deadline | float | None = None,
    cancel_token: CancelToken | None = None,
) -> CompareResult:
    """Compare N models' divergence tables with a single mining pass.

    Parameters
    ----------
    table:
        The discretized dataset shared by every model.
    true_column:
        Ground-truth column (boolean or 0/1 valued).
    models:
        At least two models: a mapping of model name to either a
        prediction column name or a 0/1 prediction array (the
        ``mitigation`` module's ``predict()`` output plugs in directly
        for pre/post comparisons), or a plain sequence of prediction
        column names.
    metric, min_support, algorithm, max_length, n_workers:
        As in :meth:`~repro.core.divergence.DivergenceExplorer.explore`.
    attributes:
        Analysis attributes; defaults to every categorical column
        except the class column and the model prediction columns.
    mining_cache:
        Optional shared :class:`~repro.fpm.cache.MiningCache`; a fresh
        private one by default.
    deadline, cancel_token:
        Cooperative-cancellation controls, as in ``explore``.

    Returns
    -------
    A :class:`CompareResult` whose per-model tables are bit-identical
    to N independent ``DivergenceExplorer.explore`` runs, at roughly
    the cost of one: the itemset lattice is mined once, only the
    per-model channel tallies scale with N — and for metrics whose
    BOTTOM mask is truth-determined those reduce to one TRUE channel
    per model plus a single shared BOTTOM channel.
    """
    with cancel_scope(deadline=deadline, token=cancel_token):
        checkpoint("compare.explore")
        names, predictions, consumed = _normalize_models(
            table, true_column, models
        )
        if attributes is None:
            attributes = [
                n for n in table.categorical_names if n not in consumed
            ]
        else:
            attributes = list(attributes)
            overlap = consumed & set(attributes)
            if overlap:
                raise ReproError(
                    "class and model prediction columns cannot be "
                    f"analysis attributes: {sorted(overlap)}"
                )
        explorer = DivergenceExplorer(
            table,
            true_column,
            None,
            attributes=attributes,
            mining_cache=mining_cache,
            n_workers=n_workers,
        )
        fn = outcome_metric(metric)
        truth = explorer._truth
        with span("compare.explore") as compare_span:
            outcomes = [fn(truth, predictions[name]) for name in names]
            channels, layout = _stack_channels(outcomes)
            dataset = explorer.item_layer.dataset(channels)
            frequent = explorer.mining_cache.mine(
                dataset,
                min_support,
                algorithm=algorithm,
                max_length=max_length,
                n_workers=n_workers,
            )
            checkpoint("compare.result")
            results: dict[str, PatternDivergenceResult] = {}
            for index, name in enumerate(names):
                per_model = _model_counts(frequent, index, layout)
                results[name] = PatternDivergenceResult(
                    per_model, explorer.catalog, metric, min_support
                )
        compare_span.count("models", len(names))
        registry = get_registry()
        registry.counter("compare.explores").inc()
        registry.counter("compare.models_compared").inc(len(names))
        return CompareResult(results, metric, min_support)


# ----------------------------------------------------------------------
# CLI / server model-spec resolution
# ----------------------------------------------------------------------

_CLASSIFIER_PREFIX = "classifier:"


def resolve_models(
    table: Table,
    true_column: str,
    specs: Sequence[str],
    attributes: Sequence[str] | None = None,
    seed: int = 0,
) -> dict[str, np.ndarray | str]:
    """Resolve user-facing model specs into :func:`explore_compare` input.

    Each spec is either a 0/1 prediction column of ``table`` or
    ``classifier:<name>`` — the named classifier from the dataset
    registry (``forest``, ``tree``, ``logistic``, ``naive-bayes``)
    trained on a 70% split of the analysis attributes, exactly like
    :func:`repro.datasets.registry.attach_predictions` does for bundled
    data. This is the shared grammar of the CLI ``--models`` flag and
    the server's ``models`` query parameter.
    """
    resolved: dict[str, np.ndarray | str] = {}
    for spec in specs:
        if spec.startswith(_CLASSIFIER_PREFIX):
            kind = spec[len(_CLASSIFIER_PREFIX):]
            resolved[spec] = _train_model(
                table, true_column, specs, attributes, kind, seed
            )
        else:
            if spec not in table:
                raise ReproError(
                    f"unknown model column {spec!r}; pass a prediction "
                    f"column of the data or '{_CLASSIFIER_PREFIX}<name>'"
                )
            resolved[spec] = spec
    return resolved


def _train_model(
    table: Table,
    true_column: str,
    specs: Sequence[str],
    attributes: Sequence[str] | None,
    kind: str,
    seed: int,
) -> np.ndarray:
    """Train one ``classifier:<kind>`` spec on the analysis attributes."""
    from repro.datasets.registry import classifier_factory
    from repro.ml.splits import train_test_split

    reserved = {true_column} | {
        s for s in specs if not s.startswith(_CLASSIFIER_PREFIX)
    }
    if attributes is None:
        attributes = [
            n for n in table.categorical_names if n not in reserved
        ]
    else:
        attributes = [a for a in attributes if a not in reserved]
    if not attributes:
        raise ReproError("no analysis attributes available to train on")
    x = table.encoded_matrix(attributes)
    y = _class_array(table, true_column)
    train_idx, _ = train_test_split(
        table.n_rows, test_fraction=0.3, seed=seed, stratify=y
    )
    model = classifier_factory(kind)(seed)
    model.fit(x[train_idx], y[train_idx])
    return model.predict(x).astype(bool)
