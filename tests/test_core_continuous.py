"""Tests for the continuous-outcome divergence extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.continuous import ContinuousDivergenceExplorer
from repro.core.fixedpoint import _SUM_LIMIT, SCALE
from repro.core.items import Itemset
from repro.exceptions import ReproError, SchemaError
from repro.rank import RankDivergenceResult
from repro.tabular.column import CategoricalColumn, ContinuousColumn
from repro.tabular.table import Table
from tests.oracles import continuous_result_reference


def make_table(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.integers(0, 2, n)
    h = rng.integers(0, 3, n)
    # scores are shifted up by +1.0 exactly in g=1
    scores = rng.normal(0.0, 0.5, n) + 1.0 * (g == 1)
    table = Table(
        [
            CategoricalColumn("g", g, [0, 1]),
            CategoricalColumn("h", h, [0, 1, 2]),
        ]
    )
    return table, scores, g


def in_key_order(frequent):
    """``(keys, count_matrix)`` of a mined table, rows sorted by key.

    Backends may emit rows in different orders; in key order two equal
    tables compare equal with ``np.array_equal``.
    """
    order = np.lexsort(frequent.keys.T[::-1])
    return frequent.keys[order], frequent.count_matrix[order]


class TestExploration:
    def test_planted_mean_shift_found(self):
        table, scores, g = make_table()
        explorer = ContinuousDivergenceExplorer(table, scores)
        result = explorer.explore(min_support=0.1)
        # Every top pattern contains the planted g=1 item (supersets of
        # it share the shift up to noise), and the g=1 record matches
        # the empirical mean shift exactly.
        for rec in result.top_k(4):
            assert ("g", 1) in {(i.attribute, i.value) for i in rec.itemset}
        planted = result.record(Itemset.from_pairs([("g", 1)]))
        assert planted.divergence == pytest.approx(
            scores[g == 1].mean() - scores.mean(), abs=1e-4
        )
        assert planted.t_statistic > 10

    def test_global_mean_exact(self):
        table, scores, _ = make_table()
        result = ContinuousDivergenceExplorer(table, scores).explore(0.1)
        assert result.global_mean == pytest.approx(scores.mean(), abs=1e-5)

    def test_subgroup_mean_and_variance(self):
        table, scores, g = make_table()
        result = ContinuousDivergenceExplorer(table, scores).explore(0.1)
        rec = result.record(Itemset.from_pairs([("g", 0)]))
        sub = scores[g == 0]
        assert rec.mean == pytest.approx(sub.mean(), abs=1e-4)
        assert rec.variance == pytest.approx(sub.var(), abs=1e-2)
        assert rec.support_count == int((g == 0).sum())

    def test_negative_scores_supported(self):
        table, scores, g = make_table()
        result = ContinuousDivergenceExplorer(table, -scores).explore(0.1)
        # Negating the scores flips the divergence sign exactly.
        planted = result.record(Itemset.from_pairs([("g", 1)]))
        assert planted.divergence == pytest.approx(
            -(scores[g == 1].mean() - scores.mean()), abs=1e-4
        )
        for rec in result.top_k(4, ascending=True):
            assert ("g", 1) in {(i.attribute, i.value) for i in rec.itemset}

    @pytest.mark.parametrize(
        "algorithm", ["fpgrowth", "apriori", "eclat", "bruteforce"]
    )
    def test_backends_agree(self, algorithm):
        table, scores, _ = make_table(n=400)
        base = ContinuousDivergenceExplorer(table, scores).explore(0.05)
        other = ContinuousDivergenceExplorer(table, scores).explore(
            0.05, algorithm=algorithm
        )
        base_keys, base_counts = in_key_order(base.frequent)
        other_keys, other_counts = in_key_order(other.frequent)
        assert np.array_equal(other_keys, base_keys)
        assert np.array_equal(other_counts, base_counts)


PIN_ATTRIBUTES = ["a", "b", "c"]
SCORE_KINDS = ["normal", "tied", "constant", "negative", "large"]
# (algorithm, n_workers): every serial backend, and the sharded engine.
BACKENDS = [
    ("bitset", None),
    ("fpgrowth", None),
    ("apriori", None),
    ("eclat", None),
    ("bruteforce", None),
    ("bitset", 2),
]


def pin_case(seed, n, kind):
    """A three-attribute table and scores of one kind.

    ``large`` scores peak just inside the fixed-point overflow bound.
    """
    rng = np.random.default_rng(seed)
    table = Table(
        [
            CategoricalColumn("a", rng.integers(0, 3, n), [0, 1, 2]),
            CategoricalColumn("b", rng.integers(0, 2, n), [0, 1]),
            CategoricalColumn("c", rng.integers(0, 4, n), [0, 1, 2, 3]),
        ]
    )
    if kind == "normal":
        scores = rng.normal(0.0, 1.0, n)
    elif kind == "tied":
        scores = np.round(rng.normal(0.0, 1.0, n), 1)
    elif kind == "constant":
        scores = np.full(n, rng.normal(0.0, 1.0))
    elif kind == "negative":
        scores = -50.0 * np.abs(rng.normal(0.0, 1.0, n))
    else:
        peak = 0.999 * np.sqrt((_SUM_LIMIT / n - 1.0) / SCALE)
        scores = rng.uniform(-1.0, 1.0, n) * peak
        scores[0] = peak
    return table, scores


def as_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestMatchesReference:
    """The columnar ``"score"`` table equals the per-record reference
    bit for bit, whatever the backend, shard plan and length cap."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(20, 200),
        kind=st.sampled_from(SCORE_KINDS),
        backend=st.sampled_from(BACKENDS),
        max_length=st.sampled_from([None, 1, 2]),
        min_support=st.sampled_from([0.02, 0.05, 0.1, 0.25]),
    )
    def test_bit_identical(
        self, seed, n, kind, backend, max_length, min_support
    ):
        table, scores = pin_case(seed, n, kind)
        algorithm, workers = backend
        result = ContinuousDivergenceExplorer(
            table, scores, n_workers=workers
        ).explore(
            min_support,
            algorithm=algorithm,
            max_length=max_length,
            use_cache=False,
        )
        frequent, global_mean, records = continuous_result_reference(
            table, scores, PIN_ATTRIBUTES, min_support, max_length
        )
        assert isinstance(result, RankDivergenceResult)
        assert result.metric == "score"
        keys, counts = in_key_order(result.frequent)
        want_keys, want_counts = in_key_order(frequent)
        assert np.array_equal(keys, want_keys)
        assert np.array_equal(counts, want_counts)
        assert as_bits(result.global_mean) == as_bits(global_mean)
        for key, record in zip(
            result.frequent, result.records(include_empty=True)
        ):
            want = records[key]
            got = [getattr(record, name) for name in want]
            assert np.array_equal(
                as_bits(got), as_bits(list(want.values()))
            ), (key, got, want)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(20, 200),
        factor=st.floats(1.01, 1e3),
    )
    def test_past_overflow_bound_raises(self, seed, n, factor):
        table, scores = pin_case(seed, n, "large")
        explorer = ContinuousDivergenceExplorer(table, scores * factor)
        with pytest.raises(ReproError, match="standardize"):
            explorer.explore(0.1)


class TestValidation:
    def test_score_length(self):
        table, scores, _ = make_table()
        with pytest.raises(ReproError):
            ContinuousDivergenceExplorer(table, scores[:10])

    def test_nonfinite_scores(self):
        table, scores, _ = make_table()
        scores[0] = float("inf")
        with pytest.raises(ReproError):
            ContinuousDivergenceExplorer(table, scores)

    def test_continuous_attribute_rejected(self):
        table = Table(
            [
                ContinuousColumn("v", [1.0, 2.0]),
            ]
        )
        with pytest.raises(SchemaError):
            ContinuousDivergenceExplorer(
                table, np.zeros(2), attributes=["v"]
            )

    def test_infrequent_pattern_lookup(self):
        table, scores, _ = make_table(n=300)
        result = ContinuousDivergenceExplorer(table, scores).explore(0.9)
        with pytest.raises(ReproError):
            result.record(Itemset.from_pairs([("g", 1), ("h", 0)]))


class TestLossDivergenceUseCase:
    """The natural application: model loss as the score (Slice Finder's
    setting expressed in DivExplorer's exhaustive framework)."""

    def test_loss_divergence_matches_error_divergence(self):
        from repro.core.divergence import DivergenceExplorer
        from repro.datasets import load

        data = load("compas", seed=0)
        truth = data.truth_array()
        pred = np.asarray(
            data.table.categorical("pred").values_as_objects()
        ).astype(bool)
        loss = (truth != pred).astype(float)
        attr_table = data.table.without_columns(["class", "pred"])
        cont = ContinuousDivergenceExplorer(attr_table, loss).explore(0.1)
        disc = DivergenceExplorer(
            data.table, "class", "pred"
        ).explore("error", min_support=0.1)
        # With 0/1 loss, mean-loss divergence == error-rate divergence.
        for key in disc.frequent:
            if len(key) == 0:
                continue
            itemset = disc.itemset_of(key)
            assert cont.divergence_of(itemset) == pytest.approx(
                disc.divergence_of(itemset), abs=1e-4
            )
