"""Tests for the ``repro.rank`` subsystem and the shared fixed-point core.

Covers the weight models, the overflow-checked encoder (shared with the
continuous explorer), the rank explorer end to end on the planted
ranking dataset, backend/shard bit-identity, FDR integration through
``significant_patterns``, and the cache/worker retrofit of the
continuous explorer.
"""

import numpy as np
import pytest

from repro.core.continuous import ContinuousDivergenceExplorer
from repro.core.fixedpoint import SCALE, decode_moments, encode_weight_channels
from repro.core.items import Itemset
from repro.datasets import load
from repro.exceptions import MiningError, ReproError
from repro.fpm.cache import MiningCache
from repro.rank import (
    WEIGHT_MODELS,
    RankDivergenceExplorer,
    dataset_scores,
    model_scores,
    rank_positions,
    rank_weights,
)
from repro.tabular.table import Table


class TestRankWeights:
    def test_rank_positions_descending_stable(self):
        scores = np.array([0.5, 2.0, 0.5, 1.0])
        # 2.0 -> rank 1, 1.0 -> rank 2, then the tied 0.5s by row index.
        assert rank_positions(scores).tolist() == [3, 1, 4, 2]

    def test_exposure_is_log_discount(self):
        scores = np.array([3.0, 1.0, 2.0])
        weights = rank_weights(scores, "exposure")
        ranks = rank_positions(scores)
        assert np.array_equal(weights, 1.0 / np.log2(ranks + 1.0))
        assert weights[0] == 1.0  # rank 1

    def test_reciprocal_rank(self):
        scores = np.array([3.0, 1.0, 2.0])
        assert rank_weights(scores, "reciprocal_rank").tolist() == [
            1.0, 1.0 / 3.0, 0.5,
        ]

    def test_topk_membership(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        assert rank_weights(scores, "topk", k=2).tolist() == [0, 1, 0, 1]

    def test_topk_requires_k(self):
        with pytest.raises(ReproError, match="requires"):
            rank_weights(np.array([1.0, 2.0]), "topk")
        with pytest.raises(ReproError, match=">= 1"):
            rank_weights(np.array([1.0, 2.0]), "topk", k=0)

    def test_score_model_copies(self):
        scores = np.array([1.0, -2.0])
        weights = rank_weights(scores, "score")
        assert np.array_equal(weights, scores)
        weights[0] = 99.0
        assert scores[0] == 1.0

    def test_unknown_model_rejected(self):
        with pytest.raises(ReproError, match="unknown weight model"):
            rank_weights(np.array([1.0]), "borda")

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ReproError, match="finite"):
            rank_weights(np.array([1.0, np.nan]), "exposure")

    def test_model_list_is_documented_order(self):
        assert WEIGHT_MODELS == (
            "exposure", "topk", "reciprocal_rank", "score"
        )


class TestFixedPoint:
    def test_roundtrip_moments(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(0.0, 1.0, 500)
        channels = encode_weight_channels(weights)
        mean, var = decode_moments(
            channels[:, 0].sum(), channels[:, 1].sum(), len(weights)
        )
        assert float(mean) == pytest.approx(weights.mean(), abs=1e-5)
        assert float(var) == pytest.approx(weights.var(), abs=1e-4)

    def test_overflow_raises_clear_error(self):
        # 1e7 squared at scale 1e6 is 1e20 per row — far past int64.
        weights = np.full(1000, 1e7)
        with pytest.raises(ReproError, match="standardize"):
            encode_weight_channels(weights)

    def test_overflow_bound_counts_rows(self):
        # A magnitude that is fine for few rows must be rejected when
        # the row count alone could overflow the accumulator.
        weights = np.full(10, 1000.0)
        encode_weight_channels(weights)  # fits comfortably
        with pytest.raises(ReproError, match="overflow"):
            encode_weight_channels(np.full(10_000_000, 1000.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ReproError, match="finite"):
            encode_weight_channels(np.array([1.0, np.inf]))

    def test_zero_count_decodes_nan(self):
        mean, var = decode_moments(
            np.array([0, 5 * SCALE]), np.array([0, 5 * SCALE]),
            np.array([0, 5]),
        )
        assert np.isnan(mean[0]) and var[0] == 0.0
        assert mean[1] == pytest.approx(1.0)

    def test_continuous_explorer_shares_overflow_check(self):
        # Satellite: the continuous explorer used to wrap silently.
        table = Table.from_dict(
            {"a": ["x", "y"] * 500, "class": [0, 1] * 500}
        )
        explorer = ContinuousDivergenceExplorer(
            table, np.full(1000, 1e7), attributes=["a"]
        )
        with pytest.raises(ReproError, match="standardize"):
            explorer.explore(min_support=0.1)


@pytest.fixture(scope="module")
def ranking_data():
    return load("ranking", n_rows=6000)


@pytest.fixture(scope="module")
def rank_explorer(ranking_data):
    data = ranking_data
    scores = data.table.continuous("score").values
    return RankDivergenceExplorer(
        data.table, scores, attributes=data.attributes
    )


class TestRankExplorer:
    def test_weights_share_one_ranking(self, ranking_data, monkeypatch):
        import repro.rank.explorer as rank_explorer_module

        calls = []

        def counted(scores):
            calls.append(1)
            return rank_positions(scores)

        monkeypatch.setattr(rank_explorer_module, "rank_positions", counted)
        # Rounded scores add ties, which the stable ranking breaks by
        # row index.
        scores = np.round(ranking_data.table.continuous("score").values, 1)
        explorer = RankDivergenceExplorer(
            ranking_data.table, scores, attributes=ranking_data.attributes
        )
        for model in WEIGHT_MODELS:
            for k in (1, 250, 10_000) if model == "topk" else (None,):
                got = explorer.weights(model, k)
                want = rank_weights(scores, model, k=k)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (model, k)
        assert len(calls) == 1

    def test_score_length_mismatch_rejected(self, ranking_data):
        with pytest.raises(ReproError, match="length"):
            RankDivergenceExplorer(
                ranking_data.table, np.zeros(3),
                attributes=ranking_data.attributes,
            )

    def test_non_finite_scores_rejected(self, ranking_data):
        scores = np.zeros(ranking_data.n_rows)
        scores[0] = np.nan
        with pytest.raises(ReproError, match="finite"):
            RankDivergenceExplorer(
                ranking_data.table, scores,
                attributes=ranking_data.attributes,
            )

    def test_continuous_attribute_rejected(self, ranking_data):
        scores = np.zeros(ranking_data.n_rows)
        with pytest.raises(Exception, match="categorical"):
            RankDivergenceExplorer(
                ranking_data.table, scores, attributes=["score"]
            )

    def test_planted_subgroup_surfaces(self, rank_explorer):
        result = rank_explorer.explore("exposure", min_support=0.05)
        worst = result.top_k(1, by="divergence", ascending=True)[0]
        items = {str(i) for i in worst.itemset}
        assert "gender=f" in items and "age=young" in items
        assert worst.divergence < 0
        assert worst.t_statistic > 5

    def test_global_mean_matches_weights(self, rank_explorer):
        result = rank_explorer.explore("exposure", min_support=0.1)
        weights = rank_explorer.weights("exposure")
        assert result.global_mean == pytest.approx(weights.mean(), abs=1e-6)
        assert result.global_rate == result.global_mean

    def test_topk_metric_label_and_mean(self, rank_explorer):
        result = rank_explorer.explore("topk", min_support=0.1, topk=600)
        assert result.metric == "topk@600"
        n = rank_explorer.table.n_rows
        assert result.global_mean == pytest.approx(600 / n, abs=1e-6)

    def test_topk_without_k_rejected(self, rank_explorer):
        with pytest.raises(ReproError, match="requires"):
            rank_explorer.explore("topk", min_support=0.1)

    def test_record_fields_consistent(self, rank_explorer):
        result = rank_explorer.explore("exposure", min_support=0.1)
        for record in result.records()[:10]:
            assert record.rate == record.mean
            assert record.divergence == pytest.approx(
                record.mean - result.global_mean, abs=1e-12
            )
            assert record.variance >= 0
            got = result.record_for_key(result.key_of(record.itemset))
            assert got == record

    def test_unknown_pattern_raises_mining_error(self, rank_explorer):
        result = rank_explorer.explore("exposure", min_support=0.1)
        with pytest.raises(MiningError):
            result.record_for_key(frozenset({10_000}))

    def test_backends_bit_identical(self, rank_explorer):
        base = rank_explorer.explore(
            "exposure", min_support=0.1, algorithm="bitset", use_cache=False
        )
        for algorithm in ("fpgrowth", "eclat", "apriori"):
            other = rank_explorer.explore(
                "exposure", min_support=0.1, algorithm=algorithm,
                use_cache=False,
            )
            assert set(other.frequent) == set(base.frequent)
            for key in base.frequent:
                assert np.array_equal(
                    other.frequent.counts(key), base.frequent.counts(key)
                ), key
                assert other.divergence_or_zero(key) == \
                    base.divergence_or_zero(key)

    def test_sharded_bit_identical(self, rank_explorer):
        serial = rank_explorer.explore(
            "exposure", min_support=0.1, use_cache=False
        )
        for workers in (2, 4):
            sharded = rank_explorer.explore(
                "exposure", min_support=0.1, n_workers=workers,
                use_cache=False,
            )
            assert set(sharded.frequent) == set(serial.frequent)
            for key in serial.frequent:
                assert np.array_equal(
                    sharded.frequent.counts(key), serial.frequent.counts(key)
                ), key
                assert (
                    sharded.record_for_key(key).t_statistic
                    == serial.record_for_key(key).t_statistic
                ), key

    def test_mining_cache_reuses_runs(self, ranking_data):
        cache = MiningCache()
        data = ranking_data
        scores = data.table.continuous("score").values
        explorer = RankDivergenceExplorer(
            data.table, scores, attributes=data.attributes,
            mining_cache=cache,
        )
        first = explorer.explore("exposure", min_support=0.1)
        second = explorer.explore("exposure", min_support=0.1)
        assert second.frequent is first.frequent
        # A different weight model changes the channel fingerprint, so
        # it must mine fresh instead of aliasing the cached run.
        other = explorer.explore("reciprocal_rank", min_support=0.1)
        assert other.frequent is not first.frequent

    def test_lattice_analyses_work(self, rank_explorer):
        result = rank_explorer.explore("exposure", min_support=0.05)
        pattern = Itemset.parse("gender=f, age=young")
        shapley = result.shapley(pattern)
        assert set(shapley) == set(pattern)
        assert sum(shapley.values()) == pytest.approx(
            result.divergence_of(pattern), abs=1e-9
        )
        global_div = result.global_item_divergence()
        assert len(global_div) > 0
        assert result.corrective_items(3) is not None
        assert len(result.pruned(0.001)) <= len(result.records())

    def test_fdr_significant_patterns(self, rank_explorer):
        result = rank_explorer.explore("exposure", min_support=0.05)
        survivors = result.significant(alpha=0.05)
        assert 0 < len(survivors) <= len(result.records())
        top = {str(i) for r in survivors[:5] for i in r.itemset}
        assert "gender=f" in top and "age=young" in top


class TestScoring:
    def test_model_scores_are_probabilities(self):
        data = load("ranking", n_rows=2000)
        scores = dataset_scores(data, classifier="logistic", seed=0)
        assert scores.shape == (2000,)
        assert np.isfinite(scores).all()
        assert (scores >= 0).all() and (scores <= 1).all()

    def test_model_without_predict_proba_rejected(self):
        class Bare:
            pass

        with pytest.raises(ReproError, match="predict_proba"):
            model_scores(Bare(), np.zeros((3, 2)))

    def test_scores_feed_explorer(self):
        data = load("ranking", n_rows=2000)
        scores = dataset_scores(data, classifier="logistic", seed=0)
        explorer = RankDivergenceExplorer(
            data.table, scores, attributes=data.attributes
        )
        result = explorer.explore("score", min_support=0.1)
        assert result.metric == "score"
        assert np.isfinite(result.global_mean)


class TestContinuousRetrofit:
    def build(self, cache=None, n_workers=None):
        rng = np.random.default_rng(7)
        n = 400
        table = Table.from_dict(
            {
                "a": rng.integers(0, 3, n).tolist(),
                "b": rng.integers(0, 2, n).tolist(),
            }
        )
        scores = rng.normal(0.0, 1.0, n)
        return ContinuousDivergenceExplorer(
            table, scores, attributes=["a", "b"],
            mining_cache=cache, n_workers=n_workers,
        )

    def test_cache_reuses_mining_runs(self):
        explorer = self.build(cache=MiningCache())
        first = explorer.explore(min_support=0.1)
        second = explorer.explore(min_support=0.1)
        assert second.frequent is first.frequent

    def test_workers_bit_identical(self):
        serial = self.build().explore(min_support=0.1, use_cache=False)
        sharded = self.build(n_workers=2).explore(
            min_support=0.1, use_cache=False
        )
        assert set(sharded.frequent) == set(serial.frequent)
        for key in serial.frequent:
            assert np.array_equal(
                sharded.frequent.counts(key), serial.frequent.counts(key)
            ), key

    def test_deadline_and_cancel_accepted(self):
        from repro.resilience import CancelToken

        explorer = self.build()
        result = explorer.explore(
            min_support=0.1, deadline=30.0, cancel_token=CancelToken()
        )
        assert len(result.top_k(5)) > 0

    def test_cancelled_token_aborts(self):
        from repro.resilience import CancellationError, CancelToken

        token = CancelToken()
        token.cancel()
        with pytest.raises(CancellationError):
            self.build().explore(min_support=0.1, cancel_token=token)
