"""Units for progressive sampled exploration (``repro.approx``).

Covers the block sampler, the seeded sample design, the spec
validators at every edge (params, CLI exit codes), the credible
intervals and rank-stability flags of ``ApproxResult``, and the shared
RNG convention between the dataset generators and the sampler.
"""

import math

import numpy as np
import pytest

from repro.approx import (
    AUTO_SAMPLE_ROWS,
    ApproxResult,
    SampleDesign,
    auto_sample_rows,
    progressive_explore,
    resolve_sample_rows,
    sample_dataset,
)
from repro.cli import main
from repro.core.divergence import DivergenceExplorer
from repro.datasets.sampling import seeded_generator
from repro.exceptions import ReproError
from repro.params import validate_confidence, validate_sample
from repro.fpm.transactions import ItemCatalog, TransactionDataset
from repro.tabular.table import Table


def make_dataset(n_rows=1024, n_attrs=4, card=3, seed=5) -> TransactionDataset:
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, card, size=(n_rows, n_attrs), dtype=np.int32)
    catalog = ItemCatalog(
        [f"a{j}" for j in range(n_attrs)], [list(range(card))] * n_attrs
    )
    channels = np.zeros((n_rows, 2), dtype=np.int64)
    outcome = rng.random(n_rows) < 0.4
    channels[outcome, 0] = 1
    channels[~outcome, 1] = 1
    return TransactionDataset(matrix, catalog, channels)


def make_explorer(n_rows=2048, seed=3) -> DivergenceExplorer:
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 3, n_rows)
    b = rng.integers(0, 2, n_rows)
    truth = np.zeros(n_rows, dtype=int)
    prob = 0.2 + 0.4 * (a == 0) + 0.1 * (b == 1)
    pred = (rng.random(n_rows) < prob).astype(int)
    table = Table.from_dict(
        {
            "a": a.tolist(),
            "b": b.tolist(),
            "class": truth.tolist(),
            "pred": pred.tolist(),
        }
    )
    return DivergenceExplorer(table, "class", "pred", attributes=["a", "b"])


class TestSampleDesign:
    def test_deterministic_per_seed(self):
        a = SampleDesign(10_000, seed=7)
        b = SampleDesign(10_000, seed=7)
        c = SampleDesign(10_000, seed=8)
        assert np.array_equal(a.row_index(2_000), b.row_index(2_000))
        assert not np.array_equal(a.row_index(2_000), c.row_index(2_000))

    def test_samples_are_nested(self):
        design = SampleDesign(50_000, seed=1)
        small = set(design.row_index(5_000).tolist())
        large = set(design.row_index(20_000).tolist())
        assert small <= large

    def test_rows_for_covers_target(self):
        design = SampleDesign(10_000, seed=0)
        for target in (1, 63, 64, 65, 4_096, 9_999, 10_000):
            achieved = design.rows_for(target)
            assert target <= achieved <= 10_000

    def test_full_target_is_all_rows(self):
        design = SampleDesign(1_000, seed=0)
        assert design.rows_for(1_000) == 1_000
        assert np.array_equal(
            design.row_index(1_000), np.arange(1_000, dtype=np.int64)
        )

    def test_blocks_ascending_and_disjoint(self):
        design = SampleDesign(100_000, seed=2)
        blocks = design.blocks_for(10_000)
        assert blocks == sorted(blocks)
        for (_, stop), (start, _) in zip(blocks, blocks[1:]):
            assert stop <= start

    def test_empty_dataset_rejected(self):
        with pytest.raises(ReproError):
            SampleDesign(0)


class TestResolveSampleRows:
    def test_auto(self):
        assert resolve_sample_rows("auto", 10**6) == AUTO_SAMPLE_ROWS
        # Tiny datasets floor at one block (the driver's first round
        # then refines straight to the full dataset).
        assert auto_sample_rows(100) == 64
        assert auto_sample_rows(10**6) == 65_536
        # Relative cap: auto is at most an eighth of a mid-size dataset.
        assert auto_sample_rows(200_000) == 25_000

    def test_fraction_and_count(self):
        assert resolve_sample_rows(0.25, 1_000) == 250
        assert resolve_sample_rows(1.0, 1_000) == 1_000
        assert resolve_sample_rows(300, 1_000) == 300
        assert resolve_sample_rows(5_000, 1_000) == 1_000

    @pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf"), 1.5])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ReproError):
            resolve_sample_rows(bad, 1_000)


class TestValidators:
    def test_validate_sample_accepts(self):
        assert validate_sample(None) is None
        assert validate_sample(" AUTO ") == "auto"
        assert validate_sample("0.5") == 0.5
        assert validate_sample("250") == 250
        assert validate_sample(1) == 1.0

    @pytest.mark.parametrize("bad", ["banana", "-1", "0", "nan", "inf", "2.5"])
    def test_validate_sample_rejects(self, bad):
        with pytest.raises(ReproError, match="sample"):
            validate_sample(bad)

    @pytest.mark.parametrize("bad", ["banana", "0", "1", "-0.5", "nan"])
    def test_validate_confidence_rejects(self, bad):
        with pytest.raises(ReproError, match="confidence"):
            validate_confidence(bad)

    @pytest.mark.parametrize(
        "argv",
        [
            ["explore", "--dataset", "compas", "--sample", "banana"],
            ["explore", "--dataset", "compas", "--sample", "-0.5"],
            ["explore", "--dataset", "compas", "--confidence", "1.5"],
        ],
    )
    def test_cli_rejects_bad_specs_with_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_cli_explore_sample_prints_header(self, capsys):
        assert (
            main(
                [
                    "explore",
                    "--dataset",
                    "compas",
                    "--support",
                    "0.1",
                    "--sample",
                    "0.3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "approximate: mined" in out


class TestSampleDataset:
    def test_full_sample_returns_same_object(self):
        ds = make_dataset()
        design = SampleDesign(ds.n_rows, seed=0)
        assert sample_dataset(ds, design, ds.n_rows) is ds

    def test_rows_match_row_index(self):
        ds = make_dataset(n_rows=777)
        design = SampleDesign(ds.n_rows, seed=4)
        sampled = sample_dataset(ds, design, 200)
        index = design.row_index(200)
        assert np.array_equal(sampled.matrix, ds.matrix[index])
        assert np.array_equal(sampled.channels, ds.channels[index])

    def test_design_dataset_mismatch_rejected(self):
        ds = make_dataset(n_rows=500)
        with pytest.raises(ReproError, match="sample design"):
            sample_dataset(ds, SampleDesign(400, seed=0), 100)


class TestApproxResult:
    def test_explore_sample_returns_approx_result(self):
        explorer = make_explorer()
        result = explorer.explore("fpr", min_support=0.1, sample=0.25)
        assert isinstance(result, ApproxResult)
        assert result.approximate
        assert result.sample_rows < result.total_rows == 2048
        low, high = result.ci_bounds()
        finite = ~np.isnan(low)
        assert finite.any()
        assert (low[finite] <= high[finite]).all()

    def test_ci_contains_point_estimate(self):
        explorer = make_explorer()
        result = explorer.explore("fpr", min_support=0.1, sample=0.25)
        for record in result.top_k(5):
            key = result.key_of(record.itemset)
            low, high = result.ci_for_key(key)
            assert low <= record.divergence <= high

    def test_unknown_key_rejected(self):
        explorer = make_explorer()
        result = explorer.explore("fpr", min_support=0.1, sample=0.25)
        with pytest.raises(ReproError):
            result.ci_for_key(frozenset({10**6}))

    def test_higher_confidence_widens(self):
        explorer = make_explorer()
        narrow = explorer.explore(
            "fpr", min_support=0.1, sample=0.25, confidence=0.5
        )
        wide = explorer.explore(
            "fpr", min_support=0.1, sample=0.25, confidence=0.99
        )
        key = narrow.key_of(narrow.top_k(1)[0].itemset)
        n_low, n_high = narrow.ci_for_key(key)
        w_low, w_high = wide.ci_for_key(key)
        assert (w_high - w_low) > (n_high - n_low)

    def test_full_sample_is_exact_path(self):
        explorer = make_explorer()
        exact = explorer.explore("fpr", min_support=0.1)
        full = explorer.explore("fpr", min_support=0.1, sample=1.0)
        assert not isinstance(full, ApproxResult)
        assert set(full.frequent) == set(exact.frequent)

    def test_stable_ranks_shape_and_planted_leader(self):
        # Strong planted divergence on a=0 -> the top rank certifies.
        explorer = make_explorer(n_rows=8192)
        result = explorer.explore(
            "fpr", min_support=0.1, sample=0.5, confidence=0.9
        )
        flags = result.stable_ranks(k=3)
        assert len(flags) == 3
        assert flags[0], "planted leader should be CI-separated"

    def test_rounds_metadata(self):
        explorer = make_explorer()
        result = explorer.explore("fpr", min_support=0.1, sample=0.25)
        meta = result.as_meta(k=3)
        assert meta["approximate"] is True
        assert meta["sample_rows"] == result.sample_rows
        assert len(meta["stable_ranks"]) <= 3


class TestProgressiveExplore:
    def test_reaches_exact_on_tiny_data(self, small_table):
        explorer = DivergenceExplorer(small_table, "class", "pred")
        exact = explorer.explore("fpr", min_support=0.2)
        result = progressive_explore(explorer, "fpr", min_support=0.2)
        assert not getattr(result, "approximate", False)
        assert set(result.frequent) == set(exact.frequent)

    def test_rounds_counted_and_reported(self):
        explorer = make_explorer(n_rows=4096)
        seen = []
        result = progressive_explore(
            explorer,
            "fpr",
            min_support=0.1,
            k=2,
            stop_when_converged=False,
            on_round=lambda r: seen.append(getattr(r, "sample_rows", 4096)),
        )
        assert not getattr(result, "approximate", False)
        assert seen == sorted(seen)
        assert len(seen) >= 2
        assert seen[-1] == 4096

    def test_converges_early_on_separated_data(self):
        explorer = make_explorer(n_rows=8192)
        result = progressive_explore(
            explorer, "fpr", min_support=0.1, k=1, confidence=0.9
        )
        exact = explorer.explore("fpr", min_support=0.1)
        assert result.top_k(1)[0].itemset == exact.top_k(1)[0].itemset


class TestSeededGeneratorConvention:
    def test_matches_default_rng(self):
        ours = seeded_generator(123).integers(0, 100, 16)
        theirs = np.random.default_rng(123).integers(0, 100, 16)
        assert np.array_equal(ours, theirs)

    def test_dataset_generation_unchanged_and_deterministic(self):
        from repro.datasets import load

        a = load("artificial", seed=11)
        b = load("artificial", seed=11)
        assert a.table.to_dict() == b.table.to_dict()

    def test_design_uses_shared_convention(self):
        # The design's permutation is exactly the seeded-generator
        # permutation of its block list.
        design = SampleDesign(64 * 10, seed=5)
        order = seeded_generator(5).permutation(10)
        starts = [start for start, _ in design._blocks]
        assert starts == [int(i) * 64 for i in order]


def test_confidence_validation_in_engine():
    explorer = make_explorer()
    with pytest.raises(ReproError):
        explorer.explore("fpr", min_support=0.1, sample=0.25, confidence=1.5)


def test_nan_sample_spec_rejected_by_engine():
    explorer = make_explorer()
    with pytest.raises(ReproError):
        explorer.explore("fpr", min_support=0.1, sample=math.nan)
