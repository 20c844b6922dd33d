"""Properties of progressive sampled exploration.

The two guarantees the approx engine stakes its correctness on:

- **Exactness at the limit** — refining to the full sample returns a
  result bit-identical to exact ``explore``, whichever mining backend
  (bitset, fpgrowth, row-sharded) does the work.
- **Calibration** — across seeded sampled runs of a synthetic dataset,
  the credible intervals cover the exact full-data divergence at least
  as often as the nominal confidence promises.

Plus the structural sampling property the refinement driver relies on:
under one seed, every smaller sample is a subset of every larger one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx import SampleDesign, progressive_explore
from repro.core.divergence import DivergenceExplorer
from repro.fpm.sharded import shutdown_pools
from repro.tabular.table import Table
from tests.oracles import stable_ranks_reference


def build_explorer(seed: int, n_rows: int = 1536) -> DivergenceExplorer:
    """Random table with a planted rate shift on one attribute level."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 3, n_rows)
    b = rng.integers(0, 2, n_rows)
    c = rng.integers(0, 4, n_rows)
    prob = 0.25 + 0.35 * (a == 0)
    pred = (rng.random(n_rows) < prob).astype(int)
    table = Table.from_dict(
        {
            "a": a.tolist(),
            "b": b.tolist(),
            "c": c.tolist(),
            "class": np.zeros(n_rows, dtype=int).tolist(),
            "pred": pred.tolist(),
        }
    )
    return DivergenceExplorer(
        table, "class", "pred", attributes=["a", "b", "c"]
    )


def assert_bit_identical(result, exact):
    assert set(result.frequent) == set(exact.frequent)
    for key in exact.frequent:
        assert np.array_equal(
            result.frequent.counts(key), exact.frequent.counts(key)
        ), key
        # Float equality on purpose: the full-sample round is the same
        # computation over the same rows, not a re-estimate.
        assert result.divergence_or_zero(key) == exact.divergence_or_zero(key)
    assert result.global_rate == exact.global_rate


class TestRefineToFullIsExact:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        algorithm=st.sampled_from(["bitset", "fpgrowth"]),
    )
    def test_progressive_limit_matches_exact(self, seed, algorithm):
        explorer = build_explorer(seed)
        exact = explorer.explore(
            "fpr", min_support=0.15, algorithm=algorithm, use_cache=False
        )
        refined = progressive_explore(
            explorer,
            "fpr",
            min_support=0.15,
            algorithm=algorithm,
            use_cache=False,
            stop_when_converged=False,
        )
        assert not getattr(refined, "approximate", False)
        assert_bit_identical(refined, exact)

    def test_progressive_limit_matches_exact_sharded(self):
        # One deterministic case through the forked worker pools —
        # spawning processes inside the hypothesis loop would dominate
        # the suite's runtime.
        explorer = build_explorer(77, n_rows=4096)
        try:
            exact = explorer.explore(
                "fpr", min_support=0.1, use_cache=False, n_workers=2
            )
            refined = progressive_explore(
                explorer,
                "fpr",
                min_support=0.1,
                use_cache=False,
                n_workers=2,
                stop_when_converged=False,
            )
            assert not getattr(refined, "approximate", False)
            assert_bit_identical(refined, exact)
        finally:
            shutdown_pools()

    def test_sampled_rounds_agree_across_backends(self):
        # Same seed, same sample target: the sampled table itself is
        # backend-independent, exactly like the exact one.
        explorer = build_explorer(5)
        results = [
            explorer.explore(
                "fpr",
                min_support=0.15,
                algorithm=algorithm,
                sample=0.5,
                use_cache=False,
            )
            for algorithm in ("bitset", "fpgrowth")
        ]
        assert_bit_identical(results[0], results[1])


class TestSampleNesting:
    @settings(max_examples=30, deadline=None)
    @given(
        n_rows=st.integers(min_value=65, max_value=20_000),
        seed=st.integers(min_value=0, max_value=1_000),
        f1=st.floats(min_value=0.05, max_value=1.0),
        f2=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_smaller_target_is_subset(self, n_rows, seed, f1, f2):
        design = SampleDesign(n_rows, seed=seed)
        lo, hi = sorted(
            (max(1, int(f1 * n_rows)), max(1, int(f2 * n_rows)))
        )
        small = design.row_index(lo)
        large = design.row_index(hi)
        assert set(small.tolist()) <= set(large.tolist())
        assert design.rows_for(lo) == len(small)
        assert design.rows_for(hi) == len(large)
        # Indices ascending and unique: the sample is a row subset, not
        # a multiset.
        assert (np.diff(small) > 0).all()


class TestCoverageCalibration:
    def test_empirical_coverage_at_or_above_nominal(self):
        """Synthetic calibration: CIs cover the exact divergence.

        Deterministic seeds, so this is a regression pin of the
        interval math (Beta-posterior normal approximation with
        finite-population correction), not a flaky statistical test.
        """
        rng = np.random.default_rng(21)
        n_rows = 16_384
        a = rng.integers(0, 3, n_rows)
        b = rng.integers(0, 3, n_rows)
        prob = 0.4 + 0.12 * (a == 0) - 0.12 * (a == 2) + 0.08 * (b == 0)
        pred = (rng.random(n_rows) < prob).astype(int)
        table = Table.from_dict(
            {
                "a": a.tolist(),
                "b": b.tolist(),
                "class": np.zeros(n_rows, dtype=int).tolist(),
                "pred": pred.tolist(),
            }
        )
        explorer = DivergenceExplorer(
            table, "class", "pred", attributes=["a", "b"]
        )
        confidence = 0.9
        exact = explorer.explore("fpr", min_support=0.05)
        checked = covered = 0
        for seed in range(8):
            sampled = explorer.explore(
                "fpr",
                min_support=0.05,
                sample=0.25,
                confidence=confidence,
                sample_seed=seed,
            )
            for key in sampled.frequent:
                if key not in exact.frequent:
                    continue
                low, high = sampled.ci_for_key(key)
                if np.isnan(low) or np.isnan(high):
                    continue
                checked += 1
                if low <= exact.divergence_or_zero(key) <= high:
                    covered += 1
        assert checked > 100
        assert covered / checked >= confidence, (covered, checked)

    def test_fpc_collapses_interval_at_full_sample(self):
        explorer = build_explorer(3)
        nearly_all = explorer.explore(
            "fpr", min_support=0.15, sample=0.95, use_cache=False
        )
        small = explorer.explore(
            "fpr", min_support=0.15, sample=0.2, use_cache=False
        )
        if not getattr(nearly_all, "approximate", False):
            pytest.skip("0.95 rounded up to the full dataset")
        key = nearly_all.key_of(nearly_all.top_k(1)[0].itemset)
        lo_a, hi_a = nearly_all.ci_for_key(key)
        lo_s, hi_s = small.ci_for_key(key)
        assert (hi_a - lo_a) < (hi_s - lo_s)


class TestStableRanksMatchWholeTable:
    """``stable_ranks`` ranks only the top k; the whole-table version
    (``tests/oracles.py``) ranks every pattern. Coarse random data gives
    ties on every ranking key, and a small sample gives all-BOTTOM
    (NaN-rate) patterns."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_rows=st.sampled_from((640, 1600)),
        sample=st.sampled_from((0.2, 0.5)),
        confidence=st.sampled_from((0.5, 0.9)),
    )
    def test_equals_whole_table_version(self, seed, n_rows, sample, confidence):
        rng = np.random.default_rng(seed)
        table = Table.from_dict(
            {
                "a": rng.integers(0, 3, n_rows).tolist(),
                "b": rng.integers(0, 2, n_rows).tolist(),
                "c": rng.integers(0, 2, n_rows).tolist(),
                "class": rng.integers(0, 2, n_rows).tolist(),
                "pred": rng.integers(0, 2, n_rows).tolist(),
            }
        )
        explorer = DivergenceExplorer(
            table, "class", "pred", attributes=["a", "b", "c"]
        )
        result = explorer.explore(
            "fpr", min_support=0.02, sample=sample, confidence=confidence
        )
        assert result.approximate
        for by in ("divergence", "abs_divergence", "support", "t_statistic", "rate"):
            for k in (0, 1, 3, 10, 10_000):
                assert result.stable_ranks(k, by) == stable_ranks_reference(
                    result, k, by
                ), (by, k)
