"""Pins of the dense-channel set-up: scores to grouped (Σw, Σw²) channels.

Three steps turn a ranking's scores into the channels a grouped layer
mines, and each takes a faster path than the plain one it replaced:
ranks from numpy's default argsort (the stable one only under ties),
fixed-point columns rounded in place, and per-group sums that reuse the
layer's multiplicities and skip the limb split when one limb holds the
span. Each is pinned bit for bit to the plain version in
:mod:`tests.oracles`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fixedpoint import SCALE, _SUM_LIMIT, encode_weight_channels
from repro.exceptions import ReproError
from repro.fpm.transactions import ItemCatalog, ItemLayer, exact_bincount
from repro.rank.weights import rank_positions
from tests.oracles import (
    encode_weight_channels_reference,
    exact_bincount_reference,
    rank_positions_reference,
)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
INT64 = np.iinfo(np.int64)


def assert_same_ranks(scores):
    got = rank_positions(scores)
    want = rank_positions_reference(scores)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


class TestRankPositions:
    @settings(max_examples=60, deadline=None)
    @given(scores=st.lists(FINITE, max_size=300, unique=True))
    def test_distinct_scores(self, scores):
        assert_same_ranks(scores)

    @settings(max_examples=60, deadline=None)
    @given(
        scores=st.lists(
            st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 3.0]), max_size=300
        )
    )
    def test_heavy_ties(self, scores):
        assert_same_ranks(scores)

    @settings(max_examples=30, deadline=None)
    @given(value=FINITE, n=st.integers(0, 300))
    def test_all_equal(self, value, n):
        assert_same_ranks([value] * n)

    @pytest.mark.parametrize(
        "scores",
        [[], [1.0], [0.0, -0.0], [-0.0, 0.0], [2.0, 1.0], [1.0, 1.0],
         [0.0, -0.0, 0.0, 1.0, -0.0]],
    )
    def test_small_and_signed_zero(self, scores):
        assert_same_ranks(scores)

    @pytest.mark.parametrize("n_distinct", [3, 50, 5000])
    def test_ties_among_many_rows(self, n_distinct):
        # Thousands of rows: the default argsort's partitioning (not
        # its small-array insertion sort) decides where ties land.
        rng = np.random.default_rng(n_distinct)
        assert_same_ranks(rng.integers(0, n_distinct, 20_000) / 7.0)

    def test_distinct_among_many_rows(self):
        assert_same_ranks(np.random.default_rng(0).normal(size=20_000))


def largest_encodable(n_rows: int) -> float:
    """The largest weight ``n_rows`` copies of which pass the bound."""
    peak = float(np.sqrt(_SUM_LIMIT / n_rows / SCALE))
    while n_rows * (max(peak, peak * peak) * float(SCALE) + 1.0) > _SUM_LIMIT:
        peak = float(np.nextafter(peak, 0.0))
    while True:
        up = float(np.nextafter(peak, np.inf))
        if n_rows * (max(up, up * up) * float(SCALE) + 1.0) > _SUM_LIMIT:
            return peak
        peak = up


class TestEncodeWeightChannels:
    @settings(max_examples=80, deadline=None)
    @given(
        weights=st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True),
            max_size=200,
        )
    )
    def test_equals_round_and_stack(self, weights):
        got = encode_weight_channels(np.array(weights, dtype=np.float64))
        want = encode_weight_channels_reference(weights)
        assert got.dtype == np.int64 and got.shape == (len(weights), 2)
        assert np.array_equal(got, want)

    def test_halves_round_to_even(self):
        # odd / 128 scales by 1e6 to exactly x.5; at scale 2, ±0.5 and
        # ±1.5 put x.5 in both columns.
        odd = np.arange(-41, 42, 2) / 128.0
        assert np.array_equal(
            encode_weight_channels(odd), encode_weight_channels_reference(odd)
        )
        assert (odd * SCALE % 1 == 0.5).all()
        halves = np.array([-2.5, -1.5, -0.5, -0.0, 0.0, 0.5, 1.5, 2.5])
        got = encode_weight_channels(halves, scale=2)
        assert np.array_equal(
            got, encode_weight_channels_reference(halves, scale=2)
        )
        assert got[:, 0].tolist() == [-5, -3, -1, 0, 0, 1, 3, 5]
        assert got[:, 1].tolist() == [12, 4, 0, 0, 0, 0, 4, 12]

    def test_negatives_and_zeros(self):
        weights = np.array([-0.0, 0.0, -1.0, -3.25e-7, 4.75e-7, -999.9999995])
        assert np.array_equal(
            encode_weight_channels(weights),
            encode_weight_channels_reference(weights),
        )

    @pytest.mark.parametrize("n_rows", [1, 7, 1000])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflow_bound(self, n_rows, sign):
        peak = largest_encodable(n_rows)
        weights = np.full(n_rows, sign * peak)
        weights[0] = sign * peak / 3.0
        assert np.array_equal(
            encode_weight_channels(weights),
            encode_weight_channels_reference(weights),
        )
        weights[-1] = sign * float(np.nextafter(peak, np.inf))
        with pytest.raises(ReproError, match="overflow"):
            encode_weight_channels(weights)

    def test_empty(self):
        got = encode_weight_channels(np.empty(0))
        assert got.shape == (0, 2) and got.dtype == np.int64


def value_columns(rng, kind: str, n: int) -> np.ndarray:
    if kind == "binary":
        return rng.integers(0, 2, n).astype(np.int64)
    if kind == "one-limb":  # fixed-point weights, negative minimum
        return rng.integers(-(2**20), 2**20, n).astype(np.int64)
    if kind == "two-limb":
        return rng.integers(-(2**45), 2**45, n).astype(np.int64)
    # "full": the whole int64 range, so bin sums wrap mod 2**64.
    return rng.integers(INT64.min, INT64.max, n, dtype=np.int64, endpoint=True)


VALUE_KINDS = ("binary", "one-limb", "two-limb", "full")


class TestExactBincount:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from((0, 1, 5, 300, 5000)),
        kind=st.sampled_from(VALUE_KINDS),
        length=st.integers(1, 9),
    )
    def test_counts_passed_or_recounted(self, seed, n, kind, length):
        rng = np.random.default_rng(seed)
        index = rng.integers(0, length, n)
        values = value_columns(rng, kind, n)
        counts = np.bincount(index, minlength=length)
        want = np.zeros(length, dtype=np.int64)
        np.add.at(want, index, values)  # int64 addition wraps
        for got in (
            exact_bincount(index, values, length),
            exact_bincount(index, values, length, counts),
            exact_bincount_reference(index, values, length),
        ):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("value", [INT64.min, INT64.max, -1, 0])
    def test_constant_columns(self, value):
        index = np.array([0, 2, 2, 2])
        values = np.full(4, value, dtype=np.int64)
        counts = np.bincount(index, minlength=3)
        got = exact_bincount(index, values, 3, counts)
        assert np.array_equal(got, exact_bincount_reference(index, values, 3))

    @pytest.mark.parametrize("kind", VALUE_KINDS)
    def test_grouped_layer_sums(self, kind):
        # ItemLayer.dataset passes the layer's multiplicities as counts.
        rng = np.random.default_rng(VALUE_KINDS.index(kind))
        catalog = ItemCatalog(["a", "b"], [[0, 1, 2], [0, 1]])
        matrix = np.column_stack(
            [rng.integers(0, 3, 4000), rng.integers(0, 2, 4000)]
        )
        layer = ItemLayer(matrix, catalog, group=True)
        assert layer.multiplicity is not None
        channels = np.column_stack(
            [value_columns(rng, kind, 4000), value_columns(rng, "one-limb", 4000)]
        )
        got = layer.dataset(channels).channels
        for c in range(2):
            want = exact_bincount_reference(
                layer.inverse, channels[:, c], layer.n_physical
            )
            assert np.array_equal(got[:, c], want)
