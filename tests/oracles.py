"""Reference implementations the columnar paths are pinned to.

Each oracle is the straightforward whole-table algorithm: build a
record for every pattern (or walk the divergence map one frozenset at a
time), then filter and sort in Python. The library's columnar versions
select rows with array ops and build records only for the rows they
return; the property tests require identical output. None of these is
part of the library's API.
"""

from __future__ import annotations

import math
from itertools import combinations
from math import factorial

import numpy as np

from repro.core.compare import (
    _NAN,
    PatternShift,
    _check_compatible,
    _order_key,
    delta_divergence_score,
)
from repro.core.corrective import CorrectiveItem, _sort_corrections
from repro.core.fixedpoint import SCALE
from repro.core.items import Item, Itemset
from repro.core.pruning import _sort_records
from repro.core.ranking import benjamini_hochberg, t_to_p_value
from repro.core.result import PatternDivergenceResult, PatternRecord
from repro.core.significance import (
    beta_moments,
    welch_t_statistic,
    welch_t_statistic_signed,
)
from repro.exceptions import ReproError


def top_k_reference(
    result,
    k: int = 10,
    by: str = "divergence",
    ascending: bool = False,
    min_support: float | None = None,
    max_length: int | None = None,
) -> list:
    """Sort-all ``top_k``: every record, one Python sort, then slice."""
    rows = result.records()
    if min_support is not None:
        rows = [r for r in rows if r.support >= min_support]
    if max_length is not None:
        rows = [r for r in rows if r.length <= max_length]
    key_fn = {
        "divergence": lambda r: r.divergence,
        "abs_divergence": lambda r: abs(r.divergence),
        "support": lambda r: r.support,
        "t_statistic": lambda r: r.t_statistic,
        "rate": lambda r: r.rate,
    }.get(by)
    if key_fn is None:
        raise ReproError(f"unknown ranking key {by!r}")
    rows = [r for r in rows if not math.isnan(key_fn(r))]
    sign = 1.0 if ascending else -1.0
    rows.sort(
        key=lambda r: (
            sign * key_fn(r),
            -r.support,
            r.length,
            str(r.itemset),
        )
    )
    return rows[:k]


def significant_reference(result, alpha: float = 0.05, k: int | None = None
                          ) -> list:
    """Whole-table FDR selection: p-values and BH over every record."""
    records = result.records()
    p_values = [t_to_p_value(rec.t_statistic) for rec in records]
    keep = benjamini_hochberg(p_values, alpha=alpha)
    survivors = [
        rec
        for rec, kept in zip(records, keep)
        if kept and not math.isnan(rec.divergence)
    ]
    survivors.sort(key=lambda r: -abs(r.divergence))
    return survivors if k is None else survivors[:k]


def is_redundant_reference(
    result: PatternDivergenceResult, key: frozenset[int], epsilon: float
) -> bool:
    """Dict-walk oracle for :func:`is_redundant` (kept verbatim)."""
    div_i = result.divergence_of_key(key)
    if math.isnan(div_i):
        return True
    for alpha in key:
        div_parent = result.divergence_of_key(key - {alpha})
        if math.isnan(div_parent):
            continue
        if abs(div_i - div_parent) <= epsilon:
            return True
    return False


def prune_redundant_reference(
    result: PatternDivergenceResult, epsilon: float
) -> list[PatternRecord]:
    """Dict-walk oracle for :func:`prune_redundant` (kept verbatim)."""
    if epsilon < 0:
        raise ReproError(f"epsilon must be >= 0, got {epsilon}")
    kept = [
        result.record_for_key(key)
        for key in result.frequent
        if len(key) > 0 and not is_redundant_reference(result, key, epsilon)
    ]
    return _sort_records(kept)


def find_corrective_items_reference(
    result: PatternDivergenceResult,
    k: int = 10,
    min_factor: float = 0.0,
) -> list[CorrectiveItem]:
    """Dict-walk oracle for :func:`find_corrective_items` (kept verbatim
    up to the shared deterministic tie-break)."""
    found: list[CorrectiveItem] = []
    for key in result.frequent:
        if len(key) < 2:
            continue  # the base pattern must be non-empty
        div_k = result.divergence_of_key(key)
        if math.isnan(div_k):
            continue
        for alpha in key:
            base_key = key - {alpha}
            div_base = result.divergence_of_key(base_key)
            if math.isnan(div_base):
                continue
            factor = abs(div_base) - abs(div_k)
            if factor <= min_factor:
                continue
            base_counts = result.frequent.counts(base_key)
            corr_counts = result.frequent.counts(key)
            mu_b, var_b = beta_moments(int(base_counts[1]), int(base_counts[2]))
            mu_c, var_c = beta_moments(int(corr_counts[1]), int(corr_counts[2]))
            found.append(
                CorrectiveItem(
                    base=result.itemset_of(base_key),
                    item=result.item_of(alpha),
                    base_divergence=div_base,
                    corrected_divergence=div_k,
                    corrective_factor=factor,
                    t_statistic=welch_t_statistic(mu_b, var_b, mu_c, var_c),
                )
            )
    return _sort_corrections(found)[:k]


def global_item_divergence_reference(
    result: PatternDivergenceResult,
) -> dict[Item, float]:
    """Dict-walk oracle for :func:`global_item_divergence`.

    One frozenset allocation and divergence-map probe per (pattern,
    item) pair; kept verbatim as the correctness reference for the
    vectorized kernel.
    """
    n_attrs = len(result.catalog.attributes)
    fact = [factorial(i) for i in range(n_attrs + 1)]
    n_fact = fact[n_attrs]
    cards = result.catalog.cardinalities
    column_of = result.catalog.column_of

    totals: dict[int, float] = {}
    for key in result.frequent:
        k = len(key)
        if k == 0 or k > n_attrs:
            continue
        prod_m = 1
        for item_id in key:
            prod_m *= cards[column_of(item_id)]
        weight = fact[k - 1] * fact[n_attrs - k] / (n_fact * prod_m)
        div_k = result.divergence_or_zero(key)
        for alpha in key:
            div_j = result.divergence_or_zero(key - {alpha})
            totals[alpha] = totals.get(alpha, 0.0) + weight * (div_k - div_j)
    return {result.item_of(a): v for a, v in sorted(totals.items())}


def shapley_contributions_reference(
    result: PatternDivergenceResult, itemset: Itemset
) -> dict[Item, float]:
    """Dict-walk oracle for :func:`shapley_contributions`.

    One frozenset allocation and divergence-map probe per subset term;
    kept verbatim as the correctness reference for the batched kernel.
    """
    key = result.key_of(itemset)
    if key not in result.frequent:
        raise ReproError(
            f"pattern ({itemset}) is not frequent at support {result.min_support}"
        )
    ids = sorted(key)
    n = len(ids)
    if n == 0:
        return {}
    # Precompute the permutation weights w(|J|) = |J|!(n-|J|-1)!/n!.
    n_fact = factorial(n)
    weights = [factorial(j) * factorial(n - j - 1) / n_fact for j in range(n)]
    contributions: dict[Item, float] = {}
    for alpha in ids:
        rest = [i for i in ids if i != alpha]
        total = 0.0
        for size in range(n):
            w = weights[size]
            for combo in combinations(rest, size):
                j_key = frozenset(combo)
                with_alpha = result.divergence_or_zero(j_key | {alpha})
                without = result.divergence_or_zero(j_key)
                total += w * (with_alpha - without)
        contributions[result.item_of(alpha)] = total
    return contributions


def _iter_shifts_reference(
    result_a: PatternDivergenceResult, result_b: PatternDivergenceResult
):
    """Dict-walk generation of every comparable pattern, unsorted.

    Walks the *union* of the two frequent sets: A's patterns in table
    order (two-sided where B also has the pattern), then the patterns
    frequent only under B. Rows with an unmeasurable (all-BOTTOM) rate
    on a populated side are skipped.
    """
    for key in result_a.frequent:
        if len(key) == 0:
            continue
        rec_a = result_a.record_for_key(key)
        if math.isnan(rec_a.divergence):
            continue
        if key in result_b.frequent:
            rec_b = result_b.record_for_key(key)
            if math.isnan(rec_b.divergence):
                continue
            mu_a, var_a = beta_moments(rec_a.t_count, rec_a.f_count)
            mu_b, var_b = beta_moments(rec_b.t_count, rec_b.f_count)
            yield PatternShift(
                itemset=rec_a.itemset,
                divergence_a=rec_a.divergence,
                divergence_b=rec_b.divergence,
                rate_a=rec_a.rate,
                rate_b=rec_b.rate,
                t_statistic=welch_t_statistic_signed(
                    mu_b, var_b, mu_a, var_a
                ),
                delta_divergence=delta_divergence_score(
                    rec_a.rate, rec_a.divergence, rec_b.rate, rec_b.divergence
                ),
            )
        else:
            yield PatternShift(
                itemset=rec_a.itemset,
                divergence_a=rec_a.divergence,
                divergence_b=_NAN,
                rate_a=rec_a.rate,
                rate_b=_NAN,
                t_statistic=_NAN,
                in_b=False,
            )
    for key in result_b.frequent:
        if len(key) == 0 or key in result_a.frequent:
            continue
        rec_b = result_b.record_for_key(key)
        if math.isnan(rec_b.divergence):
            continue
        yield PatternShift(
            itemset=rec_b.itemset,
            divergence_a=_NAN,
            divergence_b=rec_b.divergence,
            rate_a=_NAN,
            rate_b=rec_b.rate,
            t_statistic=_NAN,
            in_a=False,
        )


def compare_results_reference(
    result_a: PatternDivergenceResult,
    result_b: PatternDivergenceResult,
    k: int = 10,
    min_t: float = 0.0,
) -> list[PatternShift]:
    """Dict-walk oracle for :func:`compare_results`.

    Retained as the readable specification the vectorized engine is
    pinned bit-identical against; use :func:`compare_results` in
    production code.
    """
    _check_compatible(result_a, result_b)
    shifts = [
        s
        for s in _iter_shifts_reference(result_a, result_b)
        if s.one_sided or abs(s.t_statistic) >= min_t
    ]
    shifts.sort(key=_order_key)
    return shifts[: max(int(k), 0)]


def regressions_reference(
    result_a: PatternDivergenceResult,
    result_b: PatternDivergenceResult,
    k: int = 10,
    min_t: float = 2.0,
) -> list[PatternShift]:
    """Dict-walk oracle for :func:`regressions`.

    One pass over the generated shifts — the significance gate and the
    worse-under-B filter apply together, no sentinel ``k``.
    """
    _check_compatible(result_a, result_b)
    worse = [
        s
        for s in _iter_shifts_reference(result_a, result_b)
        if not s.one_sided
        and abs(s.t_statistic) >= min_t
        and abs(s.divergence_b) > abs(s.divergence_a)
    ]
    worse.sort(key=lambda s: -(abs(s.divergence_b) - abs(s.divergence_a)))
    return worse[: max(int(k), 0)]


def stable_ranks_reference(result, k: int = 10, by: str = "divergence") -> list:
    """Whole-table rank stability: rank every pattern, then flag each of
    the first ``k`` against the highest ``ci_high`` of all below it."""
    shown = min(k, len(result))
    if not result.approximate:
        return [True] * len(result.top_k(k=shown, by=by))
    ranked = result.top_k(k=len(result), by=by)
    if not ranked:
        return []
    low, high = result.ci_bounds()
    rows = result.frequent.rows_of([result.key_of(r.itemset) for r in ranked])
    lows = low[rows]
    highs = np.nan_to_num(high[rows], nan=-np.inf)
    suffix = np.maximum.accumulate(highs[::-1])[::-1]
    below = np.concatenate([suffix[1:], [-np.inf]])
    with np.errstate(invalid="ignore"):
        flags = lows >= below
    flags = [bool(f) and not math.isnan(lows[i]) for i, f in enumerate(flags)]
    return flags[: min(k, len(flags))]


def pack_keys_reference(itemsets) -> np.ndarray:
    """Per-key ``pack_keys``: one sorted, padded Python list per key."""
    sets = [sorted(set(s)) for s in itemsets]
    width = max(1, max(map(len, sets), default=0))
    # Padding -1 becomes 0 after the shift to id + 1.
    keys = np.array([s + [-1] * (width - len(s)) for s in sets], dtype=np.int64)
    keys = keys.reshape(len(sets), width) + 1
    bad = [i for i, s in enumerate(sets) if s and (s[0] < 0 or s[-1] >= 2**32 - 2)]
    keys[bad] = 0xFFFFFFFF
    return keys.astype(np.uint32)


def rank_positions_reference(scores) -> np.ndarray:
    """Stable-argsort ranks: highest score first, ties by row index."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    ranks = np.empty(scores.shape[0], dtype=np.int64)
    ranks[order] = np.arange(1, scores.shape[0] + 1)
    return ranks


def encode_weight_channels_reference(weights, scale: int = SCALE) -> np.ndarray:
    """Two ``np.round(...).astype(int64)`` columns, then ``column_stack``.

    Only the encoding: the finiteness and overflow checks are left to
    the library function the result is compared with.
    """
    weights = np.asarray(weights, dtype=np.float64)
    fixed = np.round(weights * scale).astype(np.int64)
    fixed_sq = np.round(weights * weights * scale).astype(np.int64)
    return np.column_stack([fixed, fixed_sq])


def exact_bincount_reference(index, values, length: int) -> np.ndarray:
    """Per-bin int64 sums mod 2**64: recount the bins, shift-and-mask
    every limb, whatever the span of the values."""
    n = len(index)
    lo = values.min() if n else np.int64(0)
    offsets = values.view(np.uint64) - np.int64(lo).view(np.uint64)
    width = max(1, 53 - n.bit_length())
    span = int(offsets.max()).bit_length() if n else 0
    out = np.bincount(index, minlength=length).astype(np.uint64)
    out *= np.int64(lo).view(np.uint64)
    for shift in range(0, span, width):
        limb = (offsets >> np.uint64(shift)) & np.uint64((1 << width) - 1)
        sums = np.bincount(index, limb.astype(np.float64), length)
        out += sums.astype(np.uint64) << np.uint64(shift)
    return out.view(np.int64)
