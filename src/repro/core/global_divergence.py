"""Global item divergence (paper Def. 4.3, Eq. 6/8).

The global divergence of an itemset ``I`` generalizes the Shapley value
to the itemset lattice: it aggregates the marginal effect of adding
``I`` to every context ``J`` over disjoint attributes, weighted by

    |B|! (|A|-|B|-|I|)! / ( |A|!  Π_{b ∈ B ∪ attr(I)} m_b )

where ``B = attr(J)`` and ``m_b`` the domain size of attribute ``b``.
The support-bounded approximation (Eq. 8) restricts the sum to the
contexts whose extension ``J ∪ I`` is frequent, all of which are
available from the complete exploration.

The single-item case — the paper's headline "global item divergence" —
is one scatter-add over the columnar lattice index: every table row
``K`` contributes ``w(K)·[Δ(K) − Δ(K \\ α)]`` to each of its items
``α``, and both the weights ``w(K)`` and the parent-row gathers are
precomputed. The original per-pattern dict walk is the oracle of the
property tests (``tests/oracles.py``).
"""

from __future__ import annotations

from math import factorial

import numpy as np

from repro.core.items import Item, Itemset
from repro.core.result import PatternDivergenceResult
from repro.exceptions import ReproError
from repro.obs import span
from repro.resilience import checkpoint


@span("kernel.global_item_divergence")
def global_item_divergence(
    result: PatternDivergenceResult,
) -> dict[Item, float]:
    """``Δ̃^g(α, s)`` for every frequent item ``α``, fully vectorized.

    For each frequent itemset ``K`` and each ``α ∈ K``, the context is
    ``J = K \\ {α}`` (``|B| = |K| - 1``) and the term contributes
    ``w(K) · [Δ(K) − Δ(J)]`` to the global divergence of ``α``. Over
    the lattice index this is one gather (parent divergences), one
    elementwise multiply and one ``bincount`` scatter — no per-pattern
    hashing.
    """
    checkpoint("kernel.global_item_divergence")
    index = result.lattice_index()
    div0 = result.divergence_vector(zero_nan=True)
    parent_div = np.where(
        index.parent_rows >= 0, div0[index.parent_rows], 0.0
    )
    terms = index.weights[index.row_of_entry] * (
        div0[index.row_of_entry] - parent_div
    )
    totals = np.bincount(
        index.items_flat, weights=terms, minlength=result.catalog.n_items
    )
    present = np.unique(index.items_flat)
    return {result.item_of(int(a)): float(totals[a]) for a in present}


def global_divergence_of_itemset(
    result: PatternDivergenceResult, itemset: Itemset
) -> float:
    """``Δ̃^g(I, s)`` of an arbitrary (frequent) itemset ``I`` (Eq. 8)."""
    target = result.key_of(itemset)
    if target not in result.frequent:
        raise ReproError(
            f"pattern ({itemset}) is not frequent at support {result.min_support}"
        )
    size_i = len(target)
    if size_i == 0:
        return 0.0
    n_attrs = len(result.catalog.attributes)
    fact = [factorial(i) for i in range(n_attrs + 1)]
    n_fact = fact[n_attrs]
    cards = result.catalog.cardinalities
    column_of = result.catalog.column_of

    total = 0.0
    for key in result.frequent:
        if not target <= key:
            continue
        context = key - target
        size_b = len(context)
        if size_b + size_i > n_attrs:
            continue
        prod_m = 1
        for item_id in key:  # attrs of B ∪ attr(I) == attrs of K
            prod_m *= cards[column_of(item_id)]
        weight = fact[size_b] * fact[n_attrs - size_b - size_i] / (n_fact * prod_m)
        total += weight * (
            result.divergence_or_zero(key) - result.divergence_or_zero(context)
        )
    return total


def individual_item_divergence(
    result: PatternDivergenceResult,
) -> dict[Item, float]:
    """Plain per-item divergence ``Δ(α)`` for every frequent item.

    This is the naïve "in isolation" measurement the paper contrasts
    global divergence against (Sec. 4.4).
    """
    out: dict[Item, float] = {}
    for item_id in range(result.catalog.n_items):
        key = frozenset((item_id,))
        if key in result.frequent:
            out[result.item_of(item_id)] = result.divergence_of_key(key)
    return out
