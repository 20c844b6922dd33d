"""Progressive sampled exploration — first answer, convergence, coverage.

The case for ``repro.approx``: interactive exploration wants a ranked
divergence table in tens of milliseconds, while exact mining of a
10M-row dataset takes seconds. This bench measures the three promises
the approx engine makes:

1. **First-answer latency** — a seeded block sample (``sample="auto"``)
   mined at 1M and 10M rows against the exact run over all rows. The
   sampled answer must be >= 10x faster on at least one >= 1M-row
   configuration.
2. **Convergence** — on a dataset with separated planted divergences,
   :func:`repro.approx.progressive_explore` must stop with the top-k
   CI-separated before reaching the full dataset, and the converged
   top-k must be rank-identical to exact ``explore``.
3. **CI coverage** — across seeded sampled runs, the credible intervals
   must cover the exact (full-data) divergence at least as often as the
   nominal confidence promises.

Writes ``BENCH_approx_latency.json`` at the repo root; set
``REPRO_BENCH_QUICK=1`` for a smoke-sized run without the latency
assertion (used by CI).
"""

import os
import time
from pathlib import Path

import numpy as np

from _envelope import write_bench_json
from repro.approx import SampleDesign, auto_sample_rows, progressive_explore, sample_dataset
from repro.core.divergence import DivergenceExplorer
from repro.experiments.tables import format_table
from repro.fpm.miner import mine_frequent
from repro.fpm.transactions import ItemCatalog, TransactionDataset
from repro.obs import get_registry, span_rows
from repro.tabular.table import Table

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

# Latency configs: (rows, layer). The explore layer times the public
# DivergenceExplorer.explore(sample="auto") path end to end (sampling
# included); the mine layer times sample_dataset plus the raw miner on
# a pre-packed dataset, which is how the 10M case avoids a 10M-row
# Table build. The sample is built from its gathered rows and packs
# its own bitmaps either way.
LATENCY_CONFIGS = (
    [(50_000, "explore"), (200_000, "mine")]
    if QUICK
    else [(1_000_000, "explore"), (10_000_000, "mine")]
)
N_ATTRS = 8
CARD = 3
SUPPORT = 0.01
MAX_LENGTH = 2
COVERAGE_TRIALS = 8 if QUICK else 20
COVERAGE_ROWS = 16_384 if QUICK else 32_768
CONVERGE_ROWS = 16_384 if QUICK else 65_536
JSON_PATH = Path(__file__).parent.parent / "BENCH_approx_latency.json"


def build_explorer(n_rows: int, n_attrs: int) -> DivergenceExplorer:
    rng = np.random.default_rng(0)
    data = {
        f"a{j}": rng.integers(0, CARD, n_rows).tolist() for j in range(n_attrs)
    }
    data["class"] = rng.integers(0, 2, n_rows).tolist()
    data["pred"] = rng.integers(0, 2, n_rows).tolist()
    table = Table.from_dict(data)
    return DivergenceExplorer(
        table, "class", "pred", attributes=[f"a{j}" for j in range(n_attrs)]
    )


def build_dataset(n_rows: int, n_attrs: int) -> TransactionDataset:
    rng = np.random.default_rng(1)
    matrix = rng.integers(0, CARD, size=(n_rows, n_attrs), dtype=np.int32)
    catalog = ItemCatalog(
        [f"a{j}" for j in range(n_attrs)],
        [[f"v{c}" for c in range(CARD)]] * n_attrs,
    )
    outcome = rng.random(n_rows) < 0.5
    channels = np.stack([outcome, ~outcome], axis=1).astype(np.int64)
    dataset = TransactionDataset(matrix, catalog, channels)
    dataset.packed_item_bitmaps
    dataset.packed_channel_bitmaps
    return dataset


def planted_explorer(n_rows: int, deltas=(0.24, 0.16, 0.08)) -> DivergenceExplorer:
    """Outcome rates planted per attribute level with separated gaps.

    Level 0 of attribute ``j`` shifts the positive rate by ``+deltas[j]``
    and level 2 by ``-deltas[j]``, so the single-item divergences are
    well separated (0.24, 0.16, 0.08, then ~0 noise) — the regime in
    which progressive refinement can certify a top-k early.
    """
    rng = np.random.default_rng(7)
    levels = {
        f"a{j}": rng.integers(0, 3, n_rows) for j in range(len(deltas) + 1)
    }
    prob = np.full(n_rows, 0.5)
    for j, delta in enumerate(deltas):
        col = levels[f"a{j}"]
        prob = prob + delta * (col == 0) - delta * (col == 2)
    outcome = rng.random(n_rows) < np.clip(prob, 0.02, 0.98)
    data = {name: col.tolist() for name, col in levels.items()}
    # All-negative ground truth makes fpr the plain positive-prediction
    # rate, so the planted level shifts are exactly the divergences.
    data["class"] = np.zeros(n_rows, dtype=int).tolist()
    data["pred"] = outcome.astype(int).tolist()
    table = Table.from_dict(data)
    return DivergenceExplorer(
        table, "class", "pred", attributes=sorted(levels)
    )


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def test_approx_latency(report):
    get_registry().reset()
    table_rows = []
    latency_points = []

    # -- first-answer latency ------------------------------------------
    for n_rows, layer in LATENCY_CONFIGS:
        if layer == "explore":
            explorer = build_explorer(n_rows, N_ATTRS)
            # Warm shared infrastructure both paths need: the encoded
            # transaction dataset and its packed bitmaps.
            explorer.explore("error", min_support=0.5, max_length=1, use_cache=False)
            exact_seconds, exact = timed(
                lambda: explorer.explore(
                    "error", min_support=SUPPORT, max_length=MAX_LENGTH,
                    use_cache=False,
                )
            )
            # First sampled answer: includes drawing the block sample
            # (design build + row gather + packing the sample) plus
            # mining it.
            sampled_seconds, sampled = timed(
                lambda: explorer.explore(
                    "error", min_support=SUPPORT, max_length=MAX_LENGTH,
                    use_cache=False, sample="auto",
                )
            )
            sample_rows = sampled.sample_rows
            n_patterns = len(sampled)
        else:
            dataset = build_dataset(n_rows, N_ATTRS)
            exact_seconds, exact = timed(
                lambda: mine_frequent(
                    dataset, min_support=SUPPORT, max_length=MAX_LENGTH
                )
            )
            design = SampleDesign(n_rows, seed=0)
            target = auto_sample_rows(n_rows)
            sampled_seconds, sampled = timed(
                lambda: mine_frequent(
                    sample_dataset(dataset, design, target),
                    min_support=SUPPORT,
                    max_length=MAX_LENGTH,
                )
            )
            sample_rows = design.rows_for(target)
            n_patterns = len(sampled)
        speedup = exact_seconds / sampled_seconds
        latency_points.append(
            {
                "rows": n_rows,
                "layer": layer,
                "exact_seconds": exact_seconds,
                "sampled_seconds": sampled_seconds,
                "first_answer_ms": sampled_seconds * 1000.0,
                "sample_rows": sample_rows,
                "patterns": n_patterns,
                "speedup": speedup,
            }
        )
        table_rows.append(
            {
                "config": f"{layer} {n_rows} rows",
                "exact_s": round(exact_seconds, 3),
                "sampled_ms": round(sampled_seconds * 1000.0, 1),
                "speedup": round(speedup, 1),
            }
        )

    # -- convergence: certified top-k agrees with exact ----------------
    explorer = planted_explorer(CONVERGE_ROWS)
    k = 3
    exact = explorer.explore("fpr", min_support=0.05, max_length=1)
    converged = progressive_explore(
        explorer, "fpr", min_support=0.05, k=k, confidence=0.95, max_length=1
    )
    exact_top = [r.itemset for r in exact.top_k(k)]
    approx_top = [r.itemset for r in converged.top_k(k)]
    rank_agreement = exact_top == approx_top
    convergence = {
        "rows": CONVERGE_ROWS,
        "k": k,
        "rounds": getattr(converged, "rounds", 1),
        "sample_rows": getattr(converged, "sample_rows", CONVERGE_ROWS),
        "total_rows": CONVERGE_ROWS,
        "converged_early": bool(getattr(converged, "approximate", False)),
        "rank_agreement": rank_agreement,
        "top_k": [str(itemset) for itemset in exact_top],
    }
    table_rows.append(
        {
            "config": f"converge {CONVERGE_ROWS} rows (k={k})",
            "exact_s": convergence["rounds"],
            "sampled_ms": convergence["sample_rows"],
            "speedup": float(rank_agreement),
        }
    )

    # -- CI coverage calibration ---------------------------------------
    confidence = 0.9
    explorer = planted_explorer(COVERAGE_ROWS, deltas=(0.12, 0.08))
    exact = explorer.explore("fpr", min_support=0.05)
    checked = 0
    covered = 0
    for seed in range(COVERAGE_TRIALS):
        sampled = explorer.explore(
            "fpr", min_support=0.05, sample=0.25,
            confidence=confidence, sample_seed=seed,
        )
        for key in sampled.frequent:
            if key not in exact.frequent:
                continue
            low, high = sampled.ci_for_key(key)
            if np.isnan(low) or np.isnan(high):
                continue
            checked += 1
            true_divergence = exact.divergence_or_zero(key)
            if low <= true_divergence <= high:
                covered += 1
    coverage = covered / checked if checked else float("nan")
    coverage_section = {
        "rows": COVERAGE_ROWS,
        "trials": COVERAGE_TRIALS,
        "sample_fraction": 0.25,
        "confidence": confidence,
        "checked": checked,
        "covered": covered,
        "coverage": coverage,
    }
    table_rows.append(
        {
            "config": f"coverage {COVERAGE_TRIALS} trials (nominal {confidence})",
            "exact_s": checked,
            "sampled_ms": covered,
            "speedup": round(coverage, 3),
        }
    )

    report("approx_latency", format_table(table_rows))

    headline = max(point["speedup"] for point in latency_points)
    payload = {
        "support": SUPPORT,
        "max_length": MAX_LENGTH,
        "attributes": N_ATTRS,
        "cardinality": CARD,
        "latency": latency_points,
        "convergence": convergence,
        "coverage": coverage_section,
        "span_breakdown": span_rows(),
    }
    write_bench_json(
        JSON_PATH, "approx_latency", payload, quick=QUICK, speedup=headline
    )

    # Converged top-k must be rank-identical to exact, and the credible
    # intervals must cover at or above nominal, in quick mode too.
    assert rank_agreement, (exact_top, approx_top)
    assert coverage >= confidence, coverage_section

    if not QUICK:
        # First sampled answer >= 10x faster than exact on a >= 1M-row
        # configuration.
        assert headline >= 10.0, latency_points
