"""Ablation — lattice-index analytics vs dict-walk references.

The second tier of the engine: after mining (bitset backend, see
``bench_ablation_fpm_backends``), all lattice analytics — global item
divergence (Def. 4.3), ε-redundancy pruning (Sec. 3.5) and corrective
search (Def. 4.2) — run as vectorized kernels over the columnar
:class:`~repro.core.lattice_index.LatticeIndex`. This ablation times
each kernel against its retained ``*_reference`` oracle on COMPAS,
verifies the outputs are identical (bit-identical rankings), and
writes the timings to ``BENCH_lattice_analytics.json`` at the repo
root for machine consumption.

The lattice index and record cache are warmed before timing either
implementation, so the comparison isolates the per-call analytics cost
— exactly what an interactive session pays after the first query.
"""

import timeit
from pathlib import Path

from _envelope import QUICK, write_bench_json
from repro.core.corrective import find_corrective_items
from repro.core.global_divergence import global_item_divergence
from repro.core.pruning import prune_redundant
from repro.experiments.tables import format_table
from repro.obs import get_registry, span_rows
from tests.oracles import (
    find_corrective_items_reference,
    global_item_divergence_reference,
    prune_redundant_reference,
)

SUPPORTS = [0.1, 0.05, 0.01]
EPSILON = 0.05
TOP_K = 10
JSON_PATH = Path(__file__).parent.parent / "BENCH_lattice_analytics.json"


def _best_seconds(fn, number: int = 10, repeat: int = 5) -> float:
    """Per-call seconds, best of ``repeat`` batches (minimizes jitter)."""
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number


def test_ablation_lattice_analytics(benchmark, compas_explorer, report):
    # Clean registry so the attached span breakdown (index builds plus
    # per-kernel timings) is attributable to this bench alone.
    get_registry().reset()
    rows = []
    points = []
    speedups = {}
    for support in SUPPORTS:
        result = compas_explorer.explore("fpr", min_support=support)
        result.lattice_index()  # warm the index and the record cache
        result.records()

        kernels = {
            "global_item_divergence": (
                lambda r=result: global_item_divergence(r),
                lambda r=result: global_item_divergence_reference(r),
            ),
            "prune_redundant": (
                lambda r=result: prune_redundant(r, EPSILON),
                lambda r=result: prune_redundant_reference(r, EPSILON),
            ),
            "find_corrective_items": (
                lambda r=result: find_corrective_items(r, k=TOP_K),
                lambda r=result: find_corrective_items_reference(r, k=TOP_K),
            ),
        }
        seconds = {}
        for kernel, (vec, ref) in kernels.items():
            # Bit-identical rankings: same order, same float values.
            vec_out, ref_out = vec(), ref()
            if kernel == "global_item_divergence":
                assert list(vec_out) == list(ref_out)
                assert all(vec_out[k] == ref_out[k] for k in vec_out)
            elif kernel == "prune_redundant":
                assert [r.itemset for r in vec_out] == [
                    r.itemset for r in ref_out
                ]
                assert [r.divergence for r in vec_out] == [
                    r.divergence for r in ref_out
                ]
            else:
                assert [
                    (c.base, c.item, c.corrective_factor) for c in vec_out
                ] == [(c.base, c.item, c.corrective_factor) for c in ref_out]
            for impl, fn in (("vectorized", vec), ("reference", ref)):
                elapsed = _best_seconds(fn)
                seconds[(kernel, impl)] = elapsed
                rows.append(
                    {
                        "kernel": kernel,
                        "impl": impl,
                        "s": support,
                        "ms": round(elapsed * 1e3, 4),
                        "patterns": len(result),
                    }
                )
                points.append(
                    {
                        "kernel": kernel,
                        "impl": impl,
                        "min_support": support,
                        "seconds": elapsed,
                        "patterns": len(result),
                    }
                )
        # Headline number: global divergence + pruning, the two analytics
        # every interactive exploration runs.
        combined_ref = (
            seconds[("global_item_divergence", "reference")]
            + seconds[("prune_redundant", "reference")]
        )
        combined_vec = (
            seconds[("global_item_divergence", "vectorized")]
            + seconds[("prune_redundant", "vectorized")]
        )
        speedups[support] = combined_ref / combined_vec
    report("ablation_lattice_analytics", format_table(rows))

    result = compas_explorer.explore("fpr", min_support=0.1)
    benchmark(
        lambda: (global_item_divergence(result), prune_redundant(result, EPSILON))
    )

    # Machine-readable results at the repo root.
    payload = {
        "dataset": "compas",
        "metric": "fpr",
        "supports": SUPPORTS,
        "epsilon": EPSILON,
        "points": points,
        "vectorized_speedup_vs_reference": {
            str(s): v for s, v in speedups.items()
        },
        "span_breakdown": span_rows(),
    }
    write_bench_json(
        JSON_PATH,
        "lattice_analytics",
        payload,
        quick=QUICK,
        speedup=speedups[0.05],
    )

    # The vectorized analytics must beat the dict walks by >= 5x on the
    # paper's default support.
    assert speedups[0.05] >= 5.0, speedups
