"""Seeded op plans for each workload and their fpgrowth reference answers.

Every op is planned (and its expected answer computed with
``algorithm="fpgrowth"``) before timing starts. The plans hold more ops
than one run can complete, so a faster program never runs out of work.

Each answer is reduced to a digest: a nested list of strings, ints and
floats that both the program's output and the reference map to.
Non-finite floats become ``None`` (as the server's JSON does).
"""

from __future__ import annotations

import math

import numpy as np

#: Relative tolerance for floats that come out of a reduction over the
#: table (global divergence, Shapley values). Backends enumerate itemsets
#: in different orders, so such sums may differ in the last bits.
FLOAT_RTOL = 1e-9

ROWS1M_ROWS = 1_000_000
ROWS1M_ATTRS = 8
ROWS1M_CARD = 3
RANK1M_ROWS = 1_000_000
RANK1M_OPS = 40

HEART_SUPPORT = 0.0300
HEART_ROUNDS = 10
SESSION_SUPPORT = 0.05
SESSION_COARSE_SUPPORT = 0.1
SESSION_DATASETS = ("adult", "compas")
SESSION_METRICS = ("fpr", "fnr", "error", "accuracy")
#: Metric used only by server warm-up requests, never by a timed op, so
#: warm-up leaves no packed dataset or cached answer that an op reuses.
WARMUP_METRIC = "posr"


def op_metrics() -> list[str]:
    from repro import OUTCOME_METRICS

    return [m for m in OUTCOME_METRICS if m != WARMUP_METRIC]


# ----------------------------------------------------------------------
# digests


def clean(value):
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, np.integer):
        return int(value)
    return value


def rows_digest(records) -> list:
    return [
        [str(r.itemset), clean(r.support), clean(r.divergence),
         clean(r.t_statistic), clean(r.t_signed)]
        for r in records
    ]


def explore_digest(payload: dict) -> list:
    return [
        payload["n_patterns"],
        [[p["itemset"], p["support"], p["divergence"], p["t"], p["t_signed"]]
         for p in payload["patterns"]],
    ]


def same(a, b) -> bool:
    """Digest equality; floats within :data:`FLOAT_RTOL`."""
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=1e-12)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def min_count(support: float, n_rows: int) -> int:
    """Rows an itemset must cover to be frequent, rounded as the miners do."""
    return max(1, math.ceil(support * n_rows - 1e-9))


def at_support(result, support: float):
    """The reference table at a higher support, by filtering its counts."""
    from repro.fpm.miner import FrequentItemsets

    frequent = result.frequent
    threshold = min_count(support, frequent.n_rows)
    counts = {
        key: vec for key, vec in frequent.items()
        if not key or int(vec[0]) >= threshold
    }
    return type(result)(
        FrequentItemsets(counts, frequent.n_rows, support),
        result.catalog, result.metric, support,
    )


def explore_refs(results: dict, cells) -> list[list]:
    """Top-10 explore digests per (metric, support) cell.

    ``results`` holds one reference table per metric, mined at the lowest
    support of the cells. Filtering is monotone, so cells with the same
    frequent count share one table, which is ranked once.
    """
    digests: dict[tuple, list] = {}
    out = []
    for metric, support in cells:
        base = results[metric]
        threshold = min_count(support, base.n_rows)
        key = (metric, sum(1 for _, vec in base.frequent.items() if vec[0] >= threshold))
        if key not in digests:
            table = at_support(base, support)
            digests[key] = [len(table) - 1, rows_digest(table.top_k(10))]
        out.append(digests[key])
    return out


# ----------------------------------------------------------------------
# library workloads


def rows1m_table(seed: int):
    """Uniform 1M-row table: 8 attributes of cardinality 3, random labels."""
    from repro.tabular.column import CategoricalColumn
    from repro.tabular.table import Table

    rng = np.random.default_rng(seed)
    labels = [str(v) for v in range(ROWS1M_CARD)]
    columns = [
        CategoricalColumn(f"a{j}", rng.integers(0, ROWS1M_CARD, ROWS1M_ROWS), labels)
        for j in range(ROWS1M_ATTRS)
    ]
    for name in ("class", "pred"):
        columns.append(CategoricalColumn(name, rng.integers(0, 2, ROWS1M_ROWS), [0, 1]))
    return Table(columns)


def rows1m_plan(seed: int) -> list[tuple[str, float]]:
    """(metric, support) cells: six metrics, supports falling per round.

    Within a metric each support is below every earlier one, so every op
    misses the mining cache; the first round also builds each metric's
    packed dataset. All supports lie between the length-5 (0.41%) and
    length-4 (1.23%) itemset supports, so every cell has 7,458 patterns.
    """
    rng = np.random.default_rng(seed)
    metrics = [str(m) for m in rng.permutation(op_metrics())[:6]]
    return [
        (metric, round(0.0100 - 0.0002 * r, 4))
        for r in range(4)
        for metric in metrics
    ]


def rows1m_reference(table, plan) -> list[list]:
    from repro import DivergenceExplorer, explore_multi

    explorer = DivergenceExplorer(table, "class", "pred")
    metrics = sorted({m for m, _ in plan})
    results = explore_multi(
        explorer, metrics, min(s for _, s in plan), algorithm="fpgrowth"
    )
    return explore_refs(results, plan)


def rank1m_data(seed: int):
    """The ``ranking`` generator at 1M rows (bypassing the load cache)."""
    from repro.datasets import ranking

    data = ranking.generate(seed=seed, n_rows=RANK1M_ROWS)
    return data.table, data.table.continuous("score").values, data.attributes


def rank1m_plan(seed: int) -> list[tuple[str, int | None, float]]:
    """(weight model, top-k size, support) cells, each a cache miss.

    Models alternate with ``topk`` at one of four k values, so the first
    eight ops compute the seven weight vectors of the plan; supports fall
    op by op, so every op misses the mining cache. The ranking table's
    smallest cell holds 1/72 of the rows, so every op mines the full
    240-itemset lattice.
    """
    rng = np.random.default_rng(seed)
    others = [str(m) for m in rng.permutation(["exposure", "reciprocal_rank", "score"])]
    ks = [int(k) for k in rng.choice(np.arange(1_000, 200_000, 1_000), 4, replace=False)]
    plan = []
    for i in range(RANK1M_OPS):
        model, k = ("topk", ks[(i // 2) % 4]) if i % 2 else (others[(i // 2) % 3], None)
        plan.append((model, k, round(0.0100 - 0.0002 * i, 4)))
    return plan


def rank1m_reference(table, scores, attributes, plan) -> list[list]:
    """One fpgrowth pass over every op's (Σw, Σw²) channels side by side."""
    from repro.core.fixedpoint import encode_weight_channels
    from repro.fpm.miner import FrequentItemsets, mine_frequent
    from repro.fpm.transactions import TransactionDataset
    from repro.rank import RankDivergenceExplorer, RankDivergenceResult

    explorer = RankDivergenceExplorer(table, scores, attributes=attributes)
    models = sorted({(m, k) for m, k, _ in plan}, key=str)
    channels = np.hstack(
        [encode_weight_channels(explorer.weights(m, k)) for m, k in models]
    )
    dataset = TransactionDataset(
        table.encoded_matrix(explorer.attributes), explorer.catalog, channels
    )
    frequent = mine_frequent(
        dataset, min(s for _, _, s in plan), algorithm="fpgrowth"
    )
    keys, matrix = frequent.count_table()
    digests = []
    for model, k, support in plan:
        col = 1 + 2 * models.index((model, k))
        per_model = FrequentItemsets(
            dict(zip(keys, matrix[:, [0, col, col + 1]])), frequent.n_rows, support
        )
        metric = f"topk@{k}" if model == "topk" else model
        result = at_support(
            RankDivergenceResult(per_model, explorer.catalog, metric, support),
            support,
        )
        digests.append([len(result) - 1, rows_digest(result.top_k(10))])
    return digests


# ----------------------------------------------------------------------
# server workloads


def _server_results(name: str, seed: int, metrics, support: float) -> dict:
    from repro import DivergenceExplorer, datasets, explore_multi

    data = datasets.load(name, seed=seed)
    explorer = DivergenceExplorer(
        data.table, data.true_column, data.pred_column, attributes=data.attributes
    )
    return explore_multi(explorer, list(metrics), support, algorithm="fpgrowth")


def _op(path: str, params: dict, ref, kind: str = "explore") -> dict:
    return {"path": path, "params": params, "ref": ref, "kind": kind}


def heart_plan(seed: int) -> list[dict]:
    """Cold ``/api/explore`` cells on heart: every (metric, support) new.

    Supports step down 0.0001 per round from 0.03; on 296 rows they all
    round to a 9-row threshold, so each cell mines the same lattice while
    missing both the result cache and the mining cache.
    """
    rng = np.random.default_rng(seed)
    metrics = [str(m) for m in rng.permutation(op_metrics())[:6]]
    cells = [
        (metric, round(HEART_SUPPORT - 0.0001 * r, 4))
        for r in range(HEART_ROUNDS)
        for metric in metrics
    ]
    refs = explore_refs(
        _server_results("heart", seed, metrics, min(s for _, s in cells)), cells
    )
    return [
        _op("/api/explore", {"dataset": "heart", "metric": m, "support": s, "top": 10}, ref)
        for (m, s), ref in zip(cells, refs)
    ]


def _kernel_refs(result, pattern_text: str) -> dict:
    """Reference digests of the warm analysis endpoints for one result."""
    from repro import (
        explain_top_k, find_corrective_items, global_item_divergence,
        individual_item_divergence, prune_redundant,
    )
    from repro.core.items import Itemset

    pattern = Itemset.parse(pattern_text)
    global_div = global_item_divergence(result)
    individual = individual_item_divergence(result)
    top_global = sorted(global_div.items(), key=lambda kv: -kv[1])[:12]
    lattice = result.lattice(pattern)
    return {
        "explore_eps": [
            len(result) - 1, rows_digest(prune_redundant(result, 0.05)[:10])
        ],
        "explain": [
            [str(e["itemset"]), clean(e["divergence"]), clean(e["support"]),
             clean(e["t_statistic"]),
             sorted([str(item), clean(v)] for item, v in e["contributions"].items())]
            for e in explain_top_k(result, k=5)
        ],
        "global": sorted(
            [str(item), clean(value), clean(individual.get(item, math.nan))]
            for item, value in top_global
        ),
        "corrective": sorted(
            [str(c.base), str(c.item), clean(c.base_divergence),
             clean(c.corrected_divergence), clean(c.corrective_factor),
             clean(c.t_statistic)]
            for c in find_corrective_items(result, k=10)
        ),
        "lattice": [
            sorted(
                [str(node), len(node), clean(data["divergence"]),
                 clean(data["support"]), data["corrective"]]
                for node, data in lattice.graph.nodes(data=True)
            ),
            sorted(
                [str(parent), str(child), clean(data["delta"])]
                for parent, child, data in lattice.graph.edges(data=True)
            ),
        ],
        "shapley": [
            str(pattern), clean(result.divergence_of(pattern)),
            sorted([str(item), clean(v)] for item, v in result.shapley(pattern).items()),
        ],
    }


def response_digest(kind: str, payload: dict) -> list:
    """Map a server response to the digest its reference uses."""
    if kind in ("explore", "explore_eps"):
        return explore_digest(payload)
    if kind == "explain":
        return [
            [p["itemset"], p["divergence"], p["support"], p["t"],
             sorted([c["item"], c["value"]] for c in p["contributions"])]
            for p in payload["patterns"]
        ]
    if kind == "global":
        return sorted([i["item"], i["global"], i["individual"]] for i in payload["items"])
    if kind == "corrective":
        return sorted(
            [c["base"], c["item"], c["base_divergence"], c["corrected_divergence"],
             c["factor"], c["t"]]
            for c in payload["corrective"]
        )
    if kind == "lattice":
        return [
            sorted([n["itemset"], n["length"], n["divergence"], n["support"],
                    n["corrective"]] for n in payload["nodes"]),
            sorted([e["parent"], e["child"], e["delta"]] for e in payload["edges"]),
        ]
    if kind == "shapley":
        return [
            payload["pattern"], payload["divergence"],
            sorted([c["item"], c["value"]] for c in payload["contributions"]),
        ]
    raise ValueError(f"unknown op kind {kind!r}")


def addressable_pattern(records) -> str:
    """Text of the highest-ranked pattern that ``Itemset.parse`` reads back.

    ``Itemset.parse`` splits on every comma, so a pattern with an interval
    label such as ``(0, 3]`` cannot be named in ``/api/lattice`` or
    ``/api/shapley`` (a known defect of the program, reported in
    ``perfbench/README.md``); those endpoints get the best pattern they
    can address.
    """
    from repro.core.items import Itemset
    from repro.exceptions import SchemaError

    for record in records:
        text = str(record.itemset)
        try:
            if str(Itemset.parse(text)) == text:
                return text
        except SchemaError:
            continue
    raise RuntimeError("no top pattern can be addressed by Itemset.parse")


def session_plan(seed: int, replays: int = 5000) -> list[list[dict]]:
    """Analyst sessions on adult and compas.

    One config per (dataset, metric), four metrics on each dataset. The
    first session on each config opens with the explore that mines it (a
    miss in the result and mining caches) and then runs the fixed mix of
    reads once. Later sessions replay the mix over the configs in a
    seeded order. The configs, their coarse-support entries and the
    warm-up answers fit the server's 32-entry result cache, so replays
    are never evicted.
    """
    rng = np.random.default_rng(seed)
    configs = [(name, m) for name in SESSION_DATASETS for m in SESSION_METRICS]
    configs = [configs[i] for i in rng.permutation(len(configs))]
    mixes = {}
    for name in SESSION_DATASETS:
        results = _server_results(name, seed, SESSION_METRICS, SESSION_SUPPORT)
        for metric in SESSION_METRICS:
            mixes[name, metric] = _session_mix(name, metric, results[metric])
    plan = [[mixes[c][0], *mixes[c]] for c in configs]
    for r in range(replays):
        mix = mixes[configs[r % len(configs)]]
        plan.append([mix[j] for j in rng.permutation(len(mix))])
    return plan


def _session_mix(name: str, metric: str, result) -> list[dict]:
    """The fixed read mix on one config, with its reference answers.

    Six of its eleven reads are explore views (the result table an
    analyst keeps returning to); five are analysis kernels.
    """
    coarse = at_support(result, SESSION_COARSE_SUPPORT)
    top = result.top_k(20)
    pattern = addressable_pattern(top)
    refs = _kernel_refs(result, pattern)
    base = {"dataset": name, "metric": metric, "support": SESSION_SUPPORT}
    n_patterns = len(result) - 1
    return [
        _op("/api/explore", {**base, "top": 10}, [n_patterns, rows_digest(top[:10])]),
        _op("/api/explore", {**base, "top": 5}, [n_patterns, rows_digest(top[:5])]),
        _op("/api/explore", {**base, "top": 20}, [n_patterns, rows_digest(top)]),
        _op("/api/explore", {**base, "top": 3}, [n_patterns, rows_digest(top[:3])]),
        _op("/api/explore", {**base, "top": 10, "epsilon": 0.05},
            refs["explore_eps"], "explore_eps"),
        _op("/api/explain", {**base, "top": 5}, refs["explain"], "explain"),
        _op("/api/global", base, refs["global"], "global"),
        _op("/api/corrective", base, refs["corrective"], "corrective"),
        _op("/api/lattice", {**base, "pattern": pattern}, refs["lattice"], "lattice"),
        _op("/api/shapley", {**base, "pattern": pattern}, refs["shapley"], "shapley"),
        _op("/api/explore", {**base, "support": SESSION_COARSE_SUPPORT, "top": 10},
            [len(coarse) - 1, rows_digest(coarse.top_k(10))]),
    ]
