"""Regenerate ``perfbench/BASELINE.md``: the traced layer table per workload.

Usage, from the root of a checkout: ``python3 perfbench/baseline.py [SEED]``.

Runs ``run.py --trace 1`` once per workload, plus one traced library
probe of heart at support 0.01 (the paper-scale lattice, too slow for a
timed workload), and writes the per-layer tables with a note naming the
hardware they were measured on.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from run import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = 10


def traced_run(workload: str, seed: int) -> tuple[dict, list[dict], str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    ops = [json.loads(line[len("trace_op "):]) for line in lines if line.startswith("trace_op ")]
    summary = next(line for line in lines if line.startswith(workload))
    return json.loads(lines[-1]), ops, summary


def heart_probe(seed: int) -> dict:
    """Traced ``explore`` + ``top_k(10)`` of heart at support 0.01."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from repro import DivergenceExplorer, datasets
    from tracing import Tracer, group_self_times, install_layer_wrappers

    data = datasets.load("heart", seed=seed)
    explorer = DivergenceExplorer(
        data.table, data.true_column, data.pred_column, attributes=data.attributes
    )
    tracer = Tracer()
    install_layer_wrappers(tracer)
    tracer.set_op(0)
    started = time.perf_counter()
    with tracer.span("op"):
        result = explorer.explore("fpr", min_support=0.01)
        result.top_k(10)
    wall = time.perf_counter() - started
    tracer.set_op(None)
    layers = group_self_times(tracer.spans)[0]
    layers.pop("op", None)
    return {"wall_ms": wall * 1e3, "itemsets": len(result), "self_ms": {
        k: v * 1e3 for k, v in layers.items()}}


def anomalies(runs: dict, probe: dict) -> list[str]:
    """Where the slow spots measured before this benchmark existed go."""
    def share(workload: str, *layers: str) -> float:
        metrics = runs[workload][0]["metrics"]
        return sum(metrics[f"{layer}.share"]["value"] for layer in layers)

    heart_ops = runs["heart-cold"][1]
    walls = [op["wall_ms"] for op in heart_ops]
    gcs = [op["self_ms"].get("gc.pause", 0.0) for op in heart_ops]
    self_ms = probe["self_ms"]
    return [
        "## Anomalies attributed", "",
        f"- heart @ 0.01, {probe['itemsets']} itemsets: `top_k(10)` takes "
        f"{self_ms.get('result.top_k', 0):.0f} ms of self time against a "
        f"{self_ms.get('fpm.mine', 0):.0f} ms mine, plus "
        f"{self_ms.get('gc.pause', 0):.0f} ms of GC. `top_k` materialises a "
        "record for every itemset to return ten.",
        f"- heart-cold (@ ~0.03): cold requests take {min(walls):.0f}–{max(walls):.0f} ms "
        f"for the same lattice. GC takes {min(gcs):.0f}–{max(gcs):.0f} ms of each op "
        f"({share('heart-cold', 'gc.pause'):.0%} of op time), because the server "
        "keeps every cached result alive for each full collection.",
        f"- rows1m-cold: mining is {share('rows1m-cold', 'fpm.mine'):.0%} of op time. "
        f"Encoding, dataset set-up, packing and fingerprinting add "
        f"{share('rows1m-cold', 'outcomes.encode', 'transactions.init', 'transactions.pack', 'transactions.fingerprint'):.0%}.",
        f"- rank1m-cold: the dense fixed-point mining fallback is "
        f"{share('rank1m-cold', 'fpm.mine_dense'):.0%} of op time, and weights plus "
        f"encoding are {share('rank1m-cold', 'rank.weights'):.0%}, for "
        f"{runs['rank1m-cold'][0]['metrics']['fpm.itemsets']['value']:.0f} itemsets.",
        "",
    ]


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    out = [
        "# Baseline layer table",
        "",
        f"Generated by `python3 perfbench/baseline.py {seed}` "
        f"({platform.machine()}, {os.cpu_count()} CPUs, Python "
        f"{platform.python_version()}; shared machine, expect ±15% drift).",
        "Self time per layer from one traced run per workload: median ms over",
        "the ops the layer ran in, and share of all op wall time.",
        "",
    ]
    runs = {
        workload: traced_run(workload, seed)
        for workload in ("heart-cold", "rows1m-cold", "rank1m-cold", "session-warm")
    }
    probe = heart_probe(seed)
    out += anomalies(runs, probe)
    for workload, (result, ops, summary) in runs.items():
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        out += [
            f"## {workload}", "",
            f"`{summary}`", "",
            f"coverage {metrics['trace.coverage']:.3f}, tracing overhead "
            f"{metrics['trace.overhead_ms']:.1f} ms/op "
            f"({metrics['trace.overhead_share']:+.1%}), "
            f"{metrics['fpm.itemsets']:.0f} itemsets per mined op, "
            f"{metrics['gc.gen2_collections']:.2f} gen-2 collections per op.",
            "",
            "| layer | median ms | share |", "|---|---:|---:|",
        ]
        for layer in LAYERS:
            share = metrics[f"{layer}.share"]
            if share:
                out.append(f"| {layer} | {metrics[layer + '_ms']:.2f} | {share:.3f} |")
        if metrics["trace.ops"] <= 50:
            out += ["", "| op | wall ms | fpm.mine | result.top_k | gc.pause |",
                    "|---:|---:|---:|---:|---:|"]
            for op in ops:
                self_ms = op["self_ms"]
                out.append(
                    f"| {op['op']} | {op['wall_ms']:.0f} | "
                    f"{self_ms.get('fpm.mine', self_ms.get('fpm.mine_dense', 0)):.0f} | "
                    f"{self_ms.get('result.top_k', 0):.0f} | {self_ms.get('gc.pause', 0):.0f} |"
                )
        out.append("")
    out += [
        "## heart @ support 0.01 (library probe, fpr)", "",
        f"{probe['itemsets']} itemsets, explore + top_k(10) in {probe['wall_ms']:.0f} ms.",
        "", "| layer | self ms |", "|---|---:|",
    ]
    for layer, ms in sorted(probe["self_ms"].items(), key=lambda kv: -kv[1]):
        out.append(f"| {layer} | {ms:.1f} |")
    (HERE / "BASELINE.md").write_text("\n".join(out) + "\n")


if __name__ == "__main__":
    main()
