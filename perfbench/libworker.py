"""Library workload process: set-up, closed-loop ops, optional tracing.

Usage: ``python perfbench/libworker.py WORKLOAD SEED SECONDS TRACE OUT_DIR``.

Runs in its own process so that its peak RSS belongs to the workload
alone. Prints one JSON object on its last stdout line: set-up times,
per-op latencies and answer digests, peak RSS and, when traced, the
path of the span file plus mining-cache statistics.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from contextlib import nullcontext

import plans
from tracing import Tracer, install_layer_wrappers

SETUP_REPEATS = 3
#: Each op on a new metric or weight model keeps one more packed dataset
#: in the explorer, so memory grows with the op count; reading the peak
#: after a fixed count keeps it independent of how many ops a run fits.
RSS_AFTER_OPS = 3


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM not found in /proc/self/status")


def make_data(workload: str, seed: int):
    """Generate the workload's dataset."""
    if workload == "rows1m-cold":
        return plans.rows1m_table(seed)
    return plans.rank1m_data(seed)


def make_explorer(workload: str, data):
    """Construct the workload's explorer over generated data."""
    from repro import DivergenceExplorer, RankDivergenceExplorer

    if workload == "rows1m-cold":
        return DivergenceExplorer(data, "class", "pred")
    table, scores, attributes = data
    return RankDivergenceExplorer(table, scores, attributes=attributes)


def run_op(workload: str, explorer, cell) -> list:
    """One op: an explore call plus top-10 rendering."""
    if workload == "rows1m-cold":
        metric, support = cell
        result = explorer.explore(metric, min_support=support)
    else:
        model, k, support = cell
        result = explorer.explore(model, min_support=support, topk=k)
    return [len(result) - 1, plans.rows_digest(result.top_k(10))]


def run_ops(workload, explorer, plan, seconds=None, count=None, tracer=None):
    """Closed loop: ops back to back until ``seconds`` pass or ``count`` ops.

    Returns latencies, answer digests, wall seconds and the peak RSS read
    after :data:`RSS_AFTER_OPS` ops (or at the end, if fewer ran).
    """
    latencies, digests, rss = [], [], []
    started = time.perf_counter()
    for i, cell in enumerate(plan):
        if count is not None and i >= count:
            break
        if seconds is not None and time.perf_counter() - started >= seconds:
            break
        if tracer is not None:
            tracer.set_op(i)
        t0 = time.perf_counter()
        with tracer.span("op") if tracer is not None else nullcontext():
            digest = run_op(workload, explorer, cell)
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.set_op(None)
        digests.append(digest)
        if len(digests) == RSS_AFTER_OPS:
            rss.append(peak_rss_mb())
    wall = time.perf_counter() - started
    return latencies, digests, wall, rss[0] if rss else peak_rss_mb()


def main() -> None:
    workload, seed, seconds, trace, out_dir = sys.argv[1:6]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    plan = plans.rows1m_plan(seed) if workload == "rows1m-cold" else plans.rank1m_plan(seed)

    setup = []
    data = explorer = None
    for _ in range(1 if trace else SETUP_REPEATS):
        data = explorer = None
        gc.collect()
        t0 = time.perf_counter()
        data = make_data(workload, seed)
        explorer = make_explorer(workload, data)
        setup.append(time.perf_counter() - t0)

    latencies, digests, wall, peak = run_ops(workload, explorer, plan, seconds=seconds)
    out = {
        "setup_s": setup,
        "latencies": latencies,
        "digests": digests,
        "wall": wall,
        "peak_rss_mb": peak,
    }
    if trace:
        # Same ops again on a fresh explorer (cold caches), with every
        # layer wrapped; the untraced pass above is the overhead baseline.
        explorer = None
        gc.collect()
        explorer = make_explorer(workload, data)
        tracer = Tracer()
        install_layer_wrappers(tracer)
        t_lat, t_digests, _, _ = run_ops(
            workload, explorer, plan, count=len(latencies), tracer=tracer
        )
        spans_path = os.path.join(out_dir, f"spans-{workload}-{os.getpid()}.json")
        tracer.dump(spans_path)
        out.update(
            traced_latencies=t_lat,
            traced_digests=t_digests,
            spans=spans_path,
            mining_cache=explorer.mining_cache.stats.as_dict(),
        )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
