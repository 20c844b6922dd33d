"""Uniform envelope for the committed ``BENCH_*.json`` artifacts.

Every benchmark script commits a machine-readable JSON file at the repo
root. Historically each invented its own top-level shape, which made the
artifacts annoying to sweep (is this a quick run? what is the headline
number?). :func:`write_bench_json` standardizes the first three keys of
every artifact:

``name``
    The benchmark's stable identifier (matches the script name).
``quick``
    Whether the run was a ``REPRO_BENCH_QUICK`` smoke. Quick runs carry
    no performance claims, so they never overwrite the committed file.
``speedup``
    The headline speedup the benchmark asserts on in full mode (the
    single number a dashboard would plot), or ``None`` when the
    benchmark has no single ratio.

Benchmark-specific keys follow after the envelope, unchanged.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

# A ``REPRO_BENCH_QUICK`` smoke: benchmarks shrink or skip their timed
# claims, and neither the JSON artifact nor the results text is written.
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))


def write_bench_json(
    path: Path,
    name: str,
    payload: dict,
    *,
    quick: bool,
    speedup: float | None,
) -> dict:
    """Write ``payload`` under the uniform envelope; return the body.

    A quick run returns the body without writing it.
    """
    body = {
        "name": name,
        "quick": bool(quick),
        "speedup": None if speedup is None else float(speedup),
    }
    for key, value in payload.items():
        if key not in ("name", "quick", "speedup"):
            body[key] = value
    if not quick:
        Path(path).write_text(json.dumps(body, indent=2) + "\n")
    return body
