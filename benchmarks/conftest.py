"""Shared fixtures for the benchmark harness.

Each bench module reproduces one table or figure of the paper: it
regenerates the rows/series the paper reports, prints them, writes them
to ``benchmarks/results/<name>.txt``, and asserts the qualitative shape
(who wins, direction of effects, where crossovers fall). A
``REPRO_BENCH_QUICK`` smoke prints its rows but leaves the committed
results files alone.

Datasets are loaded once per session through the registry cache, so the
expensive steps (classifier training, mining) are not repeated across
bench modules.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from _envelope import QUICK

from repro.core.divergence import DivergenceExplorer
from repro.datasets import load

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def report():
    """Print a reproduced table/figure and persist it under results/."""
    def _report(name: str, text: str) -> None:
        banner = f"\n{'=' * 70}\n{name}\n{'=' * 70}\n{text}\n"
        # Bypass pytest capture so the rows are visible in the console.
        sys.__stdout__.write(banner)
        sys.__stdout__.flush()
        if not QUICK:
            RESULTS_DIR.mkdir(exist_ok=True)
            (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _report


@pytest.fixture(scope="session")
def compas_data():
    return load("compas", seed=0)


@pytest.fixture(scope="session")
def compas_explorer(compas_data):
    return DivergenceExplorer(
        compas_data.table, compas_data.true_column, compas_data.pred_column
    )


@pytest.fixture(scope="session")
def adult_data():
    return load("adult", seed=0)


@pytest.fixture(scope="session")
def adult_explorer(adult_data):
    return DivergenceExplorer(
        adult_data.table, adult_data.true_column, adult_data.pred_column
    )


@pytest.fixture(scope="session")
def artificial_data():
    return load("artificial", seed=0)


@pytest.fixture(scope="session")
def artificial_explorer(artificial_data):
    return DivergenceExplorer(
        artificial_data.table,
        artificial_data.true_column,
        artificial_data.pred_column,
    )
