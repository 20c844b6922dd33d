"""repro — reproduction of DivExplorer (Pastor, de Alfaro, Baralis, SIGMOD 2021).

"Looking for Trouble: Analyzing Classifier Behavior via Pattern
Divergence": exhaustive divergence analysis of classifier behaviour over
all sufficiently supported data subgroups (itemsets), with Shapley-based
local and global item contributions, corrective items, Bayesian
significance, redundancy pruning and lattice exploration.

Quickstart::

    from repro import DivergenceExplorer, datasets

    data = datasets.load("compas", seed=0)
    explorer = DivergenceExplorer(data.table, data.true_column, data.pred_column)
    result = explorer.explore(metric="fpr", min_support=0.1)
    for record in result.top_k(3):
        print(record.itemset, record.divergence, record.t_statistic)
"""

from repro import datasets, fairness
from repro.approx import ApproxResult, progressive_explore
from repro.core.compare import (
    CompareResult,
    PatternShift,
    compare_results,
    delta_columns,
    explore_compare,
    regressions,
    resolve_models,
)
from repro.core.continuous import ContinuousDivergenceExplorer
from repro.core.multi import explore_multi
from repro.core.serialize import lattice_to_dot, result_from_json, result_to_json
from repro.core.shapley_sampling import shapley_contributions_sampled
from repro.core.corrective import CorrectiveItem, find_corrective_items
from repro.core.divergence import DivergenceExplorer
from repro.core.global_divergence import (
    global_divergence_of_itemset,
    global_item_divergence,
    individual_item_divergence,
)
from repro.core.explanations import explain_top_k
from repro.core.items import Item, Itemset
from repro.core.lattice import DivergenceLattice
from repro.core.lattice_index import LatticeIndex
from repro.core.outcomes import OUTCOME_METRICS, outcome_metric
from repro.core.pruning import prune_redundant
from repro.core.result import PatternDivergenceResult, PatternRecord
from repro.rank import RankDivergenceExplorer, RankDivergenceResult
from repro.core.shapley import shapley_batch, shapley_contributions
from repro.exceptions import ReproError
from repro.stream import (
    DivergenceMonitor,
    DriftAlert,
    DriftConfig,
    DriftInjection,
    StreamBuffer,
)
from repro.tabular.discretize import BinSpec, discretize_table
from repro.tabular.io import read_csv, write_csv
from repro.tabular.table import Table

__version__ = "1.0.0"

__all__ = [
    "ApproxResult",
    "BinSpec",
    "CompareResult",
    "ContinuousDivergenceExplorer",
    "CorrectiveItem",
    "DivergenceExplorer",
    "DivergenceLattice",
    "DivergenceMonitor",
    "DriftAlert",
    "DriftConfig",
    "DriftInjection",
    "Item",
    "Itemset",
    "LatticeIndex",
    "PatternShift",
    "OUTCOME_METRICS",
    "PatternDivergenceResult",
    "PatternRecord",
    "RankDivergenceExplorer",
    "RankDivergenceResult",
    "ReproError",
    "StreamBuffer",
    "Table",
    "__version__",
    "compare_results",
    "datasets",
    "delta_columns",
    "explain_top_k",
    "explore_compare",
    "explore_multi",
    "fairness",
    "discretize_table",
    "find_corrective_items",
    "lattice_to_dot",
    "global_divergence_of_itemset",
    "global_item_divergence",
    "individual_item_divergence",
    "outcome_metric",
    "progressive_explore",
    "prune_redundant",
    "regressions",
    "resolve_models",
    "result_from_json",
    "result_to_json",
    "read_csv",
    "shapley_batch",
    "shapley_contributions",
    "shapley_contributions_sampled",
    "write_csv",
]
