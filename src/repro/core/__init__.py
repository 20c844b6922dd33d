"""Core DivExplorer functionality: divergence over frequent itemsets.

This subpackage implements the paper's contribution: itemset divergence
(Sec. 3), Bayesian statistical significance (Sec. 3.3), Shapley-based
local item contributions (Sec. 4.1), corrective items (Sec. 4.2), global
item divergence (Sec. 4.3), the mining algorithm (Sec. 5), redundancy
pruning (Sec. 3.5) and lattice exploration (Sec. 6.4).
"""

from repro.core.compare import (
    CompareResult,
    PatternShift,
    compare_results,
    delta_columns,
    delta_divergence_score,
    explore_compare,
    regressions,
    resolve_models,
)
from repro.core.continuous import (
    ContinuousDivergenceExplorer,
    ContinuousDivergenceResult,
    ContinuousPatternRecord,
)
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
from repro.core.multi import explore_multi
from repro.core.outcomes import OUTCOME_METRICS, OutcomeFunction, outcome_metric
from repro.core.pruning import prune_redundant, redundancy_margins
from repro.core.result import PatternDivergenceResult, PatternRecord
from repro.core.serialize import lattice_to_dot, result_from_json, result_to_json
from repro.core.shapley import shapley_batch, shapley_contributions
from repro.core.significance import (
    beta_moments,
    welch_t_statistic,
    welch_t_statistic_signed,
)

__all__ = [
    "CompareResult",
    "ContinuousDivergenceExplorer",
    "ContinuousDivergenceResult",
    "ContinuousPatternRecord",
    "CorrectiveItem",
    "DivergenceExplorer",
    "DivergenceLattice",
    "Item",
    "Itemset",
    "LatticeIndex",
    "OUTCOME_METRICS",
    "OutcomeFunction",
    "PatternDivergenceResult",
    "PatternRecord",
    "PatternShift",
    "beta_moments",
    "compare_results",
    "delta_columns",
    "delta_divergence_score",
    "explain_top_k",
    "explore_compare",
    "explore_multi",
    "find_corrective_items",
    "global_divergence_of_itemset",
    "global_item_divergence",
    "individual_item_divergence",
    "lattice_to_dot",
    "outcome_metric",
    "prune_redundant",
    "redundancy_margins",
    "regressions",
    "resolve_models",
    "result_from_json",
    "result_to_json",
    "shapley_batch",
    "shapley_contributions",
    "welch_t_statistic",
    "welch_t_statistic_signed",
]
