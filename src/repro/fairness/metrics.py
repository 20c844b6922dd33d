"""Subgroup fairness metrics from one multi-metric exploration.

Definitions (subgroup g vs the overall population):

- statistical parity difference  SPD(g) = P(û=1 | g) − P(û=1)
- disparate impact               DI(g)  = P(û=1 | g) / P(û=1)
- equal opportunity difference   EOD(g) = TPR(g) − TPR
- average odds difference        AOD(g) = ½[(FPR(g) − FPR) + (TPR(g) − TPR)]

Each is a simple function of divergences the library already mines
(``predr``, ``tpr``, ``fpr``), so one mining pass yields the complete
audit for *all* frequent subgroups — the exhaustive analogue of
fixed-protected-attribute audits, covering intersectional subgroups
automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.divergence import DivergenceExplorer
from repro.core.items import Itemset
from repro.core.multi import explore_multi
from repro.exceptions import ReproError

_METRICS = ("predr", "tpr", "fpr")


@dataclass(frozen=True)
class FairnessRecord:
    """Fairness measures of one subgroup."""

    itemset: Itemset
    support: float
    statistical_parity_difference: float
    disparate_impact: float
    equal_opportunity_difference: float
    average_odds_difference: float

    def worst_violation(self) -> float:
        """Largest absolute deviation across the difference measures."""
        return max(
            abs(self.statistical_parity_difference),
            abs(self.equal_opportunity_difference),
            abs(self.average_odds_difference),
        )


class FairnessReport:
    """Fairness measures for every frequent subgroup."""

    def __init__(self, records: list[FairnessRecord]) -> None:
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def record(self, itemset: Itemset) -> FairnessRecord:
        """Measures for one subgroup (raises if not frequent)."""
        for rec in self._records:
            if rec.itemset == itemset:
                return rec
        raise ReproError(f"subgroup ({itemset}) not in the report")

    def worst(self, k: int = 10, by: str = "worst") -> list[FairnessRecord]:
        """Top-k subgroups by fairness violation.

        ``by``: ``"worst"`` (max absolute difference), ``"spd"``,
        ``"eod"``, ``"aod"`` or ``"di"`` (distance of the ratio from 1).
        """
        key_fn = {
            "worst": lambda r: r.worst_violation(),
            "spd": lambda r: abs(r.statistical_parity_difference),
            "eod": lambda r: abs(r.equal_opportunity_difference),
            "aod": lambda r: abs(r.average_odds_difference),
            "di": lambda r: abs(math.log(r.disparate_impact))
            if r.disparate_impact > 0
            else math.inf,
        }.get(by)
        if key_fn is None:
            raise ReproError(f"unknown ranking {by!r}")
        usable = [r for r in self._records if not math.isnan(key_fn(r))]
        usable.sort(key=key_fn, reverse=True)
        return usable[:k]


def fairness_audit(
    explorer: DivergenceExplorer,
    min_support: float = 0.05,
    max_length: int | None = None,
) -> FairnessReport:
    """Audit every frequent subgroup for group-fairness violations.

    One mining pass computes predicted-positive-rate, TPR and FPR
    divergences simultaneously; the fairness measures are derived per
    subgroup.
    """
    results = explore_multi(
        explorer, list(_METRICS), min_support=min_support, max_length=max_length
    )
    predr, tpr, fpr = (results[m] for m in _METRICS)
    overall_predr = predr.global_rate

    # The three tables share one mined key table, so row r is the same
    # subgroup in each.
    rows = np.flatnonzero(predr.length_vector() > 0)
    records: list[FairnessRecord] = []
    for rec_p, rec_t, rec_f in zip(
        predr.records_for_rows(rows),
        tpr.records_for_rows(rows),
        fpr.records_for_rows(rows),
    ):
        spd = rec_p.divergence
        di = (
            rec_p.rate / overall_predr
            if overall_predr and not math.isnan(rec_p.rate)
            else float("nan")
        )
        eod = rec_t.divergence
        if math.isnan(rec_f.divergence) or math.isnan(eod):
            aod = float("nan")
        else:
            aod = 0.5 * (rec_f.divergence + eod)
        records.append(
            FairnessRecord(
                itemset=rec_p.itemset,
                support=rec_p.support,
                statistical_parity_difference=spd,
                disparate_impact=di,
                equal_opportunity_difference=eod,
                average_odds_difference=aod,
            )
        )
    return FairnessReport(records)
