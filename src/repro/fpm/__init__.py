"""Frequent pattern mining substrate.

From-scratch miners — the level-wise packed-bitmap bitset engine
(default; ``"eclat"`` names the same engine), FP-growth, Apriori and a
brute-force oracle — all augmented to carry per-itemset *outcome
channel* counts (the one-hot encoded outcome function of the paper's
Algorithm 1) through the mining process, so that divergence can be
computed for every frequent itemset without re-scanning the dataset.
Completed runs are memoizable through :class:`MiningCache`, including
monotone support reuse.
"""

from repro.fpm.apriori import AprioriMiner
from repro.fpm.bitset import BitsetMiner, EclatMiner
from repro.fpm.bruteforce import BruteForceMiner
from repro.fpm.cache import MiningCache
from repro.fpm.fpgrowth import FPGrowthMiner
from repro.fpm.miner import FrequentItemsets, Miner, mine_frequent
from repro.fpm.transactions import ItemCatalog, TransactionDataset

__all__ = [
    "AprioriMiner",
    "BitsetMiner",
    "BruteForceMiner",
    "EclatMiner",
    "FPGrowthMiner",
    "FrequentItemsets",
    "ItemCatalog",
    "Miner",
    "MiningCache",
    "TransactionDataset",
    "mine_frequent",
]
