"""The set-up every divergence explorer shares.

:class:`ExplorerBase` checks the analysis attributes, builds the
:class:`~repro.fpm.transactions.ItemCatalog` and the encoded attribute
matrix once, holds the default :class:`~repro.fpm.cache.MiningCache`,
and builds the :class:`~repro.fpm.transactions.ItemLayer` lazily at the
first explore. Each outcome family (Boolean metrics, ranking and score
weights) adds only its outcome encoding and its ``explore``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.exceptions import SchemaError
from repro.fpm.cache import MiningCache
from repro.fpm.transactions import ItemCatalog, ItemLayer
from repro.tabular.table import Table


class ExplorerBase:
    """Analysis attributes, item catalog and item layer of one table.

    ``reserved`` names columns that are never analysis attributes (the
    class columns of a classifier audit): they are left out of the
    default attributes and rejected when listed explicitly.
    """

    def __init__(
        self,
        table: Table,
        attributes: Sequence[str] | None,
        mining_cache: MiningCache | None,
        n_workers: int | None,
        reserved: Iterable[str] = (),
    ) -> None:
        self.table = table
        self.n_workers = n_workers
        self.mining_cache = (
            mining_cache if mining_cache is not None else MiningCache()
        )
        reserved = set(reserved)
        if attributes is None:
            attributes = [
                n for n in table.categorical_names if n not in reserved
            ]
        else:
            attributes = list(attributes)
            overlap = reserved & set(attributes)
            if overlap:
                raise SchemaError(
                    f"class columns cannot be analysis attributes: {sorted(overlap)}"
                )
        if not attributes:
            raise SchemaError("no analysis attributes available")
        bad = [n for n in attributes if not table.column(n).is_categorical]
        if bad:
            raise SchemaError(
                f"attributes must be categorical (discretize first): {bad}"
            )
        self.attributes = attributes
        self.catalog = ItemCatalog(
            attributes, [table.categorical(n).categories for n in attributes]
        )
        self._matrix = table.encoded_matrix(attributes)
        self._layer: ItemLayer | None = None

    @property
    def item_layer(self) -> ItemLayer:
        """The rows every outcome mines: distinct rows when they
        compress."""
        if self._layer is None:
            self._layer = ItemLayer(self._matrix, self.catalog, group=True)
        return self._layer
