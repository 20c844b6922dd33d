"""Items and itemsets (paper Sec. 3.1).

An :class:`Item` is an attribute equality ``a = c``; an :class:`Itemset`
is a set of items over *distinct* attributes, displayed as the
conjunction of its items (``"age=25-45, sex=Male"``). Both are frozen,
hashable value objects usable as dict keys.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import Any

from repro.exceptions import SchemaError

# A comma followed by ``attr=`` separates two items; any other comma
# belongs to a value. Attribute names hold no ``,``, ``=``, ``<`` or
# ``>``, so interval values such as ``(0, <=3]`` stay whole.
_ITEM_SEPARATOR = re.compile(r",(?=\s*[^,=<>\s][^,=<>]*=)")


@dataclass(frozen=True, order=True)
class Item:
    """One attribute equality ``attribute = value``."""

    attribute: str
    value: Any

    def __str__(self) -> str:
        return f"{self.attribute}={self.value}"


class Itemset:
    """An immutable set of items over pairwise distinct attributes.

    Supports set-like operations used throughout divergence analysis:
    membership, union with an item, difference, subset enumeration.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[Item] = ()) -> None:
        items = tuple(sorted(set(items)))
        attrs = [it.attribute for it in items]
        if len(set(attrs)) != len(attrs):
            raise SchemaError(
                f"itemset has repeated attributes: {', '.join(map(str, items))}"
            )
        object.__setattr__(self, "_items", items)

    # Itemset is conceptually frozen; block accidental attribute writes.
    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Itemset is immutable")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, Any]]) -> "Itemset":
        """Build from ``(attribute, value)`` pairs."""
        return cls(Item(a, v) for a, v in pairs)

    @classmethod
    def parse(cls, text: str) -> "Itemset":
        """Parse ``"a=1, b=x"`` notation (values stay strings).

        Items are split only at a comma that starts a new ``attr=``
        item, so values holding commas (``"age=(0, 3], sex=Male"``)
        read back as written; ``"<empty>"`` is the empty itemset.
        """
        if not text.strip() or text.strip() == str(EMPTY_ITEMSET):
            return cls()
        pairs = []
        for chunk in _ITEM_SEPARATOR.split(text):
            if "=" not in chunk:
                raise SchemaError(f"cannot parse item {chunk!r}")
            attr, value = chunk.split("=", 1)
            pairs.append((attr.strip(), value.strip()))
        return cls.from_pairs(pairs)

    # ------------------------------------------------------------------

    @property
    def items(self) -> tuple[Item, ...]:
        """The items, sorted by attribute then value."""
        return self._items

    @property
    def attributes(self) -> frozenset[str]:
        """``attr(I)``: the attributes referenced by this itemset."""
        return frozenset(it.attribute for it in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self._items)

    def __contains__(self, item: Item) -> bool:
        return item in self._items

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Itemset) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __le__(self, other: "Itemset") -> bool:
        """Subset relation."""
        return set(self._items) <= set(other._items)

    def __lt__(self, other: "Itemset") -> bool:
        return set(self._items) < set(other._items)

    def union(self, item: Item) -> "Itemset":
        """Return ``I ∪ {item}`` (raises if the attribute repeats)."""
        return Itemset(self._items + (item,))

    def difference(self, item: Item) -> "Itemset":
        """Return ``I \\ {item}``."""
        return Itemset(it for it in self._items if it != item)

    def subsets(self, proper: bool = False) -> Iterator["Itemset"]:
        """Yield all (optionally proper) subsets, smallest first."""
        n = len(self._items)
        top = (1 << n) - 1
        for mask in range(top + 1):
            if proper and mask == top:
                continue
            yield Itemset(
                self._items[b] for b in range(n) if mask >> b & 1
            )

    def __str__(self) -> str:
        return ", ".join(str(it) for it in self._items) if self._items else "<empty>"

    def __repr__(self) -> str:
        return f"Itemset({str(self)})"


EMPTY_ITEMSET = Itemset()
