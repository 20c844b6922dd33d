"""Unit tests for repro.core.items."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.items import EMPTY_ITEMSET, Item, Itemset
from repro.exceptions import SchemaError
from repro.tabular.discretize import format_interval_labels


class TestItem:
    def test_str(self):
        assert str(Item("sex", "Male")) == "sex=Male"

    def test_equality_and_hash(self):
        assert Item("a", 1) == Item("a", 1)
        assert hash(Item("a", 1)) == hash(Item("a", 1))
        assert Item("a", 1) != Item("a", 2)

    def test_ordering(self):
        assert Item("a", 1) < Item("b", 0)


class TestItemsetConstruction:
    def test_items_sorted_and_deduped(self):
        i = Itemset([Item("b", 1), Item("a", 2), Item("b", 1)])
        assert [it.attribute for it in i.items] == ["a", "b"]

    def test_repeated_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Itemset([Item("a", 1), Item("a", 2)])

    def test_from_pairs(self):
        i = Itemset.from_pairs([("x", 1), ("y", 2)])
        assert len(i) == 2
        assert Item("x", 1) in i

    def test_parse(self):
        i = Itemset.parse("age=25-45, sex=Male")
        assert i == Itemset.from_pairs([("age", "25-45"), ("sex", "Male")])

    def test_parse_empty(self):
        assert Itemset.parse("  ") == EMPTY_ITEMSET

    def test_parse_garbage(self):
        with pytest.raises(SchemaError):
            Itemset.parse("no-equals-sign")

    def test_parse_value_with_comma(self):
        i = Itemset.parse("age=(0, 3], sex=Male, #prior=[1,3]")
        assert i == Itemset.from_pairs(
            [("age", "(0, 3]"), ("sex", "Male"), ("#prior", "[1,3]")]
        )

    def test_immutable(self):
        i = Itemset([Item("a", 1)])
        with pytest.raises(AttributeError):
            i.anything = 3


def interval_labels(edges: list[float]) -> list[str]:
    """The discretizer's labels plus comma-separated interval forms."""
    edges = sorted(set(edges))
    labels = format_interval_labels(edges)
    labels += [f"({lo:g}, {hi:g}]" for lo, hi in zip(edges, edges[1:])]
    labels += [f"[{lo:g},{hi:g}]" for lo, hi in zip(edges, edges[1:])]
    return labels


@given(
    edges=st.lists(
        st.floats(-1e4, 1e4, allow_nan=False), min_size=1, max_size=4
    ),
    picks=st.lists(st.integers(0, 100), min_size=0, max_size=4),
)
def test_parse_round_trips_discretized_labels(edges, picks):
    labels = interval_labels(edges)
    attributes = ["age", "#prior", "capital gain", "hours-per-week"]
    itemset = Itemset.from_pairs(
        (attr, labels[pick % len(labels)])
        for attr, pick in zip(attributes, picks)
    )
    assert Itemset.parse(str(itemset)) == itemset


class TestItemsetOps:
    def test_union(self):
        i = Itemset([Item("a", 1)]).union(Item("b", 2))
        assert len(i) == 2

    def test_union_same_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Itemset([Item("a", 1)]).union(Item("a", 2))

    def test_difference(self):
        i = Itemset([Item("a", 1), Item("b", 2)])
        assert i.difference(Item("a", 1)) == Itemset([Item("b", 2)])

    def test_difference_absent_item_noop(self):
        i = Itemset([Item("a", 1)])
        assert i.difference(Item("z", 0)) == i

    def test_subset_relations(self):
        small = Itemset([Item("a", 1)])
        big = Itemset([Item("a", 1), Item("b", 2)])
        assert small <= big
        assert small < big
        assert not big <= small

    def test_attributes(self):
        i = Itemset.from_pairs([("x", 1), ("y", 2)])
        assert i.attributes == frozenset({"x", "y"})

    def test_subsets_count(self):
        i = Itemset.from_pairs([("a", 0), ("b", 0), ("c", 0)])
        subsets = list(i.subsets())
        assert len(subsets) == 8
        assert EMPTY_ITEMSET in subsets
        assert i in subsets

    def test_proper_subsets_exclude_self(self):
        i = Itemset.from_pairs([("a", 0), ("b", 0)])
        subsets = list(i.subsets(proper=True))
        assert len(subsets) == 3
        assert i not in subsets

    def test_str_rendering(self):
        i = Itemset.from_pairs([("b", 2), ("a", 1)])
        assert str(i) == "a=1, b=2"
        assert str(EMPTY_ITEMSET) == "<empty>"

    def test_hashable_as_dict_key(self):
        d = {Itemset.from_pairs([("a", 1)]): "v"}
        assert d[Itemset.from_pairs([("a", 1)])] == "v"
