"""Tests for id/namespace helpers in repro.core.schema."""
import pytest

from repro.core import schema as S


def test_taxonomy_node_id_format():
    assert S.taxonomy_node_id("Category", 2, 12) == "cat:L2_00012"
    assert S.taxonomy_node_id("MarketSegment", 1, 0) == "mseg:L1_00000"


def test_product_item_ids():
    assert S.product_id(42) == "prod:0000042"


def test_relation_family_ids():
    assert S.inmarket_rel(3) == "inMarket:0003"
    assert S.attr_rel(1999) == "attr:1999"


@pytest.mark.parametrize("root", list(S.TAXONOMY_PREFIX))
def test_node_root_roundtrip(root):
    nid = S.taxonomy_node_id(root, 1, 5)
    assert S.node_root(nid) == root


def test_node_root_rejects_unknown():
    with pytest.raises(ValueError):
        S.node_root("bogus:L1_00000")


def test_meta_properties_complete():
    assert set(S.META_PROPERTIES) == {
        "rdf:type", "rdfs:subClassOf", "skos:broader", "owl:equivalentClass",
        "rdfs:subPropertyOf", "owl:equivalentPropertyOf",
    }


def test_object_property_ranges_consistent():
    for rel, root in S.OBJECT_PROPERTY_RANGE.items():
        assert root in S.TAXONOMY_PREFIX
        assert rel in S.NAMED_OBJECT_PROPERTIES


def test_triple_schema_columns():
    assert [f.name for f in S.TRIPLE_SCHEMA.fields] == ["h", "r", "t", "rel_kind"]
