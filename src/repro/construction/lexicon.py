"""Ontology gazetteers and label maps, derived in one place.

Concept extraction (Sec. II-C), the "+KG" features and the downstream
task datasets (Sec. IV) all read the same lookups off an ontology and
its surface forms: which attribute owns a value token, which tokens are
brand surfaces, which concept root and node a label names, and which
tokens are taxonomy labels.
"""
from __future__ import annotations

import dataclasses
from typing import Dict

from repro.corpus.vocab import build_surface_forms
from repro.ontology.model import Ontology


@dataclasses.dataclass(frozen=True)
class Lexicon:
    """Token lookups of one ontology.

    ``value_to_attr``: attribute value token → owning attribute relation;
    ``brand_tokens``: every Brand surface (canonical, alias, misspelled);
    ``concept_label_root`` / ``concept_label_node``: concept label → its
    concept root / node id; ``category_labels``: Category labels;
    ``taxonomy_labels``: the labels of all eight taxonomies.
    """

    value_to_attr: Dict[str, str]
    brand_tokens: frozenset
    concept_label_root: Dict[str, str]
    concept_label_node: Dict[str, str]
    category_labels: frozenset
    taxonomy_labels: frozenset

    @classmethod
    def of(cls, onto: Ontology) -> "Lexicon":
        forms = build_surface_forms(onto)
        concept_label_root: Dict[str, str] = {}
        concept_label_node: Dict[str, str] = {}
        for root, tax in onto.concept_taxonomies.items():
            for nid, label in zip(tax.nodes["node_id"], tax.nodes["label"]):
                concept_label_root[label] = root
                concept_label_node[label] = nid
        return cls(
            value_to_attr={v: r for r, vals in forms.attr_values.items() for v in vals},
            brand_tokens=frozenset(forms.brand_forms["surface"]),
            concept_label_root=concept_label_root,
            concept_label_node=concept_label_node,
            category_labels=frozenset(onto.taxonomies["Category"].nodes["label"]),
            taxonomy_labels=frozenset(
                label for tax in onto.taxonomies.values() for label in tax.nodes["label"]
            ),
        )
