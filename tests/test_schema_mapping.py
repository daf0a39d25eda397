"""Tests for Brand/Place schema-mapping (trie + fuzzy linking)."""
import json
import os
import pickle
import random
import subprocess
import sys

import pandas as pd
import pytest

import repro
from repro.core.config import TEST_CONFIG
from repro.construction.schema_mapping import (
    SurfaceMatcher,
    build_matcher,
    link_surfaces,
    linking_quality,
)
from repro.construction.trie import bounded_levenshtein
from repro.corpus import build_surface_forms, generate_catalog
from repro.ontology import build_core_ontology


@pytest.fixture(scope="module")
def world():
    onto = build_core_ontology(TEST_CONFIG)
    forms = build_surface_forms(onto)
    cat = generate_catalog(onto, forms, TEST_CONFIG)
    return onto, forms, cat


def _tiny_matcher():
    tbl = pd.DataFrame(
        {
            "surface": ["acme", "acmeco", "globex"],
            "node_id": ["brand:A", "brand:A", "brand:B"],
            "form": ["canonical", "alias", "canonical"],
        }
    )
    return SurfaceMatcher(tbl)


def test_precise_beats_synonym():
    m = _tiny_matcher()
    assert m.match("acme") == ("brand:A", "precise")
    assert m.match("acmeco") == ("brand:A", "synonym")


def test_fuzzy_catches_misspelling():
    m = _tiny_matcher()
    assert m.match("golbex") == ("brand:B", "fuzzy")  # transposition: 2 edits
    assert m.match("globx") == ("brand:B", "fuzzy")


def test_no_match_returns_none():
    m = _tiny_matcher()
    assert m.match("zzzzzz") == (None, None)
    assert m.match(None) == (None, None)
    assert m.match("") == (None, None)


def test_build_matcher_excludes_misspellings(world):
    _, forms, _ = world
    m = build_matcher(forms, "Brand")
    miss = forms.brand_forms[forms.brand_forms["form"] == "misspelled"].iloc[0]
    # the misspelled surface is NOT an exact dictionary entry...
    assert m.synonym_trie.lookup(miss["surface"]) is None
    # ...but resolves through the fuzzy stage to the right node
    node, method = m.match(miss["surface"])
    assert node == miss["node_id"]
    assert method == "fuzzy"


@pytest.mark.parametrize("which", ["Brand", "Place"])
def test_distributed_linking_quality(spark, world, which):
    """End-to-end: ≥95% precision and ≥90% recall against ground truth."""
    onto, forms, cat = world
    col = "brand_surface" if which == "Brand" else "place_surface"
    prod_sdf = spark.createDataFrame(cat.products[["product_id", col]])
    links = link_surfaces(spark, prod_sdf, build_matcher(forms, which), col)
    q = linking_quality(links, cat.products, which)
    assert q["precision"] >= 0.95, q
    assert q["recall"] >= 0.90, q


def test_linking_row_per_product(spark, world):
    onto, forms, cat = world
    prod_sdf = spark.createDataFrame(cat.products[["product_id", "brand_surface"]])
    links = link_surfaces(spark, prod_sdf, build_matcher(forms, "Brand"), "brand_surface")
    assert links.count() == len(cat.products)


def test_products_without_brand_not_linked(spark, world):
    onto, forms, cat = world
    prod_sdf = spark.createDataFrame(cat.products[["product_id", "brand_surface"]])
    links = link_surfaces(
        spark, prod_sdf, build_matcher(forms, "Brand"), "brand_surface"
    ).toPandas()
    no_brand = set(
        cat.products[cat.products["brand_surface"].isna()]["product_id"]
    )
    emitted = links[links["node_id"].notna()]
    assert not set(emitted["product_id"]) & no_brand


def test_method_distribution_reflects_forms(spark, world):
    """Canonical→precise, alias→synonym, misspelled→fuzzy dominate."""
    onto, forms, cat = world
    prod_sdf = spark.createDataFrame(cat.products[["product_id", "brand_surface"]])
    links = link_surfaces(
        spark, prod_sdf, build_matcher(forms, "Brand"), "brand_surface"
    ).toPandas()
    truth = cat.products[["product_id", "brand_form"]]
    merged = links.merge(truth, on="product_id").dropna(subset=["method"])
    expected = {"canonical": "precise", "alias": "synonym", "misspelled": "fuzzy"}
    agree = (merged["method"] == merged["brand_form"].map(expected)).mean()
    assert agree > 0.9


# ---------------------------------------------------------------------------
# The deletion-neighbourhood index returns exactly what a full scan does


def scan_match(m, raw):
    """Reference: the full-dictionary scan the index replaced, verbatim."""
    if raw is None or raw == "":
        return None, None
    hit = m.precise_trie.lookup(raw)
    if hit is not None:
        return hit, "precise"
    hit = m.synonym_trie.lookup(raw)
    if hit is not None:
        return hit, "synonym"
    best_d, best_node = None, None
    for surface, node in m.entries:
        d = bounded_levenshtein(raw, surface, m.FUZZY_K)
        if d is not None and (best_d is None or d < best_d):
            best_d, best_node = d, node
            if d == 1:
                break
    if best_node is not None:
        return best_node, "fuzzy"
    return None, None


def _perturb(s, rng, alphabet):
    """1-3 random edits: insert, delete, substitute, adjacent swap."""
    chars = list(s)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("insert", "delete", "substitute", "swap"))
        if op == "insert":
            chars.insert(rng.randint(0, len(chars)), rng.choice(alphabet))
        elif op == "delete" and len(chars) > 1:
            del chars[rng.randrange(len(chars))]
        elif op == "substitute":
            chars[rng.randrange(len(chars))] = rng.choice(alphabet)
        elif op == "swap" and len(chars) > 1:
            i = rng.randrange(len(chars) - 1)
            chars[i], chars[i + 1] = chars[i + 1], chars[i]
    return "".join(chars)


def _probes(forms, which, n_perturbed=400):
    """Every registered surface (misspellings included) plus seeded
    perturbations of them."""
    surfaces = list(forms.synonym_table(which)["surface"])
    alphabet = sorted(set("".join(surfaces)))
    rng = random.Random(f"probes-{which}")
    return surfaces + [
        _perturb(rng.choice(surfaces), rng, alphabet) for _ in range(n_perturbed)
    ]


@pytest.mark.parametrize("which", ["Brand", "Place"])
def test_index_equals_scan_on_catalogue_surfaces(world, which):
    _, forms, _ = world
    m = build_matcher(forms, which)
    probes = _probes(forms, which)
    got = [m.match(s) for s in probes]
    assert got == [scan_match(m, s) for s in probes]
    # the probes exercise the fuzzy stage and its misses, not just the tries
    methods = {meth for _, meth in got}
    assert {"precise", "synonym", "fuzzy", None} <= methods


def _matcher(surfaces):
    return SurfaceMatcher(
        pd.DataFrame(
            {
                "surface": surfaces,
                "node_id": [f"n:{i}" for i in range(len(surfaces))],
                "form": ["canonical"] * len(surfaces),
            }
        )
    )


@pytest.mark.parametrize(
    "surfaces,query,expected",
    [
        # two entries at distance 1: the earlier position wins
        (["abcdx", "abcdy"], "abcdz", "n:0"),
        (["abcdy", "abcdx"], "abcdz", "n:0"),
        # a later distance-1 entry beats an earlier distance-2 one
        (["acbdef", "abcdeg"], "abcdef", "n:1"),
        # only distance-2 candidates: the earliest of them
        (["zzzzzz", "bacdef", "abdcef"], "abcdef", "n:1"),
        # distance 3 and 4: no match
        (["xbcdyz", "bacdfe"], "abcdef", None),
        # digit neighbours 1 edit apart: the nearer one, wherever it sits
        (["brand_l2_00004", "brand_l2_00005"], "brand_l2_0005", "n:1"),
        (["brand_l2_00004", "brand_l2_00005"], "brand_l2_00045", "n:1"),
        (["brand_l2_00004", "brand_l2_00005"], "brand_l2_00054", "n:0"),
        (["brand_l2_00004", "brand_l2_00005"], "brand_2l_00005", "n:1"),
        # ...and the earlier one when both are at distance 1
        (["brand_l2_00004", "brand_l2_00005"], "brand_l2_0000", "n:0"),
    ],
)
def test_fuzzy_tie_break(surfaces, query, expected):
    m = _matcher(surfaces)
    assert m.match(query) == scan_match(m, query)
    assert m.match(query)[0] == expected


def test_pickled_matcher_same_results_under_other_hash_seed(world, tmp_path):
    """The Spark-broadcast path: a worker with its own PYTHONHASHSEED
    unpickles the matcher and must link exactly as the driver does."""
    _, forms, _ = world
    m = build_matcher(forms, "Brand")
    probes = _probes(forms, "Brand", n_perturbed=200)
    path = tmp_path / "matcher.pkl"
    path.write_bytes(pickle.dumps((m, probes)))
    code = (
        "import json, pickle, sys\n"
        "m, probes = pickle.load(open(sys.argv[1], 'rb'))\n"
        "print(json.dumps([m.match(s) for s in probes]))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env["PYTHONHASHSEED"] = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    assert [tuple(r) for r in json.loads(out)] == [m.match(s) for s in probes]
