"""Tests for the trie and the bounded edit-distance helper."""
import random

import pytest

from repro.construction.trie import Trie, bounded_levenshtein, levenshtein_leq


def test_insert_lookup_roundtrip():
    t = Trie()
    t.insert("apple", "brand:1")
    assert t.lookup("apple") == "brand:1"
    assert t.lookup("app") is None
    assert t.lookup("apples") is None


def test_contains():
    t = Trie.from_pairs([("a", "1"), ("ab", "2")])
    assert "a" in t and "ab" in t and "abc" not in t


def test_prefix_key_does_not_shadow():
    t = Trie.from_pairs([("ab", "x"), ("abcd", "y")])
    assert t.lookup("abc") is None
    assert t.lookup("abcd") == "y"


def test_longest_prefix():
    t = Trie.from_pairs([("ab", "x"), ("abcd", "y")])
    assert t.longest_prefix("abcde") == ("abcd", "y")
    assert t.longest_prefix("abz") == ("ab", "x")
    assert t.longest_prefix("zzz") is None


def test_n_keys():
    t = Trie.from_pairs([("a", "1"), ("ab", "2"), ("cd", "3")])
    assert t.n_keys() == 3


def test_overwrite_value():
    t = Trie()
    t.insert("k", "v1")
    t.insert("k", "v2")
    assert t.lookup("k") == "v2"


def test_empty_key():
    t = Trie()
    t.insert("", "root")
    assert t.lookup("") == "root"


@pytest.mark.parametrize(
    "a,b,k,expected",
    [
        ("abc", "abc", 0, True),
        ("abc", "abd", 1, True),
        ("abc", "abd", 0, False),
        ("abc", "acb", 2, True),  # transposition = 2 edits
        ("abc", "acb", 1, False),
        ("abcdef", "abcdefg", 1, True),
        ("abc", "xyz", 1, False),
        ("", "a", 1, True),
        ("", "ab", 1, False),
        ("brand_l2_00004", "brand_l2_00004co", 1, False),
        ("brand_l2_00004", "brand_l2_0004", 1, True),
    ],
)
def test_levenshtein_leq(a, b, k, expected):
    assert levenshtein_leq(a, b, k) is expected


def test_levenshtein_symmetric():
    assert levenshtein_leq("kitten", "sitting", 3)
    assert levenshtein_leq("sitting", "kitten", 3)
    assert not levenshtein_leq("kitten", "sitting", 2)


def _edit_distance(a, b):
    """Plain full-table Levenshtein distance."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


@pytest.mark.parametrize("k", [1, 2])
def test_bounded_levenshtein_matches_full_dp(k):
    """The fuzzy index's exactness rests on this helper: it must return
    the true distance when it is <= k and None otherwise."""
    rng = random.Random(k)
    near = 0
    for _ in range(5000):
        a = "".join(rng.choices("abc", k=rng.randint(0, 7)))
        b = "".join(rng.choices("abc", k=rng.randint(0, 7)))
        d = _edit_distance(a, b)
        near += d <= k
        assert bounded_levenshtein(a, b, k) == (d if d <= k else None), (a, b)
    assert near > 500  # both outcomes are well represented
