"""ROUGE-L: LCS-based summarization metric (Lin 2004)."""
from __future__ import annotations

from typing import List, Sequence

#: Recall weight of the F-measure, as in Lin (2004).
BETA = 1.2


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length, O(|a|·|b|) DP."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, 1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(pred: Sequence[str], ref: Sequence[str]) -> float:
    """ROUGE-L F-measure (``BETA`` weights recall, per the original)."""
    if not pred or not ref:
        return 0.0
    lcs = lcs_length(pred, ref)
    p = lcs / len(pred)
    r = lcs / len(ref)
    if p == 0 or r == 0:
        return 0.0
    return (1 + BETA**2) * p * r / (r + BETA**2 * p)


def corpus_rouge_l(preds: List[Sequence[str]], refs: List[Sequence[str]]) -> float:
    """Mean sentence-level ROUGE-L over a corpus, in [0, 1]."""
    assert len(preds) == len(refs)
    if not preds:
        return 0.0
    return sum(rouge_l(p, r) for p, r in zip(preds, refs)) / len(preds)
