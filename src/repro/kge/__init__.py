"""Knowledge-graph embedding models and evaluation (Tables III/IV).

Faithful numpy implementations of the paper's structural baselines
(TransE, TransH, TransD, DistMult, ComplEx, TuckER), substitutes for
the PLM-based baselines (KG-BERT, StAR, GenKGC) built on hashed
character-n-gram text encoders, and multimodal substitutes (TransAE,
RSME, MKGformer) over synthetic image features.  Every model states
its score once (``score_triples``, ``score_all``; see ``kge.base``),
trains with one of two shared steps (margin or BCE; GenKGC keeps its
softmax step) and is ranked by one batched, CSR-filtered Hits@K / MR /
MRR evaluator.
"""
from repro.kge.data import KGEDataset, negative_sample
from repro.kge.evaluate import evaluate, ranks_numpy

__all__ = ["KGEDataset", "negative_sample", "evaluate", "ranks_numpy"]
