"""Shared machinery for the KGE tables (III and IV)."""
from __future__ import annotations

from typing import Callable, Dict

import pandas as pd

from repro.benchmark.build import Benchmark
from repro.construction.assemble import OpenBG
from repro.kge.bilinear import ComplEx, DistMult
from repro.kge.data import KGEDataset
from repro.kge.evaluate import evaluate
from repro.kge.multimodal import (
    MKGformerLite,
    RSME,
    TransAE,
    image_features_for_dataset,
)
from repro.kge.text import (
    GenKGCSim,
    KGBERTSim,
    StARSim,
    entity_texts_for,
    hash_text_features,
)
from repro.kge.trans import TransD, TransE, TransH
from repro.kge.tucker import TuckER

#: Training budget per benchmark family (epochs, batch, neg_k, dim).
BUDGETS = {
    "OpenBG-IMG": dict(epochs=100, batch_size=256, neg_k=6, dim=32),
    "OpenBG500": dict(epochs=60, batch_size=512, neg_k=6, dim=32),
    "OpenBG500-L": dict(epochs=12, batch_size=1024, neg_k=2, dim=32),
}


def structural_factories() -> Dict[str, Callable]:
    return {
        "TransE": lambda ne, nr, d, s: TransE(ne, nr, dim=d, seed=s),
        "TransH": lambda ne, nr, d, s: TransH(ne, nr, dim=d, seed=s),
        "TransD": lambda ne, nr, d, s: TransD(ne, nr, dim=d, seed=s),
        "DistMult": lambda ne, nr, d, s: DistMult(ne, nr, dim=d, seed=s),
        "ComplEx": lambda ne, nr, d, s: ComplEx(ne, nr, dim=d, seed=s),
        "TuckER": lambda ne, nr, d, s: TuckER(ne, nr, dim=min(d, 24), seed=s),
    }


def text_factories(data: KGEDataset, kg: OpenBG) -> Dict[str, Callable]:
    labels = kg.entity_labels().set_index("entity")["text"].to_dict()
    X = hash_text_features(entity_texts_for(data.entities, labels), dim=256)
    return {
        "KG-BERT": lambda ne, nr, d, s: KGBERTSim(ne, nr, X, dim=d, seed=s),
        "StAR": lambda ne, nr, d, s: StARSim(ne, nr, X, dim=d, seed=s),
        "GenKGC": lambda ne, nr, d, s: GenKGCSim(ne, nr, X, dim=d, seed=s),
    }


def multimodal_factories(data: KGEDataset, kg: OpenBG) -> Dict[str, Callable]:
    img = image_features_for_dataset(data, kg, dim=16)
    return {
        "TransAE": lambda ne, nr, d, s: TransAE(ne, nr, img, dim=d, seed=s),
        "RSME": lambda ne, nr, d, s: RSME(ne, nr, img, dim=d, seed=s),
        "MKGformer": lambda ne, nr, d, s: MKGformerLite(ne, nr, img, dim=d, seed=s),
    }


def run_models(
    bench: Benchmark,
    kg: OpenBG,
    model_names: list,
    seed: int = 0,
) -> pd.DataFrame:
    """Train + filtered-evaluate each named model on one benchmark."""
    data = KGEDataset.from_benchmark(bench)
    budget = dict(BUDGETS[bench.spec.name])
    dim = budget.pop("dim")

    factories: Dict[str, Callable] = {}
    factories.update(structural_factories())
    factories.update(text_factories(data, kg))
    factories.update(multimodal_factories(data, kg))

    rows = []
    for name in model_names:
        model = factories[name](data.n_ent, data.n_rel, dim, seed)
        model.fit(data, **budget)
        rows.append({"model": name, **evaluate(model, data, split="test")})
    return pd.DataFrame(rows)


#: Table III/IV metric columns: (metric, column label, decimals of ours).
METRICS = (
    ("hits1", "H@1", 3),
    ("hits3", "H@3", 3),
    ("hits10", "H@10", 3),
    ("mr", "MR", 1),
    ("mrr", "MRR", 3),
)


def merge_with_paper(measured: pd.DataFrame, paper: Dict[str, dict]) -> pd.DataFrame:
    """Interleave paper numbers with measured ones per model."""
    rows = []
    for _, r in measured.iterrows():
        p = paper.get(r["model"], {})
        row = {"model": r["model"]}
        for metric, label, ndigits in METRICS:
            row[f"paper {label}"] = p.get(metric, "-")
            row[f"ours {label}"] = round(r[metric], ndigits)
        rows.append(row)
    return pd.DataFrame(rows)
