"""Helpers shared by the KGE test modules."""
from typing import Set, Tuple

import numpy as np

from repro.kge.data import KGEDataset


def known_triples(data: KGEDataset) -> Set[Tuple[int, int, int]]:
    """Every true (h, r, t) index triple across the train/dev/test splits."""
    return {tuple(row) for row in np.concatenate([data.train, data.dev, data.test]).tolist()}
