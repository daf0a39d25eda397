"""KG-enhanced downstream tasks (paper Sec. IV, Tables V–VII).

Each module builds a synthetic dataset from the world, fine-tunes every
foundation-model variant's task head, and reports the paper's metric:

- :mod:`category_pred` — category prediction (accuracy; Tables V, VI)
- :mod:`ner_titles`    — NER for titles (span P/R/F; Tables V, VII)
- :mod:`summarization` — title summarization (ROUGE-L; Table V)
- :mod:`ie_reviews`    — IE for reviews (triple P/R/F; Table V)
- :mod:`salience`      — salience evaluation (accuracy; Table V)

They share one protocol: gazetteers and label maps come from
:class:`repro.construction.lexicon.Lexicon` (the "+KG" variants read it
through :class:`repro.pretrain.model.KGFeatures`), every task splits its
examples with :func:`train_valid_split`, and both P/R/F metrics are
:func:`repro.construction.tagger.micro_prf` over spans or triples.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def train_valid_split(rows):
    """The paper's 8:2 train/valid split, seeded; ``rows`` is a DataFrame
    (indices reset) or a list."""
    mask = np.random.default_rng(1).random(len(rows)) < 0.8
    if isinstance(rows, pd.DataFrame):
        return rows[mask].reset_index(drop=True), rows[~mask].reset_index(drop=True)
    return [r for r, m in zip(rows, mask) if m], [r for r, m in zip(rows, mask) if not m]
