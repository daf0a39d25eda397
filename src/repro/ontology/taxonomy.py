"""Level-wise taxonomy construction for core classes/concepts.

The paper builds Category top-down (Sec. II-B) and the five concepts
bottom-up (Sec. II-C); both end in the same artifact: a forest with a
fixed number of nodes per level, every node having exactly one parent at
the previous level (level-1 nodes hang off the root anchor, e.g. the
``Category`` class itself).  This module builds that artifact
deterministically at any scale.

The node table is small (taxonomy sizes scale with ``scale``), so it is
built in pandas and lifted to Spark by callers that need joins against
the billion-row (scaled) triple sets.
"""
from __future__ import annotations

import dataclasses
from typing import List

import numpy as np
import pandas as pd

from repro.core import schema as S


@dataclasses.dataclass
class Taxonomy:
    """One taxonomy forest (e.g. all Category nodes).

    ``nodes`` columns: node_id, root, level (1-based), parent_id (the
    root anchor name for level-1 nodes), is_leaf, label (surface token).
    """

    root: str
    nodes: pd.DataFrame

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_leaves(self) -> int:
        return int(self.nodes["is_leaf"].sum())

    def level_counts(self) -> List[int]:
        """Node count per level, index 0 == level 1."""
        vc = self.nodes["level"].value_counts().sort_index()
        return [int(vc.get(lvl, 0)) for lvl in range(1, vc.index.max() + 1)]

    def label_of(self) -> pd.Series:
        """node_id → label lookup."""
        return self.nodes.set_index("node_id")["label"]

    def leaves(self) -> pd.DataFrame:
        return self.nodes[self.nodes["is_leaf"]].reset_index(drop=True)

    def edges(self) -> pd.DataFrame:
        """Parent edges as (child, parent), including level-1 → anchor."""
        return self.nodes[["node_id", "parent_id"]].rename(
            columns={"node_id": "child", "parent_id": "parent"}
        )


def build_taxonomy(root: str, level_sizes: List[int], seed: int) -> Taxonomy:
    """Build a deterministic taxonomy forest.

    Each level-``k+1`` node picks a uniform random parent among level-k
    nodes; level-1 nodes attach to the anchor (the root type name).  A
    node is a leaf iff no node at the next level chose it as parent —
    so leaf counts *emerge*, as in the paper (Table I reports '# leaf'
    separately from per-level counts).
    """
    g = np.random.default_rng(seed)
    rows = []
    prev_ids: List[str] = []
    for lvl, n in enumerate(level_sizes, start=1):
        ids = [S.taxonomy_node_id(root, lvl, i) for i in range(n)]
        if lvl == 1:
            parents = [root] * n
        else:
            parents = [prev_ids[j] for j in g.integers(0, len(prev_ids), n)]
        for i, (nid, pid) in enumerate(zip(ids, parents)):
            rows.append(
                {
                    "node_id": nid,
                    "root": root,
                    "level": lvl,
                    "parent_id": pid,
                    "label": f"{root.lower()}_w{lvl}_{i}",
                }
            )
        prev_ids = ids
    nodes = pd.DataFrame(rows)
    has_child = set(nodes["parent_id"])
    nodes["is_leaf"] = ~nodes["node_id"].isin(has_child)
    return Taxonomy(root=root, nodes=nodes)

