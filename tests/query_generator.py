"""Random workload generation from corpus statistics (a test helper).

The paper's workload is fixed (10 hand-picked queries); stress-testing
the look-up plans benefits from *many* workloads.  :class:`QueryGenerator` derives random-but-valid tree
pattern queries from a corpus summary: structural skeletons follow the
corpus's actual label paths (so queries are satisfiable by
construction, with controllable selectivity), predicates draw words and
attribute values that really occur, and value joins pair the corpus's
reference attributes.

Generation is seeded and deterministic.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.query.pattern import (Axis, PatternNode, Query, TreePattern,
                                 ValueJoin)
from repro.query.predicates import Contains
from repro.xmldb.stats import CorpusStats

#: Reference attribute pairs usable for value joins: (defining label,
#: id attribute) x (referencing label, reference attribute).
JOIN_PAIRS: Tuple[Tuple[Tuple[str, str], Tuple[str, str]], ...] = (
    (("person", "id"), ("seller", "person")),
    (("person", "id"), ("buyer", "person")),
    (("person", "id"), ("author", "person")),
    (("item", "id"), ("itemref", "item")),
    (("category", "id"), ("incategory", "category")),
)


class QueryGenerator:
    """Seeded generator of satisfiable queries over a corpus."""

    def __init__(self, stats: CorpusStats, seed: int = 0) -> None:
        if not stats.distinct_paths:
            raise ConfigError("corpus statistics carry no paths")
        self._stats = stats
        self._rng = random.Random(seed)
        # Element-only paths, split into label lists (no attr/word keys).
        self._paths: List[List[str]] = []
        for path in sorted(stats.distinct_paths):
            segments = [s[1:] for s in path.split("/") if s]
            if all(not s.startswith(("@",)) for s in segments) and \
                    path.split("/")[-1].startswith("e"):
                self._paths.append(segments)
        self._words = [word for word, count in
                       sorted(stats.word_document_frequency.items())
                       if count >= 1]

    # -- pieces ------------------------------------------------------------

    def _random_path(self, min_length: int = 2) -> List[str]:
        candidates = [p for p in self._paths if len(p) >= min_length]
        return list(self._rng.choice(candidates or self._paths))

    def _spine_from(self, labels: Sequence[str]) -> PatternNode:
        """A linear pattern following a real data path (child axes, so
        pristine documents match; restructured ones may not)."""
        root = PatternNode(label=labels[0], axis=Axis.DESCENDANT)
        node = root
        for label in labels[1:]:
            node = node.add_child(PatternNode(label=label, axis=Axis.CHILD))
        return root

    def _maybe_annotate(self, node: PatternNode) -> None:
        roll = self._rng.random()
        if roll < 0.5:
            node.want_val = True
        elif roll < 0.65:
            node.want_cont = True

    def _maybe_predicate(self, node: PatternNode) -> None:
        if self._rng.random() < 0.3 and self._words:
            node.predicate = Contains(self._rng.choice(self._words))

    # -- public API -----------------------------------------------------------

    def tree_pattern(self, branches: Optional[int] = None) -> TreePattern:
        """A random tree pattern with 1-3 branches sharing a real root."""
        branches = branches or self._rng.randint(1, 3)
        base = self._random_path()
        # Anchor at a non-leaf position so branches can hang off it.
        anchor = self._rng.randint(0, max(0, len(base) - 2))
        root = PatternNode(label=base[anchor], axis=Axis.DESCENDANT)
        used_roots = {base[anchor]}
        attached = 0
        for path in self._rng.sample(self._paths, min(len(self._paths),
                                                      branches * 4)):
            if attached >= branches:
                break
            try:
                position = path.index(root.label)
            except ValueError:
                continue
            suffix = path[position + 1:]
            if not suffix:
                continue
            node = root
            for label in suffix:
                node = node.add_child(
                    PatternNode(label=label, axis=Axis.CHILD))
            self._maybe_annotate(node)
            self._maybe_predicate(node)
            attached += 1
        if attached == 0:
            # Degenerate anchor: fall back to a plain spine.
            spine = self._spine_from(base[anchor:])
            leaf = spine
            while leaf.children:
                leaf = leaf.children[0]
            leaf.want_val = True
            return TreePattern(root=spine)
        if not any(n.want_val or n.want_cont for n in root.iter_nodes()):
            root.want_val = True
        return TreePattern(root=root)

    def query(self, name: str = "gen",
              join_probability: float = 0.25) -> Query:
        """A random query; sometimes a value join over reference pairs."""
        if self._rng.random() < join_probability:
            join_query = self._join_query(name)
            if join_query is not None:
                return join_query
        return Query(patterns=[self.tree_pattern()], name=name)

    def _join_query(self, name: str) -> Optional[Query]:
        viable = [(defn, ref) for defn, ref in JOIN_PAIRS
                  if self._stats.label_document_frequency[defn[0]]
                  and self._stats.label_document_frequency[ref[0]]]
        if not viable:
            return None
        (def_label, def_attr), (ref_label, ref_attr) = \
            self._rng.choice(viable)
        left_root = PatternNode(label=def_label, axis=Axis.DESCENDANT)
        left_attr = left_root.add_child(PatternNode(
            label=def_attr, is_attribute=True, axis=Axis.CHILD,
            variable="jl"))
        left_root.want_val = True
        right_root = PatternNode(label=ref_label, axis=Axis.DESCENDANT)
        right_root.add_child(PatternNode(
            label=ref_attr, is_attribute=True, axis=Axis.CHILD,
            variable="jr"))
        return Query(patterns=[TreePattern(root=left_root),
                               TreePattern(root=right_root)],
                     joins=[ValueJoin("jl", "jr")], name=name)

    def workload(self, size: int = 10) -> List[Query]:
        """A list of ``size`` random queries, named gen1..genN."""
        return [self.query(name="gen{}".format(i + 1))
                for i in range(size)]
