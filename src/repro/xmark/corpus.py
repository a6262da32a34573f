"""The generated corpus: documents, bytes, sizes and slicing.

A :class:`Corpus` bundles the generated documents with their serialized
bytes (what gets uploaded to S3) and provides the data-set metrics of
§7.1 (``|D|``, ``s(D)``) plus prefix slicing for the Figure 7 scaling
study ("indexing time scales linearly in the size of the data").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import ScaleProfile
from repro.errors import ConfigError
from repro.xmark.generator import GeneratedDocument, XMarkGenerator
from repro.xmark.heterogeneity import heterogenize, restructure
from repro.xmldb.model import Document
from repro.xmldb.serializer import serialize
from repro.xmldb.stats import CorpusStats, corpus_stats


@dataclass
class Corpus:
    """A set of documents plus their serialized form."""

    documents: List[Document]
    data: Dict[str, bytes]
    kinds: Dict[str, str] = field(default_factory=dict)
    restructured: int = 0
    heterogenized: int = 0

    def __post_init__(self) -> None:
        if len(self.documents) != len(self.data):
            raise ConfigError("documents and data are out of sync")

    def __len__(self) -> int:
        return len(self.documents)

    @property
    def total_bytes(self) -> int:
        """``s(D)`` in bytes — the corpus size the cost model stores."""
        return sum(len(d) for d in self.data.values())

    @property
    def total_mb(self) -> float:
        """Corpus size in MB."""
        return self.total_bytes / (1024.0 ** 2)

    def document(self, uri: str) -> Document:
        """Look up a document by URI."""
        for doc in self.documents:
            if doc.uri == uri:
                return doc
        raise KeyError(uri)

    def prefix(self, fraction: float) -> "Corpus":
        """A ``fraction``-sized slice of the corpus (scaling studies).

        Documents are sampled with an even stride rather than taken from
        the head: generation emits document kinds in blocks, so a head
        slice would be all-people (tiny documents) and the Figure 7
        size axis would not scale linearly with document count.
        """
        if not 0.0 < fraction <= 1.0:
            raise ConfigError("fraction must be in (0, 1]")
        count = max(1, int(len(self.documents) * fraction))
        stride = len(self.documents) / count
        picked = sorted({min(int(i * stride), len(self.documents) - 1)
                         for i in range(count)})
        docs = [self.documents[i] for i in picked]
        return Corpus(
            documents=docs,
            data={d.uri: self.data[d.uri] for d in docs},
            kinds={d.uri: self.kinds[d.uri] for d in docs if d.uri in self.kinds},
        )

    def stats(self) -> CorpusStats:
        """Full corpus statistics (for the index advisor)."""
        return corpus_stats(self.documents)


def generate_corpus(scale: Optional[ScaleProfile] = None) -> Corpus:
    """Generate the experimental corpus for ``scale`` (§8.1 recipe).

    Documents are generated, then two disjoint random subsets are
    modified: one restructured, one heterogenised.  Selection and
    modification are deterministic in ``scale.seed``.
    """
    scale = scale or ScaleProfile()
    generated: List[GeneratedDocument] = XMarkGenerator(scale).generate()
    rng = random.Random(scale.seed + 1)

    indices = list(range(len(generated)))
    rng.shuffle(indices)
    n_restructured = int(len(generated) * scale.restructured_fraction)
    n_heterogeneous = int(len(generated) * scale.heterogeneous_fraction)
    restructure_set = set(indices[:n_restructured])
    heterogenize_set = set(indices[n_restructured:
                                   n_restructured + n_heterogeneous])

    documents: List[Document] = []
    data: Dict[str, bytes] = {}
    kinds: Dict[str, str] = {}
    restructured = heterogenized = 0
    for index, item in enumerate(generated):
        document = item.document
        changed = False
        if index in restructure_set:
            changed = restructure(document, item.kind, rng)
            restructured += int(changed)
        elif index in heterogenize_set:
            changed = heterogenize(document, item.kind, rng)
            heterogenized += int(changed)
        if changed:
            payload = serialize(document)
            document.size_bytes = len(payload)
        else:
            payload = item.data
        documents.append(document)
        data[document.uri] = payload
        kinds[document.uri] = item.kind
    return Corpus(documents=documents, data=data, kinds=kinds,
                  restructured=restructured, heterogenized=heterogenized)
