"""Document and corpus statistics.

§8.5 conjectures that the LUI/2LUPI sweet spot "can be statically
detected by using data summaries and some statistical information".  The
index advisor (:mod:`repro.advisor`) implements that future-work idea on
top of the summaries computed here: label frequencies, distinct label
paths (a DataGuide-style summary [13]), node counts and sizes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Set

from repro.xmldb.model import Attribute, Document, Element, Text, number_nodes


@dataclass
class DocumentStats:
    """Summary of one document."""

    uri: str
    size_bytes: int
    element_count: int = 0
    attribute_count: int = 0
    text_count: int = 0
    text_bytes: int = 0
    max_depth: int = 0
    label_counts: Counter = field(default_factory=Counter)
    distinct_paths: Set[str] = field(default_factory=set)
    distinct_words: Set[str] = field(default_factory=set)
    attribute_names: Set[str] = field(default_factory=set)

    @property
    def node_count(self) -> int:
        """Total nodes (elements + attributes + texts)."""
        return self.element_count + self.attribute_count + self.text_count


def document_stats(document: Document) -> DocumentStats:
    """Compute a :class:`DocumentStats` in one pass over the tree."""
    from repro.query.predicates import tokenize

    stats = DocumentStats(uri=document.uri, size_bytes=document.size_bytes)
    for node, node_id, path in number_nodes(document):
        if isinstance(node, Element):
            stats.element_count += 1
            stats.label_counts[node.label] += 1
            stats.distinct_paths.add(path)
            stats.max_depth = max(stats.max_depth, node_id.depth)
        elif isinstance(node, Attribute):
            stats.attribute_count += 1
            stats.distinct_paths.add(path)
            stats.attribute_names.add(node.name)
        elif isinstance(node, Text):
            stats.text_count += 1
            stats.text_bytes += len(node.value)
            stats.distinct_words.update(tokenize(node.value))
    return stats


@dataclass
class CorpusStats:
    """Summary of a document set (the paper's ``D``)."""

    document_count: int = 0
    total_bytes: int = 0
    element_count: int = 0
    attribute_count: int = 0
    text_count: int = 0
    text_bytes: int = 0
    max_depth: int = 0
    label_counts: Counter = field(default_factory=Counter)
    distinct_paths: Set[str] = field(default_factory=set)
    #: label -> number of documents containing it (look-up selectivity).
    label_document_frequency: Counter = field(default_factory=Counter)
    #: path -> number of documents containing it.
    path_document_frequency: Counter = field(default_factory=Counter)
    #: word -> number of documents containing it (full-text selectivity).
    word_document_frequency: Counter = field(default_factory=Counter)
    #: attribute name -> number of documents containing it.
    attribute_document_frequency: Counter = field(default_factory=Counter)

    @property
    def node_count(self) -> int:
        """Total nodes across the corpus."""
        return self.element_count + self.attribute_count + self.text_count

    def add(self, stats: DocumentStats) -> None:
        """Fold one document's stats into the corpus summary."""
        self.document_count += 1
        self.total_bytes += stats.size_bytes
        self.element_count += stats.element_count
        self.attribute_count += stats.attribute_count
        self.text_count += stats.text_count
        self.text_bytes += stats.text_bytes
        self.max_depth = max(self.max_depth, stats.max_depth)
        self.label_counts.update(stats.label_counts)
        self.distinct_paths.update(stats.distinct_paths)
        for label in stats.label_counts:
            self.label_document_frequency[label] += 1
        for path in stats.distinct_paths:
            self.path_document_frequency[path] += 1
        for word in stats.distinct_words:
            self.word_document_frequency[word] += 1
        for name in stats.attribute_names:
            self.attribute_document_frequency[name] += 1

    def label_selectivity(self, label: str) -> float:
        """Fraction of documents containing at least one ``label`` element."""
        if not self.document_count:
            return 0.0
        return self.label_document_frequency[label] / self.document_count

    def path_selectivity(self, path: str) -> float:
        """Fraction of documents containing the exact label path."""
        if not self.document_count:
            return 0.0
        return self.path_document_frequency[path] / self.document_count

    def word_selectivity(self, word: str) -> float:
        """Fraction of documents containing the word (full text)."""
        if not self.document_count:
            return 0.0
        return self.word_document_frequency[word] / self.document_count

    def attribute_selectivity(self, name: str) -> float:
        """Fraction of documents with at least one ``name`` attribute."""
        if not self.document_count:
            return 0.0
        return self.attribute_document_frequency[name] / self.document_count

    @property
    def mean_document_bytes(self) -> float:
        """Average document size (feeds the advisor's time estimates)."""
        if not self.document_count:
            return 0.0
        return self.total_bytes / self.document_count


def corpus_stats(documents: Iterable[Document]) -> CorpusStats:
    """Summarise a whole corpus."""
    corpus = CorpusStats()
    for document in documents:
        corpus.add(document_stats(document))
    return corpus
