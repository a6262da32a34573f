"""XML substrate: document model, structural identifiers, parser,
serializer, compact ID encodings and corpus statistics.

The paper identifies XML nodes with simple ``(pre, post, depth)``
structural identifiers ([3] and follow-ups, §5): ancestry between two
nodes is decided by comparing components, which is what the structural
and holistic twig joins in :mod:`repro.engine` rely on.  This subpackage
provides:

- :class:`~repro.xmldb.ids.NodeID` — the (pre, post, depth) identifier;
- :class:`~repro.xmldb.model.Element` / ``Attribute`` / ``Text`` /
  :class:`~repro.xmldb.model.Document` — an ordered tree model, and
  :func:`~repro.xmldb.model.number_nodes`, the walk that gives each
  node its NodeID and label path;
- :func:`~repro.xmldb.parser.parse_document` — bytes → Document;
- :func:`~repro.xmldb.serializer.serialize` — Document → bytes;
- :mod:`~repro.xmldb.encoding` — the compact binary ID-list codec used
  for DynamoDB values (§8.2: "compressed (encoded) sets of IDs in a
  single DynamoDB value") and the textual form SimpleDB is limited to;
- :mod:`~repro.xmldb.stats` — document/corpus summaries for the index
  advisor.
"""

from repro.xmldb.blocks import IDBlock, as_block
from repro.xmldb.ids import NodeID
from repro.xmldb.model import Attribute, Document, Element, Text
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize

__all__ = [
    "Attribute",
    "Document",
    "Element",
    "IDBlock",
    "NodeID",
    "Text",
    "as_block",
    "parse_document",
    "serialize",
]
