"""Shared test fixtures.

``paper_documents`` reproduces Figure 3's "delacroix.xml" and
"manet.xml" exactly — the running example every §5 index table in the
paper is derived from — so tests can check extraction output against
the paper's printed tuples.
"""

from __future__ import annotations

import pytest

from repro.cloud import CloudProvider
from repro.config import TEST_SCALE
from repro.sim import Environment
from repro.xmark import generate_corpus
from repro.xmldb.model import Document, Element, Text


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print per-marker test counts so tier-1 runs show suite coverage."""
    counts = {"chaos": 0, "engine": 0, "ingest": 0, "scrub": 0,
              "serving": 0, "store": 0, "telemetry": 0, "tenancy": 0}
    for report in terminalreporter.getreports("passed"):
        keywords = getattr(report, "keywords", {})
        for marker in counts:
            if marker in keywords:
                counts[marker] += 1
    line = ", ".join("{}={}".format(marker, counts[marker])
                     for marker in sorted(counts))
    terminalreporter.write_line("marker counts: {}".format(line))


@pytest.fixture
def env():
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def cloud():
    """A fresh simulated cloud (own environment and meter)."""
    return CloudProvider()


def build_painting(uri: str, painting_id: str, name: str, first: str,
                   last: str) -> Document:
    """One Figure 3 painting document."""
    painting = Element(label="painting")
    painting.set_attribute("id", painting_id)
    name_el = Element(label="name")
    name_el.add(Text(value=name))
    painting.add(name_el)
    painter = Element(label="painter")
    painter_name = Element(label="name")
    first_el = Element(label="first")
    first_el.add(Text(value=first))
    painter_name.add(first_el)
    last_el = Element(label="last")
    last_el.add(Text(value=last))
    painter_name.add(last_el)
    painter.add(painter_name)
    painting.add(painter)
    document = Document(uri=uri, root=painting)
    from repro.xmldb.serializer import serialize
    document.size_bytes = len(serialize(document))
    return document


@pytest.fixture(scope="session")
def delacroix() -> Document:
    """Figure 3's "delacroix.xml"."""
    return build_painting("delacroix.xml", "1854-1", "The Lion Hunt",
                          "Eugene", "Delacroix")


@pytest.fixture(scope="session")
def manet() -> Document:
    """Figure 3's "manet.xml"."""
    return build_painting("manet.xml", "1863-1", "Olympia",
                          "Edouard", "Manet")


@pytest.fixture(scope="session")
def paper_documents(delacroix, manet):
    """Both Figure 3 documents, in paper order."""
    return [delacroix, manet]


@pytest.fixture(scope="session")
def small_corpus():
    """A small deterministic corpus shared across the session."""
    return generate_corpus(TEST_SCALE)
