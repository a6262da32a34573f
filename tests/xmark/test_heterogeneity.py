"""Unit tests for the §8.1 corpus modifications."""

import random

import pytest

from repro.config import ScaleProfile
from repro.xmark import heterogeneity
from repro.xmark.generator import XMarkGenerator
from repro.xmark.heterogeneity import heterogenize, restructure
from repro.xmldb.stats import document_stats


@pytest.fixture(scope="module")
def generated():
    return XMarkGenerator(ScaleProfile(documents=60, seed=11)).generate()


def _first_of_kind(generated, kind):
    for g in generated:
        if g.kind == kind:
            return g
    raise AssertionError("no {} documents generated".format(kind))


class TestRestructure:
    def test_items_name_moves_under_description(self, generated):
        g = _first_of_kind(generated, "items")
        document = g.document
        before = document_stats(document)
        assert "/eitems/eitem/ename" in before.distinct_paths
        changed = restructure(document, "items", random.Random(0))
        assert changed
        after = document_stats(document)
        # Labels preserved...
        assert after.label_counts["name"] >= 1
        assert set(after.label_counts) == set(before.label_counts)
        # ...but the original path is gone; the nested one appears.
        assert "/eitems/eitem/ename" not in after.distinct_paths
        assert "/eitems/eitem/edescription/ename" in after.distinct_paths

    def test_node_count_preserved(self, generated):
        g = _first_of_kind(generated, "items")
        document = g.document
        before = document.node_count()
        restructure(document, "items", random.Random(0))
        assert document.node_count() == before

    def test_people_address_moves_under_profile(self, generated):
        for g in generated:
            if g.kind != "people":
                continue
            document = g.document
            if restructure(document, "people", random.Random(0)):
                stats = document_stats(document)
                assert any("/eprofile/eaddress" in p
                           for p in stats.distinct_paths)
                assert all(not p.endswith("/eperson/eaddress")
                           for p in stats.distinct_paths)
                return
        pytest.skip("no people document had both address and profile")


class TestHeterogenize:
    def test_drops_compulsory_children(self, generated, monkeypatch):
        monkeypatch.setattr(heterogeneity, "DROP_PROBABILITY", 1.0)
        g = _first_of_kind(generated, "items")
        document = g.document
        before = document_stats(document)
        changed = heterogenize(document, "items", random.Random(1))
        assert changed
        after = document_stats(document)
        for label in ("payment", "location", "shipping"):
            assert after.label_counts[label] == 0, label
        assert after.node_count < before.node_count
        assert after.label_counts["item"] == before.label_counts["item"]

    def test_zero_probability_is_noop(self, generated, monkeypatch):
        monkeypatch.setattr(heterogeneity, "DROP_PROBABILITY", 0.0)
        g = _first_of_kind(generated, "items")
        document = g.document
        before = document.node_count()
        changed = heterogenize(document, "items", random.Random(1))
        assert not changed
        assert document.node_count() == before

    def test_categories_have_no_candidates(self, generated):
        g = _first_of_kind(generated, "categories")
        assert not heterogenize(g.document, "categories", random.Random(2))
