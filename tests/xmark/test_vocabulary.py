"""Unit tests for the generator's word pools."""

import random

from repro.query.predicates import tokenize
from repro.xmark import vocabulary
from repro.xmark.vocabulary import (COMMON_WORDS, MARKER_WORDS, Vocabulary)


def _vocab(seed=3):
    return Vocabulary(random.Random(seed))


def test_deterministic_for_seed():
    first = [_vocab(1).prose(10, 20) for _ in range(3)]
    second = [_vocab(1).prose(10, 20) for _ in range(3)]
    # Each Vocabulary gets a fresh RNG seeded identically.
    assert first[0] == second[0]


def test_prose_length_bounds():
    vocab = _vocab()
    for _ in range(20):
        words = vocab.prose(5, 9).split()
        assert 5 <= len(words) <= 9


def test_prose_marker_rate_controllable(monkeypatch):
    monkeypatch.setattr(vocabulary, "PROSE_MARKER_PROBABILITY", 1.0)
    always = _vocab().prose(50, 50)
    assert set(always.split()) <= set(MARKER_WORDS)
    monkeypatch.setattr(vocabulary, "PROSE_MARKER_PROBABILITY", 0.0)
    never = _vocab().prose(50, 50)
    assert set(never.split()) <= set(COMMON_WORDS)


def test_item_name_capitalised():
    vocab = _vocab()
    for _ in range(10):
        name = vocab.item_name()
        assert all(word[0].isupper() for word in name.split())


def test_item_name_marker_injection():
    vocab = _vocab()
    names = [vocab.item_name(marker_probability=1.0) for _ in range(20)]
    markers = set(MARKER_WORDS)
    assert all(markers & set(tokenize(name)) for name in names)


def test_dates_parse_and_bound():
    vocab = _vocab()
    for _ in range(20):
        month, day, year = vocab.date(2000, 2001).split("/")
        assert 1 <= int(month) <= 12
        assert 1 <= int(day) <= 28
        assert int(year) in (2000, 2001)


def test_email_derives_from_name():
    assert "edouard.manet@" in _vocab().email("Edouard Manet")


def test_full_name_two_parts():
    assert len(_vocab().full_name().split()) == 2


def test_marker_words_disjoint_from_common_pool():
    """Marker selectivity depends on markers never appearing as common
    words."""
    assert not set(MARKER_WORDS) & set(COMMON_WORDS)
