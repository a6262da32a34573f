"""Deterministic word pools for the corpus generator.

XMark fills text with Shakespearean prose; we use fixed pools with a
skewed sampling scheme instead.  A small set of *marker* words is
injected rarely and deliberately, so ``contains``-style queries have
known, controllable selectivity (the paper's q3 matches paintings whose
name contains "Lion" — a rare word).
"""

from __future__ import annotations

import random
from typing import List, Sequence

FIRST_NAMES: Sequence[str] = (
    "Edouard", "Eugene", "Claude", "Berthe", "Camille", "Paul", "Mary",
    "Gustave", "Pierre", "Auguste", "Henri", "Edgar", "Alfred", "Frederic",
    "Marie", "Jean", "Vincent", "Georges", "Odilon", "Suzanne",
)

LAST_NAMES: Sequence[str] = (
    "Manet", "Delacroix", "Monet", "Morisot", "Pissarro", "Cezanne",
    "Cassatt", "Courbet", "Renoir", "Rodin", "Matisse", "Degas", "Sisley",
    "Bazille", "Laurencin", "Ingres", "Gogh", "Seurat", "Redon", "Valadon",
)

COUNTRIES: Sequence[str] = (
    "France", "Japan", "Germany", "Spain", "Italy", "Brazil", "Canada",
    "Australia", "India", "Norway",
)

CITIES: Sequence[str] = (
    "Paris", "Tokyo", "Berlin", "Madrid", "Rome", "Brasilia", "Toronto",
    "Sydney", "Mumbai", "Oslo",
)

PAYMENTS: Sequence[str] = (
    "Creditcard", "Money order", "Personal check", "Cash",
)

SHIPPING: Sequence[str] = (
    "Will ship internationally", "Will ship only within country",
    "Buyer pays fixed shipping charges", "See description for charges",
)

EDUCATION: Sequence[str] = (
    "High School", "College", "Graduate School", "Other",
)

AUCTION_TYPES: Sequence[str] = ("Regular", "Featured", "Dutch")

#: Common description words — drawn frequently.
COMMON_WORDS: Sequence[str] = (
    "lot", "condition", "original", "box", "piece", "set", "great",
    "excellent", "item", "collection", "new", "old", "small", "large",
    "includes", "shipping", "color", "blue", "red", "green", "antique",
    "style", "quality", "made", "hand", "signed", "edition", "series",
    "mint", "fine", "good", "works", "complete", "pages", "cover",
    "picture", "frame", "glass", "wood", "metal", "silver", "light",
    "dark", "first", "second", "never", "used", "very", "nice", "must",
)

#: Rare marker words — injected with known low probability so that
#: ``contains(marker)`` queries are selective and their document
#: frequency is predictable.
MARKER_WORDS: Sequence[str] = (
    "gold", "rare", "vintage", "lion", "platinum", "unique",
)

MONTH_DAYS = 28  # keep date generation simple and always valid

#: Chance that a word of generated prose is a marker word.
PROSE_MARKER_PROBABILITY = 0.02


class Vocabulary:
    """Seeded access to the word pools."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def first_name(self) -> str:
        """A random first name."""
        return self._rng.choice(FIRST_NAMES)

    def last_name(self) -> str:
        """A random last name."""
        return self._rng.choice(LAST_NAMES)

    def full_name(self) -> str:
        """A random "First Last" name."""
        return "{} {}".format(self.first_name(), self.last_name())

    def country(self) -> str:
        """A random country."""
        return self._rng.choice(COUNTRIES)

    def city(self) -> str:
        """A random city."""
        return self._rng.choice(CITIES)

    def payment(self) -> str:
        """A random payment method (XMark's fixed set)."""
        return self._rng.choice(PAYMENTS)

    def shipping(self) -> str:
        """A random shipping clause."""
        return self._rng.choice(SHIPPING)

    def education(self) -> str:
        """A random education level."""
        return self._rng.choice(EDUCATION)

    def auction_type(self) -> str:
        """A random auction type."""
        return self._rng.choice(AUCTION_TYPES)

    def date(self, year_low: int = 1998, year_high: int = 2002) -> str:
        """A MM/DD/YYYY date string, XMark style."""
        return "{:02d}/{:02d}/{:d}".format(
            self._rng.randint(1, 12), self._rng.randint(1, MONTH_DAYS),
            self._rng.randint(year_low, year_high))

    def item_name(self, marker_probability: float = 0.15) -> str:
        """A 2-4 word capitalised name, sometimes containing a marker."""
        words = [self._rng.choice(COMMON_WORDS).capitalize()
                 for _ in range(self._rng.randint(2, 4))]
        if self._rng.random() < marker_probability:
            position = self._rng.randrange(len(words) + 1)
            words.insert(position, self._rng.choice(MARKER_WORDS).capitalize())
        return " ".join(words)

    def prose(self, min_words: int, max_words: int) -> str:
        """A run of description text, each word a marker word with
        :data:`PROSE_MARKER_PROBABILITY`."""
        count = self._rng.randint(min_words, max_words)
        words: List[str] = []
        for _ in range(count):
            if self._rng.random() < PROSE_MARKER_PROBABILITY:
                words.append(self._rng.choice(MARKER_WORDS))
            else:
                words.append(self._rng.choice(COMMON_WORDS))
        return " ".join(words)

    def email(self, name: str) -> str:
        """A mailto: address derived from ``name``."""
        slug = name.lower().replace(" ", ".")
        domain = self._rng.choice(("example.com", "mail.test", "web.invalid"))
        return "mailto:{}@{}".format(slug, domain)

    def phone(self) -> str:
        """A random phone number string."""
        return "+{} ({}) {}".format(
            self._rng.randint(1, 99), self._rng.randint(10, 999),
            self._rng.randint(1000000, 9999999))
