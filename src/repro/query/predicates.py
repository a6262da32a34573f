"""Value predicates on pattern nodes (§4).

Three forms are supported, mirroring the paper exactly:

- :class:`Equals` — ``= c``: the node's value equals the constant;
- :class:`Contains` — ``contains(c)``: the value contains the word ``c``;
- :class:`RangePredicate` — ``a <= val <= b``: the value lies in a range.

Range comparison is numeric when both the bounds and the value parse as
numbers, lexicographic otherwise (XMark years are numeric strings).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.errors import PatternSemanticsError

_WORD = re.compile(r"[A-Za-z0-9]+")
#: ASCII text lower-cased, with every character but a letter or digit
#: made a space: its ``split()`` is its lower-cased ``_WORD`` runs.
_ASCII_WORD_RUNS = str.maketrans({
    chr(code): chr(code).lower() if chr(code).isalnum() else " "
    for code in range(0x80)})


def tokenize(value: str) -> list:
    """Split a string value into indexable/searchable words.

    Words are maximal alphanumeric runs, lower-cased — the tokenization
    both the full-text index keys (``w‖n.val``) and ``contains`` use, so
    index look-ups and final evaluation always agree.  ASCII text is
    lowered and split in one pass over it; any other text word by word,
    since lowering it first can change the runs (``'İ'`` lowers to two
    characters, the Kelvin sign to an ASCII ``k``).
    """
    if value.isascii():
        return value.translate(_ASCII_WORD_RUNS).split()
    return [w.lower() for w in _WORD.findall(value)]


def _as_number(value: str) -> Optional[float]:
    try:
        return float(value)
    except ValueError:
        return None


class Predicate:
    """Base class: a test on a node's string value."""

    def matches(self, value: str) -> bool:
        """Whether ``value`` satisfies the predicate."""
        raise NotImplementedError

    def lookup_words(self) -> list:
        """Words a full-text index look-up can use to pre-filter
        documents (empty for predicates the index cannot help with)."""
        return []


@dataclass(frozen=True)
class Equals(Predicate):
    """``= c`` — the string value equals the constant ``c``."""

    constant: str

    def matches(self, value: str) -> bool:
        """Whether ``value`` satisfies the predicate."""
        return value == self.constant

    def lookup_words(self) -> list:
        """Words usable by a full-text index pre-filter."""
        # Every word of the constant must appear in the value, so all of
        # them can narrow the document set.
        return tokenize(self.constant)

    def __str__(self) -> str:
        return '="{}"'.format(self.constant)


@dataclass(frozen=True)
class Contains(Predicate):
    """``contains(c)`` — the value contains the word ``c``."""

    word: str

    def __post_init__(self) -> None:
        words = tokenize(self.word)
        if len(words) != 1:
            raise PatternSemanticsError(
                "contains() takes exactly one word, got {!r}".format(self.word))

    def matches(self, value: str) -> bool:
        """Whether ``value`` satisfies the predicate."""
        return tokenize(self.word)[0] in tokenize(value)

    def lookup_words(self) -> list:
        """Words usable by a full-text index pre-filter."""
        return tokenize(self.word)

    def __str__(self) -> str:
        return 'contains("{}")'.format(self.word)


@dataclass(frozen=True)
class RangePredicate(Predicate):
    """``a <= val <= b`` — the value lies in the closed range [a, b].

    §5.5: range look-ups in key-value stores imply a full scan, so the
    index look-up *ignores* range predicates (``lookup_words`` is empty)
    and the evaluator applies them on the reduced document set.
    """

    low: str
    high: str

    def __post_init__(self) -> None:
        low_n, high_n = _as_number(self.low), _as_number(self.high)
        if low_n is not None and high_n is not None:
            if low_n > high_n:
                raise PatternSemanticsError(
                    "empty range [{}, {}]".format(self.low, self.high))
        elif self.low > self.high:
            raise PatternSemanticsError(
                "empty range [{!r}, {!r}]".format(self.low, self.high))

    def matches(self, value: str) -> bool:
        """Whether ``value`` satisfies the predicate."""
        value_n = _as_number(value)
        low_n, high_n = _as_number(self.low), _as_number(self.high)
        if value_n is not None and low_n is not None and high_n is not None:
            return low_n <= value_n <= high_n
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return "in({}, {})".format(self.low, self.high)

