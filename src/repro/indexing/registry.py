"""Strategy registry: look strategies up by the paper's names."""

from __future__ import annotations

from typing import Tuple

from repro.errors import UnknownStrategy
from repro.indexing.base import IndexingStrategy
from repro.indexing.lu import LUStrategy
from repro.indexing.lui import LUIStrategy
from repro.indexing.lup import LUPStrategy
from repro.indexing.two_lupi import TwoLUPIStrategy

#: Canonical experiment order (matches Tables 4-8 and Figures 7-13).
ALL_STRATEGY_NAMES: Tuple[str, ...] = ("LU", "LUP", "LUI", "2LUPI")

_CLASSES = {
    "LU": LUStrategy,
    "LUP": LUPStrategy,
    "LUI": LUIStrategy,
    "2LUPI": TwoLUPIStrategy,
}


def strategy(name: str, include_words: bool = True) -> IndexingStrategy:
    """Instantiate a strategy by its paper name (case-insensitive)."""
    cls = _CLASSES.get(name.upper())
    if cls is None:
        raise UnknownStrategy(
            "{!r}; known strategies: {}".format(name, ALL_STRATEGY_NAMES))
    return cls(include_words=include_words)


def all_strategies():
    """All four strategies in canonical order, with full-text keys."""
    return [strategy(name) for name in ALL_STRATEGY_NAMES]
