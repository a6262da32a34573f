"""Minimal physical-plan operators with row accounting.

The look-up plans (Figure 5: intersections and semi-joins feeding a
holistic twig join) are assembled from these operators.  They run in
ordinary Python, but every row that flows through an operator is
counted in a shared :class:`PlanStats`; the query processor converts the
count into simulated CPU time ("Lookup - Plan execution" in Figures
9b/9c) via ``PerformanceProfile.plan_ecu_s_per_row``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Set, TypeVar

Row = TypeVar("Row")
Key = TypeVar("Key")


class PlanStats:
    """Shared accounting for one plan execution."""

    def __init__(self) -> None:
        self.rows_processed = 0
        self.operator_rows: Dict[str, int] = {}

    def charge(self, operator: str, rows: int) -> None:
        """Record ``rows`` flowing through ``operator``."""
        self.rows_processed += rows
        self.operator_rows[operator] = \
            self.operator_rows.get(operator, 0) + rows


class Operator:
    """Base class: a materialising plan node."""

    name = "operator"

    def __init__(self, stats: PlanStats) -> None:
        self.stats = stats

    def _account(self, rows: Sequence) -> Sequence:
        self.stats.charge(self.name, len(rows))
        return rows


class HashIntersect(Operator):
    """Intersect several row sets (the LU look-up's URI intersection)."""

    name = "intersect"

    def execute(self, inputs: Sequence[Iterable[Row]]) -> List[Row]:
        """Run the operator, counting consumed rows."""
        if not inputs:
            return []
        materialised = [list(rows) for rows in inputs]
        for rows in materialised:
            self._account(rows)
        common: Set[Row] = set(materialised[0])
        for rows in materialised[1:]:
            common &= set(rows)
        # Preserve first input's order for determinism.
        return [row for row in dict.fromkeys(materialised[0]) if row in common]


class SemiJoin(Operator):
    """Keep left rows whose key appears on the right (the 2LUPI
    reduction ``R2 ⋉ R1(URI)``, §5.4)."""

    name = "semijoin"

    def execute(self, left: Iterable[Row], right: Iterable[Key],
                key: Callable[[Row], Key]) -> List[Row]:
        """Run the operator, counting consumed rows."""
        left_rows = list(left)
        right_keys = list(right)
        self._account(left_rows)
        self._account(right_keys)
        allowed = set(right_keys)
        return [row for row in left_rows if key(row) in allowed]
