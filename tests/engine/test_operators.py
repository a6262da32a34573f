"""Unit tests for the look-up plan operators and row accounting."""

from repro.engine.operators import HashIntersect, PlanStats, SemiJoin


def test_intersect_multiple_inputs():
    stats = PlanStats()
    out = HashIntersect(stats).execute([
        ["a", "b", "c"], ["b", "c", "d"], ["c", "b"]])
    assert out == ["b", "c"]
    assert stats.rows_processed == 8


def test_intersect_empty_input_list():
    assert HashIntersect(PlanStats()).execute([]) == []


def test_intersect_single_input_passthrough():
    out = HashIntersect(PlanStats()).execute([["x", "y", "x"]])
    assert out == ["x", "y"]


def test_semi_join_reduction():
    stats = PlanStats()
    out = SemiJoin(stats).execute(
        [("a.xml", 1), ("b.xml", 2), ("c.xml", 3)],
        ["a.xml", "c.xml"],
        key=lambda row: row[0])
    assert out == [("a.xml", 1), ("c.xml", 3)]
    assert stats.rows_processed == 5  # 3 left + 2 right


def test_stats_accumulate_across_operators():
    stats = PlanStats()
    HashIntersect(stats).execute([[1, 2], [2]])
    SemiJoin(stats).execute([1, 2, 3], [3], key=lambda row: row)
    assert stats.rows_processed == 7
    assert stats.operator_rows == {"intersect": 3, "semijoin": 4}
