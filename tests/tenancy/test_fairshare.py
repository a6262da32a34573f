"""Unit tests for the weighted deficit-round-robin queue."""

import pytest

from repro.errors import ConfigError
from repro.tenancy import FairShareQueue, fairshare

pytestmark = pytest.mark.tenancy


def drain(queue):
    """Pop everything; returns the served tenant order."""
    order = []
    while len(queue):
        tenant, _ = queue.pop()
        order.append(tenant)
    return order


def test_empty_queue_pops_none():
    queue = FairShareQueue({"a": 1.0})
    assert queue.pop() is None
    assert len(queue) == 0


def test_single_lane_is_fifo():
    queue = FairShareQueue({"a": 1.0})
    for i in range(5):
        queue.push("a", i)
    assert [queue.pop() for _ in range(5)] == \
        [("a", i) for i in range(5)]


def test_weighted_interleave_is_proportional():
    queue = FairShareQueue({"a": 4.0, "b": 1.0})
    for i in range(20):
        queue.push("a", i)
        queue.push("b", i)
    order = drain(queue)
    # Every window of five consecutive serves while both lanes are
    # backlogged carries four a's and one b.
    saturated = order[:25]
    for start in range(0, 25, 5):
        window = saturated[start:start + 5]
        assert window.count("a") == 4 and window.count("b") == 1, \
            "window {} broke the 4:1 ratio: {}".format(start, window)


def test_empty_lane_donates_its_turn():
    queue = FairShareQueue({"a": 1.0, "b": 1.0})
    for i in range(4):
        queue.push("b", i)
    # Lane a is empty: b must be served back-to-back with no idling.
    assert drain(queue) == ["b"] * 4


def test_exhausted_lane_forfeits_deficit():
    queue = FairShareQueue({"a": 8.0, "b": 1.0})
    queue.push("a", 0)
    queue.push("b", 0)
    assert queue.pop()[0] == "a"
    # a's lane emptied with 7 deficit left; that credit must be gone.
    for i in range(8):
        queue.push("a", i)
        queue.push("b", i)
    # b still gets served within a's first earned window.
    order = [queue.pop()[0] for _ in range(9)]
    assert "b" in order


def test_unknown_tenant_joins_at_weight_one():
    queue = FairShareQueue({"a": 1.0})
    queue.push("surprise", "x")
    assert queue.weight("surprise") == 1.0
    assert queue.pop() == ("surprise", "x")


def test_sub_unit_quantum_still_serves_everything(monkeypatch):
    monkeypatch.setattr(fairshare, "QUANTUM", 0.25)
    queue = FairShareQueue({"a": 1.0, "b": 3.0})
    for i in range(6):
        queue.push("a", i)
        queue.push("b", i)
    order = drain(queue)
    assert len(order) == 12
    assert order.count("a") == 6 and order.count("b") == 6


def test_service_shares_converge_to_weights():
    queue = FairShareQueue({"a": 3.0, "b": 1.0})
    for i in range(400):
        queue.push("a", i)
        queue.push("b", i)
    for _ in range(200):
        queue.pop()
    shares = queue.service_shares()
    assert shares["a"] == pytest.approx(0.75, abs=0.01)
    assert shares["b"] == pytest.approx(0.25, abs=0.01)


def test_counters_track_pushes_and_serves():
    queue = FairShareQueue({"a": 1.0})
    queue.push("a", 1)
    queue.push("a", 2)
    queue.pop()
    assert queue.pushed == {"a": 2}
    assert queue.served == {"a": 1}
    assert queue.backlog("a") == 1


def test_validation():
    with pytest.raises(ConfigError):
        FairShareQueue({"a": 0.0})
