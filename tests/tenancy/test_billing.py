"""Bill arithmetic: exact reconciliation and incremental spend."""

import math
import random

import pytest

from repro.costs.pricing import AWS_SINGAPORE
from repro.sim import Environment
from repro.sim.metering import MeterRecord
from repro.telemetry.spans import Tracer
from repro.tenancy import SHARED_TENANT, SpendTracker, reconcile

pytestmark = pytest.mark.tenancy


def _fold(values):
    folded = 0.0
    for value in values:
        folded += value
    return folded


def _nudge_only(parts, target):
    """The reconciliation as first written: nudge, never walk."""
    values = [value for _, value in parts]
    for _ in range(64):
        error = target - _fold(values)
        if error == 0.0:
            break
        values[-1] += error
    return values


#: PR 11's "bills miss the total by one ulp": the nudge lands on a
#: rounding tie and hops between two neighbours of the answer forever.
OSCILLATING = ([("t0", 0.016222781239010352), ("t1", 0.011266810712620671),
                ("t2", 0.002702862819894498)], 0.03019245477152552)


def test_reconcile_converges_where_the_nudge_oscillates():
    parts, target = OSCILLATING
    assert _fold(_nudge_only(parts, target)) != target
    bills = reconcile(parts, target)
    assert _fold(bills.values()) == target
    assert [bills["t0"], bills["t1"]] == [parts[0][1], parts[1][1]]
    assert abs(bills["t2"] - parts[2][1]) < 1e-17


def test_reconcile_is_exact_on_seeded_random_bills():
    rng = random.Random(20130318)
    walked = 0
    for _ in range(10_000):
        values = [rng.uniform(0.0, 0.02) for _ in range(rng.randint(2, 5))]
        values[-1] *= 0.2  # the absorbing bucket is the small one
        # The target is the same dollars folded in another order, and
        # half the time one ulp further off.
        target = _fold(sorted(values))
        if rng.random() < 0.5:
            target = math.nextafter(target, rng.choice((0.0, math.inf)))
        if values[-1] >= target / 2:
            continue  # no float need exist that folds to the target
        parts = [("t{}".format(i), v) for i, v in enumerate(values)]
        bills = list(reconcile(parts, target).values())
        assert _fold(bills) == target, (parts, target)
        assert bills[:-1] == values[:-1]
        reference = _nudge_only(parts, target)
        if _fold(reference) == target:
            assert bills == reference  # converging inputs keep their bits
        else:
            walked += 1
    assert walked > 100  # the case is common, not a curiosity


def test_reconcile_edge_cases():
    assert reconcile([], 1.0) == {}
    assert reconcile([("a", 0.25)], 0.25) == {"a": 0.25}
    zero = reconcile([("a", 0.5), (SHARED_TENANT, 0.0)], 0.5)
    assert math.copysign(1.0, zero[SHARED_TENANT]) == 1.0
    # Non-finite targets cannot be met; they must still return.
    assert math.isnan(reconcile([("a", 1.0)], math.nan)["a"])
    assert reconcile([("a", 1.0), ("b", 1.0)], math.inf)["a"] == 1.0


class _AppendOnlyLog:
    """The whole surface ``SpendTracker`` may use of a meter."""

    def __init__(self):
        self.log = []
        self.reads = []

    def since(self, mark):
        self.reads.append(mark)
        return self.log[mark:]


def test_spend_tracker_reads_the_meter_through_its_public_view():
    log, book = _AppendOnlyLog(), AWS_SINGAPORE
    tracker = SpendTracker(Tracer(Environment()), log, book,
                           tag_prefix="serve")
    assert tracker.spent(SHARED_TENANT) == 0.0
    log.log += [MeterRecord(0.0, "sqs", "send_message", tag="serve:x"),
                MeterRecord(0.0, "sqs", "send_message", tag="build")]
    assert tracker.spent(SHARED_TENANT) == book.qs_request
    log.log.append(MeterRecord(1.0, "s3", "get", count=3, tag="serve:x"))
    assert tracker.spent(SHARED_TENANT) \
        == book.qs_request + book.st_get * 3
    assert log.reads == [0, 0, 2]  # each record is read exactly once
