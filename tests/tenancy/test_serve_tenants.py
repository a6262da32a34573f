"""End-to-end multi-tenant serving: fairness, bills, exact tie-out."""

from functools import reduce
from operator import add

import pytest

from repro.config import ScaleProfile
from repro.serving import TrafficProfile
from repro.tenancy import SHARED_TENANT, TenancyConfig, TenantSpec
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

pytestmark = pytest.mark.tenancy

DOCUMENTS = 16
SEED = 77


def _warehouse(tenancy, workers=2):
    warehouse = Warehouse(deployment={"loaders": 2, "batch_size": 4,
                                      "workers": workers,
                                      "tenancy": tenancy})
    warehouse.upload_corpus(generate_corpus(
        ScaleProfile(documents=DOCUMENTS, seed=SEED)))
    return warehouse


def _serve(tenancy, workers=2, queries=12, rate=2.0, tag=None):
    warehouse = _warehouse(tenancy, workers=workers)
    index = warehouse.build_index("LUI")
    return warehouse.serve(
        {"arrival": "poisson", "rate_qps": rate, "queries": queries,
         "seed": 7}, index, tag=tag)


class TestTwoTenantRun:
    @pytest.fixture(scope="class")
    def report(self):
        tenancy = TenancyConfig(tenants=(
            TenantSpec(name="alpha", weight=3.0),
            TenantSpec(name="beta", weight=1.0),
        ))
        return _serve(tenancy)

    def test_every_tenant_is_billed(self, report):
        names = [bill.tenant for bill in report.tenant_bills]
        assert names == ["alpha", "beta", SHARED_TENANT]

    def test_bills_sum_exactly_to_the_estimator_total(self, report):
        assert report.cost_tied_out
        assert report.tenants_tied_out
        # Ordered left folds: the builtin ``sum`` compensates float
        # rounding from Python 3.12 on.
        assert reduce(add, (b.request_cost for b in report.tenant_bills),
                      0.0) == report.estimator_request_cost
        assert reduce(add, (b.ec2_cost for b in report.tenant_bills),
                      0.0) == report.ec2_cost

    def test_tenant_queries_carry_their_owner(self, report):
        tenants = {q.tenant for q in report.queries}
        assert tenants == {"alpha", "beta"}
        by_tenant = {bill.tenant: bill for bill in report.tenant_bills}
        for tenant in ("alpha", "beta"):
            completed = sum(1 for q in report.queries
                            if q.tenant == tenant)
            assert by_tenant[tenant].queries == completed

    def test_per_tenant_latencies_are_measured(self, report):
        by_tenant = {bill.tenant: bill for bill in report.tenant_bills}
        for tenant in ("alpha", "beta"):
            assert by_tenant[tenant].p50_s > 0
            assert by_tenant[tenant].p50_s <= by_tenant[tenant].p95_s

    def test_report_serialises_the_bills(self, report):
        payload = report.to_dict()
        assert [entry["tenant"] for entry in payload["tenants"]] \
            == ["alpha", "beta", SHARED_TENANT]
        text = report.render()
        assert "tenants (tied out)" in text


class TestQuotas:
    def test_qps_quota_sheds_only_the_metered_tenant(self):
        tenancy = TenancyConfig(tenants=(
            TenantSpec(name="alpha", weight=1.0),
            TenantSpec(name="beta", weight=1.0, qps_quota=0.5),
        ))
        report = _serve(tenancy, rate=4.0, queries=16)
        by_tenant = {bill.tenant: bill for bill in report.tenant_bills}
        assert by_tenant["alpha"].shed == 0
        assert by_tenant["beta"].shed > 0
        assert report.tenants_tied_out

    def test_dollar_budget_stops_an_over_spending_tenant(self):
        tenancy = TenancyConfig(tenants=(
            TenantSpec(name="alpha", weight=1.0),
            TenantSpec(name="beta", weight=1.0, dollar_budget=1e-07),
        ))
        report = _serve(tenancy, queries=16)
        by_tenant = {bill.tenant: bill for bill in report.tenant_bills}
        assert by_tenant["beta"].shed > 0
        assert by_tenant["alpha"].shed == 0
        assert report.tenants_tied_out

    def test_degrade_action_routes_to_the_degraded_path(self):
        tenancy = TenancyConfig(tenants=(
            TenantSpec(name="alpha", weight=1.0),
            TenantSpec(name="beta", weight=1.0, qps_quota=0.5,
                       over_quota="degrade"),
        ))
        report = _serve(tenancy, rate=4.0, queries=16)
        by_tenant = {bill.tenant: bill for bill in report.tenant_bills}
        assert by_tenant["beta"].degraded > 0
        assert by_tenant["beta"].shed == 0
        degraded = [q for q in report.queries if q.degraded]
        assert degraded
        assert all(q.tenant == "beta" for q in degraded)
        assert all(q.index_mode == "s3-scan" for q in degraded)
        assert report.tenants_tied_out


class TestNoisyNeighbour:
    def _steady_p95(self, scheduler):
        steady = TrafficProfile(arrival="poisson", rate_qps=0.5,
                                queries=8, seed=11)
        storm = TrafficProfile(arrival="burst", rate_qps=8.0,
                               queries=40, seed=12)
        tenancy = TenancyConfig(tenants=(
            TenantSpec(name="steady", weight=4.0, traffic=steady),
            TenantSpec(name="storm", weight=1.0, traffic=storm),
        ), scheduler=scheduler)
        report = _serve(tenancy, workers=1,
                        tag="serve-nn:{}".format(scheduler))
        assert report.tenants_tied_out
        bills = {bill.tenant: bill for bill in report.tenant_bills}
        return bills["steady"].p95_s

    def test_fair_share_protects_the_steady_tenant(self):
        fair = self._steady_p95("fair")
        fifo = self._steady_p95("fifo")
        # On identical seeded traffic the storm must not move the
        # steady tenant under fair share the way it does under FIFO.
        assert fair < fifo / 2


class TestDeterminism:
    def _run(self):
        tenancy = TenancyConfig(tenants=(
            TenantSpec(name="alpha", weight=3.0),
            TenantSpec(name="beta", weight=1.0),
        ))
        return _serve(tenancy, tag="serve-tenancy:golden").to_dict()

    def test_same_seed_is_byte_identical(self):
        assert self._run() == self._run()
