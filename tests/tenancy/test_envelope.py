"""The typed envelope and the tenancy value objects: validation."""

import pytest

from repro.errors import ConfigError
from repro.query.workload import workload_query
from repro.tenancy import (DEFAULT_TENANT, SHARED_TENANT, MutationResponse,
                           QueryRequest, QueryResponse, TenancyConfig,
                           TenantSpec, parse_tenant_spec)

pytestmark = pytest.mark.tenancy


class TestQueryRequest:
    def test_defaults_to_the_single_owner_tenant(self):
        request = QueryRequest(query="//a")
        assert request.tenant == DEFAULT_TENANT
        assert not request.degraded
        assert request.source() == "//a"

    def test_name_derived_from_a_parsed_query(self):
        query = workload_query("q1")
        request = QueryRequest(query=query)
        assert request.name == query.name
        assert request.source()  # round-trips to source text

    def test_explicit_name_wins(self):
        request = QueryRequest(query=workload_query("q1"), name="mine")
        assert request.name == "mine"

    def test_rejects_empty_tenant(self):
        with pytest.raises(ConfigError):
            QueryRequest(query="//a", tenant="")

    def test_rejects_whitespace_tenant(self):
        with pytest.raises(ConfigError):
            QueryRequest(query="//a", tenant="two words")

    def test_rejects_blank_query_text(self):
        with pytest.raises(ConfigError):
            QueryRequest(query="   ")

    def test_rejects_non_query_payloads(self):
        with pytest.raises(ConfigError):
            QueryRequest(query=42)

    def test_frozen(self):
        request = QueryRequest(query="//a")
        with pytest.raises(AttributeError):
            request.tenant = "other"


class TestResponses:
    def test_query_response_defaults(self):
        response = QueryResponse(query_id=7)
        assert response.status == "ok"
        assert response.tenant == DEFAULT_TENANT

    def test_mutation_response_applied(self):
        response = MutationResponse(tenant="acme", kind="add",
                                    etag="LUI:1")
        assert response.applied

    def test_mutation_response_conflict(self):
        response = MutationResponse(tenant="acme", kind="add",
                                    etag="LUI:2", status="conflict")
        assert not response.applied


class TestTenantSpec:
    def test_rejects_the_reserved_shared_name(self):
        with pytest.raises(ConfigError):
            TenantSpec(name=SHARED_TENANT)

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="acme", weight=0.0)

    def test_rejects_non_positive_quotas(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="acme", qps_quota=0.0)
        with pytest.raises(ConfigError):
            TenantSpec(name="acme", dollar_budget=-1.0)

    def test_rejects_non_profile_traffic(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="acme", traffic={"arrival": "poisson"})


class TestTenancyConfig:
    def test_requires_tenants(self):
        with pytest.raises(ConfigError):
            TenancyConfig(tenants=())

    def test_rejects_duplicate_names(self):
        with pytest.raises(ConfigError):
            TenancyConfig(tenants=(TenantSpec(name="a"),
                                   TenantSpec(name="a")))

    def test_rejects_unknown_scheduler(self):
        with pytest.raises(ConfigError):
            TenancyConfig(tenants=(TenantSpec(name="a"),),
                          scheduler="priority")

    def test_spec_lookup_and_weights(self):
        config = TenancyConfig(tenants=(TenantSpec(name="a", weight=4.0),
                                        TenantSpec(name="b")))
        assert config.spec("a").weight == 4.0
        assert config.spec("nope") is None
        assert config.weights == {"a": 4.0, "b": 1.0}


class TestParseTenantSpec:
    def test_name_only(self):
        spec = parse_tenant_spec("acme")
        assert spec == TenantSpec(name="acme")

    def test_full_spec(self):
        spec = parse_tenant_spec("acme:2:5:0.01")
        assert spec.weight == 2.0
        assert spec.qps_quota == 5.0
        assert spec.dollar_budget == 0.01

    def test_empty_positions_keep_defaults(self):
        spec = parse_tenant_spec("acme::5")
        assert spec.weight == 1.0
        assert spec.qps_quota == 5.0
        assert spec.dollar_budget is None

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_tenant_spec("")
        with pytest.raises(ConfigError):
            parse_tenant_spec("acme:fast")
        with pytest.raises(ConfigError):
            parse_tenant_spec("a:1:2:3:4")
