"""Policy and deployment-config value objects."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serving import AdmissionPolicy, AutoscalePolicy
from repro.warehouse.deployment import DeploymentConfig

pytestmark = pytest.mark.serving


class TestAutoscalePolicy:
    def test_defaults_are_valid_and_elastic(self):
        policy = AutoscalePolicy()
        assert policy.min_workers == 1
        assert not policy.fixed

    def test_fixed_when_bounds_collapse(self):
        assert AutoscalePolicy(min_workers=2, max_workers=2).fixed

    def test_validation(self):
        with pytest.raises(ConfigError):
            AutoscalePolicy(min_workers=0)
        with pytest.raises(ConfigError):
            AutoscalePolicy(min_workers=3, max_workers=2)


class TestAdmissionPolicy:
    def test_degradation_band_is_optional(self):
        assert not AdmissionPolicy().degradation_enabled
        assert AdmissionPolicy(max_queue_depth=10,
                               degrade_queue_depth=5).degradation_enabled

    def test_validation(self):
        with pytest.raises(ConfigError):
            AdmissionPolicy(max_queue_depth=0)
        with pytest.raises(ConfigError):
            AdmissionPolicy(max_queue_depth=10, degrade_queue_depth=10)
        with pytest.raises(ConfigError):
            AdmissionPolicy(max_queue_depth=10, degrade_queue_depth=0)


class TestDeploymentConfig:
    def test_defaults_reproduce_the_paper_baseline(self):
        cfg = DeploymentConfig()
        assert cfg.loaders == 8
        assert (cfg.workers, cfg.worker_type) == (1, "xl")
        assert cfg.backend == "dynamodb"
        assert (cfg.shards, cfg.cache_bytes) == (1, 0)
        assert not cfg.elastic

    def test_elastic_iff_autoscale_policy_present(self):
        assert DeploymentConfig(autoscale=AutoscalePolicy()).elastic

    def test_override_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            DeploymentConfig().override(instances=4)

    def test_override_returns_a_new_frozen_copy(self):
        base = DeploymentConfig()
        changed = base.override(loaders=2, shards=3)
        assert (changed.loaders, changed.shards) == (2, 3)
        assert (base.loaders, base.shards) == (8, 1)

    def test_resolve_accepts_none_mapping_and_config(self):
        base = DeploymentConfig()
        assert DeploymentConfig.resolve(base, None) is base
        replacement = DeploymentConfig(workers=3)
        assert DeploymentConfig.resolve(base, replacement) is replacement
        assert DeploymentConfig.resolve(base, {"workers": 2}).workers == 2
        with pytest.raises(ConfigError):
            DeploymentConfig.resolve(base, "workers=2")

    def test_validation(self):
        with pytest.raises(ConfigError):
            DeploymentConfig(loaders=0)
        with pytest.raises(ConfigError):
            DeploymentConfig(backend="cassandra")
        with pytest.raises(ConfigError):
            DeploymentConfig(batch_size=0)
        with pytest.raises(ConfigError):
            DeploymentConfig(visibility_timeout=0.0)
        with pytest.raises(ConfigError, match="failover must be a bool"):
            DeploymentConfig(failover="yes")

    def test_store_layout_validation(self):
        with pytest.raises(ConfigError, match="shards must be >= 1"):
            DeploymentConfig(shards=0)
        with pytest.raises(ConfigError, match="cache_bytes must be >= 0"):
            DeploymentConfig(cache_bytes=-1)
        with pytest.raises(ConfigError, match="shards must be >= 1"):
            DeploymentConfig().override(shards=0)
