"""Deployment API: one spelling per job.

Fleet shapes, store layout and queue leases reach the warehouse through
:class:`DeploymentConfig` (``Warehouse(deployment=)`` /
``Warehouse.deploy(config)``) and nothing else.  A call may vary only
its own fleet, so an override a method would ignore is an ordinary
``TypeError``, and a policy of the wrong type fails when the deployment
is built, naming its field.
"""

from __future__ import annotations

import inspect

import pytest

from repro.errors import ConfigError
from repro.warehouse import Warehouse
from repro.warehouse.frontend import Frontend

pytestmark = pytest.mark.serving


class TestConstructorShims:
    def test_unknown_keyword_raises_like_a_signature_mismatch(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            Warehouse(bogus=1)

    def test_deploy_classmethod_builds_from_overrides(self):
        warehouse = Warehouse.deploy({"workers": 2, "loaders": 3})
        assert warehouse.deployment.workers == 2
        assert warehouse.deployment.loaders == 3

    @pytest.mark.parametrize("engine", ["row", "columnar"])
    def test_engine_is_not_a_deployment_field(self, engine):
        """There is one structural-ID data plane, so no option picks it."""
        with pytest.raises(ConfigError, match=r"field\(s\) engine;"):
            Warehouse(deployment={"engine": engine})


def test_no_public_method_swallows_arbitrary_keywords():
    """A ``**kwargs`` catch-all is how a second spelling creeps back."""
    offenders = [
        "{}.{}".format(cls.__name__, name)
        for cls in (Warehouse, Frontend)
        for name, member in inspect.getmembers(cls, inspect.isfunction)
        if (not name.startswith("_") or name == "__init__")
        and any(p.kind is inspect.Parameter.VAR_KEYWORD
                for p in inspect.signature(member).parameters.values())]
    assert offenders == []


def test_only_the_constructors_take_a_deployment():
    """Everything else says what it runs, not how it is provisioned."""
    takers = sorted(
        "{}({})".format(name, parameter)
        for name, member in inspect.getmembers(Warehouse, inspect.isroutine)
        if not name.startswith("_") or name == "__init__"
        for parameter in inspect.signature(member).parameters
        if parameter in ("config", "deployment"))
    assert takers == ["__init__(deployment)", "deploy(config)"]


def test_an_override_a_call_would_ignore_is_a_type_error():
    warehouse = Warehouse()
    with pytest.raises(TypeError, match="unexpected keyword"):
        warehouse.build_index("LU", shards=3)
    with pytest.raises(TypeError, match="unexpected keyword"):
        warehouse.run_workload([], None, autoscale="nonsense")


@pytest.mark.parametrize("field, value", [
    ("faults", "plan"),
    ("autoscale", "x"),
    ("admission", 3),
    ("spot", {"spot_fraction": 0.5}),
])
def test_a_policy_of_the_wrong_type_fails_naming_its_field(field, value):
    with pytest.raises(ConfigError,
                       match=r"DeploymentConfig\.{} must be".format(field)):
        Warehouse.deploy({field: value})
