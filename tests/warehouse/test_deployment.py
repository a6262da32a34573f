"""Deployment API: one spelling per job.

Fleet shapes, store layout and queue leases reach the warehouse through
:class:`DeploymentConfig` (``deployment=`` / ``config=``) and nothing
else: the per-method keyword spellings are gone, so a stray keyword is
an ordinary ``TypeError``.
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
