"""The package imports on its declared Python floor.

``pyproject.toml`` declares ``requires-python = ">=3.9"``, and the
``dataclass`` keywords ``slots``, ``kw_only`` and ``match_args`` only
exist from 3.10: a class declared with one raises ``TypeError`` when
its module is imported on 3.9.  This guard reads every module under
``src/`` with :mod:`ast`, so it fails on any interpreter.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src"
NEWER_KEYWORDS = {"slots", "kw_only", "match_args"}


def _dataclass_calls(tree):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name == "dataclass":
            yield node


def test_no_dataclass_keyword_newer_than_the_floor():
    found = []
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for call in _dataclass_calls(tree):
            newer = sorted(NEWER_KEYWORDS.intersection(
                keyword.arg for keyword in call.keywords))
            if newer:
                found.append("{}:{} dataclass({})".format(
                    path.relative_to(SOURCE), call.lineno,
                    ", ".join(newer)))
    assert not found, found
