"""Readers ask an index store for its contract, never probe it.

:class:`~repro.indexing.mapper.IndexStore` declares what every store
offers its readers as class-level defaults (``cache``,
``coalesce_reads``, ``verify_reads``, ``range_key_mode``,
``answer_memo``, ``epoch``, ``shard_tables``,
``create_physical_table``), and
:class:`~repro.indexing.lookup_plans.BaseLookup` declares what every
look-up offers its query worker (``store_cache``,
``query_resolution``).  A ``getattr``/``hasattr``/``setattr`` naming
one of them is a second copy of a decision the contract already made,
so this guard reads every module under ``src/`` with :mod:`ast` and
fails on any.
"""

import ast
from pathlib import Path

from repro.cloud import CloudProvider
from repro.indexing.mapper import SimpleDBIndexStore

SOURCE = Path(__file__).resolve().parents[1] / "src"
PROBES = {"getattr", "hasattr", "setattr"}
CONTRACT = {"cache", "answer_memo", "coalesce_reads", "verify_reads",
            "range_key_mode", "shard_tables", "epoch", "store_cache",
            "query_resolution", "create_physical_table"}


def test_no_probe_names_a_contract_attribute():
    found = []
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in PROBES and len(node.args) >= 2):
                continue
            name = node.args[1]
            if isinstance(name, ast.Constant) and name.value in CONTRACT:
                found.append("{}:{} {}(..., {!r})".format(
                    path.relative_to(SOURCE), node.lineno, node.func.id,
                    name.value))
    assert not found, found


def test_a_bare_backend_answers_with_the_defaults():
    store = SimpleDBIndexStore(CloudProvider().simpledb)
    assert (store.cache, store.coalesce_reads, store.verify_reads,
            store.range_key_mode, store.answer_memo, store.epoch) == \
        (None, False, False, "uuid", None, 0)
    assert store.shard_tables("idx") == ["idx"]
