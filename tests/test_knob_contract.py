"""Every settable value is one some caller turns.

A field of a deployment, serving, tenancy, traffic, compaction or retry
policy is a promise that the behaviour varies with it.  A field that
only its own validation reads steers nothing; a defaulted field that
nothing outside ``tests/`` sets by name is a constant spelled as an
option.  This guard reads the classes and their callers with
:mod:`ast` and fails on either, naming ``Class.field``.

A read is an attribute load anywhere under ``src/`` except the class's
own ``__post_init__``.  A set is a keyword argument, a string key of a
dict literal or a string subscript being assigned, anywhere under
``src/``, ``benchmarks/``, ``examples/`` or ``scripts/`` outside the
class itself: the deployment mapping spells its fields as keys.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
CALLERS = [ROOT / "src", ROOT / "benchmarks", ROOT / "examples",
           ROOT / "scripts"]

#: Module -> the value objects it defines that are checked (``None``:
#: every dataclass the module defines, so a policy added there is
#: covered without a change here).
POLICY_MODULES = {
    "repro/warehouse/deployment.py": ("DeploymentConfig",),
    "repro/serving/policy.py": None,
    "repro/tenancy/tenant.py": ("TenancyConfig", "TenantSpec"),
    "repro/serving/traffic.py": ("TrafficProfile",),
    "repro/mutations/compactor.py": ("CompactionPolicy",),
    "repro/resilience/retry.py": ("RetryPolicy",),
}


def _is_dataclass(node):
    return any("dataclass" in ast.dump(decorator)
               for decorator in node.decorator_list)


def _fields():
    """``(module path, class node, field, has default)`` per field."""
    found = []
    for relative, names in POLICY_MODULES.items():
        path = SOURCE / relative
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)
                    and (names is None or node.name in names)):
                continue
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(
                        statement.target, ast.Name):
                    found.append((path, node, statement.target.id,
                                  statement.value is not None))
    return found


def _modules(roots):
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                yield path, ast.parse(path.read_text(encoding="utf-8"),
                                      str(path))


def _set_names(node):
    """The field names ``node`` sets by name (keyword, key, subscript)."""
    if isinstance(node, ast.Call):
        return [keyword.arg for keyword in node.keywords if keyword.arg]
    if isinstance(node, ast.Dict):
        return [key.value for key in node.keys
                if isinstance(key, ast.Constant)
                and isinstance(key.value, str)]
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
        key = node.slice
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return [key.value]
    return []


def _index(roots, collect):
    """name -> [(path, line)] over every node ``collect`` names."""
    hits = {}
    for path, tree in _modules(roots):
        for node in ast.walk(tree):
            for name in collect(node):
                hits.setdefault(name, []).append((path, node.lineno))
    return hits


def _loads(node):
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return [node.attr]
    return []


def _within(hits, path, node):
    """The ``hits`` outside ``node`` (a class or method) of ``path``."""
    return [(where, line) for where, line in hits
            if not (where == path
                    and node.lineno <= line <= node.end_lineno)]


def _validation(cls):
    for statement in cls.body:
        if isinstance(statement, ast.FunctionDef) and \
                statement.name == "__post_init__":
            return statement
    return None


def _idle_knobs():
    reads = _index([SOURCE], _loads)
    sets = _index(CALLERS, _set_names)
    idle = []
    for path, cls, field, defaulted in _fields():
        read = reads.get(field, [])
        validation = _validation(cls)
        if validation is not None:
            read = _within(read, path, validation)
        if not read:
            idle.append("{}.{} (read only by its validation)".format(
                cls.name, field))
        elif defaulted and not _within(sets.get(field, []), path, cls):
            idle.append("{}.{} (set by no caller)".format(cls.name, field))
    return idle


def test_every_policy_field_is_read_and_set_by_a_caller():
    assert len(_fields()) > 30
    assert _idle_knobs() == []


def _node(code):
    """The assignment target, or the expression, of one statement."""
    statement = ast.parse(code).body[0]
    if isinstance(statement, ast.Assign):
        return statement.targets[0]
    return statement.value


def test_the_guard_sees_each_spelling():
    spelled = [_set_names(_node(code))
               for code in ("AutoscalePolicy(min_workers=2)",
                            "{'failover': True}",
                            "deployment['tenancy'] = None",
                            "config['shards']")]
    assert spelled == [["min_workers"], ["failover"], ["tenancy"], []]
    assert _loads(_node("policy.drain")) == ["drain"]
    assert _loads(_node("policy.drain = True")) == []
