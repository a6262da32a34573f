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

The same holds one level down (the method rule below): a defaulted
parameter of a public function or method is passed by some caller
outside ``tests/``, or it is a constant, reported as ``Callable(param)``.
Run as a script, this module prints the count of settable values.
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


# -- the method rule ------------------------------------------------------
#
# A call says what it runs; the deployment says how it is provisioned.
# A defaulted parameter of a public function or method under ``src/``
# is a knob too, so the same rule holds: some caller outside ``tests/``
# passes it — by keyword, by position, or through a ``*``/``**``
# forward, which may carry any of them.  A call is matched to a
# callable by its bare name (``f(...)``, ``x.f(...)``); a constructor
# also by ``cls(...)`` and by a subclass's ``super().__init__(...)``.
# Calls from inside the callable itself do not count.

#: ``Callable(param)`` -> why only tests turn it.
SEAMS = dict.fromkeys(
    ["make_twig_join(validate)", "block_stack_tree_join(validate)",
     "block_stack_tree_join(parent_child)",
     "block_semi_join_descendants(validate)",
     "block_semi_join_descendants(parent_child)",
     "block_semi_join_descendants(stats)",
     "block_semi_join_ancestors(validate)",
     "block_semi_join_ancestors(parent_child)",
     "block_semi_join_ancestors(stats)"],
    "the columnar kernels' seams: the property suite turns on the input "
    "check, the parent/child axis and the pair counter")
SEAMS.update(dict.fromkeys(
    ["MetricsRegistry.gauge(labelnames)",
     "MetricsRegistry.histogram(help_text)",
     "MetricsRegistry.histogram(labelnames)",
     "MetricsRegistry.histogram(buckets)", "Histogram(buckets)"],
    "the registry's declaration API: no metric under src/ is a labelled "
    "gauge or a histogram yet, so only its tests declare one"))


def _defaulted(function):
    """``(name, position or None)`` per defaulted parameter."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(arg.arg, index) for index, arg in enumerate(positional)
             if index >= first]
    found += [(arg.arg, None)
              for arg, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    return [(name, index) for name, index in found
            if not name.startswith("_")]


def _callables():
    """``(path, node, spelling, call name, bound, parameters)`` per
    public function or method with a defaulted parameter."""
    found = []

    def visit(path, node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if not child.name.startswith("_"):
                    visit(path, child, child)
            elif isinstance(child, ast.FunctionDef):
                if cls is not None and child.name == "__init__":
                    spelling = called = cls.name
                elif child.name.startswith("_"):
                    continue
                else:
                    called = child.name
                    spelling = (child.name if cls is None
                                else cls.name + "." + child.name)
                bound = cls is not None and not any(
                    isinstance(decorator, ast.Name)
                    and decorator.id == "staticmethod"
                    for decorator in child.decorator_list)
                parameters = _defaulted(child)
                if parameters:
                    found.append((path, child, spelling, called, bound,
                                  parameters))

    for path in sorted(SOURCE.rglob("*.py")):
        visit(path, ast.parse(path.read_text(encoding="utf-8"), str(path)),
              None)
    return found


def _called_names(node, cls=None, bases=(), aliases=None):
    """The callable names a call node inside class ``cls`` (with
    ``bases``) may reach; ``aliases`` maps an imported ``as`` name back.
    A ``cls(...)`` outside a class may build any class: ``"*"``."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "cls":
            return [cls or "*"]
        return [(aliases or {}).get(func.id, func.id)]
    if isinstance(func, ast.Attribute):
        if func.attr == "__init__":
            return list(bases)
        return [func.attr]
    return []


def _passed(call, parameters, bound):
    """The names among ``parameters`` that ``call`` passes."""
    if any(keyword.arg is None for keyword in call.keywords) or any(
            isinstance(arg, ast.Starred) for arg in call.args):
        return {name for name, _ in parameters}
    reach = len(call.args) + (1 if bound else 0)
    return ({keyword.arg for keyword in call.keywords}
            | {name for name, index in parameters
               if index is not None and index < reach})


def _calls():
    """call name -> [(path, call node)] outside ``tests/``."""
    calls = {}
    for path, tree in _modules(CALLERS):
        aliases = {alias.asname: alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for alias in node.names if alias.asname}

        def visit(node, cls, bases):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Call):
                    for name in _called_names(child, cls, bases, aliases):
                        calls.setdefault(name, []).append((path, child))
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name,
                          [base.id for base in child.bases
                           if isinstance(base, ast.Name)])
                else:
                    visit(child, cls, bases)
        visit(tree, None, [])
    return calls


def _idle_parameters():
    """``Callable(param)`` per defaulted public parameter no caller
    outside ``tests/`` passes."""
    calls = _calls()
    idle = []
    for path, function, spelling, called, bound, parameters in _callables():
        passed = set()
        constructs = spelling == called and bound
        for where, call in calls.get(called, []) + (
                calls.get("*", []) if constructs else []):
            if not (where == path and function.lineno <= call.lineno
                    <= function.end_lineno):
                passed |= _passed(call, parameters, bound)
        idle += ["{}({})".format(spelling, name) for name, _ in parameters
                 if name not in passed]
    return idle


def settable_values():
    """Every value a caller may set: defaulted public parameters plus
    defaulted policy fields (the number CI tracks)."""
    return (sum(len(parameters) for *_, parameters in _callables())
            + sum(defaulted for *_, defaulted in _fields()))


def test_every_defaulted_parameter_is_passed_by_a_caller():
    assert len(_callables()) > 100
    idle = _idle_parameters()
    assert sorted(set(SEAMS) - set(idle)) == [], "stale seams"
    assert [name for name in idle if name not in SEAMS] == []


def _call(code):
    return ast.parse(code, mode="eval").body


def test_the_method_guard_sees_each_spelling():
    function = ast.parse("def f(self, a, b=1, *, c=2): pass").body[0]
    parameters = _defaulted(function)
    assert parameters == [("b", 2), ("c", None)]
    assert _passed(_call("x.f(1, c=3)"), parameters, True) == {"c"}
    assert _passed(_call("x.f(1, 2)"), parameters, True) == {"b"}
    assert _passed(_call("x.f(*args)"), parameters, True) == {"b", "c"}
    assert _passed(_call("x.f(1, **options)"), parameters, True) == \
        {"b", "c"}
    assert _passed(_call("x.f(1)"), parameters, True) == set()
    assert _called_names(_call("super().__init__(a)"), "Leaf",
                         ["Base"]) == ["Base"]
    assert _called_names(_call("cls(a)"), "Leaf") == ["Leaf"]
    assert _called_names(_call("cls(a)")) == ["*"]
    assert _called_names(_call("by_name(a)"), aliases={"by_name": "f"}) \
        == ["f"]


if __name__ == "__main__":
    print(settable_values())
