"""Only the query driver submits queries and collects their responses.

:class:`~repro.warehouse.driver.QueryDriver` is the one submit/collect
loop (paper §3: the front end posts a query on SQS and collects the
answer): ``run_workload`` and ``serve()`` both go through it.  A
``frontend.submit(`` or ``.await_response(`` call anywhere else under
``src/`` would be a second copy of that loop, and so would a query
fleet built outside the driver (``_query_fleet(``, which
``warehouse.py`` defines).  This guard reads every module with
:mod:`ast` and fails on one.  The tenant facade's single-call
``submit``/``poll`` API is the one allowed exception, by name.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src"
DRIVER = Path("repro/warehouse/driver.py")
#: (module, function qualname) pairs allowed to call the front end.
FRONT_END_ALLOWED = {(Path("repro/tenancy/facade.py"), "TenantFacade.submit"),
                     (Path("repro/tenancy/facade.py"), "TenantFacade.poll")}
FLEET_ALLOWED = {DRIVER, Path("repro/warehouse/warehouse.py")}


def _spelling(node):
    """The call's spelling if it is a guarded call, else None."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "await_response":
        return ".await_response("
    if func.attr == "_query_fleet":
        return "_query_fleet("
    owner = func.value
    if func.attr == "submit" and (
            (isinstance(owner, ast.Attribute) and owner.attr == "frontend")
            or (isinstance(owner, ast.Name) and owner.id == "frontend")):
        return "frontend.submit("
    return None


def _calls(tree):
    """``(enclosing qualname, call node)`` for every call in ``tree``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                found.append((".".join(scope), child))
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_the_driver_submits_collects_or_builds_a_query_fleet():
    found = []
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    for path in modules:
        relative = path.relative_to(SOURCE)
        if relative == DRIVER:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for scope, node in _calls(tree):
            spelling = _spelling(node)
            if spelling is None:
                continue
            if spelling == "_query_fleet(" and relative in FLEET_ALLOWED:
                continue
            if spelling != "_query_fleet(" \
                    and (relative, scope) in FRONT_END_ALLOWED:
                continue
            found.append("{}:{} {} in {}".format(relative, node.lineno,
                                                 spelling, scope))
    assert not found, found


def test_the_guard_sees_each_spelling():
    calls = ("self.frontend.submit(request)",
             "self._warehouse.frontend.submit(request)",
             "frontend.submit(request)",
             "warehouse.frontend.await_response()",
             "frontend.await_response()",
             "self._query_fleet('l', index, sink)",
             "warehouse._query_fleet('l', index, sink)")
    spelled = [_spelling(ast.parse(call, mode="eval").body)
               for call in calls]
    assert spelled == ["frontend.submit("] * 3 + [".await_response("] * 2 \
        + ["_query_fleet("] * 2
    for other in ("facade.submit(request)", "pool.submit(job)",
                  "fleet.launch(2)"):
        assert _spelling(ast.parse(other, mode="eval").body) is None


def test_the_guard_names_the_enclosing_function():
    tree = ast.parse("class TenantFacade:\n"
                     "    def poll(self):\n"
                     "        return self._warehouse.frontend"
                     ".await_response()\n")
    assert [(scope, _spelling(node)) for scope, node in _calls(tree)] == [
        ("TenantFacade.poll", ".await_response(")]
