"""Only the fleet runs a fleet's lifecycle.

:class:`~repro.warehouse.fleet.Fleet` is the one place that rents an
instance, crashes or stops one, and tells a worker to stop: builds,
delta publications, workloads and serving all go through it.  A direct
``ec2.launch(``/``ec2.crash(``/``ec2.stop(`` call or a ``StopWorker()``
pill anywhere else under ``src/`` would be a second copy of that
lifecycle, so this guard reads every module with :mod:`ast` and fails
on one.  Spot reclaim may also act on an instance directly.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src"
ALLOWED = {Path("repro/warehouse/fleet.py"), Path("repro/serving/spot.py")}
EC2_CALLS = {"launch", "crash", "stop"}


def _lifecycle_call(node):
    """The call's spelling if it is a fleet-lifecycle call, else None."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "StopWorker":
        return "StopWorker()"
    if not (isinstance(func, ast.Attribute) and func.attr in EC2_CALLS):
        return None
    owner = func.value
    if (isinstance(owner, ast.Attribute) and owner.attr == "ec2") or (
            isinstance(owner, ast.Name) and owner.id == "ec2"):
        return "ec2.{}(".format(func.attr)
    return None


def test_only_the_fleet_launches_crashes_stops_or_pills_workers():
    found = []
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    for path in modules:
        relative = path.relative_to(SOURCE)
        if relative in ALLOWED:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                spelling = _lifecycle_call(node)
                if spelling is not None:
                    found.append("{}:{} {}".format(relative, node.lineno,
                                                   spelling))
    assert not found, found


def test_the_guard_sees_each_spelling():
    calls = ("cloud.ec2.launch('l')", "self._cloud.ec2.crash(instance)",
             "ec2.stop(instance)", "StopWorker()")
    spelled = [_lifecycle_call(ast.parse(call, mode="eval").body)
               for call in calls]
    assert spelled == ["ec2.launch(", "ec2.crash(", "ec2.stop(",
                       "StopWorker()"]
    assert _lifecycle_call(ast.parse("fleet.launch(2)", mode="eval").body) \
        is None
