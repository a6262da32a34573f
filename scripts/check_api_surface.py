#!/usr/bin/env python
"""Snapshot and check the ``repro`` package's public API surface.

The surface is every public module under ``repro`` with its public
top-level names: functions (parameter names), classes (public methods
and their parameter names) and constants.  The checked-in snapshot
(``scripts/api_surface.json``) is the declared API; this script fails
when the importable surface *breaks* it — a module, name, method or
parameter that existed in the snapshot has disappeared or changed
shape.  Additions never fail: new API is backwards-compatible and is
declared by regenerating the snapshot.

A module that declares ``__all__`` exposes exactly those names; one
that does not exposes the functions and classes it *defines* (names it
merely imports belong to the module that defines them) plus its
upper-case constants.

Usage::

    python scripts/check_api_surface.py           # check, exit 1 on breaks
    python scripts/check_api_surface.py --update  # regenerate the snapshot

The test suite runs the check, so an undeclared break fails tier-1.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import os
import pkgutil
import sys
from typing import Any, Dict, List, Optional

SNAPSHOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "api_surface.json")

CONSTANT_TYPES = (bool, int, float, str, bytes, tuple, frozenset)


def _parameters(obj: Any) -> Optional[List[str]]:
    """Parameter names (with ``*``/``**`` markers), or None if opaque."""
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return None
    names: List[str] = []
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            names.append("*" + parameter.name)
        elif parameter.kind is inspect.Parameter.VAR_KEYWORD:
            names.append("**" + parameter.name)
        else:
            names.append(parameter.name)
    return names


def _class_surface(cls: type) -> Dict[str, Any]:
    methods: Dict[str, Any] = {}
    for name, member in sorted(vars(cls).items()):
        if name.startswith("_") and name != "__init__":
            continue
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        if inspect.isfunction(member):
            methods[name] = _parameters(member)
        elif isinstance(member, property):
            methods[name] = "property"
    return {"kind": "class", "methods": methods}


def _module_surface(module: Any) -> Dict[str, Any]:
    declared = getattr(module, "__all__", None)
    names = declared if declared is not None else sorted(vars(module))
    surface: Dict[str, Any] = {}
    for name in sorted(set(names)):
        if name.startswith("_"):
            continue
        obj = getattr(module, name, None)
        if inspect.ismodule(obj):
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if declared is None and obj.__module__ != module.__name__:
                continue
            surface[name] = (_class_surface(obj) if inspect.isclass(obj)
                             else {"kind": "function",
                                   "parameters": _parameters(obj)})
        elif isinstance(obj, CONSTANT_TYPES):
            if declared is None and not name.isupper():
                continue
            surface[name] = {"kind": "constant"}
    return surface


def collect_surface() -> Dict[str, Any]:
    """The full public surface, keyed by module name."""
    import repro
    modules: Dict[str, Any] = {"repro": repro}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")):
            continue
        modules[info.name] = importlib.import_module(info.name)
    return {name: _module_surface(module)
            for name, module in sorted(modules.items())}


def _method_breaks(module: str, name: str, old: Dict[str, Any],
                   new: Dict[str, Any]) -> List[str]:
    breaks: List[str] = []
    for method, old_params in old.get("methods", {}).items():
        new_methods = new.get("methods", {})
        if method not in new_methods:
            breaks.append("{}.{}.{} removed".format(module, name, method))
        elif old_params is not None \
                and new_methods[method] != old_params:
            breaks.append("{}.{}.{} parameters changed: {} -> {}".format(
                module, name, method, old_params, new_methods[method]))
    return breaks


def find_breaks(snapshot: Dict[str, Any],
                current: Dict[str, Any]) -> List[str]:
    """Everything in the snapshot that current code no longer honours."""
    breaks: List[str] = []
    for module, names in sorted(snapshot.items()):
        if module not in current:
            breaks.append("module {} removed".format(module))
            continue
        for name, old in sorted(names.items()):
            new = current[module].get(name)
            if new is None:
                breaks.append("{}.{} removed".format(module, name))
                continue
            if new["kind"] != old["kind"]:
                breaks.append("{}.{} changed kind: {} -> {}".format(
                    module, name, old["kind"], new["kind"]))
                continue
            if old["kind"] == "function" \
                    and old.get("parameters") is not None \
                    and new.get("parameters") != old["parameters"]:
                breaks.append("{}.{} parameters changed: {} -> {}".format(
                    module, name, old["parameters"], new["parameters"]))
            elif old["kind"] == "class":
                breaks.extend(_method_breaks(module, name, old, new))
    return breaks


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="regenerate the snapshot from current code")
    parser.add_argument("--snapshot", default=SNAPSHOT,
                        help="snapshot path (default: scripts/api_surface.json)")
    args = parser.parse_args(argv)

    current = collect_surface()
    if args.update:
        with open(args.snapshot, "w", encoding="utf-8") as handle:
            json.dump(current, handle, indent=1, sort_keys=True)
            handle.write("\n")
        total = sum(len(names) for names in current.values())
        print("snapshot updated: {} modules, {} names".format(
            len(current), total))
        return 0

    if not os.path.exists(args.snapshot):
        print("no snapshot at {}; run with --update first".format(
            args.snapshot))
        return 2
    with open(args.snapshot, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    breaks = find_breaks(snapshot, current)
    if breaks:
        print("undeclared API breaks ({}):".format(len(breaks)))
        for entry in breaks:
            print("  " + entry)
        print("declare intentional changes with --update")
        return 1
    print("API surface OK ({} modules)".format(len(current)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
