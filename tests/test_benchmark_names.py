"""The forcebench names that the benchmark harness in ``perfbench/`` uses.

The harness traces the functions named in ``perfbench/tracing.py``'s
``TRACED`` and imports names from ``forcebench`` in
``perfbench/workloads.py``, whose calls of those names fix their
signatures too.  Both files are read here as source, not imported, so a
name or parameter the library drops or renames shows up in milliseconds
rather than as an error in a traced benchmark run.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WHY = ("perfbench/ uses these names, and it changes only with the benchmark (ROADMAP"
       " item 6): a name it uses may be dropped or renamed only in that change")


def traced_names():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    (traced,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TRACED" for t in node.targets)]
    return [(f"forcebench.{layer}", name)
            for layer, names in ast.literal_eval(traced).items() for name in names]


def imported_names():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "forcebench" for alias in node.names]


def test_every_name_the_harness_uses_resolves():
    traced, imported = traced_names(), imported_names()
    assert traced and imported  # the parse found them
    missing = sorted({f"{module}.{name}" for module, name in traced + imported
                      if not hasattr(importlib.import_module(module), name)})
    assert not missing, f"missing {', '.join(missing)}; {WHY}"


def test_every_call_the_harness_makes_binds():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    imported = {alias.asname or alias.name: getattr(importlib.import_module(node.module),
                                                    alias.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module and node.module.split(".")[0] == "forcebench"
                for alias in node.names}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) in imported
             and all(k.arg for k in node.keywords)  # skip ** and * calls
             and not any(isinstance(a, ast.Starred) for a in node.args)]
    assert {"FleetParams", "run_static", "specimen_rngs"} <= {c.func.id for c in calls}
    unbound = []
    for call in calls:
        try:
            inspect.signature(imported[call.func.id]).bind(
                *call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {ast.unparse(call)}: {exc}")
    assert not unbound, f"{'; '.join(unbound)}; {WHY}"
