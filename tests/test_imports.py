import ast
import importlib
import sys
from pathlib import Path

import hifbench

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "hifbench"}


def test_runtime_imports_only_the_standard_library_and_numpy():
    """The package runs on numpy alone: every import is stdlib, numpy or the package."""
    foreign = []
    for path in sorted(Path(hifbench.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert not foreign


def test_every_name_perfbench_traces_resolves():
    """perfbench/spans.py wraps hifbench functions by (module, attribute)
    name; a name that no longer resolves would make its metrics read 0
    without an error."""
    spans = Path(__file__).parents[1] / "perfbench" / "spans.py"
    lists = {node.targets[0].id: ast.literal_eval(node.value)
             for node in ast.parse(spans.read_text(), str(spans)).body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in ("TRACED", "TRACED_METHODS")}
    assert lists["TRACED"] and lists["TRACED_METHODS"]
    missing = [f"{module}.{attr}" for module, attr, _ in lists["TRACED"]
               if not callable(getattr(importlib.import_module(f"hifbench.{module}"), attr, None))]
    for module, cls, attr, _ in lists["TRACED_METHODS"]:
        owner = getattr(importlib.import_module(f"hifbench.{module}"), cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module}.{cls}.{attr}")
    assert not missing
