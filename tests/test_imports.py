import ast
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
