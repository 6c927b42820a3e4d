import ast
import builtins
import importlib
import pkgutil
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


def test_every_imported_name_is_read():
    """Each name that an import binds in a package module is read in that
    module as a plain name; __future__ imports bind none.  An import that
    nothing reads still runs, and misstates what the module depends on."""
    unread = []
    for path in sorted(Path(hifbench.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unread += [f"{path.name}: {name}" for name in bound if name not in read]
    assert unread == []


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


def test_every_error_class_the_package_defines_maps_to_an_exit_code():
    """cli.main turns each exception it catches around a command into an exit
    code and one error line; a class that none of those except clauses names,
    nor a base of it, would leave main as a traceback with exit 1."""
    from hifbench import cli

    main = next(node for node in ast.parse(Path(cli.__file__).read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    run = next(node for node in ast.walk(main) if isinstance(node, ast.Try)
               and "args.func(args)" in ast.unparse(ast.Module(node.body, [])))
    names = {**vars(builtins), **vars(cli)}
    caught = tuple(names[t.id] for h in run.handlers
                   for t in (h.type.elts if isinstance(h.type, ast.Tuple) else [h.type]))
    defined = [obj for info in pkgutil.iter_modules(hifbench.__path__)
               for module in [importlib.import_module(f"hifbench.{info.name}")]
               for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, Exception)
               and obj.__module__ == module.__name__]
    assert defined
    assert [cls.__qualname__ for cls in defined if not issubclass(cls, caught)] == []
