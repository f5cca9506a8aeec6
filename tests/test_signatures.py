import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import semitotal

# Per-call limits.  Every other limit is the SEMITOTAL_BUDGET setting or a
# module constant, so only the two search entry points take any, and they
# take only a node budget: "deadline" is listed so that one added back fails.
KNOBS = {"budget", "deadline", "max_vars"}


def _public_functions():
    for info in pkgutil.iter_modules(semitotal.__path__):
        module = importlib.import_module(f"semitotal.{info.name}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if not name.startswith("_") and fn.__module__ == module.__name__:
                yield f"{info.name}.{name}", fn


def test_only_the_search_entry_points_take_limits():
    knobs = {
        (where, param)
        for where, fn in _public_functions()
        for param in inspect.signature(fn).parameters
        if param in KNOBS
    }
    assert knobs == {
        ("domination.solve", "budget"),
        ("domination.exists_within", "budget"),
    }


ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def _env_reads():
    """(module.function, key) for every reference to the process environment
    in the package: the key is the string constant read, or None when the
    reference is anything but a read of one constant key."""
    for path in sorted(Path(semitotal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                if any(alias.name in ENV_READERS for alias in node.names):
                    yield f"{path.stem}.<import>", None
                continue
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name not in ENV_READERS:
                continue
            up = parent[node]
            if isinstance(up, ast.Attribute) and up.attr == "get":  # environ.get(key)
                up = parent[up]
            key = None
            if isinstance(up, ast.Call) and up.args and isinstance(up.args[0], ast.Constant):
                key = up.args[0].value
            elif isinstance(up, ast.Subscript) and isinstance(up.slice, ast.Constant):
                key = up.slice.value
            where = [path.stem]
            while up in parent:
                up = parent[up]
                if isinstance(up, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    where.insert(1, up.name)
            yield ".".join(where), key


def test_one_environment_setting():
    # the node budget is the one limit a search takes from outside, so the
    # package reads one environment key, in one place
    assert set(_env_reads()) == {("domination.search_budget", "SEMITOTAL_BUDGET")}



def _traced_names():
    """The (module, attribute) keys of perfbench's TRACED table, read from
    its source so the benchmark's own imports are not needed."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED":
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("perfbench/run.py has no TRACED table")


def _defined_in(module: str, attr: str) -> bool:
    fn = getattr(importlib.import_module(f"semitotal.{module}"), attr, None)
    return callable(fn) and getattr(fn, "__module__", None) == f"semitotal.{module}"


def test_traced_names_are_package_functions():
    # `run.py --trace 1` wraps each of these by name; some are lru_cached
    missing = [
        f"{module}.{attr}" for module, attr in _traced_names() if not _defined_in(module, attr)
    ]
    assert not missing


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export; every other module uses what it imports
    unused = []
    for path in sorted(Path(semitotal.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used)]
    assert not unused


def test_every_private_top_level_name_is_used():
    # a refactor that stops calling a helper leaves it behind; a private
    # function, class or constant must be read by some other top-level
    # statement of the package
    defined, read_by = [], []
    for path in sorted(Path(semitotal.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            private = {n for n in names if n.startswith("_") and not n.startswith("__")}
            defined += [(f"{path.stem}.{name}", name, stmt) for name in sorted(private)]
            read_by.append((stmt, {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute)
            }))
    unused = [
        where for where, name, home in defined
        if not any(name in reads for stmt, reads in read_by if stmt is not home)
    ]
    assert not unused
