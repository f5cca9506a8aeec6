import importlib
import inspect
import pkgutil

import semitotal

# Per-call limits.  Every other limit is the SEMITOTAL_BUDGET setting or a
# module constant, so only the two search entry points take any.
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
        ("domination.solve", "deadline"),
        ("domination.exists_within", "budget"),
        ("domination.exists_within", "deadline"),
    }

