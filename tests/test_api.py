"""The public API: ``inertiq.__all__`` and the package's public names agree,
and every exception class the package defines is raised somewhere."""

import ast
import inspect
import types
from pathlib import Path

import inertiq
from inertiq import errors


class TestPublicApi:
    def test_every_listed_name_resolves(self):
        assert [name for name in inertiq.__all__ if not hasattr(inertiq, name)] == []

    def test_no_duplicates(self):
        assert len(set(inertiq.__all__)) == len(inertiq.__all__)

    def test_every_public_attribute_is_listed(self):
        public = {name for name, value in vars(inertiq).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert sorted(public - set(inertiq.__all__)) == []

    def test_star_import(self):
        namespace = {}
        exec("from inertiq import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(inertiq.__all__)


def _raised_names(tree: ast.AST) -> set[str]:
    """Names of what ``raise X`` and ``raise X(...)`` raise, ``mod.X`` included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


class TestErrors:
    def test_every_exception_class_is_raised(self):
        # InertiqError is the base the CLI catches; every other class must be
        # raised by some module other than errors.py, or it is dead code.
        defined = {name for name, obj in vars(errors).items()
                   if inspect.isclass(obj) and issubclass(obj, BaseException)
                   and obj.__module__ == errors.__name__ and obj is not errors.InertiqError}
        raised = set()
        for path in Path(inertiq.__file__).parent.glob("*.py"):
            if path.name != "errors.py":
                raised |= _raised_names(ast.parse(path.read_text(), filename=str(path)))
        assert sorted(defined - raised) == []
        assert "Divergence" in defined  # the scan found the module's classes
