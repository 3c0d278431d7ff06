"""The public API: ``inertiq.__all__`` and the package's public names agree,
and every exception class the package defines is raised somewhere and
caught by name somewhere."""

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


def _names(expr: ast.AST) -> set[str]:
    """Class names in ``X``, ``mod.X``, ``X(...)`` and ``(X, Y)``."""
    if isinstance(expr, ast.Tuple):
        return set().union(*map(_names, expr.elts))
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Name):
        return {expr.id}
    return {expr.attr} if isinstance(expr, ast.Attribute) else set()


def _scan(paths, kind: type, field: str) -> set[str]:
    """Names in the ``field`` expression of every ``kind`` node in ``paths``."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, kind) and getattr(node, field) is not None:
                found |= _names(getattr(node, field))
    return found


PACKAGE = sorted(Path(inertiq.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(inertiq.__file__).parents[2] / "perfbench").glob("*.py"))


def _error_classes() -> set[str]:
    return {name for name, obj in vars(errors).items()
            if inspect.isclass(obj) and issubclass(obj, BaseException)
            and obj.__module__ == errors.__name__}


class TestErrors:
    def test_every_exception_class_is_raised(self):
        # InertiqError is the base the CLI catches; every other class must be
        # raised by some module other than errors.py, or it is dead code.
        defined = _error_classes() - {"InertiqError"}
        raised = _scan([p for p in PACKAGE if p.name != "errors.py"], ast.Raise, "exc")
        assert sorted(defined - raised) == []
        assert "Divergence" in defined  # the scan found the module's classes

    def test_every_exception_class_is_caught(self):
        # A class no caller catches by name adds nothing to ValueError or to
        # the InertiqError base, which cli.main catches.
        caught = _scan(PACKAGE + PERFBENCH, ast.ExceptHandler, "type")
        assert sorted(_error_classes() - caught) == []
        assert "InertiqError" in caught and "Divergence" in caught  # the scan saw cli and perfbench
