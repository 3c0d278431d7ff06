"""The public API: ``inertiq.__all__`` and the package's public names agree,
every exception class the package defines is raised somewhere and caught by
name somewhere, the record types are named tuples, and the README's library
example runs and its calls bind."""

import ast
import importlib
import inspect
import re
import types
from pathlib import Path

import numpy as np
import pytest

import inertiq
from inertiq import errors
from inertiq.experiments import write_records_csv
from inertiq.optimizers import IterateRecord, run_rows
from inertiq.dynamics import TrajectoryRecord
from problem_helpers import seed_rows


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
README = Path(inertiq.__file__).parents[2] / "README.md"


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


def _records():
    """Records of each kind: ``run`` at d = 1, a two-seed ``run_rows`` block
    at d = 2, and ``integrate`` at d = 2."""
    basin = inertiq.builtin_problem("example52")
    stop = inertiq.StoppingRule(tol=None, max_iter=5)
    noise = inertiq.PerturbationSpec.gaussian(0.001, 0.01)
    cfg = inertiq.AlgorithmConfig("IAA", alpha=0.4, beta=0.15, s=0.125, perturb=noise)
    rows = list(run_rows(basin, seed_rows(cfg, (1, 2), [3.0, 3.0], stop)))
    return {
        "run": inertiq.run(inertiq.builtin_problem("example51"),
                           inertiq.AlgorithmConfig("HBM", alpha=0.7, beta=0.04), [3.0],
                           stop=stop).records,
        "run_rows": rows[0].records + rows[1].records,
        "integrate": inertiq.integrate(basin, 1.0, 0.1, inertiq.PerturbationSpec.none(),
                                       [3.0, 3.0], [0.0, 0.0], t_end=0.05, dt=0.01),
    }


class TestRecordTypes:
    KIND = {"run": IterateRecord, "run_rows": IterateRecord, "integrate": TrajectoryRecord}

    @pytest.mark.parametrize("source", sorted(KIND))
    def test_named_tuples(self, source):
        records = _records()[source]
        assert len(records) > 2
        assert all(type(rec) is self.KIND[source] for rec in records)
        assert isinstance(records[0], tuple)

    @pytest.mark.parametrize("source", sorted(KIND))
    def test_fields_cannot_be_assigned(self, source):
        rec = _records()[source][-1]
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, 0.0)
        assert rec._replace(energy=1.5).energy == 1.5 and rec.energy != 1.5

    def test_iterate_record_default(self):
        rec = IterateRecord(0, np.zeros(1), 1.0, 2.0, 3.0, 0.0, 4.0)
        assert rec.n_grad_evals == 0 and IterateRecord._field_defaults == {"n_grad_evals": 0}

    @pytest.mark.parametrize("source", sorted(KIND))
    def test_fields_are_the_csv_header(self, tmp_path, source):
        records = _records()[source]
        out = tmp_path / "records.csv"
        write_records_csv(out, records)
        header = out.read_text().splitlines()[0].split(",")
        dim = records[0].x.size
        expected = [col for name in records[0]._fields
                    for col in ([f"{name}{i}" for i in range(dim)]
                                if name in ("x", "v") and dim > 1 else [name])]
        assert header == expected

    def test_block_runs_own_their_arrays(self):
        # A block run's x are rows of one array that belongs to that run alone.
        records = _records()["run_rows"]
        first, second = records[:len(records) // 2], records[len(records) // 2:]
        assert [r.k for r in first] == [r.k for r in second] == list(range(6))
        for a in first:
            assert not any(np.shares_memory(a.x, b.x) for b in second)
        for i, a in enumerate(first):
            assert not any(np.shares_memory(a.x, b.x) for b in first[i + 1:])


class TestReadme:
    def test_library_quick_start_runs(self):
        readme = README.read_text()
        section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
        block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
        # The comment under rate_constants shows what the call returns: each
        # value in full, or its leading digits followed by "...".
        comment = next(line for line in block.splitlines() if line.startswith("# {'c'"))
        shown = dict(re.findall(r"'(\w+)': ([0-9.e+-]+)", comment))
        consts = {key: repr(value) for key, value in namespace["consts"].items()}
        assert list(shown) == list(consts)
        for key, value in shown.items():
            if value.endswith("..."):
                assert consts[key].startswith(value[:-3]), key
            else:
                assert consts[key] == value, key

    def test_inline_calls_bind(self):
        # Every inline `name(args)` whose name is one of the package's own
        # callables binds to its signature; a call that elides arguments with
        # `...` needs to bind only what it shows, and `name()` names the
        # function.
        text = re.sub(r"```.*?```", "", README.read_text(), flags=re.DOTALL)
        roots = [inertiq] + [importlib.import_module(f"inertiq.{path.stem}")
                             for path in PACKAGE if not path.stem.startswith("_")]
        checked = set()
        for span in re.findall(r"`([^`]+)`", text):
            try:
                call = ast.parse(span.replace("\n", " "), mode="eval").body
            except SyntaxError:
                continue
            if not isinstance(call, ast.Call) or not (call.args or call.keywords):
                continue
            name = ast.unparse(call.func).removeprefix("inertiq.").removeprefix("iq.")
            fn = next((obj for obj in (_lookup(root, name) for root in roots)
                       if getattr(obj, "__module__", "").startswith("inertiq")), None)
            try:
                signature = inspect.signature(fn)
            except (TypeError, ValueError):  # no callable of ours, or no signature
                continue
            elided = [isinstance(arg, ast.Constant) and arg.value is Ellipsis
                      for arg in call.args]
            shown = len(call.args) if not any(elided) else elided.index(True)
            keywords = {kw.arg: None for kw in call.keywords}
            bind = signature.bind_partial if any(elided) else signature.bind
            try:
                bind(*[None] * shown, **keywords)
            except TypeError as exc:
                raise AssertionError(f"README.md: `{span}` does not bind: {exc}") from None
            checked.add(name)
        assert {"run", "step_iaa", "optimizers.run_rows", "execute"} <= checked


def _lookup(root, dotted: str):
    """``root.a.b`` for ``dotted`` = "a.b", or None."""
    for part in dotted.split("."):
        root = getattr(root, part, None)
    return root
