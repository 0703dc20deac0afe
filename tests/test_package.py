import ast
import builtins
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qlgraph as ql

import oracles

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves_once():
    assert all(hasattr(ql, name) for name in ql.__all__)
    assert [n for n, k in Counter(ql.__all__).items() if k > 1] == []


def test_every_module_has_a_docstring():
    names = ["qlgraph", *(f"qlgraph.{info.name}" for info in pkgutil.iter_modules(ql.__path__))]
    missing = [name for name in names if not (importlib.import_module(name).__doc__ or "").strip()]
    assert names[1:] and missing == []


def test_readme_tour_runs():
    readme = README.read_text(encoding="utf-8")
    tour = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(tour, "README.md", "exec"), {})


def test_readme_calls_only_names_that_exist():
    # Every `name(` in an inline code span names an attribute of a qlgraph
    # module or of one of its classes, or of numpy, numpy.random,
    # numpy.linalg, sys or builtins: the README names no deleted code.
    modules = {info.name: importlib.import_module(f"qlgraph.{info.name}")
               for info in pkgutil.iter_modules(ql.__path__)}
    classes = [v for m in modules.values() for v in vars(m).values() if inspect.isclass(v)]
    spaces = [np, np.random, np.linalg, *modules.values(), *classes]
    known = {name for space in [*spaces, sys, builtins] for name in dir(space)}
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    # A span opens and closes with backtick runs of one length.
    spans = [s for _, s in re.findall(r"(?<!`)(`+)(?!`)(.+?)(?<!`)\1(?!`)", prose, re.S)]
    called = {name for span in spans for name in re.findall(r"(\w+)\(", span)}
    assert called and sorted(called - known) == []
    # Every span that is a CamelCase name or a dotted path resolves, attribute
    # by attribute, from qlgraph's modules and classes, tests/oracles, numpy,
    # numpy.random or numpy.linalg. A dataclass field ends a path.
    roots = {"qlgraph": ql, "numpy": np, "np": np, "oracles": oracles, **modules}
    spaces.append(oracles)

    def resolves(path):
        head, *rest = path.split(".")
        owner = roots.get(head) or next((getattr(s, head) for s in spaces if hasattr(s, head)),
                                        None)
        for i, name in enumerate(rest):
            if not hasattr(owner, name):
                return i == len(rest) - 1 and name in getattr(owner, "__dataclass_fields__", {})
            owner = getattr(owner, name)
        return owner is not None

    named = {span for span in spans
             if re.fullmatch(r"[A-Z]\w*[a-z]\w*|[A-Za-z_]\w*(\.\w+)+", span)}
    assert len(named) >= 40 and sorted(p for p in named if not resolves(p)) == []
    # Every span that is an identifier with an underscore is an attribute of
    # those spaces, a dataclass field or a parameter of one of their functions.
    owners = [*spaces, *(v for v in vars(oracles).values() if inspect.isclass(v))]
    names = {name for owner in owners for name in dir(owner)}
    for value in (v for owner in owners for v in vars(owner).values()):
        names |= set(getattr(value, "__dataclass_fields__", {}))
        if inspect.isfunction(value):
            names |= set(inspect.signature(value).parameters)
    snake = {span for span in spans if re.fullmatch(r"[A-Za-z_]\w*", span) and "_" in span}
    assert len(snake) >= 50 and sorted(snake - names) == []


def test_readme_schema_table_lists_every_descriptor_field_in_order():
    readme = README.read_text(encoding="utf-8")
    section = readme.split("### Descriptor schema\n", 1)[1]
    table = re.search(r"^\|.*?(?=^[^|])", section, re.S | re.M).group(0)
    listed = re.findall(r"^\| `(\w+)`", table, re.M)
    assert listed == [f.name for f in dataclasses.fields(ql.ExperimentDescriptor)]


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random loads on the first draw, not on import: every CLI run pays
    # its import time before the first sample, and perfbench's setup_s holds it.
    code = ("import sys, numpy; alone = 'numpy.random' in sys.modules; import qlgraph.cli; "
            "print(alone, 'numpy.random' in sys.modules)")
    src = str(Path(ql.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    alone, with_cli = done.stdout.split()
    if alone == "True":
        pytest.skip("this numpy imports numpy.random itself")
    assert with_cli == "False"


def test_every_module_parses_as_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10: every module's syntax
    # must parse with the 3.10 grammar, whatever interpreter runs the tests.
    pyproject = (README.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=3.10"' in pyproject
    sources = sorted(Path(ql.__file__).parent.rglob("*.py"))
    for source in sources:
        ast.parse(source.read_text(encoding="utf-8"), str(source), feature_version=(3, 10))
    assert len(sources) > 1


def test_oracles_reach_no_private_qlgraph_name():
    # An oracle or a shared test helper that imports a private helper of the
    # package, or reaches one by attribute (ql.graphs._pairing_attempt), holds
    # the package to itself.
    for module in ("oracles.py", "conftest.py"):
        tree = ast.parse(Path(oracles.__file__).with_name(module).read_text(encoding="utf-8"))
        names, bound = [], set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (f"{node.module}.{alias.name}" if isinstance(node, ast.ImportFrom)
                            else alias.name)
                    if name.split(".")[0] == "qlgraph":
                        names.append(name)
                        bound.add(alias.asname or alias.name.split(".")[0])
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                path, root = [node.attr], node.value
                while isinstance(root, ast.Attribute):
                    path, root = [root.attr] + path, root.value
                if isinstance(root, ast.Name) and root.id in bound:
                    names.append(".".join([root.id] + path))
        private = [name for name in names
                   if any(part.startswith("_") for part in name.split("."))]
        assert bound and private == [], module


def test_every_import_of_the_package_is_read():
    # No linter runs here: an import the module never reads again, such as one
    # left behind by a deletion, fails instead. An import marked
    # "# noqa: F401" on its line is exempt, and a name listed in __all__ is read.
    unused = []
    for source in sorted(Path(ql.__file__).parent.glob("*.py")):
        text = source.read_text(encoding="utf-8")
        lines, tree = text.splitlines(), ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                                 for t in node.targets] == ["__all__"]:
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                        unused.append(f"{source.name}:{alias.lineno} {name}")
    assert unused == []
