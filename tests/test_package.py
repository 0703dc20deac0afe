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

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves_once():
    assert all(hasattr(ql, name) for name in ql.__all__)
    assert [n for n, k in Counter(ql.__all__).items() if k > 1] == []


def test_readme_tour_runs():
    readme = README.read_text(encoding="utf-8")
    tour = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(tour, "README.md", "exec"), {})


def test_readme_calls_only_names_that_exist():
    # Every `name(` in an inline code span names an attribute of a qlgraph
    # module or of one of its classes, or of numpy, numpy.random,
    # numpy.linalg, sys or builtins: the README names no deleted code.
    spaces = [np, np.random, np.linalg, sys, builtins]
    for info in pkgutil.iter_modules(ql.__path__):
        module = importlib.import_module(f"qlgraph.{info.name}")
        spaces += [module, *(v for v in vars(module).values() if inspect.isclass(v))]
    known = {name for space in spaces for name in dir(space)}
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    called = {name for span in re.findall(r"`([^`]+)`", prose)
              for name in re.findall(r"(\w+)\(", span)}
    assert called and sorted(called - known) == []


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
