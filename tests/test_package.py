import re
from collections import Counter
from pathlib import Path

import qlgraph as ql


def test_every_export_resolves_once():
    assert all(hasattr(ql, name) for name in ql.__all__)
    assert [n for n, k in Counter(ql.__all__).items() if k > 1] == []


def test_readme_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(tour, "README.md", "exec"), {})
