from collections import Counter

import qlgraph as ql


def test_every_export_resolves_once():
    assert all(hasattr(ql, name) for name in ql.__all__)
    assert [n for n, k in Counter(ql.__all__).items() if k > 1] == []
