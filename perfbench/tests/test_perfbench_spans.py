"""Percentiles, self-time subtraction and patching, on synthetic spans."""

import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from spans import (Span, Tracer, percentile, self_time_tree,  # noqa: E402
                   self_times)


def _spans(rows):
    """rows: (name, start, end, parent) -> indexed Span list."""
    return [Span(name, start, end, parent, i)
            for i, (name, start, end, parent) in enumerate(rows)]


def test_percentile_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([4, 1, 3, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)


def test_self_time_subtracts_children():
    spans = _spans([
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 6.0, 0),
        ("a.x", 1.5, 2.5, 1),
    ])
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_parallel_children_are_not_subtracted_twice():
    # Two children that ran at once on pool threads cover [1, 5] only.
    spans = _spans([
        ("solve_many", 0.0, 6.0, -1),
        ("search", 1.0, 4.0, 0),
        ("search", 2.0, 5.0, 0),
    ])
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_tree_has_unattributed_row_per_root():
    spans = _spans([
        ("grid.pass", 0.0, 10.0, -1),
        ("lp", 0.0, 3.0, 0),
        ("lp", 3.0, 7.0, 0),
        ("render", 7.0, 8.0, 0),
    ])
    rows = {row.path: row for row in self_time_tree(spans)}
    un = rows[("grid.pass", "unattributed")]
    assert un.total == pytest.approx(2.0)
    lp = rows[("grid.pass", "lp")]
    assert (lp.count, lp.total, lp.self_time) == (2, pytest.approx(7.0),
                                                  pytest.approx(7.0))
    assert rows[("grid.pass",)].self_time == pytest.approx(2.0)
    order = [row.path for row in self_time_tree(spans)]
    assert order[0] == ("grid.pass",)
    assert order[1] == ("grid.pass", "lp")  # children by total, descending


def test_patch_function_covers_aliases_and_restores():
    mod = types.ModuleType("repro._perfbench_probe")
    alias = types.ModuleType("repro._perfbench_alias")

    def work(x):
        return x + 1

    mod.work = work
    alias.work = work  # as if imported with "from ... import work"
    sys.modules[mod.__name__] = mod
    sys.modules[alias.__name__] = alias
    try:
        tracer = Tracer()
        tracer.patch_function(mod.__name__, "work", "layer.work")
        with tracer.span("root"):
            assert mod.work(1) == 2
            assert alias.work(2) == 3
        tracer.restore()
        assert mod.work is work and alias.work is work
    finally:
        del sys.modules[mod.__name__], sys.modules[alias.__name__]
    names = [(sp.name, sp.parent) for sp in tracer.spans]
    assert names == [("root", -1), ("layer.work", 0), ("layer.work", 0)]


def test_patch_attr_on_class_and_instance():
    class Backend:
        def scan(self, n):
            return n * 2

    obj = Backend()
    tracer = Tracer()
    tracer.patch_attr(obj, "scan", "kernels.scan")
    tracer.patch_attr(Backend, "scan", "class.scan")
    assert obj.scan(2) == 4
    assert Backend().scan(3) == 6
    tracer.restore()
    assert "scan" not in vars(obj)
    assert [sp.name for sp in tracer.spans] == ["kernels.scan", "class.scan"]
