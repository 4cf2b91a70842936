"""Binomial rows are values: each call builds the rows it reads once, and
no call keeps them after it returns."""

import importlib
import pkgutil
import tracemalloc
from collections import Counter

import symbalance
import symbalance.conjectures as conjectures
import symbalance.exactnum as exactnum
from symbalance.cli import main
from symbalance.conjectures import scan_conjecture2
from symbalance.symfun import is_balanced_elem, weight_elem


def _count_rows(monkeypatch, module):
    built = Counter()
    original = exactnum.pascal_row

    def counting(n):
        built[n] += 1
        return original(n)

    monkeypatch.setattr(module, "pascal_row", counting)
    return built


def test_row_queries_keep_no_memory():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(4089, 4097):
            weight_elem(15, n)
            is_balanced_elem(2, n)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


def test_only_cache_is_the_class_enumeration():
    # A new cache needs a benchmark number that shows it pays off.
    modules = [symbalance] + [importlib.import_module(f"symbalance.{info.name}")
                              for info in pkgutil.iter_modules(symbalance.__path__)]
    cached = set()
    for module in modules:
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_info", None)):
                cached.add(f"{obj.__module__}.{obj.__qualname__}")
    assert cached == {"symbalance.symfun._count_vectors"}


def test_scan_conjecture2_builds_each_row_once(monkeypatch):
    built = _count_rows(monkeypatch, conjectures)
    scan_conjecture2(512)
    assert built == Counter(range(124, 513))


def test_all_residue_lacunary_builds_its_row_once(monkeypatch, capsys):
    built = _count_rows(monkeypatch, exactnum)
    assert main(["lacunary", "40", "3"]) == 0
    assert built == Counter([40])
    capsys.readouterr()
