"""Binomial rows and class lists are values: each call builds the rows it
reads once, and no call keeps rows or class lists after it returns."""

import importlib
import pkgutil
import tracemalloc
from collections import Counter

import pytest

import symbalance
import symbalance.conjectures as conjectures
import symbalance.exactnum as exactnum
import symbalance.symfun as symfun
from symbalance.cli import main
from symbalance.conjectures import scan_conjecture1, scan_conjecture2
from symbalance.errors import InternalCheckError
from symbalance.symfun import _count_vectors, is_balanced_elem, weight_elem


def _count_rows(monkeypatch, *modules):
    built = Counter()
    original = exactnum.pascal_row

    def counting(n):
        built[n] += 1
        return original(n)

    for module in modules:
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


def test_weight_elem_holds_no_row():
    # row 60000 alone holds about 175 MB; the walk holds a few big ints
    tracemalloc.start()
    try:
        weight_elem(1, 60000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_balance_holds_no_row():
    # row 20000 alone holds about 19 MB; the stepped routes hold a few big ints
    tracemalloc.start()
    try:
        assert is_balanced_elem(4, 20000) is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("n, raised, check", [
    # One entry raised: the halves no longer mirror each other.
    (4095, [4091], "row is not symmetric"),
    # A mirrored pair raised: only the row sum sees it.
    (100, [1, 99], "row does not sum to 2^n"),
], ids=["mirror", "row-sum"])
def test_row_balance_checks_the_entries_the_weight_skips(n, raised, check):
    # No raised j dominates d = 4, so the weight never reads row[j]: only
    # the row check, which the scans run once per row, sees the change.
    d = 4
    row = list(exactnum.pascal_row(n))
    walk = symfun._checked_walk(d, n)
    weight = symfun._stepped_balance(d, n)[0]
    symfun._check_row(tuple(row))
    assert conjectures._walk_sum(walk, tuple(row)) == weight
    for j in raised:
        assert j & d != d
        row[j] += 2
    assert conjectures._walk_sum(walk, tuple(row)) == weight
    with pytest.raises(InternalCheckError) as caught:
        symfun._check_row(tuple(row))
    assert str(caught.value) == f"{check} at n={n}"


@pytest.mark.parametrize("scan, command, n_max, first, n, raised, check", [
    (scan_conjecture1, "scan-c1", 64, 2, 60, [3], "row is not symmetric"),
    (scan_conjecture1, "scan-c1", 64, 2, 60, [1, 59], "row does not sum to 2^n"),
    # 127 dominates 63, so without the row check one cell of 90 comes out
    # wrong and no error is raised.
    (scan_conjecture2, "scan-c2", 200, 124, 150, [23, 127], "row does not sum to 2^n"),
], ids=["mirror", "row-sum", "scan-c2-row-sum"])
def test_scan_checks_each_row_once(monkeypatch, capsys, scan, command, n_max, first, n,
                                   raised, check):
    rows = conjectures.pascal_rows
    checked = Counter()

    def counting(row):
        checked[len(row) - 1] += 1
        return symfun._check_row(row)

    monkeypatch.setattr(conjectures, "_check_row", counting)
    scan(n_max)
    assert checked == Counter(range(first, n_max + 1))

    def raising(lo, hi):
        for m, row in rows(lo, hi):
            if m == n:
                row = list(row)
                for j in raised:
                    row[j] += 2
                row = tuple(row)
            yield m, row

    monkeypatch.setattr(conjectures, "pascal_rows", raising)
    with pytest.raises(InternalCheckError) as caught:
        scan(n_max)
    assert str(caught.value) == f"{check} at n={n}"
    assert main([command, "--n-max", str(n_max), "--format", "json"]) == 70
    assert capsys.readouterr() == ("", f"internal check failed: {check} at n={n}\n")


def _flip_last_parity_byte(monkeypatch):
    # C(n, d) is even for n = 64 or 512 and every degree the scans start at,
    # so the flip puts n in the mask's index set.
    original = symfun._parity_mask

    def flipped(d, n):
        odd = bytearray(original(d, n))
        odd[n] ^= 1
        return bytes(odd)

    monkeypatch.setattr(symfun, "_parity_mask", flipped)


def _drop_dominating_63(monkeypatch):
    # 63 dominates every degree below 64, so every walk the scans start
    # with loses it.
    original = symfun._dominating
    monkeypatch.setattr(symfun, "_dominating",
                        lambda d, n: (i for i in original(d, n) if i != 63))


@pytest.mark.parametrize("mutate", [_flip_last_parity_byte, _drop_dominating_63],
                         ids=["flipped-parity-byte", "dropped-dominating-index"])
def test_scans_check_the_walk_against_the_mask(monkeypatch, capsys, mutate):
    mutate(monkeypatch)
    for scan, n_max, d in ((scan_conjecture1, 64, 2), (scan_conjecture2, 512, 63)):
        with pytest.raises(InternalCheckError) as caught:
            scan(n_max)
        assert str(caught.value) == f"dominance routes disagree at d={d}, n={n_max}"
    assert main(["scan-c2", "--n-max", "512"]) == 70
    out, err = capsys.readouterr()
    assert out == "" and err == "internal check failed: dominance routes disagree at d=63, n=512\n"


def test_class_enumeration_keeps_no_memory():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(280, 288):
            list(_count_vectors(3, n))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


def test_package_holds_no_cache():
    # A new cache needs a benchmark number that shows it pays off.
    modules = [symbalance] + [importlib.import_module(info.name)
                              for info in pkgutil.walk_packages(symbalance.__path__,
                                                                "symbalance.")]
    cached = set()
    for module in modules:
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_info", None)):
                cached.add(f"{obj.__module__}.{obj.__qualname__}")
    assert cached == set()


def _count_stepped_rows(monkeypatch):
    """Counts the rows the scans take from pascal_rows, and every
    pascal_row call made anywhere in the package."""
    built = _count_rows(monkeypatch, exactnum)
    yielded = Counter()
    original = exactnum.pascal_rows

    def counting(lo, hi):
        for n, row in original(lo, hi):
            yielded[n] += 1
            yield n, row

    monkeypatch.setattr(conjectures, "pascal_rows", counting)
    return built, yielded


def test_scan_conjecture1_builds_each_row_once(monkeypatch):
    built, yielded = _count_stepped_rows(monkeypatch)
    scan_conjecture1(64)
    assert yielded == Counter(range(2, 65))
    assert built == Counter([2])


def test_scan_conjecture2_builds_each_row_once(monkeypatch):
    built, yielded = _count_stepped_rows(monkeypatch)
    scan_conjecture2(512)
    assert yielded == Counter(range(124, 513))
    assert built == Counter([124])


def test_all_residue_lacunary_builds_its_row_once(monkeypatch, capsys):
    built = _count_rows(monkeypatch, exactnum)
    assert main(["lacunary", "40", "3"]) == 0
    assert built == Counter([40])
    capsys.readouterr()


def test_balanced_and_sac_commands_build_no_row(monkeypatch, capsys):
    built = _count_rows(monkeypatch, exactnum)
    assert main(["balanced", "4", "4095"]) == 0
    assert capsys.readouterr().out.endswith("balanced: true\n")
    assert main(["sac", "5", "4096"]) == 0
    assert capsys.readouterr().out.endswith("satisfies the strict avalanche criterion\n")
    assert built == Counter()
