"""The public surface: what symbalance exports, and what it no longer has.

Names that only stated a proposition or an old orbit model, or served the
mpmath evaluation of the weight closed forms, with no library path or
command calling them, left the package; the propositions are asserted in
the tests on the outputs of the functions that remain.  The class record,
the class list and the checked multinomial, which only tests used, moved
to the test oracles.
"""

import importlib
import os
import pkgutil

import pytest

import symbalance
from oracles import MultisetClass
from symbalance import (
    BoundCell,
    ScanCell,
    SignVector,
    SolutionReport,
    SymmetricFunction,
    WalshSpectrum,
    WeightFunction,
)

EXPORTED = {
    "BoundCell", "BudgetError", "InternalCheckError",
    "OrbitSplitError", "ScanCell", "SignVector", "SolutionReport",
    "SymmetricFunction", "WalshSpectrum", "WeightFunction",
    "all_orbits_divisible", "binom", "brute_count_balanced_symmetric",
    "conjecture1_mismatches", "conjecture2_violations",
    "count_balanced_all", "count_symmetric", "count_trivial", "elem_values",
    "exact_div", "find_all_solutions", "generate_balanced",
    "is_balanced_elem", "is_prime", "is_sac_elem", "lacunary_sums",
    "lacunary_trig_sums", "lower_bound_balanced",
    "predicted_balanced", "scan_conjecture1", "scan_conjecture2",
    "walsh_spectrum", "weight_elem", "weight_trig_wt2", "weight_trig_wt3",
}

DELETED = (
    "MVector", "mvector_of", "orbit_size", "check_divisibility", "enumerate_mvectors",
    "is_trivial", "signed_sum", "bisection_from_solution",
    "walsh_symmetric", "check_antisymmetry", "half_square_sums", "check_half_sums",
    "quarter_weight_holds", "correction_sign_check", "sign_sinpi",
    "AnfVector", "values_from_anf", "anf_from_values", "_domination_transform",
    "is_balanced", "balance_histogram",
    "cospi_frac", "sinpi_frac", "compensated_sum", "round_real", "PRECISION_BITS",
    "MultisetClass", "enumerate_classes", "multinomial",
)


def test_exports_are_frozen():
    assert len(symbalance.__all__) == len(EXPORTED) == 35
    assert set(symbalance.__all__) == EXPORTED
    assert all(hasattr(symbalance, name) for name in EXPORTED)


def test_deleted_names_are_gone():
    modules = [symbalance] + [importlib.import_module(info.name)
                              for info in pkgutil.walk_packages(symbalance.__path__,
                                                                "symbalance.")]
    # The package, its 8 modules, and commands with its 6 command modules.
    assert len(modules) == 16
    for module in modules:
        assert [name for name in DELETED if hasattr(module, name)] == [], module.__name__
    assert not hasattr(WeightFunction, "to_symmetric")


def test_packaging_finds_the_command_modules():
    # An installed console script reaches the handlers only when the
    # commands subpackage is packaged with the rest (pyproject.toml finds
    # the packages under src).
    from setuptools import find_packages

    src = os.path.dirname(os.path.dirname(symbalance.__file__))
    assert sorted(find_packages(src)) == ["symbalance", "symbalance.commands"]


# One value of each public record, its fields in order, and its repr; and
# of MultisetClass, which the test oracles keep.
RECORDS = [
    (MultisetClass(3, 2, (1, 1, 0)), ("p", "n", "counts"),
     "MultisetClass(p=3, n=2, counts=(1, 1, 0))"),
    (SymmetricFunction(2, 1, (0, 1)), ("p", "n", "values"),
     "SymmetricFunction(p=2, n=1, values=(0, 1))"),
    (WeightFunction(2, (0, 1, 0)), ("n", "v"), "WeightFunction(n=2, v=(0, 1, 0))"),
    (WalshSpectrum(2, (0, 4, 0)), ("n", "by_weight"), "WalshSpectrum(n=2, by_weight=(0, 4, 0))"),
    (ScanCell(2, 3, 4, True, True), ("d", "n", "weight", "balanced", "predicted"),
     "ScanCell(d=2, n=3, weight=4, balanced=True, predicted=True)"),
    (BoundCell(63, 124, 5, 6, True), ("d", "n", "weight", "bound", "below"),
     "BoundCell(d=63, n=124, weight=5, bound=6, below=True)"),
    (SignVector(1, (1, -1)), ("n", "delta"), "SignVector(n=1, delta=(1, -1))"),
    (SolutionReport(3, 8, 4, 4, (SignVector(1, (1, -1)),)),
     ("n", "total", "trivial", "nontrivial", "witnesses"),
     "SolutionReport(n=3, total=8, trivial=4, nontrivial=4, "
     "witnesses=(SignVector(n=1, delta=(1, -1)),))"),
]


@pytest.mark.parametrize("record, fields, text", RECORDS,
                         ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_record_fields_repr_equality_and_immutability(record, fields, text):
    cls = type(record)
    assert cls._fields == fields
    assert repr(record) == text
    values = tuple(getattr(record, name) for name in fields)
    again = cls(**dict(zip(fields, values)))
    assert again == record and hash(again) == hash(record)
    # Records are named tuples: equal to the plain tuple of their values.
    assert record == values
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    with pytest.raises(AttributeError):
        record.extra = 1


def test_solution_report_witnesses_default_to_none():
    assert SolutionReport(3, 8, 4, 4).witnesses is None
    assert SolutionReport(3, 8, 4, 4) != SolutionReport(3, 8, 4, 4, ())


@pytest.mark.parametrize("make, message", [
    (lambda: MultisetClass(3, 2, (1, 1)), "one entry per symbol"),
    (lambda: MultisetClass(3, 2, (1, 2, 0)), "sum to n"),
    (lambda: MultisetClass(3, 2, (-1, 3, 0)), "non-negative"),
    (lambda: SymmetricFunction(2, 1, (0,)), "one value per class"),
    (lambda: SymmetricFunction(3, 1, (0, 1, 3)), r"values must lie in \[0, 3\)"),
    (lambda: SymmetricFunction(3, 1, (0, -1, 2)), r"values must lie in \[0, 3\)"),
    (lambda: WeightFunction(2, (0, 1)), "n \\+ 1 entries"),
    (lambda: WeightFunction(2, (0, 1, 2)), "bits"),
    (lambda: SignVector(2, (1, -1)), "n \\+ 1 entries"),
    (lambda: SignVector(1, (1, 0)), "-1 or \\+1"),
])
def test_record_checks_still_fire(make, message):
    with pytest.raises(ValueError, match=message):
        make()
