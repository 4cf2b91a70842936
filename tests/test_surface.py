"""The public surface: what symbalance exports, and what it no longer has.

Names that only stated a proposition or an old orbit model, with no library
path or command calling them, left the package; the propositions are
asserted in the tests on the outputs of the functions that remain.
"""

import importlib
import pkgutil

import symbalance
from symbalance.symfun import WeightFunction

EXPORTED = {
    "BoundCell", "BudgetError", "InternalCheckError", "MultisetClass",
    "OrbitSplitError", "PRECISION_BITS", "ScanCell", "SignVector",
    "SolutionReport", "SymmetricFunction", "WalshSpectrum", "WeightFunction",
    "all_orbits_divisible", "binom", "brute_count_balanced_symmetric",
    "compensated_sum", "conjecture1_mismatches", "conjecture2_violations",
    "count_balanced_all", "count_symmetric", "count_trivial", "elem_values",
    "enumerate_classes", "exact_div", "find_all_solutions", "generate_balanced",
    "is_balanced_elem", "is_prime", "is_sac_elem", "lacunary_sums",
    "lacunary_trig_sums", "lower_bound_balanced", "multinomial",
    "predicted_balanced", "round_real", "scan_conjecture1", "scan_conjecture2",
    "walsh_spectrum", "weight_elem", "weight_trig_wt2", "weight_trig_wt3",
}

DELETED = (
    "MVector", "mvector_of", "orbit_size", "check_divisibility", "enumerate_mvectors",
    "is_trivial", "signed_sum", "bisection_from_solution",
    "walsh_symmetric", "check_antisymmetry", "half_square_sums", "check_half_sums",
    "quarter_weight_holds", "correction_sign_check", "sign_sinpi",
    "AnfVector", "values_from_anf", "anf_from_values", "_domination_transform",
    "is_balanced", "balance_histogram",
)


def test_exports_are_frozen():
    assert len(symbalance.__all__) == len(EXPORTED) == 41
    assert set(symbalance.__all__) == EXPORTED
    assert all(hasattr(symbalance, name) for name in EXPORTED)


def test_deleted_names_are_gone():
    modules = [symbalance] + [importlib.import_module(f"symbalance.{info.name}")
                              for info in pkgutil.iter_modules(symbalance.__path__)]
    assert len(modules) == 9
    for module in modules:
        assert [name for name in DELETED if hasattr(module, name)] == [], module.__name__
    assert not hasattr(WeightFunction, "to_symmetric")
