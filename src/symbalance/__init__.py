"""Exact arithmetic for balanced symmetric functions over prime fields.

The package answers three families of questions without ever leaving
integer arithmetic for a verdict: how often each output value of a
symmetric function over GF(p) occurs, what the weights and Walsh spectra
of elementary symmetric polynomials over GF(2) look like, and how the
binomial row of order n can be split into two equal halves.  Floating
point appears only inside closed-form cross-checks, always compared back
to an integer computed independently.
"""

from .bisection import (
    SignVector,
    SolutionReport,
    bisection_from_solution,
    count_trivial,
    find_all_solutions,
    is_trivial,
    signed_sum,
)
from .census import (
    MVector,
    all_orbits_divisible,
    brute_count_balanced_symmetric,
    check_divisibility,
    count_balanced_all,
    count_symmetric,
    enumerate_mvectors,
    generate_balanced,
    lower_bound_balanced,
    mvector_of,
    orbit_size,
)
from .conjectures import (
    BoundCell,
    ScanCell,
    conjecture1_mismatches,
    conjecture2_violations,
    correction_sign_check,
    predicted_balanced,
    quarter_weight_holds,
    scan_conjecture1,
    scan_conjecture2,
    weight_trig_wt2,
    weight_trig_wt3,
)
from .errors import BudgetError, InternalCheckError, OrbitSplitError
from .exactnum import (
    PRECISION_BITS,
    binom,
    compensated_sum,
    exact_div,
    is_prime,
    lacunary_sums,
    lacunary_trig_sums,
    multinomial,
    round_real,
)
from .spectral import (
    WalshSpectrum,
    check_antisymmetry,
    check_half_sums,
    half_square_sums,
    is_sac_elem,
    walsh_spectrum,
    walsh_symmetric,
)
from .symfun import (
    AnfVector,
    MultisetClass,
    SymmetricFunction,
    WeightFunction,
    anf_from_values,
    balance_histogram,
    elem_values,
    enumerate_classes,
    is_balanced,
    is_balanced_elem,
    values_from_anf,
    weight_elem,
)

__version__ = "0.1.0"

__all__ = [
    "AnfVector",
    "BoundCell",
    "BudgetError",
    "InternalCheckError",
    "MVector",
    "MultisetClass",
    "OrbitSplitError",
    "PRECISION_BITS",
    "ScanCell",
    "SignVector",
    "SolutionReport",
    "SymmetricFunction",
    "WalshSpectrum",
    "WeightFunction",
    "all_orbits_divisible",
    "anf_from_values",
    "balance_histogram",
    "binom",
    "bisection_from_solution",
    "brute_count_balanced_symmetric",
    "check_antisymmetry",
    "check_divisibility",
    "check_half_sums",
    "compensated_sum",
    "conjecture1_mismatches",
    "conjecture2_violations",
    "correction_sign_check",
    "count_balanced_all",
    "count_symmetric",
    "count_trivial",
    "elem_values",
    "enumerate_classes",
    "enumerate_mvectors",
    "exact_div",
    "find_all_solutions",
    "generate_balanced",
    "half_square_sums",
    "is_balanced",
    "is_balanced_elem",
    "is_prime",
    "is_sac_elem",
    "is_trivial",
    "lacunary_sums",
    "lacunary_trig_sums",
    "lower_bound_balanced",
    "multinomial",
    "mvector_of",
    "orbit_size",
    "predicted_balanced",
    "quarter_weight_holds",
    "round_real",
    "scan_conjecture1",
    "scan_conjecture2",
    "signed_sum",
    "values_from_anf",
    "walsh_spectrum",
    "walsh_symmetric",
    "weight_elem",
    "weight_trig_wt2",
    "weight_trig_wt3",
]
