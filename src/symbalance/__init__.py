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
    count_trivial,
    find_all_solutions,
)
from .census import (
    all_orbits_divisible,
    brute_count_balanced_symmetric,
    count_balanced_all,
    count_symmetric,
    generate_balanced,
    lower_bound_balanced,
)
from .conjectures import (
    BoundCell,
    ScanCell,
    conjecture1_mismatches,
    conjecture2_violations,
    predicted_balanced,
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
    is_sac_elem,
    walsh_spectrum,
)
from .symfun import (
    MultisetClass,
    SymmetricFunction,
    WeightFunction,
    elem_values,
    enumerate_classes,
    is_balanced_elem,
    weight_elem,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCell",
    "BudgetError",
    "InternalCheckError",
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
    "binom",
    "brute_count_balanced_symmetric",
    "compensated_sum",
    "conjecture1_mismatches",
    "conjecture2_violations",
    "count_balanced_all",
    "count_symmetric",
    "count_trivial",
    "elem_values",
    "enumerate_classes",
    "exact_div",
    "find_all_solutions",
    "generate_balanced",
    "is_balanced_elem",
    "is_prime",
    "is_sac_elem",
    "lacunary_sums",
    "lacunary_trig_sums",
    "lower_bound_balanced",
    "multinomial",
    "predicted_balanced",
    "round_real",
    "scan_conjecture1",
    "scan_conjecture2",
    "walsh_spectrum",
    "weight_elem",
    "weight_trig_wt2",
    "weight_trig_wt3",
]
