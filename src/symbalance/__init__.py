"""Exact arithmetic for balanced symmetric functions over prime fields.

The package answers three families of questions without ever leaving
integer arithmetic for a verdict: how often each output value of a
symmetric function over GF(p) occurs, what the weights and Walsh spectra
of elementary symmetric polynomials over GF(2) look like, and how the
binomial row of order n can be split into two equal halves.  Closed
trigonometric forms are evaluated in fixed point on integers, with a
proven error bound, and rounded only where that bound certifies the
integer.
"""

from importlib import import_module

# The module that defines each public name, which is imported from there
# on first access (PEP 562), so `import symbalance` loads no submodule.
_EXPORTS = {
    "bisection": ("SignVector", "SolutionReport", "count_trivial", "find_all_solutions"),
    "census": ("all_orbits_divisible", "brute_count_balanced_symmetric",
               "count_balanced_all", "count_symmetric", "generate_balanced",
               "lower_bound_balanced"),
    "conjectures": ("BoundCell", "ScanCell", "conjecture1_mismatches",
                    "conjecture2_violations", "predicted_balanced", "scan_conjecture1",
                    "scan_conjecture2", "weight_trig_wt2", "weight_trig_wt3"),
    "errors": ("BudgetError", "InternalCheckError", "OrbitSplitError"),
    "exactnum": ("binom", "exact_div", "is_prime", "lacunary_sums", "lacunary_trig_sums"),
    "spectral": ("WalshSpectrum", "is_sac_elem", "walsh_spectrum"),
    "symfun": ("SymmetricFunction", "WeightFunction", "elem_values", "is_balanced_elem",
               "weight_elem"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name, or one of the submodules in _EXPORTS, imported when it
    is first read; the name is then kept as a plain module attribute."""
    module = _MODULE_OF.get(name)
    if module is not None:
        value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
        return value
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
