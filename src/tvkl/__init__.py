"""Total variation / KL divergence toolkit for finite discrete distributions.

Exact divergences, the closed-form inequality family relating them in both
directions, the Donsker-Varadhan variational evaluation, coin-distinguishing
sample-complexity lower bounds, and empirical verification engines.

Each public name, and each module of the table below, is imported on first
use (PEP 562), so ``import tvkl`` loads no submodule and a caller pays only
for the modules it reads.
"""

import importlib as _importlib

__version__ = "0.1.0"

# Each module and the public names the package re-exports from it.
_EXPORTS = {
    "bounds": (
        "BoundEvaluation", "BoundId", "WEAK_BH_FACTOR", "compare_bounds",
        "forward_value", "inverse_value", "kl_lower", "kl_lower_vajda",
        "tv_upper_from_vajda",
    ),
    "distributions": (
        "Distribution", "LABEL_SEPARATOR", "MAX_PRODUCT_ATOMS", "ProductSpec",
        "SUM_TOLERANCE", "bernoulli", "dump_distribution", "dumps_distribution",
        "load_distribution", "loads_distribution", "new_distribution",
        "tensor_power",
    ),
    "divergence": (
        "EventSubset", "binary_kl", "binary_tv", "event_mass",
        "hellinger_affinity", "kl_divergence", "overlap_identities", "quantize",
        "total_variation",
    ),
    "errors": (
        "DuplicateLabelError", "EmptySupportError", "InvalidLabelError",
        "MisalignedWitnessError", "MismatchedSupportsError",
        "NegativeWeightError", "OutOfRangeError", "SumToleranceError",
        "SupportMismatchError", "TooLargeError", "TvklError",
        "UnsupportedInequalityError", "ValidationError",
    ),
    "figures": ("FigureId", "figure_header", "figure_rows", "write_figure_csv"),
    "samples": (
        "SampleComplexityQuery", "SampleComplexityReport", "kl_per_toss",
        "report",
    ),
    "variational": (
        "WitnessFunction", "dv_optimal_witness", "dv_supremum", "dv_value",
        "pinsker_via_tfl", "pinsker_via_tfl_optimal",
    ),
    "verify": (
        "InequalityId", "ScanReport", "bernoulli_margin", "falsify",
        "kl_finite_implies_tv_lt_one", "random_distribution", "run_suite",
        "scan_bernoulli",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    # Importing a submodule binds it in this namespace; a name is cached here.
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _importlib.import_module(f"{__name__}.{_HOME[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
