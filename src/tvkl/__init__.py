"""Total variation / KL divergence toolkit for finite discrete distributions.

Exact divergences, the closed-form inequality family relating them in both
directions, the Donsker-Varadhan variational evaluation, coin-distinguishing
sample-complexity lower bounds, and empirical verification engines.
"""

from .bounds import (
    BoundEvaluation,
    BoundId,
    WEAK_BH_FACTOR,
    compare_bounds,
    forward_value,
    inverse_value,
    kl_lower,
    kl_lower_bh,
    kl_lower_pinsker,
    kl_lower_tsybakov,
    kl_lower_vajda,
    tv_upper_best,
    tv_upper_bh,
    tv_upper_from_vajda,
    tv_upper_pinsker,
    tv_upper_tsybakov,
    tv_upper_weak_bh,
)
from .distributions import (
    Distribution,
    LABEL_SEPARATOR,
    MAX_PRODUCT_ATOMS,
    ProductSpec,
    SUM_TOLERANCE,
    bernoulli,
    dump_distribution,
    dumps_distribution,
    load_distribution,
    loads_distribution,
    new_distribution,
    tensor_power,
)
from .divergence import (
    BhDecomposition,
    EventSubset,
    bh_decomposition,
    binary_kl,
    binary_tv,
    event_mass,
    hellinger_affinity,
    kl_divergence,
    overlap_identities,
    quantize,
    total_variation,
    tv_subset_oracle,
)
from .errors import (
    DuplicateLabelError,
    EmptySupportError,
    InvalidLabelError,
    MisalignedWitnessError,
    MismatchedSupportsError,
    NegativeWeightError,
    OutOfRangeError,
    SumToleranceError,
    SupportMismatchError,
    TooLargeError,
    TvklError,
    UnsupportedInequalityError,
    ValidationError,
)
from .figures import FigureId, figure_header, figure_rows, write_figure_csv
from .samples import (
    SampleComplexityQuery,
    SampleComplexityReport,
    kl_per_toss,
    min_samples_bh,
    min_samples_pinsker,
    min_samples_tsybakov,
    report,
    required_tv,
)
from .variational import (
    TflParameter,
    WitnessFunction,
    dv_optimal_witness,
    dv_supremum,
    dv_value,
    hoeffding_step_check,
    ipm_identity_check,
    pinsker_via_tfl,
    pinsker_via_tfl_optimal,
)
from .verify import (
    InequalityId,
    ScanReport,
    bernoulli_margin,
    falsify,
    kl_finite_implies_tv_lt_one,
    random_distribution,
    run_suite,
    scan_bernoulli,
)

__version__ = "0.1.0"
