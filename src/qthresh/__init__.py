"""Influences, derivative identities, and threshold widths on [q]^n."""

from .evaluate import (
    ClosedFormEvaluator,
    Estimate,
    Evaluator,
    ExactEvaluator,
    MonteCarloEvaluator,
    binomial_std_error,
    product_weights,
    tribes_prob_zero,
    variance_of_indicator,
)
from .functions import (
    DEFAULT_CAP,
    CapExceededError,
    FunctionFileError,
    FunctionSpec,
    TribesVariant,
    build_tribes,
    evaluate_batch,
    from_table,
    indicator,
    is_a_monotone,
    leq_a,
    materialize_table,
    parse_function_file,
    random_zero_monotone,
    write_function_file,
)
from .influence import (
    InfluenceProfile,
    KellerDiagnostic,
    ent,
    h_nonconstant,
    h_paper,
    h_variance,
    influence_bkkkl,
    influence_h,
    influence_profile,
    influence_variance,
    keller_diagnostic,
    phi_k,
)
from .measures import (
    SimplexMeasure,
    central_measure,
    mix_t,
    sample_uniform_batch,
    second_smallest_atom,
)
from .threshold import (
    DerivativeDiagnostic,
    RegionMeasureEstimate,
    ScalingRow,
    ThresholdReport,
    derivative_lower_bound_ratio,
    line_width,
    region_measure,
    rm_derivative_exact,
    sweep_scaling,
)
from .verification import SuiteResult, run_suites

__version__ = "0.1.0"
