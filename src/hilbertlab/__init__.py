"""Numerical laboratory for weighted Hilbert-type inequalities over gap sequences."""

from .gaps import (
    GapSequence,
    WeightVector,
    from_csv,
    from_json,
    generate_cluster,
    generate_random,
    generate_uniform,
    new_gap_sequence,
)
from .lowerbound import (
    ConstructionResult,
    ScanTable,
    TrigConfig,
    big_g,
    construction_config,
    cot_limit_check,
    g_of_u,
    kappas,
    l_sum,
    periodized_equivalence_check,
    scan,
    trig_config,
    trig_form_value,
)
from .quadforms import (
    ConstantEstimate,
    alpha_form_matrix,
    cluster_lower_bound,
    estimate_constant,
    q_alpha,
    top_eigen_nonneg_sym,
    uniform_lower_bound,
)
from .spacing import (
    check_equidistance,
    check_fn_upper,
    check_smoothing_monovariant,
    f_n_functional,
    pair_spacing_sum,
    spacing_sum,
    zeta,
)
from .spectra import (
    ComplexEigenpair,
    SkewHilbertMatrix,
    build_h,
    check_selberg_identity,
    eigenpair_top,
    numerical_radius_check,
    preissmann_chain,
    spectral_radius,
    two_forms_bound,
)

__version__ = "0.1.0"
