"""Desk-scale laboratory for fixed points of the multivariate smoothing
transform with nonnegative matrix weights."""

__version__ = "0.1.0"

from .cascade import (
    SamplePool,
    constant_pool,
    heavy_tail_pool,
    iterate_pool,
    martingale_samples,
    pool_from_csv,
    pool_to_csv,
    run_fixed_point,
    survival_counts,
)
from .diagnostics import (
    KillCountStats,
    TransformCurve,
    decay_fit,
    harmonic_moment,
    kill_counts,
    small_ball_exponent,
    sphere_grid,
    transform_curve,
)
from .matrices import (
    PFDecomposition,
    as_direction,
    birkhoff_bound,
    contraction_coefficient,
    hennion_distance,
    is_primitive,
    pf_decompose,
    project_direction,
    spectral_radius,
)
from .models import (
    ModelSpec,
    check_furstenberg_kesten,
    check_iid_coefficients,
    conditioned_a1_atoms,
    example_model,
    example_path,
    expected_n,
    explicit_atoms,
    load_model,
    mean_sum_matrix,
    mu_atom_law,
    mu_mean,
    mu_support,
    prob_n_equals,
)
from .spectral import (
    SpectralProfile,
    TransferDiscretization,
    critical_exponent,
    discretize_transfer,
    find_alpha,
    kappa_estimate,
    kappa_one_exact,
    kappa_tilde,
    lyapunov_estimate,
    spectral_profile,
    transfer_eigen,
)
from .support import (
    ConeHull,
    RadiusWitness,
    SemigroupEnumeration,
    check_allowability,
    check_positivity,
    cone_hull,
    dyadic_expand,
    empirical_support_check,
    enumerate_semigroup,
    find_l1_l2,
    lambda_set,
    lambda_stability,
    search_radius_witnesses,
)
