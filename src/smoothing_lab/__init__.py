"""Desk-scale laboratory for fixed points of the multivariate smoothing
transform with nonnegative matrix weights.

The package namespace is lazy (PEP 562): `import smoothing_lab` loads no
layer module, and an exported name or a submodule is imported on its first
lookup, so a process pays only for the layers it uses.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cascade": """SamplePool constant_pool heavy_tail_pool iterate_pool
        martingale_samples pool_from_csv pool_to_csv run_fixed_point
        survival_counts""",
    "diagnostics": """KillCountStats TransformCurve decay_fit harmonic_moment
        kill_counts small_ball_exponent sphere_grid transform_curve""",
    "matrices": """as_direction birkhoff_bound contraction_coefficient
        hennion_distance is_primitive pf_decompose project_direction
        spectral_radius""",
    "models": """ModelSpec check_furstenberg_kesten check_iid_coefficients
        conditioned_a1_atoms example_model example_path expected_n
        explicit_atoms load_model mean_sum_matrix mu_atom_law mu_mean
        mu_support prob_n_equals""",
    "spectral": """SpectralProfile TransferDiscretization critical_exponent
        discretize_transfer find_alpha kappa_estimate kappa_one_exact
        kappa_tilde lyapunov_estimate spectral_profile transfer_eigen""",
    "support": """ConeHull RadiusWitness SemigroupEnumeration
        check_allowability check_positivity cone_hull dyadic_expand
        empirical_support_check enumerate_semigroup find_l1_l2 lambda_set
        lambda_stability search_radius_witnesses""",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}
_SUBMODULES = (*_EXPORTS, "_common", "errors")
__all__ = sorted(_HOME)


def __getattr__(name):
    # nothing is cached in this namespace: a tracer that swaps a layer's
    # functions and puts them back must be seen by every later lookup
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"),
                       name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
