import numpy as np
import pytest
from scipy.optimize import brentq

import smoothing_lab as sl
from smoothing_lab._common import as_generator, spawn_generators
from smoothing_lab.errors import (
    FurstenbergKestenViolated,
    NoConvergence,
    NoSingletonBranch,
    SingularDirection,
    WitnessNotFound,
)
from smoothing_lab.spectral import _chain_log_norms

from conftest import A1, A2

# interior moment root of the third bundled model: 0.4^s + 0.6^s = 4/3
ALPHA_EX3 = brentq(lambda s: 0.4**s + 0.6**s - 4.0 / 3.0, 1e-6, 1.0, xtol=1e-14)


def test_kappa_at_zero_is_exact(ex1):
    value, stderr = sl.kappa_estimate(ex1, 0.0, n=10, trials=100, seed=0)
    assert value == 1.0 and stderr == 0.0


def test_kappa_one_exact(ex1, ex2, ex3):
    assert sl.kappa_one_exact(ex1) == pytest.approx(0.5, abs=1e-12)
    assert sl.kappa_one_exact(ex2) == pytest.approx(1 / 3, abs=1e-12)
    assert sl.kappa_one_exact(ex3) == pytest.approx(0.5, abs=1e-12)


def test_kappa_monte_carlo_matches_exact(ex1):
    value, stderr = sl.kappa_estimate(ex1, 1.0, n=20, trials=50_000, seed=41)
    assert abs(value - 0.5) <= 4 * stderr


def test_kappa_second_moment_rank_one(ex1):
    # chains of the rank-one atoms have kappa(2) = E[(|v|/5)^2] = 0.26 exactly
    value, stderr = sl.kappa_estimate(ex1, 2.0, n=20, trials=50_000, seed=42)
    assert abs(value - 0.26) <= 4 * stderr


def test_m_of_s(ex1, ex2):
    k0, se0 = sl.kappa_estimate(ex1, 0.0, n=5, trials=10, seed=0)
    assert sl.expected_n(ex1) * k0 == 2.0 and sl.expected_n(ex1) * se0 == 0.0
    assert sl.expected_n(ex2) * sl.kappa_one_exact(ex2) == pytest.approx(1.0, abs=1e-12)


def test_lyapunov_identity_model():
    eye = np.eye(2)
    spec = sl.ModelSpec(dim=2, kind="IIDCoefficients",
                        n_law=((2, 1.0),), mu_atoms=((1.0, eye),))
    gamma, stderr = sl.lyapunov_estimate(spec, n=50, trials=100, seed=1)
    assert gamma == 0.0 and stderr == 0.0


def test_lyapunov_rank_one_closed_form(ex1):
    gamma, stderr = sl.lyapunov_estimate(ex1, n=500, trials=4000, seed=21)
    target = 0.5 * np.log(6 / 25)
    assert abs(gamma - target) <= 4 * stderr + 1e-3
    assert gamma + 3 * stderr < -np.log(2)


def test_lyapunov_ex2_offspring_bound(ex2):
    gamma, stderr = sl.lyapunov_estimate(ex2, n=400, trials=3000, seed=23)
    assert gamma + 3 * stderr < -np.log(3.0)


def test_lyapunov_below_kappa_curve(ex1):
    gamma, gse = sl.lyapunov_estimate(ex1, n=500, trials=4000, seed=22)
    for i, s in enumerate((0.5, 1.0, 1.5)):
        value, kse = sl.kappa_estimate(ex1, s, n=50, trials=20_000, seed=100 + i)
        assert gamma - 3 * gse <= np.log(value) / s + 3 * kse / value


def conditioned_chain_model(spec):
    """An i.i.d. model whose single-matrix law is the law of A_1 given N = 1
    under spec: kappa_estimate on it is the chain route to kappa_tilde."""
    return sl.ModelSpec(dim=spec.dim, kind="IIDCoefficients",
                        n_law=((1, 0.5), (2, 0.5)),
                        mu_atoms=tuple(sl.conditioned_a1_atoms(spec)))


@pytest.mark.parametrize("estimator, name, s, n", [
    ("kappa_estimate", "ex3", -1.5, 2048),
    ("kappa_estimate", "ex3", -1.5, 512),
    ("kappa_estimate", "ex1", 4.0, 2048),
    ("kappa_tilde_chain", "ex3", -1.5, 2048),
])
def test_chain_moments_finite_at_extreme_orders(estimator, name, s, n):
    # |s * log||chain||| runs far past 709, where exp overflows or underflows
    spec = sl.example_model(name)
    if estimator == "kappa_tilde_chain":
        spec = conditioned_chain_model(spec)
    value, stderr = sl.kappa_estimate(spec, s, n=n, trials=2000, seed=0)
    assert np.isfinite(value) and value > 0
    assert np.isfinite(stderr) and stderr > 0


CHAIN_LAWS = {
    1: [(0.3, np.array([[0.5]])), (0.7, np.array([[0.8]]))],
    2: [(0.25, A1), (0.25, A2), (0.5, np.array([[0.3, 0.1], [0.2, 0.4]]))],
    3: [(p, np.random.default_rng(d).uniform(0.02, 0.3, (3, 3)))
        for d, p in enumerate((0.2, 0.5, 0.3))],
    # 32 steps per word, and one step per gather
    "one-atom": [(1.0, np.array([[0.3, 0.1], [0.2, 0.4]]))],
    "17-atoms": [(1 / 17, m) for m in
                 np.random.default_rng(17).uniform(0.02, 0.3, (17, 2, 2))],
}


@pytest.mark.parametrize("n", [1, 33, 70])
@pytest.mark.parametrize("name", list(CHAIN_LAWS))
def test_chain_log_norms_matches_reference_loop(name, n):
    # chain by chain over the same draws: one atom per chain and step,
    # multiplied on the left, with no renormalization
    law = CHAIN_LAWS[name]
    dim = law[0][1].shape[0]
    trials = 50
    logs = _chain_log_norms(law, n, trials, seed=11)
    rng = as_generator(11)
    draws = [rng.choice(len(law), size=trials, p=[p for p, _ in law])
             for _ in range(n)]
    for t in range(trials):
        prod = np.eye(dim)
        for ids in draws:
            prod = law[ids[t]][1] @ prod
        ref = np.log(np.abs(prod).sum(axis=0).max())
        assert logs[t] == pytest.approx(ref, rel=1e-13, abs=0.0)


def vanishing_model():
    """Products of the nilpotent atom with itself are the zero matrix."""
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    other = np.array([[0.6, 0.2], [0.3, 0.5]])
    return sl.ModelSpec(dim=2, kind="ExplicitAtoms",
                        atoms=((0.5, (nil, nil)), (0.5, (nil, other))))


def test_vanishing_chain_products_raise():
    spec = vanishing_model()
    with pytest.raises(SingularDirection):
        sl.kappa_estimate(spec, [-0.5, 0.5, 1.0], 16, 200, 1)
    with pytest.raises(SingularDirection):
        sl.lyapunov_estimate(spec, 50, 100, 1)


def test_kappa_estimate_sequence_shares_chains(ex1):
    orders = [-0.5, 0.0, 1.0, 2.0]
    values, errs = sl.kappa_estimate(ex1, orders, n=20, trials=3000, seed=9)
    assert values[1] == 1.0 and errs[1] == 0.0
    for i, s in enumerate(orders):
        single = sl.kappa_estimate(ex1, s, n=20, trials=3000, seed=9)
        assert single == pytest.approx((values[i], errs[i]), rel=1e-12)


def test_log_convexity_of_kappa(ex1):
    svals = np.array([0.5, 1.0, 1.5])
    est = [sl.kappa_estimate(ex1, s, n=50, trials=40_000, seed=200 + i)
           for i, s in enumerate(svals)]
    mid = np.log(est[1][0])
    ends = 0.5 * (np.log(est[0][0]) + np.log(est[2][0]))
    slack = 3 * sum(se / v for v, se in est)
    assert mid <= ends + slack


def test_find_alpha_unit_root(ex1, ex2):
    assert sl.find_alpha(ex1, seed=31) == 1.0
    assert sl.find_alpha(ex2, seed=32) == 1.0


def test_find_alpha_interior_root(ex3):
    alpha = sl.find_alpha(ex3, seed=33)
    assert alpha == pytest.approx(ALPHA_EX3, abs=0.02)


def test_find_alpha_long_chains(ex3):
    # at the root s log||chain|| is about -830 at n = 2048, below exp's
    # underflow point, so the moment curve must be averaged in the log domain
    alpha = sl.find_alpha(ex3, n=2048, trials=2000, seed=0)
    assert alpha == pytest.approx(0.578, abs=1e-2)


def test_find_alpha_interior_root_synthetic():
    # scaled generators: kappa(s) = ((0.12)^s + (0.18)^s)/2 exactly, so the
    # root of E[N] kappa(s) = 1 can be pinned by an independent bisection
    q = 0.3
    spec = sl.ModelSpec(dim=2, kind="IIDCoefficients", n_law=((2, 1.0),),
                        mu_atoms=((0.5, q * A1), (0.5, q * A2)))
    oracle = brentq(lambda s: (0.12) ** s + (0.18) ** s - 1.0, 1e-6, 1.0)
    alpha = sl.find_alpha(spec, seed=34)
    assert alpha == pytest.approx(oracle, abs=0.02)


def test_find_alpha_not_found():
    spec = sl.ModelSpec(dim=2, kind="IIDCoefficients", n_law=((2, 1.0),),
                        mu_atoms=((0.5, 2 * A1), (0.5, 2 * A2)))
    with pytest.raises(WitnessNotFound):
        sl.find_alpha(spec, seed=35)


# ---------------------------------------------------------------------------
# transfer operator
# ---------------------------------------------------------------------------


def test_transfer_apply_order_zero(ex3):
    disc = sl.discretize_transfer(ex3, 0.0, grid_size=64)
    out = disc.operator_matrix @ np.ones(64)
    assert out == pytest.approx(np.ones(64), abs=1e-12)


def test_transfer_apply_example_value(ex3):
    # order -1 at v = (1/2, 1/2): 0.5 (|a1 v|^-1 + |a2 v|^-1) with L1 image
    # norms 0.4 and 0.6, i.e. 25/12 (direct matrix-vector arithmetic)
    disc = sl.discretize_transfer(ex3, -1.0, grid_size=257)
    out = disc.operator_matrix @ np.ones(257)
    k = 128  # grid midpoint (1/2, 1/2)
    assert disc.grid[k] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert out[k] == pytest.approx(25.0 / 12.0, abs=1e-12)


def test_transfer_scalar_atom():
    # singleton branch c * identity acts as multiplication by c^s
    c = 0.5
    spec = sl.ModelSpec(
        dim=2, kind="ExplicitAtoms",
        atoms=((0.5, (c * np.eye(2),)), (0.5, (A1, A2))),
    )
    disc = sl.discretize_transfer(spec, -1.0, grid_size=33)
    f = np.linspace(1.0, 2.0, 33)
    out = disc.operator_matrix @ f
    assert out == pytest.approx(f / c, abs=1e-9)


B0 = np.array([[0.3, 0.1, 0.2], [0.1, 0.4, 0.1], [0.2, 0.1, 0.2]])
B1 = np.array([[0.1, 0.5, 0.1], [0.3, 0.1, 0.2], [0.1, 0.2, 0.4]])
B2 = np.array([[0.2, 0.2, 0.3], [0.2, 0.3, 0.1], [0.3, 0.1, 0.1]])


@pytest.mark.parametrize("grid_size", [33, 256])
@pytest.mark.parametrize("s", [-1.0, 0.5])
def test_transfer_exact_on_affine_functions_3d(s, grid_size):
    # linear interpolation reproduces affine grid functions f(v) = c . v, so
    # the gridded operator must equal the finite-atom expectation pointwise
    spec = sl.ModelSpec(
        dim=3, kind="ExplicitAtoms",
        atoms=((0.3, (B0,)), (0.2, (B1,)), (0.5, (B0, B1, B2))),
    )
    c = np.array([1.0, -2.0, 0.5])
    disc = sl.discretize_transfer(spec, s, grid_size=grid_size)
    grid = disc.grid
    assert grid.shape[0] >= grid_size
    exact = np.zeros(grid.shape[0])
    for p, a in ((0.6, B0), (0.4, B1)):
        img = grid @ a.T
        norms = img.sum(axis=1)
        exact += p * norms**s * ((img / norms[:, None]) @ c)
    assert disc.operator_matrix @ (grid @ c) == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("grid_size", [-1, 0, 1])
def test_transfer_rejects_grid_size_below_two(ex3, dim, grid_size):
    # a 3-dim model used to get a 10-point grid for any grid_size below 2
    spec = ex3 if dim == 2 else sl.ModelSpec(
        dim=3, kind="ExplicitAtoms", atoms=((0.5, (B0,)), (0.5, (B1, B2))))
    with pytest.raises(ValueError, match="grid_size"):
        sl.discretize_transfer(spec, -1.0, grid_size=grid_size)


def test_transfer_requires_singleton_branch(ex1):
    with pytest.raises(NoSingletonBranch):
        sl.discretize_transfer(ex1, -1.0, grid_size=16)


def test_transfer_rejects_zero_column_atom():
    bad = np.array([[1.0, 0.0], [0.0, 0.0]])
    spec = sl.ModelSpec(
        dim=2, kind="ExplicitAtoms",
        atoms=((0.5, (bad,)), (0.5, (A1, A2))),
    )
    with pytest.raises(FurstenbergKestenViolated):
        sl.discretize_transfer(spec, -1.0, grid_size=16)


def closed_form_ex3(s: float) -> float:
    return (2.0**s + 3.0**s) / (2.0 * 5.0**s)


def test_kappa_tilde_matches_closed_form(ex3):
    for s in (-1.5, -1.0, -0.5, 0.0, 1.0):
        value = sl.kappa_tilde(ex3, s, grid_size=128)
        assert value == pytest.approx(closed_form_ex3(s), abs=1e-9)
        disc = sl.transfer_eigen(sl.discretize_transfer(ex3, s, grid_size=128))
        assert disc.eigenvalue == value
        measure, func = disc.eigenmeasure, disc.eigenfunction
        assert measure.min() >= 0 and measure.sum() == pytest.approx(1.0, abs=1e-9)
        # the kernel is constant over directions, so the eigenfunction is flat
        assert func.max() - func.min() < 1e-9


def test_kappa_tilde_monotone(ex3):
    values = [sl.kappa_tilde(ex3, s, grid_size=64)
              for s in (-2.0, -1.5, -1.0, -0.5, 0.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_kappa_tilde_operator_vs_chain(ex3):
    conditioned = conditioned_chain_model(ex3)
    for i, s in enumerate((-1.5, -1.0, -0.5)):
        op_value = sl.kappa_tilde(ex3, s, grid_size=128)
        chain, se = sl.kappa_estimate(conditioned, s, n=40, trials=40_000,
                                      seed=50 + i)
        assert abs(op_value - chain) <= 3 * se + 1e-6


def test_transfer_eigen_duality(ex3):
    disc = sl.transfer_eigen(sl.discretize_transfer(ex3, -1.0, grid_size=64))
    rng = np.random.default_rng(60)
    for _ in range(5):
        f = rng.uniform(0.5, 2.0, size=64)
        lhs = disc.eigenmeasure @ (disc.operator_matrix @ f)
        rhs = disc.eigenvalue * (disc.eigenmeasure @ f)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_transfer_adjoint_eigenvalue_agrees(ex3):
    disc = sl.transfer_eigen(sl.discretize_transfer(ex3, -0.5, grid_size=64))
    lam_left = (disc.operator_matrix.T @ disc.eigenmeasure).sum()
    assert lam_left == pytest.approx(disc.eigenvalue, rel=1e-8)


def test_transfer_eigen_raises_when_adjoint_stalls():
    # nearly diagonal atoms: the Collatz bounds meet, but after the iteration
    # budget one more adjoint step still moves the eigenmeasure by ~1e-6; the
    # adjoint runs when the eigenmeasure is read
    a = np.array([[1.0, 1e-5], [1e-5, 1.0]])
    spec = sl.ModelSpec(dim=2, kind="ExplicitAtoms",
                        atoms=((0.5, (a,)), (0.5, (a, a, a))))
    disc = sl.transfer_eigen(sl.discretize_transfer(spec, -0.5, grid_size=64))
    with pytest.raises(NoConvergence):
        disc.eigenmeasure


def test_critical_exponent_matches_bisection(ex3):
    oracle = brentq(lambda a: (5 / 2) ** a + (5 / 3) ** a - 4.0, 1e-6, 5.0,
                    xtol=1e-13)
    a0 = sl.critical_exponent(ex3, tol=1e-10)
    assert a0 == pytest.approx(oracle, abs=1e-6)


def test_critical_exponent_none_without_singleton(ex1):
    assert sl.critical_exponent(ex1) is None


def test_critical_exponent_scalar_closed_form():
    # singleton branch 0.25 * identity with probability 1/2:
    # growth rate c^(-a), root at a = log(2) / log(4) = 1/2
    c, p = 0.25, 0.5
    spec = sl.ModelSpec(
        dim=2, kind="ExplicitAtoms",
        atoms=((p, (c * np.eye(2),)), (1 - p, (A1, A2))),
    )
    a0 = sl.critical_exponent(spec, tol=1e-12)
    assert a0 == pytest.approx(0.5, abs=1e-9)


def test_spectral_profile_fields(ex3):
    profile = sl.spectral_profile(
        ex3, s_grid=[-1.0, -0.5, 0.0, 0.5, 1.0],
        chain_n=30, chain_trials=4000, lyap_n=200, lyap_trials=1000,
        grid_size=64, seed=81,
    )
    assert np.allclose(profile.m, 1.5 * profile.kappa)
    assert profile.alpha == pytest.approx(ALPHA_EX3, abs=0.05)
    assert profile.a0 == pytest.approx(0.9457899479870234, abs=1e-6)
    assert set(profile.kappa_tilde) == {-1.0, -0.5, 0.0}
    assert profile.gamma < 0


def test_spectral_profile_shares_chains_across_orders(ex1):
    # on one chain set, n log kappa_hat(s) = log mean exp(s L) is convex in s
    # (Hoelder), up to rounding; independent chains per order are not
    s_grid = np.arange(-1.0, 2.01, 0.25)
    n, seed = 30, 83
    profile = sl.spectral_profile(
        ex1, s_grid=s_grid, chain_n=n, chain_trials=2000, lyap_n=100,
        lyap_trials=500, seed=seed,
    )
    assert np.diff(n * np.log(profile.kappa), 2).min() >= -1e-12
    stream = spawn_generators(seed, len(s_grid) + 2)[-2]
    gamma, gse = sl.lyapunov_estimate(ex1, 100, 500, stream)
    assert profile.gamma == gamma and profile.gamma_stderr == gse
