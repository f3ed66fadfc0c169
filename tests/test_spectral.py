import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

import smoothing_lab as sl
from smoothing_lab import _common, spectral
from smoothing_lab._common import as_generator, spawn_generators
from smoothing_lab.errors import (
    BudgetExceeded,
    FurstenbergKestenViolated,
    NoConvergence,
    NoSingletonBranch,
    OutOfRange,
    SingularDirection,
    WitnessNotFound,
)
from smoothing_lab.spectral import _chain_log_norms, _simplex_lattice

from conftest import A1, A2

# interior moment root of the third bundled model: 0.4^s + 0.6^s = 4/3
ALPHA_EX3 = brentq(lambda s: 0.4**s + 0.6**s - 4.0 / 3.0, 1e-6, 1.0, xtol=1e-14)

B0 = np.array([[0.3, 0.1, 0.2], [0.1, 0.4, 0.1], [0.2, 0.1, 0.2]])
B1 = np.array([[0.1, 0.5, 0.1], [0.3, 0.1, 0.2], [0.1, 0.2, 0.4]])
B2 = np.array([[0.2, 0.2, 0.3], [0.2, 0.3, 0.1], [0.3, 0.1, 0.1]])


def b_model():
    """3-dim model with singleton branches B0 and B1: three chain atoms, so
    4-step words, and a two-atom conditioned law."""
    return sl.ModelSpec(
        dim=3, atoms=((0.3, (B0,)), (0.2, (B1,)), (0.5, (B0, B1, B2))),
    )


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
    spec = sl.ModelSpec(dim=2, n_law=((2, 1.0),), mu_atoms=((1.0, eye),))
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
    return sl.ModelSpec(dim=spec.dim, n_law=((1, 0.5), (2, 0.5)),
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


@pytest.mark.parametrize("name", ["ex3", "b3"])
def test_chain_blocks_match_default(name, monkeypatch):
    # 70 steps: renormalized at 32, 64 and 70, with a tail of 70 mod k
    # single steps (k = 8 for ex3, 4 for b3); blocks of one chain, of 7
    # (straddling the 50 trials) and of every trial give the same bits
    spec = sl.example_model("ex3") if name == "ex3" else b_model()
    law, d = sl.mu_atom_law(spec), spec.dim
    logs = _chain_log_norms(law, 70, 50, seed=12)
    for chains in (1, 7, 1 << 40):
        monkeypatch.setattr(_common, "BLOCK_BYTES", 8 * d * d * chains)
        assert np.array_equal(_chain_log_norms(law, 70, 50, seed=12), logs)


def test_find_alpha_memory_is_bounded_by_the_block():
    # a whole-stack update held the old (3, 3, 40k) product stack, its
    # three rows and the new stack at once: 9.9 MiB traced.  The 40k chains
    # are drawn before the root is sought, which b3 lacks on (0, 1]
    tracemalloc.start()
    try:
        with pytest.raises(WitnessNotFound, match="whole grid"):
            sl.find_alpha(b_model(), seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak


def vanishing_model():
    """Products of the nilpotent atom with itself are the zero matrix."""
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    other = np.array([[0.6, 0.2], [0.3, 0.5]])
    return sl.ModelSpec(dim=2, atoms=((0.5, (nil, nil)), (0.5, (nil, other))))


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
    spec = sl.ModelSpec(dim=2, n_law=((2, 1.0),),
                        mu_atoms=((0.5, q * A1), (0.5, q * A2)))
    oracle = brentq(lambda s: (0.12) ** s + (0.18) ** s - 1.0, 1e-6, 1.0)
    alpha = sl.find_alpha(spec, seed=34)
    assert alpha == pytest.approx(oracle, abs=0.02)


def test_find_alpha_not_found():
    spec = sl.ModelSpec(dim=2, n_law=((2, 1.0),),
                        mu_atoms=((0.5, 2 * A1), (0.5, 2 * A2)))
    with pytest.raises(WitnessNotFound):
        sl.find_alpha(spec, seed=35)


# ---------------------------------------------------------------------------
# transfer operator
# ---------------------------------------------------------------------------


def test_transfer_apply_order_zero(ex3):
    disc = sl.discretize_transfer(ex3, 0.0, grid_size=64)
    out = disc.apply(np.ones(64))
    assert out == pytest.approx(np.ones(64), abs=1e-12)


def test_transfer_apply_example_value(ex3):
    # order -1 at v = (1/2, 1/2): 0.5 (|a1 v|^-1 + |a2 v|^-1) with L1 image
    # norms 0.4 and 0.6, i.e. 25/12 (direct matrix-vector arithmetic)
    disc = sl.discretize_transfer(ex3, -1.0, grid_size=257)
    out = disc.apply(np.ones(257))
    k = 128  # grid midpoint (1/2, 1/2)
    assert _simplex_lattice(2, 257)[0][k] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert out[k] == pytest.approx(25.0 / 12.0, abs=1e-12)


def test_transfer_scalar_atom():
    # singleton branch c * identity acts as multiplication by c^s
    c = 0.5
    spec = sl.ModelSpec(
        dim=2, atoms=((0.5, (c * np.eye(2),)), (0.5, (A1, A2))),
    )
    disc = sl.discretize_transfer(spec, -1.0, grid_size=33)
    f = np.linspace(1.0, 2.0, 33)
    out = disc.apply(f)
    assert out == pytest.approx(f / c, abs=1e-9)


@pytest.mark.parametrize("grid_size", [33, 256])
@pytest.mark.parametrize("s", [-1.0, 0.5])
def test_transfer_exact_on_affine_functions_3d(s, grid_size):
    # linear interpolation reproduces affine grid functions f(v) = c . v, so
    # the gridded operator must equal the finite-atom expectation pointwise
    spec = b_model()
    c = np.array([1.0, -2.0, 0.5])
    disc = sl.discretize_transfer(spec, s, grid_size=grid_size)
    grid = _simplex_lattice(3, grid_size)[0]
    assert grid.shape[0] == disc.idx.shape[0] >= grid_size
    exact = np.zeros(grid.shape[0])
    for p, a in ((0.6, B0), (0.4, B1)):
        img = grid @ a.T
        norms = img.sum(axis=1)
        exact += p * norms**s * ((img / norms[:, None]) @ c)
    assert disc.apply(grid @ c) == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("grid_size", [-1, 0, 1])
def test_transfer_rejects_grid_size_below_two(ex3, dim, grid_size):
    # a 3-dim model used to get a 10-point grid for any grid_size below 2
    spec = ex3 if dim == 2 else sl.ModelSpec(
        dim=3, atoms=((0.5, (B0,)), (0.5, (B1, B2))))
    with pytest.raises(ValueError, match="grid_size"):
        sl.discretize_transfer(spec, -1.0, grid_size=grid_size)


@pytest.mark.parametrize("dim", [2, 3])
def test_transfer_grid_is_charged_before_any_allocation(ex3, dim, monkeypatch):
    # a grid of 1e12 points used to reach numpy's allocator and fail untyped
    spec = ex3 if dim == 2 else sl.ModelSpec(
        dim=3, atoms=((0.5, (B0,)), (0.5, (B1, B2))))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="transfer grid"):
            sl.discretize_transfer(spec, -1.0, grid_size=10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16, peak
    # the gather form's G M d entries are charged against the element
    # budget: ex3 has G = grid_size and two atoms; the 3-dim spec one atom,
    # with G = 21 at grid sizes 16 to 21 and G = 28 at 22
    largest = 16 if dim == 2 else 21
    monkeypatch.setenv("SMOOTHING_LAB_BUDGET", "64")
    sl.discretize_transfer(spec, -1.0, grid_size=largest)
    with pytest.raises(BudgetExceeded):
        sl.discretize_transfer(spec, -1.0, grid_size=largest + 1)


def test_transfer_grid_charge_counts_the_lattice_not_the_request():
    # at d = 12 the smallest lattice has C(23, 11) = 1352078 points, so a
    # grid_size of 2 asks for 1352078 * 12 entries (and once for a lookup
    # table of 13**11 cells)
    d = 12
    spec = sl.ModelSpec(dim=d, atoms=((0.5, (np.full((d, d), 0.5 / d),)),
                                      (0.5, (np.eye(d), np.eye(d)))))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="16224936"):
            sl.discretize_transfer(spec, -1.0, grid_size=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16, peak


@pytest.mark.parametrize("d", range(1, 8))
def test_simplex_lattice_interpolates_every_point(d):
    # whatever the row indexing, each point's corners are grid rows and its
    # weights a convex combination of them that reproduces the point
    grid, m = _simplex_lattice(d, 40)
    rng = np.random.default_rng(d)
    points = rng.dirichlet(np.ones(d), size=300)
    if d > 1:
        points[::3, rng.integers(d)] = 0.0      # points on a face
        points /= points.sum(axis=1, keepdims=True)
    for p in (points, grid):
        idx, w = spectral._interpolation_weights(p, m)
        assert idx.shape == w.shape == p.shape
        assert np.all((idx >= 0) & (idx < grid.shape[0]))
        assert np.all(w >= 0.0)
        assert w.sum(axis=1) == pytest.approx(1.0, abs=1e-12)
        assert np.abs((w[:, :, None] * grid[idx]).sum(axis=1) - p).max() < 1e-12


def test_transfer_grid_memory_is_bounded_by_the_lattice():
    # d = 7 at grid_size 512 has 1716 points; a dense table over the
    # (m + 1)**6 cumulative coordinates traced 23.25 MiB
    rng = np.random.default_rng(3)
    a, b, c = (rng.uniform(0.1, 1.0, size=(7, 7)) / 7 for _ in range(3))
    spec = sl.ModelSpec(dim=7, atoms=((0.5, (a,)), (0.5, (b, c))))
    spectral._transfer_geometry.cache_clear()
    tracemalloc.start()
    try:
        disc = sl.discretize_transfer(spec, -0.5, grid_size=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert disc.idx.shape == (1716, 7)
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("s, error", [
    (float("inf"), ValueError), (float("nan"), ValueError),
    (float("-inf"), ValueError), (2000.0, OutOfRange), (-2000.0, OutOfRange),
])
def test_transfer_orders_out_of_range(ex3, s, error):
    # inf and 2000 gave a spurious kappa_tilde of 0.0, nan and -2000 a
    # stalled power iteration after overflow warnings
    with pytest.raises(error, match="finite" if error is ValueError
                       else "order"):
        sl.discretize_transfer(ex3, s, grid_size=64)


def test_transfer_requires_singleton_branch(ex1):
    with pytest.raises(NoSingletonBranch):
        sl.discretize_transfer(ex1, -1.0, grid_size=16)


def test_transfer_rejects_zero_column_atom():
    bad = np.array([[1.0, 0.0], [0.0, 0.0]])
    spec = sl.ModelSpec(
        dim=2, atoms=((0.5, (bad,)), (0.5, (A1, A2))),
    )
    with pytest.raises(FurstenbergKestenViolated):
        sl.discretize_transfer(spec, -1.0, grid_size=16)


def dense_operator(disc) -> np.ndarray:
    """The (G, G) matrix of the gather form, summed with np.add.at."""
    g = disc.idx.shape[0]
    op = np.zeros((g, g))
    np.add.at(op, (np.arange(g)[:, None], disc.idx), disc.w)
    return op


def dense_reference(spec, s, grid_size) -> np.ndarray:
    """The (G, G) operator built atom by atom from the lattice, as a dense
    matrix, independently of the gather form's geometry."""
    grid, m = _simplex_lattice(spec.dim, grid_size)
    op = np.zeros((grid.shape[0], grid.shape[0]))
    for p, a in sl.conditioned_a1_atoms(spec):
        img = grid @ a.T
        norms = img.sum(axis=1)
        idx, w = spectral._interpolation_weights(img / norms[:, None], m)
        np.add.at(op, (np.arange(grid.shape[0])[:, None], idx),
                  (p * norms ** s)[:, None] * w)
    return op


@pytest.mark.parametrize("name, s, grid_size", [
    ("ex3", -1.0, 64), ("ex3", 0.7, 257), ("b3", -0.5, 100), ("b3", 1.5, 33),
])
def test_transfer_gather_matches_dense(ex3, name, s, grid_size):
    spec = ex3 if name == "ex3" else b_model()
    disc = sl.transfer_eigen(sl.discretize_transfer(spec, s, grid_size))
    op = dense_operator(disc)
    assert np.array_equal(op, dense_reference(spec, s, grid_size))
    rng = np.random.default_rng(grid_size)
    f = rng.uniform(0.5, 2.0, size=op.shape[0])
    assert disc.apply(f) == pytest.approx(op @ f, rel=1e-13)
    assert disc.adjoint(f) == pytest.approx(op.T @ f, rel=1e-13)
    assert disc.eigenvalue == pytest.approx(
        np.linalg.eigvals(op).real.max(), rel=1e-10)
    assert op.T @ disc.eigenmeasure == pytest.approx(
        disc.eigenvalue * disc.eigenmeasure, rel=1e-8)


def test_transfer_geometry_built_once_per_grid(ex3, monkeypatch):
    # every order of the kappa_tilde grid and every gap evaluation of the
    # a0 bisection reuses one geometry: the image directions of all
    # conditioned atoms are interpolated in one call (76 calls when built
    # per order and atom)
    calls = []
    weights = spectral._interpolation_weights

    def counted(*args):
        calls.append(args[0].shape)
        return weights(*args)

    monkeypatch.setattr(spectral, "_interpolation_weights", counted)
    spectral._transfer_geometry.cache_clear()
    sl.spectral_profile(ex3, chain_n=8, chain_trials=100, lyap_n=8,
                        lyap_trials=100, grid_size=96, seed=1)
    assert len(sl.conditioned_a1_atoms(ex3)) == 2
    assert calls == [(2 * 96, 2)]


def test_transfer_geometry_is_read_only(ex3):
    disc = sl.discretize_transfer(ex3, -1.0, grid_size=32)
    with pytest.raises(ValueError, match="read-only"):
        disc.idx[0, 0] = 1
    geometry = spectral._transfer_geometry.cache_info()
    sl.discretize_transfer(ex3, 0.5, grid_size=32)
    assert spectral._transfer_geometry.cache_info().hits == geometry.hits + 1


def test_kappa_tilde_memory_does_not_grow_with_the_grid_squared():
    # a dense (G, G) operator at G = 1035 takes 8.6 MB
    spectral._transfer_geometry.cache_clear()
    tracemalloc.start()
    try:
        sl.kappa_tilde(b_model(), -0.5, grid_size=1035)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def closed_form_ex3(s: float) -> float:
    return (2.0**s + 3.0**s) / (2.0 * 5.0**s)


def test_kappa_tilde_matches_closed_form(ex3):
    for s in (-1.5, -1.0, -0.5, 0.0, 1.0):
        value = sl.kappa_tilde(ex3, s, grid_size=128)
        assert value == pytest.approx(closed_form_ex3(s), abs=1e-9)
        disc = sl.transfer_eigen(sl.discretize_transfer(ex3, s, grid_size=128))
        assert disc.eigenvalue == value
        measure = disc.eigenmeasure
        assert measure.min() >= 0 and measure.sum() == pytest.approx(1.0, abs=1e-9)
        # the kernel is constant over directions, so the eigenfunction is flat
        assert disc.apply(np.ones(128)) == pytest.approx(value, abs=1e-9)
        assert disc.residual < 1e-9


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
        lhs = disc.eigenmeasure @ disc.apply(f)
        rhs = disc.eigenvalue * (disc.eigenmeasure @ f)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_transfer_adjoint_eigenvalue_agrees(ex3):
    disc = sl.transfer_eigen(sl.discretize_transfer(ex3, -0.5, grid_size=64))
    lam_left = disc.adjoint(disc.eigenmeasure).sum()
    assert lam_left == pytest.approx(disc.eigenvalue, rel=1e-8)


def test_transfer_eigen_raises_when_adjoint_stalls():
    # nearly diagonal atoms: the Collatz bounds meet, but after the iteration
    # budget one more adjoint step still moves the eigenmeasure by ~1e-6; the
    # adjoint runs when the eigenmeasure is read
    a = np.array([[1.0, 1e-5], [1e-5, 1.0]])
    spec = sl.ModelSpec(dim=2, atoms=((0.5, (a,)), (0.5, (a, a, a))))
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
        dim=2, atoms=((p, (c * np.eye(2),)), (1 - p, (A1, A2))),
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
