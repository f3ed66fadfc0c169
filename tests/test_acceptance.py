"""Acceptance gate: one test per verification item, each printing a summary
line with the measured quantities and asserting its stated tolerance and
runtime budget.

Two sub-clauses concerning the third bundled model are provably
unattainable and are marked strict-xfail rather than weakened; the module
docstrings of the tests state the arithmetic. Everything else must pass.
"""
import time

import numpy as np
import pytest
from scipy.optimize import brentq

import smoothing_lab as sl
from smoothing_lab.errors import WitnessNotFound

from conftest import A1, A2

A0_ORACLE = brentq(lambda a: (5 / 2) ** a + (5 / 3) ** a - 4.0, 1e-6, 5.0,
                   xtol=1e-13)
ALPHA_EX3_ORACLE = brentq(lambda s: 0.4**s + 0.6**s - 4.0 / 3.0, 1e-6, 1.0,
                          xtol=1e-14)


def closed_form_growth_rate(s: float) -> float:
    return (2.0**s + 3.0**s) / (2.0 * 5.0**s)


# ---------------------------------------------------------------------------
# A1: exact spectral identities
# ---------------------------------------------------------------------------


def test_a01_exact_spectral_identities(ex1, ex2):
    start = time.perf_counter()
    r = sl.spectral_radius(sl.mean_sum_matrix(ex1))
    assert abs(r - 1.0) <= 1e-12
    m1_ex1 = sl.expected_n(ex1) * sl.kappa_one_exact(ex1)
    m1_ex2 = sl.expected_n(ex2) * sl.kappa_one_exact(ex2)
    assert abs(m1_ex1 - 1.0) <= 1e-12
    assert abs(m1_ex2 - 1.0) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"[A1] PASS r(sum)={r:.15f} m(1)={m1_ex1:.15f},{m1_ex2:.15f} "
          f"({elapsed:.2f}s)")


@pytest.mark.xfail(
    strict=True,
    reason="the third bundled model has E[N] = 3/2 and kappa(1) = 1/2, so "
           "E[N] kappa(1) = 3/4; the unit-mean identity cannot hold for it "
           "(it does for the first two models)",
)
def test_a01_unit_mean_identity_third_model(ex3):
    m1_ex3 = sl.expected_n(ex3) * sl.kappa_one_exact(ex3)
    print(f"[A1-ex3] measured E[N] kappa(1) = {m1_ex3!r}")
    assert abs(m1_ex3 - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# A2: transfer-operator growth rate against the closed form
# ---------------------------------------------------------------------------


def test_a02_transfer_growth_rate_closed_form(ex3):
    start = time.perf_counter()
    worst = 0.0
    for s in (-1.5, -1.0, -0.5, 0.0, 1.0):
        value = sl.kappa_tilde(ex3, s, grid_size=512)
        worst = max(worst, abs(value - closed_form_growth_rate(s)))
        assert abs(value - closed_form_growth_rate(s)) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[A2] PASS max deviation {worst:.2e} over five orders "
          f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# A3: critical harmonic-moment exponent
# ---------------------------------------------------------------------------


def test_a03_critical_exponent(ex3):
    start = time.perf_counter()
    a0 = sl.critical_exponent(ex3, tol=1e-10)
    assert a0 is not None
    assert abs(a0 - A0_ORACLE) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[A3] PASS a0={a0:.10f} oracle={A0_ORACLE:.10f} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# A4: Lyapunov exponent and the mean-offspring bound
# ---------------------------------------------------------------------------


def test_a04_lyapunov_estimate_and_bound(ex1):
    start = time.perf_counter()
    gamma, stderr = sl.lyapunov_estimate(ex1, n=1000, trials=10_000, seed=21)
    target = 0.5 * np.log(6.0 / 25.0)
    assert abs(gamma - target) <= 0.02
    assert gamma + 3 * stderr < -np.log(2.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"[A4] PASS gamma={gamma:.6f}±{stderr:.1e} target={target:.6f} "
          f"bound=-log2={-np.log(2):.6f} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# A5: support cone containment and coverage
# ---------------------------------------------------------------------------


def test_a05_support_cone(ex1):
    start = time.perf_counter()
    pool, _ = sl.run_fixed_point(ex1, k=100_000, rounds=50, seed=1001)
    hull = sl.cone_hull(np.array([[0.5, 0.5], [1 / 3, 2 / 3]]))
    frac, gaps = sl.empirical_support_check(pool, hull, tol=1e-9)
    assert frac == 1.0
    assert gaps.max() < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"[A5] PASS inside={frac} gaps={gaps.max():.3g} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# A6: small and large radius witnesses
# ---------------------------------------------------------------------------


def test_a06_radius_witnesses(ex1, ex2):
    start = time.perf_counter()
    small1, large1 = sl.find_l1_l2(ex1, depth_budget=3)
    assert abs(small1.radius - 0.8) <= 1e-9
    assert abs(large1.radius - 1.2) <= 1e-9
    assert small1.matrix.min() > 0 and large1.matrix.min() > 0
    small2, large2 = sl.find_l1_l2(ex2, depth_budget=3)
    assert small2.matrix.min() > 0 and large2.matrix.min() > 0
    assert small2.radius <= 1 - 1e-9 < 1 + 1e-9 <= large2.radius
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"[A6] PASS radii ex1=({small1.radius:.3f},{large1.radius:.3f}) "
          f"ex2=({small2.radius:.3f},{large2.radius:.3f}) ({elapsed:.2f}s)")


@pytest.mark.xfail(
    strict=True,
    reason="every branch-sum realization of the third model has operator "
           "norm at most one, hence every cover-set product sum has spectral "
           "radius at most one: no strictly expanding witness exists at any "
           "depth (a small-radius witness does exist)",
)
def test_a06_radius_witnesses_third_model(ex3):
    res = sl.search_radius_witnesses(ex3, depth_budget=3)
    print(f"[A6-ex3] small={None if res.small is None else res.small.radius} "
          f"large={None if res.large is None else res.large.radius}")
    small3, large3 = sl.find_l1_l2(ex3, depth_budget=3)
    assert small3.matrix.min() > 0 and large3.matrix.min() > 0


# ---------------------------------------------------------------------------
# A7: greedy expansion reconstruction
# ---------------------------------------------------------------------------


def test_a07_greedy_expansion():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(0.5, 0.95)
        x = rng.uniform(0.0, theta / (1.0 - theta))
        bits = sl.dyadic_expand(x, theta, 60)
        partial = 0.0
        power = 1.0
        for b in bits:
            power *= theta
            partial += b * power
            assert partial <= x
        err = x - partial
        assert err <= theta**60 / (1.0 - theta)
        worst = max(worst, err / (theta**60 / (1.0 - theta)))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"[A7] PASS worst error ratio {worst:.3f} of the bound "
          f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# A8: projective-metric property suite
# ---------------------------------------------------------------------------


def test_a08_projective_metric_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(88)

    # ten thousand random direction pairs across dimensions two and three
    for d in (2, 3):
        X = rng.dirichlet(np.ones(d), size=5000)
        Y = rng.dirichlet(np.ones(d), size=5000)
        for x, y in zip(X, Y):
            dist = sl.hennion_distance(x, y)
            assert dist <= 1.0
            assert np.abs(x - y).sum() <= 2.0 * dist + 1e-12

    # one thousand strictly positive matrices, ten pairs each
    for _ in range(1000):
        d = int(rng.integers(2, 4))
        g = rng.uniform(0.05, 1.0, size=(d, d))
        bound = sl.birkhoff_bound(g)
        for _ in range(10):
            x = rng.dirichlet(np.ones(d))
            y = rng.dirichlet(np.ones(d))
            base = sl.hennion_distance(x, y)
            image = sl.hennion_distance(
                sl.project_direction(g, x), sl.project_direction(g, y)
            )
            assert image <= bound * base + 1e-9

    # submultiplicativity of the estimated coefficients
    for _ in range(300):
        d = int(rng.integers(2, 4))
        g1 = rng.uniform(0.05, 1.0, size=(d, d))
        g2 = rng.uniform(0.05, 1.0, size=(d, d))
        c1 = sl.contraction_coefficient(g1, pairs=64)
        c2 = sl.contraction_coefficient(g2, pairs=64)
        c12 = sl.contraction_coefficient(g1 @ g2, pairs=64)
        assert c12 <= c1 * c2 + 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[A8] PASS metric suite on 10^4 pairs / 10^3 matrices "
          f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# A9: tree martingale mean
# ---------------------------------------------------------------------------


def test_a09_martingale_mean(ex1):
    start = time.perf_counter()
    W = sl.martingale_samples(ex1, depth=12, trials=10_000, seed=42)
    mean = W.mean(axis=0)
    se = W.std(axis=0, ddof=1) / np.sqrt(W.shape[0])
    target = np.array([0.4, 0.6])
    assert np.all(np.abs(mean - target) <= 4.0 * se)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"[A9] PASS mean={mean} dev/se={(mean - target) / se} "
          f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# A10: decay of the empirical characteristic function
# ---------------------------------------------------------------------------


def test_a10_ecf_decay_evidence(ex2):
    start = time.perf_counter()
    probes = sl.sphere_grid(2, 128)
    stats = sl.kill_counts(ex2, probes, np.array([0.0]))
    floor = stats.means[:, 0].min()
    assert floor >= 2.0

    pool, _ = sl.run_fixed_point(ex2, k=100_000, rounds=50, seed=1002)
    curve = sl.transform_curve(pool, max_exp=14, n_probes=32)
    assert curve.radii[-1] == 2.0**14
    assert curve.modulus[-1] < 0.2
    a_hat, (lo, hi) = sl.decay_fit(curve, seed=3)
    assert lo > 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"[A10] PASS min E[N(t)]={floor} |phi|@2^14={curve.modulus[-1]:.4f} "
          f"a_hat={a_hat:.3f} ci=({lo:.3f},{hi:.3f}) ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# A11: harmonic-moment phase split and the small-ball exponent
# ---------------------------------------------------------------------------


def test_a11_harmonic_phase_split(ex3):
    start = time.perf_counter()
    k = 1_000_000
    seed_pool, seed_rounds = 500011, 11
    init = sl.heavy_tail_pool(ex3, k, ALPHA_EX3_ORACLE, seed=seed_pool)
    pool, _ = sl.run_fixed_point(ex3, k=k, rounds=25, seed=seed_rounds,
                                 initial_pool=init)
    # fixed points form a scale family; the tail fits take their radii from
    # quantiles of the pool, so the verdicts below do not depend on this scale
    med = float(np.median(pool.norms()))
    pool = sl.SamplePool(dim=2, samples=pool.samples * (1e-3 / med))

    value04, stable04 = sl.harmonic_moment(pool, b=0.4)
    value15, stable15 = sl.harmonic_moment(pool, b=1.5)
    assert stable04 is True
    assert stable15 is False

    norms = pool.norms()
    eps = np.geomspace(np.quantile(norms, 2e-4), np.quantile(norms, 2e-2), 8)
    slope, _ = sl.small_ball_exponent(pool, eps, seed=1)
    assert abs(slope - A0_ORACLE) <= 0.15
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"[A11] PASS stable(0.4)={stable04} stable(1.5)={stable15} "
          f"slope={slope:.4f} a0={A0_ORACLE:.4f} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# A12: strict monotonicity of the spectral radius
# ---------------------------------------------------------------------------


def test_a12_radius_monotonicity():
    start = time.perf_counter()
    rng = np.random.default_rng(1212)
    for _ in range(10_000):
        d = int(rng.integers(2, 6))
        a = rng.uniform(0.0, 1.0, size=(d, d))
        a[rng.uniform(size=(d, d)) < 0.5] = 0.0
        b = rng.uniform(0.0, 1.0, size=(d, d))
        b[rng.uniform(size=(d, d)) < 0.5] = 0.0
        s = a + b
        zero = s == 0
        b[zero] = rng.uniform(0.05, 1.0, size=int(zero.sum()))
        if not b.any():
            b[0, 0] = 0.5
        assert sl.spectral_radius(a) < sl.spectral_radius(a + b)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"[A12] PASS 10^4 strict comparisons ({elapsed:.2f}s)")
