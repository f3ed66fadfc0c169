import functools
import operator
import tracemalloc

import numpy as np
import pytest

import smoothing_lab as sl
from smoothing_lab import _common, diagnostics
from smoothing_lab.errors import EmptyTail, InsufficientDecay

from conftest import A1, A2


def constant_pool(vec, k=500):
    return sl.SamplePool(dim=len(vec), samples=np.tile(vec, (k, 1)))


@pytest.fixture(scope="module")
def pool_ex2(ex2):
    pool, _ = sl.run_fixed_point(ex2, k=20_000, rounds=40, seed=91)
    return pool


# ---------------------------------------------------------------------------
# characteristic function: the transform curve
# ---------------------------------------------------------------------------


def test_ecf_at_zero():
    # a pool at the origin has characteristic function 1 at every radius
    pool = constant_pool(np.zeros(2))
    curve = sl.transform_curve(pool)
    assert np.array_equal(curve.modulus, np.ones(15))
    assert curve.stderr == pytest.approx(1 / np.sqrt(pool.size))


def test_ecf_constant_pool():
    # |exp(i r t.z0)| = 1 for a point mass, whatever the probe and radius;
    # each of the 14 squarings doubles the rounding error of radius 1
    curve = sl.transform_curve(constant_pool(np.array([0.3, 1.1])))
    np.testing.assert_allclose(curve.modulus, 1.0, rtol=0, atol=2**14 * 1e-15)


def test_ecf_conjugate_symmetry(small_pool_ex1):
    # the probes (1, 0) and its antipode give conjugate transforms, so adding
    # the antipode does not move the sup-modulus
    one = sl.transform_curve(small_pool_ex1, n_probes=1)
    both = sl.transform_curve(small_pool_ex1, n_probes=2)
    assert both.probe_directions[1] == pytest.approx(-one.probe_directions[0])
    np.testing.assert_allclose(both.modulus, one.modulus, rtol=0, atol=1e-12)
    assert np.all(one.modulus <= 1.0)


def test_ecf_far_field_small(pool_ex2):
    # at radius 256 the transform has already flattened out
    curve = sl.transform_curve(pool_ex2, max_exp=8)
    assert curve.modulus[-1] < 0.2


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("max_exp", [0, 14])
def test_transform_curve_matches_per_radius_exp(pool_ex2, dim, max_exp):
    # the squared ladder against one exp per radius on the same phases
    if dim == 2:
        pool = pool_ex2
    else:
        rng = np.random.default_rng(5)
        pool = sl.SamplePool(dim=3, samples=rng.exponential(size=(2000, 3)))
    curve = sl.transform_curve(pool, max_exp=max_exp)
    radii = 2.0 ** np.arange(max_exp + 1)
    phases = pool.samples @ curve.probe_directions.T
    ref = [np.abs(np.exp(1j * r * phases).mean(axis=0)).max() for r in radii]
    assert np.array_equal(curve.radii, radii)
    assert curve.probe_directions.shape[0] == (32 if dim == 2 else 128)
    np.testing.assert_allclose(curve.modulus, ref, rtol=0, atol=1e-12)


def _unblocked_modulus(pool, probes, max_exp=14):
    # one exp over the whole (K, P) phase array, squared in place; each
    # phase adds its coordinate terms in index order
    phases = pool.samples[:, :1] * probes[:, 0]
    for j in range(1, pool.dim):
        phases += pool.samples[:, j:j + 1] * probes[:, j]
    e = np.exp(1j * phases)
    modulus = np.empty(max_exp + 1)
    for i in range(max_exp + 1):
        modulus[i] = np.abs(e.mean(axis=0)).max()
        if i < max_exp:
            np.square(e, out=e)
    return modulus


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("size", [
    lambda b: 1, lambda b: b - 1, lambda b: b, lambda b: b + 1,
    lambda b: 3 * b + 5,
], ids=["1", "block-1", "block", "block+1", "3block+5"])
def test_transform_curve_blocks_match_unblocked_mean(dim, size):
    # row blocks carry each radius's running sum in pool order, so the curve
    # is the unblocked mean bit for bit, a lone last row included
    n_probes = 32 if dim == 2 else 128
    block = _common.BLOCK_BYTES // (16 * n_probes)
    rng = np.random.default_rng(dim)
    pool = sl.SamplePool(dim=dim,
                         samples=rng.exponential(size=(size(block), dim)))
    curve = sl.transform_curve(pool)
    assert np.array_equal(curve.modulus,
                          _unblocked_modulus(pool, curve.probe_directions))


def test_transform_curve_memory_does_not_grow_with_the_pool():
    # an unblocked (K, P) complex array would take 200k * 32 * 16 B = 102 MB
    rng = np.random.default_rng(0)
    pool = sl.SamplePool(dim=2, samples=rng.exponential(size=(200_000, 2)))
    tracemalloc.start()
    try:
        sl.transform_curve(pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_transform_curve_rejects_negative_max_exp(small_pool_ex1):
    with pytest.raises(ValueError, match="max_exp"):
        sl.transform_curve(small_pool_ex1, max_exp=-1)


@pytest.mark.parametrize("max_exp", [37, 60, 1100])
def test_transform_curve_rejects_max_exp_past_the_cap(small_pool_ex1,
                                                      max_exp):
    # 60 squarings wrote sup moduli up to 1e59, and 1100 overflowed
    with pytest.raises(ValueError, match="max_exp"):
        sl.transform_curve(small_pool_ex1, max_exp=max_exp)


def test_transform_curve_at_the_cap_stays_a_modulus(small_pool_ex1):
    curve = sl.transform_curve(small_pool_ex1, max_exp=36)
    assert curve.radii[-1] == 2.0 ** 36
    assert curve.modulus.max() <= 1.0 + 1e-5


def test_decay_fit_exact_power_law():
    radii = 2.0 ** np.arange(0, 12)
    curve = sl.TransformCurve(
        radii=radii, probe_directions=np.eye(2),
        modulus=np.minimum(1.0, 1.0 / radii), stderr=0.0,
    )
    a_hat, (lo, hi) = sl.decay_fit(curve)
    assert a_hat == pytest.approx(1.0, abs=1e-12)
    assert hi - lo < 1e-10


def test_decay_fit_half_slope():
    radii = 2.0 ** np.arange(0, 15)
    curve = sl.TransformCurve(
        radii=radii, probe_directions=np.eye(2),
        modulus=np.minimum(1.0, 5.0 * radii**-0.5), stderr=0.0,
    )
    a_hat, (lo, hi) = sl.decay_fit(curve)
    assert lo <= 0.5 <= hi
    assert a_hat == pytest.approx(0.5, abs=0.05)


def in_order_slope(x, y):
    # sum (x - xbar)(y - ybar) / sum (x - xbar)^2, each sum added in index
    # order
    dx = x - x.mean()
    dy = y - functools.reduce(operator.add, y) / y.size
    return (functools.reduce(operator.add, dx * dy)
            / functools.reduce(operator.add, dx * dx))


@pytest.mark.parametrize("seed", [0, 7])
def test_decay_fit_matches_per_resample_loop(seed):
    # one (500, n) draw and one slope per column against a draw and a fit
    # per resample: the same draws and the same sums, so the same bits
    radii = 2.0 ** np.arange(0, 15)
    noise = np.random.default_rng(seed).normal(scale=0.2, size=radii.size)
    curve = sl.TransformCurve(
        radii=radii, probe_directions=np.eye(2),
        modulus=np.minimum(0.8, 3.0 * radii**-0.7 * np.exp(noise)), stderr=0.0,
    )
    a_hat, (lo, hi) = sl.decay_fit(curve, seed=seed)

    x, y = np.log(radii), np.log(curve.modulus)   # every radius is fitted
    slope = in_order_slope(x, y)
    resid = y - slope * x
    resid -= resid.mean()
    rng = np.random.Generator(np.random.Philox(seed))  # as decay_fit seeds it
    boots = np.empty(500)
    for b in range(500):
        # the slope is linear: a resample's is the fit's plus its residuals'
        eb = rng.choice(resid, size=resid.size, replace=True)
        boots[b] = -(slope + in_order_slope(x, eb))
    ref_lo, ref_hi = np.quantile(boots, [0.025, 0.975])
    assert a_hat == -slope
    assert (lo, hi) == (min(ref_lo, a_hat), max(ref_hi, a_hat))


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_slope_matches_lstsq(seed):
    # the in-order closed form against LAPACK's least-squares solve, on
    # lines with slopes away from zero
    rng = np.random.default_rng(seed)
    n, m = rng.integers(5, 16), rng.integers(1, 501)
    x = rng.uniform(0.0, 10.0, size=n)
    slopes = rng.choice([-1, 1], size=m) * rng.uniform(0.2, 3.0, size=m)
    y = (rng.normal(size=m) + slopes * x[:, None]
         + rng.normal(scale=0.2, size=(n, m)))
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    np.testing.assert_allclose(diagnostics._slope(x, y), coef[0],
                               rtol=1e-12, atol=0)


def test_decay_fit_insufficient():
    radii = 2.0 ** np.arange(0, 10)
    curve = sl.TransformCurve(
        radii=radii, probe_directions=np.eye(2),
        modulus=np.full_like(radii, 0.95), stderr=0.0,
    )
    with pytest.raises(InsufficientDecay):
        sl.decay_fit(curve)


# ---------------------------------------------------------------------------
# survival counts
# ---------------------------------------------------------------------------


def test_kill_counts_ex2_floor(ex2):
    probes = sl.sphere_grid(2, 64)
    stats = sl.kill_counts(ex2, probes, np.array([0.0]))
    assert stats.means[:, 0].min() >= 2.0


def test_kill_counts_ex1_degenerate_probe(ex1):
    # probe orthogonal to the first eigen-direction: the (a1, a1) branch
    # kills it entirely, so the count law charges zero with probability 1/4
    stats = sl.kill_counts(ex1, np.array([[1.0, -1.0]]), np.array([0.0]))
    law = stats.counts[0][0]
    assert law.get(0) == pytest.approx(0.25)
    assert stats.means[0, 0] == pytest.approx(1.0)


def test_kill_counts_dusty_kernel_probe(ex1):
    # the 128-point grid hits the 315-degree direction with one ulp of
    # rounding noise; the zero test must still see the kernel of a1^T there
    probes = sl.sphere_grid(2, 128)
    k = 112  # angle 315 degrees, direction proportional to (1, -1)
    assert probes[k] == pytest.approx([0.5, -0.5], abs=1e-12)
    stats = sl.kill_counts(ex1, probes, np.array([0.0]))
    assert stats.means[k, 0] == pytest.approx(1.0)
    assert stats.means[:, 0].min() == pytest.approx(1.0)


def test_kill_counts_large_threshold(ex2):
    stats = sl.kill_counts(ex2, np.array([[1.0, 0.5]]), np.array([100.0]))
    assert stats.means[0, 0] == 0.0
    assert stats.counts[0][0] == {0: pytest.approx(1.0)}


def test_kill_counts_monotone_in_threshold(ex2):
    deltas = np.array([0.0, 0.01, 0.05, 0.2, 1.0])
    stats = sl.kill_counts(ex2, sl.sphere_grid(2, 16), deltas)
    assert np.all(np.diff(stats.means, axis=1) <= 1e-12)


def test_kill_counts_scale_invariant(ex2):
    t = np.array([[0.3, -0.7]])
    a = sl.kill_counts(ex2, t, np.array([0.0, 0.1]))
    b = sl.kill_counts(ex2, 3.0 * t, np.array([0.0, 0.1]))
    assert np.array_equal(a.means, b.means)


def iid3_model():
    mats = np.random.default_rng(3).uniform(0.0, 1.0, size=(3, 3, 3))
    mats[0, 1] = 0.0   # a zero row: some probes die on this matrix
    return sl.ModelSpec(dim=3, n_law=((1, 0.2), (2, 0.5), (3, 0.3)),
                        mu_atoms=tuple(zip((0.5, 0.3, 0.2), mats)))


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "iid3"])
def test_kill_counts_matches_reference_loop(name, request):
    # branch by branch over the expanded law, accumulating each count law
    # in atom order: the means must agree to the last bit
    spec = iid3_model() if name == "iid3" else request.getfixturevalue(name)
    probes = sl.sphere_grid(spec.dim, 24)
    deltas = np.array([0.0, 1e-3, 0.1, 0.5])
    stats = sl.kill_counts(spec, probes, deltas)
    for i, t in enumerate(probes):
        laws = [dict() for _ in deltas]
        for p, br in sl.explicit_atoms(spec):
            # a^T t with its terms added in index order
            vals = np.array([np.abs(functools.reduce(
                operator.add, (t[j] * a[j] for j in range(t.size)))).sum()
                for a in br])
            for law, dlt in zip(laws, deltas):
                c = int((vals > (dlt + 1e-12) * np.abs(t).sum()).sum())
                law[c] = law.get(c, 0.0) + p
        assert [list(law.items()) for law in laws] == \
            [list(law.items()) for law in stats.counts[i]]
        means = [sum(k * q for k, q in law.items()) for law in laws]
        assert np.array_equal(stats.means[i], means)


def test_kill_counts_at_an_exact_threshold(ex2):
    # at delta = 0.1, the 0.25-scaled first base matrix A of ex2 has
    # |A^T t| = delta |t| exactly for every t >= 0, and the second one at
    # t = (1, 0): both are dead there, however the sums round, so the mean
    # is 0.5 * 3 + 0.5 * 2 where t_1 > 0 and 0.5 * 3 + 0.5 * 1 at (1, 0)
    probes = sl.sphere_grid(2, 128)
    first = np.flatnonzero((probes >= 0).all(axis=1))
    assert first.tolist() == list(range(33))
    stats = sl.kill_counts(ex2, probes[first], np.array([0.1]))
    assert stats.means[:, 0].tolist() == [2.0] + [2.5] * 32


def test_largest_stable_delta(ex2):
    # the largest threshold at which every probe keeps more than 1.5
    # surviving branches on average
    deltas = np.array([0.0, 1e-3, 1e-2, 0.5])
    stats = sl.kill_counts(ex2, sl.sphere_grid(2, 32), deltas)
    mins = stats.min_mean_per_delta()
    assert np.array_equal(mins, stats.means.min(axis=0))
    assert deltas[mins > 1.5].max() >= 1e-3


# ---------------------------------------------------------------------------
# harmonic moments and the small-ball exponent
# ---------------------------------------------------------------------------


def test_harmonic_moment_constant_pool():
    pool = constant_pool(np.array([1.0, 1.0]))  # |z| = 2
    value, finite = sl.harmonic_moment(pool, b=1.0)
    assert value == pytest.approx(0.5, abs=1e-15)
    assert finite is None           # a point mass resolves no tail


def test_tail_verdicts_do_not_depend_on_the_pool_scale(ex3):
    # the problem fixes no scale: at a fixed absolute floor ladder b = 0.4
    # (a finite moment) read unstable at scale 1e-6, and b = 1.5 (an
    # infinite one) stable at scale 1e3
    init = sl.heavy_tail_pool(ex3, 200_000, 0.5779, seed=11)
    pool, _ = sl.run_fixed_point(ex3, k=200_000, rounds=25, seed=11,
                                 initial_pool=init)
    slope, ci = sl.small_ball_exponent(pool)
    values = {b: sl.harmonic_moment(pool, b)[0] for b in (0.4, 1.5)}
    for c in (1e-6, 1.0, 1e3):
        scaled = sl.SamplePool(dim=2, samples=pool.samples * c)
        slope_c, ci_c = sl.small_ball_exponent(scaled)
        assert slope_c == pytest.approx(slope, rel=1e-9)
        assert ci_c == pytest.approx(ci, rel=1e-9)
        for b, finite in ((0.4, True), (1.5, False)):
            value, verdict = sl.harmonic_moment(scaled, b)
            assert verdict is finite
            assert value == pytest.approx(c ** -b * values[b], rel=1e-9)


def test_small_ball_uniform_slope():
    rng = np.random.default_rng(15)
    u = rng.uniform(0.0, 1.0, size=200_000)
    pool = sl.SamplePool(dim=2, samples=np.stack([u, np.zeros_like(u)], axis=1))
    slope, (lo, hi) = sl.small_ball_exponent(pool, np.geomspace(1e-3, 0.3, 8))
    assert slope == pytest.approx(1.0, abs=0.05)
    assert lo <= 1.0 <= hi


def test_small_ball_resampled_counts_match_resampling():
    # the bootstrap draws a resample's counts at the radii from one
    # multinomial over the bins they cut; resampling the norms and counting
    # them has the same law: per radius, mean k p and variance k p (1 - p)
    rng = np.random.default_rng(21)
    norms = np.sort(rng.exponential(size=400))
    k = norms.size
    eps = np.geomspace(0.01, 1.0, 6)
    counts = np.searchsorted(norms, eps, side="right")
    n = 4000
    drawn = diagnostics._resampled_counts(counts, k, rng, n)
    resampled = np.array([
        np.searchsorted(np.sort(rng.choice(norms, size=k)), eps, side="right")
        for _ in range(n)])
    p = counts / k
    for x in (drawn, resampled):
        mean, var = x.mean(axis=0), x.var(axis=0, ddof=1)
        # standard errors of the sample mean and of the sample variance
        se_mean = np.sqrt(var / n)
        se_var = np.sqrt((((x - mean) ** 4).mean(axis=0) - var ** 2) / n)
        assert np.all(np.abs(mean - k * p) <= 4 * se_mean)
        assert np.all(np.abs(var - k * p * (1 - p)) <= 4 * se_var)
    se_diff = np.sqrt((drawn.var(axis=0) + resampled.var(axis=0)) / n)
    assert np.all(np.abs(drawn.mean(axis=0) - resampled.mean(axis=0))
                  <= 4 * se_diff)


def test_small_ball_empty_tail():
    pool = constant_pool(np.array([2.0, 2.0]))
    with pytest.raises(EmptyTail):
        sl.small_ball_exponent(pool, np.geomspace(1e-4, 1e-1, 6))
    # a point mass collapses the quantile grid to one radius, where the
    # singular fit gave a spurious slope 0.0
    with pytest.raises(EmptyTail):
        sl.small_ball_exponent(constant_pool(np.array([1.0, 1.0]), 1000))


NAN = float("nan")


@pytest.mark.parametrize("call", [
    pytest.param(lambda spec, pool: sl.kill_counts(spec, [[NAN, 1.0]], [0.0]),
                 id="kill_counts-probe"),
    pytest.param(lambda spec, pool: sl.kill_counts(spec, [[.5, .5]], [NAN]),
                 id="kill_counts-threshold"),
    pytest.param(lambda spec, pool: sl.survival_counts(spec, [[NAN, 1.0]], 2,
                                                       seed=0),
                 id="survival_counts-probe"),
    pytest.param(lambda spec, pool: sl.small_ball_exponent(pool, [NAN, 1.0]),
                 id="small_ball_exponent-eps"),
    pytest.param(lambda spec, pool: sl.small_ball_exponent(pool, []),
                 id="small_ball_exponent-empty"),
])
def test_non_finite_inputs_are_rejected(call, ex2):
    # a nan probe or threshold gave a spurious zero mean or all-zero counts,
    # a nan radius an untyped LinAlgError from the fit, and an empty grid
    # an IndexError
    pool = sl.SamplePool(dim=2, samples=np.random.default_rng(0).uniform(
        size=(500, 2)))
    with pytest.raises(ValueError, match="finite"):
        call(ex2, pool)
