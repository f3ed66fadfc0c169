import csv
import io

import numpy as np
import pytest

import smoothing_lab as sl
from smoothing_lab import cascade
from smoothing_lab._common import as_generator, spawn_generators
from smoothing_lab.errors import SupercriticalBlowup

from conftest import A1, A2


def test_iterate_pool_fixes_zero(ex1):
    pool = sl.SamplePool(dim=2, samples=np.zeros((100, 2)))
    new = sl.iterate_pool(ex1, pool, seed=4)
    assert not new.samples.any()
    assert new.generation == 1


def test_iterate_pool_scalar_fixed_point():
    half = np.array([[0.5]])
    spec = sl.ModelSpec(dim=1, kind="ExplicitAtoms", atoms=((1.0, (half, half)),))
    pool = sl.constant_pool(np.array([1.0]), 50)
    new = sl.iterate_pool(spec, pool, seed=8)
    assert np.array_equal(new.samples, pool.samples)


def test_iterate_pool_deterministic(ex2):
    pool = sl.constant_pool(np.array([0.4, 0.6]), 500)
    a = sl.iterate_pool(ex2, pool, seed=123)
    b = sl.iterate_pool(ex2, pool, seed=123)
    assert np.array_equal(a.samples, b.samples)
    c = sl.iterate_pool(ex2, pool, seed=124)
    assert not np.array_equal(a.samples, c.samples)


def test_iterate_pool_scale_equivariant(ex1):
    base = sl.constant_pool(np.array([0.4, 0.6]), 200)
    doubled = sl.constant_pool(np.array([0.8, 1.2]), 200)
    a = sl.iterate_pool(ex1, base, seed=9)
    b = sl.iterate_pool(ex1, doubled, seed=9)
    assert np.array_equal(2.0 * a.samples, b.samples)


@pytest.mark.parametrize("name", ["ex1", "ex3"])
def test_iterate_pool_matches_reference_loop(name, request):
    # row by row over the same draws: one atom per row, then one resampled
    # parent per edge, edges in row order and then branch order
    spec = request.getfixturevalue(name)
    atoms = sl.explicit_atoms(spec)
    old = sl.heavy_tail_pool(spec, 300, 1.5, seed=5).samples
    for seed in range(3):
        new = sl.iterate_pool(spec, sl.SamplePool(dim=spec.dim, samples=old),
                              seed=seed).samples
        rng = as_generator(seed)
        draws = rng.choice(len(atoms), size=len(old), p=[p for p, _ in atoms])
        picks = iter(rng.integers(0, len(old),
                                  size=sum(len(atoms[b][1]) for b in draws)))
        ref = np.array([sum(a @ old[next(picks)] for a in atoms[b][1])
                        for b in draws])
        assert np.allclose(new, ref, rtol=1e-13, atol=0.0)


def test_iterate_pool_samples_stay_in_cone(ex1):
    pool = sl.constant_pool(np.array([0.4, 0.6]), 2000)
    for seed in range(50):
        pool = sl.iterate_pool(ex1, pool, seed=seed)
    dirs = pool.nonzero_directions()
    assert dirs.shape[0] == pool.size
    x = dirs[:, 0]
    assert x.min() >= 1 / 3 - 1e-12
    assert x.max() <= 0.5 + 1e-12


def test_run_fixed_point_zero_rounds(ex1):
    pool, history = sl.run_fixed_point(ex1, k=10, rounds=0, init=[1.0, 2.0], seed=0)
    assert np.array_equal(pool.samples, np.tile([1.0, 2.0], (10, 1)))
    assert history.shape == (1,)


def test_run_fixed_point_preserves_mean_direction(ex1):
    # the scale of the pool mean performs an unresisted random walk along the
    # unit-eigenvalue direction, so only the componentwise ratio is pinned
    pool, history = sl.run_fixed_point(ex1, k=50_000, rounds=30, seed=77)
    mean = pool.samples.mean(axis=0)
    se = pool.samples.std(axis=0, ddof=1) / np.sqrt(pool.size)
    ratios = mean / np.array([0.4, 0.6])
    se_ratio = se / np.array([0.4, 0.6])
    assert abs(ratios[0] - ratios[1]) <= 3 * np.hypot(*se_ratio)
    # per-round means hover near 1 (the mean matrix has unit radius)
    assert np.abs(history - 1.0).max() < 0.05


def test_iterate_pool_one_round_conditional_mean(ex1):
    # one round: E[new sample | pool] equals the mean sum matrix applied to
    # the pool mean; the innovation is an i.i.d. average given the old pool
    pool, _ = sl.run_fixed_point(ex1, k=50_000, rounds=5, seed=79)
    new = sl.iterate_pool(ex1, pool, seed=80)
    target = sl.mean_sum_matrix(ex1) @ pool.samples.mean(axis=0)
    se = new.samples.std(axis=0, ddof=1) / np.sqrt(new.size)
    assert np.all(np.abs(new.samples.mean(axis=0) - target) <= 4 * se)


def test_run_fixed_point_positive_samples(ex3):
    pool, _ = sl.run_fixed_point(ex3, k=20_000, rounds=60, seed=78)
    assert pool.norms().min() > 0.0


def test_martingale_depth_zero(ex1):
    w = sl.martingale_samples(ex1, depth=0, trials=1, seed=5)[0]
    assert w == pytest.approx([0.4, 0.6], abs=1e-12)


def test_martingale_depth_one_mean(ex1):
    # one level: E[A1 v + A2 v] = (a1 + a2) v = v
    W = sl.martingale_samples(ex1, depth=1, trials=4000, seed=6)
    per_tree = {tuple(np.round(w, 12)) for w in W}
    # each tree value is (a + b) v for a, b drawn from the two atoms
    v = np.array([0.4, 0.6])
    expected = {
        tuple(np.round((a + b) @ v, 12))
        for a in (A1, A2) for b in (A1, A2)
    }
    assert per_tree <= expected
    # the first component is deterministic here (both atoms send v to first
    # coordinate 0.2), so allow rounding dust on top of the sampling window
    se = W.std(axis=0, ddof=1) / np.sqrt(len(W))
    assert np.all(np.abs(W.mean(axis=0) - v) <= 4 * se + 1e-12)


def reference_forest(spec, depth, trials, rng):
    """Node-by-node loop: each level draws every node's atom with one
    rng.choice, children follow parent then branch order, and every node
    carries its tree and its path product G_u.  Returns all levels."""
    atoms = sl.explicit_atoms(spec)
    probs = [p for p, _ in atoms]
    levels = [[(t, np.eye(spec.dim)) for t in range(trials)]]
    for _ in range(depth):
        draws = rng.choice(len(atoms), size=len(levels[-1]), p=probs)
        levels.append([(t, g @ a) for (t, g), b in zip(levels[-1], draws)
                       for a in atoms[b][1]])
    return levels


@pytest.mark.parametrize("name", ["ex1", "ex3"])
def test_martingale_matches_reference_loop(name, request):
    # ex3 mixes branch sizes, so the gather must follow each atom's offset;
    # its E[N] kappa(1) is 3/4, so its matrices are scaled by 4/3
    spec = request.getfixturevalue(name)
    if name == "ex3":
        spec = sl.ModelSpec(dim=2, kind="ExplicitAtoms", atoms=tuple(
            (p, tuple(m * 4 / 3 for m in br)) for p, br in spec.atoms))
    v = sl.pf_decompose(sl.mean_sum_matrix(spec))
    for depth in (1, 2, 5):
        W = sl.martingale_samples(spec, depth, trials=40, seed=depth)
        (rng,) = spawn_generators(depth, 1)
        ref = np.zeros((40, spec.dim))
        for t, g in reference_forest(spec, depth, 40, rng)[-1]:
            ref[t] += g @ v
        assert np.allclose(W, ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("name, depth", [("ex2", 8), ("ex3", 10)])
def test_survival_counts_match_reference_loop(name, depth, request):
    # ex2 at depth 8 has 6561 leaves, more than one block of the alive test
    spec = request.getfixturevalue(name)
    probes = sl.sphere_grid(2, 16)
    thresholds = 1e-12 * np.abs(probes).sum(axis=1)
    for seed in range(2):
        counts = sl.survival_counts(spec, probes, depth, seed=seed)
        levels = reference_forest(spec, depth, 1, as_generator(seed))
        for level, row in zip(levels, counts):
            gt = np.array([g.T for _, g in level])
            norms = np.abs(gt @ probes.T).sum(axis=1)
            assert np.array_equal(row, (norms > thresholds).sum(axis=0))


def test_martingale_requires_critical_mean(ex3):
    with pytest.raises(ValueError):
        sl.martingale_samples(ex3, depth=3, trials=2, seed=0)


def test_martingale_node_budget(ex1, monkeypatch):
    monkeypatch.setenv("SMOOTHING_LAB_BUDGET", "100")
    with pytest.raises(SupercriticalBlowup):
        sl.martingale_samples(ex1, depth=12, trials=2, seed=0)


def test_martingale_node_budget_counts_leaves(ex1, monkeypatch):
    # depth 3 has 1 + 2 + 4 + 8 = 15 nodes; the leaf level is never built
    monkeypatch.setenv("SMOOTHING_LAB_BUDGET", "14")
    with pytest.raises(SupercriticalBlowup):
        sl.martingale_samples(ex1, depth=3, trials=1, seed=0)
    monkeypatch.setenv("SMOOTHING_LAB_BUDGET", "15")
    w = sl.martingale_samples(ex1, depth=3, trials=1, seed=0)
    assert w.shape == (1, 2)


def test_martingale_deterministic(ex1):
    a = sl.martingale_samples(ex1, depth=6, trials=64, seed=11)
    b = sl.martingale_samples(ex1, depth=6, trials=64, seed=11)
    assert np.array_equal(a, b)


def test_pool_and_tree_norm_laws_agree(ex1, small_pool_ex1):
    W = sl.martingale_samples(ex1, depth=12, trials=2000, seed=72)
    a = np.sort(small_pool_ex1.norms())
    b = np.sort(W.sum(axis=1))
    grid = np.unique(np.concatenate([a, b]))
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    assert np.abs(fa - fb).max() < 0.06


def test_count_surviving_depth_zero(ex2):
    t = np.array([3.0, -1.0])
    assert sl.survival_counts(ex2, t[None], 0, seed=1)[0, 0] == 1


def test_count_surviving_ex2_first_level(ex2):
    # t orthogonal to the first eigen-direction: exactly two of the three
    # children keep it alive, whatever the scalar draw
    t = np.array([1.0, -1.0])
    for seed in range(20):
        assert sl.survival_counts(ex2, t[None], 1, seed=seed)[1, 0] == 2


def test_count_surviving_rejects_zero_probe(ex2):
    with pytest.raises(ValueError):
        sl.survival_counts(ex2, np.zeros(2)[None], 3, seed=0)


def test_survival_counts_monotone_ex2(ex2):
    probes = sl.sphere_grid(2, 16)
    for seed in range(10):
        counts = sl.survival_counts(ex2, probes, 5, seed=seed)
        assert np.all(np.diff(counts, axis=0) >= 0)


def test_survival_counts_grid_floor_ex2(ex2):
    probes = sl.sphere_grid(2, 64)
    worst = min(
        sl.survival_counts(ex2, probes, 6, seed=1000 + s)[6].min()
        for s in range(100)
    )
    assert worst >= 4


def test_heavy_tail_pool_positive(ex3):
    pool = sl.heavy_tail_pool(ex3, 1000, 0.6, seed=3)
    assert pool.norms().min() >= 1.0 - 1e-12  # Pareto weights start at one


def test_pool_csv_roundtrip(tmp_path, ex1):
    pool, _ = sl.run_fixed_point(ex1, k=100, rounds=3, seed=13)
    path = tmp_path / "pool.csv"
    sl.pool_to_csv(pool, path)
    again = sl.pool_from_csv(path)
    assert np.array_equal(again.samples, pool.samples)


_EDGE_VALUES = [5e-324, 1e-300, 1e300, 0.1, 0.0, 1.0, 7.0, 123456789.0,
                1 / 3, 2.0 ** 0.5, 1.7976931348623157e308, 2.2250738585072014e-308]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pool_csv_bytes_match_csv_writer(tmp_path, dim):
    # subnormal, extreme, decimal-inexact and whole values, one row per
    # sample, over more rows than one write block holds
    rng = np.random.default_rng(dim)
    values = np.array(_EDGE_VALUES + list(rng.exponential(size=3 * dim)))
    rows = 2 * cascade._CSV_BLOCK + values.size
    samples = rng.permutation(np.resize(values, rows * dim))
    pool = sl.SamplePool(dim=dim, samples=samples.reshape(-1, dim))
    path = tmp_path / "pool.csv"
    sl.pool_to_csv(pool, path)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([f"z{i}" for i in range(dim)])
    for row in pool.samples:
        writer.writerow([format(x, ".17g") for x in row])
    assert path.read_bytes() == buf.getvalue().encode("utf-8")
    again = sl.pool_from_csv(path)
    assert again.dim == dim
    assert again.samples.tobytes() == pool.samples.tobytes()


@pytest.mark.parametrize("text, says", [
    ("z0,z1\n1,2\n1,2,3\n", "malformed"),
    ("z0,z1\n1,2,3\n", "malformed"),
    ("z0,z1\n1,x\n", "malformed"),
    ("z0,z1\n", "malformed"),
    ("z0\n", "at least one sample"),
    ("", "at least one sample"),
    ("z0,z1\n0.5,nan\n", "non-finite"),
    ("z0,z1\n0.5,inf\n", "non-finite"),
    ("z0,z1\n0.5,-1\n", "nonnegative"),
], ids=["ragged", "wide", "text", "header-only", "header-only-1d", "empty",
        "nan", "inf", "negative"])
def test_pool_from_csv_rejects_bad_files(tmp_path, text, says):
    path = tmp_path / "pool.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=says):
        sl.pool_from_csv(path)
