import csv
import io
import sys
import tracemalloc

import numpy as np
import pytest

import smoothing_lab as sl
from smoothing_lab import _common, cascade
from smoothing_lab._common import as_generator, spawn_generators
from smoothing_lab.errors import (
    BudgetExceeded,
    OutOfRange,
    SupercriticalBlowup,
)

from conftest import A1, A2


def test_iterate_pool_fixes_zero(ex1):
    pool = sl.SamplePool(dim=2, samples=np.zeros((100, 2)))
    new = sl.iterate_pool(ex1, pool, seed=4)
    assert not new.samples.any()
    assert new.generation == 1


def test_iterate_pool_scalar_fixed_point():
    half = np.array([[0.5]])
    spec = sl.ModelSpec(dim=1, atoms=((1.0, (half, half)),))
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


# BLOCK_BYTES // (8 * 2 * most) parents per block, most the largest branch
# (3 for ex2, 2 for ex1 and ex3): 8 is one parent per block, 8 * 2 * 3 * 7
# gives blocks of 7 (ex2) or 10 parents that do not divide k = 301, and
# 1 << 40 folds the whole pool in one block
@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_pool_blocks_match_default(name, request, monkeypatch):
    spec = request.getfixturevalue(name)
    pool, history = sl.run_fixed_point(spec, k=301, rounds=3, seed=17)
    for block in (8, 8 * 2 * 3 * 7, 1 << 40):
        monkeypatch.setattr(_common, "BLOCK_BYTES", block)
        again, again_history = sl.run_fixed_point(spec, k=301, rounds=3,
                                                  seed=17)
        assert np.array_equal(again.samples, pool.samples)
        assert np.array_equal(again_history, history)


def mixed_spec(d, seed, critical=False):
    """A d-dim model of six atoms whose branches hold 1 to 8 random
    matrices, the extremes among them; critical, its mean sum matrix
    scaled to unit spectral radius, so that it has a tree martingale."""
    rng = np.random.default_rng(seed)
    sizes = np.r_[1, 8, rng.integers(1, 9, 4)]
    branches = [rng.uniform(0.1, 1.0, (n, d, d)) for n in sizes]
    probs = rng.dirichlet(np.ones(sizes.size))
    if critical:
        mean = sum(p * br.sum(axis=0) for p, br in zip(probs, branches))
        scale = sl.spectral_radius(mean)
        branches = [br / scale for br in branches]
    return sl.ModelSpec(dim=d, atoms=tuple(
        (p, tuple(br)) for p, br in zip(probs, branches)))


# 8 * d * 8 * 7 bytes makes blocks of 7 parents for the mixed tables, whose
# largest branch holds 8 matrices, 18 for ex2 and 28 for ex1 and ex3; none
# divides the 1000 parents
@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "mixed-1", "mixed-2",
                                  "mixed-3", "mixed-4"])
def test_pool_round_matches_edge_fold(name, request, monkeypatch):
    # the slot fold sums each branch in reduceat's order, so a round is the
    # edge fold's bit for bit, whatever the block
    if name.startswith("mixed"):
        spec = mixed_spec(int(name[-1]), seed=int(name[-1]))
    else:
        spec = request.getfixturevalue(name)
    pool = sl.heavy_tail_pool(spec, 1000, 1.5, seed=1)
    refs = [edge_pool_round(spec, pool, seed) for seed in range(3)]
    for block in (_common.BLOCK_BYTES, 8 * spec.dim * 8 * 7):
        monkeypatch.setattr(_common, "BLOCK_BYTES", block)
        for seed, ref in enumerate(refs):
            assert np.array_equal(
                sl.iterate_pool(spec, pool, seed=seed).samples, ref)


def test_long_branches_stay_within_the_summation_bound():
    # past 8 matrices reduceat sums a branch's tail pairwise and the slot
    # fold in order; both add the same nonnegative terms, n - 1 additions
    # that each round by under one ulp of the total, so they differ by at
    # most 2 (n - 1) ulp
    rng = np.random.default_rng(5)
    spec = sl.ModelSpec(dim=2, atoms=tuple(
        (0.25, tuple(rng.uniform(0.1, 1.0, (n, 2, 2))))
        for n in (9, 10, 12, 16)))
    pool = sl.heavy_tail_pool(spec, 2000, 1.5, seed=1)
    for seed in range(3):
        new = sl.iterate_pool(spec, pool, seed=seed).samples
        ref = edge_pool_round(spec, pool, seed)
        assert np.all(np.abs(new - ref) <= 2 * (16 - 1) * np.spacing(ref))


@pytest.mark.parametrize("order", ["C", "F"])
def test_run_fixed_point_leaves_initial_pool_alone(ex2, order):
    # the rounds write into buffers of their own, never into the caller's
    samples = np.asarray(sl.heavy_tail_pool(ex2, 500, 1.5, seed=2).samples,
                         order=order)
    start = sl.SamplePool(dim=2, samples=samples)
    kept = samples.copy()
    for rounds in (1, 2, 3):
        pool, _ = sl.run_fixed_point(ex2, k=500, rounds=rounds, seed=4,
                                     initial_pool=start)
        assert np.array_equal(start.samples, kept)
        assert not np.shares_memory(pool.samples, samples)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sample_pool_rejects_non_finite_samples(bad):
    # an inf sample gave an all-NaN transform curve and a "stable" harmonic
    # moment, and a NaN one passed the sign check
    with pytest.raises(ValueError, match="finite"):
        sl.SamplePool(dim=2, samples=[[bad, 1.0], [1.0, 1.0]])


def test_overflowing_pools_raise_out_of_range(ex1, ex2):
    with pytest.raises(OutOfRange):
        sl.iterate_pool(ex1, sl.constant_pool([1.7e308, 1.7e308], 10), seed=1)
    with pytest.raises(OutOfRange):
        sl.heavy_tail_pool(ex2, 1000, 0.005, seed=1)


@pytest.mark.parametrize("order", ["C", "F"])
def test_iterate_pool_refuses_buffers_on_the_pool(ex2, order):
    # an F-order pool's out=pool.samples.T was folded into as it was read
    samples = np.asarray(sl.heavy_tail_pool(ex2, 50_000, 1.5, seed=2).samples,
                         order=order)
    pool = sl.SamplePool(dim=2, samples=samples)
    kept = samples.copy()
    size = cascade._pool_scratch(ex2.branch_table, 2, pool.size).size
    flat = samples.ravel(order="K")     # a view in either order
    for out, scratch in ((samples.T, None), (None, flat[:size]),
                         (None, flat[-size:])):
        with pytest.raises(ValueError, match="share memory"):
            sl.iterate_pool(ex2, pool, seed=3, out=out, scratch=scratch)
    assert np.array_equal(samples, kept)


def test_pool_memory_is_bounded_by_the_block(ex2):
    # holding every edge's ids, picks, child gather and row temporaries of
    # a 200k ex2 round at once traced 36.6 MiB
    tracemalloc.start()
    try:
        sl.run_fixed_point(ex2, k=200_000, rounds=3, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_oversized_pool_is_refused_before_allocating(ex2, ex3, monkeypatch):
    # 1e11 samples would need 1.46 TiB; the node budget refuses them first
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            sl.run_fixed_point(ex2, k=10**11, rounds=1, seed=0)
        with pytest.raises(BudgetExceeded):
            sl.heavy_tail_pool(ex3, 10**11, 0.6, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    # the node budget is 50 times the setting
    monkeypatch.setenv("SMOOTHING_LAB_BUDGET", "1")
    sl.run_fixed_point(ex2, k=50, rounds=1, seed=0)
    with pytest.raises(BudgetExceeded):
        sl.run_fixed_point(ex2, k=51, rounds=1, seed=0)


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


def test_run_fixed_point_initial_pool_replaces_init(ex1):
    start = sl.constant_pool([0.4, 0.6], 10)
    pool, _ = sl.run_fixed_point(ex1, k=10, rounds=1, initial_pool=start)
    assert pool.size == 10
    with pytest.raises(ValueError):  # a pool of another size than k
        sl.run_fixed_point(ex1, k=10, rounds=1,
                           initial_pool=sl.constant_pool([0.4, 0.6], 1000))
    with pytest.raises(ValueError):  # a pool and an init vector
        sl.run_fixed_point(ex1, k=10, rounds=1, init=[1.0, 2.0],
                           initial_pool=start)


def test_run_fixed_point_rejects_init_without_a_positive_entry(ex1):
    # from the zero vector every round returned the trivial fixed point 0
    with pytest.raises(ValueError, match="positive entry"):
        sl.run_fixed_point(ex1, k=10, rounds=3, init=[0.0, 0.0], seed=0)


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


def critical_model(name, request):
    """The named example; ex3, whose E[N] kappa(1) is 3/4, with its matrices
    scaled by 4/3, so that it has a tree martingale.  ex3 mixes branch
    sizes, so a gather must follow each atom's offset."""
    spec = request.getfixturevalue(name)
    if name != "ex3":
        return spec
    return sl.ModelSpec(dim=2, atoms=tuple(
        (p, tuple(m * 4 / 3 for m in br)) for p, br in spec.atoms))


@pytest.mark.parametrize("name", ["ex1", "ex3"])
def test_martingale_matches_reference_loop(name, request):
    spec = critical_model(name, request)
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


def edge_fold(table, atom, child):
    """Per parent of the atom ids `atom`, the sum of mats[id] @ child[:, e]
    over its edges e: the edge-major fold the samplers used before the
    slot fold, kept as its reference.  Each edge's matrix id is one more
    than the one before it, except at a parent's first edge, which starts
    that atom's branch, so the ids are the running sum of those steps; each
    row's edge products are summed per parent by np.add.reduceat."""
    counts = table.sizes[atom]
    starts = np.cumsum(counts) - counts
    ids = np.ones(starts[-1] + counts[-1], dtype=np.int64)
    first = table.offsets[atom]
    ids[0] = first[0]
    ids[starts[1:]] = first[1:] - first[:-1] - counts[:-1] + 1
    np.cumsum(ids, out=ids)
    return np.stack([np.add.reduceat(table.row(i, ids, child), starts)
                     for i in range(child.shape[0])])


def edge_pool_round(spec, pool, seed):
    """iterate_pool's samples by the edge fold, from the same draws: every
    atom, then every pick, in one block."""
    rng = as_generator(seed)
    table = spec.branch_table
    atom = table.draw(rng, pool.size)
    picks = rng.integers(0, pool.size, size=table.sizes[atom].sum())
    return edge_fold(table, atom, pool.samples.T[:, picks]).T


def whole_chunk_martingale(spec, depth, trials, seed):
    """The martingale with each chunk's levels folded whole, leaves up, by
    the edge fold: the reference the slot fold must match bit for bit."""
    table = spec.branch_table
    leaf_sums = (table.sums @ sl.pf_decompose(sl.mean_sum_matrix(spec))).T
    size = cascade._TREE_CHUNK
    out = []
    for rng in spawn_generators(seed, -(-trials // size)):
        chunk = min(size, trials - len(out) * size)
        levels = cascade._grow_forest(table, depth, chunk, rng, 10**7)[0]
        vecs = leaf_sums[:, levels.pop()]
        while levels:
            vecs = edge_fold(table, levels.pop(), vecs)
        out.append(vecs.T)
    return np.concatenate(out)


# BLOCK_BYTES // 8 nodes per draw block, drawn in a scratch of
# BLOCK_BYTES // 4 floats.  The fold takes 11 floats per deepest parent
# (ex1; 13 for ex2 and ex3), folds the levels below `top`, the deepest
# parent level whose whole width fits the scratch, a block of whole trees
# at a time beside it, and the levels above it once per chunk.  An ex1 tree
# has 1024 deepest parents at depth 12: 16 * 1500 grows the scratch to one
# tree per block under top 0, 16 * 3 * 2048 folds one tree per block under
# top 2, 28 * 3 * 2048 two or three, 16 * 50_000 8 to 14 under top 5, and
# the default 10 under top 4.  ex2 and ex3 at 8 and 8 * 7 grow it for one
# to three trees per block
@pytest.mark.parametrize("name, depth, trials, blocks", [
    ("ex1", 12, 600, (16 * 1500, 16 * 3 * 2048, 28 * 3 * 2048, 16 * 50_000)),
    ("ex2", 6, 40, (8, 8 * 7)),
    ("ex3", 8, 40, (8, 8 * 7)),
])
def test_martingale_blocks_match_whole_chunk_fold(name, depth, trials, blocks,
                                                  request, monkeypatch):
    # 600 trials cross the 512-tree chunk
    spec = critical_model(name, request)
    W = sl.martingale_samples(spec, depth, trials, seed=depth)
    assert np.array_equal(W, whole_chunk_martingale(spec, depth, trials, depth))
    for block in blocks:
        monkeypatch.setattr(_common, "BLOCK_BYTES", block)
        assert np.array_equal(
            sl.martingale_samples(spec, depth, trials, seed=depth), W)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_martingale_of_mixed_branches_matches_edge_fold(d, monkeypatch):
    # 600 trials of depth 4 cross the 512-tree chunk: the default folds two
    # to four blocks into level 1 and level 1 once per chunk; 8 * 64 grows
    # the scratch to about one tree per block, folded to the roots
    spec = mixed_spec(d, seed=10 + d, critical=True)
    W = sl.martingale_samples(spec, 4, 600, seed=d)
    assert np.array_equal(W, whole_chunk_martingale(spec, 4, 600, d))
    monkeypatch.setattr(_common, "BLOCK_BYTES", 8 * 64)
    assert np.array_equal(sl.martingale_samples(spec, 4, 600, seed=d), W)


@pytest.mark.parametrize("name, depth, blocks", [
    ("ex1", 12, (8, 8 * 1001, 1 << 40)),
    ("ex2", 10, (8 * 5003,)),
    ("ex2", 7, (8,)),
    ("ex3", 10, (8, 8 * 7, 1 << 40)),
])
def test_survival_counts_blocks_match_default(name, depth, blocks, request,
                                              monkeypatch):
    # 8 draws one node and walks and tests one carrier at a time; 1 << 40
    # draws each level and walks and tests its carriers in one block
    spec = critical_model(name, request)
    probes = sl.sphere_grid(2, 128)
    counts = sl.survival_counts(spec, probes, depth, seed=depth)
    for block in blocks:
        monkeypatch.setattr(_common, "BLOCK_BYTES", block)
        assert np.array_equal(
            sl.survival_counts(spec, probes, depth, seed=depth), counts)


def test_tree_memory_is_bounded_by_the_block(ex1, ex2):
    # a whole-chunk fold holds a 512-tree chunk's deepest ex1 level (1M nodes)
    # and its edge rows, 56 MiB; alive tests of 4096 carriers took 28 MiB
    peaks = []
    tracemalloc.start()
    try:
        sl.martingale_samples(ex1, 12, 512, seed=1)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        sl.survival_counts(ex2, sl.sphere_grid(2, 128), 10, seed=1)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < 16 * 2**20, peaks


def test_martingale_growth_and_fold_share_one_scratch(ex1):
    # fresh draw temporaries beside the last chunk's fold buffers traced
    # 5.96 MiB; the forest's ids alone take 2 MiB
    sl.martingale_samples(ex1, 2, 3, seed=0)
    tracemalloc.start()
    try:
        sl.martingale_samples(ex1, 12, 1024, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20, peak


def test_deep_survival_counts_memory_is_bounded_by_the_block(ex2):
    # a whole level of carriers at a time traced 54.3 MiB at depth 12
    tracemalloc.start()
    try:
        sl.survival_counts(ex2, sl.sphere_grid(2, 128), 12, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_martingale_requires_critical_mean(ex3):
    with pytest.raises(ValueError):
        sl.martingale_samples(ex3, depth=3, trials=2, seed=0)


def test_martingale_node_budget(ex1, monkeypatch):
    monkeypatch.setenv("SMOOTHING_LAB_BUDGET", "100")
    with pytest.raises(SupercriticalBlowup):
        sl.martingale_samples(ex1, depth=12, trials=2, seed=0)


def test_martingale_node_budget_counts_leaves(ex1, monkeypatch):
    # the node budget is 50 times the setting, so setting 1 allows 50 nodes:
    # depth 4 has 1 + 2 + 4 + 8 + 16 = 31 and depth 5 has 63; the leaf
    # level is never built
    monkeypatch.setenv("SMOOTHING_LAB_BUDGET", "1")
    w = sl.martingale_samples(ex1, depth=4, trials=1, seed=0)
    assert w.shape == (1, 2)
    with pytest.raises(SupercriticalBlowup):
        sl.martingale_samples(ex1, depth=5, trials=1, seed=0)


def test_budget_setting_never_lowers_a_budget(ex1, monkeypatch):
    # the setting is the element budget; the node budget scales with it, so
    # a setting above the default element budget keeps a default-sized tree
    w = sl.martingale_samples(ex1, depth=18, trials=1, seed=0)
    monkeypatch.setenv("SMOOTHING_LAB_BUDGET", "300000")
    assert np.array_equal(sl.martingale_samples(ex1, depth=18, trials=1,
                                                seed=0), w)
    assert _common.resolve_budget(_common.DEFAULT_ELEMENT_BUDGET) == 300_000
    assert _common.resolve_budget(_common.DEFAULT_NODE_BUDGET) == 15_000_000
    # the default element budget as the setting gives every default
    monkeypatch.setenv("SMOOTHING_LAB_BUDGET", "200000")
    assert _common.resolve_budget(_common.DEFAULT_NODE_BUDGET) == 10_000_000


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


def test_tree_samplers_reject_bad_sizes(ex1):
    # a negative depth was an IndexError, no trials an empty array and
    # negative trials numpy's "negative dimensions are not allowed"
    with pytest.raises(ValueError, match="depth must be >= 0"):
        sl.survival_counts(ex1, sl.sphere_grid(2, 4), -1, seed=0)
    for trials in (0, -2):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            sl.martingale_samples(ex1, depth=3, trials=trials, seed=0)


def test_deep_narrow_survival_counts_need_no_recursion():
    # E[N] = 1.001: a tree deeper than the interpreter's recursion limit
    # stays a few nodes wide, and a rank-two positive matrix keeps every
    # carrier alive, so the counts are the level sizes
    a = np.array([[0.5, 0.5], [0.25, 0.75]])
    spec = sl.ModelSpec(dim=2, atoms=((0.999, (a,)), (0.001, (a, a))))
    depth = sys.getrecursionlimit() + 100
    counts = sl.survival_counts(spec, sl.sphere_grid(2, 4), depth, seed=1)
    table = spec.branch_table
    levels = cascade._grow_forest(table, depth, 1, as_generator(1), 10**7)[0]
    sizes = [len(atom) for atom in levels] + [table.sizes[levels[-1]].sum()]
    assert np.array_equal(counts, np.repeat(np.array(sizes)[:, None], 4, 1))


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


@pytest.mark.parametrize("tail_index", [np.inf, np.nan])
def test_heavy_tail_pool_rejects_bad_tail_index(ex3, tail_index):
    # u ** -(1 / inf) is 1: an infinite index drew a constant pool, and the
    # CLI failed only when it wrote the index into the manifest
    with pytest.raises(ValueError, match="finite and positive"):
        sl.heavy_tail_pool(ex3, 1000, tail_index, seed=3)


def test_pool_csv_roundtrip(tmp_path, ex1):
    pool, _ = sl.run_fixed_point(ex1, k=100, rounds=3, seed=13)
    path = tmp_path / "pool.csv"
    sl.pool_to_csv(pool, path)
    again = sl.pool_from_csv(path)
    assert np.array_equal(again.samples, pool.samples)


class _RowsFailingAfterFirstBlock:
    """A sample array whose second write block cannot be read, as a write
    that fails part way through the pool."""

    def __init__(self, samples):
        self.samples, self.shape = samples, samples.shape

    def __getitem__(self, key):
        if key.start:
            raise OSError("no space left on device")
        return self.samples[key]


def test_failed_pool_write_leaves_the_old_file(tmp_path, monkeypatch):
    # the first block is written before the failure: without the rename
    # the path would hold a header and one block, a valid shorter pool
    monkeypatch.setattr(cascade, "_CSV_BLOCK", 2)
    path = tmp_path / "pool.csv"
    path.write_text("old\n")
    pool = sl.SamplePool(dim=2, samples=np.ones((5, 2)))
    monkeypatch.setattr(pool, "samples",
                        _RowsFailingAfterFirstBlock(pool.samples))
    with pytest.raises(OSError, match="no space"):
        sl.pool_to_csv(pool, path)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["pool.csv"]


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
