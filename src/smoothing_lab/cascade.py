"""Samplers for the fixed-point law: population dynamics and weighted trees.

The pool sampler applies one smoothing round to an empirical sample cloud:
every new sample is sum_i a_i z_i with a fresh branch draw and z_i resampled
with replacement from the previous pool.  The tree sampler grows the
weighted branching tree explicitly and is unbiased at finite depth for
models whose mean matrix has unit spectral radius.  Both draw from the
model's branch table and fold each parent's edges by its `row` gather into
buffers that the caller keeps.  The pool round folds a block of parents at
a time, and a forest is kept as narrow atom ids and tree offsets per level,
drawn a block at a time with one kept float scratch; the martingale folds
it leaves-up a block of whole trees at a time in that same scratch, and
survival_counts walks it depth first.  So the working sets are bounded by
BLOCK_BYTES, not by k E[N] or by the widest level.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _common
from ._common import (
    DEFAULT_NODE_BUDGET,
    as_generator,
    charge_budget,
    open_replacing,
    resolve_budget,
    spawn_generators,
)
from .errors import OutOfRange, SupercriticalBlowup
from .matrices import pf_decompose, spectral_radius
from .models import BranchTable, ModelSpec, expected_n, mean_sum_matrix, mu_mean

_TREE_CHUNK = 512
_CSV_BLOCK = 4096             # pool rows formatted per write
# |A^T t| counts as zero up to ZERO_TOL |t|, here and in kill_counts
ZERO_TOL = 1e-12


@dataclass
class SamplePool:
    """Empirical cloud of K nonnegative vectors approximating the fixed point."""

    dim: int
    samples: np.ndarray  # (K, dim)
    generation: int = 0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[1] != self.dim:
            raise ValueError("samples must be a (K, dim) array")
        if self.samples.shape[0] < 1:
            raise ValueError("pool must hold at least one sample")
        if not np.isfinite(self.samples).all():
            raise ValueError("pool samples must be finite")
        if np.any(self.samples < 0):
            raise ValueError("pool samples must be entrywise nonnegative")

    @property
    def size(self) -> int:
        return self.samples.shape[0]

    def norms(self) -> np.ndarray:
        return self.samples.sum(axis=1)

    def nonzero_directions(self) -> np.ndarray:
        n = self.norms()
        keep = n > 0
        return self.samples[keep] / n[keep, None]


def constant_pool(init, k: int) -> SamplePool:
    init = np.asarray(init, dtype=float)
    return SamplePool(dim=init.size, samples=np.tile(init, (k, 1)))


def heavy_tail_pool(spec: ModelSpec, k: int, tail_index: float,
                    seed) -> SamplePool:
    """Pool of c * v with c Pareto(tail_index) and v the Perron direction of
    the mean sum matrix.

    Regularly varying initial conditions are the basin of the fixed point
    when the mean matrix has spectral radius below one (the point-mass
    iteration then collapses to zero in probability).  ValueError unless
    tail_index is finite and positive (u^-0 is 1, so an infinite index gives a
    constant pool).  k is charged against the node budget before anything is
    allocated; OutOfRange when a draw overflows.
    """
    if not 0 < tail_index < np.inf:
        raise ValueError(f"tail_index must be finite and positive, got "
                         f"{tail_index}")
    charge_budget(k, resolve_budget(DEFAULT_NODE_BUDGET), "pool size k")
    rng = as_generator(seed)
    direction = pf_decompose(mean_sum_matrix(spec))
    with np.errstate(over="ignore", divide="ignore"):
        w = rng.uniform(size=k) ** (-1.0 / tail_index)
    if not np.isfinite(w).all():
        raise OutOfRange(f"a Pareto({tail_index}) draw overflows")
    return SamplePool(dim=spec.dim, samples=w[:, None] * direction[None, :])


def iterate_pool(spec: ModelSpec, pool: SamplePool, seed, out=None,
                 scratch=None) -> SamplePool:
    """One smoothing round over the pool; deterministic given the seed.

    All k atoms are drawn first.  Then, one block of parents at a time, the
    block's picks (its resampled children) are drawn, gathered and folded
    into the block's columns of the new pool, so the round holds one
    block's children, about BLOCK_BYTES, and not all k E[N] of them.  The
    picks are one Philox stream drawn in block order, so the pool does not
    depend on the block size.  The new samples are out.T for a (dim, k)
    `out`, and `scratch` (from `_pool_scratch`) holds the block's
    temporaries; run_fixed_point passes both and reuses them every round.
    Neither may share memory with the pool (ValueError), and OutOfRange
    when a new sample is not finite.

    Resampling is with replacement and value-independent, so iterating from
    c * pool with the same seed yields exactly c times the iterated pool.
    """
    if pool.dim != spec.dim:
        raise ValueError("pool dimension does not match the model")
    rng = as_generator(seed)
    table = spec.branch_table
    d, k = spec.dim, pool.size
    if out is None:
        out = np.empty((d, k))
    floats, edge_ids = _pool_scratch(table, d, k) if scratch is None else scratch
    if any(np.may_share_memory(a, pool.samples) for a in (out, floats, edge_ids)):
        raise ValueError("out and scratch must not share memory with the pool")
    cap = edge_ids.size                        # edges a block may hold
    per = cap // table.sizes.max()             # parents per block
    # np.take would copy a strided (C-order) pool again in every block
    samples = np.ascontiguousarray(pool.samples.T)
    atom = np.empty(k, dtype=np.min_scalar_type(table.sizes.size - 1))
    for p0 in range(0, k, per):
        block = atom[p0:p0 + per]
        block[:] = table.draw(rng, block.size)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for p0 in range(0, k, per):
            ids, starts = _edges(table, atom[p0:p0 + per], edge_ids)
            picks = rng.integers(0, k, size=ids.size)
            child = floats[:d * ids.size].reshape(d, ids.size)
            np.take(samples, picks, axis=1, out=child, mode="clip")
            _fold(table, ids, starts, child, out[:, p0:p0 + per],
                  floats[d * cap:])
    if not np.isfinite(out).all():
        raise OutOfRange(f"a sample overflows in round {pool.generation + 1}")
    return SamplePool(dim=d, samples=out.T, generation=pool.generation + 1)


def _pool_scratch(table: BranchTable, d: int, k: int) -> tuple:
    """Scratch of a k-sample pool round: floats for the child gather (d
    rows) and the two fold rows, and the edge ids, of a block of parents
    whose child gather holds at most BLOCK_BYTES even if each parent
    draws the largest branch; at least one parent and at most k."""
    most = int(table.sizes.max())
    per = min(k, max(1, _common.BLOCK_BYTES // (8 * d * most)))
    return np.empty((d + 2) * per * most), np.empty(per * most, dtype=np.int64)


def run_fixed_point(spec: ModelSpec, k: int, rounds: int, init=None, seed=0,
                    initial_pool: SamplePool | None = None):
    """Iterate the pool `rounds` times from a constant cloud at `init`.

    Returns (pool, mean_norm_history); the history has rounds + 1 entries and
    starts with the initial pool.  An explicit initial_pool of k samples
    replaces init, and ValueError when it comes with init or with another
    size.  ValueError when init has no positive entry: the pool would stay
    at the trivial fixed point 0.  k is charged against the node budget
    before anything is allocated.  OutOfRange as soon as a mean norm in the
    history is not finite.

    The rounds write into two (dim, k) arrays in turn and share one block
    scratch, all allocated once, so a round allocates only its narrow atom
    ids and one block's picks at a time; the initial pool is only read.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    charge_budget(k, resolve_budget(DEFAULT_NODE_BUDGET), "pool size k")
    if initial_pool is not None:
        if init is not None or initial_pool.size != k:
            raise ValueError("initial_pool takes the place of init and must "
                             f"hold k = {k} samples")
        pool = initial_pool
    else:
        if init is None:
            init = pf_decompose(mean_sum_matrix(spec))
        elif not (np.asarray(init, dtype=float) > 0).any():
            raise ValueError("init must have a positive entry")
        pool = constant_pool(init, k)
    history = [_mean_norm(pool)]
    scratch = _pool_scratch(spec.branch_table, spec.dim, k)
    buffers = []
    for r, rng in enumerate(spawn_generators(seed, rounds)):
        if len(buffers) < 2:  # the second once round one has let go its input
            buffers.append(np.empty((spec.dim, k)))
        pool = iterate_pool(spec, pool, rng, out=buffers[r % 2],
                            scratch=scratch)
        history.append(_mean_norm(pool))
    return pool, np.array(history)


def _mean_norm(pool: SamplePool) -> float:
    """Mean sample norm; OutOfRange when it overflows to a non-finite value."""
    with np.errstate(over="ignore"):
        mean = float(pool.norms().mean())
    if not np.isfinite(mean):
        raise OutOfRange(f"the mean pool norm is {mean} in round "
                         f"{pool.generation}")
    return mean


# ---------------------------------------------------------------------------
# Weighted branching tree
# ---------------------------------------------------------------------------


def _grow_forest(table: BranchTable, depth: int, n_trees: int, rng,
                 node_budget: int, scratch=None) -> tuple:
    """(levels, offsets, scratch) of a forest grown to `depth`: per level
    below it, the narrow atom ids of its nodes and the n_trees + 1 offsets of
    its trees, and the float scratch it was drawn in.

    Children follow their parents' order and then the branch order, so tree
    t's nodes at level l are levels[l][offsets[l][t]:offsets[l][t + 1]].  A
    level is drawn, and its child counts summed, BLOCK_BYTES // 8 nodes at
    a time, its uniforms and running ends into `scratch`, grown to twice
    min(BLOCK_BYTES // 8, level width) entries and returned for the caller
    to reuse; the leaf level is counted against the budget but never built.
    """
    step = _common.BLOCK_BYTES // 8
    off = np.arange(n_trees + 1)
    nodes_per_tree = np.ones(n_trees, dtype=np.int64)
    levels, offsets = [], []
    for _ in range(depth):
        atom = np.empty(off[-1], dtype=np.min_scalar_type(table.sizes.size - 1))
        n = min(step, atom.size)
        if scratch is None or scratch.size < 2 * n:
            scratch = np.empty(2 * n)
        u, run = scratch[:n], scratch[n:2 * n].view(np.int64)
        below = np.empty_like(off)      # children before each tree's first node
        t = total = 0
        for start in range(0, atom.size, step):
            block = atom[start:start + step]
            table.draw(rng, block.size, out=block, u=u)
            ends = table.sizes.take(block, out=run[:block.size], mode="clip")
            np.cumsum(ends, out=ends)
            ends += total
            stop = np.searchsorted(off, start + block.size)
            first = off[t:stop] - start
            below[t:stop] = ends[first] - table.sizes[block[first]]
            t, total = stop, ends[-1]
        below[t:] = total
        nodes_per_tree += np.diff(below)
        if nodes_per_tree.max(initial=0) > node_budget:
            raise SupercriticalBlowup(
                f"tree grew past {node_budget} nodes before reaching depth {depth}"
            )
        levels.append(atom)
        offsets.append(off)
        off = below
    return levels, offsets, scratch


def _edges(table: BranchTable, atom: np.ndarray, out=None):
    """Matrix id of every child edge of a level, and each parent's first edge.

    Each edge's id is one more than the one before it, except at a parent's
    first edge, which starts that atom's branch; the ids are the running sum
    of those steps, written into the head of `out` when it is given.
    """
    counts = table.sizes[atom]
    starts = np.cumsum(counts) - counts
    n = starts[-1] + counts[-1]
    ids = np.empty(n, dtype=np.int64) if out is None else out[:n]
    ids.fill(1)
    first = table.offsets[atom]
    ids[0] = first[0]
    ids[starts[1:]] = first[1:] - first[:-1] - counts[:-1] + 1
    np.cumsum(ids, out=ids)
    return ids, starts


def _fold(table: BranchTable, ids: np.ndarray, starts: np.ndarray,
          child: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Into out[:, p], per parent p, the sum over its edges e of
    mats[ids[e]] @ child[:, e].

    child holds one column per edge and out one column per parent.  Each row
    is summed by BranchTable.row in the first 2 * ids.size entries of scratch,
    so a fold allocates nothing of edge size; its callers keep out and scratch
    across folds, so their pages are not faulted in again.
    """
    n = ids.size
    acc, term = scratch[:n], scratch[n:2 * n]
    for i in range(child.shape[0]):
        table.row(i, ids, child, acc, term)
        np.add.reduceat(acc, starts, out=out[i])


def martingale_samples(spec: ModelSpec, depth: int, trials: int,
                       seed) -> np.ndarray:
    """trials independent draws of sum over depth-n nodes of G_u v.

    v is the unit-L1 Perron eigenvector of the mean sum matrix; the sum is
    then a mean-one vector martingale in the depth whenever E[N] times the
    single-matrix mean has unit spectral radius.

    The leaf level is never built: a depth-(n-1) node that draws atom b
    contributes Y_b v, with Y_b its branch sum.  Each level above is folded
    into its parents by the same edge fold as the pool round, a block of
    whole trees at a time, so each parent sums its edges as a whole fold.
    Each forest is drawn in one float scratch kept by the call, and the fold
    cuts its blocks to fit it, growing it only for a tree whose deepest
    level needs more, so draw and fold buffers are never live together.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m1 = expected_n(spec) * spectral_radius(mu_mean(spec))
    if abs(m1 - 1.0) > 1e-9:
        raise ValueError(
            f"tree martingale needs a critical mean (E[N] kappa(1) = {m1!r})"
        )
    budget = resolve_budget(DEFAULT_NODE_BUDGET)
    v = pf_decompose(mean_sum_matrix(spec))
    if depth == 0:
        return np.tile(v, (trials, 1))
    table = spec.branch_table
    leaf_sums = (table.sums @ v).T.copy()         # column b is Y_b v
    d = spec.dim
    width = 2 * d + 3   # per deepest node: two d-vectors, two rows, an id
    out = np.empty((trials, d))
    scratch = None
    n_chunks = (trials + _TREE_CHUNK - 1) // _TREE_CHUNK
    streams = spawn_generators(seed, n_chunks)
    done = 0
    for rng in streams:
        chunk = min(_TREE_CHUNK, trials - done)
        levels, offsets, scratch = _grow_forest(table, depth, chunk, rng,
                                                budget, scratch)
        ends, t0 = offsets[-1], 0
        while t0 < chunk:  # whole trees that fit the scratch, or one
            cap = scratch.size // width
            t1 = max(t0 + 1, ends.searchsorted(ends[t0] + cap, "right") - 1)
            n = ends[t1] - ends[t0]     # the deepest level is the widest
            if cap < n:
                cap, scratch = n, np.empty(width * n)
            a, b = scratch[:d * cap], scratch[d * cap:2 * d * cap]
            rows = scratch[2 * d * cap:(2 * d + 2) * cap]
            edge_ids = scratch[(2 * d + 2) * cap:width * cap].view(np.int64)
            vecs = a[:d * n].reshape(d, n)
            np.take(leaf_sums, levels[-1][ends[t0]:ends[t1]], axis=1,
                    out=vecs, mode="clip")
            for atom, off in zip(levels[-2::-1], offsets[-2::-1]):
                ids, starts = _edges(table, atom[off[t0]:off[t1]], edge_ids)
                a, b = b, a
                folded = a[:d * starts.size].reshape(d, starts.size)
                _fold(table, ids, starts, vecs, folded, rows)
                vecs = folded
            out[done + t0:done + t1] = vecs.T
            t0 = t1
        done += chunk
        del levels, offsets     # before the next forest grows beside it
    return out


def survival_counts(spec: ModelSpec, probes, depth: int, seed) -> np.ndarray:
    """Counts of depth-l nodes with G_u^T t != 0, per level and probe.

    Returns an integer array of shape (depth + 1, n_probes) for one simulated
    tree; G_u^T t is declared nonzero when its L1 norm exceeds ZERO_TOL |t|.
    The tree's atom ids are grown first.  Its carriers G_u^T are then walked
    depth first, in blocks of about BLOCK_BYTES per level: children follow
    their parents' order, so one cursor per level finds a block's atom ids.
    Memory is then bounded by depth blocks, not by the widest level.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if not (np.isfinite(probes).all() and probes.any(axis=1).all()):
        raise ValueError("probe directions must be finite and nonzero")
    budget = resolve_budget(DEFAULT_NODE_BUDGET)
    rng = as_generator(seed)
    table = spec.branch_table
    levels = _grow_forest(table, depth, 1, rng, budget)[0]
    mats_t = table.mats.transpose(0, 2, 1)
    step = max(1, _common.BLOCK_BYTES // (8 * spec.dim ** 2))

    thresholds = ZERO_TOL * np.abs(probes).sum(axis=1)
    counts = np.zeros((depth + 1, probes.shape[0]), dtype=np.int64)
    cursor = [0] * depth        # per level, its first node not yet in a block
    stack = []                  # per level above the leaves: one open block

    def push(carriers):
        lvl = len(stack)
        counts[lvl] += _alive_counts(carriers, probes, thresholds)
        if lvl < depth:
            atom = levels[lvl][cursor[lvl]:cursor[lvl] + len(carriers)]
            cursor[lvl] += len(carriers)
            stack.append([carriers, atom, np.cumsum(table.sizes[atom]), 0])

    push(np.eye(spec.dim)[None, :, :])
    while stack:
        carriers, atom, ends, p0 = stack[-1]
        if p0 == atom.size:
            stack.pop()
            continue
        # the next parents whose children fill at most one block, or one
        below = ends[p0 - 1] if p0 else 0
        p1 = max(p0 + 1, ends.searchsorted(below + step, "right"))
        stack[-1][3] = p1
        # G_(ui)^T = A_(ui)^T G_u^T
        per_edge = np.repeat(carriers[p0:p1], table.sizes[atom[p0:p1]], axis=0)
        push(mats_t[_edges(table, atom[p0:p1])[0]] @ per_edge)
    return counts


def _alive_counts(carriers, probes, thresholds) -> np.ndarray:
    """Per probe t, how many carriers C have |C t|_1 > threshold, taken in
    blocks of about BLOCK_BYTES of the (nodes, d, probes) product; |C t| is
    taken in place, so no second block is made."""
    n, d, _ = carriers.shape
    alive = np.zeros(probes.shape[0], dtype=np.int64)
    step = max(1, _common.BLOCK_BYTES // (8 * d * probes.shape[0]))
    for start in range(0, n, step):
        rows = carriers[start:start + step].reshape(-1, d)
        block = (rows @ probes.T).reshape(-1, d, probes.shape[0])
        np.abs(block, out=block)
        alive += (block.sum(axis=1) > thresholds).sum(axis=0)
    return alive


# ---------------------------------------------------------------------------
# Pool snapshots
# ---------------------------------------------------------------------------


def pool_to_csv(pool: SamplePool, path) -> None:
    """One `%.17g` cell per coordinate, CRLF rows after a z0,z1,... header;
    each block of _CSV_BLOCK rows is formatted by one `%` of a repeated row
    template, so no string of the whole pool is built.  Written by rename,
    so a failed write leaves no truncated pool."""
    row = ",".join(["%.17g"] * pool.dim) + "\r\n"
    with open_replacing(path) as fh:
        fh.write(",".join(f"z{i}" for i in range(pool.dim)) + "\r\n")
        for start in range(0, pool.size, _CSV_BLOCK):
            block = pool.samples[start:start + _CSV_BLOCK]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def pool_from_csv(path) -> SamplePool:
    with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on a header-only file
        header = fh.readline().rstrip("\n").split(",")
        try:
            samples = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"malformed pool snapshot: {exc}") from exc
    if samples.shape[1] != len(header):
        raise ValueError("malformed pool snapshot")
    if not np.isfinite(samples).all():
        raise ValueError("pool snapshot holds non-finite values")
    return SamplePool(dim=samples.shape[1], samples=samples)
