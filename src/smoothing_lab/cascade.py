"""Samplers for the fixed-point law: population dynamics and weighted trees.

The pool sampler applies one smoothing round to an empirical sample cloud:
every new sample is sum_i a_i z_i with a fresh branch draw and z_i resampled
with replacement from the previous pool.  The tree sampler grows the
weighted branching tree explicitly and is unbiased at finite depth for
models whose mean matrix has unit spectral radius.  Both draw from the
model's branch table and sum each parent's children by one slot fold: slot s
gathers the s-th child and branch matrix of every parent that has one, takes
its rows through the table's `row` gather, into buffers that the caller
keeps, and adds them to the parents' sums in slot order; the Perron start
and the leaves' Y_b v are in-order too (`_contract`), so no BLAS kernel
decides how a sample rounds.  The pool round folds a block of parents at a
time, and a forest is kept as narrow atom ids and tree offsets per level,
drawn a block at a time with one kept float scratch; the martingale folds it
leaves-up in that same scratch, its deep levels a block of whole trees at a
time and the narrow levels above them once per forest, and survival_counts
walks it depth first.  So the working sets are bounded by BLOCK_BYTES, not
by k E[N] or by the widest level.
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
from .matrices import _contract, pf_decompose, spectral_radius
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
    block's picks (its resampled children, one per edge) are drawn and the
    block is folded slot by slot into its columns of the new pool, so the
    round holds one block's picks and temporaries, not all k E[N] children.
    The picks are one Philox stream drawn in block order, so the pool does
    not depend on the block size.  The new samples are out.T for a (dim, k)
    `out`, and `scratch` (from `_pool_scratch`) holds the fold's
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
    if scratch is None:
        scratch = _pool_scratch(table, d, k)
    if any(np.may_share_memory(a, pool.samples) for a in (out, scratch)):
        raise ValueError("out and scratch must not share memory with the pool")
    per = scratch.size // _fold_width(table, d)      # parents per block
    # np.take would copy a strided (C-order) pool again in every slot
    samples = np.ascontiguousarray(pool.samples.T)
    atom = np.empty(k, dtype=np.min_scalar_type(table.sizes.size - 1))
    for p0 in range(0, k, per):
        block = atom[p0:p0 + per]
        block[:] = table.draw(rng, block.size)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for p0 in range(0, k, per):
            block = atom[p0:p0 + per]
            picks = rng.integers(0, k, size=table.sizes.take(block).sum())
            _slot_fold(table, block, samples, out[:, p0:p0 + per], scratch,
                       picks)
    if not np.isfinite(out).all():
        raise OutOfRange(f"a sample overflows in round {pool.generation + 1}")
    return SamplePool(dim=d, samples=out.T, generation=pool.generation + 1)


def _pool_scratch(table: BranchTable, d: int, k: int) -> np.ndarray:
    """Fold scratch of a k-sample pool round: `_fold_width` floats for each
    parent of a block whose picks, gathered, would hold at most BLOCK_BYTES
    even if each parent drew the largest branch; at least one parent and
    at most k."""
    per = min(k, max(1, _common.BLOCK_BYTES // (8 * d * table.size_range[1])))
    return np.empty(per * _fold_width(table, d))


def _fold_width(table: BranchTable, d: int) -> int:
    """Scratch floats per parent of `_slot_fold`: three id columns, the
    slot's child gather (d), two row terms, and d rows of sums in
    branch-size order when branch sizes differ."""
    lo, hi = table.size_range
    return 5 + d + d * int(lo < hi)


def _slot_fold(table: BranchTable, atom: np.ndarray, src: np.ndarray,
               out: np.ndarray, scratch: np.ndarray, index=None) -> None:
    """Into out[:, p], per parent p, the sum over the slots s of its branch
    of mats[offsets[atom[p]] + s] @ src[:, c], where c is e = start_p + s,
    its edge, or index[e] when `index` is given, and start_p counts the
    edges of the parents before p.

    Slot by slot: slot s reads its parents' child columns (a stride when
    every branch has the same size, else a gather into the scratch) and
    takes each row of their s-th matrices through BranchTable.row, so no
    per-edge array is built.  Each slot's term is added to its parent's sum
    in slot order, t0 + t1 + ... + t_{n-1}.  When branch sizes differ, the
    parents are taken in decreasing branch size, so each slot's parents are
    a prefix and its work is its edges.  Every temporary of parent size but
    that order and the `index` gather is carved from `scratch`,
    `_fold_width` floats per parent.
    """
    d, n = out.shape
    lo, hi = table.size_range
    start, first, ids = scratch[:3 * n].view(np.int64).reshape(3, n)
    child = scratch[3 * n:(3 + d) * n]
    terms = scratch[(3 + d) * n:(5 + d) * n].reshape(2, n)
    table.offsets.take(atom, out=first, mode="clip")
    acc, order = out, None
    if lo < hi:
        table.sizes.take(atom, out=ids, mode="clip")
        np.cumsum(ids, out=start)
        start -= ids
        order = np.argsort((hi - ids).astype(np.min_scalar_type(hi)),
                           kind="stable")
        # slot s takes the parents with more than s matrices
        takers = n - np.bincount(ids, minlength=hi).cumsum()
        np.take(start, order, out=ids)
        start, ids = ids, start
        np.take(first, order, out=ids)
        first, ids = ids, first
        acc = scratch[(5 + d) * n:(5 + 2 * d) * n].reshape(d, n)
    for s in range(hi):
        if order is None:               # edge s of parent p is hi p + s
            m, edges = n, slice(s, None, hi)
        else:
            m = int(takers[s])
            edges = np.add(start[:m], s, out=ids[:m])
        if index is None and order is None:
            x = src[:, edges]
        else:
            x = np.take(src, edges if index is None else index[edges], axis=1,
                        out=child[:d * m].reshape(d, m), mode="clip")
        at = np.add(first[:m], s, out=ids[:m])
        term, spare = terms[:, :m]
        for i in range(d):
            if s == 0:
                table.row(i, at, x, acc[i], term)
            else:
                acc[i, :m] += table.row(i, at, x, term, spare)
    if order is not None:
        out[:, order] = acc


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
    a time, its uniforms (then its widened ids) and child counts into
    `scratch`, grown to twice min(BLOCK_BYTES // 8, level width) entries
    and returned for the caller to reuse; the leaf level is counted against
    the budget but never built.
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
        u, count = scratch[:n], scratch[n:2 * n].view(np.int64)
        below = np.empty_like(off)      # children before each tree's first node
        t = total = 0
        for start in range(0, atom.size, step):
            block = atom[start:start + step]
            table.draw(rng, block.size, out=block, u=u)
            wide = u[:block.size].view(np.int64)  # the uniforms are spent
            wide[...] = block
            counts = table.sizes.take(wide, out=count[:block.size],
                                      mode="clip")
            stop = np.searchsorted(off, start + block.size)
            if t < stop:                # trees whose first node is here
                first = off[t:stop] - start
                heads = np.add.reduceat(counts, first)
                below[t:stop] = (total + counts[:first[0]].sum()
                                 + np.cumsum(heads) - heads)
            t, total = stop, total + counts.sum()
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


def martingale_samples(spec: ModelSpec, depth: int, trials: int,
                       seed) -> np.ndarray:
    """trials independent draws of sum over depth-n nodes of G_u v.

    v is the unit-L1 Perron eigenvector of the mean sum matrix; the sum is
    then a mean-one vector martingale in the depth whenever E[N] times the
    single-matrix mean has unit spectral radius.

    The leaf level is never built: a depth-(n-1) node that draws atom b
    contributes Y_b v, with Y_b its branch sum, which the deepest fold
    gathers through the node's atom id.  Each forest is drawn in one float
    scratch kept by the call and folded leaves-up in it by
    `_fold_forest`, so draw and fold buffers are never live together.
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
    leaf_sums = _contract(table.sums, v[:, None])[..., 0].T.copy()  # Y_b v
    out = np.empty((trials, spec.dim))
    scratch = None
    n_chunks = (trials + _TREE_CHUNK - 1) // _TREE_CHUNK
    streams = spawn_generators(seed, n_chunks)
    done = 0
    for rng in streams:
        chunk = min(_TREE_CHUNK, trials - done)
        levels, offsets, scratch = _grow_forest(table, depth, chunk, rng,
                                                budget, scratch)
        if depth == 1:
            out[done:done + chunk] = leaf_sums.take(levels[0], axis=1).T
        else:
            roots, scratch = _fold_forest(table, levels, offsets, leaf_sums,
                                          scratch)
            out[done:done + chunk] = roots.T
        done += chunk
        del levels, offsets     # before the next forest grows beside it
    return out


def _fold_forest(table: BranchTable, levels: list, offsets: list,
                 leaf_sums: np.ndarray, scratch: np.ndarray) -> tuple:
    """((d, n_trees) root sums, scratch) of a forest of two or more levels
    from `_grow_forest`, whose deepest nodes contribute leaf_sums[:, atom].

    Every fold reads a level and writes its parents' level.  `top` is the
    deepest parent level whose whole width W, at 2d + `_fold_width` floats
    a parent, fits the scratch.  The levels below it are folded a block of
    whole trees at a time into its columns, held in the scratch's first
    d W floats, and the block's two level buffers and fold temporaries
    share the rest, so each parent sums its edges as one fold.  The levels
    above `top` are then folded once for the whole forest.  The scratch
    grows only when one tree's deepest parent level does not fit beside
    the top level, and is returned for the caller to reuse.
    """
    d = leaf_sums.shape[0]
    per = 2 * d + _fold_width(table, d)
    width = [off[-1] for off in offsets]
    top = max((l for l in range(len(levels) - 1)
               if per * width[l] <= scratch.size), default=0)
    ends = offsets[-2]
    need = d * width[top] + per * int(np.diff(ends).max())
    if scratch.size < need:
        scratch = np.empty(need)
    head = scratch[:d * width[top]].reshape(d, -1)
    back = scratch[d * width[top]:]
    t0 = 0
    while t0 < ends.size - 1:  # whole trees that fit the back, or one
        t1 = max(t0 + 1, ends.searchsorted(ends[t0] + back.size // per,
                                           "right") - 1)
        n = ends[t1] - ends[t0]     # the deepest parent level is the widest
        temps = back[2 * d * n:]
        src, index = leaf_sums, levels[-1][offsets[-1][t0]:offsets[-1][t1]]
        for l in range(len(levels) - 2, top - 1, -1):
            lo, hi = offsets[l][t0], offsets[l][t1]
            dst = (head[:, lo:hi] if l == top else
                   back[l % 2 * d * n:][:d * (hi - lo)].reshape(d, -1))
            _slot_fold(table, levels[l][lo:hi], src, dst, temps, index)
            src, index = dst, None
        t0 = t1
    src = head
    temps = back[d * width[top - 1]:] if top else back
    for l in range(top - 1, -1, -1):  # the rest, the whole forest at once
        region = back if (top - l) % 2 else scratch
        dst = region[:d * width[l]].reshape(d, -1)
        _slot_fold(table, levels[l], src, dst, temps)
        src = dst
    return src, scratch


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
        # G_(ui)^T = A_(ui)^T G_u^T, for the s-th child of every parent
        # with more than s of them at a time
        sizes = table.sizes[atom[p0:p1]]
        first = table.offsets[atom[p0:p1]]
        start = ends[p0:p1] - sizes - below     # each parent's first child
        children = np.empty((ends[p1 - 1] - below,) + carriers.shape[1:])
        for s in range(sizes.max()):
            took = sizes > s
            children[start[took] + s] = (mats_t[first[took] + s]
                                         @ carriers[p0:p1][took])
        push(children)
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
