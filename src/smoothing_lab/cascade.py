"""Samplers for the fixed-point law: population dynamics and weighted trees.

The pool sampler applies one smoothing round to an empirical sample cloud:
every new sample is sum_i a_i z_i with a fresh branch draw and z_i resampled
with replacement from the previous pool.  The tree sampler grows the
weighted branching tree explicitly and is unbiased at finite depth for
models whose mean matrix has unit spectral radius.  Both draw from the
model's branch table and sum its row gather over each parent's edges (one
edge fold); a tree is kept as its atom draws per level, and the martingale
folds the leaf level into the branch sums Y_b.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._common import (
    DEFAULT_NODE_BUDGET,
    as_generator,
    resolve_budget,
    spawn_generators,
)
from .errors import OutOfRange, SupercriticalBlowup
from .matrices import pf_decompose, spectral_radius
from .models import BranchTable, ModelSpec, expected_n, mean_sum_matrix, mu_mean

_TREE_CHUNK = 512
_ALIVE_BLOCK = 4096
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
    iteration then collapses to zero in probability).
    """
    if not 0 < tail_index:
        raise ValueError("tail_index must be positive")
    rng = as_generator(seed)
    direction = pf_decompose(mean_sum_matrix(spec))
    w = rng.uniform(size=k) ** (-1.0 / tail_index)
    return SamplePool(dim=spec.dim, samples=w[:, None] * direction[None, :])


def iterate_pool(spec: ModelSpec, pool: SamplePool, seed) -> SamplePool:
    """One smoothing round over the pool; deterministic given the seed.

    Resampling is with replacement and value-independent, so iterating from
    c * pool with the same seed yields exactly c times the iterated pool.
    """
    if pool.dim != spec.dim:
        raise ValueError("pool dimension does not match the model")
    rng = as_generator(seed)
    table = spec.branch_table
    k = pool.size
    # bound to the end of the round: freed early, it let the heap shrink and
    # each round fault its pages in again (12x the faults on ex2, k = 50k)
    atom = table.draw(rng, k)
    ids, starts = _edges(table, atom)
    picks = rng.integers(0, k, size=ids.size)
    new = _fold(table, ids, starts, np.take(pool.samples.T, picks, axis=1)).T
    return SamplePool(dim=spec.dim, samples=new, generation=pool.generation + 1)


def run_fixed_point(spec: ModelSpec, k: int, rounds: int, init=None, seed=0,
                    initial_pool: SamplePool | None = None):
    """Iterate the pool `rounds` times from a constant cloud at `init`.

    Returns (pool, mean_norm_history); the history has rounds + 1 entries and
    starts with the initial pool.  An explicit initial_pool overrides init.
    OutOfRange as soon as a mean norm in the history is not finite.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    if initial_pool is not None:
        pool = initial_pool
    else:
        if init is None:
            init = pf_decompose(mean_sum_matrix(spec))
        pool = constant_pool(init, k)
    history = [_mean_norm(pool)]
    streams = spawn_generators(seed, rounds)
    for rng in streams:
        pool = iterate_pool(spec, pool, rng)
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
                 node_budget: int) -> list:
    """Atom draws of a forest grown to `depth`, one array per level below it.

    Children follow their parents' order and then the branch order, so the
    leaf level is counted against the budget but never built.
    """
    tree = np.arange(n_trees)
    nodes_per_tree = np.ones(n_trees)
    levels = []
    for lvl in range(depth):
        atom = table.draw(rng, tree.size)
        counts = table.sizes[atom]
        nodes_per_tree += np.bincount(tree, weights=counts, minlength=n_trees)
        if nodes_per_tree.max(initial=0) > node_budget:
            raise SupercriticalBlowup(
                f"tree grew past {node_budget} nodes before reaching depth {depth}"
            )
        levels.append(atom)
        if lvl + 1 < depth:
            tree = np.repeat(tree, counts)
    return levels


def _edges(table: BranchTable, atom: np.ndarray):
    """Matrix id of every child edge of a level, and each parent's first edge."""
    counts = table.sizes[atom]
    starts = np.cumsum(counts) - counts
    ids = np.arange(starts[-1] + counts[-1]) + np.repeat(
        table.offsets[atom] - starts, counts)
    return ids, starts


def _fold(table: BranchTable, ids: np.ndarray, starts: np.ndarray,
          child: np.ndarray) -> np.ndarray:
    """Per parent, the sum over its edges e of mats[ids[e]] @ child[:, e].

    child holds one column per edge and the result one column per parent;
    each row is gathered and summed on its own, so only one row of edge
    products is held at a time.
    """
    out = np.empty((child.shape[0], starts.size))
    for i in range(child.shape[0]):
        out[i] = np.add.reduceat(table.row(i, ids, child), starts)
    return out


def martingale_samples(spec: ModelSpec, depth: int, trials: int,
                       seed) -> np.ndarray:
    """trials independent draws of sum over depth-n nodes of G_u v.

    v is the unit-L1 Perron eigenvector of the mean sum matrix; the sum is
    then a mean-one vector martingale in the depth whenever E[N] times the
    single-matrix mean has unit spectral radius.

    The leaf level is never built: a depth-(n-1) node that draws atom b
    contributes Y_b v, with Y_b its branch sum.  Each level above is folded
    into its parents by the same edge gather as the pool round.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
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
    out = np.empty((trials, spec.dim))
    n_chunks = (trials + _TREE_CHUNK - 1) // _TREE_CHUNK
    streams = spawn_generators(seed, n_chunks)
    done = 0
    for rng in streams:
        chunk = min(_TREE_CHUNK, trials - done)
        levels = _grow_forest(table, depth, chunk, rng, budget)
        vecs = leaf_sums[:, levels.pop()]  # (d, nodes), one row per coordinate
        while levels:
            ids, starts = _edges(table, levels.pop())
            vecs = _fold(table, ids, starts, vecs)
        out[done:done + chunk] = vecs.T
        done += chunk
    return out


def survival_counts(spec: ModelSpec, probes, depth: int, seed) -> np.ndarray:
    """Counts of depth-l nodes with G_u^T t != 0, per level and probe.

    Returns an integer array of shape (depth + 1, n_probes) for one simulated
    tree; G_u^T t is declared nonzero when its L1 norm exceeds ZERO_TOL |t|.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if not probes.any(axis=1).all():
        raise ValueError("probe directions must be nonzero")
    budget = resolve_budget(DEFAULT_NODE_BUDGET)
    rng = as_generator(seed)
    table = spec.branch_table
    levels = _grow_forest(table, depth, 1, rng, budget)
    mats_t = table.mats.transpose(0, 2, 1)

    thresholds = ZERO_TOL * np.abs(probes).sum(axis=1)
    counts = np.empty((depth + 1, probes.shape[0]), dtype=np.int64)
    # carriers[u] = G_u^T, propagated as G_(ui)^T = A_(ui)^T G_u^T
    carriers = np.eye(spec.dim)[None, :, :]
    counts[0] = _alive_counts(carriers, probes, thresholds)
    for lvl, atom in enumerate(levels):
        per_edge = np.repeat(carriers, table.sizes[atom], axis=0)
        carriers = mats_t[_edges(table, atom)[0]] @ per_edge
        counts[lvl + 1] = _alive_counts(carriers, probes, thresholds)
    return counts


def _alive_counts(carriers, probes, thresholds) -> np.ndarray:
    """Per probe t, how many carriers C have |C t|_1 > threshold, taken in
    row blocks so that the (nodes, d, probes) product is never held whole."""
    n, d, _ = carriers.shape
    alive = np.zeros(probes.shape[0], dtype=np.int64)
    for start in range(0, n, _ALIVE_BLOCK):
        rows = carriers[start:start + _ALIVE_BLOCK].reshape(-1, d)
        block = np.abs(rows @ probes.T).reshape(-1, d, probes.shape[0])
        alive += (block.sum(axis=1) > thresholds).sum(axis=0)
    return alive


# ---------------------------------------------------------------------------
# Pool snapshots
# ---------------------------------------------------------------------------


def pool_to_csv(pool: SamplePool, path) -> None:
    """One `%.17g` cell per coordinate, CRLF rows after a z0,z1,... header;
    each block of _CSV_BLOCK rows is formatted by one `%` of a repeated row
    template, so no string of the whole pool is built."""
    row = ",".join(["%.17g"] * pool.dim) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
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
