"""Empirical transforms of the fixed point and the survival-count statistics
that drive characteristic-function decay.

All estimators are folds over a sample pool in a fixed order of numpy
operations, so no BLAS or LAPACK kernel decides how they round: products
add their terms in index order (`matrices._contract`, as the samplers do),
both tail fits share one closed-form slope (`_slope`) and the transform
curve adds in pool order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _common
from ._common import as_generator
from .cascade import ZERO_TOL
from .errors import EmptyTail, InsufficientDecay, OutOfRange
from .matrices import _contract
from .models import ModelSpec

_PROBE_STREAM = 0xD1A6005E
_DECAY_MAX_MODULUS = 0.9      # radii whose modulus stays below this are fitted
_DECAY_MIN_POINTS = 5
_DECAY_BOOTSTRAPS = 500
_SMALL_BALL_BOOTSTRAPS = 60
# each squaring in transform_curve doubles the rounding error of the
# modulus: over 200k phases x uniform on [0, 10), ||e| - 1| after k
# squarings of exp(i x) is 9.1e-6 at k = 36, 1.4e-4 at 40, 3.8e-2 at 48
# and 1.3e4 at 56, where the curve would read moduli far above 1
_MAX_EXP = 36


def _slope(x, y) -> np.ndarray:
    """Least-squares slopes of the columns of y (n, m) on x (n,), in closed
    form: sum (x - xbar)(y - ybar) / sum (x - xbar)^2, each column's sums
    taken over its rows in index order."""
    dx = (x - x.mean())[None]
    dy = y - _contract(np.ones_like(dx), y) / x.size
    return (_contract(dx, dy) / _contract(dx, dx.T))[0]


def _interval(boots, estimate: float) -> tuple:
    """The 2.5 and 97.5 % quantiles of the bootstrap slopes, widened to hold
    the estimate; (estimate, estimate) when there are none."""
    if not boots.size:
        return estimate, estimate
    lo, hi = np.quantile(boots, [0.025, 0.975])
    return float(min(lo, estimate)), float(max(hi, estimate))


def sphere_grid(dim: int, n: int) -> np.ndarray:
    """Deterministic probes on the full unit sphere (signed entries, L1 norm 1)."""
    if n < 1:
        raise ValueError(f"the probe count must be >= 1, got {n}")
    if dim == 1:
        return np.array([[1.0], [-1.0]])[:n]
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(n) / n
        t = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        rng = as_generator(_PROBE_STREAM)
        t = rng.normal(size=(n, dim))
    return t / np.abs(t).sum(axis=1, keepdims=True)


@dataclass
class TransformCurve:
    """Sup over probe directions of the transform modulus, per radius."""

    radii: np.ndarray
    probe_directions: np.ndarray
    modulus: np.ndarray
    stderr: float


def transform_curve(pool, max_exp: int = 14,
                    n_probes: int | None = None) -> TransformCurve:
    """Sup-modulus curve on the radii 2^0 .. 2^max_exp: exp(i 2r phi) is
    exp(i r phi) squared, so one exp at radius 1, then a squaring per radius.

    The pool is taken in row blocks of about BLOCK_BYTES of complex phases.
    Each radius keeps its running sum in row 0 of the block buffer, so the
    samples are added one at a time in pool order, and the curve is the
    mean over one (K, P) array bit for bit.  ValueError unless 0 <= max_exp
    <= 36, where the squarings still hold the modulus to 1e-5.
    """
    if not 0 <= max_exp <= _MAX_EXP:
        raise ValueError(f"max_exp must lie in [0, {_MAX_EXP}], got {max_exp}")
    if n_probes is None:
        n_probes = 32 if pool.dim <= 2 else 128
    probes = sphere_grid(pool.dim, n_probes)
    width = probes.shape[0]                    # a 1-dim grid has two probes
    rows = max(1, _common.BLOCK_BYTES // (16 * width))
    buf = np.empty((rows + 1, width), dtype=complex)
    sums = np.zeros((max_exp + 1, width), dtype=complex)
    for start in range(0, pool.size, rows):
        n = min(rows, pool.size - start)
        e = np.multiply(1j, _contract(pool.samples[start:start + n], probes.T),
                        out=buf[1:n + 1])
        np.exp(e, out=e)                           # radius 1
        for i in range(max_exp + 1):
            buf[0] = sums[i]
            buf[:n + 1].sum(axis=0, out=sums[i])
            if i < max_exp:
                np.square(e, out=e)
    modulus = np.array([np.abs(s / pool.size).max() for s in sums])
    return TransformCurve(
        radii=2.0 ** np.arange(max_exp + 1), probe_directions=probes,
        modulus=modulus, stderr=1.0 / np.sqrt(pool.size),
    )


def decay_fit(curve: TransformCurve, seed=0):
    """(a_hat, (lo, hi)): least-squares decay exponent of the curve tail.

    Fits -slope of log modulus against log radius on the largest contiguous
    run of radii whose modulus stays below 0.9; the confidence interval is a
    residual bootstrap, a resample's slope being the fit's plus that of its
    residuals.  InsufficientDecay when fewer than 5 radii qualify.
    """
    ok = curve.modulus < _DECAY_MAX_MODULUS
    tail = ok.size if ok.all() else int(np.argmin(ok[::-1]))  # contiguous run
    if tail < _DECAY_MIN_POINTS:
        raise InsufficientDecay(f"only {tail} radii below {_DECAY_MAX_MODULUS}")
    x = np.log(curve.radii[ok.size - tail:])
    y = np.log(curve.modulus[ok.size - tail:])
    slope = _slope(x, y[:, None])[0]
    resid = y - slope * x
    resid -= resid.mean()
    # every resample in one draw (the stream of one draw per resample)
    draws = as_generator(seed).choice(resid, size=(_DECAY_BOOTSTRAPS, tail))
    a_hat = float(-slope)
    return a_hat, _interval(-(slope + _slope(x, draws.T)), a_hat)


# ---------------------------------------------------------------------------
# Survival counts
# ---------------------------------------------------------------------------


@dataclass
class KillCountStats:
    """Exact laws of the per-branch survival counts per probe and threshold.

    counts[i][j] maps a count value to its probability for probe i and
    threshold j; means is the matching expectation table.
    """

    counts: list
    means: np.ndarray

    def min_mean_per_delta(self) -> np.ndarray:
        return self.means.min(axis=0)


def kill_counts(spec: ModelSpec, t_grid, delta_grid) -> KillCountStats:
    """Exact finite-atom laws of the survival counts.

    The count of a branch at probe t and threshold delta is
    #{i : |A_i^T t| > (delta + ZERO_TOL) |t|}: the tree counter's relative
    dust threshold makes a matrix at |A_i^T t| = delta |t| exactly, a kernel
    hit at delta = 0 included, count as dead however t's one-ulp noise
    rounds.  Probes may carry negative entries; the counts are invariant
    under positive scaling of each probe.
    """
    t_grid = np.atleast_2d(np.asarray(t_grid, dtype=float))
    delta_grid = np.asarray(delta_grid, dtype=float)
    if t_grid.shape[0] == 0 or delta_grid.size == 0:
        raise ValueError("grids must be nonempty")
    if not np.all((delta_grid >= 0) & np.isfinite(delta_grid)):
        raise ValueError("thresholds must be nonnegative and finite")
    if not (np.isfinite(t_grid).all() and t_grid.any(axis=1).all()):
        raise ValueError("probes must be finite and nonzero")

    table = spec.branch_table
    vals = np.abs(_contract(t_grid[None], table.mats)).sum(axis=2)  # (M, P)
    thresholds = ((delta_grid + ZERO_TOL)[None, :]
                  * np.abs(t_grid).sum(axis=1)[:, None])          # (P, D)
    alive = (vals[:, :, None] > thresholds[None]).astype(np.int64)
    per_atom = np.add.reduceat(alive, table.offsets, axis=0)        # (B, P, D)
    weights = table.probs.tolist()

    counts: list = []
    means = np.zeros((t_grid.shape[0], delta_grid.size))
    for i in range(t_grid.shape[0]):
        laws = [dict() for _ in range(delta_grid.size)]
        for p, row in zip(weights, per_atom[:, i].tolist()):
            for law, c in zip(laws, row):
                law[c] = law.get(c, 0.0) + p
        counts.append(laws)
        means[i] = [sum(k * q for k, q in law.items()) for law in laws]
    return KillCountStats(counts=counts, means=means)


# ---------------------------------------------------------------------------
# Harmonic moments and the small-ball exponent
# ---------------------------------------------------------------------------

def harmonic_moment(pool, b: float, seed=0):
    """(value, finite): harmonic moment of order b of the pool norms, and
    whether E|Z|^(-b) is finite.

    value is the mean of max(|Z|, m)^(-b), with m the pool's smallest
    positive norm, so value(c pool) = c^(-b) value(pool).  If
    P[|Z| <= eps] ~ eps^a0, the moment is finite exactly when b < a0, so
    finite is True when b lies below the interval of
    `small_ball_exponent(pool, seed=seed)`, False when it lies above, and
    None when b falls inside it or the pool resolves no tail (EmptyTail).
    ValueError for an order that is not finite and positive or a pool with
    no nonzero sample; OutOfRange when the value overflows.
    """
    if not (np.isfinite(b) and b > 0):
        raise ValueError(f"the order b must be finite and positive, got {b}")
    norms = pool.norms()
    pos = norms[norms > 0]
    if not pos.size:
        raise ValueError("the pool has no nonzero sample")
    with np.errstate(over="ignore"):
        value = float(np.mean(np.maximum(norms, pos.min()) ** (-b)))
    if not np.isfinite(value):
        raise OutOfRange(f"the harmonic moment of order {b} overflows")
    try:
        _, (lo, hi) = small_ball_exponent(pool, seed=seed)
    except EmptyTail:
        return value, None
    return value, True if b < lo else False if b > hi else None


def _resampled_counts(counts, k: int, rng, size: int) -> np.ndarray:
    """size draws of how many of k norms resampled with replacement fall
    at or below each radius, given the nondecreasing counts of the pool's
    own k norms there.  The resample's counts in the bins the radii cut
    are Multinomial(k, bin fractions), so each draw is one multinomial
    summed over the bins, with no resample built or sorted."""
    bins = np.diff(counts, prepend=0, append=k)
    return rng.multinomial(k, bins / k, size=size)[:, :-1].cumsum(axis=1)


def small_ball_exponent(pool, eps_grid=None, seed=0):
    """(slope, (lo, hi)): regression of log P[|Z| <= eps] on log eps.

    With no grid, eps runs over 8 geometric radii between quantiles of the
    positive norms: 2e-4 to 2e-2 from 10k of them up, 1e-2 to 2e-1 below
    that.  The grid scales with the pool, so the fit on c pool equals the
    fit on the pool.  EmptyTail with fewer than 100 positive norms, or when
    the pool's counts at the radii take fewer than two distinct values (a
    point mass collapses the grid).  The confidence interval is a
    bootstrap over pool resamples, each drawn as its counts by
    `_resampled_counts`; those that leave a radius empty are dropped.
    """
    norms = np.sort(pool.norms())
    if eps_grid is None:
        pos = norms[norms > 0]
        if pos.size < 100:
            raise EmptyTail(f"{pos.size} positive norms; the fit needs 100")
        q = (2e-4, 2e-2) if pos.size >= 10_000 else (1e-2, 2e-1)
        eps_grid = np.geomspace(*(np.quantile(pos, p) for p in q), 8)
    eps_grid = np.sort(np.asarray(eps_grid, dtype=float))
    if not eps_grid.size or not np.all((eps_grid > 0) & np.isfinite(eps_grid)):
        raise ValueError("eps grid must be nonempty, positive and finite")
    k = norms.size
    counts = np.searchsorted(norms, eps_grid, side="right")
    keep = counts > 0
    if np.unique(counts[keep]).size < 2:
        raise EmptyTail("the pool tells fewer than two grid radii apart")
    x = np.log(eps_grid[keep])
    slope = float(_slope(x, np.log(counts[keep] / k)[:, None])[0])
    draws = _resampled_counts(counts[keep], k, as_generator(seed),
                              _SMALL_BALL_BOOTSTRAPS)
    draws = draws[draws.all(axis=1)]
    return slope, _interval(_slope(x, np.log(draws.T / k)), slope)
