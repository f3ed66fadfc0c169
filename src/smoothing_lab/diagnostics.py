"""Empirical transforms of the fixed point and the survival-count statistics
that drive characteristic-function decay.

All estimators are pure folds over a sample pool, reduced with numpy's
pairwise summation; the transform curve squares its way up the dyadic radii
and takes the pool in fixed-size row blocks, adding the samples in pool
order, so its memory does not grow with the pool.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._common import as_generator
from .cascade import ZERO_TOL
from .errors import EmptyTail, InsufficientDecay, OutOfRange
from .models import ModelSpec

_PROBE_STREAM = 0xD1A6005E
_ECF_BLOCK_BYTES = 1 << 19    # bytes of complex phases per ECF row block
_DECAY_MAX_MODULUS = 0.9      # radii whose modulus stays below this are fitted
_DECAY_MIN_POINTS = 5
_DECAY_BOOTSTRAPS = 500
_SMALL_BALL_BOOTSTRAPS = 60
_STABILITY_RTOL = 0.05        # harmonic-moment ladder steps within this are stable


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

    The pool is taken in row blocks of about _ECF_BLOCK_BYTES of complex
    phases, so memory does not grow with the pool size.  Each radius keeps
    its running sum in row 0 of the block buffer, so the column sums still
    add the samples one at a time in pool order, and the curve is the same,
    bit for bit, as the mean over one (K, P) array.
    """
    if max_exp < 0:
        raise ValueError(f"max_exp must be >= 0, got {max_exp}")
    if n_probes is None:
        n_probes = 32 if pool.dim <= 2 else 128
    probes = sphere_grid(pool.dim, n_probes)
    width = probes.shape[0]                    # a 1-dim grid has two probes
    rows = max(1, _ECF_BLOCK_BYTES // (16 * width))
    buf = np.empty((rows + 1, width), dtype=complex)
    sums = np.zeros((max_exp + 1, width), dtype=complex)
    for start in range(0, pool.size, rows):
        n = min(rows, pool.size - start)
        # a lone row would go through gemv, which rounds differently from
        # the gemm of longer blocks, so it borrows the row before it
        lo = start - 1 if n == 1 and start > 0 else start
        e = buf[1:n + 1]
        np.multiply(1j, (pool.samples[lo:start + n] @ probes.T)[-n:], out=e)
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
    residual bootstrap.  InsufficientDecay when fewer than 5 radii qualify.
    """
    ok = curve.modulus < _DECAY_MAX_MODULUS
    tail = ok.size if ok.all() else int(np.argmin(ok[::-1]))  # contiguous run
    if tail < _DECAY_MIN_POINTS:
        raise InsufficientDecay(f"only {tail} radii below {_DECAY_MAX_MODULUS}")
    x = np.log(curve.radii[ok.size - tail:])
    y = np.log(curve.modulus[ok.size - tail:])
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    a_hat = -coef[0]
    # every resample in one draw (the stream of one draw per resample) and
    # one lstsq with a column per resample
    rng = as_generator(seed)
    draws = rng.choice(resid, size=(_DECAY_BOOTSTRAPS, resid.size))
    cb, *_ = np.linalg.lstsq(design, (design @ coef)[:, None] + draws.T,
                             rcond=None)
    boots = -cb[0]
    lo, hi = np.quantile(boots, [0.025, 0.975])
    ci = (float(min(lo, a_hat)), float(max(hi, a_hat)))
    return float(a_hat), ci


# ---------------------------------------------------------------------------
# Survival counts
# ---------------------------------------------------------------------------


@dataclass
class KillCountStats:
    """Exact laws of the per-branch survival counts over probe and threshold
    grids.

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
    #{i : |A_i^T t| > delta |t|}.  At delta = 0 the comparison uses a
    relative dust threshold, the tree counter's ZERO_TOL, so that probe
    directions carrying one-ulp rounding noise still register exact kernel
    hits.  Probes may carry negative entries; the counts are invariant under
    positive scaling of each probe.
    """
    t_grid = np.atleast_2d(np.asarray(t_grid, dtype=float))
    delta_grid = np.asarray(delta_grid, dtype=float)
    if t_grid.shape[0] == 0 or delta_grid.size == 0:
        raise ValueError("grids must be nonempty")
    if np.any(delta_grid < 0):
        raise ValueError("thresholds must be nonnegative")
    if not t_grid.any(axis=1).all():
        raise ValueError("probes must be nonzero")

    table = spec.branch_table
    vals = np.abs(np.matmul(t_grid[None], table.mats)).sum(axis=2)  # (M, P)
    thresholds = (np.maximum(delta_grid, ZERO_TOL)[None, :]
                  * np.abs(t_grid).sum(axis=1)[:, None])            # (P, D)
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

HARMONIC_FLOORS = (1e-6, 1e-8, 1e-10)
_HARMONIC_FLOOR = 1e-8        # the floor of the reported estimate


def harmonic_floor_table(pool, b: float) -> dict:
    """Floored harmonic-moment estimates E[max(|Z|, floor)^(-b)] per floor
    of HARMONIC_FLOORS; OutOfRange when one overflows."""
    if not (np.isfinite(b) and b > 0):
        raise ValueError(f"the order b must be finite and positive, got {b}")
    norms = pool.norms()
    with np.errstate(over="ignore"):
        table = {f: float(np.mean(np.maximum(norms, f) ** (-b)))
                 for f in HARMONIC_FLOORS}
    if not np.isfinite(list(table.values())).all():
        raise OutOfRange(f"the harmonic moment of order {b} overflows")
    return table


def harmonic_moment(pool, b: float):
    """(value, stable) floored harmonic moment of the pool norms at floor 1e-8.

    The floored empirical mean is finite unless it overflows (OutOfRange);
    divergence is operationalized as instability: the flag is True when successive floors
    in a fixed ladder move the estimate by at most 5 % each.
    """
    table = harmonic_floor_table(pool, b)
    value = table[_HARMONIC_FLOOR]
    ladder = [table[f] for f in HARMONIC_FLOORS]
    stable = all(
        abs(ladder[i + 1] - ladder[i]) <= _STABILITY_RTOL * ladder[i]
        for i in range(len(ladder) - 1)
    )
    return value, stable


def small_ball_exponent(pool, eps_grid, seed=0):
    """(slope, (lo, hi)): regression of log P[|Z| <= eps] on log eps.

    EmptyTail when no sample falls below the largest grid value.  The
    confidence interval is a bootstrap over pool resamples.
    """
    eps_grid = np.sort(np.asarray(eps_grid, dtype=float))
    if np.any(eps_grid <= 0):
        raise ValueError("eps grid must be positive")
    norms = np.sort(pool.norms())
    k = norms.size
    counts = np.searchsorted(norms, eps_grid, side="right")
    if counts[-1] == 0:
        raise EmptyTail("no sample at or below the largest epsilon")
    keep = counts > 0
    if keep.sum() < 2:
        raise EmptyTail("fewer than two grid points are resolved by the pool")
    x = np.log(eps_grid[keep])
    design = np.vstack([x, np.ones_like(x)]).T

    def fit(csel) -> float:
        y = np.log(csel / k)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        return float(coef[0])

    slope = fit(counts[keep].astype(float))
    rng = as_generator(seed)
    boots = []
    for _ in range(_SMALL_BALL_BOOTSTRAPS):
        resampled = rng.choice(norms, size=k, replace=True)
        resampled.sort()
        cb = np.searchsorted(resampled, eps_grid[keep], side="right")
        if np.any(cb == 0):
            continue
        boots.append(fit(cb.astype(float)))
    if boots:
        lo, hi = np.quantile(boots, [0.025, 0.975])
        ci = (float(min(lo, slope)), float(max(hi, slope)))
    else:
        ci = (slope, slope)
    return slope, ci
