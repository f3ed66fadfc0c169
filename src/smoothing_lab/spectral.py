"""Spectral functionals of the single-matrix law and its transfer operators.

Chain quantities (growth rates of norm moments, the Lyapunov exponent) are
estimated by Monte Carlo over products of i.i.d. matrices with periodic
renormalization.  One kernel draws every chain: a row gather of a branch
table of singleton branches, as in a pool round, advances the chains by a
word of several steps, read from a table of every word of the chain law.
The product stack is updated in place one block of chains at a time.
Moments of several orders are read off one set of chains, in the log
domain.  The conditioned singleton-branch law additionally gets a
discretized transfer operator on the direction simplex whose leading
eigenvalue extends the moment growth rate to negative orders; its root
against 1/P[N = 1] is the critical harmonic-moment exponent.  The operator
interpolates linearly on the Freudenthal (Kuhn) triangulation of the
lattice grid, in closed form, each corner's grid row given by its rank in
the combinatorial number system, and is held in gather form whose geometry
is built once per law and grid.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, combinations_with_replacement
from math import comb

import numpy as np

from . import _common
from ._common import (DEFAULT_ELEMENT_BUDGET, as_generator, charge_budget,
                      resolve_budget, spawn_generators)
from .errors import (
    FurstenbergKestenViolated,
    NoConvergence,
    OutOfRange,
    RootNotBracketed,
    SingularDirection,
    WitnessNotFound,
)
from .matrices import _power_direction, spectral_radius
from .models import (
    BranchTable,
    ModelSpec,
    conditioned_a1_atoms,
    expected_n,
    mu_atom_law,
    mu_mean,
    prob_n_equals,
)

_RENORM_EVERY = 32
_WORD_TABLE = 256             # most words of k chain steps compiled at once
_ALPHA_S_MIN = 1e-3           # left end of the moment-root grid
_ALPHA_SLOPE_STEP = 0.05      # half-width of the decreasing-slope check
_ALPHA_TOL = 1e-3             # accepted |m(alpha) - 1|
_EIGEN_TOL = 1e-12
_EIGEN_MAX_ITER = 20_000
_A_MAX = 10.0                 # largest order the critical exponent is sought at
_GEOMETRY_CACHE = 8           # (law, grid) transfer geometries kept


# ---------------------------------------------------------------------------
# Chain Monte Carlo
# ---------------------------------------------------------------------------


def _chain_log_norms(law, n: int, trials: int, seed) -> np.ndarray:
    """log ||M_n ... M_1|| for `trials` independent chains drawn from `law`.

    law: list of (probability, matrix), compiled as singleton branches of M
    atoms.  The chains advance k steps per row gather on the (d, d, trials)
    product stack, from a second table of all M**k words, where k is the
    largest power of two <= _RENORM_EVERY with M**k <= _WORD_TABLE, so that
    no word straddles a renormalization.  The M**k words are indexed so that
    the atoms ids[0], ..., ids[k-1] drawn for steps 1 to k of a block make
    word sum_j ids[j] M**j, the product M_{ids[k-1]} ... M_{ids[0]}.  So the
    draws are those of one step at a time, and only the order of the
    multiplications changes.  The last n mod k steps run one at a time on
    the base table.  The stack is renormalized every _RENORM_EVERY steps and
    at the end, and the log scale accumulated, since the chains decay
    geometrically.  Each step's ids are drawn for every chain at once, and
    the stack is updated in place BLOCK_BYTES of it at a time.  Raises
    SingularDirection when a chain product vanishes.
    """
    if n < 1:
        raise ValueError("chain length must be >= 1")
    if trials < 1:
        raise ValueError("chain trials must be >= 1")
    rng = as_generator(seed)
    table = BranchTable.compile([(p, [m]) for p, m in law])
    atoms, d = table.mats.shape[:2]
    k = 1
    while 2 * k <= _RENORM_EVERY and atoms ** (2 * k) <= _WORD_TABLE:
        k *= 2
    words, probs = table.mats, table.probs
    for _ in range(k - 1):
        words = (table.mats[:, None] @ words[None]).reshape(-1, d, d)
        probs = np.outer(table.probs, probs).ravel()
    word_table = BranchTable.compile([(p, [w]) for p, w in zip(probs, words)])
    prod = np.eye(d)[:, :, None].repeat(trials, axis=2)
    logscale = np.zeros(trials)
    block = max(1, _common.BLOCK_BYTES // (8 * d * d))
    step = 0
    while step < n:
        width = k if n - step >= k else 1
        gather = word_table if width == k else table
        ids = table.draw(rng, trials)
        for j in range(1, width):
            ids += table.draw(rng, trials) * atoms ** j
        step += width
        renorm = step % _RENORM_EVERY == 0 or step == n
        for lo in range(0, trials, block):
            part = prod[:, :, lo:lo + block]
            part[...] = [gather.row(i, ids[lo:lo + block], part)
                         for i in range(d)]
            if renorm:
                scale = part.sum(axis=0).max(axis=0)  # entries are nonnegative
                if not scale.all():
                    raise SingularDirection(
                        f"a chain product vanished by step {step}")
                logscale[lo:lo + block] += np.log(scale)
                part /= scale
    return logscale


def _log_mean_exp(x: np.ndarray):
    """(log of the mean of exp(x), exp(x - shift), mean of the latter) along
    the last axis.  The shift is the maximum, so no order overflows or
    underflows."""
    shift = x.max(axis=-1, keepdims=True)
    w = np.exp(x - shift)
    mean = w.mean(axis=-1)
    return shift[..., 0] + np.log(mean), w, mean


def kappa_estimate(spec: ModelSpec, s, n: int, trials: int, seed):
    """(kappa_hat, stderr): n-th root of the mean of ||chain||^s.

    `s` is one order or a sequence of orders; a sequence is evaluated on one
    shared set of chains and gives arrays.  The mean of exp(s log||chain||)
    is taken in the log domain, and the standard error is propagated through
    the n-th root by the delta method with the shift-invariant ratio
    sd / mean.  s = 0 gives (1, 0) exactly; OutOfRange when the n-th root
    overflows or underflows to zero at a nonzero order.
    """
    if np.ndim(s) == 0 and s == 0.0:
        return 1.0, 0.0
    orders = np.atleast_1d(np.asarray(s, dtype=float))
    logs = _chain_log_norms(mu_atom_law(spec), n, trials, seed)
    log_mean, w, mean = _log_mean_exp(orders[:, None] * logs)
    ratio = w.std(axis=1, ddof=1) / mean if trials > 1 else np.zeros_like(mean)
    with np.errstate(over="ignore", under="ignore"):
        value = np.exp(log_mean / n)
    lost = (orders != 0.0) & ~((value > 0) & np.isfinite(value))
    if lost.any():
        raise OutOfRange(f"kappa({float(orders[lost][0])}) at chain length "
                         f"{n} is {float(value[lost][0])}, out of double range")
    stderr = value * ratio / (n * np.sqrt(trials))
    value[orders == 0.0], stderr[orders == 0.0] = 1.0, 0.0
    if np.ndim(s) == 0:
        return float(value[0]), float(stderr[0])
    return value, stderr


def kappa_one_exact(spec: ModelSpec) -> float:
    """Exact growth rate of first norm moments: spectral radius of the
    single-matrix mean.  No Monte Carlo."""
    return spectral_radius(mu_mean(spec))


def lyapunov_estimate(spec: ModelSpec, n: int = 1000, trials: int = 10_000,
                      seed=0):
    """(gamma_hat, stderr): Monte Carlo mean of log||chain|| / n."""
    logs = _chain_log_norms(mu_atom_law(spec), n, trials, seed) / n
    sd = float(logs.std(ddof=1)) if trials > 1 else 0.0
    return float(logs.mean()), sd / np.sqrt(trials)


def _bisect(f, lo: float, hi: float, xtol: float, ftol: float = 0.0) -> float:
    """Root of f on [lo, hi], where f(lo) < 0 <= f(hi): the first midpoint
    with |f| <= ftol, else the midpoint of the first bracket narrower than
    xtol, after at most 200 halvings."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v = f(mid)
        if abs(v) <= ftol:
            return float(mid)
        if v < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < xtol:
            break
    return float(0.5 * (lo + hi))


def find_alpha(spec: ModelSpec, *, n: int = 64, trials: int = 40_000,
               seed=0) -> float:
    """Root of m(s) = 1 on (0, 1] with a negative-slope requirement.

    s = 1 is tried first through the exact path (E[N] times the spectral
    radius of the mean matrix).  Elsewhere one shared set of chains gives a
    smooth estimated curve m_hat(s), bisected for the first down-crossing.
    Raises WitnessNotFound when the curve stays above 1 on the whole
    interval or the crossing is not decreasing.
    """
    en = expected_n(spec)
    logs = _chain_log_norms(mu_atom_law(spec), n, trials, seed)

    def m_hat(s: float) -> float:
        if s == 0.0:
            return en
        return en * float(np.exp(_log_mean_exp(s * logs)[0] / n))

    def slope_ok(s: float) -> bool:
        lo = max(s - _ALPHA_SLOPE_STEP, _ALPHA_S_MIN / 2)
        hi = s + _ALPHA_SLOPE_STEP
        return m_hat(hi) - m_hat(lo) < 0.0

    m1_exact = en * kappa_one_exact(spec)
    if abs(m1_exact - 1.0) <= _ALPHA_TOL:
        if not slope_ok(1.0):
            raise WitnessNotFound("m(1) = 1 but the curve is not decreasing there")
        return 1.0

    grid = np.linspace(_ALPHA_S_MIN, 1.0, 21)
    values = np.array([m_hat(s) for s in grid])
    below = np.flatnonzero(values <= 1.0)
    if below.size == 0:
        raise WitnessNotFound(f"m(s) > 1 on the whole grid (min {values.min():.4f})")
    hi_idx = below[0]
    if hi_idx == 0:
        raise WitnessNotFound("m(s) <= 1 already at the left edge")
    alpha = _bisect(lambda s: 1.0 - m_hat(s), grid[hi_idx - 1], grid[hi_idx],
                    xtol=1e-6)
    if abs(m_hat(alpha) - 1.0) > _ALPHA_TOL:
        raise WitnessNotFound("bisection failed to pin the root")
    if not slope_ok(alpha):
        raise WitnessNotFound("root found but the slope check failed")
    return float(alpha)


# ---------------------------------------------------------------------------
# Transfer operator on the direction simplex
# ---------------------------------------------------------------------------


@dataclass
class TransferDiscretization:
    """Gridded transfer operator for the singleton-branch law at order s, in
    gather form: (P f)[g] = sum_k w[g, k] f[idx[g, k]]."""

    idx: np.ndarray                  # (G, K) grid rows, K = atoms * d
    w: np.ndarray                    # (G, K), entrywise nonnegative
    eigenvalue: float | None = None
    residual: float | None = None    # max |P r - lambda r| after solving

    def apply(self, f: np.ndarray) -> np.ndarray:
        return (f[self.idx] * self.w).sum(axis=1)

    def adjoint(self, mu: np.ndarray) -> np.ndarray:
        """P^T mu: each row's mass spread over the rows it reads."""
        return np.bincount(self.idx.ravel(), (mu[:, None] * self.w).ravel(),
                           minlength=self.idx.shape[0])

    @cached_property
    def eigenmeasure(self) -> np.ndarray:
        """Probability eigenmeasure by the adjoint power iteration, solved
        on first read; NoConvergence when the iteration stalls."""
        return _power_direction(self.adjoint, self.idx.shape[0], _EIGEN_TOL,
                                _EIGEN_MAX_ITER)


def _lattice_size(d: int, grid_size: int):
    """(m, G): the denominator of the grid {k/m : k in N^d, |k| = m} and its
    G = C(m + d - 1, d - 1) points.  d = 2 uses m = grid_size - 1; higher d
    takes the smallest m >= d that reaches grid_size points, by bisection;
    d = 1 has one point, at m = 1."""
    if d < 3:
        return (grid_size - 1, grid_size) if d == 2 else (1, 1)
    m, hi = d, max(d, grid_size)
    while m < hi:
        mid = (m + hi) // 2
        if comb(mid + d - 1, d - 1) < grid_size:
            m = mid + 1
        else:
            hi = mid
    return m, comb(m + d - 1, d - 1)


def _simplex_lattice(d: int, grid_size: int):
    """The grid {k/m : k in N^d, |k| = m} in lexicographic order of k, and
    m.  The rows come from the nondecreasing cumulative coordinates
    K_j = k_1 + ... + k_j (j < d), which are in the same order."""
    m, g = _lattice_size(d, grid_size)
    cum = np.fromiter(chain.from_iterable(combinations_with_replacement(
        range(m + 1), d - 1)), np.int64, g * (d - 1)).reshape(g, d - 1)
    k = np.diff(np.pad(cum, ((0, 0), (1, 1)), constant_values=(0, m)), axis=1)
    return k / m, m


def _interpolation_weights(points: np.ndarray, m: int):
    """Rows of the linear-interpolation matrix on the Freudenthal (Kuhn)
    triangulation of the lattice: grid indices and weights per point.

    In cumulative coordinates c = m (p_1, p_1 + p_2, ...) the cell corner is
    b = floor(c) and the simplex walks from b through the unit steps in
    order of decreasing fraction f = c - b (larger index first on ties);
    the weights are the successive differences of the sorted fractions.
    A corner K is grid row C(n, d - 1) - 1 - sum_j C(n - 1 - K_j - j,
    d - 1 - j), the lexicographic rank of the strict combination K_j + j
    of n = m + d - 1 items.
    """
    d = points.shape[1]
    c = np.clip(np.cumsum(points[:, :-1], axis=1) * m, 0.0, m)
    b = np.clip(np.floor(c), 0, m - 1)
    f = c - b
    order = d - 2 - np.argsort(-f[:, ::-1], axis=1, kind="stable")
    steps = np.cumsum(order[:, :, None] == np.arange(d - 1), axis=1)
    n, j = m + d - 1, np.arange(d - 1)
    strict = (b + j).astype(np.int64)[:, None, :] + np.pad(
        steps, ((0, 0), (1, 0), (0, 0)))          # corners K_j + j
    binom = np.ones((n, d), dtype=np.int64)       # C(a, r), column by column
    for r in range(1, d):
        binom[:, r] = np.cumsum(binom[:, r - 1]) - binom[:, r - 1]
    idx = comb(n, d - 1) - 1 - binom[n - 1 - strict, d - 1 - j].sum(axis=2)
    fs = np.take_along_axis(f, order, axis=1)
    w = -np.diff(np.pad(fs, ((0, 0), (1, 1)), constant_values=(1.0, 0.0)),
                 axis=1)
    return idx, w


@lru_cache(maxsize=_GEOMETRY_CACHE)
def _transfer_geometry(d: int, grid_size: int, mats: tuple) -> tuple:
    """Read-only interpolation indices (G, M d) and weights (G, M, d) of
    each atom's image direction on the lattice, and its L1 image norms
    (G, M): the part of the operator that every order shares.  `mats` holds
    the atoms as flat tuples of floats, so the cache is keyed on content."""
    grid, m = _simplex_lattice(d, grid_size)
    # one product for all atoms: column block a of the right factor is A_a^T
    img = grid @ np.reshape(mats, (-1, d, d)).transpose(2, 0, 1).reshape(d, -1)
    img = img.reshape(grid.shape[0], -1, d)                     # (G, M, d)
    norms = img.sum(axis=2)
    if np.any(norms <= 0.0):
        raise FurstenbergKestenViolated(
            "a singleton-branch atom maps part of the simplex to zero")
    idx, w = _interpolation_weights((img / norms[..., None]).reshape(-1, d), m)
    out = (idx.reshape(norms.shape[0], -1), w.reshape(img.shape), norms)
    for a in out:
        a.flags.writeable = False
    return out


def discretize_transfer(spec: ModelSpec, s: float,
                        grid_size: int = 512) -> TransferDiscretization:
    """Build the gridded operator f -> E[ |A v|^s f(A . v) ] for the
    singleton-branch law.

    Requires P[N = 1] > 0.  For the kernel to stay bounded every conditioned
    atom must map the whole simplex away from zero (guaranteed by a strictly
    positive entry ratio bound, and exactly equivalent to every column of
    the atom having a positive sum).  The gather form's G M d entries are
    charged against the element budget before anything is allocated.  A
    non-finite order raises ValueError, and OutOfRange is raised when a
    weight p |A v|^s overflows or all of a row's weights underflow.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    if not np.isfinite(s):
        raise ValueError(f"the transfer order must be finite, got {s}")
    atoms = conditioned_a1_atoms(spec)
    entries = _lattice_size(spec.dim, grid_size)[1] * len(atoms) * spec.dim
    charge_budget(entries, resolve_budget(DEFAULT_ELEMENT_BUDGET),
                  "transfer grid")
    mats = tuple(tuple(a.ravel().tolist()) for _, a in atoms)
    idx, w, norms = _transfer_geometry(spec.dim, grid_size, mats)
    probs = np.array([p for p, _ in atoms])
    with np.errstate(over="ignore", invalid="ignore"):
        w = (w * (probs * norms ** s)[:, :, None]).reshape(idx.shape)
    if not (np.isfinite(w).all() and w.any(axis=1).all()):
        raise OutOfRange(f"the transfer weights at order {s} are out of "
                         "double range")
    return TransferDiscretization(idx=idx, w=w)


def transfer_eigen(disc: TransferDiscretization) -> TransferDiscretization:
    """Leading eigenvalue by power iteration.

    Collatz bounds certify convergence: iteration stops when the min and max
    of (P f) / f agree to tolerance; NoConvergence when the iteration stalls.
    The eigenmeasure is solved only when it is read.
    """
    f = np.ones(disc.idx.shape[0])
    for _ in range(_EIGEN_MAX_ITER):
        pf = disc.apply(f)
        ratios = pf / f
        lo, hi = float(ratios.min()), float(ratios.max())
        f = pf / pf.max()
        if hi - lo <= _EIGEN_TOL * max(hi, 1e-300):
            break
    else:
        raise NoConvergence("transfer-operator power iteration stalled")
    lam = 0.5 * (lo + hi)
    disc.eigenvalue = lam
    disc.residual = float(np.abs(disc.apply(f) - lam * f).max())
    return disc


def kappa_tilde(spec: ModelSpec, s: float, grid_size: int = 512) -> float:
    """Leading eigenvalue of the conditioned transfer operator at order s."""
    return transfer_eigen(discretize_transfer(spec, s, grid_size)).eigenvalue


def critical_exponent(spec: ModelSpec, tol: float = 1e-9,
                      grid_size: int = 512):
    """Positive root of kappa_tilde(-a) P[N = 1] = 1, or None.

    None signals P[N = 1] = 0, where no singleton-branch thinning exists and
    harmonic moments are finite up to the weight-moment range.  The root is
    bisected using monotonicity of the conditioned growth rate in the order.
    """
    p1 = prob_n_equals(spec, 1)
    if p1 <= 0.0:
        return None

    def gap(a: float) -> float:
        return kappa_tilde(spec, -a, grid_size=grid_size) * p1 - 1.0

    lo = 1e-3
    if gap(lo) >= 0.0:
        raise RootNotBracketed("already past the root at the smallest order")
    hi = 1.0
    while gap(hi) < 0.0:
        hi *= 2.0
        if hi > _A_MAX:
            raise RootNotBracketed(f"no root below a_max = {_A_MAX}")
    return _bisect(gap, lo, hi, xtol=1e-14, ftol=tol)


# ---------------------------------------------------------------------------
# Profile driver
# ---------------------------------------------------------------------------


@dataclass
class SpectralProfile:
    """Estimated spectral curves plus the derived exponents."""

    s_grid: np.ndarray
    kappa: np.ndarray
    kappa_stderr: np.ndarray
    m: np.ndarray
    gamma: float
    gamma_stderr: float
    alpha: float | None
    kappa_tilde: dict = field(default_factory=dict)
    a0: float | None = None


def spectral_profile(spec: ModelSpec, s_grid=None, *, chain_n: int = 64,
                     chain_trials: int = 20_000, lyap_n: int = 1000,
                     lyap_trials: int = 10_000, grid_size: int = 512,
                     seed=0) -> SpectralProfile:
    if s_grid is None:
        s_grid = np.arange(-1.5, 2.01, 0.25)
    s_grid = np.asarray(s_grid, dtype=float)
    # the count fixes the streams gamma and alpha read; 3 changes their bytes
    streams = spawn_generators(seed, len(s_grid) + 2)

    # one chain set for every order, passed as a list so that an `s == 0.0`
    # test on the argument (as perfbench's chain-step probe makes) stays a bool
    kap, kse = kappa_estimate(spec, s_grid.tolist(), chain_n, chain_trials,
                              streams[0])
    en = expected_n(spec)
    gamma, gse = lyapunov_estimate(spec, lyap_n, lyap_trials, streams[-2])
    try:
        alpha = find_alpha(spec, seed=streams[-1])
    except WitnessNotFound:
        alpha = None
    kt: dict = {}
    a0 = None
    if prob_n_equals(spec, 1) > 0:
        for s in s_grid[s_grid <= 0]:
            kt[float(s)] = kappa_tilde(spec, float(s), grid_size=grid_size)
        a0 = critical_exponent(spec, grid_size=grid_size)
    return SpectralProfile(
        s_grid=s_grid, kappa=kap, kappa_stderr=kse,
        m=en * kap,
        gamma=gamma, gamma_stderr=gse, alpha=alpha,
        kappa_tilde=kt, a0=a0,
    )
