"""Primitives for nonnegative matrices.

Conventions: vectors carry the L1 norm |x| = sum |x_i|, matrices the induced
operator norm (maximum column sum).  Directions are nonnegative vectors with
unit L1 norm; the Perron direction of a primitive matrix is its unit-L1 right
eigenvector for the spectral radius.  The projective distance below is the
bounded form of the Hilbert metric, d = tanh(h/4); positive matrices contract
it with the Birkhoff coefficient tanh(diameter/4).
"""
from __future__ import annotations

import numpy as np

from ._common import (DEFAULT_ELEMENT_BUDGET, as_generator, charge_budget,
                      resolve_budget)
from .errors import NoConvergence, NotPrimitive, SingularDirection, ZeroColumn

_CONTRACTION_STREAM = 0x9E3779B97F4A7C15  # fixed stream: estimates are pure in (g, pairs)
_PF_TOL = 1e-12
_PF_MAX_ITER = 100_000


def check_nonneg_matrix(a) -> np.ndarray:
    """Validate and return a as a float (d, d) array with nonnegative entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if np.any(a < 0):
        raise ValueError("matrix entries must be nonnegative")
    return a


def as_direction(x) -> np.ndarray:
    """Normalize a nonnegative nonzero vector onto the unit simplex."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("direction must be a vector")
    if np.any(x < 0):
        raise ValueError("direction must be entrywise nonnegative")
    s = x.sum()
    if s <= 0:
        raise ValueError("direction must be nonzero")
    return x / s


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus, r(a) = lim ||a^k||^(1/k).

    Dense eigenvalues are used rather than plain power iteration: reducible
    or periodic nonnegative matrices (permutations, nilpotents) stall a naive
    iteration but are routine for the QR solver at this scale.
    """
    a = check_nonneg_matrix(a)
    if not a.any():
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def _pattern_closure(mats):
    """Zero patterns (a > 0) of all products of `mats`, each yielded once,
    shortest words first: a semigroup of at most 2^(d^2) patterns, each new
    one charged against the element budget."""
    budget = resolve_budget(DEFAULT_ELEMENT_BUDGET)
    gens = [np.asarray(m) > 0 for m in mats]
    seen: set = set()
    walk = list(gens)        # grows while it is walked
    for p in walk:
        if p.tobytes() not in seen:
            seen.add(p.tobytes())
            charge_budget(len(seen), budget, "zero-pattern closure")
            yield p
            walk.extend(p @ g for g in gens)


def is_primitive(a) -> bool:
    return any(p.all() for p in _pattern_closure([check_nonneg_matrix(a)]))


def _power_direction(apply, d: int, tol: float, max_iter: int) -> np.ndarray:
    """Unit-L1 fixed direction of the nonnegative linear map `apply` on R^d,
    by power iteration from the uniform direction."""
    v = np.full(d, 1.0 / d)
    for _ in range(max_iter):
        w = apply(v)
        s = w.sum()
        if s <= 0:
            raise NotPrimitive("iteration left the positive cone")
        w /= s
        if np.abs(w - v).max() <= tol:
            return w
        v = w
    raise NoConvergence(f"power iteration did not settle within {max_iter} iterations")


def pf_decompose(a) -> np.ndarray:
    """Perron direction of a primitive nonnegative matrix: its unit-L1
    right eigenvector for the spectral radius.

    Deterministic: power iteration from the uniform direction.

    Raises NotPrimitive when no power of a is strictly positive (identity,
    permutations, the zero matrix).
    """
    a = check_nonneg_matrix(a)
    if not is_primitive(a):
        raise NotPrimitive("no power of the matrix is strictly positive")
    return _power_direction(lambda v: a @ v, a.shape[0], _PF_TOL, _PF_MAX_ITER)


def hennion_distance(x, y) -> float:
    """Bounded projective distance on the nonnegative part of the unit sphere.

    With m(x,y) = min_{y_i > 0} x_i / y_i, the value is
    (1 - sqrt(m(x,y) m(y,x))) / (1 + sqrt(m(x,y) m(y,x))), i.e. tanh(h/4)
    for the Hilbert metric h.  It satisfies sup d = 1, |x - y| <= 2 d(x,y),
    and positive matrices contract it by tanh(diameter/4).
    """
    return float(_pairwise_hennion(as_direction(x)[None], as_direction(y)[None])[0])


def _pairwise_hennion(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise hennion_distance for stacks of simplex points."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rxy = np.where(Y > 0, X / Y, np.inf)
        ryx = np.where(X > 0, Y / X, np.inf)
    p = rxy.min(axis=1) * ryx.min(axis=1)
    p = np.sqrt(np.clip(p, 0.0, None))
    return (1.0 - p) / (1.0 + p)


def hilbert_column_diameter(g) -> float:
    """Hilbert-metric diameter of the cone spanned by the columns of g > 0."""
    g = check_nonneg_matrix(g)
    if np.any(g <= 0):
        raise ValueError("column diameter needs a strictly positive matrix")
    d = g.shape[0]
    diam = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            r = g[:, i] / g[:, j]
            diam = max(diam, float(np.log(r.max() / r.min())))
    return diam


def birkhoff_bound(g) -> float:
    """tanh(diameter/4) for strictly positive g; 1.0 otherwise.

    A guaranteed upper bound for the contraction coefficient of the
    projective action of g in the metric above.
    """
    g = check_nonneg_matrix(g)
    if np.all(g > 0):
        return float(np.tanh(hilbert_column_diameter(g) / 4.0))
    return 1.0


def project_direction(g, x) -> np.ndarray:
    """g . x = gx / |gx| on the simplex."""
    g = check_nonneg_matrix(g)
    w = g @ as_direction(x)
    s = w.sum()
    if s <= 0:
        raise SingularDirection("gx = 0 for this direction")
    return w / s


def contraction_coefficient(g, pairs: int = 256) -> float:
    """Empirical contraction coefficient of the projective action of g.

    Maximum of d(g.x, g.y) / d(x, y) over the vertex pairs (e_i, e_j) plus
    `pairs` Dirichlet-sampled direction pairs (fixed internal stream, so the
    estimate is a pure function of its arguments).  Always <= 1; equals the
    Birkhoff bound for strictly positive g because the supremum is attained
    in the vertex-pair limit; 0 for rank-one matrices.
    """
    g = check_nonneg_matrix(g)
    d = g.shape[0]
    if pairs < 1:
        raise ValueError("pairs must be positive")
    col_sums = g.sum(axis=0)
    if np.any(col_sums <= 0):
        raise ZeroColumn("g has a zero column, projective action undefined at a vertex")
    if d == 1:
        return 0.0

    rng = as_generator(_CONTRACTION_STREAM)
    X = rng.dirichlet(np.ones(d), size=pairs)
    Y = rng.dirichlet(np.ones(d), size=pairs)
    verts = np.eye(d)
    vi, vj = np.triu_indices(d, k=1)
    X = np.vstack([verts[vi], X])
    Y = np.vstack([verts[vj], Y])

    base = _pairwise_hennion(X, Y)
    GX = X @ g.T
    GY = Y @ g.T
    GX /= GX.sum(axis=1, keepdims=True)
    GY /= GY.sum(axis=1, keepdims=True)
    image = _pairwise_hennion(GX, GY)
    ok = base > 1e-15
    if not ok.any():
        return 0.0
    ratio = np.max(image[ok] / base[ok])
    return float(min(ratio, 1.0))
