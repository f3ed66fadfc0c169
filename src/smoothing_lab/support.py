"""Support machinery: semigroup enumeration, eigen-direction cones, radius
witnesses, and the greedy expansion used to fill segments of a ray.

Allowability and positivity of the single-matrix law's semigroup are exact,
read off the generators' zero patterns.  The semigroup itself and the
eigen-directions of its positive elements are infinite closures, reported as
finite-depth proxies with an explicit depth and a stability flag.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._common import DEFAULT_ELEMENT_BUDGET, charge_budget, resolve_budget
from .errors import OutOfRange, WitnessNotFound
from .matrices import _pattern_closure, pf_decompose, spectral_radius
from .models import ModelSpec, mu_support, same_matrix

DIRECTION_DEDUP_TOL = 1e-10
_AFFINE_RANK_TOL = 1e-10      # smaller singular values do not count in a hull's rank
_COLLINEAR_TOL = 1e-14        # a point this near its neighbours' line is no corner
_RADIUS_MARGIN = 1e-9


@dataclass(frozen=True)
class SemigroupEnumeration:
    """Products of the single-matrix generators up to a word length."""

    max_length: int
    words: tuple                 # tuple of index tuples, () = identity
    elements: tuple              # matrices, words[i] multiplies to elements[i]

    @functools.cached_property
    def eigen_directions(self) -> tuple:
        """(direction, word) pairs of lambda_set, computed once."""
        positive = [(w, m) for w, m in zip(self.words, self.elements)
                    if np.all(m > 0)]
        dirs = [pf_decompose(m) for _, m in positive]
        for v in dirs:
            v.flags.writeable = False     # shared by every caller
        return tuple((dirs[i], positive[i][0]) for i in _distinct(dirs))


def enumerate_semigroup(spec: ModelSpec, max_length: int) -> SemigroupEnumeration:
    """Breadth-first products of the model's generators, the distinct
    single-matrix atoms, deduplicated in max norm.

    Words are recorded for the first representative of each distinct matrix.
    A product is known when `models.same_matrix` matches it to a stored
    element, so the result does not depend on the scale of the generators.
    """
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    gens = mu_support(spec)
    d = spec.dim
    budget = resolve_budget(DEFAULT_ELEMENT_BUDGET)

    words = [()]
    frontier = [((), np.eye(d))]
    stack = np.eye(d)[None]   # element i, of word i, is stack[i]; doubled when full

    for _ in range(max_length):
        new_frontier = []
        for word, mat in frontier:
            for gi, g in enumerate(gens):
                prod = mat @ g
                n = len(words)
                if same_matrix(stack[:n], prod).any():
                    continue
                charge_budget(n + 1, budget, "semigroup enumeration")
                if n == stack.shape[0]:
                    stack = np.concatenate([stack, np.empty_like(stack)])
                stack[n] = prod
                words.append(word + (gi,))
                new_frontier.append((words[-1], prod))
        frontier = new_frontier
        if not frontier:
            break
    return SemigroupEnumeration(max_length=max_length, words=tuple(words),
                                elements=tuple(stack[:len(words)]))


def check_allowability(spec: ModelSpec) -> bool:
    """Every generator, and so every product of generators, has a positive
    entry in each row and column."""
    return all((g > 0).any(axis=0).all() and (g > 0).any(axis=1).all()
               for g in mu_support(spec))


def check_positivity(spec: ModelSpec) -> bool:
    """Some product of the generators is entrywise strictly positive."""
    return any(p.all() for p in _pattern_closure(mu_support(spec)))


def _distinct(vectors) -> list:
    """Indices of the vectors kept by a first-come dedup: a vector is
    dropped when an earlier kept one is within DIRECTION_DEDUP_TOL in max
    norm."""
    vectors = np.asarray(vectors, dtype=float)
    rows = np.empty_like(vectors)     # rows[:len(kept)] are the kept vectors
    kept: list = []
    for i, v in enumerate(vectors):
        if not np.any(np.abs(rows[:len(kept)] - v).max(axis=1)
                      < DIRECTION_DEDUP_TOL):
            rows[len(kept)] = v
            kept.append(i)
    return kept


def lambda_set(enum: SemigroupEnumeration) -> list:
    """Perron eigen-directions of the strictly positive elements.

    Returns (direction, word) pairs deduplicated at a tight tolerance; the
    word is the first product that produced the direction.  The pairs are
    computed once per enumeration (`SemigroupEnumeration.eigen_directions`).
    """
    return list(enum.eigen_directions)


def lambda_stability(enum: SemigroupEnumeration) -> bool:
    """True when the direction set did not grow at the last depth increase.

    The enumeration one length shorter is a prefix of this one, and so is
    its direction list; the set grew exactly when some direction was first
    found by a word of the full length.
    """
    return enum.max_length >= 1 and all(
        len(word) < enum.max_length for _, word in enum.eigen_directions)


# ---------------------------------------------------------------------------
# Cones spanned by direction sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeHull:
    """Convex hull of a finite direction set on the unit simplex, held as
    facet inequalities in the affine hull of the directions.

    With y = x - origin and c = y @ basis.T, a unit-L1 direction x is in the
    hull when |y - c @ basis|_1 <= tol (x lies in the affine hull) and
    c @ normals.T - offsets <= tol (x is inside every facet).  Membership of
    x >= 0 means x = 0 or x/|x| is in the hull.  A planar hull (r = 2) has
    one facet per edge of its polygon, in counter-clockwise order.
    """

    directions: np.ndarray       # (m, d) unit-L1, deduplicated
    extremes: np.ndarray         # (k, d) extreme points of the hull
    origin: np.ndarray           # (d,) mean of the directions
    basis: np.ndarray            # (r, d) orthonormal rows along the affine hull
    normals: np.ndarray          # (f, r) outward unit facet normals
    offsets: np.ndarray          # (f,)


def _check_finite(a: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")


def cone_hull(directions) -> ConeHull:
    """The hull of unit-L1 directions in their affine hull of rank r.

    A point (r = 0) or a segment (r = 1) is held by its coordinate range, a
    polygon (r = 2, every 3-dim model) by Andrew's monotone chain, and a
    hull of rank 3 or more by Qhull.
    """
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if dirs.shape[0] < 1:
        raise ValueError("need at least one direction")
    _check_finite(dirs, "directions")
    sums = dirs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9) or np.any(dirs < 0):
        raise ValueError("directions must be nonnegative with unit L1 norm")

    dirs = dirs[_distinct(dirs)]
    origin = dirs.mean(axis=0)
    _, sv, vt = np.linalg.svd(dirs - origin, full_matrices=False)
    basis = vt[: int((sv > _AFFINE_RANK_TOL).sum())]
    y = (dirs - origin) @ basis.T
    r = basis.shape[0]
    if r == 2:
        ring = _polygon_ring(y)
        extremes = dirs[np.sort(ring)]
        # edge p -> q of the counter-clockwise ring, turned by -90 degrees
        p = y[ring]
        edges = np.roll(p, -1, axis=0) - p
        normals = edges[:, ::-1] * [1.0, -1.0] / np.hypot(*edges.T)[:, None]
        offsets = (normals * p).sum(axis=1)
    elif r >= 3:
        from scipy.spatial import ConvexHull

        hull = ConvexHull(y)     # no joggle (QJ): it lists facet points as corners
        extremes = dirs[np.unique(hull.vertices)]
        normals, offsets = hull.equations[:, :-1], -hull.equations[:, -1]
    else:
        # a point or a segment: its two ends, in lexicographic order
        t = y.sum(axis=1)
        extremes = np.unique(dirs[[t.argmin(), t.argmax()]], axis=0)
        normals = np.vstack([np.eye(r), -np.eye(r)])
        offsets = np.concatenate([y.max(axis=0), -y.min(axis=0)])
    return ConeHull(directions=dirs, extremes=extremes, origin=origin,
                    basis=basis, normals=normals, offsets=offsets)


def _polygon_ring(y: np.ndarray) -> np.ndarray:
    """Corners of the hull of planar points y (n, 2), counter-clockwise, by
    Andrew's monotone chain; collinear boundary points are not corners."""
    pts = y.tolist()

    def chain(order):
        out: list = []
        for i in order:
            bx, by = pts[i]
            while len(out) >= 2:
                (ox, oy), (ax, ay) = pts[out[-2]], pts[out[-1]]
                turn = (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
                if turn > _COLLINEAR_TOL * math.hypot(bx - ox, by - oy):
                    break
                out.pop()
            out.append(i)
        return out

    order = np.lexsort((y[:, 1], y[:, 0])).tolist()
    lower, upper = chain(order), chain(order[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _check_tol(tol: float) -> None:
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")


def membership_fractions(hull: ConeHull, dirs: np.ndarray,
                         tol: float = 1e-9) -> np.ndarray:
    """Vectorized membership for an (n, d) stack of unit-L1 directions."""
    _check_tol(tol)
    _check_finite(dirs, "dirs")
    if dirs.shape[-1] != hull.origin.size:
        raise ValueError(f"directions of dimension {dirs.shape[-1]} against "
                         f"a cone of dimension {hull.origin.size}")
    y = dirs - hull.origin
    coords = y @ hull.basis.T
    in_span = np.abs(y - coords @ hull.basis).sum(axis=1) <= tol
    return in_span & np.all(coords @ hull.normals.T - hull.offsets <= tol,
                            axis=1)


def empirical_support_check(pool, hull: ConeHull, tol: float = 1e-9):
    """(inside_fraction, coverage_gaps) of a sample pool against a cone.

    inside_fraction is the share of nonzero samples whose direction lies in
    the hull; coverage_gaps gives, per hull extreme, the smallest L1
    distance from any sample direction (extremes of the true support should
    be approached by samples).
    """
    dirs = pool.nonzero_directions()
    if dirs.shape[0] == 0:
        raise ValueError("pool holds no nonzero samples")
    inside = membership_fractions(hull, dirs, tol)
    gaps = np.empty(hull.extremes.shape[0])
    for i, e in enumerate(hull.extremes):
        gaps[i] = np.abs(dirs - e).sum(axis=1).min()
    return float(inside.mean()), gaps


# ---------------------------------------------------------------------------
# Small and large radius witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiusWitness:
    """A strictly positive realization sum with its certificate word."""

    matrix: np.ndarray
    radius: float
    word: tuple        # atom indices whose branch sums were multiplied

    def describe(self) -> str:
        return "*".join(f"Y[{b}]" for b in self.word)


@dataclass(frozen=True)
class RadiusSearchResult:
    small: RadiusWitness | None
    large: RadiusWitness | None


def search_radius_witnesses(spec: ModelSpec,
                            depth_budget: int = 3) -> RadiusSearchResult:
    """Bounded search for strictly positive products of branch-sum
    realizations with spectral radius on either side of 1.

    Stage k multiplies k realizations of the branch sum; the cheapest
    certificates (single realizations) come first.  Not finding a witness
    within the budget is not a disproof.
    """
    if depth_budget < 1:
        raise ValueError("depth_budget must be >= 1")
    budget = resolve_budget(DEFAULT_ELEMENT_BUDGET)
    sums = spec.branch_table.sums

    small = large = None

    def consider(word, mat):
        nonlocal small, large
        if not np.all(mat > 0):
            return
        r = spectral_radius(mat)
        if small is None and r <= 1.0 - _RADIUS_MARGIN:
            small = RadiusWitness(matrix=mat, radius=r, word=word)
        if large is None and r >= 1.0 + _RADIUS_MARGIN:
            large = RadiusWitness(matrix=mat, radius=r, word=word)

    frontier = [((), np.eye(spec.dim))]
    seen = 0
    for _ in range(depth_budget):
        new_frontier = []
        for word, mat in frontier:
            for bi, y in enumerate(sums):
                seen += 1
                charge_budget(seen, budget, "radius witness search")
                prod = mat @ y
                entry = (word + (bi,), prod)
                consider(*entry)
                if small is not None and large is not None:
                    return RadiusSearchResult(small=small, large=large)
                new_frontier.append(entry)
        frontier = new_frontier
    return RadiusSearchResult(small=small, large=large)


def find_l1_l2(spec: ModelSpec, depth_budget: int = 3):
    """(small, large) radius witnesses; WitnessNotFound when either side is
    missing within the budget."""
    res = search_radius_witnesses(spec, depth_budget)
    if res.small is None or res.large is None:
        missing = []
        if res.small is None:
            missing.append("radius < 1")
        if res.large is None:
            missing.append("radius > 1")
        raise WitnessNotFound(
            f"no strictly positive witness with {' or '.join(missing)} "
            f"within depth {depth_budget}"
        )
    return res.small, res.large


# ---------------------------------------------------------------------------
# Greedy expansion in a base theta
# ---------------------------------------------------------------------------


def dyadic_expand(x: float, theta: float, n_terms: int) -> np.ndarray:
    """Greedy bit sequence (eta_1, ..., eta_n) with sum eta_i theta^i <= x.

    Defined for theta in [1/2, 1) and 0 <= x <= theta / (1 - theta); the
    partial sums never exceed x and the reconstruction error after n terms
    is at most theta^n / (1 - theta).
    """
    if not 0.5 <= theta < 1.0:
        raise ValueError("theta must lie in [1/2, 1)")
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    cap = theta / (1.0 - theta)
    if not 0.0 <= x <= cap:
        raise OutOfRange(f"x = {x} outside [0, {cap}]")
    bits = np.zeros(n_terms, dtype=np.int64)
    partial = 0.0
    power = 1.0
    for i in range(n_terms):
        power *= theta
        if partial + power <= x:
            partial += power
            bits[i] = 1
    return bits
