import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smoothing_lab as sl
from smoothing_lab.errors import (
    BudgetExceeded,
    OutOfRange,
    WitnessNotFound,
)
from smoothing_lab.support import membership_fractions

from conftest import A1, A2


# ---------------------------------------------------------------------------
# semigroup enumeration
# ---------------------------------------------------------------------------


def iid_spec(gens):
    """The i.i.d. model with N = 2 and a uniform single-matrix law over gens,
    whose semigroup generators are gens in order."""
    gens = [np.asarray(g, dtype=float) for g in gens]
    return sl.ModelSpec(dim=gens[0].shape[0], kind="IIDCoefficients",
                        n_law=((2, 1.0),),
                        mu_atoms=tuple((1 / len(gens), g) for g in gens))


def test_enumerate_depth_zero(ex1):
    enum = sl.enumerate_semigroup(ex1, 0)
    assert len(enum.elements) == 1
    assert np.array_equal(enum.elements[0], np.eye(2))
    assert enum.words == ((),)


def test_enumerate_depth_one(ex1):
    enum = sl.enumerate_semigroup(ex1, 1)
    assert len(enum.elements) == 3
    mats = [m for m in enum.elements]
    assert any(np.allclose(m, A1) for m in mats)
    assert any(np.allclose(m, A2) for m in mats)


def test_enumerate_depth_two_products(ex1):
    enum = sl.enumerate_semigroup(ex1, 2)
    assert len(enum.elements) == 7
    # rank-one algebra: a_i a_j = (|v_j|/5) a_i
    expected = {
        (0, 0): 0.4 * A1, (0, 1): 0.6 * A1,
        (1, 0): 0.4 * A2, (1, 1): 0.6 * A2,
    }
    by_word = {w: m for w, m in zip(enum.words, enum.elements)}
    for word, mat in expected.items():
        assert word in by_word
        assert np.allclose(by_word[word], mat, atol=1e-14)


def test_enumerate_closure_bookkeeping(ex2):
    enum = sl.enumerate_semigroup(ex2, 3)
    by_word = {w: m for w, m in zip(enum.words, enum.elements)}

    def lookup(mat):
        return any(np.abs(mat - m).max() < 1e-12 for m in enum.elements)

    for w1, m1 in by_word.items():
        for w2, m2 in by_word.items():
            if len(w1) + len(w2) <= 3:
                assert lookup(m1 @ m2)


@pytest.mark.parametrize("scale", [1.0, 1e-5, 1e-7])
def test_enumerate_scale_invariant(ex1, scale):
    # the semigroup is projective: scaling the generators keeps every word
    gens = [scale * g for g in sl.mu_support(ex1)]
    enum = sl.enumerate_semigroup(iid_spec(gens), 4)
    assert len(enum.elements) == 21
    assert enum.words == sl.enumerate_semigroup(ex1, 4).words


def test_enumerate_budget(monkeypatch):
    rng = np.random.default_rng(3)
    g1 = rng.uniform(0.1, 1.0, (2, 2))
    g2 = rng.uniform(0.1, 1.0, (2, 2))
    monkeypatch.setenv("SMOOTHING_LAB_BUDGET", "100")
    with pytest.raises(BudgetExceeded):
        sl.enumerate_semigroup(iid_spec([g1, g2]), 20)


def test_allowability(ex1):
    assert sl.check_allowability(sl.enumerate_semigroup(ex1, 3))
    assert sl.check_allowability(sl.enumerate_semigroup(iid_spec([np.eye(2)]), 4))
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert not sl.check_allowability(sl.enumerate_semigroup(iid_spec([nil]), 2))


def test_positivity(ex1):
    assert sl.check_positivity(sl.enumerate_semigroup(ex1, 1))
    assert not sl.check_positivity(sl.enumerate_semigroup(iid_spec([np.eye(2)]), 5))
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    ones = np.ones((2, 2))
    assert sl.check_positivity(sl.enumerate_semigroup(iid_spec([flip, ones]), 1))


# ---------------------------------------------------------------------------
# eigen-direction set
# ---------------------------------------------------------------------------


def test_lambda_set_ex1(ex1):
    dirs = sl.lambda_set(sl.enumerate_semigroup(ex1, 3))
    got = sorted(tuple(np.round(v, 10)) for v, _ in dirs)
    assert len(got) == 2
    assert got[0] == pytest.approx((1 / 3, 2 / 3), abs=1e-10)
    assert got[1] == pytest.approx((0.5, 0.5), abs=1e-10)
    assert sl.lambda_stability(sl.enumerate_semigroup(ex1, 3))


def test_lambda_set_ex2(ex2):
    dirs = sl.lambda_set(sl.enumerate_semigroup(ex2, 3))
    got = sorted(tuple(np.round(v, 10)) for v, _ in dirs)
    assert len(got) == 3
    assert got[0] == pytest.approx((1 / 3, 2 / 3), abs=1e-10)
    assert got[1] == pytest.approx((0.4, 0.6), abs=1e-10)
    assert got[2] == pytest.approx((0.5, 0.5), abs=1e-10)


def test_lambda_set_identity_empty():
    assert sl.lambda_set(sl.enumerate_semigroup(iid_spec([np.eye(2)]), 4)) == []


def test_lambda_set_grows_monotonically(ex2):
    # directions found at depth L persist at depth L + 1 (left factors rule)
    for L in (1, 2):
        prev = {tuple(np.round(v, 10))
                for v, _ in sl.lambda_set(sl.enumerate_semigroup(ex2, L))}
        nxt = {tuple(np.round(v, 10))
               for v, _ in sl.lambda_set(sl.enumerate_semigroup(ex2, L + 1))}
        assert prev <= nxt
    assert sl.lambda_stability(sl.enumerate_semigroup(ex2, 2))


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_lambda_stability_matches_two_enumerations(name, request):
    # stable means the direction set at length L equals the one at L - 1
    spec = request.getfixturevalue(name)
    flags = []
    for L in range(6):
        last = sl.lambda_set(sl.enumerate_semigroup(spec, L))
        prev = sl.lambda_set(sl.enumerate_semigroup(spec, L - 1)) if L else None
        same = L >= 1 and len(prev) == len(last) and all(
            any(np.abs(v - w).max() < 1e-10 for w, _ in prev) for v, _ in last)
        assert sl.lambda_stability(sl.enumerate_semigroup(spec, L)) == same
        flags.append(same)
    assert flags[:2] == [False, False] and flags[-1]


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


def hull_ex1():
    return sl.cone_hull(np.array([[0.5, 0.5], [1 / 3, 2 / 3]]))


def inside(hull, x) -> bool:
    """Whether the ray of a nonzero x >= 0 lies in the cone over the hull."""
    x = np.asarray(x, dtype=float)
    return bool(membership_fractions(hull, (x / x.sum())[None])[0])


def test_membership_examples():
    hull = hull_ex1()
    assert inside(hull, np.array([1.0, 1.0]))
    assert not inside(hull, np.array([2.0, 1.0]))
    assert inside(hull, np.array([1.0, 2.0]))  # boundary ray


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_membership_rejects_bad_tolerance(tol):
    hull = hull_ex1()
    with pytest.raises(ValueError, match="tol"):
        membership_fractions(hull, np.array([[0.5, 0.5]]), tol=tol)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, name", [
    (lambda: sl.cone_hull([[NAN, NAN]]), "directions"),
    (lambda: sl.cone_hull([[0.5, 0.5], [INF, 0.0]]), "directions"),
    (lambda: membership_fractions(hull_ex1(), np.array([[NAN, 1.0]])), "dirs"),
    (lambda: membership_fractions(hull_ex1(), np.array([[1.0, INF]])), "dirs"),
    (lambda: membership_fractions(hull_ex1(), np.array([[0.5, 0.5], [NAN, NAN]])),
     "dirs"),
    (lambda: membership_fractions(hull_ex1(), np.array([[INF, 0.0]])), "dirs"),
], ids=["hull-nan", "hull-inf", "membership-nan", "membership-inf",
        "fractions-nan", "fractions-inf"])
def test_cone_rejects_non_finite_input(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call()


def test_membership_scale_invariant():
    hull = hull_ex1()
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(0.0, 2.0, size=2)
        for c in (1e-6, 1.0, 1e6):
            assert inside(hull, c * x) == inside(hull, x)


def test_single_direction_hull_is_ray():
    hull = sl.cone_hull(np.array([[0.25, 0.75]]))
    assert inside(hull, np.array([0.5, 1.5]))
    assert not inside(hull, np.array([0.5, 1.0]))


def test_collinear_hull_and_idempotence():
    dirs = np.array([[0.5, 0.5], [0.4, 0.6], [1 / 3, 2 / 3]])
    h2 = sl.cone_hull(dirs)
    h3 = sl.cone_hull(dirs)
    probe = np.array([0.45, 0.55])
    assert inside(h2, probe) == inside(h3, probe)
    again = sl.cone_hull(h2.extremes)
    assert np.allclose(np.sort(again.extremes, axis=0),
                       np.sort(h2.extremes, axis=0))


def test_membership_three_dimensional():
    dirs = np.array([
        [0.6, 0.2, 0.2],
        [0.2, 0.6, 0.2],
        [0.2, 0.2, 0.6],
    ])
    hull = sl.cone_hull(dirs)
    assert inside(hull, np.array([1.0, 1.0, 1.0]))
    assert not inside(hull, np.array([1.0, 0.0, 0.0]))


def lp_membership(directions, x, tol):
    """Reference test: is x a convex combination of the directions?  One
    feasibility LP, then an L1-relaxed LP that allows boundary slack."""
    from scipy.optimize import linprog

    m, d = directions.shape
    a_eq = np.vstack([directions.T, np.ones(m)])
    b_eq = np.append(x, 1.0)
    res = linprog(c=np.zeros(m), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * m, method="highs")
    if res.status == 0:
        return True
    rows = d + 1
    res = linprog(
        c=np.concatenate([np.zeros(m), np.ones(2 * rows)]),
        A_eq=np.hstack([a_eq, np.eye(rows), -np.eye(rows)]),
        b_eq=b_eq, bounds=[(0, None)] * (m + 2 * rows), method="highs",
    )
    return bool(res.status == 0 and res.fun <= tol)


def inside_and_outside(rng, ext):
    """40 convex combinations of the extremes, then each extreme pushed 5 %
    away from their mean (those still >= 0), renormalised; and the count of
    the pushed ones."""
    centre = ext.mean(axis=0)
    outside = centre + 1.05 * (ext - centre)
    outside = outside[(outside >= 0).all(axis=1)]
    return np.vstack([rng.dirichlet(np.ones(len(ext)), size=40) @ ext,
                      outside / outside.sum(axis=1, keepdims=True)]), len(outside)


@pytest.mark.parametrize("d, seed", [(3, s) for s in range(6)] + [(4, 0), (4, 3)],
                         ids=[str(s) for s in range(6)] + ["d4-0", "d4-3"])
def test_membership_fractions_matches_lp(d, seed):
    # d = 3 hulls are polygons (closed form), d = 4 ones polytopes (Qhull)
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(seed)
    hull = sl.cone_hull(rng.dirichlet(np.ones(d), size=4 + 2 * seed))
    assert hull.basis.shape[0] == d - 1
    ext = hull.extremes
    facets = ConvexHull(ext[:, :-1]).simplices
    probes, n_out = inside_and_outside(rng, ext)
    points = np.vstack([
        probes,
        rng.dirichlet(np.ones(d), size=40),                # anywhere
        ext[facets].mean(axis=1),                          # boundary
        ext,                                               # extremes
    ])
    expected = [lp_membership(hull.directions, x, 1e-9) for x in points]
    assert n_out and not any(expected[40:40 + n_out])
    assert membership_fractions(hull, points).tolist() == expected


def planar_set(rng):
    """Unit-L1 3-vectors with collinear points on the hull's edges and
    near-duplicates 1e-9 to 1e-8 from some points, corners among them."""
    from scipy.spatial import ConvexHull

    base = rng.dirichlet(np.ones(3), size=int(rng.integers(3, 30)))
    ring = ConvexHull(base[:, :2]).simplices
    a, b = base[ring[:, 0]], base[ring[:, 1]]
    on_edges = [(1 - w) * a + w * b for w in (0.5, 0.25, 0.1)]
    picked = base[rng.choice(len(base), size=min(len(base), 6), replace=False)]
    near = np.abs(picked + rng.uniform(-1, 1, picked.shape)
                  * rng.uniform(1e-9, 1e-8, (len(picked), 1)))
    near /= near.sum(axis=1, keepdims=True)
    dirs = np.vstack([base, *on_edges, near])
    return dirs[rng.permutation(len(dirs))]


@pytest.mark.parametrize("seed", range(12))
def test_planar_hull_matches_qhull(seed):
    # reference: Qhull's hull of the first two coordinates, an affine image
    # of the simplex plane, without joggling
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(seed)
    hull = sl.cone_hull(planar_set(rng))
    assert hull.basis.shape[0] == 2
    ref = ConvexHull(hull.directions[:, :2])
    corners = np.unique(ref.vertices)
    assert hull.extremes.tolist() == hull.directions[corners].tolist()

    probes, n_out = inside_and_outside(rng, hull.extremes)
    points = np.vstack([
        probes,
        hull.directions[ref.simplices].mean(axis=1),       # edge midpoints
        hull.directions,                                   # every input
    ])
    expected = np.all(points[:, :2] @ ref.equations[:, :2].T
                      + ref.equations[:, 2] <= 1e-9, axis=1)
    assert n_out and not expected[40:40 + n_out].any()
    assert membership_fractions(hull, points).tolist() == expected.tolist()


@pytest.mark.parametrize("seed", range(6))
def test_polytope_edge_midpoints_are_not_extremes(seed):
    # five corners in the 3-dim simplex of R^4 and the midpoints of every
    # pair: midpoints lie inside or on an edge, so the corners stay the hull's
    # only extremes
    rng = np.random.default_rng(seed)
    corners = rng.dirichlet(np.ones(4), size=5)
    mids = [0.5 * (a + b) for a, b in itertools.combinations(corners, 2)]
    hull = sl.cone_hull(np.vstack([corners, mids]))
    assert hull.basis.shape[0] == 3
    assert hull.extremes.tolist() == sl.cone_hull(corners).extremes.tolist()
    assert set(map(tuple, hull.extremes)) <= set(map(tuple, corners))


@pytest.mark.parametrize("thickness", [1e-9, 1e-8, 1e-7, 1e-6])
def test_thin_polytope_hull(thickness):
    # planar sets with every other point lifted off the plane by
    # `thickness`: affine rank 3, but only just
    rng = np.random.default_rng(int(-np.log10(thickness)))
    for _ in range(20):
        n = int(rng.integers(4, 30))
        x = np.hstack([rng.dirichlet(np.ones(3), size=n),
                       thickness * (np.arange(n) % 2)[:, None]])
        hull = sl.cone_hull(x / x.sum(axis=1, keepdims=True))
        assert hull.basis.shape[0] == 3
        assert membership_fractions(hull, hull.directions).all()


def test_collinear_hull_three_dimensional():
    dirs = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25],
                     [0.375, 0.375, 0.25]])
    hull = sl.cone_hull(dirs)
    assert hull.extremes.tolist() == [[0.25, 0.5, 0.25], [0.5, 0.25, 0.25]]
    assert not inside(hull, np.array([0.6, 0.15, 0.25]))
    assert inside(hull, np.array([0.4, 0.35, 0.25]))
    # the mean of these directions is off the segment's midpoint, so each
    # end has its own offset
    hull = sl.cone_hull(dirs[[0, 1]].tolist() + [[0.45, 0.3, 0.25]])
    assert inside(hull, np.array([0.28, 0.47, 0.25]))
    assert not inside(hull, np.array([0.52, 0.23, 0.25]))
    assert not inside(hull, np.array([0.24, 0.51, 0.25]))


def test_direction_dedup_keeps_first(ex2):
    v = np.array([0.5, 0.5])
    close = sl.cone_hull([v, v + [1e-11, -1e-11], v + [1e-6, -1e-6]])
    assert close.directions.tolist() == [v.tolist(), (v + [1e-6, -1e-6]).tolist()]
    enum = sl.enumerate_semigroup(ex2, 3)
    words = [w for w, m in zip(enum.words, enum.elements) if np.all(m > 0)]
    assert [w for _, w in sl.lambda_set(enum)][0] == words[0]


def test_direction_dedup_compares_with_kept_only():
    # the middle vector is dropped for the first; the last is near the
    # dropped one only, so it stays
    v = np.array([0.5, 0.25, 0.25])
    step = np.array([6e-11, -6e-11, 0.0])
    hull = sl.cone_hull([v, v + step, v + 2 * step, [0.25, 0.5, 0.25]])
    assert hull.directions.tolist() == [v.tolist(), (v + 2 * step).tolist(),
                                        [0.25, 0.5, 0.25]]


@pytest.mark.parametrize("seed", range(3))
def test_distinct_matches_reference_loop(seed):
    # clusters whose spread straddles DIRECTION_DEDUP_TOL
    from smoothing_lab.support import DIRECTION_DEDUP_TOL, _distinct

    rng = np.random.default_rng(seed)
    centres = rng.dirichlet(np.ones(3), size=20)
    vecs = (centres[rng.integers(0, 20, size=300)]
            + rng.uniform(-1.5, 1.5, (300, 3)) * DIRECTION_DEDUP_TOL)
    kept: list = []
    for i, v in enumerate(vecs):
        if not any(np.abs(v - vecs[j]).max() < DIRECTION_DEDUP_TOL for j in kept):
            kept.append(i)
    assert _distinct(vecs) == kept
    assert _distinct(list(vecs)) == kept and _distinct([]) == []


def test_eigen_directions_computed_once(ex2):
    enum = sl.enumerate_semigroup(ex2, 3)
    first = sl.lambda_set(enum)
    again = sl.lambda_set(enum)
    assert first is not again and all(v is w for (v, _), (w, _) in zip(first, again))
    assert not first[0][0].flags.writeable


def test_empirical_support_degenerate_pool():
    pool = sl.SamplePool(dim=2, samples=np.tile([0.5, 0.5], (100, 1)))
    frac, gaps = sl.empirical_support_check(pool, hull_ex1())
    assert frac == 1.0
    # the unvisited extreme sits at L1 distance |v1 - v2| = 1/3
    assert max(gaps) == pytest.approx(1 / 3, abs=1e-12)


# ---------------------------------------------------------------------------
# radius witnesses
# ---------------------------------------------------------------------------


def test_witnesses_ex1(ex1):
    small, large = sl.find_l1_l2(ex1)
    assert small.radius == pytest.approx(0.8, abs=1e-9)
    assert large.radius == pytest.approx(1.2, abs=1e-9)
    assert np.allclose(small.matrix, 2 * A1, atol=1e-12)
    assert np.allclose(large.matrix, 2 * A2, atol=1e-12)
    assert small.matrix.min() > 0 and large.matrix.min() > 0


def test_witnesses_ex2(ex2):
    small, large = sl.find_l1_l2(ex2)
    assert small.radius == pytest.approx(0.5, abs=1e-9)
    assert large.radius == pytest.approx(1.5, abs=1e-9)
    assert np.allclose(small.matrix, (A1 + A2) / 2, atol=1e-12)
    assert np.allclose(large.matrix, 1.5 * (A1 + A2), atol=1e-12)


def test_witnesses_unit_radius_model():
    # every branch-sum realization is the idempotent rank-one a1 + a2, whose
    # radius is exactly one at every product depth: the search must come back
    # empty-handed on both strict sides
    half = 0.5 * (A1 + A2)
    spec = sl.ModelSpec(dim=2, kind="ExplicitAtoms", atoms=((1.0, (half, half)),))
    with pytest.raises(WitnessNotFound):
        sl.find_l1_l2(spec, depth_budget=4)


def test_witness_search_partial_ex3(ex3):
    res = sl.search_radius_witnesses(ex3, depth_budget=3)
    assert res.small is not None
    assert res.small.matrix.min() > 0
    assert res.small.radius <= 1 - 1e-9
    assert res.large is None


# ---------------------------------------------------------------------------
# greedy expansion
# ---------------------------------------------------------------------------


def test_dyadic_binary_case():
    bits = sl.dyadic_expand(0.625, 0.5, 8)
    assert bits.tolist() == [1, 0, 1, 0, 0, 0, 0, 0]


def test_dyadic_full_mass():
    theta = 0.6
    bits = sl.dyadic_expand(theta / (1 - theta), theta, 12)
    assert bits.tolist() == [1] * 12


def test_dyadic_frozen_prefix():
    bits = sl.dyadic_expand(1.0, 0.6, 7)
    assert bits.tolist() == [1, 1, 0, 0, 0, 0, 1]


def test_dyadic_out_of_range():
    with pytest.raises(OutOfRange):
        sl.dyadic_expand(1.51, 0.6, 5)
    with pytest.raises(OutOfRange):
        sl.dyadic_expand(-0.1, 0.6, 5)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.5, 0.95), st.floats(0.0, 1.0))
def test_dyadic_reconstruction_property(theta, frac):
    x = frac * theta / (1 - theta)
    bits = sl.dyadic_expand(x, theta, 60)
    partial = 0.0
    power = 1.0
    for b in bits:
        power *= theta
        partial += b * power
        assert partial <= x + 1e-15
    assert x - partial <= theta**60 / (1 - theta) + 1e-12
    reconstructed = bits @ theta ** np.arange(1, bits.size + 1)
    assert reconstructed == pytest.approx(partial, abs=1e-9)
