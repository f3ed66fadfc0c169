import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smoothing_lab as sl
from smoothing_lab.errors import (
    NotPrimitive,
    ZeroColumn,
)
from smoothing_lab.matrices import hilbert_column_diameter

from conftest import A1, A2


def random_nonneg(rng, d, zero_frac=0.0):
    a = rng.uniform(0.0, 1.0, size=(d, d))
    if zero_frac:
        a[rng.uniform(size=(d, d)) < zero_frac] = 0.0
    return a


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------


def test_spectral_radius_identity():
    assert sl.spectral_radius(np.eye(2)) == pytest.approx(1.0, abs=1e-14)


def test_spectral_radius_mean_sum():
    assert sl.spectral_radius(A1 + A2) == pytest.approx(1.0, abs=1e-12)


def test_spectral_radius_rank_one():
    # char poly of [[.2,.2],[.2,.2]] is l(l - 0.4)
    assert sl.spectral_radius(A1) == pytest.approx(0.4, abs=1e-13)


def test_spectral_radius_zero_and_nilpotent():
    assert sl.spectral_radius(np.zeros((3, 3))) == 0.0
    assert sl.spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0, abs=1e-12)


def test_spectral_radius_rejects_negative():
    with pytest.raises(ValueError):
        sl.spectral_radius(np.array([[1.0, -0.1], [0.0, 1.0]]))


def test_spectral_radius_power_identity():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = random_nonneg(rng, rng.integers(2, 5), zero_frac=0.3)
        r = sl.spectral_radius(a)
        for n in (2, 3, 5):
            assert sl.spectral_radius(np.linalg.matrix_power(a, n)) == pytest.approx(
                r**n, rel=1e-9, abs=1e-12
            )


def test_spectral_radius_matches_norm_growth():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = random_nonneg(rng, 3) + 0.05
        r = sl.spectral_radius(a)
        # Gelfand: ||a^k||^(1/k) -> r
        k = 200
        m = a / r
        est = np.linalg.norm(np.linalg.matrix_power(m, k), 1) ** (1 / k) * r
        assert est == pytest.approx(r, rel=1e-2)


def test_radius_monotonicity_sample():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        a = random_nonneg(rng, d, zero_frac=0.5)
        b = random_nonneg(rng, d, zero_frac=0.5)
        b[0, 0] = max(b[0, 0], 0.1)
        s = a + b
        s[s == 0] = 0.05
        b = s - a
        assert sl.spectral_radius(a) < sl.spectral_radius(a + b)


# ---------------------------------------------------------------------------
# Perron direction
# ---------------------------------------------------------------------------


def test_pf_decompose_rank_one_atoms():
    assert sl.pf_decompose(A1) == pytest.approx([0.5, 0.5], abs=1e-12)
    assert sl.pf_decompose(A2) == pytest.approx([1 / 3, 2 / 3], abs=1e-12)


def test_pf_decompose_identity_not_primitive():
    with pytest.raises(NotPrimitive):
        sl.pf_decompose(np.eye(3))
    with pytest.raises(NotPrimitive):
        sl.pf_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(NotPrimitive):
        sl.pf_decompose(np.zeros((2, 2)))


def test_pf_decompose_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        a = random_nonneg(rng, d) + 0.02
        v = sl.pf_decompose(a)
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(v > 0)
        assert a @ v == pytest.approx(sl.spectral_radius(a) * v, abs=1e-10)


# ---------------------------------------------------------------------------
# projective metric
# ---------------------------------------------------------------------------


def test_hennion_identity_and_sup():
    x = np.array([0.3, 0.7])
    assert sl.hennion_distance(x, x) == 0.0
    assert sl.hennion_distance([1.0, 0.0], [0.0, 1.0]) == 1.0


def test_hennion_interior_pair():
    x = np.array([0.5, 0.5])
    y = np.array([1 / 3, 2 / 3])
    d = sl.hennion_distance(x, y)
    assert 0.0 < d < 1.0
    assert np.abs(x - y).sum() == pytest.approx(1 / 3, abs=1e-12)
    assert np.abs(x - y).sum() <= 2 * d + 1e-12


simplex2 = st.tuples(
    st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)
).map(lambda t: np.array(t) / sum(t))


@settings(max_examples=150, deadline=None)
@given(simplex2, simplex2, simplex2)
def test_hennion_metric_axioms(x, y, z):
    dxy = sl.hennion_distance(x, y)
    dyx = sl.hennion_distance(y, x)
    assert dxy == pytest.approx(dyx, abs=1e-12)
    assert 0.0 <= dxy <= 1.0
    assert dxy <= sl.hennion_distance(x, z) + sl.hennion_distance(z, y) + 1e-12
    if np.abs(x - y).max() > 1e-9:
        assert dxy > 0.0
    assert np.abs(x - y).sum() <= 2 * dxy + 1e-12


def test_hennion_l1_bound_boundary_pairs():
    rng = np.random.default_rng(13)
    for _ in range(300):
        d = int(rng.integers(2, 6))
        x = rng.dirichlet(np.ones(d))
        y = rng.dirichlet(np.ones(d))
        x[rng.integers(0, d)] = 0.0
        x /= x.sum()
        assert np.abs(x - y).sum() <= 2 * sl.hennion_distance(x, y) + 1e-12


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------


def test_contraction_rank_one_collapses():
    assert sl.contraction_coefficient(A1, pairs=64) == pytest.approx(0.0, abs=1e-12)
    assert sl.contraction_coefficient(A1 + A2, pairs=64) == pytest.approx(0.0, abs=1e-12)


def test_contraction_identity_isometry():
    assert sl.contraction_coefficient(np.eye(2), pairs=64) == pytest.approx(1.0, abs=1e-12)


def test_contraction_zero_column():
    with pytest.raises(ZeroColumn):
        sl.contraction_coefficient(np.array([[1.0, 0.0], [0.0, 0.0]]), pairs=8)


def test_contraction_dominates_sampled_pairs():
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        g = rng.uniform(0.05, 1.0, size=(d, d))
        c_hat = sl.contraction_coefficient(g, pairs=256)
        bound = sl.birkhoff_bound(g)
        assert c_hat <= bound + 1e-12
        for _ in range(20):
            x = rng.dirichlet(np.ones(d))
            y = rng.dirichlet(np.ones(d))
            dxy = sl.hennion_distance(x, y)
            dim = sl.hennion_distance(sl.project_direction(g, x),
                                      sl.project_direction(g, y))
            assert dim <= bound * dxy + 1e-12


def test_contraction_submultiplicative():
    rng = np.random.default_rng(19)
    for _ in range(50):
        d = int(rng.integers(2, 4))
        g1 = rng.uniform(0.05, 1.0, size=(d, d))
        g2 = rng.uniform(0.05, 1.0, size=(d, d))
        c1 = sl.contraction_coefficient(g1, pairs=64)
        c2 = sl.contraction_coefficient(g2, pairs=64)
        c12 = sl.contraction_coefficient(g1 @ g2, pairs=64)
        assert c12 <= c1 * c2 + 1e-9


def test_birkhoff_bound_diameter():
    g = np.array([[1.0, 1.0], [1.0, 2.0]])
    assert hilbert_column_diameter(g) == pytest.approx(np.log(2.0), abs=1e-12)
    assert sl.birkhoff_bound(g) == pytest.approx(np.tanh(np.log(2.0) / 4), abs=1e-12)
    assert sl.birkhoff_bound(np.array([[1.0, 0.0], [1.0, 2.0]])) == 1.0
