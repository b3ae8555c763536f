import numpy as np
import pytest

from finslerab import finsler, testmetrics
from finslerab.dsl import parse_metric
from finslerab.riemann import GeometryError, build_bundle
from .conftest import example_point, unit_y
from .oracles import D2b, bianchi_check, christoffels_fd, det_jet, gbar, metric_jets, rbar, rbar4


def test_euclidean_is_flat():
    bu = build_bundle(testmetrics.euclidean(3), np.zeros(3))
    assert not bu.gamma.any()
    assert not bu.riem4.any()
    y = np.array([1.0, 2.0, -0.5])
    assert not gbar(bu, y).any()
    assert not rbar(bu, y).any()
    assert bu.ricbar(y) == 0.0


def test_example_ricci_flat_but_curved(example_spec):
    rng = np.random.default_rng(0)
    for _ in range(5):
        bu = build_bundle(example_spec, example_point(rng))
        for _ in range(4):
            y = rng.standard_normal(5)
            assert abs(bu.ricbar(y)) <= 1e-9 * bu.alpha2(y)
        assert np.max(np.abs(bu.riem4)) > 0.01  # Ricci-flat does not mean flat


def test_example_beta_parallel(example_spec):
    rng = np.random.default_rng(1)
    for _ in range(5):
        bu = build_bundle(example_spec, example_point(rng))
        assert np.max(np.abs(bu.Db)) <= 1e-12


def test_sphere_constant_curvature(sphere_spec):
    bu = build_bundle(sphere_spec, np.array([1.1, 0.4]))
    for y in ([0.3, 0.7], [1.0, 0.0], [-0.2, 0.5]):
        y = np.array(y)
        assert abs(bu.ricbar(y) - bu.alpha2(y)) <= 1e-9


def test_christoffels_match_fd(generic3d):
    rng = np.random.default_rng(2)
    for _ in range(3):
        x = rng.uniform(-0.8, 0.8, 3)
        bu = build_bundle(generic3d, x)
        fd = christoffels_fd(generic3d, x)
        assert np.max(np.abs(bu.gamma - fd)) < 1e-6


def test_covariant_b_conformal(homothetic_spec):
    bu = build_bundle(homothetic_spec, np.array([0.3, -0.5, 0.7]))
    assert np.max(np.abs(bu.r - 0.1 * bu.a)) < 1e-14  # r_ij = k a_ij
    assert np.max(np.abs(bu.s)) == 0.0
    y = np.array([0.4, 0.1, -0.9])
    assert abs(float(y @ bu.r @ y) - 0.1 * bu.alpha2(y)) < 1e-14


def test_covariant_b_rotational(rotational_spec):
    bu = build_bundle(rotational_spec, np.array([0.4, 0.3]))
    assert np.max(np.abs(bu.r)) < 1e-14  # Killing
    assert abs(bu.s[0, 1] - 0.3) < 1e-14  # s_12 = (b_1|2 - b_2|1)/2 = +0.3
    # non-constant length: s_i = b^j s_ji is the half-gradient of b^2, nonzero here
    assert np.max(np.abs(bu.svec)) > 0.01
    assert np.max(np.abs(2 * (bu.rvec + bu.svec) - bu.d_bsq)) < 1e-14


def test_rs_decomposition_structural(generic_bundle):
    bu = generic_bundle
    assert np.array_equal(bu.r + bu.s, bu.Db)
    assert np.array_equal(bu.r, bu.r.T)
    assert np.array_equal(bu.s, -bu.s.T)


def test_bianchi_flat_and_example(example_spec):
    spec = parse_metric(
        "dim = 3\na 1 1 = 1\na 2 2 = 1\na 3 3 = 1\n"
        "b 1 = 0.1*x2^2\nb 2 = 0.2*x1*x3\nb 3 = 0.05*x1^2"
    )
    bu = build_bundle(spec, np.array([0.4, -0.2, 0.6]))
    assert bianchi_check(bu) <= 1e-10
    be = build_bundle(example_spec, np.array([0.2, 0.1, -0.4, 1.5, 0.3]))
    assert bianchi_check(be) <= 1e-10


def test_bianchi_random_metrics():
    for n, seed in ((2, 5), (3, 6), (4, 7)):
        spec = testmetrics.random_metric(n, seed)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            bu = build_bundle(spec, rng.uniform(-0.9, 0.9, n))
            scale = max(1.0, float(np.max(np.abs(D2b(bu)))), float(np.max(np.abs(rbar4(bu)))))
            assert bianchi_check(bu) <= 1e-8 * scale


def test_curvature_annihilates_y_and_homogeneity(generic3d):
    rng = np.random.default_rng(8)
    for _ in range(10):
        bu = build_bundle(generic3d, rng.uniform(-0.8, 0.8, 3))
        for _ in range(10):
            y = rng.standard_normal(3)
            R = rbar(bu, y)
            assert np.max(np.abs(R @ y)) <= 1e-9 * max(1.0, np.max(np.abs(R)))
            assert abs(bu.ricbar(2 * y) - 4 * bu.ricbar(y)) <= 1e-9 * max(1.0, abs(bu.ricbar(y)))


def test_classical_vs_spray_curvature(generic3d):
    # beta = 0 so the generic spray reduces to the alpha spray, computed by
    # the completely different jet route
    spec = parse_metric(
        "\n".join(l for l in generic3d.to_text().splitlines() if not l.startswith("b ")),
        "alpha_only",
    )
    rng = np.random.default_rng(9)
    for _ in range(5):
        bu = build_bundle(spec, rng.uniform(-0.8, 0.8, 3))
        y = unit_y(bu, rng)
        R_spray, ric_spray = finsler.riemann_curvature(finsler.spray(bu, y))
        assert np.max(np.abs(R_spray - rbar(bu, y))) < 1e-9
        assert abs(ric_spray - bu.ricbar(y)) < 1e-9


def test_det_jet_matches_numpy(generic_bundle):
    dj = det_jet(metric_jets(generic_bundle.spec, generic_bundle.x, 3)[0])
    assert abs(dj.val - np.linalg.det(generic_bundle.a)) < 1e-12
    # the bundle's d(log det)/dx by Jacobi's formula tr(a^-1 da) against the jet determinant
    expected = dj.grad / dj.val
    assert np.max(np.abs(generic_bundle.dlndet - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_domain_and_dimension_errors(example_spec):
    with pytest.raises(GeometryError):
        build_bundle(example_spec, np.array([0.0, 0.0, 0.0, 0.1, 0.0]))  # x4 below box
    with pytest.raises(GeometryError):
        build_bundle(example_spec, np.zeros(3))
    bad = parse_metric("dim = 2\na 1 1 = -1\na 2 2 = 1")
    with pytest.raises(GeometryError):
        build_bundle(bad, np.zeros(2))


def test_contractions_match_naive_loops(generic_bundle):
    bu = generic_bundle
    n = bu.n
    r_up = np.array([[sum(bu.a_inv[i, k] * bu.r[k, j] for k in range(n)) for j in range(n)] for i in range(n)])
    rvec = np.array([sum(bu.bup[i] * bu.r[i, j] for i in range(n)) for j in range(n)])
    r_sc = sum(rvec[j] * bu.bup[j] for j in range(n))
    assert np.allclose(r_up, bu.r_up, rtol=0, atol=1e-15)
    assert np.allclose(rvec, bu.rvec, rtol=0, atol=1e-15)
    assert abs(r_sc - bu.r_scalar) < 1e-15
