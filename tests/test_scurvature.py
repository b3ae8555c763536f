import dataclasses
import math

import numpy as np
import pytest

from finslerab import cli, finsler, scurvature, testmetrics
from finslerab.classify import RunConfig, run_check
from finslerab.dsl import Neg, parse_metric, sample_domain
from finslerab.riemann import build_bundle
from finslerab.scurvature import FORMS, s_curvature_closed, s_curvature_def, volume_factor
from .conftest import example_point, unit_y
from .oracles import det_jet, metric_jets


@pytest.mark.parametrize("form", ["bh", "ht"])
@pytest.mark.parametrize("n", range(2, 9))
def test_volume_factor_normalized_at_zero(n, form):
    assert abs(volume_factor(n, 0.0, form).f - 1.0) <= 1e-10


def test_volume_factor_closed_form_check():
    # n = 2, BH: denominator integral is pi (1 + b^2/2), so f(0.3) = 1/1.045
    vf = volume_factor(2, 0.3, "bh")
    assert abs(vf.f - 1.0 / 1.045) <= 1e-8


@pytest.mark.parametrize("form", ["bh", "ht"])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_fprime_matches_fd(n, form):
    b, h = 0.27, 1e-5
    fd = (volume_factor(n, b + h, form).f - volume_factor(n, b - h, form).f) / (2 * h)
    assert abs(volume_factor(n, b, form).fprime - fd) <= 1e-7


def test_lambda_small_b_limit():
    # Lambda = f'(b)/(b f(b)) tends to f''(0)/f(0); the guard must join smoothly
    lam0 = volume_factor(3, 0.0, "bh").Lambda
    lam1 = volume_factor(3, 2e-4, "bh").Lambda  # ratio branch
    assert abs(lam0 - lam1) <= 1e-6
    assert math.isfinite(lam0)


def _bh_gegenbauer(n, b):
    # f = m_0 / sum_j C(n, 2j) b^(2j) m_2j with the exact moments
    # m_2j = int_0^pi sin^(n-2) t cos^(2j) t dt = Gamma((n-1)/2) Gamma(j+1/2) / Gamma(n/2+j)
    def m(j):
        return math.gamma((n - 1) / 2) * math.gamma(j + 0.5) / math.gamma(n / 2 + j)

    return m(0) / sum(math.comb(n, 2 * j) * b ** (2 * j) * m(j) for j in range(n // 2 + 1))


@pytest.mark.parametrize("n", range(2, 13))
def test_volume_factor_bh_matches_gegenbauer_sum(n):
    for b in (0.0, 1e-5, 0.1, 0.3, 0.49, 0.499):
        exact = _bh_gegenbauer(n, b)
        assert abs(volume_factor(n, b, "bh").f - exact) <= 1e-13 * exact


@pytest.mark.parametrize("form", ["bh", "ht"])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_fsecond_matches_second_difference(n, form):
    h = 1e-4
    for b in (0.1, 0.27, 0.45):
        fd = (
            volume_factor(n, b + h, form).f
            - 2 * volume_factor(n, b, form).f
            + volume_factor(n, b - h, form).f
        ) / h**2
        fpp = volume_factor(n, b, form).fsecond
        assert abs(fpp - fd) <= 1e-6 * max(1.0, abs(fpp))


def _bits(vf):
    """Each field of a VolumeFactor with its type and exact value (repr round-trips a float)."""
    return [(type(v), repr(v)) for v in vf]


def test_volume_factor_cached_equals_fresh(monkeypatch):
    # each key differs from the one before it in one place.  A repeat must hit;
    # where a key differs only in the type of n or b, the sign of a zero b or the
    # case of the form, it shares the record of the key before it, which must
    # have the bits a fresh evaluation at its own arguments gives
    b = 0.123456
    keys = [
        (4, b, "ht"), (4, b, "bh"), (4, b, "HT"), (5, b, "ht"), (5, math.nextafter(b, 1.0), "ht"),
        (5, 5e-5, "ht"), (5, math.nextafter(5e-5, 0.0), "ht"), (5, 5e-5, "bh"), (5, 0.0, "bh"),
        (5, -0.0, "bh"), (5, 0, "bh"), (5, 0, "Bh"), (np.int64(5), 0, "bh"), (5, np.float64(0.2), "bh"),
        (5, 0.2, "bh"), (12, 0.4999, "ht"), (2, 0.4999, "ht"),
    ]
    for key in keys:
        got = volume_factor(*key)
        assert volume_factor(*key) is got  # a hit
        monkeypatch.setattr(scurvature, "_last", None)
        fresh = volume_factor(*key)
        assert fresh is not got and _bits(got) == _bits(fresh), key
    with pytest.raises(AttributeError):
        got.Lambda = 0.0
    assert got._fields == ("f", "fprime", "fsecond", "Lambda")  # only what the rule computed
    assert volume_factor(np.int64(5), -0.0, "BH") is volume_factor(5, 0, "bh")


def test_stored_rule_is_leggauss_40_on_0_pi():
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(40)
    assert scurvature._NODES.tobytes() == (0.5 * math.pi * (x + 1.0)).tobytes()
    assert scurvature._WEIGHTS.tobytes() == (0.5 * math.pi * w).tobytes()


def test_volume_factor_domain_errors():
    valid = volume_factor(3, 0.1, "bh")
    for n, b, form in [(3, 0.5, "bh"), (3, -0.1, "bh"), (3, math.nan, "bh"), (3, math.inf, "bh"),
                       (1, 0.1, "bh"), (3, 0.1, "euclidean")]:
        assert volume_factor(3, 0.1, "bh") is valid  # right after a cached call
        with pytest.raises(ValueError):
            volume_factor(n, b, form)
    # no rejected call touched the cache
    assert volume_factor(3, 0.1, "bh") is valid


def test_volume_factor_cache_is_one_entry():
    for k in range(200):
        last = volume_factor(3 + k % 4, k / 401, "ht" if k % 2 else "bh")
    _, record = scurvature._last  # one (key, record) pair, whatever came before
    assert record is last


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(scurvature, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(scurvature, name, counted)
    return calls


@pytest.mark.parametrize("form", ["bh", "ht"])
def test_run_check_one_quadrature_per_point(homothetic_spec, monkeypatch, form):
    monkeypatch.setattr(scurvature, "_last", None)
    calls = _count_calls(monkeypatch, "volume_factor")
    quads = _count_calls(monkeypatch, "_quadrature")
    cfg = RunConfig(points=5, y_per_point=4, seed=7, volume_form=form)
    run_check(homothetic_spec, cfg, ("beta", "S"))
    assert len(calls) == 2 * cfg.points * cfg.y_per_point
    assert 1 <= len(quads) <= cfg.points


@pytest.mark.parametrize("form", ["bh", "ht"])
@pytest.mark.parametrize("name", ["euclidean_homothetic", "matsumoto_example"])
def test_scurv_output_same_without_reuse(tmp_path, monkeypatch, name, form):
    path = str(testmetrics.shipped_metric_path(name))

    def scurv(out):
        assert cli.main(["scurv", path, "--points", "3", "--seed", "4", "--volume", form, "--out", str(out)]) == 0
        return out.read_bytes()

    reused = scurv(tmp_path / "reused.txt")
    calls = _count_calls(monkeypatch, "volume_factor")
    quads = _count_calls(monkeypatch, "_quadrature")
    original = scurvature.volume_factor

    def fresh(*args):
        scurvature._last = None
        return original(*args)

    monkeypatch.setattr(scurvature, "volume_factor", fresh)
    assert scurv(tmp_path / "fresh.txt") == reused
    assert len(quads) == len(calls) > 0  # every call evaluated the rule


@pytest.mark.parametrize("m", [1, "n", 12])
@pytest.mark.parametrize("route", ["s_curvature_def", "s_curvature_closed"])
@pytest.mark.parametrize("name", ["matsumoto_example", "euclidean_shear"])
def test_s_routes_reject_a_stack_of_y(name, route, m):
    """Both S routes take one y of shape (n,); a stack, even of one row, is a named ValueError."""
    spec = testmetrics.shipped_metric(name)
    bu = build_bundle(spec, np.array([(lo + hi) / 2 for lo, hi in spec.domain]))
    rng = np.random.default_rng(7)
    ys = np.array([unit_y(bu, rng) for _ in range(bu.n if m == "n" else m)])
    with pytest.raises(ValueError, match=rf"{route} takes one y of shape \({bu.n},\)"):
        if route == "s_curvature_def":
            s_curvature_def(finsler.spray(bu, ys))
        else:
            s_curvature_closed(bu, ys)


def test_dual_route_agreement(generic3d):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        bu = build_bundle(generic3d, rng.uniform(-0.8, 0.8, 3))
        for _ in range(4):
            y = unit_y(bu, rng)
            for form in ("bh", "ht"):
                a = s_curvature_closed(bu, y, form)
                b = s_curvature_def(finsler.spray(bu, y), form)
                worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    assert worst <= 1e-7


@pytest.mark.parametrize("form", ["bh", "ht"])
@pytest.mark.parametrize("name", ["euclidean_homothetic", "euclidean_rotational", "euclidean_shear"])
def test_log_volume_drift_matches_a_difference_of_f(name, form):
    """The definition route's d(ln sigma_F)/dx against a central difference of ln f(b(x)) + 1/2 ln det a(x).

    sigma_F = f(b) sqrt(det a), and the oracle reads only f, b^2 and a at
    x +- h e_k, never Lambda = f'/(b f), which both S routes share.  The
    route's drift along e_k is y . d(ln sigma_F)/dx at y = e_k, the spray
    divergence less S.
    """
    spec = testmetrics.shipped_metric(name)
    n, h = spec.dim, 1e-4
    rng = np.random.default_rng(5)

    def log_sigma(x):
        bu = build_bundle(spec, x)
        return math.log(volume_factor(n, math.sqrt(bu.bsq), form).f) + 0.5 * np.linalg.slogdet(bu.a)[1]

    devs = []
    for x in sample_domain(spec, 4, rng, shrink=0.1):
        bu = build_bundle(spec, x)
        for e in np.eye(n):
            sp = finsler.spray(bu, e)
            drift = float(np.trace(sp.G.grad[:, n:])) - s_curvature_def(sp, form)
            devs.append(drift - (log_sigma(x + h * e) - log_sigma(x - h * e)) / (2 * h))
    # the difference is good to about 3e-11 here; Lambda 1 % off moves the drift by 1.6e-4 to 1.3e-3
    assert np.max(np.abs(devs)) <= 1e-8


def test_homogeneity_degree_one(generic_bundle):
    y = np.array([0.4, -0.6, 0.3])
    assert abs(
        s_curvature_closed(generic_bundle, 2 * y, "bh")
        - 2 * s_curvature_closed(generic_bundle, y, "bh")
    ) <= 1e-12


def test_example_vanishing_s(example_spec):
    rng = np.random.default_rng(2)
    for _ in range(3):
        bu = build_bundle(example_spec, example_point(rng))
        y = unit_y(bu, rng)
        assert abs(s_curvature_closed(bu, y, "bh")) <= 1e-10
        assert abs(s_curvature_def(finsler.spray(bu, y), "bh")) <= 1e-9


def test_constant_killing_forms_have_zero_s():
    # beta = 0 and beta = const Killing both give S = 0 exactly in closed form
    spec = parse_metric("dim = 3\na 1 1 = 1\na 2 2 = 1\na 3 3 = 1\nb 1 = 0.2")
    bu = build_bundle(spec, np.array([0.1, 0.4, -0.3]))
    rng = np.random.default_rng(3)
    y = unit_y(bu, rng)
    assert s_curvature_closed(bu, y, "bh") == 0.0
    assert abs(s_curvature_def(finsler.spray(bu, y), "bh")) <= 1e-12
    c = run_check(spec, RunConfig(points=4, y_per_point=1, seed=3), ("beta",)).conditions
    assert c["beta_constant_killing"].verdict and c["beta_killing"].residual <= 1e-15


def test_conformal_beta_nonzero_s(homothetic_spec):
    bu = build_bundle(homothetic_spec, np.array([0.4, -0.2, 0.6]))
    rng = np.random.default_rng(4)
    vals = [abs(s_curvature_def(finsler.spray(bu, unit_y(bu, rng)), "bh")) for _ in range(6)]
    assert max(vals) > 1e-3


def test_killing_with_varying_norm_nonzero_s(rotational_spec):
    # Killing but s_i != 0: the verdict machinery must compute, not assume
    c = run_check(rotational_spec, RunConfig(points=4, y_per_point=1, seed=5), ("beta",)).conditions
    assert not c["beta_constant_killing"].verdict
    # Killing (max |r_ij|) exactly, but max |s_i| is not small
    assert c["beta_killing"].verdict and c["beta_killing"].residual <= 1e-15
    assert c["beta_constant_killing"].residual > 0.01
    bu = build_bundle(rotational_spec, np.array([0.5, 0.3]))
    rng = np.random.default_rng(5)
    vals = [abs(s_curvature_def(finsler.spray(bu, unit_y(bu, rng)), "bh")) for _ in range(6)]
    assert max(vals) > 1e-3


def test_example_verdict(example_spec):
    report = run_check(example_spec, RunConfig(points=4, y_per_point=1, seed=6), ("beta",))
    assert report.conditions["beta_constant_killing"].verdict


def test_s_curvature_def_reuses_spray_and_log_det(generic3d):
    bu = build_bundle(generic3d, np.array([0.3, -0.2, 0.4]))
    rng = np.random.default_rng(21)
    for _ in range(3):
        y = unit_y(bu, rng)
        first, again = finsler.spray(bu, y), finsler.spray(bu, y)
        for form in ("bh", "ht"):
            # a second spray at the same y, and the log-det kept on the bundle, give the same float
            assert s_curvature_def(first, form) == s_curvature_def(again, form)
    # Jacobi's formula against the jet determinant of the scalar-jet oracle
    detJ = det_jet(metric_jets(generic3d, bu.x, 3)[0])
    want = detJ.grad / detJ.val
    assert np.max(np.abs(bu.dlndet - want)) <= 1e-13 * np.max(np.abs(want))
    assert bu.dlndet is bu.dlndet  # computed once per bundle


def _curvature_stack(bundle, ys):
    """G, Ric, Ric_T, F, K and the flag residual at a point's stack of y."""
    sp = finsler.spray(bundle, ys)
    R, ric = finsler.riemann_curvature(sp)
    F = finsler.metric_value(bundle, ys)
    return (sp.G.val, ric, finsler.ricci_via_T(sp), F, *finsler.flag_curvature_fit(sp, R, F))


@pytest.mark.parametrize("source", testmetrics.list_shipped() + [3, 5, 8])  # a shipped metric, or random_metric(n)
def test_reversing_beta_is_reversing_y(source):
    """F with -beta at (x, y) is F with beta at (x, -y), whatever route computes it.

    So G, Ric by both routes, F, K and the flag residual agree bit for bit,
    and S changes sign under both routes and both volume forms (compared as
    floats: where S = 0 the two may differ in the sign of zero).  No route
    can fool this oracle: it catches a term of the wrong parity in y or beta
    even where both sides of a cross-check share it.
    """
    if isinstance(source, int):
        spec = testmetrics.random_metric(source, 40 + source)
    else:
        spec = testmetrics.shipped_metric(source)
    flipped = dataclasses.replace(spec, b_entries={i: Neg(e) for i, e in spec.b_entries.items()})
    rng = np.random.default_rng(7)
    for x in sample_domain(spec, 5, rng, shrink=0.05):
        plain, reversed_beta = build_bundle(spec, x), build_bundle(flipped, x)
        ys = finsler.unit_alpha_vectors(plain, 4, rng)
        for got, want in zip(_curvature_stack(reversed_beta, ys), _curvature_stack(plain, -ys)):
            assert got.tobytes() == want.tobytes()
        for form in FORMS:
            for y in ys:
                assert s_curvature_def(finsler.spray(reversed_beta, y), form) == -s_curvature_def(
                    finsler.spray(plain, -y), form)
                assert s_curvature_closed(reversed_beta, y, form) == -s_curvature_closed(plain, -y, form)
