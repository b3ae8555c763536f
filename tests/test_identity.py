import numpy as np
import pytest

from finslerab import identity, testmetrics
from finslerab.identity import (
    ContractionSet,
    appendix_terms,
    contraction_set,
    printed_table_defects,
    verify_identity,
)
from finslerab.riemann import build_bundle
from .conftest import alpha, example_point, unit_y
from .oracles import contraction_set_naive


def _zero_cs(n=3, **over):
    base = {name: 0.0 for name in ContractionSet._fields}
    base["n"] = n
    base.update(over)
    return ContractionSet(**base)


def test_t0_hand_value():
    cs = _zero_cs(n=3, beta=1.0, r00=2.0, alpha=1.0)
    t = appendix_terms(cs)
    assert t[0] == 144 * (8 * 3 - 11) * 1.0 * 4.0  # 7488


def test_t14_vanishes_without_s_and_sigma():
    cs = _zero_cs(n=4, beta=0.7, bsq=0.13, alpha=1.0, r00=1.0, r0=0.4, r=0.2)
    assert appendix_terms(cs)[14] == 0.0


def test_sigma_slice():
    cs = _zero_cs(n=3, beta=0.5, bsq=0.0, alpha=1.0, sigma=1.0)
    t = appendix_terms(cs)
    assert t[14] == -1.0
    assert t[12] == -6 * 29 * 0.25  # -174 beta^2 sigma at b^2 = 0
    assert t[13] == 4 * 5 * 0.5


def test_contraction_sets_trivial_for_parallel(example_bundle):
    y = np.array([0.3, 0.2, -0.4, 0.5, 0.1])
    cs = contraction_set(example_bundle, y, sigma=0.0)
    for name in ("r00", "r0", "r", "rkk", "s0", "r00_0", "br00k", "r0_0", "s0_0",
                 "sk0k", "bs0k", "r0k_sk0", "s0k_sk0", "sjk_skj", "sk_sk",
                 "rk_sk0", "r0k_sk", "sk0_sk"):
        assert abs(getattr(cs, name)) <= 1e-12, name
    assert abs(cs.ricbar) <= 1e-9
    assert cs.alpha > 0 and abs(cs.bsq - 0.16) < 1e-12


def test_contraction_sets_conformal(homothetic_spec):
    bu = build_bundle(homothetic_spec, np.array([0.3, -0.5, 0.7]))
    rng = np.random.default_rng(1)
    y = unit_y(bu, rng)
    cs = contraction_set(bu, y)
    k = 0.1
    assert abs(cs.r00 - k * cs.alpha**2) <= 1e-14
    assert abs(cs.r0 - k * cs.beta) <= 1e-14
    assert abs(cs.r - k * cs.bsq) <= 1e-14
    assert abs(cs.rkk - k * bu.n) <= 1e-14
    for name in ("s0", "s0k_sk0", "sjk_skj", "sk_sk", "sk0_sk", "r0k_sk0"):
        assert abs(getattr(cs, name)) <= 1e-15, name


def test_contraction_dual_implementation(generic_bundle):
    rng = np.random.default_rng(2)
    for _ in range(5):
        y = unit_y(generic_bundle, rng)
        a = contraction_set(generic_bundle, y, 0.3)
        b = contraction_set_naive(generic_bundle, y, 0.3)
        for name in ContractionSet._fields:
            va, vb = getattr(a, name), getattr(b, name)
            assert abs(va - vb) <= 1e-14 * max(1.0, abs(va)), name


def test_identity_on_parallel_example(example_spec):
    rng = np.random.default_rng(3)
    bu = build_bundle(example_spec, example_point(rng))
    diag = verify_identity(bu, unit_y(bu, rng), sigma=0.0)
    assert diag.ok
    assert abs(diag.lhs) <= 1e-8 and abs(diag.rhs) <= 1e-8


def test_identity_generic_random_sigma(generic3d):
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(25):
        bu = build_bundle(generic3d, rng.uniform(-0.8, 0.8, 3))
        y = unit_y(bu, rng)
        diag = verify_identity(bu, y, sigma=float(rng.uniform(-1, 1)))
        assert diag.ok
        worst = max(worst, diag.rel_dev)
    assert worst <= 1e-6


@pytest.mark.parametrize("n", [3, 4, 5])
def test_identity_random_metrics(n):
    spec = testmetrics.random_metric(n, 40 + n)
    rng = np.random.default_rng(n)
    for _ in range(6):
        bu = build_bundle(spec, rng.uniform(-0.9, 0.9, n))
        diag = verify_identity(bu, unit_y(bu, rng), sigma=float(rng.uniform(-1, 1)))
        assert diag.ok, diag.rel_dev


def test_sigma_affineness(generic_bundle):
    y = np.array([0.5, -0.4, 0.6])
    y = y / alpha(generic_bundle, y)
    d0 = verify_identity(generic_bundle, y, 0.0)
    d1 = verify_identity(generic_bundle, y, 1.0)
    dh = verify_identity(generic_bundle, y, 0.5)
    assert abs(0.5 * (d0.lhs + d1.lhs) - dh.lhs) <= 1e-12 * max(1.0, abs(dh.lhs))
    assert abs(0.5 * (d0.rhs + d1.rhs) - dh.rhs) <= 1e-12 * max(1.0, abs(dh.rhs))


def test_parity(generic3d):
    rng = np.random.default_rng(5)
    for _ in range(10):
        bu = build_bundle(generic3d, rng.uniform(-0.8, 0.8, 3))
        rec = verify_identity(bu, unit_y(bu, rng), sigma=float(rng.uniform(-1, 1)))
        assert rec.term_parity_dev <= 1e-10
        assert rec.even_dev <= 1e-6 and rec.odd_dev <= 1e-6
        assert rec.parity_ok and rec.ok


def test_printed_table_defect_localization(generic3d):
    """The verbatim published table must fail, and exactly in t_3 .. t_12."""
    rng = np.random.default_rng(6)
    bu = build_bundle(generic3d, rng.uniform(-0.6, 0.6, 3))
    y = unit_y(bu, rng)
    cs = contraction_set(bu, y, sigma=0.2)
    defect = printed_table_defects(cs)
    assert not defect[[0, 1, 2, 13, 14]].any()
    assert np.max(np.abs(defect[3:13])) > 0

    corrected = appendix_terms(cs)
    printed = appendix_terms(cs, printed=True)
    # corrected is literally printed + defect, so the identity is bitwise
    assert np.array_equal(corrected, printed + defect)

    powers = cs.alpha ** np.arange(15)
    diag = verify_identity(bu, y, sigma=0.2)
    rhs_printed = float(printed @ powers)
    assert diag.ok
    assert abs(diag.lhs - rhs_printed) / max(1.0, abs(diag.lhs)) > 1e-6


def test_sensitivity_breakdown_reports_suspects(generic_bundle, monkeypatch):
    """Corrupting one coefficient must be localized by the zero-out scan."""
    rng = np.random.default_rng(7)
    y = unit_y(generic_bundle, rng)
    good = verify_identity(generic_bundle, y, 0.1)
    assert good.ok and good.suspect is None

    def corrupted(cs, printed=False):
        bad = appendix_terms(cs, printed)
        bad[6] *= 50.0  # inject a dominant defect in t_6
        return bad

    monkeypatch.setattr(identity, "appendix_terms", corrupted)
    diag = verify_identity(generic_bundle, y, 0.1)
    assert not diag.ok
    assert diag.suspect == 6
