"""Acceptance gate: one test per acceptance criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with the achieved margins and runtimes.
"""

import time

import numpy as np
import pytest

from finslerab import testmetrics
from finslerab.classify import RunConfig, run_appendix, run_check
from finslerab.dsl import parse_metric, sample_domain
from finslerab.finsler import (
    extract_scalars,
    flag_curvature_fit,
    metric_value,
    ricci_via_T,
    riemann_curvature,
    spray,
)
from finslerab.identity import verify_identity
from finslerab.riemann import build_bundle
from finslerab.scurvature import s_curvature_closed, s_curvature_def, volume_factor
from .conftest import alpha, unit_y
from .oracles import D2b, bianchi_check, general_spray, phi_data, phi_data_general, rbar4


def _report(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, detail


def test_criterion_1_example_reproduction(example_spec):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240517)
    pts = sample_domain(example_spec, 20, rng, shrink=0.05)
    worst_ricbar = worst_db = worst_ricf = worst_s = 0.0
    worst_sigma = 0.0
    for x in pts:
        bu = build_bundle(example_spec, x)
        worst_db = max(worst_db, float(np.max(np.abs(bu.Db))))
        rng.standard_normal((2 * bu.n, bu.n))  # unread draws: they keep this test's y-samples fixed
        rics, F2s = [], []
        for _ in range(12):
            y = unit_y(bu, rng)
            a2 = alpha(bu, y) ** 2
            worst_ricbar = max(worst_ricbar, abs(bu.ricbar(y)) / a2)
            sp = spray(bu, y)
            _, ric = riemann_curvature(sp)
            F2 = metric_value(bu, y) ** 2
            rics.append(ric)
            F2s.append(F2)
            worst_ricf = max(worst_ricf, abs(ric) / F2)
            worst_s = max(worst_s, abs(s_curvature_def(sp, "bh")))
        fit = extract_scalars(bu, np.array(rics), np.array(F2s))
        worst_sigma = max(worst_sigma, abs(fit.sigma), fit.resid_sigma)
    elapsed = time.perf_counter() - t0
    ok = (
        worst_ricbar <= 1e-8
        and worst_db <= 1e-10
        and worst_ricf <= 1e-8
        and worst_sigma <= 1e-8
        and worst_s <= 1e-9
        and elapsed < 5.0
    )
    _report(
        "1 (Ricci-flat example)",
        ok,
        f"|Ricbar|/a2 {worst_ricbar:.1e}, |Db| {worst_db:.1e}, |Ric|/F2 {worst_ricf:.1e}, "
        f"sigma {worst_sigma:.1e}, |S| {worst_s:.1e}, {elapsed:.2f}s",
    )


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the example's alpha is Ricci-flat but not flat "
    "(R^1_414 = 1/(2 x4^2) != 0), so F has no constant flag curvature: the fit's "
    "K = Ric/(4 F^2) is about 0, but its g-norm residual is order one, not 1e-8",
)
def test_criterion_1_flag_curvature_clause(example_spec):
    rng = np.random.default_rng(20240518)
    pts = sample_domain(example_spec, 20, rng, shrink=0.05)
    worst_K = worst_res = 0.0
    for x in pts:
        bu = build_bundle(example_spec, x)
        for _ in range(12):
            sp = spray(bu, unit_y(bu, rng))
            K, res = flag_curvature_fit(sp, riemann_curvature(sp)[0], metric_value(bu, sp.y))
            worst_K = max(worst_K, abs(K))
            worst_res = max(worst_res, res)
    print(f"ACCEPTANCE 1 (flag clause): K fit {worst_K:.1e}, residual {worst_res:.1e}", flush=True)
    assert worst_K <= 1e-8 and worst_res <= 1e-8


def test_criterion_2_dual_route_ricci(example_spec, homothetic_spec, rotational_spec):
    t0 = time.perf_counter()
    metrics = [example_spec, homothetic_spec, rotational_spec]
    metrics += [testmetrics.random_metric(n, 70 + n) for n in (2, 3, 4, 5)]
    metrics.append(testmetrics.random_metric(3, 99))
    worst = 0.0
    rng = np.random.default_rng(2)
    for spec in metrics:
        pts = sample_domain(spec, 10, rng, shrink=0.05)
        for x in pts:
            bu = build_bundle(spec, x)
            for _ in range(5):
                y = unit_y(bu, rng)
                sp = spray(bu, y)
                _, direct = riemann_curvature(sp)
                via_t = ricci_via_T(sp)
                worst = max(worst, abs(direct - via_t) / max(1.0, abs(direct)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    _report("2 (dual-route Ricci)", ok, f"worst rel dev {worst:.1e}, {elapsed:.1f}s on 8 metrics x 50 samples")


def test_criterion_3_cleared_identity():
    t0 = time.perf_counter()
    worst = worst_parity = 0.0
    failing = []
    rng = np.random.default_rng(3)
    for n in (3, 4, 5):
        for spec in (testmetrics.euclidean_linear_beta(n), testmetrics.random_metric(n, 50 + n)):
            pts = sample_domain(spec, 25, rng, shrink=0.05)
            for x in pts:
                bu = build_bundle(spec, x)
                y = unit_y(bu, rng)
                sigma = float(rng.uniform(-1, 1))
                diag = verify_identity(bu, y, sigma)
                worst = max(worst, diag.rel_dev)
                worst_parity = max(worst_parity, diag.even_dev, diag.odd_dev)
                if not diag.ok:
                    failing.append((spec.name, diag.rel_dev, diag.suspect))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and worst_parity <= 1e-6 and not failing and elapsed < 60.0
    detail = f"identity {worst:.1e}, parity {worst_parity:.1e}, {elapsed:.1f}s"
    if failing:
        detail += f"; localization: {failing[:3]}"
    _report("3 (cleared identity, n in 3..5)", ok, detail)


def test_criterion_4_s_curvature_theorem(example_spec, homothetic_spec, rotational_spec):
    rng = np.random.default_rng(4)
    const_killing = [
        example_spec,
        testmetrics.shipped_metric("euclidean_flat"),
        parse_metric("dim = 3\na 1 1 = 1\na 2 2 = 1\na 3 3 = 1\nb 1 = 0.2", "const_beta"),
    ]
    worst_zero = 0.0
    for spec in const_killing:
        pts = sample_domain(spec, 6, rng, shrink=0.05)
        for x in pts:
            bu = build_bundle(spec, x)
            for _ in range(4):
                worst_zero = max(worst_zero, abs(s_curvature_def(spray(bu, unit_y(bu, rng)), "bh")))

    non_const = [homothetic_spec, rotational_spec, testmetrics.shipped_metric("euclidean_shear")]
    max_each = []
    worst_routes = 0.0
    for spec in non_const:
        biggest = 0.0
        pts = sample_domain(spec, 6, rng, shrink=0.05)
        for x in pts:
            bu = build_bundle(spec, x)
            for _ in range(4):
                y = unit_y(bu, rng)
                s_def = s_curvature_def(spray(bu, y), "bh")
                s_cl = s_curvature_closed(bu, y, "bh")
                worst_routes = max(worst_routes, abs(s_def - s_cl) / max(1.0, abs(s_def)))
                biggest = max(biggest, abs(s_def))
        max_each.append(biggest)

    ok = worst_zero <= 1e-9 and min(max_each) > 1e-3 and worst_routes <= 1e-7
    _report(
        "4 (S-curvature iff constant Killing)",
        ok,
        f"constant-Killing |S| {worst_zero:.1e}; non-constant-Killing min max|S| {min(max_each):.2e}; "
        f"route dev {worst_routes:.1e}",
    )


def test_criterion_5_volume_factors():
    worst0 = max(
        abs(volume_factor(n, 0.0, form).f - 1.0) for n in range(2, 9) for form in ("bh", "ht")
    )
    closed = abs(volume_factor(2, 0.3, "bh").f - 1.0 / 1.045)
    h, b = 1e-5, 0.22
    worst_fd = 0.0
    for form in ("bh", "ht"):
        for n in (2, 4, 6, 8):
            fd = (volume_factor(n, b + h, form).f - volume_factor(n, b - h, form).f) / (2 * h)
            worst_fd = max(worst_fd, abs(volume_factor(n, b, form).fprime - fd))
    ok = worst0 <= 1e-10 and closed <= 1e-8 and worst_fd <= 1e-7
    _report(
        "5 (volume factors)",
        ok,
        f"f(0)-1 {worst0:.1e}; n=2 closed form {closed:.1e}; f' vs fd {worst_fd:.1e}",
    )


def test_criterion_6_phi_data_grid():
    worst = 0.0
    for b in np.linspace(0.005, 0.45, 30):
        for s in np.linspace(-b, b, 21):
            g = phi_data_general(s, b * b)
            m = phi_data(s, b * b)
            for name in ("Q", "Psi", "Theta", "Delta"):
                x, y = getattr(g, name), getattr(m, name)
                worst = max(worst, abs(x - y) / max(1.0, abs(x)))
    ok = worst <= 1e-12
    _report("6 (phi-data closed forms)", ok, f"worst rel dev {worst:.1e} over the (s, b) grid")


def test_criterion_7_structural_invariants():
    rng = np.random.default_rng(7)
    worst_bianchi = worst_ry = worst_hom = worst_dual = 0.0
    rs_exact = True
    for n in (2, 3, 4, 5):
        spec = testmetrics.random_metric(n, 30 + n)
        pts = sample_domain(spec, 5, rng, shrink=0.05)
        for x in pts:
            bu = build_bundle(spec, x)
            scale = max(1.0, float(np.max(np.abs(D2b(bu)))), float(np.max(np.abs(rbar4(bu)))))
            worst_bianchi = max(worst_bianchi, bianchi_check(bu) / scale)
            rs_exact = rs_exact and np.array_equal(bu.r + bu.s, bu.Db)
            for _ in range(4):
                y = unit_y(bu, rng)
                S1 = spray(bu, y)
                G1 = S1.G.val
                G2 = general_spray(bu, y).G.val
                for a, b in zip(G1, G2):
                    worst_dual = max(worst_dual, abs(a - b) / max(1.0, abs(a)))
                R, ric = riemann_curvature(S1)
                worst_ry = max(worst_ry, float(np.max(np.abs(R @ y))) / max(1.0, float(np.max(np.abs(R)))))
                R2, ric2 = riemann_curvature(spray(bu, 2 * y))
                G2x = spray(bu, 2 * y).G.val
                worst_hom = max(
                    worst_hom,
                    max(abs(g2 - 4 * g1) for g1, g2 in zip(G1, G2x)) / max(1.0, abs(G1[0])),
                    float(np.max(np.abs(R2 - 4 * R))) / max(1.0, float(np.max(np.abs(R2)))),
                    abs(ric2 - 4 * ric) / max(1.0, abs(ric2)),
                    abs(
                        s_curvature_closed(bu, 2 * y, "bh") - 2 * s_curvature_closed(bu, y, "bh")
                    )
                    / max(1.0, abs(s_curvature_closed(bu, y, "bh"))),
                )
    ok = (
        worst_bianchi <= 1e-8
        and worst_ry <= 1e-9
        and worst_hom <= 1e-9
        and worst_dual <= 1e-10
        and rs_exact
    )
    _report(
        "7 (structural invariants)",
        ok,
        f"bianchi {worst_bianchi:.1e}; R.y {worst_ry:.1e}; homogeneity {worst_hom:.1e}; "
        f"spray dual {worst_dual:.1e}; r+s exact {rs_exact}",
    )


def test_criterion_8_negative_control(homothetic_spec):
    report = run_check(homothetic_spec, RunConfig(points=10, y_per_point=8, seed=8))
    c = report.conditions
    ok = (
        c["beta_conformal"].verdict
        and abs(c["beta_conformal"].value - 0.1) <= 1e-9
        and not c["F_einstein"].verdict
        and not report.engine_inconsistent
    )
    _report(
        "8 (homothetic negative control)",
        ok,
        f"conformal c = {c['beta_conformal'].value:.10f}, Einstein verdict {c['F_einstein'].verdict}, "
        f"residual {c['F_einstein'].residual:.2e}",
    )
