import dataclasses
import gc
import warnings
import weakref

import numpy as np
import pytest

from finslerab import finsler, testmetrics
from finslerab.dsl import parse_metric, sample_domain
from finslerab.finsler import (
    _SprayInputs,
    _blocks,
    _lowered_y,
    extract_scalars,
    flag_curvature_fit,
    metric_value,
    ricci_via_T,
    riemann_curvature,
    spray,
)
from finslerab.jets import ArrayJet, JetError
from finslerab.riemann import build_bundle
from .conftest import alpha, euclidean, example_point, unit_y
from .oracles import (
    alpha_quadratics,
    gbar,
    general_F2,
    general_spray,
    phi_data,
    phi_data_general,
    unit_alpha_vectors_loop,
)


def test_phi_data_at_origin():
    pd = phi_data(0.0, 0.0)
    assert pd.Q == 1.0 and pd.Psi == 1.0 and pd.Theta == 0.5 and pd.Delta == 1.0


def test_phi_data_closed_values():
    pd = phi_data(0.2, 0.09)
    assert abs(pd.Q - 1 / 0.6) < 1e-15
    assert abs(pd.Psi - 1 / 0.58) < 1e-15
    assert abs(pd.Theta - 0.2 / 1.16) < 1e-15


def test_phi_data_delta_positive_on_validity_region():
    pd = phi_data(0.3, 0.09)
    assert abs(pd.Delta - (1 - 0.9 + 0.18) / 0.7**3) < 1e-15
    assert pd.Delta > 0


def test_phi_data_modes_agree_on_grid():
    worst = 0.0
    for b in np.linspace(0.01, 0.45, 23):
        for s in np.linspace(-b, b, 17):
            g = phi_data_general(s, b * b)
            m = phi_data(s, b * b)
            for name in ("Q", "Psi", "Theta", "Delta"):
                x, y = getattr(g, name), getattr(m, name)
                worst = max(worst, abs(x - y) / max(1.0, abs(x)))
    assert worst <= 1e-12


def test_phi_data_validity_errors():
    with pytest.raises(ValueError):
        phi_data(0.0, 0.26)  # b >= 1/2
    with pytest.raises(ValueError):
        phi_data(0.4, 0.09)  # |s| > b


def test_spray_reduces_to_alpha_without_beta():
    spec = parse_metric("dim = 2\na 1 1 = 1\na 2 2 = sin(x1)^2\ndomain x1 = [0.6, 2.5]")
    bu = build_bundle(spec, np.array([1.2, 0.3]))
    y = np.array([0.7, -0.4])
    G = spray(bu, y).G
    want = gbar(bu, y)
    for i in range(2):
        assert abs(G.val[i] - want[i]) < 1e-15


def test_spray_example_parallel(example_spec):
    rng = np.random.default_rng(3)
    bu = build_bundle(example_spec, example_point(rng))
    y = unit_y(bu, rng)
    G = spray(bu, y).G
    want = gbar(bu, y)
    for i in range(5):
        assert abs(G.val[i] - want[i]) <= 1e-12 * max(1.0, abs(want[i]))


def _oracle_deviation(bu, y):
    """Worst deviation of ``spray(bu, y)`` from the general spray, one row of a stack at a time.

    G is compared on every block the curvature reads -- value, d/dx, d/dy,
    d2/dx dy and d2/dy dy -- relative to max(1, |G^i|).
    """
    n = bu.n
    sp = spray(bu, y)
    worst = 0.0
    for k, yk in enumerate(np.reshape(y, (-1, n))):
        row = (lambda a: a) if y.ndim == 1 else (lambda a: a[k])
        want = general_spray(bu, yk)
        G = ArrayJet(row(sp.G.val), row(sp.G.grad), row(sp.G.hess))
        pairs = list(zip(_blocks(G), _blocks(want.G)))
        scale = np.maximum(1.0, np.abs(want.G.val))[:, None]
        for a, b in pairs:
            assert a.shape == b.shape
            worst = max(worst, float(np.max(np.abs(a - b).reshape(n, -1) / scale)))
    return worst


def test_spray_dual_formula_agreement(generic3d):
    # the spray (matsumoto closed form, preaccumulated coefficients) against
    # the general spray (scalar jets), on every block the curvature reads (_oracle_deviation)
    rng = np.random.default_rng(4)
    worst = 0.0
    for n in (2, 3, 5, 8):
        spec = generic3d if n == 3 else testmetrics.random_metric(n, 60 + n)
        for _ in range(20 if n == 3 else 4):
            bu = build_bundle(spec, rng.uniform(-0.8, 0.8, n))
            for _ in range(10 if n == 3 else 3):
                worst = max(worst, _oracle_deviation(bu, unit_y(bu, rng)))
    # the stacks the library makes, whose coefficients run on arrays rather
    # than floats: the appendix's (2, n) [y, -y] and the fit design's (4n, n);
    # on the shipped metrics as well
    sources = [generic3d] + [testmetrics.random_metric(n, 60 + n) for n in (2, 5, 8)]
    sources += [testmetrics.shipped_metric(name) for name in testmetrics.list_shipped()]
    for spec in sources:
        bu = build_bundle(spec, sample_domain(spec, 1, rng, shrink=0.05)[0])
        ys = np.array([unit_y(bu, rng) for _ in range(4 * bu.n)])
        for y in (ys[0], np.array([ys[0], -ys[0]]), ys):
            worst = max(worst, _oracle_deviation(bu, y))
    assert worst <= 1e-10, worst


def _constant_bundle(b1, b2):
    """a the identity and b = (b1, b2) on the plane, whatever b^2; at y = e1, s = b1."""
    return build_bundle(parse_metric(f"dim = 2\na 1 1 = 1\na 2 2 = 1\nb 1 = {b1}\nb 2 = {b2}"), np.zeros(2))


def _degenerate_bundle():
    """A bundle whose a is diag(1, 0), made by hand: alpha^2 = 0 at y = e2."""
    return dataclasses.replace(_constant_bundle(0.1, 0.0), a=np.diag([1.0, 0.0]))


@pytest.mark.parametrize(
    "bundle, y, message",
    [
        # 2s - 1 = 0: s = 0.5, b^2 = 0.5
        (_constant_bundle(0.5, 0.5), [1.0, 0.0], "division by zero"),
        # 3s - 2b^2 - 1 = 0: s = 0.75, b^2 = 0.625
        (_constant_bundle(0.75, 0.25), [1.0, 0.0], "division by zero"),
        # 1 - s = 0: s = 1, b^2 = 1.25; F divides by it, but no spray coefficient does
        (_constant_bundle(1.0, 0.5), [1.0, 0.0], None),
        # alpha^2 = 0, on a hand-made degenerate a
        (_degenerate_bundle(), [0.0, 1.0], "sqrt of non-positive"),
        # alpha^2 = 1e-208 > _TINY, but alpha^3 underflows, so sqrt's second derivative overflows
        (_constant_bundle(0.1, 0.0), [1e-104, 0.0], "overflow in sqrt"),
    ],
)
def test_spray_guards_vanishing_denominators(bundle, y, message):
    """A vanishing denominator raises JetError, at one y and in a stack, with no warning on the way.

    A denominator the spray does not divide by (``message`` None) gives
    finite jets.  The spray checks what the jet operations check: the
    domain of the sqrt of alpha^2 and denominators of magnitude below
    ``_TINY``.
    """
    y = np.array(y)
    stack = np.array([[0.6, -0.8], y])  # the other row is regular in every case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ys in (y, stack):
            if message is not None:
                with pytest.raises(JetError, match=message):
                    spray(bundle, ys)
            else:
                sp = spray(bundle, ys)
                assert np.all(np.isfinite(sp.G.val)) and np.all(np.isfinite(sp.G.grad))


def test_curvature_trivial_and_homogeneity(generic3d):
    bu0 = build_bundle(euclidean(3), np.zeros(3))
    R, ric = riemann_curvature(spray(bu0, np.array([1.0, 0.2, -0.5])))
    assert np.max(np.abs(R)) == 0.0 and ric == 0.0

    rng = np.random.default_rng(5)
    bu = build_bundle(generic3d, rng.uniform(-0.8, 0.8, 3))
    y = rng.standard_normal(3)
    G2 = spray(bu, 2 * y).G
    G1 = spray(bu, y).G
    for a, b in zip(G2.val, G1.val):
        assert abs(a - 4 * b) <= 1e-12 * max(1.0, abs(a))
    R1, ric1 = riemann_curvature(spray(bu, y))
    R2, ric2 = riemann_curvature(spray(bu, 2 * y))
    assert np.max(np.abs(R2 - 4 * R1)) <= 1e-10 * max(1.0, np.max(np.abs(R2)))
    assert abs(ric2 - 4 * ric1) <= 1e-10 * max(1.0, abs(ric2))
    assert np.max(np.abs(R1 @ y)) <= 1e-9 * max(1.0, np.max(np.abs(R1)))
    assert ric1 == np.trace(R1)


def test_example_is_ricci_flat(example_spec):
    rng = np.random.default_rng(6)
    for _ in range(5):
        bu = build_bundle(example_spec, example_point(rng))
        for _ in range(4):
            y = unit_y(bu, rng)
            _, ric = riemann_curvature(spray(bu, y))
            F = metric_value(bu, y)
            assert abs(ric) <= 1e-8 * F * F


def test_ricci_via_T_routes(generic3d, example_spec):
    bu0 = build_bundle(
        parse_metric("dim = 2\na 1 1 = 1\na 2 2 = sin(x1)^2\ndomain x1 = [0.6, 2.5]"),
        np.array([1.0, 0.2]),
    )
    y = np.array([0.5, 0.4])
    assert abs(ricci_via_T(spray(bu0, y)) - bu0.ricbar(y)) < 1e-12  # T = 0 route

    rng = np.random.default_rng(7)
    be = build_bundle(example_spec, example_point(rng))
    ye = unit_y(be, rng)
    _, ric_direct = riemann_curvature(spray(be, ye))
    assert abs(ric_direct) < 1e-8 and abs(ricci_via_T(spray(be, ye))) < 1e-8

    for _ in range(10):
        bu = build_bundle(generic3d, rng.uniform(-0.8, 0.8, 3))
        y = unit_y(bu, rng)
        sp = spray(bu, y)
        _, direct = riemann_curvature(sp)
        via_t = ricci_via_T(sp)
        assert abs(direct - via_t) <= 1e-8 * max(1.0, abs(direct))


def test_einstein_residual_linear_in_sigma(generic_bundle):
    y = np.array([0.4, -0.7, 0.2])
    F = metric_value(generic_bundle, y)
    _, ric = riemann_curvature(spray(generic_bundle, y))
    r0 = ric - 0.0 * F * F
    r1 = ric - 1.0 * F * F
    assert r1 - r0 == -F * F


def test_einstein_residual_example(example_spec):
    rng = np.random.default_rng(8)
    bu = build_bundle(example_spec, example_point(rng))
    y = unit_y(bu, rng)
    F = metric_value(bu, y)
    _, ric = riemann_curvature(spray(bu, y))
    assert abs(ric - 0.0 * F * F) <= 1e-8 * F * F


def test_lowered_y_riemannian_limit():
    # b = 0 makes F = alpha, so y_flat = g y is a y
    spec = parse_metric("dim = 3\na 1 1 = 1 + 0.1*x1^2\na 2 2 = 1\na 3 3 = 1 + 0.05*x2^2")
    bu = build_bundle(spec, np.array([0.3, -0.4, 0.2]))
    ys = np.array([[0.5, 0.1, -0.8], [-2.0, 0.3, 0.7]])
    for y in (ys[0], ys):
        assert np.max(np.abs(_lowered_y(bu, y, metric_value(bu, y)) - y @ bu.a)) <= 1e-14


@pytest.mark.parametrize("source", testmetrics.list_shipped() + [3, 5, 8])  # a shipped metric, or random_metric(n)
def test_flag_fit_against_the_oracle_F2(source):
    """y_flat and the flag fit against the oracle's scalar-jet F^2, one y and stacked.

    y_flat's closed form is compared with 1/2 dF^2/dy, and K and the
    residual with the fit written out in the g inner product
    <A, B>_g = tr(g^-1 A^T g B), g being 1/2 the y-y Hessian of F^2: so
    neither y_flat's closed form nor the identities that the fit's closed
    form rests on (R y = 0, M^2 = F^2 M) are on the oracle's route.  The
    residual is finite and nonnegative on every row of a stack.
    """
    spec = testmetrics.random_metric(source, 60 + source) if isinstance(source, int) else testmetrics.shipped_metric(source)
    rng = np.random.default_rng(21)
    for x in sample_domain(spec, 2, rng, shrink=0.05):
        bu = build_bundle(spec, x)
        n = bu.n
        ys = np.array([unit_y(bu, rng) * rng.uniform(0.5, 2.0) for _ in range(3)])
        sp = spray(bu, ys)
        R = riemann_curvature(sp)[0]
        F = metric_value(bu, ys)
        K, resid = flag_curvature_fit(sp, R, F)
        assert np.all(np.isfinite(resid)) and np.all(resid >= 0.0)
        y_flat = _lowered_y(bu, ys, F)
        for k, y in enumerate(ys):
            F2 = general_F2(bu, y)
            assert abs(F[k] ** 2 - F2.val) <= 1e-13 * max(1.0, F2.val)
            for got in (y_flat[k], _lowered_y(bu, y, metric_value(bu, y))):
                assert np.max(np.abs(got - 0.5 * F2.grad[n:])) <= 1e-13 * max(1.0, F2.val)
            g = 0.5 * F2.hess[n:, n:]
            M = F2.val * np.eye(n) - np.outer(y, g @ y)

            def inner(A, B):
                return np.trace(np.linalg.solve(g, A.T @ g @ B))

            want_K = inner(R[k], M) / inner(M, M)
            rest = R[k] - want_K * M
            want_resid = np.sqrt(max(0.0, inner(rest, rest)))
            scale = max(1.0, float(np.max(np.abs(R[k]))))
            assert abs(K[k] - want_K) <= 1e-12 * scale, (K[k], want_K)
            assert abs(resid[k] - want_resid) <= 1e-10 * scale, (resid[k], want_resid)


def _fit(bu, rng, samples: int = 12):
    """``extract_scalars`` at ``bu`` on the Ric and F^2 of ``samples`` alpha-unit y drawn from ``rng``."""
    ys = finsler.unit_alpha_vectors(bu, samples, rng)
    return extract_scalars(bu, riemann_curvature(spray(bu, ys))[1], metric_value(bu, ys) ** 2)


def test_extract_scalars_example(example_spec):
    rng = np.random.default_rng(9)
    bu = build_bundle(example_spec, example_point(rng))
    fit = _fit(bu, rng)
    assert abs(fit.lam) <= 1e-8 and fit.resid_lambda <= 1e-8
    assert abs(fit.c) <= 1e-10 and fit.resid_c <= 1e-10
    assert abs(fit.sigma) <= 1e-8 and fit.resid_sigma <= 1e-8


def test_extract_scalars_sphere(sphere_spec):
    bu = build_bundle(sphere_spec, np.array([1.3, -0.4]))
    fit = _fit(bu, np.random.default_rng(10))
    assert abs(fit.lam - 1.0) <= 1e-8


def test_extract_scalars_conformal(homothetic_spec):
    bu = build_bundle(homothetic_spec, np.array([0.2, -0.5, 0.7]))
    fit = _fit(bu, np.random.default_rng(11))
    assert abs(fit.c - 0.1) <= 1e-10


def test_extract_scalars_sigma_is_least_squares_over_the_samples(generic_bundle):
    # F is not Einstein here, so sigma depends on every sample: least squares of Ric against F^2
    ys = finsler.unit_alpha_vectors(generic_bundle, 9, np.random.default_rng(5))
    ric, F2 = riemann_curvature(spray(generic_bundle, ys))[1], metric_value(generic_bundle, ys) ** 2
    fit = extract_scalars(generic_bundle, ric, F2)
    want = float(np.linalg.lstsq(F2[:, None], ric, rcond=None)[0][0])
    assert abs(fit.sigma - want) <= 1e-13 * max(1.0, abs(want)), (fit.sigma, want)
    assert abs(fit.resid_sigma - np.max(np.abs(ric - want * F2))) <= 1e-13 * max(1.0, float(np.max(np.abs(ric))))
    assert fit.resid_sigma > 1e-3


@pytest.mark.parametrize("source", ["matsumoto_example", "sphere_round", "euclidean_homothetic", "euclidean_shear", 5])
def test_extract_scalars_against_scalar_jets(source):
    # lambda, c and their residuals against Ricbar(y, y) and r00 from the scalar-jet oracle.
    # In an alpha-orthonormal frame e, T = k a means T(e_i, e_j) = k delta_ij, so k is the mean
    # of the diagonal and the residual the Frobenius norm of the rest (off the diagonal by
    # polarization); and at no alpha-unit y may T(y, y) deviate from k by more than the residual.
    spec = testmetrics.random_metric(source, 21) if isinstance(source, int) else testmetrics.shipped_metric(source)
    rng = np.random.default_rng(4)
    bu = build_bundle(spec, sample_domain(spec, 1, rng, shrink=0.05)[0])
    fit = _fit(bu, rng)
    n = bu.n
    e = np.linalg.inv(np.linalg.cholesky(bu.a)).T  # columns: an alpha-orthonormal frame

    def q(v):
        return np.array(alpha_quadratics(bu, v))

    forms = np.empty((n, n, 2))  # Ricbar and r in the frame
    for i in range(n):
        forms[i, i] = q(e[:, i])
        for j in range(i + 1, n):
            forms[i, j] = forms[j, i] = (q(e[:, i] + e[:, j]) - q(e[:, i] - e[:, j])) / 4.0
    ys = finsler.unit_alpha_vectors(bu, 20, rng)
    for k, (value, resid) in enumerate(((fit.lam, fit.resid_lambda), (fit.c, fit.resid_c))):
        T = forms[..., k]
        scale = max(1.0, float(np.max(np.abs(T))))
        want = float(np.trace(T)) / n
        assert abs(value - want) <= 1e-10 * scale, (k, value, want)
        want_resid = float(np.linalg.norm(T - want * np.eye(n)))
        assert abs(resid - want_resid) <= 1e-10 * scale, (k, resid, want_resid)
        for y in ys:
            got = q(y)[k]
            assert abs(got - value) <= resid + 1e-10 * scale, (k, got, value, resid)


class _Stream:
    """A stand-in generator: ``standard_normal`` hands out the given values in order, in the shape asked for."""

    def __init__(self, values):
        self.values, self.used = np.asarray(values, dtype=float).ravel(), 0

    def standard_normal(self, size):
        count = int(np.prod(size))
        out = self.values[self.used : self.used + count].reshape(size)
        self.used += count
        return out


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_unit_alpha_vectors_match_the_row_loop(n):
    # one draw of the stack gives the loop's rows bit for bit and leaves the stream where it does
    spec = testmetrics.random_metric(n, 60 + n)
    bu = build_bundle(spec, sample_domain(spec, 1, np.random.default_rng(n), shrink=0.05)[0])
    for seed in range(10):
        for count in (1, 2, 12):
            stack, loop = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = finsler.unit_alpha_vectors(bu, count, stack), unit_alpha_vectors_loop(bu, count, loop)
            assert got.tobytes() == want.tobytes()
            assert stack.bit_generator.state == loop.bit_generator.state
    # a row of norm below 1e-8 is dropped and the stack topped up from the stream, in order
    rows = np.random.default_rng(n).standard_normal((8, n))
    rows[[1, 3, 4]] = 1e-10
    stack, loop = _Stream(rows), _Stream(rows)
    got, want = finsler.unit_alpha_vectors(bu, 4, stack), unit_alpha_vectors_loop(bu, 4, loop)
    assert got.tobytes() == want.tobytes() and stack.used == loop.used == 7 * n
    kept = rows[[0, 2, 5, 6]]
    assert np.allclose(got, kept / np.sqrt(np.einsum("mj,jk,mk->m", kept, bu.a, kept))[:, None], rtol=1e-14, atol=0.0)


def _rows_equal(batch, one, k):
    assert batch.shape[1:] == np.shape(one)
    assert np.array_equal(batch[k], one), (k, batch[k] - one)


@pytest.mark.parametrize(
    "source",  # a bundle fixture, a shipped metric, or random_metric(n, 40 + n)
    ["generic_bundle", "example_bundle"] + testmetrics.list_shipped() + [3, 5, 8, 12],
)
def test_batched_y_rows_match_one_y(source, request):
    """Each row of a stacked spray is the one-y spray, bit for bit, and so is each row of its readers.

    Each one-y spray is taken on a fresh bundle of the same point, so the
    stack's bundle cannot serve it from the stack it keeps.  ``at`` forms a
    stack's affine entries with one vector-matrix product per row and every
    later step works row by row, so the values, gradients and Hessian y
    columns of G and Gbar have the bits of the one-y spray, and so do the
    rows of the curvature, the T-split Ricci route, the flag fit's K (given
    the same F) and the bundle's N^i_j and Ricbar.  F and y_flat read no
    spray: closed forms in y, their stacks come from stacked dot products
    that numpy may sum in another order, so they agree to 1e-14, and so
    does the flag residual, which reads y_flat.  (Rows of its own for them
    would move the printed flag residual of shipped metrics.)
    m == n is the case where a per-y scalar broadcast along the component
    axis instead of the y axis would still produce the right shapes.
    """
    rng = np.random.default_rng(16)
    if str(source).endswith("_bundle"):
        bundles = [request.getfixturevalue(source)]
    else:
        spec = testmetrics.random_metric(source, 40 + source) if isinstance(source, int) else testmetrics.shipped_metric(source)
        bundles = [build_bundle(spec, x) for x in sample_domain(spec, 2, rng, shrink=0.05)]
    for bu in bundles:
        n = bu.n
        for m in (1, n, 4 * n):
            ys = np.array([unit_y(bu, rng) for _ in range(m)])
            sp = spray(bu, ys)
            R, ric = riemann_curvature(sp)
            F = metric_value(bu, ys)
            y_flat = _lowered_y(bu, ys, F)
            ric_T = ricci_via_T(sp)
            K, resid = flag_curvature_fit(sp, R, F)
            ricbar = bu.ricbar(ys)
            assert sp.G.val.shape == (m, n)
            assert R.shape == (m, n, n) and ric.shape == (m,) and F.shape == (m,) and y_flat.shape == (m, n)
            assert ric_T.shape == K.shape == resid.shape == ricbar.shape == (m,)
            for k, y in enumerate(ys):
                fresh = build_bundle(bu.spec, bu.x)
                one = spray(fresh, y)
                for batch_jet, one_jet in ((sp.G, one.G), (sp.Gbar, one.Gbar)):
                    for part in ("val", "grad", "hess"):
                        _rows_equal(getattr(batch_jet, part), getattr(one_jet, part), k)
                R1, ric1 = riemann_curvature(one)
                _rows_equal(R, R1, k)
                _rows_equal(ric, ric1, k)
                one_T, (K1, resid1), ricbar1 = ricci_via_T(one), flag_curvature_fit(one, R1, F[k]), fresh.ricbar(y)
                assert all(type(v) is float for v in (one_T, K1, resid1, ricbar1))
                _rows_equal(ric_T, one_T, k)
                _rows_equal(K, K1, k)
                _rows_equal(ricbar, ricbar1, k)
                F1 = metric_value(fresh, y)
                for batch, one_y in ((F, F1), (y_flat, _lowered_y(fresh, y, F1)), (resid, resid1)):
                    assert np.all(np.abs(batch[k] - one_y) <= 1e-14 * np.maximum(1.0, np.abs(one_y)))


def _memo_case(source, m=6):
    """(spec, x, ys): a point of a shipped metric or of random_metric(n, 40 + n), and m alpha-unit y there."""
    spec = testmetrics.random_metric(source, 40 + source) if isinstance(source, int) else testmetrics.shipped_metric(source)
    rng = np.random.default_rng(24)
    x = sample_domain(spec, 1, rng, shrink=0.05)[0]
    return spec, x, finsler.unit_alpha_vectors(build_bundle(spec, x), m, rng)


def _same_spray(got, want):
    """Whether two sprays hold the same bits in every array of G and Gbar."""
    for a, b in ((got.G, want.G), (got.Gbar, want.Gbar)):
        if not all(np.array_equal(u, v) for u, v in ((a.val, b.val), (a.grad, b.grad), (a.hess, b.hess))):
            return False
    return np.array_equal(got.y, want.y)


def _served(one, stack):
    """Whether the one-y spray ``one`` is a row of ``stack``'s arrays, not a spray of its own."""
    return np.shares_memory(one.G.val, stack.G.val) and np.shares_memory(one.Gbar.grad, stack.Gbar.grad)


@pytest.mark.parametrize("source", ["matsumoto_example", "euclidean_shear", 3, 8])
def test_spray_serves_a_row_of_the_last_stack(source):
    """A one-y spray at the bytes of a row of the bundle's last stack is that row: the bits of a fresh bundle's spray."""
    spec, x, ys = _memo_case(source)
    bu = build_bundle(spec, x)
    stack = spray(bu, ys)
    for y in ys:
        one = spray(bu, y)
        assert _served(one, stack)
        assert _same_spray(one, spray(build_bundle(spec, x), y))


@pytest.mark.parametrize("source", ["matsumoto_example", 5])
def test_spray_memo_misses_other_bytes(source):
    """A y one ulp away or with the other sign of a zero is not a row of the last stack; an earlier stack serves none."""
    spec, x, ys = _memo_case(source)
    ys[0, 1] = 0.0
    bu = build_bundle(spec, x)
    stack = spray(bu, ys)
    near = ys[1].copy()
    near[0] = np.nextafter(near[0], np.inf)
    signed = ys[0].copy()
    signed[1] = -0.0
    for y in (near, signed):
        one = spray(bu, y)
        assert not _served(one, stack)
        assert _same_spray(one, spray(build_bundle(spec, x), y))
    assert _served(spray(bu, ys[0]), stack)  # the +0.0 row itself is served

    later = spray(bu, ys[::-1].copy())
    one = spray(bu, ys[2])
    assert _served(one, later) and not _served(one, stack)


def test_spray_memo_keeps_no_bundle_alive(example_spec):
    """With the cycle collector off, a bundle dies once its caller drops it after a stack and a served row."""
    _, x, ys = _memo_case("matsumoto_example")
    gc.disable()
    try:
        bu = build_bundle(example_spec, x)
        ref = weakref.ref(bu)
        stack, one = spray(bu, ys), spray(bu, ys[0])
        assert _served(one, stack)
        del bu, stack, one
        assert ref() is None
    finally:
        gc.enable()


def test_spray_memo_cannot_be_written_through(example_spec):
    """Neither a served row, nor the stack's spray, nor the caller's y stack can change what the memo serves."""
    _, x, ys = _memo_case("matsumoto_example")
    bu, fresh = build_bundle(example_spec, x), build_bundle(example_spec, x)
    want = spray(fresh, ys[0])
    stack = spray(bu, ys.copy())
    stack.y[0] = ys[1]  # the memo keeps its own copy of the stack's y
    one = spray(bu, ys[0])
    assert _served(one, stack) and _same_spray(one, want)
    for jet in (one.G, one.Gbar, stack.G, stack.Gbar):
        for part in (jet.val, jet.grad, jet.hess):
            with pytest.raises(ValueError, match="read-only"):
                part[...] = 0.0
    one.G.val = np.zeros_like(one.G.val)  # rebinds this record's own jet only
    again = spray(bu, ys[0])
    assert _served(again, stack) and _same_spray(again, want)


@pytest.mark.parametrize("y", [[0.0, 0.0, 0.0], [[0.3, -0.5, 0.8], [0.0, 0.0, 0.0]], np.zeros((0, 3))])
def test_spray_rejects_a_zero_or_empty_y(generic_bundle, y):
    with pytest.raises(ValueError, match="y must be a nonzero vector or a nonempty stack"):
        spray(generic_bundle, y)


@pytest.mark.parametrize("source", testmetrics.list_shipped() + [2, 3, 5, 8, 12])  # a shipped metric, or random_metric(n)
def test_spray_is_homogeneous_of_degree_two(source):
    """Euler's relation on the spray's y columns, which needs no oracle.

    G^i is positively homogeneous of degree 2 in y, so with
    D = sum_k y^k d/dy^k: D G = 2 G, D dG/dx^j = 2 dG/dx^j and
    D dG/dy^j = dG/dy^j, at one y and on stacks.
    """
    if isinstance(source, int):
        spec = testmetrics.random_metric(source, 60 + source)
    else:
        spec = testmetrics.shipped_metric(source)
    rng = np.random.default_rng(19)
    worst = 0.0
    for x in sample_domain(spec, 2, rng, shrink=0.05):
        bu = build_bundle(spec, x)
        n = bu.n
        ys = np.array([unit_y(bu, rng) for _ in range(4 * n)])
        for y in (ys[0], ys[:2], ys):
            sp = spray(bu, y)
            # G's component axis sits between the stack axis and the directions
            jet, yb = sp.G, y[..., None, :]
            hxy, hyy = jet.hess[..., :n, -n:], jet.hess[..., n:, -n:]  # the y columns
            pairs = (
                (np.einsum("...k,...k->...", jet.grad[..., n:], yb), 2.0 * jet.val),
                (np.einsum("...jk,...k->...j", hxy, yb), 2.0 * jet.grad[..., :n]),
                (np.einsum("...jk,...k->...j", hyy, yb), jet.grad[..., n:]),
            )
            for lhs, rhs in pairs:
                assert lhs.shape == rhs.shape
                worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)))))
    assert worst <= 1e-12, worst


def _quadratic_jet(q, dq, y):
    """The jet of y^T q y for q symmetric: value, gradient [y^T dq y, 2 q y] and Hessian y columns [2 dq y; 2 q]."""
    qy = np.einsum("...jk,...k->...j", q, y)
    dqy = np.einsum("...jkl,...k->...jl", dq, y)
    grad = np.concatenate([np.einsum("...jl,...j->...l", dqy, y), 2.0 * qy], axis=-1)
    hess = np.concatenate([2.0 * np.swapaxes(dqy, -1, -2), np.broadcast_to(2.0 * q, dqy.shape)], axis=-2)
    return np.einsum("...j,...j->...", qy, y), grad, hess


def _linear_jet(c, dc, y):
    """The jet of c y: value, gradient [dc^T y, c] and Hessian y columns [dc^T; 0]."""
    gx = np.einsum("...jk,...j->...k", dc, y)
    grad = np.concatenate([gx, np.broadcast_to(c, gx.shape)], axis=-1)
    hess = np.concatenate([np.swapaxes(dc, -1, -2), np.zeros_like(dc)], axis=-2)
    return np.einsum("...j,...j->...", c, y), grad, hess


def _same_bits(got, want):
    return np.broadcast_to(want, got.shape).tobytes() == got.tobytes()


def _equal(got, want):
    return np.array_equal(got, np.broadcast_to(want, got.shape))


def _close(got, want):
    want = np.broadcast_to(want, got.shape)
    return bool(np.all(np.abs(got - want) <= 1e-14 * max(1.0, float(np.max(np.abs(want))))))


@pytest.mark.parametrize("source", testmetrics.list_shipped() + [2, 3, 5, 8])  # a shipped metric, or random_metric(n)
def test_spray_input_rows_match_single_forms(source):
    """Each packed input row is the jet of the one form it stands for, written out here.

    The rows follow the table in ``_SprayInputs``.  The forms' values are
    einsums in both, so they agree bit for bit (a stack is evaluated as the
    spray evaluates it, with y of shape (m, 1, n)); the entries that do not
    depend on y are copies and agree exactly; the gradients and x-y blocks
    the inputs take from a matmul agree to rounding.
    """
    if isinstance(source, int):
        spec = testmetrics.random_metric(source, 70 + source)
    else:
        spec = testmetrics.shipped_metric(source)
    rng = np.random.default_rng(18)
    for x in sample_domain(spec, 2, rng, shrink=0.05):
        bu = build_bundle(spec, x)
        n = bu.n
        inputs = _SprayInputs(bu)
        ys = np.array([unit_y(bu, rng) for _ in range(4 * n)])
        for y, yc, lead in ((ys[0], ys[0], lambda a: a), (ys, ys[:, None, :], lambda a: a[:, 0])):
            quadratic = [_quadratic_jet(0.5 * bu.gamma[i], 0.5 * bu.dgamma[i], yc) for i in range(n)]
            quadratic += [_quadratic_jet(bu.a, bu.dA, yc), _quadratic_jet(bu.r, bu.dr, yc)]
            linear = [_linear_jet(bu.b, bu.db, yc), _linear_jet(bu.svec, bu.d_svec, yc)]
            linear += [_linear_jet(-bu.s_up[i], -bu.d_s_up[i], yc) for i in range(n)]
            zero_x = np.zeros(n)
            constant = [(bu.bsq, np.concatenate([bu.d_bsq, zero_x]))]
            constant += [(bu.bup[i], np.concatenate([bu.d_bup[i], zero_x])) for i in range(n)]
            constant += [(y[..., i], np.eye(2 * n)[n + i]) for i in range(n)]
            kinds = ["quadratic"] * (n + 2) + ["constant"] + ["linear"] * (n + 2) + ["constant"] * (2 * n)
            jets = [tuple(map(lead, jet)) for jet in quadratic] + constant[:1]
            jets += [(lead(v), lead(g), h) for v, g, h in linear] + constant[1:]  # h does not depend on y
            assert len(jets) == len(kinds) == 4 * n + 5
            val, grad, hess = inputs.at(y)
            assert val.shape == y.shape[:-1] + (4 * n + 5,) and grad.shape == val.shape + (2 * n,)
            for k, (kind, jet) in enumerate(zip(kinds, jets)):
                v, g = jet[:2]
                if kind == "constant":
                    assert _equal(val[..., k], v) and _equal(grad[..., k, :], g), k
                    continue
                assert _same_bits(val[..., k], v), k
                assert _close(grad[..., k, :], g), k
                if kind == "linear":
                    assert _equal(grad[..., k, n:], g[..., n:]), k
                h = jet[2]
                if kind == "quadratic":
                    assert _close(hess[..., k, :n, :], h[..., :n, :]) and _equal(hess[..., k, n:, :], h[..., n:, :]), k
                elif k < n + 5:  # beta and s0
                    assert _equal(hess[..., k, :, :], h), k
                else:  # -s^i_0, whose Hessian does not depend on y
                    assert _equal(inputs.si0_xy[k - n - 5], h[..., :n, :]) and not h[..., n:, :].any(), k
            assert not hess[..., n + 2, :, :].any()  # b^2's, truncated


def _flag_fit(bu, y):
    sp = spray(bu, y)
    return flag_curvature_fit(sp, riemann_curvature(sp)[0], metric_value(bu, y))


def test_flag_fit_euclidean_zero():
    bu = build_bundle(euclidean(3), np.zeros(3))
    K, res = _flag_fit(bu, np.array([0.3, -0.9, 0.4]))
    assert K == 0.0 and res == 0.0


def test_flag_fit_sphere_unit(sphere_spec):
    bu = build_bundle(sphere_spec, np.array([1.1, 0.4]))
    K, res = _flag_fit(bu, np.array([0.3, 0.7]))
    assert abs(K - 1.0) <= 1e-7
    assert res <= 1e-7


def test_flag_fit_example_not_constant(example_spec):
    # the example's alpha is Ricci-flat yet curved, so the deformed metric is
    # Ricci-flat WITHOUT constant flag curvature: K fits near 0 but the
    # tensor residual stays order one
    rng = np.random.default_rng(12)
    bu = build_bundle(example_spec, example_point(rng))
    y = unit_y(bu, rng)
    K, res = _flag_fit(bu, y)
    assert abs(K) < 0.1
    assert res > 1e-3


def test_finsler_eval_record(generic_bundle):
    y = np.array([0.6, -0.2, 0.5])
    sp = spray(generic_bundle, y)
    R, ric = riemann_curvature(sp)
    T = sp.G - sp.Gbar
    assert sp.bundle is generic_bundle and np.array_equal(sp.y, y)
    assert ric == np.trace(R)
    assert np.allclose(sp.G.val - T.val, gbar(generic_bundle, y), atol=1e-14)
    assert T.grad.shape == (3, 6)


def test_deformation_matches_conformal_closed_form(homothetic_spec):
    # With r00 = c alpha^2 and s == 0 the deformation field collapses to
    #   T^i = -c alpha^3/(3 beta - (2b^2+1) alpha) b^i
    #         + c alpha (4 beta - alpha)/(2 (3 beta - (2b^2+1) alpha)) y^i.
    # A variant with the b^i term tripled circulates; this pins down the
    # untripled form as the one the spray actually produces.
    bu = build_bundle(homothetic_spec, np.array([0.4, -0.1, 0.6]))
    rng = np.random.default_rng(13)
    c = 0.1
    for _ in range(5):
        y = unit_y(bu, rng)
        al = alpha(bu, y)
        be = float(bu.b @ y)
        sp = spray(bu, y)
        T = (sp.G - sp.Gbar).val
        denom = 3 * be - (2 * bu.bsq + 1) * al
        expected = -c * al**3 / denom * bu.bup + c * al * (4 * be - al) / (2 * denom) * y
        assert np.max(np.abs(T - expected)) <= 1e-12
        tripled = -3 * c * al**3 / denom * bu.bup + c * al * (4 * be - al) / (2 * denom) * y
        assert np.max(np.abs(T - tripled)) > 1e-3


def test_flag_curvature_degree_zero(generic_bundle):
    rng = np.random.default_rng(14)
    y = unit_y(generic_bundle, rng)
    K1, _ = _flag_fit(generic_bundle, y)
    K2, _ = _flag_fit(generic_bundle, 2 * y)
    assert abs(K1 - K2) <= 1e-10 * max(1.0, abs(K1))
