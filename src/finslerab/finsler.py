"""The deformed (slope-type) metric layer: F = alpha^2 / (alpha - beta).

Builds the spray coefficients G^i at a point (x, y), with their exact
derivatives over the 2n chart+fiber directions, from the closed rational
form specific to this phi, evaluated on array jets (``ArrayJet``).  Each
input (alpha^2, beta, r00, s0, s^i_0, Gbar^i, b^2, b^i, y) is a constant,
linear or quadratic function of y whose x-dependent coefficients and first
x-derivatives the bundle holds, so its jet is written down in closed form.
The generic (alpha, beta) spray, with Q, Psi and Theta computed from
phi(s) = 1/(1 - s) in scalar jets, is the test suite's oracle for it
(``tests/oracles.py``).

From the ``Spray`` record the Riemann curvature operator, its trace, the
deformation field T^i = G^i - Gbar^i, the fundamental tensor and
constant-scalar fits (lambda, c, sigma, flag curvature K) all follow.  The
curvature is also computed a second way, through the deformation-field
identity relating Ric to the Ricci curvature of alpha; agreement of the two
routes is the engine's strongest self-check and is asserted in the test
suite rather than here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import ArrayJet
from .riemann import AlphaBetaBundle

__all__ = [
    "ScalarFit",
    "Spray",
    "spray",
    "riemann_curvature",
    "ricci_via_T",
    "fundamental_tensor",
    "extract_scalars",
    "flag_curvature_fit",
    "unit_alpha_vectors",
]


# -- spray --------------------------------------------------------------------


@dataclass
class Spray:
    """The spray of F at one (x, y).

    Each field is an order-2 array jet over the 2n chart+fiber directions
    (x^1..x^n, then y^1..y^n): ``G`` = G^i and ``Gbar`` = Gbar^i, the spray
    of alpha, both of shape (n,), and the scalar ``F2`` = F^2.  Their pure
    x-x second derivatives would need third derivatives of the metric; they
    are truncated and no formula reads them.
    """

    G: ArrayJet
    Gbar: ArrayJet
    F2: ArrayJet

    def blocks(self):
        """(G, dG/dx, dG/dy, d2G/dx dy, d2G/dy dy), the blocks the curvature reads.

        Index order: ``gx[i, k]`` = dG^i/dx^k, ``hxy[i, j, k]`` = d2G^i/dx^j dy^k.
        """
        return _blocks(self.G)


def _blocks(jet: ArrayJet):
    n = jet.grad.shape[-1] // 2
    return jet.val, jet.grad[..., :n], jet.grad[..., n:], jet.hess[..., :n, n:], jet.hess[..., n:, n:]


# Array-jet inputs of the spray.  ``dc`` carries the coefficients'
# first x-derivatives with the derivative direction last; y-derivatives are
# exact, the x-x Hessian is zero (truncated).


def _linear(c: np.ndarray, dc: np.ndarray, y: np.ndarray) -> ArrayJet:
    """sum_j c[..., j] y^j."""
    n = y.size
    lead = c.shape[:-1]
    grad = np.empty(lead + (2 * n,))
    grad[..., :n] = np.einsum("...jk,j->...k", dc, y)
    grad[..., n:] = c
    hess = np.zeros(lead + (2 * n, 2 * n))
    hess[..., :n, n:] = np.swapaxes(dc, -1, -2)
    hess[..., n:, :n] = dc
    return ArrayJet(c @ y, grad, hess)


def _quadratic(q: np.ndarray, dq: np.ndarray, y: np.ndarray) -> ArrayJet:
    """sum_jk q[..., j, k] y^j y^k for q symmetric in (j, k)."""
    n = y.size
    lead = q.shape[:-2]
    qy = q @ y
    dqy = np.einsum("...jkl,k->...jl", dq, y)
    grad = np.empty(lead + (2 * n,))
    grad[..., :n] = dqy.swapaxes(-1, -2) @ y
    grad[..., n:] = 2.0 * qy
    hess = np.zeros(lead + (2 * n, 2 * n))
    hess[..., :n, n:] = 2.0 * np.swapaxes(dqy, -1, -2)
    hess[..., n:, :n] = 2.0 * dqy
    hess[..., n:, n:] = 2.0 * q
    return ArrayJet(qy @ y, grad, hess)


def _field(v, dv: np.ndarray) -> ArrayJet:
    """An x-dependent field, constant in y."""
    n = dv.shape[-1]
    lead = dv.shape[:-1]
    grad = np.zeros(lead + (2 * n,))
    grad[..., :n] = dv
    return ArrayJet(v, grad, np.zeros(lead + (2 * n, 2 * n)))


def spray(bundle: AlphaBetaBundle, y) -> Spray:
    """Spray coefficients G^i at (x, y) with their exact derivatives, as a ``Spray``."""
    y = np.asarray(y, dtype=float)
    if not np.any(y):
        raise ValueError("y must be nonzero")
    n = bundle.n
    yJ = _linear(np.eye(n), np.zeros((n, n, n)), y)
    alpha2 = _quadratic(bundle.a, bundle.dA, y)
    alpha = alpha2.sqrt()
    beta = _linear(bundle.b, bundle.db, y)
    r00 = _quadratic(bundle.r, bundle.dr, y)
    s0 = _linear(bundle.svec, bundle.d_svec, y)
    si0 = _linear(bundle.s_up, bundle.d_s_up, y)
    gbar = 0.5 * _quadratic(bundle.gamma, bundle.dgamma, y)
    bup = _field(bundle.bup, bundle.d_bup)
    bsq = _field(bundle.bsq, bundle.d_bsq)
    sj = beta / alpha

    den1 = 2.0 * sj - 1.0
    den2 = 3.0 * sj - 2.0 * bsq - 1.0
    common = (2.0 * alpha / den1) * s0 + r00
    lead = -(alpha / den1)
    coef_b = -(common / den2)
    coef_y = ((4.0 * sj - 1.0) / (2.0 * den2)) * common / alpha

    G = gbar + lead * si0 + coef_b * bup + coef_y * yJ
    F = alpha2 / (alpha - beta)
    return Spray(G=G, Gbar=gbar, F2=F * F)


def riemann_curvature(bundle: AlphaBetaBundle, y, G=None):
    """Riemann curvature operator R^i_k of F and its trace Ric at (x, y).

    R^i_k = 2 dG^i/dx^k - y^j d2G^i/dx^j dy^k + 2 G^j d2G^i/dy^j dy^k
            - dG^i/dy^j dG^j/dy^k.
    """
    y = np.asarray(y, dtype=float)
    if G is None:
        G = spray(bundle, y)
    gval, gx, gy, hxy, hyy = G.blocks()
    R = 2.0 * gx - np.einsum("j,ijk->ik", y, hxy) + 2.0 * np.einsum("j,ijk->ik", gval, hyy) - gy @ gy
    ric = float(np.trace(R))
    return R, ric


def ricci_via_T(bundle: AlphaBetaBundle, y, G=None) -> float:
    """Ricci curvature through the deformation field T^i = G^i - Gbar^i.

    Ric = Ricbar + 2 T^k_|k - y^j T^k_.k|j + 2 T^j T^k_.j.k - T^k_.j T^j_.k,
    with | and . the horizontal/vertical derivatives of alpha.  Entirely
    different bookkeeping from the direct curvature trace, hence a strong
    cross-check on both.
    """
    y = np.asarray(y, dtype=float)
    if G is None:
        G = spray(bundle, y)
    tval, tx, ty, txy, tyy = _blocks(G.G - G.Gbar)

    nconn = bundle.nonlinear_connection(y)
    gamma = bundle.gamma
    # T^k_|k = dT^k/dx^k - N^m_k dT^k/dy^m + T^m Gamma^k_mk
    t_div = (
        float(np.trace(tx))
        - float(np.einsum("mk,km->", nconn, ty))
        + float(np.einsum("m,kmk->", tval, gamma))
    )
    # f = T^k_.k is a scalar on the slit tangent bundle: f_|j = df/dx^j - N^m_j df/dy^m
    f_x = np.einsum("kjk->j", txy)
    f_y = np.einsum("kmk->m", tyy)
    t_trace_cov = float(y @ (f_x - nconn.T @ f_y))
    term3 = 2.0 * float(np.einsum("j,kjk->", tval, tyy))
    term4 = float(np.einsum("kj,jk->", ty, ty))
    return bundle.ricbar(y) + 2.0 * t_div - t_trace_cov + term3 - term4


def metric_value(bundle: AlphaBetaBundle, y) -> float:
    """F(x, y) = alpha^2 / (alpha - beta)."""
    al = bundle.alpha(y)
    return al * al / (al - bundle.beta(y))


def fundamental_tensor(bundle: AlphaBetaBundle, y, G=None) -> np.ndarray:
    """g_ij = 1/2 [F^2]_{y^i y^j}, from the exact fiber Hessian of the F^2 jet."""
    if G is None:
        G = spray(bundle, y)
    n = bundle.n
    return 0.5 * G.F2.hess[n:, n:]


# -- scalar extraction --------------------------------------------------------


def unit_alpha_vectors(bundle: AlphaBetaBundle, count: int, rng) -> np.ndarray:
    """Random y-samples normalized to alpha(x, y) = 1."""
    out = np.empty((count, bundle.n))
    for i in range(count):
        v = rng.standard_normal(bundle.n)
        while np.linalg.norm(v) < 1e-8:
            v = rng.standard_normal(bundle.n)
        out[i] = v / bundle.alpha(v)
    return out


def _design_vectors(bundle: AlphaBetaBundle, rng) -> np.ndarray:
    """Fit design: the 2n signed axis directions plus 2n random ones, alpha-normalized."""
    n = bundle.n
    axes = []
    for i in range(n):
        for sgn in (1.0, -1.0):
            e = np.zeros(n)
            e[i] = sgn
            axes.append(e / bundle.alpha(e))
    rand = unit_alpha_vectors(bundle, 2 * n, rng)
    return np.vstack([np.array(axes), rand])


@dataclass
class ScalarFit:
    """Least-squares fits of the pointwise Einstein/conformal scalars."""

    lam: float
    c: float
    sigma: float
    resid_lambda: float
    resid_c: float
    resid_sigma: float


def extract_scalars(bundle: AlphaBetaBundle, rng) -> ScalarFit:
    """Fit Ricbar = lambda alpha^2, r00 = c alpha^2, Ric = sigma F^2 over y-samples.

    The samples are the fit design drawn from ``rng``, alpha-normalized so
    the alpha^2 design column is 1 and the lambda/c fits reduce to means;
    the sigma fit is least squares against F^2 which genuinely varies over
    the fiber.  Residuals are max absolute
    deviations of the fitted relation over the sample set.
    """
    ys = _design_vectors(bundle, rng)
    ricbars = np.array([bundle.ricbar(y) for y in ys])
    r00s = np.array([float(y @ bundle.r @ y) for y in ys])
    alphas2 = np.array([bundle.alpha2(y) for y in ys])
    rics = np.empty(len(ys))
    F2 = np.empty(len(ys))
    for i, y in enumerate(ys):
        _, rics[i] = riemann_curvature(bundle, y)
        F2[i] = metric_value(bundle, y) ** 2

    lam = float(ricbars @ alphas2 / (alphas2 @ alphas2))
    c = float(r00s @ alphas2 / (alphas2 @ alphas2))
    sig = float(rics @ F2 / (F2 @ F2))
    return ScalarFit(
        lam=lam,
        c=c,
        sigma=sig,
        resid_lambda=float(np.max(np.abs(ricbars - lam * alphas2))),
        resid_c=float(np.max(np.abs(r00s - c * alphas2))),
        resid_sigma=float(np.max(np.abs(rics - sig * F2))),
    )


def flag_curvature_fit(bundle: AlphaBetaBundle, y, G=None, R=None):
    """Least-squares K in R^i_k = K (F^2 delta^i_k - y^i y_k), y_k = g_kj y^j.

    Returns (K, residual) with residual the max-entry deviation of the fit.
    ``G`` and ``R`` are the spray and curvature operator at (x, y) when the
    caller already has them.
    """
    y = np.asarray(y, dtype=float)
    if G is None:
        G = spray(bundle, y)
    if R is None:
        R, _ = riemann_curvature(bundle, y, G=G)
    g = fundamental_tensor(bundle, y, G=G)
    F = metric_value(bundle, y)
    ylow = g @ y
    M = F * F * np.eye(bundle.n) - np.outer(y, ylow)
    denom = float(np.sum(M * M))
    if denom < 1e-300:
        raise ValueError("degenerate flag tensor (y = 0?)")
    K = float(np.sum(R * M) / denom)
    resid = float(np.max(np.abs(R - K * M)))
    return K, resid
