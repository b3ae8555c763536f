"""The deformed (slope-type) metric layer: F = alpha^2 / (alpha - beta).

Builds the spray coefficients G^i at a point (x, y), with their exact
derivatives over the 2n chart+fiber directions, from the closed rational
form specific to this phi, evaluated on array jets (``ArrayJet``).  Each
input (alpha^2, beta, r00, s0, s^i_0, Gbar^i, b^2, b^i, y) is a constant,
linear or quadratic function of y whose x-dependent coefficients and first
x-derivatives the bundle holds, so its jet is written down in closed form.
The three quadratic inputs (alpha^2, r00, Gbar^i) are one stacked jet over
the forms [a; r; Gamma/2], and the three linear ones (beta, s0, s^i_0) one
over [b; s_j; s^i_j]: a spray evaluates two input jets, not six, and reads
each input as a row view of its stack, the same bits as its own jet.
The generic (alpha, beta) spray, with Q, Psi and Theta computed from
phi(s) = 1/(1 - s) in scalar jets, is the test suite's oracle for it
(``tests/oracles.py``).

y may carry a leading axis: ``spray``, ``riemann_curvature``,
``metric_value`` and ``fundamental_tensor`` take one fiber vector, shape
(n,), or a stack of m of them, shape (m, n), and their results then carry
the same leading m axis.  The one-y call is the m-less case of the same
code.  The input jets' y-independent blocks are built once per bundle, on
the first spray there, and kept on it (``bundle.spray_inputs``).
``extract_scalars`` evaluates its whole fit design as one stack.

The spray has a derivative ``order``, set by what its caller reads.  The
curvature, the T-split Ricci route, the flag fit and the fundamental tensor
read second derivatives, so they take the default order 2.  The
S-curvature definition reads only dG^i/dy^i and asks for order 1: G and
Gbar then come back as order-1 jets (no Hessian is formed) and F^2 is not
formed at all.  Both orders run the same code on the same cached inputs,
and the values and gradients of G and Gbar are the same bits at both.

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

    Each field is an array jet over the 2n chart+fiber directions
    (x^1..x^n, then y^1..y^n): ``G`` = G^i and ``Gbar`` = Gbar^i, the spray
    of alpha, both of shape (n,), and the scalar ``F2`` = F^2.  For a stack
    of m y the shapes are (m, n) and (m,).  At order 2 (the default) they
    are order-2 jets, whose pure x-x second derivatives would need third
    derivatives of the metric; those are truncated and no formula reads
    them.  At order 1, ``G`` and ``Gbar`` are order-1 jets and ``F2`` is
    None.
    """

    G: ArrayJet
    Gbar: ArrayJet
    F2: ArrayJet | None

    def blocks(self):
        """(G, dG/dx, dG/dy, d2G/dx dy, d2G/dy dy), the blocks the curvature reads.

        Index order: ``gx[i, k]`` = dG^i/dx^k, ``hxy[i, j, k]`` = d2G^i/dx^j dy^k,
        after the leading y axis of a stack.
        """
        return _blocks(self.G)


def _blocks(jet: ArrayJet):
    n = jet.grad.shape[-1] // 2
    return jet.val, jet.grad[..., :n], jet.grad[..., n:], jet.hess[..., :n, n:], jet.hess[..., n:, n:]


# Array-jet inputs of the spray.  ``dc`` carries the coefficients'
# first x-derivatives with the derivative direction last; y-derivatives are
# exact, the x-x Hessian is zero (truncated).  Every block that does not
# depend on y is built once per bundle (``_SprayInputs``).  The leading axes
# of the coefficients stack several forms; ``y`` has shape (n,), or (m, 1, n)
# for a stack of m, whose unit axis broadcasts against the form axis.


class _Linear:
    """sum_j c[..., j] y^j.  Its Hessian does not depend on y."""

    def __init__(self, c: np.ndarray, dc: np.ndarray):
        n = c.shape[-1]
        self.c, self.dc = c, dc
        self.hess = np.zeros(c.shape[:-1] + (2 * n, 2 * n))
        self.hess[..., :n, n:] = np.swapaxes(dc, -1, -2)
        self.hess[..., n:, :n] = dc

    def jet(self, y: np.ndarray, order: int) -> ArrayJet:
        n = y.shape[-1]
        gx = np.einsum("...jk,...j->...k", self.dc, y)
        grad = np.empty(gx.shape[:-1] + (2 * n,))
        grad[..., :n] = gx
        grad[..., n:] = self.c
        return ArrayJet(np.einsum("...j,...j->...", self.c, y), grad, None if order == 1 else self.hess)


class _Quadratic:
    """sum_jk q[..., j, k] y^j y^k for q symmetric in (j, k).  Its y-y Hessian is 2q."""

    def __init__(self, q: np.ndarray, dq: np.ndarray):
        n = q.shape[-1]
        self.q, self.dq = q, dq
        self.hess = np.zeros(q.shape[:-2] + (2 * n, 2 * n))
        self.hess[..., n:, n:] = 2.0 * q

    def jet(self, y: np.ndarray, order: int) -> ArrayJet:
        n = y.shape[-1]
        qy = np.einsum("...jk,...k->...j", self.q, y)
        dqy = np.einsum("...jkl,...k->...jl", self.dq, y)
        grad = np.empty(qy.shape[:-1] + (2 * n,))
        grad[..., :n] = np.einsum("...jl,...j->...l", dqy, y)
        grad[..., n:] = 2.0 * qy
        val = np.einsum("...j,...j->...", qy, y)
        if order == 1:
            return ArrayJet(val, grad, None)
        dqy2 = 2.0 * dqy
        hess = np.empty(qy.shape[:-1] + (2 * n, 2 * n))
        hess[...] = self.hess  # the zero x-x and the 2q y-y blocks
        hess[..., :n, n:] = np.swapaxes(dqy2, -1, -2)
        hess[..., n:, :n] = dqy2
        return ArrayJet(val, grad, hess)


def _field(v, dv: np.ndarray) -> ArrayJet:
    """An x-dependent field, constant in y."""
    n = dv.shape[-1]
    lead = dv.shape[:-1]
    grad = np.zeros(lead + (2 * n,))
    grad[..., :n] = dv
    return ArrayJet(v, grad, np.zeros(lead + (2 * n, 2 * n)))


class _SprayInputs:
    """The spray's inputs at one bundle, as two stacked jets and two fields.

    ``quad`` stacks the quadratic forms [a; r; Gamma/2], whose jets are
    alpha^2, r00 and Gbar^i = Gamma^i_jk y^j y^k / 2; ``lin`` stacks the
    linear forms [b; s_j; s^i_j], whose jets are beta, s0 and s^i_0.  Each
    stack has n + 2 rows, so one evaluation of each gives all six inputs
    (vector mode, as ``ArrayJet`` itself), and ``jets`` hands them out as
    row views.  Every row is the same bits as the jet of its own form.
    """

    def __init__(self, bundle: AlphaBetaBundle):
        n = bundle.n
        # y^i itself: only its value depends on y
        self.y_grad = np.eye(n, 2 * n, n)
        self.y_hess = np.zeros((n, 2 * n, 2 * n))
        self.quad = _Quadratic(
            np.concatenate([bundle.a[None], bundle.r[None], 0.5 * bundle.gamma]),
            np.concatenate([bundle.dA[None], bundle.dr[None], 0.5 * bundle.dgamma]),
        )
        self.lin = _Linear(
            np.concatenate([bundle.b[None], bundle.svec[None], bundle.s_up]),
            np.concatenate([bundle.db[None], bundle.d_svec[None], bundle.d_s_up]),
        )
        self.bup = _field(bundle.bup, bundle.d_bup)
        self.bsq = _field(bundle.bsq, bundle.d_bsq)

    def jets(self, y: np.ndarray, order: int):
        """(alpha^2, r00, Gbar^i, beta, s0, s^i_0) at ``y``, shape (n,) or (m, n).

        A scalar input is 0-d at one y and (m, 1) at a stack of m, so that
        it broadcasts along the y axis against an (m, n) vector input.
        """
        stack = y.shape[:-1]
        yc = y.reshape(stack + (1,) * len(stack) + y.shape[-1:])
        quad, lin = self.quad.jet(yc, order), self.lin.jet(yc, order)
        # an integer index keeps a one-y row 0-d; a unit slice keeps a stack's row broadcastable
        first, second = (slice(0, 1), slice(1, 2)) if stack else (0, 1)
        rest = slice(2, None)
        return tuple(_rows(jet, key) for jet in (quad, lin) for key in (first, second, rest))


def _rows(jet: ArrayJet, key) -> ArrayJet:
    """Rows ``key`` of a stacked input jet, as views; the stack axis is the last leading one."""
    hess = None if jet.hess is None else jet.hess[..., key, :, :]
    return ArrayJet(jet.val[..., key], jet.grad[..., key, :], hess)


def spray(bundle: AlphaBetaBundle, y, order: int = 2) -> Spray:
    """Spray coefficients G^i at (x, y) with their exact derivatives, as a ``Spray``.

    ``y`` is one fiber vector, shape (n,), or a stack of m of them, shape
    (m, n); the ``Spray`` then carries the same leading m axis.  ``order``
    is the highest derivative order the caller reads: at 2 the ``Spray``
    holds order-2 jets of G, Gbar and F^2; at 1 it holds order-1 jets of G
    and Gbar, with the same values and gradients, and no F^2.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    y = np.asarray(y, dtype=float)
    if not y.any(axis=-1).all():
        raise ValueError("y must be nonzero")
    inp = bundle.spray_inputs
    if inp is None:
        inp = bundle.spray_inputs = _SprayInputs(bundle)
    alpha2, r00, gbar, beta, s0, si0 = inp.jets(y, order)
    alpha = alpha2.sqrt()
    bup, bsq = inp.bup, inp.bsq
    yJ = ArrayJet(y, inp.y_grad, inp.y_hess)
    # each distinct denominator -- alpha, 2s - 1, 3s - 2b^2 - 1, 1 - s -- is inverted once
    inv_alpha = alpha.reciprocal()
    sj = beta * inv_alpha
    inv1 = (2.0 * sj - 1.0).reciprocal()
    inv2 = (3.0 * sj - 2.0 * bsq - 1.0).reciprocal()
    lead = alpha * inv1  # alpha / (2s - 1)
    common = (2.0 * lead) * s0 + r00
    coef_b = -(common * inv2)
    coef_y = ((4.0 * sj - 1.0) * (0.5 * inv2)) * common * inv_alpha

    G = gbar - lead * si0 + coef_b * bup + coef_y * yJ
    if order == 1:
        return Spray(G=G, Gbar=gbar, F2=None)
    F = alpha * (1.0 - sj).reciprocal()  # alpha^2 / (alpha - beta)
    F2 = F * F
    d, stack = 2 * bundle.n, y.shape[:-1]
    F2 = ArrayJet(F2.val.reshape(stack), F2.grad.reshape(stack + (d,)), F2.hess.reshape(stack + (d, d)))
    return Spray(G=G, Gbar=gbar, F2=F2)


def riemann_curvature(bundle: AlphaBetaBundle, y, G=None):
    """Riemann curvature operator R^i_k of F and its trace Ric at (x, y).

    R^i_k = 2 dG^i/dx^k - y^j d2G^i/dx^j dy^k + 2 G^j d2G^i/dy^j dy^k
            - dG^i/dy^j dG^j/dy^k.

    For a stack of y, shape (m, n), R has shape (m, n, n) and Ric (m,).
    """
    y = np.asarray(y, dtype=float)
    if G is None:
        G = spray(bundle, y)
    gval, gx, gy, hxy, hyy = G.blocks()
    R = 2.0 * gx - np.einsum("...j,...ijk->...ik", y, hxy) + 2.0 * np.einsum("...j,...ijk->...ik", gval, hyy) - gy @ gy
    return R, np.trace(R, axis1=-2, axis2=-1)


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


def metric_value(bundle: AlphaBetaBundle, y):
    """F(x, y) = alpha^2 / (alpha - beta), for one y or a stack of them."""
    y = np.asarray(y, dtype=float)
    al = np.sqrt(np.einsum("...j,jk,...k->...", y, bundle.a, y))
    return al * al / (al - y @ bundle.b)


def fundamental_tensor(bundle: AlphaBetaBundle, y, G=None) -> np.ndarray:
    """g_ij = 1/2 [F^2]_{y^i y^j}, from the exact fiber Hessian of the F^2 jet."""
    if G is None:
        G = spray(bundle, y)
    n = bundle.n
    return 0.5 * G.F2.hess[..., n:, n:]


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
    unit = 1.0 / np.sqrt(np.diag(bundle.a))  # 1 / alpha(e_i)
    axes = np.zeros((2 * n, n))
    i = np.arange(n)
    axes[2 * i, i] = unit
    axes[2 * i + 1, i] = -unit
    return np.vstack([axes, unit_alpha_vectors(bundle, 2 * n, rng)])


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
    the fiber.  Residuals are max absolute deviations of the fitted relation
    over the sample set.  The whole design goes through one spray and one
    curvature evaluation, as a stack.
    """
    ys = _design_vectors(bundle, rng)
    ricbars = np.einsum("mj,jk,mk->m", ys, bundle.ricci_tensor, ys)
    r00s = np.einsum("mj,jk,mk->m", ys, bundle.r, ys)
    alphas2 = np.einsum("mj,jk,mk->m", ys, bundle.a, ys)
    _, rics = riemann_curvature(bundle, ys)
    F2 = metric_value(bundle, ys) ** 2

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
