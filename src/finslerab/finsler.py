"""The deformed (slope-type) metric layer: F = alpha^2 / (alpha - beta).

Builds the spray coefficients G^i at a point (x, y), with their exact
derivatives over the 2n chart+fiber directions, from the closed rational
form specific to this phi.  Each input (alpha^2, beta, r00, s0, s^i_0,
Gbar^i, b^2, b^i, y) is a constant, linear or quadratic function of y whose
x-dependent coefficients and first x-derivatives the bundle holds, so its
array jet (``ArrayJet``) is written down in closed form.  The three
quadratic inputs (alpha^2, r00, Gbar^i) are one stacked jet over the forms
[a; r; Gamma/2], and the three linear ones (beta, s0, s^i_0) one over
[b; s_j; s^i_j]: a spray evaluates two input jets, not six, and reads each
input as a row view of its stack, the same bits as its own jet.

The spray is G^i = Gbar^i - L s^i_0 + C_b b^i + C_y y^i, whose four scalar
coefficients L, C_b, C_y and F^2 depend on u = (alpha^2, beta, r00, s0,
b^2) alone.  Their values, Jacobian and Hessian over u are written out in
closed form on plain numbers and pushed through the inputs' jets in one
step, grad c = J grad u and hess c = J . hess u + grad u^T H grad u
(preaccumulation of local derivatives), and the three vector terms are
combined by one product rule: no jet operation runs on the chain between
the inputs and G.  ``tools/rederive_spray_partials.py`` checks the closed
forms against sympy.  The generic (alpha, beta) spray, with Q, Psi and
Theta computed from phi(s) = 1/(1 - s) in scalar jets, is the test suite's
oracle for the whole spray (``tests/oracles.py``).

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

import math
from dataclasses import dataclass

import numpy as np

from .jets import _TINY, ArrayJet, JetError
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
    derivatives of the metric.  That block stays truncated: ``Gbar``'s is
    zero, and ``G``'s and ``F2``'s hold only the products of first
    derivatives that the push-forward of the coefficients puts there.  No
    formula reads it.  At order 1, ``G`` and ``Gbar`` are order-1 jets and
    ``F2`` is None.
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


class _SprayInputs:
    """The spray's inputs at one bundle: two stacked jets and the fields' gradients.

    ``quad`` stacks the quadratic forms [a; r; Gamma/2], whose jets are
    alpha^2, r00 and Gbar^i = Gamma^i_jk y^j y^k / 2; ``lin`` stacks the
    linear forms [b; s_j; s^i_j], whose jets are beta, s0 and s^i_0.  Each
    stack has n + 2 rows, so one evaluation of each gives all six inputs
    (vector mode, as ``ArrayJet`` itself), and ``jets`` hands them out as
    row views.  Every row is the same bits as the jet of its own form.
    The spray takes the four scalar rows as the jets of u, the arguments of
    its coefficients, and pushes the coefficients' partials through them.

    The y-independent inputs need no jet: ``bsq_grad`` is the gradient of
    b^2, and ``vector_grads[i]`` holds the gradients of b^i and of y^i
    itself, the two vector inputs besides s^i_0.  The Hessians of all three
    are zero (b's x-x block is truncated), so the spray reads none.
    """

    def __init__(self, bundle: AlphaBetaBundle):
        n = bundle.n
        self.quad = _Quadratic(
            np.concatenate([bundle.a[None], bundle.r[None], 0.5 * bundle.gamma]),
            np.concatenate([bundle.dA[None], bundle.dr[None], 0.5 * bundle.dgamma]),
        )
        self.lin = _Linear(
            np.concatenate([bundle.b[None], bundle.svec[None], bundle.s_up]),
            np.concatenate([bundle.db[None], bundle.d_svec[None], bundle.d_s_up]),
        )
        self.bsq_grad = np.concatenate([bundle.d_bsq, np.zeros(n)])
        self.vector_grads = np.zeros((n, 2, 2 * n))
        self.vector_grads[:, 0, :n] = bundle.d_bup
        self.vector_grads[:, 1, n:] = np.eye(n)

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


# -- the spray's scalar coefficients ------------------------------------------
#
# G^i = Gbar^i - L s^i_0 + C_b b^i + C_y y^i, and the scalars L, C_b, C_y and
# F^2 are functions of u = (alpha^2, beta, r00, s0, b^2) alone:
#
#   L = alpha^2 / P,  C_b = -alpha K / Q,  C_y = (4 beta - alpha) K / (2 alpha Q),
#   F^2 = alpha^4 / (alpha - beta)^2,  K = r00 + 2 L s0,
#
# with P = 2 beta - alpha and Q = 3 beta - (2 b^2 + 1) alpha.  Their partials
# over u are written out below in s = beta / alpha and the reciprocals of
# alpha, 2s - 1, 3s - 2b^2 - 1 and 1 - s, and pushed through the inputs'
# jets in one step (preaccumulation of local derivatives: Griewank &
# Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 10).  The
# expressions use arithmetic operators only, so they run on Python floats at
# one y and on (m, 1) arrays at a stack of m.
# ``tools/rederive_spray_partials.py`` checks them against sympy.

# Above this alpha^2 the jet sqrt raises nowhere; below it, its own checks decide.
_SQRT_SAFE = 1e-200


def _coefficient_partials(alpha2, beta, r00, s0, bsq, order: int):
    """(values, jacobian[, hessian]) of the spray's scalar coefficients over u.

    u = (alpha^2, beta, r00, s0, b^2).  At order 1 the coefficients are
    (L, C_b, C_y): ``values`` is a list of 3 and ``jacobian`` a 3 x 5
    nested list.  At order 2 F^2 is the fourth, and ``hessian`` lists for
    each coefficient the 15 entries of the upper triangle of its Hessian,
    row by row (``_UPPER`` maps (i, j) to the place of d2/du_i du_j).  The
    first three values and Jacobian rows are the same expressions at both
    orders.  Raises ``JetError`` where the jet chain did: alpha^2 outside
    the domain of the jet sqrt, or 2s - 1, 3s - 2b^2 - 1 or (at order 2)
    1 - s of magnitude below ``_TINY``.
    """
    if not _everywhere((alpha2 > _SQRT_SAFE) & (alpha2 < math.inf)):
        # raises exactly where, and as, the jet sqrt of alpha^2 does
        ArrayJet(alpha2, np.zeros(np.shape(alpha2) + (1,)), None).sqrt()
    a = alpha2**0.5
    ia = 1.0 / a
    s = beta * ia  # finite, as alpha^2 is
    d1 = 2.0 * s - 1.0
    d2 = 3.0 * s - 2.0 * bsq - 1.0
    nonzero = (abs(d1) >= _TINY) & (abs(d2) >= _TINY)
    if order == 2:
        d3 = 1.0 - s
        nonzero = nonzero & (abs(d3) >= _TINY)
    if not _everywhere(nonzero):
        raise JetError("division by zero jet")
    i1 = 1.0 / d1
    i2 = 1.0 / d2
    w = 4.0 * s - 1.0
    L = a * i1
    K = (2.0 * L) * s0 + r00
    X = -i2  # -alpha / Q: C_b = K X, and C_y = nu C_b with nu = (1 - 4s) / (2 alpha)
    Cb = K * X
    values = [L, Cb, (w * (0.5 * i2)) * K * ia]

    # first partials; the suffixes A, B, r, s, q stand for alpha^2, beta, r00, s0, b^2
    ia2 = ia * ia
    e1 = i1 * i1
    e2 = i2 * i2
    L_A = 0.5 * w * e1 * ia
    L_B = -2.0 * e1
    two_s0 = 2.0 * s0
    K_A, K_B, K_s = two_s0 * L_A, two_s0 * L_B, 2.0 * L  # and K_r = 1
    X_A = -1.5 * s * ia2 * e2
    X_B = 3.0 * ia * e2
    X_q = -2.0 * e2
    Cb_A = K_A * X + K * X_A
    Cb_B = K_B * X + K * X_B
    Cb_s = K_s * X
    Cb_q = K * X_q
    nu = -0.5 * w * ia
    nu_A = (2.0 * s - 0.25) * ia2 * ia
    nu_B = -2.0 * ia2
    zero = s - s
    jacobian = [
        [L_A, L_B, zero, zero, zero],
        [Cb_A, Cb_B, X, Cb_s, Cb_q],
        [nu_A * Cb + nu * Cb_A, nu_B * Cb + nu * Cb_B, nu * X, nu * Cb_s, nu * Cb_q],
    ]
    if order == 1:
        return values, jacobian

    g1 = e1 * i1 * ia
    L_AA = 0.25 * (6.0 * s - 1.0) * ia2 * g1
    L_AB = -4.0 * s * ia * g1
    L_BB = 8.0 * g1
    e3 = e2 * i2
    p = 1.0 + 2.0 * bsq
    X_AA = -2.25 * s * (p - s) * ia2 * ia2 * e3
    X_AB = 1.5 * (3.0 * s + p) * ia2 * ia * e3
    X_BB = -18.0 * ia2 * e3
    X_Aq = -6.0 * s * ia2 * e3
    X_Bq = 12.0 * ia * e3
    X_qq = -8.0 * e3
    # C_b = K X; K is linear in (r00, s0), X does not depend on them
    Cb_AA = two_s0 * L_AA * X + 2.0 * K_A * X_A + K * X_AA
    Cb_AB = two_s0 * L_AB * X + K_A * X_B + K_B * X_A + K * X_AB
    Cb_BB = two_s0 * L_BB * X + 2.0 * K_B * X_B + K * X_BB
    Cb_As = 2.0 * L_A * X + K_s * X_A
    Cb_Bs = 2.0 * L_B * X + K_s * X_B
    Cb_Aq = K_A * X_q + K * X_Aq
    Cb_Bq = K_B * X_q + K * X_Bq
    Cb_sq = K_s * X_q
    Cb_qq = K * X_qq
    cb = _symmetric(Cb_AA, Cb_AB, Cb_BB, X_A, X_B, Cb_As, Cb_Bs, Cb_Aq, Cb_Bq, X_q, Cb_sq, Cb_qq, zero)
    # C_y = nu C_b; nu is a function of (alpha^2, beta) alone
    nu_AA = (0.375 - 4.0 * s) * ia2 * ia2 * ia
    nu_AB = 2.0 * ia2 * ia2  # and nu_BB = 0
    cy = _symmetric(
        nu_AA * Cb + 2.0 * nu_A * Cb_A + nu * Cb_AA,
        nu_AB * Cb + nu_A * Cb_B + nu_B * Cb_A + nu * Cb_AB,
        2.0 * nu_B * Cb_B + nu * Cb_BB,
        nu_A * X + nu * X_A,
        nu_B * X + nu * X_B,
        nu_A * Cb_s + nu * Cb_As,
        nu_B * Cb_s + nu * Cb_Bs,
        nu_A * Cb_q + nu * Cb_Aq,
        nu_B * Cb_q + nu * Cb_Bq,
        nu * X_q,
        nu * Cb_sq,
        nu * Cb_qq,
        zero,
    )
    # F^2 = alpha^2 / (1 - s)^2
    i3 = 1.0 / d3
    F = a * i3
    f3 = i3 * i3 * i3
    f4 = f3 * i3
    values.append(F * F)
    jacobian.append([(1.0 - 2.0 * s) * f3, 2.0 * a * f3, zero, zero, zero])
    hessian = [
        _symmetric(L_AA, L_AB, L_BB, *(zero,) * 10),
        cb,
        cy,
        _symmetric(0.5 * s * w * ia2 * f4, -w * ia * f4, 6.0 * f4, *(zero,) * 10),
    ]
    return values, jacobian, hessian


def _symmetric(AA, AB, BB, Ar, Br, As, Bs, Aq, Bq, rq, sq, qq, zero):
    """The upper triangle, row by row, of the Hessian over u with these entries; its (r00, s0) block is zero."""
    return [AA, AB, Ar, As, Aq, BB, Br, Bs, Bq, zero, zero, rq, zero, sq, qq]


_UPPER = np.zeros((5, 5), dtype=np.intp)
_UPPER[np.triu_indices(5)] = np.arange(15)
_UPPER = np.maximum(_UPPER, _UPPER.T)


def _everywhere(mask) -> bool:
    """Whether ``mask`` holds: a Python bool at one y, a boolean array at a stack."""
    return mask if isinstance(mask, bool) else bool(mask.all())


def _packed(rows, depth: int) -> np.ndarray:
    """A ``depth``-deep nested list of floats, or of equal-shape arrays, as one array with the list axes last."""
    out = np.array(rows)
    return np.moveaxis(out, range(depth), range(-depth, 0)) if out.ndim > depth else out


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
    stack, d = y.shape[:-1], 2 * bundle.n
    u = (alpha2.val, beta.val, r00.val, s0.val)
    if not stack:
        u = tuple(map(float, u))  # one y: the coefficients run on Python floats
    partials = _coefficient_partials(*u, bundle.bsq, order)
    values, jacobian = partials[0], partials[1]
    L, Cb, Cy = values[:3]
    # a scalar's trailing shape is () at one y and (m, 1) at a stack, as the inputs'
    coefs = _packed(values[:3], 1)  # (L, C_b, C_y)

    # the gradients of u, one row per entry, and of the coefficients: J grad u
    grads = np.empty(np.shape(alpha2.val) + (5, d))
    for row, jet in enumerate((alpha2, beta, r00, s0)):
        grads[..., row, :] = jet.grad
    grads[..., 4, :] = inp.bsq_grad
    jac3 = _packed(jacobian[:3], 2)
    coef_grads = jac3 @ grads

    # G - Gbar = sum_c coef_c vec_c over the vector inputs (-s^i_0, b^i, y^i),
    # differentiated by the product rule; the three have no Hessian but s^i_0's
    vec = np.empty(si0.val.shape + (1, 3))
    np.negative(si0.val, out=vec[..., 0, 0])
    vec[..., 0, 1] = bundle.bup
    vec[..., 0, 2] = y
    vec_grads = np.empty(si0.grad.shape[:-1] + (3, d))
    np.negative(si0.grad, out=vec_grads[..., 0, :])
    vec_grads[..., 1:, :] = inp.vector_grads

    val = gbar.val - L * si0.val + Cb * bundle.bup + Cy * y
    grad = gbar.grad + (vec @ coef_grads + coefs[..., None, :] @ vec_grads)[..., 0, :]
    if order == 1:
        return Spray(G=ArrayJet(val, grad, None), Gbar=gbar, F2=None)

    # the Hessians of all four coefficients: J . hess u + grad u^T H grad u
    jac4 = np.concatenate((jac3, _packed(jacobian[3:], 2)), axis=-2)
    hess_u = np.empty(np.shape(alpha2.val) + (4, d, d))  # b^2's is truncated to zero
    for row, jet in enumerate((alpha2, beta, r00, s0)):
        hess_u[..., row, :, :] = jet.hess
    coef_hess = (jac4[..., :4] @ hess_u.reshape(hess_u.shape[:-2] + (d * d,))).reshape(hess_u.shape)
    local_hess = _packed(partials[2], 2)[..., _UPPER]  # H, shape (..., 4, 5, 5)
    coef_hess += grads.swapaxes(-1, -2)[..., None, :, :] @ (local_hess @ grads[..., None, :, :])

    cross = coef_grads.swapaxes(-1, -2) @ vec_grads
    hess = (vec @ coef_hess[..., :3, :, :].reshape(coef_hess.shape[:-3] + (3, d * d))).reshape(val.shape + (d, d))
    hess += gbar.hess
    hess -= coefs[..., 0, None, None] * si0.hess
    hess += cross
    hess += cross.swapaxes(-1, -2)
    F2 = ArrayJet(
        np.reshape(values[3], stack),
        (jac4[..., 3:, :] @ grads).reshape(stack + (d,)),
        coef_hess[..., 3, :, :].reshape(stack + (d, d)),
    )
    return Spray(G=ArrayJet(val, grad, hess), Gbar=gbar, F2=F2)


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
