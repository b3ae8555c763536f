"""The deformed (slope-type) metric layer: F = alpha^2 / (alpha - beta).

Builds the spray coefficients G^i at a point (x, y), with their exact
derivatives over the 2n chart+fiber directions, from the closed rational
form specific to this phi.  Each input (alpha^2, beta, r00, s0, s^i_0,
Gbar^i, b^2, b^i, y) is a constant, linear or quadratic function of y whose
x-dependent coefficients and first x-derivatives the bundle holds, so its
value and derivatives are written down in closed form.  ``_spray_inputs``
packs all of them as rows of a few arrays, formed anew by every spray that
computes: at its y, three einsums give the values of the quadratic forms
[a; r; Gamma/2] and the linear forms [b; s_j; -s^i_j], and one
vector-matrix product every entry that is affine in y.

Second derivatives are carried as the y columns of the Hessian only: the
x-y and y-y blocks, shape (..., 2n, n), which are all that the curvature
and the T-split read.  The pure x-x block, which would need third
derivatives of the metric, is not formed (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., 2008, on exploiting known Hessian sparsity).

The spray is G^i = Gbar^i - L s^i_0 + C_b b^i + C_y y^i, whose three scalar
coefficients L, C_b and C_y depend on u = (alpha^2, r00, b^2, beta, s0),
five packed input rows, alone.  Their values, Jacobian and Hessian over u
are written out in closed form on Python floats, once per y, as one flat
list, and pushed through the packed inputs in one step, grad c = J grad u
and hess c = J . hess u + grad u^T H grad u (preaccumulation of local
derivatives), and the three vector terms are combined by one product rule:
no jet operation runs on the chain between the inputs and G.
``tools/rederive_spray_partials.py`` checks the closed forms against sympy.
The generic (alpha, beta) spray, with Q, Psi and Theta computed from
phi(s) = 1/(1 - s) in scalar jets, is the test suite's oracle for the whole
spray (``tests/oracles.py``).

The ``Spray`` record is the one input of every reader of the spray:
``riemann_curvature``, ``ricci_via_T``, ``flag_curvature_fit`` and
``scurvature.s_curvature_def`` take it, and read the bundle and the y it
was taken at from it, so no reader can be handed a spray of another y.
y may carry leading axes: ``spray``, ``riemann_curvature``,
``metric_value``, ``ricci_via_T`` and ``flag_curvature_fit`` take one
fiber vector, shape (n,), or a stack of m of them, shape (m, n), and their
results then carry the same leading m axis.  They take a
``riemann.BundlePass`` of p points as they take a bundle, with a stack of
shape (p, m, n): one call of each evaluates a pass of points.  The one-y
call is the m-less case of the same code; ``ricci_via_T`` and
``flag_curvature_fit`` return floats there.  The two S routes take one y
only and raise ``ValueError`` on a stack.

Every step of a stacked spray works row by row, down to one
vector-matrix product per y for the inputs' affine entries, so each row
of a stack is the one-y spray at its point bit for bit: values,
gradients and Hessian y columns; over a pass, each point's rows of every
reader have the bits of its own (m, n) stack.  That makes an exact memo
possible.  The ``Spray`` record of a pass's stack holds one: the arrays of
G and Gbar, made read-only, with a copy of its y.  While the record lives,
a one-y spray at one of the pass's points whose y has the bytes of one of
that point's rows returns views of that row (found by the point's index
in the pass and its bytes), before y is checked to be nonzero, which
every row of a stack has passed.  So the S group's one-y sprays in
``run_check`` cost a lookup each.  The points hold weak references to the
memo (``bundle.spray_memo``), and it holds arrays only, so a stack is
freed as soon as its caller drops the record.  A stack at one bundle
keeps no memo, as no reader asks for its rows again.

The curvature is computed two ways, directly from the spray and through
the deformation-field identity relating Ric to the Ricci curvature of
alpha; agreement of the two routes is the engine's strongest self-check,
and ``classify.run_check`` asserts it at every sample.  The flag fit of
R = K (F^2 I - y y_flat^T) is least squares in the inner product of the
fundamental tensor g, where it is closed-form in Ric and F and reads of g
only y_flat = g y, itself closed-form in F, alpha, beta, a y and b; so K and
its residual are the same in every chart.  The fit takes F from its
caller, which has it from ``metric_value`` for the printed F^2.
"""

from __future__ import annotations

import math
import weakref
from typing import NamedTuple

import numpy as np

from .jets import _TINY, ArrayJet, JetError
from .riemann import AlphaBetaBundle, BundlePass

__all__ = [
    "ScalarFit",
    "Spray",
    "spray",
    "riemann_curvature",
    "ricci_via_T",
    "extract_scalars",
    "flag_curvature_fit",
    "unit_alpha_vectors",
]


# -- spray --------------------------------------------------------------------


class Spray(NamedTuple):
    """The spray of F at the bundle's point and ``y``, shape (n,) or a stack (m, n), or over a pass at (p, m, n).

    ``G`` = G^i and ``Gbar`` = Gbar^i, the spray of alpha, are array jets
    over the 2n chart+fiber directions (x^1..x^n, then y^1..y^n) of shape
    S + (n,), S the leading shape of ``y``.  Each ``hess`` holds the y
    columns of the Hessian only, shape S + (n, 2n, n):
    ``hess[..., a, k]`` = d2/dz^a dy^k over the 2n directions z^a, so its
    first n rows are the x-y block and its last n the y-y block, the only
    ones the curvature and the T-split read.  There is no x-x block, which
    would need third derivatives of the metric.  Only elementwise jet
    operations (G - Gbar) apply to such jets.
    """

    bundle: AlphaBetaBundle | BundlePass
    y: np.ndarray
    G: ArrayJet
    Gbar: ArrayJet
    memo: object = None  # a pass's ``_Memo``, which serves its rows as long as this record lives


def _blocks(jet: ArrayJet):
    """(G, dG/dx, dG/dy, d2G/dx dy, d2G/dy dy) of a spray's jet, whose Hessian has the y columns or all 2n.

    Index order after any leading y axis: ``gx[i, k]`` = dG^i/dx^k, ``hxy[i, j, k]`` = d2G^i/dx^j dy^k.
    """
    n = jet.grad.shape[-1] // 2
    return jet.val, jet.grad[..., :n], jet.grad[..., n:], jet.hess[..., :n, -n:], jet.hess[..., n:, -n:]


def _split(flat: np.ndarray, n: int):
    """``flat``, the packed [val | grad | dqy] of shape S + (C,), as views (val, grad, dqy)."""
    stack, rows, d = flat.shape[:-1], 4 * n + 5, 2 * n
    grad = flat[..., rows : rows * (1 + d)].reshape(stack + (rows, d))
    return flat[..., :rows], grad, flat[..., rows * (1 + d) :].reshape(stack + (n + 2, n, n))


def _spray_inputs(bundle: AlphaBetaBundle | BundlePass, y: np.ndarray):
    """The spray's inputs at ``y``, shape (n,), (m, n) or, over a pass, (p, m, n), packed into rows.

    Each input is a constant, linear or quadratic function of y whose
    x-dependent coefficients and first x-derivatives the bundle holds.
    Returns (val, grad, hess, si0_xy): ``val`` and ``grad`` hold them all as
    the rows of packed arrays over the 2n chart+fiber directions, in this
    order (``n`` = bundle.n):

    =================  ===============================  =====================
    rows               input                            form
    =================  ===============================  =====================
    [0, n)             Gbar^i = Gamma^i_jk y^j y^k / 2  quadratic, Gamma/2
    n, n + 1           alpha^2, r00                     quadratic, a and r
    n + 2              b^2                              constant
    n + 3, n + 4       beta, s0                         linear, b and s_j
    [n + 5, 2n + 5)    -s^i_0                           linear, -s^i_j
    [2n + 5, 3n + 5)   b^i                              constant
    [3n + 5, 4n + 5)   y^i                              the fiber coordinate
    =================  ===============================  =====================

    Rows [n, n + 5) are u = (alpha^2, r00, b^2, beta, s0), the arguments of
    the spray's scalar coefficients in this order, and rows [n + 5, 4n + 5)
    are the three vector inputs of G - Gbar.  The quadratic rows [0, n + 2)
    and the linear rows [n + 3, 2n + 5) are each contiguous, so one einsum
    gives the values of each kind, the same arithmetic as a form's own jet.
    Every other entry of ``val`` and ``grad`` is affine in y, and so is
    ``dqy[f, l, j]`` = sum_k dq_f[j, k, l] y^k, half the x-y Hessian block
    of quadratic row f, whose contraction with y gives that row's
    x-gradient: one vector-matrix product per y, ``y @ slope + offset``,
    gives them all.

    ``hess`` holds the y columns (see ``Spray``) of the Hessians of rows
    [0, n + 5) only, shape (n + 5, 2n, n): the constant y-y blocks 2q and
    the x-y blocks 2 dqy of the quadratic rows, and the x-y blocks of the
    linear ones; there is no x-x block.  The Hessian of -s^i_0 does not
    depend on y: ``si0_xy`` is its x-y block, and its y-y block is zero.
    b^i and y^i have none.  For a stack the arrays carry its leading axes,
    and each row has the bits of its y alone at its point.
    """
    n, stack = bundle.n, y.shape[:-1]
    over = isinstance(bundle, BundlePass)
    lead = bundle.bsq.shape if over else ()  # () at a point, (p,) over a pass
    ax = len(lead)  # a field's first axis after the point axis of a pass, if any
    rows, d = 4 * n + 5, 2 * n
    q, l = slice(0, n + 2), slice(n + 3, 2 * n + 5)
    quad = np.concatenate([0.5 * bundle.gamma, bundle.a[..., None, :, :], bundle.r[..., None, :, :]], axis=-3)
    lin = np.concatenate([bundle.b[..., None, :], bundle.svec[..., None, :], -bundle.s_up], axis=-2)
    dlin = np.concatenate([bundle.db[..., None, :, :], bundle.d_svec[..., None, :, :], -bundle.d_s_up], axis=-3)
    quad2, eye = 2.0 * quad, np.eye(n)
    # the affine entries of [val | grad | dqy]: row k < n of ``affine`` is the
    # coefficient of y^k, row n the constant term
    affine = np.zeros(lead + (n + 1, rows * (1 + d) + (n + 2) * n * n))
    val, grad, dqy = _split(affine, n)
    val[..., n, n + 2] = bundle.bsq
    val[..., n, 2 * n + 5 : 3 * n + 5] = bundle.bup
    val[..., :n, 3 * n + 5 :] = eye
    grad[..., :n, q, n:] = quad2.transpose(*range(ax), ax + 2, ax, ax + 1)
    grad[..., :n, l, :n] = dlin.transpose(*range(ax), ax + 1, ax, ax + 2)
    grad[..., n, n + 2, :n] = bundle.d_bsq
    grad[..., n, l, n:] = lin
    grad[..., n, 2 * n + 5 : 3 * n + 5, :n] = bundle.d_bup
    grad[..., n, 3 * n + 5 :, n:] = eye
    np.multiply(bundle.dgamma.transpose(*range(ax), ax + 2, ax, ax + 3, ax + 1), 0.5, out=dqy[..., :n, :n, :, :])
    dqy[..., :n, n, :, :] = bundle.dA.transpose(*range(ax), ax + 1, ax + 2, ax)
    dqy[..., :n, n + 1, :, :] = bundle.dr.transpose(*range(ax), ax + 1, ax + 2, ax)

    # over a pass, a y axis after the point axis, so each broadcasts against the (p, m, ...) stacks
    at = (slice(None), None) if over else ()
    quad, lin, quad2, dlin = quad[at], lin[at], quad2[at], dlin[at]
    slope, offset = affine[at][..., :n, :], affine[at][..., n, :]
    yc = y[..., None, :] if stack else y  # (..., m, 1, n): broadcasts along the row axis
    flat = (y[..., None, :] @ slope)[..., 0, :]  # one vector-matrix product per row, as for one y
    flat += offset
    val, grad, dqy = _split(flat, n)
    qy = np.einsum("...jk,...k->...j", quad, yc)
    np.einsum("...j,...j->...", qy, yc, out=val[..., q])
    np.einsum("...j,...j->...", lin, yc, out=val[..., l])
    np.matmul(dqy, yc[..., None], out=grad[..., q, :n, None])
    hess = np.zeros(stack + (n + 5, d, n))
    hess[..., q, n:, :] = quad2
    np.multiply(dqy, 2.0, out=hess[..., q, :n, :])
    hess[..., n + 3 :, :n, :] = dlin[..., :2, :, :].swapaxes(-1, -2)
    return val, grad, hess, dlin[..., 2:, :, :].swapaxes(-1, -2)


class _Memo:
    """The arrays of G and Gbar of a pass's stacked spray, made read-only, and a copy of its y, shape (p, m, n).

    ``row`` finds a row by its point's index in the pass and the bytes of its y.
    """

    def __init__(self, y: np.ndarray, G: ArrayJet, Gbar: ArrayJet):
        self.arrays = (G.val, G.grad, G.hess), (Gbar.val, Gbar.grad, Gbar.hess)
        for jet in self.arrays:
            for a in jet:
                a.setflags(write=False)
        self.y, self.index = y.copy(), None  # the rows by point and bytes, built on the first lookup

    def row(self, k: int, y: np.ndarray):
        """(G, Gbar) at the one ``y`` among the rows of the pass's k-th point, or None where none has its bytes.

        The jets are read-only views of the row, the bits a spray at ``y``
        alone at that point computes.
        """
        if self.index is None:
            self.index = {(i, v.tobytes()): j for i, point in enumerate(self.y) for j, v in enumerate(point)}
        j = self.index.get((k, y.tobytes()))
        if j is None:
            return None
        return [ArrayJet(val[k, j], grad[k, j], hess[k, j]) for val, grad, hess in self.arrays]


# -- the spray's scalar coefficients ------------------------------------------
#
# G^i = Gbar^i - L s^i_0 + C_b b^i + C_y y^i, and the scalars L, C_b and C_y
# are functions of u = (alpha^2, r00, b^2, beta, s0) alone:
#
#   L = alpha^2 / P,  C_b = -alpha K / Q,  C_y = (4 beta - alpha) K / (2 alpha Q),
#   K = r00 + 2 L s0,
#
# with P = 2 beta - alpha and Q = 3 beta - (2 b^2 + 1) alpha.  Their partials
# over u are written out below in s = beta / alpha and the reciprocals of
# alpha, 2s - 1 and 3s - 2b^2 - 1, and pushed through the inputs'
# jets in one step (preaccumulation of local derivatives: Griewank &
# Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 10).  They run on
# Python floats, once per y, so a row of a stack gets the bits of its y
# alone.  ``tools/rederive_spray_partials.py`` checks them against sympy.

# Above this alpha^2 the jet sqrt raises nowhere; below it, its own checks decide.
_SQRT_SAFE = 1e-200


def _coefficient_partials(alpha2, r00, bsq, beta, s0):
    """The values and partials over u of the spray's scalar coefficients, as one flat list.

    u = (alpha^2, r00, b^2, beta, s0), at one y, as Python floats, in the
    order of the packed inputs' rows.  The coefficients are (L, C_b, C_y):
    the list holds their 3 values, then their 3 x 5 Jacobian row by row,
    and for each coefficient the 15 entries of the upper triangle of its
    Hessian, row by row (``_UPPER`` maps (i, j) to the place of
    d2/du_i du_j).  Raises ``JetError`` where the jet chain did: alpha^2
    outside the domain of the jet sqrt, or 2s - 1 or 3s - 2b^2 - 1 of
    magnitude below ``_TINY``.
    """
    if not _SQRT_SAFE < alpha2 < math.inf:
        # raises exactly where, and as, the jet sqrt of alpha^2 does
        ArrayJet(alpha2, np.zeros(1), np.zeros((1, 1))).sqrt()
    a = alpha2**0.5
    ia = 1.0 / a
    s = beta * ia  # finite, as alpha^2 is
    d1 = 2.0 * s - 1.0
    d2 = 3.0 * s - 2.0 * bsq - 1.0
    if not (abs(d1) >= _TINY and abs(d2) >= _TINY):
        raise JetError("division by zero jet")
    i1 = 1.0 / d1
    i2 = 1.0 / d2
    w = 4.0 * s - 1.0
    L = a * i1
    K = (2.0 * L) * s0 + r00
    X = -i2  # -alpha / Q: C_b = K X, and C_y = nu C_b with nu = (1 - 4s) / (2 alpha)
    Cb = K * X

    # first partials; the suffixes A, r, q, B, s stand for alpha^2, r00, b^2, beta, s0
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
    zero = 0.0
    parts = [
        L, Cb, (w * (0.5 * i2)) * K * ia,  # the values, then the Jacobian row by row
        L_A, zero, zero, L_B, zero,
        Cb_A, X, Cb_q, Cb_B, Cb_s,
        nu_A * Cb + nu * Cb_A, nu * X, nu * Cb_q, nu_B * Cb + nu * Cb_B, nu * Cb_s,
    ]

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
    # C_y = nu C_b; nu is a function of (alpha^2, beta) alone
    nu_AA = (0.375 - 4.0 * s) * ia2 * ia2 * ia
    nu_AB = 2.0 * ia2 * ia2  # and nu_BB = 0
    parts += _upper(L_AA, zero, zero, L_AB, *(zero,) * 6, L_BB, zero)
    parts += _upper(Cb_AA, X_A, Cb_Aq, Cb_AB, Cb_As, X_q, X_B, Cb_qq, Cb_Bq, Cb_sq, Cb_BB, Cb_Bs)
    parts += _upper(
        nu_AA * Cb + 2.0 * nu_A * Cb_A + nu * Cb_AA,
        nu_A * X + nu * X_A,
        nu_A * Cb_q + nu * Cb_Aq,
        nu_AB * Cb + nu_A * Cb_B + nu_B * Cb_A + nu * Cb_AB,
        nu_A * Cb_s + nu * Cb_As,
        nu * X_q,
        nu_B * X + nu * X_B,
        nu * Cb_qq,
        nu_B * Cb_q + nu * Cb_Bq,
        nu * Cb_sq,
        2.0 * nu_B * Cb_B + nu * Cb_BB,
        nu_B * Cb_s + nu * Cb_Bs,
    )
    return parts


def _upper(AA, Ar, Aq, AB, As, rq, rB, qq, qB, qs, BB, Bs):
    """The upper triangle, row by row, of the Hessian over u with these entries; its (r00, s0) block is zero."""
    return [AA, Ar, Aq, AB, As, 0.0, rq, rB, 0.0, qq, qB, qs, BB, Bs, 0.0]


_UPPER = np.zeros((5, 5), dtype=np.intp)
_UPPER[np.triu_indices(5)] = np.arange(15)
_UPPER = np.maximum(_UPPER, _UPPER.T)
# the places of the coefficients' Hessians, (3, 5, 5), in the list of partials
_HESSIANS = 18 + 15 * np.arange(3)[:, None, None] + _UPPER


def spray(bundle: AlphaBetaBundle | BundlePass, y) -> Spray:
    """Spray coefficients G^i at (x, y) with their exact derivatives, as a ``Spray``.

    ``y`` is one fiber vector, shape (n,), or a stack of m of them, shape
    (m, n), or over a pass of p points a stack of shape (p, m, n); the
    ``Spray`` then carries the same leading axes.  It holds order-2 jets of
    G and Gbar, with the y columns of their Hessians.  Over a pass the
    arrays are read-only and the record holds their memo, and while it lives
    a one-y call at one of the pass's points, at the bytes of one of that
    point's rows, returns read-only views of that row, the bits it would compute.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 1 and bundle.spray_memo is not None:
        ref, k = bundle.spray_memo
        memo = ref()  # None once the pass's record is gone
        kept = None if memo is None else memo.row(k, y)  # a row of a stack, which has passed the check below
        if kept is not None:
            return Spray(bundle, y, *kept)
    if not (y.size and np.logical_or.reduce(y, axis=-1).all()):
        raise ValueError("y must be a nonzero vector or a nonempty stack of them")
    val, grad, hess, si0_xy = _spray_inputs(bundle, y)
    n, stack = bundle.n, y.shape[:-1]
    d = 2 * n
    rows = val[..., n : n + 5].reshape(-1, 5).tolist()  # u at each y; one y is a stack of one here
    parts = np.array([_coefficient_partials(*u) for u in rows]).reshape(stack + (-1,))
    coefs, jac = parts[..., :3], parts[..., 3:18].reshape(stack + (3, 5))  # coefs: (L, C_b, C_y)
    # grad c = J grad u
    grads = grad[..., n : n + 5, :]
    cg = jac @ grads

    # G - Gbar = sum_c coef_c vec_c over the vector inputs (-s^i_0, b^i, y^i),
    # differentiated by the product rule; the three have no Hessian but s^i_0's
    vec = val[..., n + 5 :].reshape(stack + (3, n))
    vec_grads = grad[..., n + 5 :, :].reshape(stack + (3, n, d))
    terms = coefs[..., None] * vec  # summed in the order Gbar^i - L s^i_0 + C_b b^i + C_y y^i
    G = val[..., :n] + terms[..., 0, :]
    G += terms[..., 1, :]
    G += terms[..., 2, :]
    G_grad = grad[..., :n, :] + vec.swapaxes(-1, -2) @ cg
    G_grad += (coefs[..., None, :] @ vec_grads.reshape(stack + (3, n * d))).reshape(stack + (n, d))

    # the y columns of the coefficients' Hessians: J . hess u + grad u^T H grad u
    coef_hess = (jac @ hess[..., n:, :, :].reshape(stack + (5, d * n))).reshape(stack + (3, d, n))
    local_hess = parts[..., _HESSIANS]  # H, shape (..., 3, 5, 5)
    coef_hess += grads.swapaxes(-1, -2)[..., None, :, :] @ (local_hess @ grads[..., None, :, n:])

    by_row = vec_grads.swapaxes(-3, -2)  # (..., n, 3, d)
    G_hess = (vec.swapaxes(-1, -2) @ coef_hess.reshape(stack + (3, d * n))).reshape(stack + (n, d, n))
    G_hess += hess[..., :n, :, :]
    G_hess[..., :n, :] += coefs[..., 0, None, None, None] * si0_xy
    G_hess += cg.swapaxes(-1, -2)[..., None, :, :] @ by_row[..., n:]
    G_hess += by_row.swapaxes(-1, -2) @ cg[..., None, :, n:]
    G, Gbar = ArrayJet(G, G_grad, G_hess), ArrayJet(val[..., :n], grad[..., :n, :], hess[..., :n, :, :])
    memo = None
    if isinstance(bundle, BundlePass):
        memo = _Memo(y, G, Gbar)
        for k, bu in enumerate(bundle.bundles):
            bu.spray_memo = weakref.ref(memo), k
    return Spray(bundle=bundle, y=y, G=G, Gbar=Gbar, memo=memo)


def riemann_curvature(sp: Spray):
    """Riemann curvature operator R^i_k of F and its trace Ric, from the spray.

    R^i_k = 2 dG^i/dx^k - y^j d2G^i/dx^j dy^k + 2 G^j d2G^i/dy^j dy^k
            - dG^i/dy^j dG^j/dy^k.

    For a stack of y, shape S + (n,), R has shape S + (n, n) and Ric S.
    """
    y, (gval, gx, gy, hxy, hyy) = sp.y, _blocks(sp.G)
    R = 2.0 * gx - np.einsum("...j,...ijk->...ik", y, hxy) + 2.0 * np.einsum("...j,...ijk->...ik", gval, hyy) - gy @ gy
    return R, np.trace(R, axis1=-2, axis2=-1)


def ricci_via_T(sp: Spray):
    """Ricci curvature through the deformation field T^i = G^i - Gbar^i, from the spray.

    Ric = Ricbar + 2 T^k_|k - y^j T^k_.k|j + 2 T^j T^k_.j.k - T^k_.j T^j_.k,
    with | and . the horizontal/vertical derivatives of alpha.  Entirely
    different bookkeeping from the direct curvature trace, hence a strong
    cross-check on both.  A float for a spray at one y; for a stack of y,
    its leading shape, each row the one-y value.
    """
    bundle, y = sp.bundle, sp.y
    tval, tx, ty, txy, tyy = _blocks(sp.G - sp.Gbar)

    nconn = np.einsum("...ijk,...k->...ij", _per_y(bundle, bundle.gamma), y)  # N^i_j = Gamma^i_jk y^k
    # T^k_|k = dT^k/dx^k - N^m_k dT^k/dy^m + T^m Gamma^k_mk, the last a dot product with the point's
    # Gamma^k_mk, whose bits, unlike those of one two-index einsum, do not depend on the stack's shape
    t_div = (
        np.trace(tx, axis1=-2, axis2=-1)
        - np.einsum("...mk,...km->...", nconn, ty)
        + np.einsum("...m,...m->...", tval, _per_y(bundle, np.einsum("...kmk->...m", bundle.gamma)))
    )
    # f = T^k_.k is a scalar on the slit tangent bundle: f_|j = df/dx^j - N^m_j df/dy^m
    f_x = np.einsum("...kjk->...j", txy)
    f_y = np.einsum("...kmk->...m", tyy)
    t_trace_cov = np.einsum("...j,...j->...", y, f_x - np.einsum("...mj,...m->...j", nconn, f_y))
    term3 = 2.0 * np.einsum("...j,...kjk->...", tval, tyy)
    term4 = np.einsum("...kj,...jk->...", ty, ty)
    ric = bundle.ricbar(y) + 2.0 * t_div - t_trace_cov + term3 - term4
    return ric if y.ndim > 1 else float(ric)


def metric_value(bundle: AlphaBetaBundle | BundlePass, y):
    """F(x, y) = alpha^2 / (alpha - beta), for one y, a stack of them or, over a pass, a (p, m, n) stack."""
    y = np.asarray(y, dtype=float)
    al = np.sqrt(np.einsum("...j,...jk,...k->...", y, _per_y(bundle, bundle.a), y))
    return al * al / (al - _beta(bundle, y))


def _beta(bundle: AlphaBetaBundle | BundlePass, y):
    """beta = b_j y^j, by the product of ``y @ b``: over a pass each point's b is an (n, 1) matrix."""
    return (y @ bundle.b[..., None])[..., 0]


def _per_y(bundle: AlphaBetaBundle | BundlePass, field: np.ndarray):
    """A ``field`` of ``bundle`` that broadcasts against its y: over a pass, with a y axis after the point axis."""
    return field[:, None] if isinstance(bundle, BundlePass) else field


def _lowered_y(bundle: AlphaBetaBundle | BundlePass, y, F):
    """y_flat = g y = 1/2 dF^2/dy, for one y or a stack of them, given F there (``metric_value``).

    y_flat = F ((alpha - 2 beta) a y + alpha^2 b) / (alpha - beta)^2, the
    y-gradient of F^2 = alpha^4 / (alpha - beta)^2 halved, in closed form.
    """
    ay = y @ bundle.a
    al2 = np.einsum("...j,...j->...", ay, y)
    al, be = np.sqrt(al2), _beta(bundle, y)
    scale = F / ((al - be) * (al - be))
    return (scale * (al - 2.0 * be))[..., None] * ay + (scale * al2)[..., None] * _per_y(bundle, bundle.b)


# -- scalar extraction --------------------------------------------------------


def unit_alpha_vectors(bundle: AlphaBetaBundle, count: int, rng) -> np.ndarray:
    """``count`` random y-samples normalized to alpha(x, y) = 1, drawn as one stack.

    A row of norm below 1e-8 is redrawn: the rows and draws are those of one row at a time.
    """
    v = rng.standard_normal((count, bundle.n))
    while not (kept := np.linalg.norm(v, axis=1) >= 1e-8).all():
        v = np.concatenate([v[kept], rng.standard_normal((count - int(kept.sum()), bundle.n))])
    return v / np.sqrt((v[:, None, :] @ bundle.a @ v[:, :, None])[:, 0, 0])[:, None]


class ScalarFit(NamedTuple):
    """The pointwise Einstein/conformal scalars and the residual of each identity."""

    lam: float
    c: float
    sigma: float
    resid_lambda: float
    resid_c: float
    resid_sigma: float


def extract_scalars(bundle: AlphaBetaBundle, ric, F2) -> ScalarFit:
    """Fit Ricbar = lambda a, r = c a and Ric = sigma F^2 at the bundle's point.

    lambda and c fit tensor identities in the inner product of a, the same
    in every chart: with P = a^-1 T, T = Ricbar or r, k = tr P / n, and the
    residual |P - k I|_a = sqrt(tr((P - k I)^2)) is zero exactly when
    T = k a and no less than |T(y, y) - k| at any alpha-unit y.  sigma is
    least squares of ``ric`` against ``F2``, Ric and F^2 at the point's
    y-samples, shape (m,), with the largest deviation as residual; one
    sample fits it exactly, whatever F is.
    """
    tensor_fits = []
    for T in (bundle.ricci_tensor, bundle.r):
        P = bundle.a_inv @ T
        k = float(np.trace(P)) / bundle.n
        Q = P - k * np.eye(bundle.n)
        tensor_fits += [k, float(np.sqrt(max(0.0, np.einsum("ij,ji->", Q, Q))))]
    lam, resid_lambda, c, resid_c = tensor_fits
    sig = float(ric @ F2 / (F2 @ F2))
    return ScalarFit(
        lam=lam,
        c=c,
        sigma=sig,
        resid_lambda=resid_lambda,
        resid_c=resid_c,
        resid_sigma=float(np.max(np.abs(ric - sig * F2))),
    )


def flag_curvature_fit(sp: Spray, R, F):
    """Least-squares K in R^i_k = K M^i_k, M = F^2 delta^i_k - y^i y_k, y_k = g_kj y^j, in the g inner product.

    ``sp`` is the spray, ``R`` its curvature operator
    (``riemann_curvature(sp)``) and ``F`` = ``metric_value(sp.bundle,
    sp.y)``, the F behind every printed F^2, which the caller has already.
    R and M are g-self-adjoint, M^2 = F^2 M and R y = 0, so the fit has the
    closed form K = Ric / ((n - 1) F^2), and its residual is the g-norm of
    the rest, |R - K M|_g = sqrt(tr((R - K M)^2)).  Returns (K, residual):
    two floats for a spray at one y, or for a stack of y two arrays of its
    leading shape, each row fitted on its own.
    """
    y, n = sp.y, sp.bundle.n
    F = np.asarray(F, dtype=float)
    F2 = F * F
    y_flat = _lowered_y(sp.bundle, y, F)
    M = F2[..., None, None] * np.eye(n) - y[..., :, None] * y_flat[..., None, :]
    K = np.trace(R, axis1=-2, axis2=-1) / ((n - 1) * F2)
    rest = R - K[..., None, None] * M
    resid = np.sqrt(np.maximum(0.0, np.einsum("...ij,...ji->...", rest, rest)))
    return (K, resid) if y.ndim > 1 else (float(K), float(resid))
