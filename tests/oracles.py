"""Test-only oracles: independent second implementations of library quantities.

Each one deliberately shares no code with the routine it checks, so a bug
in the library cannot hide in both sides of the comparison.  No run of the
program reads anything here.  The module holds:

* the scalar-jet layer: the elementary functions of ``finslerab.jets.Jet``,
  ``seed`` and ``elem``, and a scalar-jet walk of the metric expressions
  (``eval_jet``, ``metric_jets``, ``det_jet``), all on the scalar rules,
  none on ``ArrayJet``'s;
* ``fd_oracle`` and ``christoffels_fd``, central differences that share no
  derivative code with either jet type;
* the generic (alpha, beta) spray and F^2 (``general_spray``,
  ``general_F2``, ``phi_data_general``) and the alpha quadratics of the fits;
* the Ricci-identity self-check of the bundle (``bianchi_check``, with the
  two tensors only it reads, ``D2b`` and ``rbar4``), ``gbar`` and ``rbar``
  in closed form;
* loop forms of batched routines (``contraction_set_naive``,
  ``unit_alpha_vectors_loop``, ``validate_spec_loop``).
"""

import math
from dataclasses import dataclass

import numpy as np

from finslerab.dsl import Bin, Const, Fun, MetricSpec, Neg, Pow, ValidationReport, Var, sample_domain
from finslerab.finsler import Spray, riemann_curvature
from finslerab.identity import ContractionSet
from finslerab.jets import ArrayJet, Jet, JetError
from finslerab.riemann import AlphaBetaBundle

# -- the elementary functions of the scalar Jet -------------------------------
#
# Values come from numpy, as in ArrayJet: numpy's exp, log and pow can differ
# from the math module's in the last bit, and the oracle comparison should
# see the derivative rules, not two libraries' rounding.

# the bound of finslerab.jets: sqrt and log refuse a value at or below it
_TINY = 1e-300


def _numpy(fn, *args) -> float:
    with np.errstate(all="ignore"):
        return float(fn(*args))


def jsqrt(a: Jet) -> Jet:
    if a.val <= _TINY:
        raise JetError(f"sqrt of non-positive value {a.val}")
    r = math.sqrt(a.val)
    try:
        c2 = -0.25 / (r * a.val)
    except ZeroDivisionError:  # a.val^1.5 underflows below about 1e-206
        raise JetError(f"overflow in the second derivative of sqrt({a.val})") from None
    return a._chain(r, 0.5 / r, c2)


def jexp(a: Jet) -> Jet:
    e = _numpy(np.exp, a.val)
    if not math.isfinite(e):
        raise JetError(f"overflow in exp({a.val})")
    return a._chain(e, e, e)


def jlog(a: Jet) -> Jet:
    if a.val <= _TINY:
        raise JetError(f"log of non-positive value {a.val}")
    inv = 1.0 / a.val
    return a._chain(_numpy(np.log, a.val), inv, -inv * inv)


def jsin(a: Jet) -> Jet:
    s, c = _numpy(np.sin, a.val), _numpy(np.cos, a.val)
    return a._chain(s, c, -s)


def jcos(a: Jet) -> Jet:
    s, c = _numpy(np.sin, a.val), _numpy(np.cos, a.val)
    return a._chain(c, -s, -c)


_ELEM = {"sqrt": jsqrt, "sin": jsin, "cos": jcos, "exp": jexp, "log": jlog}


def seed(values, active) -> list[Jet]:
    """Seed a tuple of input values as jets.

    ``values[i]`` becomes the i-th coordinate; it carries a unit gradient in
    direction i when ``i in active`` and is a constant jet otherwise.
    """
    active = list(active)
    if len(set(active)) != len(active):
        raise JetError("duplicate direction index in seed")
    d = len(values)
    if d < 1:
        raise JetError("need at least one direction")
    out = []
    for i, v in enumerate(values):
        if i in active:
            out.append(Jet.variable(v, i, d))
        else:
            out.append(Jet.constant(v, d))
    return out


def elem(a: Jet, name: str) -> Jet:
    """Named elementary function, one of sqrt/sin/cos/exp/log, of a finite value."""
    try:
        fn = _ELEM[name]
    except KeyError:
        raise JetError(f"unknown function {name!r}") from None
    if not math.isfinite(a.val):
        raise JetError(f"{name} of non-finite value {a.val}")
    return fn(a)


def fd_oracle(f, x, i: int, h: float = 1e-5) -> float:
    """Central-difference first derivative of a plain scalar field.

    Independent of the jet machinery on purpose: every jet gradient in the
    test suite is checked against this.
    """
    xp = np.array(x, dtype=float)
    xm = xp.copy()
    xp[i] += h
    xm[i] -= h
    return (f(xp) - f(xm)) / (2.0 * h)


def eval_jet(expr, env: list[Jet]) -> Jet:
    """Scalar-jet evaluation of a metric expression: the oracle of the walk of ``MetricSpec.a_jet``/``b_jet``.

    Follows the scalar ``Jet`` rules, and like the production walk treats a
    non-finite value, gradient or Hessian at any node as a ``JetError``.
    """
    if isinstance(expr, Const):
        out = Jet.constant(expr.value, env[0].d)
    elif isinstance(expr, Var):
        out = env[expr.index]
    elif isinstance(expr, Neg):
        out = -eval_jet(expr.child, env)
    elif isinstance(expr, Bin):
        a, b = eval_jet(expr.left, env), eval_jet(expr.right, env)
        if expr.op == "+":
            out = a + b
        elif expr.op == "-":
            out = a - b
        elif expr.op == "*":
            out = a * b
        else:
            out = a / b
    elif isinstance(expr, Pow):
        out = eval_jet(expr.base, env) ** expr.expo
    elif isinstance(expr, Fun):
        out = elem(eval_jet(expr.child, env), expr.name)
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    if not (math.isfinite(out.val) and np.isfinite(out.grad).all() and np.isfinite(out.hess).all()):
        raise JetError(f"non-finite value {out.val}")
    return out


def det_jet(mat: list[list[Jet]]) -> Jet:
    """Determinant of a matrix of jets via Gaussian elimination with pivoting.

    Oracle for Jacobi's formula in ``bundle.dlndet``.
    """
    m = [row[:] for row in mat]
    n = len(m)
    det = Jet.constant(1.0, m[0][0].d)
    sign = 1.0
    for c in range(n):
        piv = max(range(c, n), key=lambda rr: abs(m[rr][c].val))
        if abs(m[piv][c].val) < 1e-300:
            raise JetError("singular matrix in jet determinant")
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        det = det * m[c][c]
        for rr in range(c + 1, n):
            factor = m[rr][c] / m[c][c]
            for cc in range(c + 1, n):
                m[rr][cc] = m[rr][cc] - factor * m[c][cc]
    return sign * det


def metric_jets(spec: MetricSpec, x, total_dirs: int):
    """a_ij and b_i at x as scalar jets, x^k seeded in direction k of ``total_dirs``."""
    n = spec.dim
    env = [Jet.variable(float(x[k]), k, total_dirs) for k in range(n)]
    aJ = [[eval_jet(spec.a_expr(i, j), env) for j in range(n)] for i in range(n)]
    return aJ, [eval_jet(spec.b_expr(i), env) for i in range(n)]


# -- phi data and the general spray -------------------------------------------

@dataclass
class PhiData:
    """phi(s) = 1/(1-s) data at one (s, b^2): derivatives and the spray scalars."""

    s: float
    bsq: float
    phi: float
    dphi: float
    d2phi: float
    Q: float
    Psi: float
    Theta: float
    Delta: float


def _phi(s: float, bsq: float):
    """phi and its first two derivatives at s; both forms require |s| <= b < 1/2."""
    b = math.sqrt(max(bsq, 0.0))
    if b >= 0.5:
        raise ValueError(f"validity violated: |beta|_alpha = {b} >= 1/2")
    if abs(s) > b + 1e-12:
        raise ValueError(f"|s| = {abs(s)} exceeds b = {b}")
    phi = 1.0 / (1.0 - s)
    return phi, phi * phi, 2.0 * phi**3


def phi_data(s: float, bsq: float) -> PhiData:
    """Spray scalars Q, Psi, Theta and the convexity factor Delta in the closed forms of ``finsler.spray``."""
    phi, dphi, d2phi = _phi(s, bsq)
    q = 1.0 / (1.0 - 2.0 * s)
    psi = 1.0 / (1.0 + 2.0 * bsq - 3.0 * s)
    theta = (1.0 - 4.0 * s) / (2.0 * (1.0 + 2.0 * bsq - 3.0 * s))
    delta = (1.0 - 3.0 * s + 2.0 * bsq) / (1.0 - s) ** 3
    return PhiData(s=s, bsq=bsq, phi=phi, dphi=dphi, d2phi=d2phi, Q=q, Psi=psi, Theta=theta, Delta=delta)


def phi_data_general(s: float, bsq: float) -> PhiData:
    """The same scalars from the generic (alpha, beta) formulas with phi = 1/(1-s)."""
    phi, dphi, d2phi = _phi(s, bsq)
    edge = phi - s * dphi
    delta = edge + (bsq - s * s) * d2phi
    q = dphi / edge
    psi = d2phi / (2.0 * delta)
    theta = (phi * dphi - s * (phi * d2phi + dphi * dphi)) / (2.0 * phi * delta)
    return PhiData(s=s, bsq=bsq, phi=phi, dphi=dphi, d2phi=d2phi, Q=q, Psi=psi, Theta=theta, Delta=delta)


def _field_jets(values, xgrads: np.ndarray):
    """Nested lists of scalar jets lifting an x-dependent field into 2n directions."""
    if np.ndim(values) == 0:
        n = xgrads.shape[0]
        g = np.zeros(2 * n)
        g[:n] = xgrads
        return Jet(values, g, np.zeros(n * (2 * n + 1)))
    return [_field_jets(v, g) for v, g in zip(values, xgrads)]


def _sym_quadratic(coefJ, yJ):
    """Sum_ij coefJ[i][j] y^i y^j for a symmetric jet matrix."""
    n = len(yJ)
    acc = None
    for i in range(n):
        for j in range(i, n):
            term = coefJ[i][j] * (yJ[i] * yJ[j])
            if j != i:
                term = 2.0 * term
            acc = term if acc is None else acc + term
    return acc


def _dot(vecJ, yJ):
    acc = None
    for v, y in zip(vecJ, yJ):
        term = v * y
        acc = term if acc is None else acc + term
    return acc


def _array_jet(jets) -> ArrayJet:
    """Stack a scalar ``Jet``, or a list of them, into one ArrayJet."""
    if isinstance(jets, Jet):
        return ArrayJet(jets.val, jets.grad, jets.hess_matrix())
    return ArrayJet(
        [j.val for j in jets], np.array([j.grad for j in jets]), np.array([j.hess_matrix() for j in jets])
    )


def _fiber_jets(bundle: AlphaBetaBundle, y):
    """y^j as scalar jets over the 2n chart+fiber directions, and the jets of alpha^2, alpha and beta."""
    n = bundle.n
    yJ = [Jet.variable(float(y[j]), n + j, 2 * n) for j in range(n)]
    aJ, bJ = metric_jets(bundle.spec, bundle.x, 2 * n)
    alpha2 = _sym_quadratic(aJ, yJ)
    return yJ, alpha2, jsqrt(alpha2), _dot(bJ, yJ)


def general_F2(bundle: AlphaBetaBundle, y) -> ArrayJet:
    """F^2 = (alpha^2 / (alpha - beta))^2 in scalar jets: the oracle of y_flat = 1/2 dF^2/dy."""
    _, alpha2, alpha, beta = _fiber_jets(bundle, np.asarray(y, dtype=float))
    F = alpha2 / (alpha - beta)
    return _array_jet(F * F)


def general_spray(bundle: AlphaBetaBundle, y) -> Spray:
    """The generic (alpha, beta) spray, in scalar jets: the oracle of ``finsler.spray``.

    Q, Psi and Theta come from phi(s) = 1/(1 - s) and its derivatives.  The
    metric components are lifted into the 2n chart+fiber directions by this
    module's own scalar-jet walk of the metric expressions, so the oracle
    shares neither the evaluator nor any derivative code with the spray.
    """
    y = np.asarray(y, dtype=float)
    n = bundle.n
    yJ, alpha2, alpha, beta = _fiber_jets(bundle, y)
    r00 = _sym_quadratic(_field_jets(bundle.r, bundle.dr), yJ)
    s0 = _dot(_field_jets(bundle.svec, bundle.d_svec), yJ)
    si0 = [_dot(row, yJ) for row in _field_jets(bundle.s_up, bundle.d_s_up)]
    gbar = [0.5 * _sym_quadratic(g, yJ) for g in _field_jets(bundle.gamma, bundle.dgamma)]
    bup = _field_jets(bundle.bup, bundle.d_bup)
    bsq = _field_jets(bundle.bsq, bundle.d_bsq)
    sj = beta / alpha

    one = Jet.constant(1.0, 2 * n)
    phi = one / (one - sj)
    dphi = phi * phi
    d2phi = 2.0 * phi * dphi
    edge = phi - sj * dphi
    delta = edge + (bsq - sj * sj) * d2phi
    q = dphi / edge
    psi = d2phi / (2.0 * delta)
    theta = (phi * dphi - sj * (phi * d2phi + dphi * dphi)) / ((2.0 * phi) * delta)
    common = r00 - (2.0 * alpha * q) * s0
    lead = alpha * q
    coef_b = psi * common
    coef_y = (theta * common) / alpha

    G = [gbar[i] + lead * si0[i] + coef_b * bup[i] + coef_y * yJ[i] for i in range(n)]
    return Spray(bundle=bundle, y=y, G=_array_jet(G), Gbar=_array_jet(gbar))


def alpha_quadratics(bundle: AlphaBetaBundle, y) -> tuple[float, float]:
    """(Ricbar(y, y), r00) at one y, in scalar jets: the oracle of the tensor fits of ``finsler.extract_scalars``.

    Ricbar is the trace of the curvature of alpha's own spray, Gbar^i =
    Gamma^i_jk y^j y^k / 2 lifted into scalar jets, not the bundle's Ricci
    tensor.  r00 = b_i|j y^i y^j = y^j dbeta/dx^j - 2 b_i Gbar^i, with beta
    and Gbar^i = a^il (y^j d2alpha^2/dx^j dy^l - dalpha^2/dx^l) / 4 read off
    this module's own scalar-jet walk of the metric, not the bundle's r.
    """
    y = np.asarray(y, dtype=float)
    n = bundle.n
    yJ, alpha2, _, beta = _fiber_jets(bundle, y)
    gbar = _array_jet([0.5 * _sym_quadratic(g, yJ) for g in _field_jets(bundle.gamma, bundle.dgamma)])
    _, ricbar = riemann_curvature(Spray(bundle=bundle, y=y, G=gbar, Gbar=gbar))
    h = alpha2.hess_matrix()
    gbar_walk = np.linalg.solve(0.5 * h[n:, n:], y @ h[:n, n:] - alpha2.grad[:n]) / 4.0
    r00 = beta.grad[:n] @ y - 2.0 * beta.grad[n:] @ gbar_walk
    return float(ricbar), float(r00)


def unit_alpha_vectors_loop(bundle: AlphaBetaBundle, count: int, rng) -> np.ndarray:
    """The y-samples one row at a time: the oracle of ``finsler.unit_alpha_vectors``.

    Each row is drawn on its own and redrawn while its norm is below 1e-8.
    """
    out = np.empty((count, bundle.n))
    for i in range(count):
        v = rng.standard_normal(bundle.n)
        while np.linalg.norm(v) < 1e-8:
            v = rng.standard_normal(bundle.n)
        out[i] = v / bundle.alpha(v)
    return out


def rbar(bundle: AlphaBetaBundle, y) -> np.ndarray:
    """Curvature operator of alpha, Rbar^i_k = R^i_jkl y^j y^l: the classical route, from the bundle's Riemann tensor."""
    y = np.asarray(y, dtype=float)
    return np.einsum("ijkl,j,l->ik", bundle.riem4, y, y)


def gbar(bundle: AlphaBetaBundle, y) -> np.ndarray:
    """Geodesic coefficients of alpha: Gbar^i = (1/2) Gamma^i_jk y^j y^k."""
    y = np.asarray(y, dtype=float)
    return 0.5 * np.einsum("ijk,j,k->i", bundle.gamma, y, y)


# -- the Ricci-identity self-check of the bundle -------------------------------


def rbar4(bundle: AlphaBetaBundle) -> np.ndarray:
    """rbar4[j,s,k,l] = a_sd R^d_jkl (index-lowered)."""
    return np.einsum("sd,djkl->jskl", bundle.a, bundle.riem4)


def D2b(bundle: AlphaBetaBundle) -> np.ndarray:
    """D2b[i,j,k] = b_i|j|k."""
    gamma = bundle.gamma
    Db = bundle.db - np.einsum("mij,m->ij", gamma, bundle.b)  # as formed, before the r + s reassembly
    return (
        bundle.dDb
        - np.einsum("mik,mj->ijk", gamma, Db)
        - np.einsum("mjk,im->ijk", gamma, Db)
    )


def bianchi_check(bundle: AlphaBetaBundle) -> float:
    """Max residual of the Ricci identity b_j|k|l - b_j|l|k = b^s Rbar_jskl.

    Holds for any smooth metric and 1-form, so a nonzero residual certifies
    a bug in the derivative plumbing rather than a property of the data.
    """
    d2b = D2b(bundle)
    comm = d2b - d2b.transpose(0, 2, 1)
    rhs = np.einsum("s,jskl->jkl", bundle.bup, rbar4(bundle))
    return float(np.max(np.abs(comm - rhs)))


def christoffels_fd(spec: MetricSpec, x, h: float = 1e-5) -> np.ndarray:
    """Christoffel symbols from central finite differences of a_ij.

    Oracle for the jet-based ``gamma``; intentionally shares no
    differentiation code with the bundle.
    """
    x = np.asarray(x, dtype=float)
    n = spec.dim
    a = spec.a_values(x)
    a_inv = np.linalg.inv(a)
    dA = np.empty((n, n, n))
    for k in range(n):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        dA[:, :, k] = (spec.a_values(xp) - spec.a_values(xm)) / (2 * h)
    lower = np.empty((n, n, n))
    for l in range(n):
        for j in range(n):
            for k in range(n):
                lower[l, j, k] = 0.5 * (dA[l, j, k] + dA[l, k, j] - dA[j, k, l])
    return np.einsum("il,ljk->ijk", a_inv, lower)


def contraction_set_naive(bundle: AlphaBetaBundle, y, sigma: float = 0.0) -> ContractionSet:
    """Same scalars by plain nested loops over the raw bundle tensors.

    Deliberately pedestrian; used as the dual-implementation oracle for
    ``identity.contraction_set``.
    """
    y = np.asarray(y, dtype=float)
    n = bundle.n
    rng_n = range(n)
    a, a_inv, b, bup = bundle.a, bundle.a_inv, bundle.b, bundle.bup
    r, s, r_up, s_up = bundle.r, bundle.s, bundle.r_up, bundle.s_up
    rvec, svec, supvec = bundle.rvec, bundle.svec, bundle.supvec
    Dr, Ds, Drvec, Dsvec = bundle.Dr, bundle.Ds, bundle.Drvec, bundle.Dsvec

    def dot1(v, w):
        acc = 0.0
        for i in rng_n:
            acc += v[i] * w[i]
        return acc

    alpha2 = 0.0
    beta = 0.0
    ricbar = 0.0
    r00 = 0.0
    for i in rng_n:
        beta += b[i] * y[i]
        for j in rng_n:
            alpha2 += a[i, j] * y[i] * y[j]
            ricbar += bundle.ricci_tensor[i, j] * y[i] * y[j]
            r00 += r[i, j] * y[i] * y[j]
    rkk = 0.0
    for k in rng_n:
        rkk += r_up[k, k]
    r00_0 = 0.0
    br00k = 0.0
    r0_0 = 0.0
    s0_0 = 0.0
    sk0k = 0.0
    bs0k = 0.0
    for i in rng_n:
        for j in rng_n:
            r0_0 += Drvec[i, j] * y[i] * y[j]
            s0_0 += Dsvec[i, j] * y[i] * y[j]
            bs0k += Dsvec[i, j] * y[i] * bup[j]
            for k in rng_n:
                r00_0 += Dr[i, j, k] * y[i] * y[j] * y[k]
                br00k += Dr[i, j, k] * y[i] * y[j] * bup[k]
                sk0k += a_inv[k, i] * Ds[i, j, k] * y[j]
    r0k = [sum(r[i, k] * y[i] for i in rng_n) for k in rng_n]
    s0k = [sum(s[i, k] * y[i] for i in rng_n) for k in rng_n]
    sk0 = [sum(s_up[k, j] * y[j] for j in rng_n) for k in rng_n]
    sjk_skj = 0.0
    for j in rng_n:
        for k in rng_n:
            sjk_skj += s_up[j, k] * s_up[k, j]
    return ContractionSet(
        n=n,
        sigma=float(sigma),
        alpha=float(np.sqrt(alpha2)),
        beta=float(beta),
        bsq=bundle.bsq,
        ricbar=float(ricbar),
        r00=float(r00),
        r0=float(dot1(rvec, y)),
        r=float(dot1(rvec, bup)),
        rkk=float(rkk),
        s0=float(dot1(svec, y)),
        r00_0=float(r00_0),
        br00k=float(br00k),
        r0_0=float(r0_0),
        s0_0=float(s0_0),
        sk0k=float(sk0k),
        bs0k=float(bs0k),
        r0k_sk0=float(dot1(r0k, sk0)),
        s0k_sk0=float(dot1(s0k, sk0)),
        sjk_skj=float(sjk_skj),
        sk_sk=float(dot1(supvec, svec)),
        rk_sk0=float(dot1(rvec, sk0)),
        r0k_sk=float(dot1(r0k, supvec)),
        sk0_sk=float(dot1(sk0, svec)),
    )


def validate_spec_loop(spec: MetricSpec, samples: int = 200, seed: int = 0) -> ValidationReport:
    """``dsl.validate_spec`` one point at a time: a Cholesky and a solve per point.

    The oracle of the batched factor-and-solve; the components are
    evaluated as there, in one batch with a per-point retry when it fails.
    """
    rng = np.random.default_rng(seed)
    pts = sample_domain(spec, samples, rng)
    failed: dict[int, str] = {}
    try:
        a, b = spec.a_values(pts), spec.b_values(pts)
    except JetError:
        a, b = np.zeros((samples, spec.dim, spec.dim)), np.zeros((samples, spec.dim))
        for p, x in enumerate(pts):
            try:
                a[p], b[p] = spec.a_values(x), spec.b_values(x)
            except JetError as exc:
                failed[p] = str(exc)
    violations = []
    for p, x in enumerate(pts):
        if p in failed:
            violations.append((x, "evaluation failed", failed[p]))
            continue
        try:
            np.linalg.cholesky(a[p])
        except np.linalg.LinAlgError:
            violations.append((x, "not positive definite", f"min eig {np.linalg.eigvalsh(a[p])[0]:.3g}"))
            continue
        bsq = float(b[p] @ np.linalg.solve(a[p], b[p]))
        if bsq >= 0.25:
            violations.append((x, "b^2 >= 1/4", f"b^2 = {bsq:.6g}"))
    return ValidationReport(spec.name, samples, violations)
