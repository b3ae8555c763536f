"""S-curvature of the slope metric under Busemann-Hausdorff / Holmes-Thompson volume.

The volume-form factor f(b) is a ratio of integrals over [0, pi] (one per
form); it is evaluated by adaptive Gauss-Legendre quadrature with the norm
b carried as an order-2 jet direction, so f'(b) and f''(b) come out of the
same pass with no finite differencing.

S itself is computed two ways:

* ``s_curvature_def``    -- straight from the definition
  S = dG^i/dy^i - y^i d(ln sigma_F)/dx^i with sigma_F = f(b(x)) sqrt(det a),
  every x-derivative taken by jets;
* ``s_curvature_closed`` -- the closed rational form in (s, b^2, r00, r0, s0)
  obtained by dividing the spray divergence through the volume term.

The two routes share only the quadrature value of f; agreement is asserted
in the tests.  Two details of the closed form differ from the printed
source derivation and were fixed against the definition route (machine
precision over random metrics): the lone r0 term carries the first power
of (3s - 2b^2 - 1), and the Lambda(r0 + s0) volume term enters with a
minus sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .jets import Jet, JetError
from .riemann import AlphaBetaBundle
from . import finsler

__all__ = [
    "VolumeFactor",
    "volume_factor",
    "s_curvature_closed",
    "s_curvature_def",
    "constant_killing_verdict",
    "FORMS",
]

FORMS = ("bh", "ht")

_GL_NODES, _GL_WEIGHTS = leggauss(25)
_MEMO: dict = {}


def _quad_jet(integrand, lo: float, hi: float, tol: float = 1e-11, max_panels: int = 64) -> Jet:
    """Adaptive panel-doubling Gauss-Legendre quadrature of a jet-valued integrand."""

    def with_panels(m: int) -> Jet:
        acc = None
        width = (hi - lo) / m
        for p in range(m):
            a = lo + p * width
            mid = a + 0.5 * width
            half = 0.5 * width
            for node, w in zip(_GL_NODES, _GL_WEIGHTS):
                term = (w * half) * integrand(mid + half * node)
                acc = term if acc is None else acc + term
        return acc

    prev = with_panels(1)
    m = 2
    while m <= max_panels:
        cur = with_panels(m)
        dev = max(
            abs(cur.val - prev.val),
            float(np.max(np.abs(cur.grad - prev.grad))),
            float(np.max(np.abs(cur.hess - prev.hess))),
        )
        if dev < tol:
            return cur
        prev = cur
        m *= 2
    return prev


@dataclass
class VolumeFactor:
    """Volume-form distortion factor relative to the Riemannian volume of alpha."""

    form: str
    n: int
    b: float
    f: float
    fprime: float
    fsecond: float
    Lambda: float


def volume_factor(n: int, b: float, form: str = "bh") -> VolumeFactor:
    """f(b), f'(b) and Lambda = f'(b)/(b f(b)) for the requested volume form.

    For b below 1e-4 the ratio f'/(b f) is replaced by its even-function
    limit f''(b)/f(b), which the order-2 jet provides directly.
    """
    form = form.lower()
    if form not in FORMS:
        raise ValueError(f"form must be one of {FORMS}")
    if not 0.0 <= b < 0.5:
        raise ValueError(f"b = {b} outside [0, 1/2)")
    if n < 2:
        raise ValueError("dimension must be >= 2")
    key = (n, form, int(round(b * 1e12)))
    hit = _MEMO.get(key)
    if hit is not None:
        return hit

    bJ = Jet.variable(b, 0, 1)
    power = n - 2

    def sin_pow(t: float) -> float:
        return math.sin(t) ** power if power else 1.0

    plain = _quad_jet(lambda t: Jet.constant(sin_pow(t), 1), 0.0, math.pi)

    if form == "bh":
        # denominator integrand: sin^(n-2) t / phi(b cos t)^n = sin^(n-2) t (1 - b cos t)^n
        def integrand(t: float) -> Jet:
            return sin_pow(t) * (1.0 - bJ * math.cos(t)) ** n

        fJ = plain.val / _quad_jet(integrand, 0.0, math.pi)
    else:
        # numerator integrand: sin^(n-2) t * T(b cos t), with
        # T(s) = phi (phi - s phi')^(n-2) [phi - s phi' + (b^2 - s^2) phi'']
        def integrand(t: float) -> Jet:
            u = bJ * math.cos(t)
            phi = 1.0 / (1.0 - u)
            dphi = phi * phi
            d2phi = 2.0 * phi * dphi
            edge = phi - u * dphi
            delta = edge + (bJ * bJ - u * u) * d2phi
            return sin_pow(t) * (phi * edge**power * delta)

        fJ = _quad_jet(integrand, 0.0, math.pi) / plain.val

    f = fJ.val
    fp = float(fJ.grad[0])
    fpp = fJ.hess_entry(0, 0)
    if f <= 0.0:
        raise JetError(f"volume factor f({b}) = {f} not positive")
    lam = fpp / f if b < 1e-4 else fp / (b * f)
    out = VolumeFactor(form=form, n=n, b=b, f=f, fprime=fp, fsecond=fpp, Lambda=lam)
    _MEMO[key] = out
    return out


def _pointwise_scalars(bundle: AlphaBetaBundle, y):
    y = np.asarray(y, dtype=float)
    al = bundle.alpha(y)
    s = bundle.beta(y) / al
    return (
        al,
        s,
        bundle.bsq,
        float(y @ bundle.r @ y),
        float(bundle.rvec @ y),
        float(bundle.svec @ y),
    )


def s_curvature_closed(bundle: AlphaBetaBundle, y, form: str = "bh") -> float:
    """Closed form of S at (x, y): see module docstring for the two fixes."""
    al, s, b2, r00, r0, s0 = _pointwise_scalars(bundle, y)
    n = bundle.n
    d1 = 2.0 * s - 1.0
    d2 = 3.0 * s - 2.0 * b2 - 1.0
    vf = volume_factor(n, math.sqrt(max(b2, 0.0)), form)
    spray_part = (
        2.0 * s0 / d1**2
        + 6.0 * (b2 - s * s) / (d1 * d2**2) * s0
        - 2.0 * s / (d1 * d2) * s0
        + 4.0 * (b2 - s * s) / (d1**2 * d2) * s0
        + (n + 1) * (4.0 * s - 1.0) / (d1 * d2) * s0
        + 3.0 * (b2 - s * s) / (al * d2**2) * r00
        + (n + 1) * (4.0 * s - 1.0) / (2.0 * al * d2) * r00
        - 2.0 / d2 * r0
    )
    return spray_part - vf.Lambda * (r0 + s0)


def s_curvature_def(
    bundle: AlphaBetaBundle, y, form: str = "bh", mode: str = "matsumoto", G=None
) -> float:
    """S from the definition: spray divergence minus the log-volume drift.

    d(ln sigma_F)/dx^k = 1/2 d(ln det a)/dx^k + Lambda/2 * d(b^2)/dx^k, the
    first by jets through the determinant of a (``bundle.dlndet``), the
    second from the bundle's exact derivative of b^2; Lambda absorbs
    f'/(f b) with its b -> 0 limit so beta = 0 costs nothing special.
    ``G`` is the spray at (x, y) when the caller already has it.
    """
    y = np.asarray(y, dtype=float)
    n = bundle.n
    if G is None:
        G = finsler.spray(bundle, y, mode=mode)
    div_g = float(np.trace(G.G.grad[:, n:]))
    vf = volume_factor(n, math.sqrt(max(bundle.bsq, 0.0)), form)
    dln_sigma = 0.5 * bundle.dlndet + 0.5 * vf.Lambda * bundle.d_bsq
    return float(div_g - y @ dln_sigma)


def constant_killing_verdict(bundles, tol: float = 1e-9):
    """True iff max |r_ij| and max |s_i| stay below tol at every sampled point."""
    max_r = 0.0
    max_si = 0.0
    for bu in bundles:
        max_r = max(max_r, float(np.max(np.abs(bu.r))))
        max_si = max(max_si, float(np.max(np.abs(bu.svec))))
    return (max_r <= tol and max_si <= tol), {"max_r": max_r, "max_s_i": max_si}
