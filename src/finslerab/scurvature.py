"""S-curvature of the slope metric under Busemann-Hausdorff / Holmes-Thompson volume.

The volume-form factor f(b) is a ratio of integrals over [0, pi] (one per
form).  It is evaluated by one fixed 40-node Gauss-Legendre rule, which
converges geometrically, as each integrand is analytic in a strip around the
real axis, but not to machine precision everywhere: against 40-digit mpmath
at b = 0.4999, the HT Lambda is off by 6.9e-16 (relative) at n = 12, 5.4e-12
at n = 20 and 4.7e-9 at n = 32, where f is off by 7.7e-11, and the BH f and
Lambda by 1.1e-13 and 3.2e-13 at n = 32.  Both S routes read this Lambda, so
their cross-check cannot see the error (ROADMAP, item 11).  The rule's nodes
and weights, mapped to [0, pi], are stored as float literals, so importing
this module computes no rule; a test pins them bit for bit to numpy's
``leggauss(40)`` mapped the same way.
f'(b) and f''(b) are differentiated under the integral sign in closed form,
so all three come out of the same pass with no finite differencing.  f
depends on x only through b = ||beta||_alpha(x), so every y-sample of a
point asks for the same (n, b, form): the last result is kept, one entry,
and returned again while the key matches.  That is the only state kept
between calls, and a hit returns the very record a fresh evaluation would
build.

S itself is computed two ways:

* ``s_curvature_def(sp, form)``    -- straight from the definition
  S = dG^i/dy^i - y^i d(ln sigma_F)/dx^i with sigma_F = f(b(x)) sqrt(det a),
  the spray divergence read off the ``finsler.Spray`` record ``sp`` and
  d(ln det a)/dx^i by Jacobi's formula from the exact partials of a.  The
  drift d(ln sigma_F)/dx does not depend on y: it is formed once per point
  and record of f, and kept on the bundle (``bundle.volume_drift``);
* ``s_curvature_closed(bundle, y, form)`` -- the closed rational form in
  (s, b^2, r00, r0, s0) obtained by dividing the spray divergence through
  the volume term, with alpha, beta and the three contractions of y read
  by ``ndarray.dot``, which gives the bits of ``@``.

Both are called once per y-sample, so each keeps its per-call work to the
few products that depend on y.

The two routes share only Lambda = f'/(b f): the closed form never reads det a
or the spray; ``classify.run_check`` asserts their agreement at every sample.
Two details of the closed form differ from the printed source derivation and
were fixed against the definition route (machine precision over random
metrics): the lone r0 term carries the first power of (3s - 2b^2 - 1), and the
Lambda(r0 + s0) volume term enters with a minus sign.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .finsler import Spray
from .jets import JetError
from .riemann import AlphaBetaBundle

__all__ = [
    "VolumeFactor",
    "volume_factor",
    "s_curvature_closed",
    "s_curvature_def",
    "FORMS",
]

FORMS = ("bh", "ht")

# One fixed Gauss-Legendre rule on [0, pi].  Every integrand below is
# sin^(n-2) t, which is entire, times a rational function of b cos t whose
# only pole (1 - b cos t = 0) lies at |Im t| >= acosh 2 for b < 1/2; the
# error grows with n all the same (module docstring).  The literals are
# 0.5 pi (x + 1) and 0.5 pi w for (x, w) = numpy's leggauss(40), bit for bit.
_NODES = np.array([
    0.002768199113400018, 0.01456719018646565, 0.035719987036619556, 0.06610410579882159,
    0.10553739396351941, 0.15378283440213047, 0.21055031999594598, 0.2754984635717852,
    0.34823666841041073, 0.42832748313168584, 0.5152892348376665, 0.608598926940507,
    0.7076953850009173, 0.8119826319427471, 0.9208334724638646, 1.0335932651402349,
    1.1495838595634769, 1.2681076748469198, 1.3884518949788065, 1.5098927557954338,
    1.6316998977943593, 1.7531407586109866, 1.8734849787428733, 1.9920087940263163,
    2.1079993884495583, 2.220759181125928, 2.329610021647046, 2.433897268588876,
    2.5329937266492863, 2.626303418752127, 2.7132651704581074, 2.7933559851793826,
    2.866094190018008, 2.9310423335938474, 2.9878098191876625, 3.036055259626274,
    3.0754885477909717, 3.1058726665531737, 3.1270254634033274, 3.1388244544763935,
])
_WEIGHTS = np.array([
    0.007102005458802785, 0.016490666779184093, 0.025794138188383792, 0.03494369820063019,
    0.043883347945864196, 0.052559151843666156, 0.06091888699944359, 0.06891226143121164,
    0.07649119576348187, 0.08361010652556858, 0.09022617831327084, 0.09629962051748982,
    0.10179390629919553, 0.10667599211169579, 0.11091651635116936, 0.11448997589996213,
    0.11737487948273011, 0.11955387690453353, 0.12101386338934692, 0.12174605838926557,
    0.12174605838926557, 0.12101386338934692, 0.11955387690453353, 0.11737487948273011,
    0.11448997589996213, 0.11091651635116936, 0.10667599211169579, 0.10179390629919553,
    0.09629962051748982, 0.09022617831327084, 0.08361010652556858, 0.07649119576348187,
    0.06891226143121164, 0.06091888699944359, 0.052559151843666156, 0.043883347945864196,
    0.03494369820063019, 0.025794138188383792, 0.016490666779184093, 0.007102005458802785,
])
_COS, _SIN = np.cos(_NODES), np.sin(_NODES)

# The last (key, VolumeFactor) that volume_factor returned, or None: one entry,
# replaced on every miss.
_last: tuple | None = None


class VolumeFactor(NamedTuple):
    """Volume-form distortion factor relative to the Riemannian volume of alpha."""

    f: float
    fprime: float
    fsecond: float
    Lambda: float


def volume_factor(n: int, b: float, form: str = "bh") -> VolumeFactor:
    """f(b), f'(b) and Lambda = f'(b)/(b f(b)) for the requested volume form.

    For b below 1e-4 the ratio f'/(b f) is replaced by its even-function
    limit f''(b)/f(b), which the same quadrature provides directly.  A call
    whose (n, b, form) equal the previous call's returns the previous
    (immutable) record without evaluating the rule again.
    """
    global _last
    form = form.lower()
    if form not in FORMS:
        raise ValueError(f"form must be one of {FORMS}")
    if not 0.0 <= b < 0.5:
        raise ValueError(f"b = {b} outside [0, 1/2)")
    if n < 2:
        raise ValueError("dimension must be >= 2")
    key = (n, b, form)  # the rule's bits depend on neither the types of n and b nor the sign of a zero b
    last = _last
    if last is not None and last[0] == key:
        return last[1]
    vf = _quadrature(n, b, form)
    _last = (key, vf)
    return vf


def _quadrature(n: int, b: float, form: str) -> VolumeFactor:
    """One evaluation of the Gauss-Legendre rule for valid, lower-case arguments."""
    w = _WEIGHTS * _SIN ** (n - 2)
    c = _COS
    u = b * c
    plain = float(np.sum(w))
    # integrals of the integrand and of its first two b-derivatives
    if form == "bh":
        # denominator: phi(u)^-n = (1 - u)^n, with its n-1 and n-2 powers
        v = 1.0 - u
        v2 = v ** (n - 2)
        v1 = v2 * v
        i0 = float((v1 * v) @ w)
        i1 = -n * float((c * v1) @ w)
        i2 = n * (n - 1) * float((c * c * v2) @ w)
        f = plain / i0
        fp = -f * i1 / i0
        fpp = f * (2.0 * (i1 / i0) ** 2 - i2 / i0)
    else:
        # numerator: T(u) = phi (phi - u phi')^(n-2) [phi - u phi' + (b^2 - u^2) phi'']
        #                 = (1 - 2u)^(n-2) q / (1 - u)^(2n)
        # with q = 1 - 3u + 2b^2 >= (1 - b)(1 - 2b) > 0, differentiated through
        # l1 and l2, the first two b-derivatives of ln T
        q = 1.0 - 3.0 * u + 2.0 * b * b
        dq = 4.0 * b - 3.0 * c
        e, v = c / (1.0 - 2.0 * u), c / (1.0 - u)
        t = (1.0 - 2.0 * u) ** (n - 2) * q / (1.0 - u) ** (2 * n)
        l1 = -2.0 * (n - 2) * e + dq / q + 2.0 * n * v
        l2 = -4.0 * (n - 2) * e * e + (4.0 - dq * dq / q) / q + 2.0 * n * v * v
        i0, i1, i2 = map(float, np.stack([t, t * l1, t * (l2 + l1 * l1)]) @ w)
        f, fp, fpp = i0 / plain, i1 / plain, i2 / plain
    if f <= 0.0:
        raise JetError(f"volume factor f({b}) = {f} not positive")
    lam = fpp / f if b < 1e-4 else fp / (b * f)
    # floats whatever the types of n and b, which may make numpy scalars of them
    return VolumeFactor(*map(float, (f, fp, fpp, lam)))


def _pointwise_scalars(bundle: AlphaBetaBundle, y):
    y = np.asarray(y, dtype=float)
    if y.shape != (bundle.n,):
        raise ValueError(f"s_curvature_closed takes one y of shape ({bundle.n},), got shape {y.shape}")
    # ndarray.dot runs the BLAS kernel of ``@`` without the ufunc dispatch: the same bits, a third of the time
    al = math.sqrt(y.dot(bundle.a).dot(y))
    return (
        al,
        float(bundle.b.dot(y)) / al,
        bundle.bsq,
        float(y.dot(bundle.r).dot(y)),
        float(bundle.rvec.dot(y)),
        float(bundle.svec.dot(y)),
    )


def s_curvature_closed(bundle: AlphaBetaBundle, y, form: str = "bh") -> float:
    """Closed form of S at (x, y), for one y of shape (n,): see module docstring for the two fixes."""
    al, s, b2, r00, r0, s0 = _pointwise_scalars(bundle, y)
    n = bundle.n
    d1 = 2.0 * s - 1.0
    d2 = 3.0 * s - 2.0 * b2 - 1.0
    vf = volume_factor(n, math.sqrt(max(b2, 0.0)), form)
    q, d1d1, d2d2, d1d2, m = b2 - s * s, d1**2, d2**2, d1 * d2, (n + 1) * (4.0 * s - 1.0)
    spray_part = (
        2.0 * s0 / d1d1
        + 6.0 * q / (d1 * d2d2) * s0
        - 2.0 * s / d1d2 * s0
        + 4.0 * q / (d1d1 * d2) * s0
        + m / d1d2 * s0
        + 3.0 * q / (al * d2d2) * r00
        + m / (2.0 * al * d2) * r00
        - 2.0 / d2 * r0
    )
    return spray_part - vf.Lambda * (r0 + s0)


def s_curvature_def(sp: Spray, form: str = "bh") -> float:
    """S from the definition at the one y of the spray ``sp``: spray divergence minus the log-volume drift.

    d(ln sigma_F)/dx^k = 1/2 d(ln det a)/dx^k + Lambda/2 * d(b^2)/dx^k, the
    first by Jacobi's formula tr(a^-1 d_k a) (``bundle.dlndet``), the
    second from the bundle's exact derivative of b^2; Lambda absorbs
    f'/(f b) with its b -> 0 limit so beta = 0 costs nothing special.  The
    divergence reads only the spray's gradient.  The drift is formed at the
    first call at a point and kept on the bundle with the ``VolumeFactor``
    it was formed from; a call that gets another record forms it again.  A
    spray of a stack of y raises ``ValueError``.
    """
    bundle, y, n = sp.bundle, sp.y, sp.bundle.n
    if y.shape != (n,):
        raise ValueError(f"s_curvature_def takes one y of shape ({n},), got a spray at shape {y.shape}")
    div_g = float(sp.G.grad[:, n:].trace())
    vf = volume_factor(n, math.sqrt(max(bundle.bsq, 0.0)), form)
    drift = bundle.volume_drift
    if drift is None or drift[0] is not vf:
        # the same at every y of the point, for this record of f: formed once and kept on the bundle
        drift = bundle.volume_drift = (vf, 0.5 * bundle.dlndet + 0.5 * vf.Lambda * bundle.d_bsq)
    return float(div_g - y.dot(drift[1]))

