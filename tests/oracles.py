"""Test-only oracles: independent second implementations of library quantities.

Each one deliberately shares no code with the routine it checks, so a bug
in the library cannot hide in both sides of the comparison.
"""

import numpy as np

from finslerab.dsl import MetricSpec
from finslerab.identity import ContractionSet
from finslerab.riemann import AlphaBetaBundle


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
