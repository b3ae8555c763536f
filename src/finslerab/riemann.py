"""Riemannian geometry of alpha and covariant calculus of beta at a chart point.

Everything here is exact differentiation: the metric components are
evaluated as order-2 jets in the chart coordinates, so first and second
partials of a_ij and b_i carry no finite-difference noise.  From those the
bundle holds, as plain ndarrays,

* ``gamma[i, j, k]``  = Gamma^i_jk (Christoffel symbols),
* ``dgamma[i, j, k, l]`` = d Gamma^i_jk / dx^l,
* ``riem4[i, j, k, l]`` = R^i_jkl = d_k Gamma^i_jl - d_l Gamma^i_jk
  + Gamma^i_km Gamma^m_jl - Gamma^i_lm Gamma^m_jk,
* ``Db[i, j]`` = b_i|j,
* the symmetric/antisymmetric split r/s of Db and all its b- and
  index-raised contractions,
* the exact first x-derivatives of the fields the spray is built from
  (``dA``, ``db``, ``dgamma``, ``dr``, ``d_bup``, ``d_bsq``, ``d_s_up``,
  ``d_svec``; the last index is always the derivative direction),
* ``dlndet[k]`` = d(ln det a)/dx^k, by Jacobi's formula tr(a^-1 d_k a).

``build_bundle`` forms only what the spray, the S-curvature routes and the
beta conditions read.  The curvature of alpha (``riem4``, ``ricci_tensor``)
and the second covariant calculus of b (``Dr``, ``Ds``, ``Drvec``,
``Dsvec``, with ``r_up``, ``supvec`` and ``r_scalar``) are formed on first
use and then kept, by the same expressions; the fits, the Ricci routes and
the appendix read them.

Every input of the spray is a constant, linear or quadratic function of y
with these x-dependent coefficients, so the spray layer differentiates it
in closed form from the arrays alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dsl import MetricSpec
from .jets import ArrayJet, JetError

__all__ = [
    "GeometryError",
    "AlphaBetaBundle",
    "build_bundle",
]


class GeometryError(ValueError):
    """Point outside the domain box, singular or non-positive-definite a(x), or a non-finite result there."""


@dataclass
class AlphaBetaBundle:
    """All alpha-side geometry at one chart point.

    The fields are what ``build_bundle`` forms at every point: what the
    spray, the S-curvature routes and the beta conditions read.  The
    curvature of alpha (``riem4``, ``ricci_tensor``) and the second
    covariant calculus of beta (``Dr``, ``Ds``, ``Drvec``, ``Dsvec``,
    ``r_up``, ``supvec``, ``r_scalar``) are cached properties,
    formed from the fields on first use, so a run that reads none of them,
    such as the ``scurv`` view, forms none.
    """

    spec: MetricSpec
    x: np.ndarray
    n: int
    # metric data and raw partials
    a: np.ndarray
    a_inv: np.ndarray
    dA: np.ndarray
    b: np.ndarray
    db: np.ndarray
    # connection of alpha
    gamma: np.ndarray
    dgamma: np.ndarray
    # 1-form calculus
    bup: np.ndarray
    bsq: float
    Db: np.ndarray
    dDb: np.ndarray  # dDb[i,j,k] = d_k (b_i|j), the partial derivative of the raw Db
    r: np.ndarray
    s: np.ndarray
    s_up: np.ndarray
    rvec: np.ndarray
    svec: np.ndarray
    # exact first x-derivatives of the spray's fields (last index: d/dx^k)
    dr: np.ndarray
    d_bup: np.ndarray
    d_bsq: np.ndarray
    d_s_up: np.ndarray
    d_svec: np.ndarray
    dlndet: np.ndarray
    # the y-independent parts of the spray's packed inputs, built by the first
    # ``finsler.spray`` call at this point and reused by every later one
    # (nothing changes a bundle's arrays after ``build_bundle``)
    spray_inputs: object = field(default=None, init=False, repr=False, compare=False)
    # (volume factor record, d(ln sigma_F)/dx) of the last ``scurvature.s_curvature_def``
    # at this point: the drift depends on the point and on f alone, not on y
    volume_drift: object = field(default=None, init=False, repr=False, compare=False)

    # -- formed on first use --------------------------------------------------

    @cached_property
    def riem4(self) -> np.ndarray:
        gamma, dgamma = self.gamma, self.dgamma
        return (
            dgamma.transpose(0, 1, 3, 2)  # d_k Gamma^i_jl : dgamma[i,j,l,k]
            - dgamma  # d_l Gamma^i_jk : dgamma[i,j,k,l]
            + np.einsum("ikm,mjl->ijkl", gamma, gamma)
            - np.einsum("ilm,mjk->ijkl", gamma, gamma)
        )

    @cached_property
    def ricci_tensor(self) -> np.ndarray:
        return np.einsum("kjkl->jl", self.riem4)

    @cached_property
    def Dr(self) -> np.ndarray:
        gamma, r = self.gamma, self.r
        return self.dr - np.einsum("mik,mj->ijk", gamma, r) - np.einsum("mjk,im->ijk", gamma, r)

    @cached_property
    def Ds(self) -> np.ndarray:
        gamma, s = self.gamma, self.s
        ds = 0.5 * (self.dDb - self.dDb.transpose(1, 0, 2))
        return ds - np.einsum("mik,mj->ijk", gamma, s) - np.einsum("mjk,im->ijk", gamma, s)

    @cached_property
    def r_up(self) -> np.ndarray:
        return self.a_inv @ self.r

    @cached_property
    def supvec(self) -> np.ndarray:
        return self.a_inv @ self.svec

    @cached_property
    def r_scalar(self) -> float:
        return float(self.rvec @ self.bup)

    # covariant derivatives of the contracted vectors:
    # r_i|j = (b^m)|j r_mi + b^m r_mi|j,   (b^m)|j = r^m_j + s^m_j

    @cached_property
    def Drvec(self) -> np.ndarray:
        bup_cov = self.r_up + self.s_up
        return np.einsum("mj,mi->ij", bup_cov, self.r) + np.einsum("m,mij->ij", self.bup, self.Dr)

    @cached_property
    def Dsvec(self) -> np.ndarray:
        bup_cov = self.r_up + self.s_up
        return np.einsum("mj,mi->ij", bup_cov, self.s) + np.einsum("m,mij->ij", self.bup, self.Ds)

    # -- y-dependent alpha quantities (closed forms in y) --------------------

    def alpha2(self, y) -> float:
        y = np.asarray(y, dtype=float)
        return float(y @ self.a @ y)

    def alpha(self, y) -> float:
        return float(np.sqrt(self.alpha2(y)))

    def beta(self, y) -> float:
        return float(self.b @ np.asarray(y, dtype=float))

    def nonlinear_connection(self, y) -> np.ndarray:
        """N^i_j = d Gbar^i / d y^j = Gamma^i_jk y^k, shape (n, n), or (m, n, n) for a stack of y."""
        y = np.asarray(y, dtype=float)
        return np.einsum("ijk,...k->...ij", self.gamma, y)

    def ricbar(self, y):
        """Ricci curvature of alpha, Ricbar_jk y^j y^k: a float for one y, shape (m,) for a stack."""
        y = np.asarray(y, dtype=float)
        # each row is the one-y product (y Ricbar) y, with the same bits
        ric = (y[..., None, :] @ self.ricci_tensor @ y[..., :, None])[..., 0, 0]
        return ric if y.ndim > 1 else float(ric)


def build_bundle(spec: MetricSpec, x, jets: tuple[ArrayJet, ArrayJet] | None = None) -> AlphaBetaBundle:
    """Evaluate all alpha/beta geometry of ``spec`` at the chart point ``x``.

    ``jets`` are the order-2 jets of a_ij and b_i at ``x`` in the n chart
    directions, as ``spec.a_jet`` and ``spec.b_jet`` give them over
    ``spec.chart_jets(x)``; a run passes each point's slice of one walk
    over many points.  Without them the metric is walked here, at ``x``
    alone.  Everything after the jets is per point.  A ``GeometryError``
    names a point where a field formed from the jets is not finite.
    """
    x = np.asarray(x, dtype=float)
    n = spec.dim
    if x.shape != (n,):
        raise GeometryError(f"point has {x.shape} coordinates, metric has dim {n}")
    for k, (lo, hi) in enumerate(spec.domain):
        if not lo <= x[k] <= hi:
            raise GeometryError(f"x{k + 1} = {x[k]} outside domain [{lo}, {hi}]")

    if jets is None:
        env = spec.chart_jets(x)
        try:
            jets = spec.a_jet(env), spec.b_jet(env)
        except JetError as exc:
            raise GeometryError(f"metric evaluation failed at x={x}: {exc}") from exc
    A, B = jets
    # d2A[i,j,k,l] = d^2 a_ij / dx^k dx^l, and likewise d2b
    a, dA, d2A = A.val, A.grad, A.hess
    b, db, d2b = B.val, B.grad, B.hess

    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise GeometryError(f"a(x) not positive definite at x={x}") from None
    a_inv = np.linalg.inv(a)

    # Christoffels and their exact first derivatives:
    # gamma[i,j,k] = 1/2 a^il (d_k a_lj + d_j a_lk - d_l a_jk)
    lower = 0.5 * (dA + dA.transpose(0, 2, 1) - dA.transpose(2, 0, 1))
    gamma = np.einsum("il,ljk->ijk", a_inv, lower)

    d_ainv = -np.einsum("ip,pqm,qj->ijm", a_inv, dA, a_inv)
    # dlower[l,j,k,m] = d_m lower[l,j,k]
    dlower = 0.5 * (d2A + d2A.transpose(0, 2, 1, 3) - d2A.transpose(2, 0, 1, 3))
    dgamma = np.einsum("ilm,ljk->ijkm", d_ainv, lower) + np.einsum(
        "il,ljkm->ijkm", a_inv, dlower
    )

    # covariant calculus of b
    bup = a_inv @ b
    bsq = float(bup @ b)
    Db = db - np.einsum("mij,m->ij", gamma, b)
    dDb = d2b - np.einsum("mijk,m->ijk", dgamma, b) - np.einsum("mij,mk->ijk", gamma, db)
    # r symmetric and s antisymmetric bit-exactly (both are symmetrized sums,
    # which IEEE arithmetic keeps structurally (anti)symmetric); Db is then
    # re-assembled as r + s so the decomposition reconstructs it bit-exactly.
    r = 0.5 * (Db + Db.T)
    s = 0.5 * (Db - Db.T)
    Db = r + s
    dr = 0.5 * (dDb + dDb.transpose(1, 0, 2))
    ds = 0.5 * (dDb - dDb.transpose(1, 0, 2))

    s_up = a_inv @ s
    rvec = bup @ r  # r_j = b^i r_ij
    svec = bup @ s

    d_bup = np.einsum("imk,m->ik", d_ainv, b) + a_inv @ db
    d_bsq = np.einsum("ijk,i,j->k", d_ainv, b, b) + 2.0 * np.einsum("ij,ik,j->k", a_inv, db, b)
    d_s_up = np.einsum("imk,mj->ijk", d_ainv, s) + np.einsum("im,mjk->ijk", a_inv, ds)
    d_svec = np.einsum("mk,mj->jk", d_bup, s) + np.einsum("m,mjk->jk", bup, ds)

    # the arrays formed from the jets: an einsum that overflows sets no
    # floating-point flag, so they and b^2 are checked to be finite here
    formed = dict(
        a_inv=a_inv, gamma=gamma, dgamma=dgamma, bup=bup, Db=Db, dDb=dDb, r=r, s=s, s_up=s_up, rvec=rvec, svec=svec,
        dr=dr, d_bup=d_bup, d_bsq=d_bsq, d_s_up=d_s_up, d_svec=d_svec, dlndet=np.einsum("ij,jik->k", a_inv, dA),
    )
    _finite("geometry", x, dict(formed, bsq=bsq))
    return AlphaBetaBundle(spec=spec, x=x, n=n, a=a, dA=dA, b=b, db=db, bsq=bsq, **formed)


def _finite(what: str, x, held: dict):
    """Raise a ``GeometryError`` at x naming each entry of ``held``, a number or an array, that is not finite."""
    if held and not np.isfinite(np.concatenate(list(held.values()), axis=None)).all():
        bad = [name for name, v in held.items() if not np.isfinite(v).all()]
        raise GeometryError(f"non-finite {what} at x={x}: {', '.join(bad)}")
