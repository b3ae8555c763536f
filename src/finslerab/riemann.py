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

``build_bundle`` holds only what the spray, the S-curvature routes and the
beta conditions read, formed for a chunk of points at once by
``_chunk_pass``.  ``passes`` gives a run's bundles in order, as
``BundlePass``es, from one walk of the metric's jets per chunk of points
(as many as fit a fixed float budget) and array passes of up to 4 points,
split further where the y-stacks of a pass would outgrow a second budget;
``bundles`` flattens it.  It stops at a sample point where b^2 >= 1/4,
outside the domain of F, which ``validate_spec`` may miss;
``build_bundle`` at a lone point is a chunk of one.  Every budget of a
pass is a constant of this module.  The curvature of alpha
(``riem4``, ``ricci_tensor``) and the second covariant calculus of b
(``Dr``, ``Ds``, ``Drvec``, ``Dsvec``, with ``r_up``, ``supvec`` and
``r_scalar``) are formed on first use and then kept, by the same
expressions; the fits, the Ricci routes and the appendix read them.

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
    "BundlePass",
    "build_bundle",
    "bundles",
    "passes",
]


class GeometryError(ValueError):
    """Point outside the domain box, singular or non-positive-definite a(x), or a non-finite result there."""


# no generated eq or repr: they would compare and print some 25 arrays, and each costs import time
@dataclass(eq=False, repr=False)
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
    # (weak reference to the memo, this point's index in its pass) of the last pass stack
    # ``finsler.spray`` formed over this point
    spray_memo: object = field(default=None, init=False)
    # (volume factor record, d(ln sigma_F)/dx) of the last ``scurvature.s_curvature_def``
    # at this point: the drift depends on the point and on f alone, not on y
    volume_drift: object = field(default=None, init=False)

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

    def ricbar(self, y):
        """Ricci curvature of alpha, Ricbar_jk y^j y^k: a float for one y, shape (m,) for a stack."""
        y = np.asarray(y, dtype=float)
        # each row is the one-y product (y Ricbar) y, with the same bits
        ric = (y[..., None, :] @ self.ricci_tensor @ y[..., :, None])[..., 0, 0]
        return ric if y.ndim > 1 else float(ric)


def build_bundle(spec: MetricSpec, x, point: tuple[dict, bool] | None = None) -> AlphaBetaBundle:
    """Evaluate all alpha/beta geometry of ``spec`` at the chart point ``x``.

    ``point`` is this point's slice of a ``_chunk_pass`` over many points:
    every field, as views, and whether the formed ones are finite.  Without
    it ``x`` is walked and formed as a chunk of one.  A ``GeometryError``
    names each check that fails at ``x``.
    """
    x = np.asarray(x, dtype=float)
    n = spec.dim
    if x.shape != (n,):
        raise GeometryError(f"point has {x.shape} coordinates, metric has dim {n}")
    for k, (lo, hi) in enumerate(spec.domain):
        if not lo <= x[k] <= hi:
            raise GeometryError(f"x{k + 1} = {x[k]} outside domain [{lo}, {hi}]")
    if point is None:
        (point,) = _points(*next(_pass_fields(spec, x[None])))
    fields, finite = point
    if not finite:
        _finite("geometry", x, fields)
    return AlphaBetaBundle(spec=spec, x=x, n=n, **fields)


def passes(spec: MetricSpec, pts, y_per_point: int | None = None):
    """The bundles at the points ``pts``, shape (m, n), in order, as ``BundlePass``es.

    With ``y_per_point``, a pass holds at most as many points as their
    y-stacks fit ``_STACK_FLOATS``, and at least one: a pass of the bundle
    algebra that holds more is split, its fields sliced, so the cap does
    not change how the bundles are formed.  A pass is yielded whole, or up
    to a point that fails, which then raises a ``GeometryError``: outside
    the domain box, a non-finite geometry, or b^2 >= 1/4, where F is not
    defined.
    """
    n, start = spec.dim, 0
    most = None if y_per_point is None else max(1, _STACK_FLOATS // (y_per_point * (2 * n + 5) * 2 * n * n))
    for fields, finite in _pass_fields(spec, pts):
        step = most or len(finite)
        for lo in range(0, len(finite), step):
            part, built = {k: v[lo:lo + step] for k, v in fields.items()}, []
            try:
                for x, point in zip(pts[start + lo:start + lo + step], _points(part, finite[lo:lo + step])):
                    built.append(_in_domain(build_bundle(spec, x, point)))
            except GeometryError:
                if built:
                    yield BundlePass(built, {k: v[:len(built)] for k, v in part.items()})
                raise
            yield BundlePass(built, part)
        start += len(finite)


def bundles(spec: MetricSpec, pts):
    """The bundle at each of the points ``pts``, shape (m, n), in order: ``passes``, one bundle at a time.

    Each bundle leaves its pass as it is yielded, so the caller's last
    bundle is the only one held, with the fields it caches on first use.
    """
    for bunch in passes(spec, pts):
        while bunch.bundles:
            yield bunch.bundles.pop(0)


def _in_domain(bu: AlphaBetaBundle) -> AlphaBetaBundle:
    if bu.bsq >= 0.25:
        raise GeometryError(f"b^2 = {bu.bsq:.6g} >= 1/4 at x={bu.x}: F = alpha^2/(alpha - beta) is not defined there")
    return bu


class BundlePass:
    """The bundles of a pass of points, and their fields on the pass's leading point axis.

    ``bundles[k]`` is the k-th point's bundle, and each field of
    ``_chunk_pass`` is an attribute whose k-th entry is that bundle's field,
    the same memory.  ``finsler``'s y-readers take a pass as they take a
    bundle, with y of shape (p, m, n).
    """

    def __init__(self, bundles: list, fields: dict):
        self.bundles, self.n, self.fields = bundles, bundles[0].n, fields
        vars(self).update(fields)

    def part(self, k: int) -> BundlePass:
        """The pass of the k-th point alone."""
        return BundlePass(self.bundles[k:k + 1], {name: v[k:k + 1] for name, v in self.fields.items()})

    def ricbar(self, y):
        """Ricci curvature of alpha at y, shape (p, m, n): each row the bits of its bundle's ``ricbar``."""
        ricci = np.stack([bu.ricci_tensor for bu in self.bundles])[:, None]
        return (y[..., None, :] @ ricci @ y[..., :, None])[..., 0, 0]


# Floats of a and b jets that one walk of the metric may form: the default 20
# points are one walk up to n = 10, and memory stays bounded for any count.
_CHUNK_FLOATS = 2**18
# Floats of dgamma, the largest bundle field, that one pass may form, and the
# points it may hold.  A pass keeps its points' fields until its last point is
# done, so each point of it adds to a run's peak memory (about 20 KB at n = 5);
# 4 points give most of the speed of larger passes.  From n = 14 on, where
# batching gains nothing, a pass is one point.
_PASS_FLOATS, _PASS_POINTS = 2**16, 4
# Floats of y-stack that one pass of a run's y-stage may hold: each y holds the Hessian y columns of
# finsler's spray inputs and of G, (2n + 5) 2n^2 floats, and about as many again in temporaries.  At
# 12 y per point a pass is 4 points up to n = 8, 2 at n = 10 and one from n = 12, whose stack is the
# largest a pass holds: a pass of two such stacks sprayed 20 % slower than the two apart, as its
# larger fresh arrays fault in more pages.
_STACK_FLOATS = 2**17


def _points(fields: dict, finite: list):
    """(fields, finite) of each point of a pass for ``build_bundle``: b^2 a float and each array a view."""
    bsq = fields["bsq"].tolist()
    for i, ok in enumerate(finite):
        yield dict({k: v[i] for k, v in fields.items()}, bsq=bsq[i]), ok


def _pass_fields(spec: MetricSpec, pts):
    """(fields, finite) of each ``_chunk_pass`` over the points ``pts``, in order.

    A chunk is walked, and a pass formed, when its first point is asked for.
    Where a walk fails, or some a(x) of a pass is not positive definite, the
    points are walked again one at a time, and the first that fails alone raises.
    """
    n = spec.dim
    size = max(1, _CHUNK_FLOATS // ((n * n + n) * (1 + n + n * n)))
    part = max(1, min(_PASS_POINTS, _PASS_FLOATS // n**4))
    for start in range(0, len(pts), size):
        chunk = pts[start:start + size]
        env = spec.chart_jets(chunk)
        try:
            jets = spec.a_jet(env), spec.b_jet(env)
        except JetError as exc:
            if len(chunk) == 1:
                raise GeometryError(f"metric evaluation failed at x={chunk[0]}: {exc}") from exc
            for x in chunk:
                yield from _pass_fields(spec, x[None])
            continue
        for lo in range(0, len(chunk), part):
            cut = [ArrayJet(j.val[lo:lo + part], j.grad[lo:lo + part], j.hess[lo:lo + part]) for j in jets]
            try:
                formed = _chunk_pass(*cut)
            except np.linalg.LinAlgError:
                if len(chunk) == 1:
                    raise GeometryError(f"a(x) not positive definite at x={chunk[0]}") from None
                for x in chunk[lo:lo + part]:
                    yield from _pass_fields(spec, x[None])
                continue
            yield formed


def _chunk_pass(A: ArrayJet, B: ArrayJet):
    """(fields, finite) of a pass, from the jets of a and b at a chunk of points.

    ``A`` and ``B`` hold the jets at p points on a leading axis, and each
    contraction is one numpy call for all p.  ``fields`` holds every field
    ``build_bundle`` takes, on that axis, and ``finite`` whether each
    point's formed ones are finite.  A point's entries have the layout and
    bits of a pass over it alone.  A ``LinAlgError`` means some a(x) is not
    positive definite.  No warning is raised: a point that overflows may lie
    beyond where a run stops.
    """
    a, dA, d2A = A.val, A.grad, A.hess
    b, db, d2b = B.val, B.grad, B.hess
    np.linalg.cholesky(a)
    a_inv = np.linalg.inv(a)

    with np.errstate(over="ignore", invalid="ignore"):
        # Christoffels and their exact first derivatives:
        # gamma[i,j,k] = 1/2 a^il (d_k a_lj + d_j a_lk - d_l a_jk)
        lower = 0.5 * (dA + dA.transpose(0, 1, 3, 2) - dA.transpose(0, 3, 1, 2))
        gamma = np.einsum("pil,pljk->pijk", a_inv, lower)

        d_ainv = -np.einsum("pia,pabm,pbj->pijm", a_inv, dA, a_inv)
        # dlower[l,j,k,m] = d_m lower[l,j,k], d2A[i,j,k,l] = d^2 a_ij / dx^k dx^l: in place, for memory
        dlower = d2A + d2A.transpose(0, 1, 3, 2, 4)
        dlower -= d2A.transpose(0, 3, 1, 2, 4)
        dlower *= 0.5
        dgamma = np.einsum("pil,pljkm->pijkm", a_inv, dlower)
        del dlower
        dgamma += np.einsum("pilm,pljk->pijkm", d_ainv, lower)

        # covariant calculus of b; a vector is a (1, n) or (n, 1) matrix in a product, as numpy treats it
        bup = (a_inv @ b[:, :, None])[:, :, 0]
        bsq = (bup[:, None, :] @ b[:, :, None])[:, 0, 0]
        Db = db - np.einsum("pmij,pm->pij", gamma, b)
        dDb = d2b - np.einsum("pmijk,pm->pijk", dgamma, b) - np.einsum("pmij,pmk->pijk", gamma, db)
        # r symmetric and s antisymmetric bit-exactly (both are symmetrized sums,
        # which IEEE arithmetic keeps structurally (anti)symmetric); Db is then
        # re-assembled as r + s so the decomposition reconstructs it bit-exactly.
        r = 0.5 * (Db + Db.swapaxes(1, 2))
        s = 0.5 * (Db - Db.swapaxes(1, 2))
        Db = r + s
        dr = 0.5 * (dDb + dDb.swapaxes(1, 2))
        ds = 0.5 * (dDb - dDb.swapaxes(1, 2))

        s_up = a_inv @ s
        rvec = (bup[:, None, :] @ r)[:, 0]  # r_j = b^i r_ij
        svec = (bup[:, None, :] @ s)[:, 0]

        d_bup = np.einsum("pimk,pm->pik", d_ainv, b) + a_inv @ db
        d_bsq = np.einsum("pijk,pi,pj->pk", d_ainv, b, b) + 2.0 * np.einsum("pij,pik,pj->pk", a_inv, db, b)
        d_s_up = np.einsum("pimk,pmj->pijk", d_ainv, s) + np.einsum("pim,pmjk->pijk", a_inv, ds)
        d_svec = np.einsum("pmk,pmj->pjk", d_bup, s) + np.einsum("pm,pmjk->pjk", bup, ds)

    # the formed fields, b^2 last: an einsum that overflows sets no flag, so each point's
    # are checked to be finite, a field at a time and after the arrays that are not
    # fields are freed, as the pass holds the most memory here
    del lower, d_ainv, ds
    formed = dict(
        a_inv=a_inv, gamma=gamma, dgamma=dgamma, bup=bup, Db=Db, dDb=dDb, r=r, s=s, s_up=s_up, rvec=rvec, svec=svec,
        dr=dr, d_bup=d_bup, d_bsq=d_bsq, d_s_up=d_s_up, d_svec=d_svec,
        dlndet=np.einsum("pij,pjik->pk", a_inv, dA), bsq=bsq,
    )
    finite = np.logical_and.reduce([np.isfinite(v).reshape(len(a), -1).all(axis=1) for v in formed.values()])
    return dict(formed, a=a, dA=dA, b=b, db=db), finite.tolist()


def _finite(what: str, x, held: dict):
    """Raise a ``GeometryError`` at x naming each entry of ``held``, a number or an array, that is not finite."""
    if held and not np.isfinite(np.concatenate(list(held.values()), axis=None)).all():
        bad = [name for name, v in held.items() if not np.isfinite(v).all()]
        raise GeometryError(f"non-finite {what} at x={x}: {', '.join(bad)}")
