"""Cleared-residual polynomial identity for the Einstein equation of F.

Multiplying the Einstein residual Ric - sigma F^2 by

    alpha^2 (beta - alpha)^2 (2 beta - alpha)^4 (3 beta - (2 b^2 + 1) alpha)^4

turns it into a polynomial Sum_m t_m alpha^m of degree 14 whose fifteen
coefficients t_0 .. t_14 are explicit polynomials in the contraction
scalars of (r, s) and their covariant derivatives.  This module holds two
versions of that coefficient table -- the verbatim published one and the
corrected one re-derived symbolically from the curvature-split relation
(tools/rederive_coefficients.py); they differ only in the r00*s0, r0*s0 and
s0^2 brackets of t_3 .. t_12 -- and checks, point by point, that the two
sides of the identity agree:

* the left side is computed entirely through the spray/curvature pipeline
  (jets), knowing nothing of the coefficient table;
* the right side is computed entirely from the coefficient table and the
  covariant contraction scalars, knowing nothing of the spray.

``verify_identity`` evaluates one sample, judged in one ``IdentityCheck``
for the identity and its parity split: the left side at y and -y as one
stack, through one spray and curvature pass, and the right side once at y
and once at -y.
Agreement at generic points over several dimensions and metric families is
overwhelming evidence for the table, since a degree-14 polynomial identity
in ~20 independent quantities cannot hold accidentally.  A failing record
names the coefficient whose zeroing brings the sides closest.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .riemann import AlphaBetaBundle, GeometryError
from . import finsler

__all__ = [
    "ContractionSet",
    "contraction_set",
    "appendix_terms",
    "printed_table_defects",
    "IdentityCheck",
    "verify_identity",
]


class ContractionSet(NamedTuple):
    """Every contraction scalar consumed by the coefficient table, at one (x, y)."""

    n: int
    sigma: float
    alpha: float
    beta: float
    bsq: float
    ricbar: float
    r00: float
    r0: float
    r: float
    rkk: float
    s0: float
    r00_0: float  # r_00|0
    br00k: float  # b^k r_00|k
    r0_0: float  # r_0|0
    s0_0: float  # s_0|0
    sk0k: float  # s^k_0|k
    bs0k: float  # b^k s_0|k
    r0k_sk0: float  # r_0k s^k_0
    s0k_sk0: float  # s_0k s^k_0
    sjk_skj: float  # s^j_k s^k_j
    sk_sk: float  # s^k s_k
    rk_sk0: float  # r_k s^k_0
    r0k_sk: float  # r_0k s^k
    sk0_sk: float  # s^k_0 s_k


def contraction_set(bundle: AlphaBetaBundle, y, sigma: float = 0.0) -> ContractionSet:
    """Contraction scalars via vectorized tensor algebra."""
    y = np.asarray(y, dtype=float)
    r, s = bundle.r, bundle.s
    r0k = np.einsum("ik,i->k", r, y)
    s0k = np.einsum("ik,i->k", s, y)
    sk0 = np.einsum("kj,j->k", bundle.s_up, y)
    return ContractionSet(
        n=bundle.n,
        sigma=float(sigma),
        alpha=float(np.sqrt(y @ bundle.a @ y)),
        beta=float(bundle.b @ y),
        bsq=bundle.bsq,
        ricbar=bundle.ricbar(y),
        r00=float(np.einsum("ij,i,j->", r, y, y)),
        r0=float(np.einsum("i,i->", bundle.rvec, y)),
        r=bundle.r_scalar,
        rkk=float(np.einsum("kk->", bundle.r_up)),
        s0=float(np.einsum("i,i->", bundle.svec, y)),
        r00_0=float(np.einsum("ijk,i,j,k->", bundle.Dr, y, y, y)),
        br00k=float(np.einsum("ijk,i,j,k->", bundle.Dr, y, y, bundle.bup)),
        r0_0=float(np.einsum("ij,i,j->", bundle.Drvec, y, y)),
        s0_0=float(np.einsum("ij,i,j->", bundle.Dsvec, y, y)),
        sk0k=float(np.einsum("km,mjk,j->", bundle.a_inv, bundle.Ds, y)),
        bs0k=float(np.einsum("ik,i,k->", bundle.Dsvec, y, bundle.bup)),
        r0k_sk0=float(np.einsum("k,k->", r0k, sk0)),
        s0k_sk0=float(np.einsum("k,k->", s0k, sk0)),
        sjk_skj=float(np.einsum("jk,kj->", bundle.s_up, bundle.s_up)),
        sk_sk=float(np.einsum("k,k->", bundle.supvec, bundle.svec)),
        rk_sk0=float(np.einsum("k,k->", bundle.rvec, sk0)),
        r0k_sk=float(np.einsum("k,k->", r0k, bundle.supvec)),
        sk0_sk=float(np.einsum("k,k->", sk0, bundle.svec)),
    )


def appendix_terms(cs: ContractionSet, printed: bool = False) -> np.ndarray:
    """The fifteen cleared-identity coefficients t_0 .. t_14 at one (x, y, sigma).

    With ``printed=True`` this is the verbatim published table.  By default
    the corrections of :func:`printed_table_defects` are added: the published
    r00*s0, r0*s0 and s0^2 brackets of t_3 .. t_12 are provably wrong (the
    corrected table was re-derived symbolically from the curvature-split
    relation and checks against the spray pipeline at machine precision over
    random metrics in dimensions 2..5; the printed one deviates at the 1e-3
    level).  t_m is homogeneous of degree 14 - m in y.
    """
    t = _printed_terms(cs)
    if not printed:
        t = t + printed_table_defects(cs)
    return t


def printed_table_defects(cs: ContractionSet) -> np.ndarray:
    """Correction (true minus printed) for the published coefficient table.

    Nonzero only in the r00*s0, r0*s0, s0^2 monomial families of t_3 .. t_12.
    Machine-generated from the symbolic re-derivation; do not hand-edit.
    The corrections carry no explicit n-dependence.
    """
    B = cs.beta
    b2 = cs.bsq
    R00, R0, S0 = cs.r00, cs.r0, cs.s0
    b4, b6 = b2 * b2, b2**3
    d = [0] * 15  # a plain list, as in _printed_terms: the same code runs on floats and on sympy scalars
    d[3] = -1728 * B**8 * R00 * S0
    d[4] = 576 * B**7 * S0 * (3 * B * R0 + 4 * R00 * b2 + 14 * R00)
    d[5] = -48 * B**6 * S0 * (48 * B * R0 * b2 + 159 * B * R0 + 72 * B * S0 + 16 * R00 * b4 + 208 * R00 * b2 + 334 * R00)
    d[6] = 24 * B**5 * S0 * (
        32 * B * R0 * b4 + 392 * B * R0 * b2 + 593 * B * R0
        + 240 * B * S0 * b2 + 588 * B * S0
        + 128 * R00 * b4 + 752 * R00 * b2 + 740 * R00
    )
    d[7] = -12 * B**4 * S0 * (
        240 * B * R0 * b4 + 1320 * B * R0 * b2 + 1221 * B * R0
        + 256 * B * S0 * b4 + 1792 * B * S0 * b2 + 1984 * B * S0
        + 416 * R00 * b4 + 1472 * R00 * b2 + 1001 * R00
    )
    d[8] = 2 * B**3 * S0 * (
        2160 * B * R0 * b4 + 7128 * B * R0 * b2 + 4563 * B * R0
        + 256 * B * S0 * b6 + 5184 * B * S0 * b4 + 16080 * B * S0 * b2 + 10772 * B * S0
        + 2112 * R00 * b4 + 5064 * R00 * b2 + 2544 * R00
    )
    d[9] = -24 * B**2 * S0 * (
        138 * B * R0 * b4 + 309 * B * R0 * b2 + 147 * B * R0
        + 64 * B * S0 * b6 + 560 * B * S0 * b4 + 1028 * B * S0 * b2 + 472 * B * S0
        + 82 * R00 * b4 + 142 * R00 * b2 + 55 * R00
    )
    d[10] = 4 * B * S0 * (
        342 * B * R0 * b4 + 558 * B * R0 * b2 + 207 * B * R0
        + 416 * B * S0 * b6 + 2088 * B * S0 * b4 + 2568 * B * S0 * b2 + 868 * B * S0
        + 120 * R00 * b4 + 156 * R00 * b2 + 48 * R00
    )
    d[11] = -12 * S0 * (2 * b2 + 1) * (
        12 * B * R0 * b2 + 9 * B * R0
        + 32 * B * S0 * b4 + 88 * B * S0 * b2 + 48 * B * S0
        + 2 * R00 * b2 + R00
    )
    d[12] = 2 * S0 * (12 * R0 * b4 + 12 * R0 * b2 + 3 * R0 + 64 * S0 * b6 + 144 * S0 * b4 + 31 * S0 * b2 + 20 * S0)
    return np.asarray(d)


def _printed_terms(cs: ContractionSet) -> np.ndarray:
    """Verbatim transcription of the published coefficient table.

    Grouping and order follow the source listing term by term so each line
    can be audited against it.
    """
    n = cs.n
    B = cs.beta
    b2 = cs.bsq
    sg = cs.sigma
    RIC = cs.ricbar
    R00, R0, R, TR, S0 = cs.r00, cs.r0, cs.r, cs.rkk, cs.s0
    R00_0, BR00K, R0_0, S0_0 = cs.r00_0, cs.br00k, cs.r0_0, cs.s0_0
    SK0K, BS0K = cs.sk0k, cs.bs0k
    RS, SS, SJK, SKSK = cs.r0k_sk0, cs.s0k_sk0, cs.sjk_skj, cs.sk_sk
    RKSK0, R0KSK, SK0SK = cs.rk_sk0, cs.r0k_sk, cs.sk0_sk
    b4, b6, b8 = b2 * b2, b2**3, b2**4

    # plain list so the same code runs on floats and on exact symbolic scalars
    t = [None] * 15

    t[0] = 144 * (8 * n - 11) * B**10 * R00**2

    t[1] = (
        -96 * (61 * n - 82 + (20 * n - 26) * b2) * B**9 * R00**2
        - 432 * (2 * n - 3) * B**10 * R00_0
    )

    t[2] = (
        12 * (1085 * n - 1439 + (792 * n - 1032) * b2 + 64 * (n - 1) * b4) * B**8 * R00**2
        + 1296 * B**10 * RIC
        - 288 * (8 * n - 14) * B**9 * R0 * R00
        + 864 * B**9 * S0 * R00
        + 72 * (63 * n - 91 + (24 * n - 32) * b2) * B**9 * R00_0
    )

    t[3] = (
        -864 * (2 * n - 1) * B**9 * RS
        - 24 * (697 * n - 926 + (852 * n - 1144) * b2 + (152 * n - 144) * b4) * B**7 * R00**2
        - 3456 * (2 + b2) * B**9 * RIC
        + 96 * (118 * n - 205 + (32 * n - 44) * b2) * B**8 * R00 * R0
        - 864 * B**9 * R00 * TR
        - 48 * (-16 * n + 97 + 16 * (n - 1) * b2) * B**8 * R00 * S0
        - 864 * B**9 * BR00K
        - 24 * (435 * n - 602 + (354 * n - 440) * b2 + (48 * n - 56) * b4) * B**8 * R00_0
        + 864 * B**9 * R0_0
        - 432 * (2 * n - 5) * B**9 * S0_0
    )

    t[4] = (
        144 * (57 * n - 22 + (24 * n - 8) * b2) * B**8 * RS
        + 3 * (4606 * n - 6255 + (8400 * n - 12080) * b2 + (2480 * n - 2272) * b4) * B**6 * R00**2
        + 216 * (15 + 4 * b2) * (5 + 4 * b2) * B**8 * RIC
        - 32 * (752 * n - 1301 + (440 * n - 566) * b2 + 32 * (n - 1) * b4) * B**7 * R00 * R0
        + 864 * (5 + 2 * b2) * B**8 * (R00 * TR + BR00K)
        - 576 * B**8 * R * R00
        + 8 * (-413 * n + 1322 + (376 * n - 664) * b2 + 64 * (n - 1) * b4) * B**7 * R00 * S0
        + 4
        * (3473 * n - 4583 + (4512 * n - 5136) * b2 + (1320 * n - 1368) * b4 + 64 * (n - 1) * b6)
        * B**7
        * R00_0
        - 864 * (5 + 2 * b2) * B**8 * R0_0
        + 576 * B**8 * R0**2
        - 1152 * (2 * n - 3) * B**8 * R0 * S0
        + 72 * (57 * n - 142 + (24 * n - 56) * b2) * B**8 * S0_0
        - 144 * (8 * n - 21) * B**8 * S0**2
        - 1296 * B**9 * SK0K
    )

    t[5] = (
        -24 * (699 * n - 178 + (636 * n - 112) * b2 + (96 * n - 16) * b4) * B**7 * RS
        - 12 * (643 * n - 911 + (1642 * n - 2645) * b2 + (712 * n - 656) * b4) * B**5 * R00**2
        - 24 * (917 + 1560 * b2 + 672 * b4 + 64 * b6) * B**7 * RIC
        + 16 * (1814 * n - 3143 + (1712 * n - 2024) * b2 + (272 * n - 224) * b4) * B**6 * R00 * R0
        - 144 * (65 + 56 * b2 + 8 * b4) * B**7 * (BR00K + R00 * TR)
        + 384 * (7 + 2 * b2) * B**7 * R * R00
        - 4 * (-1487 * n + 3338 + (1240 * n - 3952) * b2 + (544 * n - 736) * b4) * B**6 * R00 * S0
        - (11854 * n - 14857 + (21768 * n - 22176) * b2 + (10272 * n - 9024) * b4 + (1088 * n - 896) * b6)
        * B**6
        * R00_0
        + 144 * (65 + 56 * b2 + 8 * b4) * B**7 * R0_0
        - 384 * (7 + 2 * b2) * B**7 * R0**2
        + 48 * (212 * n - 321 + (64 * n - 72) * b2) * B**7 * R0 * S0
        - 12 * (699 * n - 1738 + (636 * n - 1456) * b2 + (96 * n - 208) * b4) * B**7 * S0_0
        - 324 * B**7 * SS
        + 864 * B**8 * (RKSK0 + R0KSK - BS0K - TR * S0)
        + 216 * (29 + 16 * b2) * B**8 * SK0K
        - 432 * (2 * n - 3) * B**8 * SK0SK
        + 48 * (114 * n - 239 + (24 * n - 52) * b2) * B**7 * S0**2
    )

    t[6] = (
        4 * (4849 * n - 516 + (7116 * n + 96) * b2 + (2352 * n + 96) * b4 + 128 * n * b6) * B**6 * RS
        + (3 * (3965 * n - 5929 + (13592 * n - 25576) * b2 + (8096 * n - 7936) * b4) * B**4 * R00**2) / 4
        + (19225 + 46208 * b2 + 32064 * b4 + 6656 * b6 + 256 * b8) * B**6 * RIC
        - 12 * (1828 * n - 3201 + (2464 * n - 2616) * b2 + (640 * n - 384) * b4) * B**5 * R00 * R0
        + 32 * (361 + 501 * b2 + 156 * b4 + 8 * b6) * B**6 * (TR * R00 + BR00K)
        - 32 * (167 + 104 * b2 + 8 * b4) * B**6 * R00 * R
        + 6 * (-973 * n + 1745 + (776 * n - 4336) * b2 + (656 * n - 1216) * b4) * B**5 * R00 * S0
        + (3
        * (4525 * n - 5373 + (10968 * n - 9696) * b2 + (7392 * n - 5088) * b4 + (1280 * n - 768) * b6)
        * B**5
        * R00_0) / 2
        - 32 * (361 + 501 * b2 + 156 * b4 + 8 * b6) * B**6 * R0_0
        + 32 * (167 + 104 * b2 + 8 * b4) * B**6 * R0**2
        - 8 * (2372 * n - 3657 + (1568 * n - 1656) * b2 + (128 * n - 96) * b4) * B**6 * S0 * R0
        + 432 * (9 + 4 * b2) * B**7 * S0 * TR
        + 2
        * (4849 * n - 12068 + (7116 * n - 15936) * b2 + (2352 * n - 4896) * b4 + (128 * n - 256) * b6)
        * B**6
        * S0_0
        + 432 * (9 + 4 * b2) * B**7 * (BS0K - R0KSK - RKSK0)
        - 108 * (121 + 144 * b2 + 32 * b4) * B**7 * SK0K
        - 576 * B**7 * S0 * R
        + 54 * (23 + 16 * b2) * B**6 * SS
        + 72 * (51 * n - 73 + (24 * n - 32) * b2) * B**7 * SK0SK
        - 4 * (2737 * n - 4424 + (1240 * n - 1208) * b2 + (64 * n - 128) * b4) * B**6 * S0**2
        - 324 * B**8 * SJK
        - 1296 * B**8 * sg
    )

    t[7] = (
        -2
        * (401 + 3504 * b2 + 2400 * b4 + 256 * b6 + 7005 * n + 14652 * n * b2 + 7920 * n * b4 + 960 * n * b6)
        * B**5
        * RS
        - 3 * (-411 - 2650 * b2 - 1016 * b4 + 263 * n + 1170 * n * b2 + 916 * n * b4) * B**3 * R00**2
        - 2 * (5651 + 17932 * b2 + 17760 * b4 + 6016 * b6 + 512 * b8) * B**5 * RIC
        + 6 * (-3225 - 2988 * b2 - 384 * b4 + 1798 * n + 3232 * n * b2 + 1216 * n * b4) * B**4 * R00 * R0
        - 2 * (4483 + 8880 * b2 + 4512 * b4 + 512 * b6) * B**5 * (R00 * TR + BR00K)
        + 32 * (37 + 8 * b2) * (5 + 4 * b2) * B**5 * R00 * R
        - 3 * (1817 - 8560 * b2 - 3328 * b4 - 1135 * n + 968 * n * b2 + 1328 * n * b4) * B**4 * R00 * S0
        - (3
        * (-1983 - 3960 * b2 - 2232 * b4 - 384 * b6 + 1763 * n + 5394 * n * b2 + 4848 * n * b4 + 1216 * n * b6)
        * B**4
        * R00_0) / 2
        + 2 * (4483 + 8880 * b2 + 4512 * b4 + 512 * b6) * B**5 * R0_0
        - 32 * (37 + 8 * b2) * (5 + 4 * b2) * B**5 * R0**2
        - 4 * (-7769 - 5144 * b2 - 560 * b4 + 4884 * n + 5280 * n * b2 + 960 * n * b4) * B**5 * S0 * R0
        - (-17531 - 32016 * b2 - 15648 * b4 - 1792 * b6 + 7005 * n + 14652 * n * b2 + 7920 * n * b4 + 960 * n * b6)
        * B**5
        * S0_0
        + 72 * (103 + 100 * b2 + 16 * b4) * B**6 * (R0KSK + RKSK0 - S0 * TR - BS0K)
        + 6 * (2579 + 4944 * b2 + 2400 * b4 + 256 * b6) * B**6 * SK0K
        - 216 * (9 + 14 * b2 + 4 * b4) * B**5 * SS
        - 12 * (-739 - 688 * b2 - 112 * b4 + 546 * n + 564 * n * b2 + 96 * n * b4) * B**6 * SK0SK
        + 4 * (-3622 + 656 * b2 + 320 * b4 + 3003 * n + 2184 * n * b2 + 240 * n * b4) * B**5 * S0**2
        + 8 * (-7769 - 5144 * b2 - 560 * b4 + 4884 * n + 5280 * n * b2 + 960 * n * b4) * B**5 * S0 * R0
        + 96 * (25 + 8 * b2) * B**6 * S0 * R
        + 108 * (13 + 8 * b2) * B**7 * SJK
        + 864 * (5 + 4 * b2) * B**7 * sg
        + 432 * B**7 * SKSK
    )

    t[8] = (
        2
        * (769 + 4596 * b2 + 4512 * b4 + 896 * b6 + 3285 * n + 9126 * n * b2 + 7128 * n * b4 + 1440 * n * b6)
        * B**4
        * RS
        + (3 * (-145 - 1436 * b2 - 684 * b4 + 93 * n + 520 * n * b2 + 518 * n * b4) * B**2 * R00**2) / 2
        + (4535 + 18184 * b2 + 24024 * b4 + 11776 * b6 + 1664 * b8) * B**4 * RIC
        - 12 * (-539 - 509 * b2 + 16 * b4 + 288 * n + 660 * n * b2 + 336 * n * b4) * B**3 * R00 * R0
        + 2 * (2273 + 6006 * b2 + 4416 * b4 + 832 * b6) * B**4 * (R00 * TR + BR00K)
        - 4 * (1001 + 1472 * b2 + 416 * b4) * B**4 * R00 * R
        + 12 * (165 - 1293 * b2 - 672 * b4 - 100 * n + 110 * n * b2 + 206 * n * b4) * B**3 * R00 * S0
        + 3
        * (-247 - 492 * b2 - 186 * b4 + 16 * b6 + 231 * n + 864 * n * b2 + 990 * n * b4 + 336 * n * b6)
        * B**3
        * R00_0
        - 2 * (2273 + 6006 * b2 + 4416 * b4 + 832 * b6) * B**4 * R0_0
        + 4 * (1001 + 1472 * b2 + 416 * b4) * B**4 * R0**2
        - 2 * (-10175 - 8360 * b2 - 1040 * b4 + 6084 * n + 9504 * n * b2 + 2880 * n * b4) * B**4 * R0 * S0
        + 4 * (1961 + 3108 * b2 + 1104 * b4 + 64 * b6) * B**5 * (TR * S0 + BS0K - R0KSK - RKSK0)
        + (-8323 - 19428 * b2 - 13152 * b4 - 2432 * b6 + 3285 * n + 9126 * n * b2 + 7128 * n * b4 + 1440 * n * b6)
        * B**4
        * S0_0
        - 16 * (718 + 1961 * b2 + 1554 * b4 + 368 * b6 + 16 * b8) * B**5 * SK0K
        + 6 * (269 + 696 * b2 + 456 * b4 + 64 * b6) * B**4 * SS
        + 2
        * (-4075 - 5856 * b2 - 2064 * b4 - 128 * b6 + 3211 * n + 5424 * n * b2 + 2064 * n * b4 + 128 * n * b6)
        * B**5
        * SK0SK
        - (-7009 + 13792 * b2 + 7744 * b4 + 512 * b6 + 7881 * n + 8088 * n * b2 + 1392 * n * b4) * B**4 * S0**2
        - 27 * (95 + 128 * b2 + 32 * b4) * B**6 * SJK
        - 216 * (29 + 48 * b2 + 16 * b4) * B**6 * sg
        - 864 * (2 + b2) * B**6 * SKSK
        - 16 * (259 + 184 * b2 + 16 * b4) * B**5 * R * S0
    )

    t[9] = (
        -4
        * (211 + 1428 * b2 + 1938 * b4 + 608 * b6 + 501 * n + 1764 * n * b2 + 1854 * n * b4 + 552 * n * b6)
        * B**3
        * RS
        - 3 * (-7 - 114 * b2 - 68 * b4 + 5 * n + 34 * n * b2 + 42 * n * b4) * B * R00**2
        - 4 * (1 + 2 * b2) * (307 + 894 * b2 + 756 * b4 + 176 * b6) * B**3 * RIC
        + 12 * (-116 - 99 * b2 + 56 * b4 + 58 * n + 164 * n * b2 + 108 * n * b4) * B**2 * R00 * R0
        - 4 * (377 + 1272 * b2 + 1266 * b4 + 352 * b6) * B**3 * (R00 * TR + BR00K - R0_0)
        + 16 * (106 + 211 * b2 + 88 * b4) * B**3 * R * R00
        - 6 * (85 - 934 * b2 - 636 * b4 - 41 * n + 72 * n * b2 + 158 * n * b4) * B**2 * R00 * S0
        - 3
        * (-40 - 68 * b2 + 34 * b4 + 56 * b6 + 39 * n + 174 * n * b2 + 246 * n * b4 + 108 * n * b6)
        * B**2
        * R00_0
        - 16 * (106 + 211 * b2 + 88 * b4) * B**3 * R0**2
        + 16 * (-530 - 479 * b2 - 17 * b4 + 294 * n + 618 * n * b2 + 276 * n * b4) * B**3 * S0 * R0
        + 8 * (481 + 568 * b2 + 112 * b4) * B**4 * R * S0
        - 2
        * (-1297 - 3660 * b2 - 3126 * b4 - 800 * b6 + 501 * n + 1764 * n * b2 + 1854 * n * b4 + 552 * n * b6)
        * B**3
        * S0_0
        + 4 * (1261 + 2886 * b2 + 1704 * b4 + 224 * b6) * B**4 * (R0KSK + RKSK0 - TR * S0 - BS0K)
        + 2 * (2779 + 10088 * b2 + 11544 * b4 + 4544 * b6 + 448 * b8) * B**4 * SK0K
        - 4 * (1 + 2 * b2) * (193 + 342 * b2 + 132 * b4 + 8 * b6) * B**3 * SS
        - 2
        * (-2245 - 4200 * b2 - 2280 * b4 - 320 * b6 + 1897 * n + 4614 * n * b2 + 2928 * n * b4 + 416 * n * b6)
        * B**4
        * SK0SK
        + 4 * (-549 + 3536 * b2 + 2828 * b4 + 368 * b6 + 789 * n + 1050 * n * b2 + 240 * n * b4) * B**3 * S0**2
        + 6 * (431 + 948 * b2 + 528 * b4 + 64 * b6) * B**5 * SJK
        + 24 * (5 + 4 * b2) * (43 + 76 * b2 + 16 * b4) * B**5 * sg
        + 36 * (79 + 88 * b2 + 16 * b4) * B**5 * SKSK
    )

    t[10] = (
        4
        * (59 + 480 * b2 + 870 * b4 + 400 * b6 + 96 * n + 414 * n * b2 + 558 * n * b4 + 228 * n * b6)
        * B**2
        * RS
        + (3 * (n - 1 + (8 * n - 32) * b2 + (12 * n - 24) * b4) * R00**2) / 4
        + (215 + 404 * b2 + 164 * b4) * (1 + 2 * b2) ** 2 * B**2 * RIC
        - 4 * (-44 - 29 * b2 + 64 * b4 + 20 * n + 68 * n * b2 + 56 * n * b4) * B * R00 * R0
        - 8 * (55 + 142 * b2 + 82 * b4) * B**2 * R00 * R
        + 2 * (43 - 554 * b2 - 488 * b4 - 13 * n + 44 * n * b2 + 104 * n * b4) * B * R00 * S0
        + 4 * (1 + 2 * b2) * (79 + 172 * b2 + 82 * b4) * B**2 * (BR00K + R00 * TR)
        + ((1 + 2 * b2) * (-23 + 22 * b2 + 64 * b4 + 23 * n + 74 * n * b2 + 56 * n * b4) * B * R00_0) / 2
        - 4 * (1 + 2 * b2) * (79 + 172 * b2 + 82 * b4) * B**2 * R0_0
        + 8 * (55 + 142 * b2 + 82 * b4) * B**2 * R0**2
        - 4 * (-553 - 496 * b2 + 158 * b4 + 276 * n + 744 * n * b2 + 456 * n * b4) * B**2 * S0 * R0
        + 8 * (253 + 780 * b2 + 678 * b4 + 152 * b6) * B**3 * (S0 * TR + BS0K - R0KSK - RKSK0)
        + 2
        * (-257 - 840 * b2 - 834 * b4 - 256 * b6 + 96 * n + 414 * n * b2 + 558 * n * b4 + 228 * n * b6)
        * B**2
        * S0_0
        - 4 * (1 + 2 * b2) * (439 + 1146 * b2 + 828 * b4 + 152 * b6) * B**3 * SK0K
        - 32 * (65 + 113 * b2 + 38 * b4) * B**3 * S0 * R
        + 2 * (107 + 116 * b2 + 20 * b4) * (1 + 2 * b2) ** 2 * B**2 * SS
        - 4 * (625 + 1158 * b2 + 480 * b4 + 32 * b6) * B**4 * SKSK
        + 4
        * (-383 - 804 * b2 - 510 * b4 - 112 * b6 + 347 * n + 1128 * n * b2 + 1050 * n * b4 + 256 * n * b6)
        * B**3
        * SK0SK
        - 2 * (-255 + 3368 * b2 + 3668 * b4 + 752 * b6 + 375 * n + 600 * n * b2 + 150 * n * b4) * B**2 * S0**2
        - (1579 + 5000 * b2 + 4632 * b4 + 1280 * b6 + 64 * b8) * B**4 * SJK
        - (2641 + 9344 * b2 + 10176 * b4 + 3584 * b6 + 256 * b8) * B**4 * sg
    )

    t[11] = (
        -2 * (1 + 2 * b2) * (17 + 134 * b2 + 128 * b4 + 21 * n + 66 * n * b2 + 48 * n * b4) * B * RS
        + 2 * (1 + 2 * b2) * (-5 + 8 * b2 + 2 * n + 4 * n * b2) * R00 * R0
        - 2 * (19 + 20 * b2) * (1 + 2 * b2) ** 2 * B * (R00 * TR + BR00K)
        + 16 * (4 + 5 * b2) * (1 + 2 * b2) * B * R * R00
        - (7 - 92 * b2 - 104 * b4 - n + 8 * n * b2 + 20 * n * b4) * R00 * S0
        - 2 * (11 + 10 * b2) * (1 + 2 * b2) ** 3 * B * RIC
        - ((1 + 2 * b2) ** 2 * (-1 + 4 * b2 + n + 2 * n * b2) * R00_0) / 2
        + 2 * (19 + 20 * b2) * (1 + 2 * b2) ** 2 * B * R0_0
        - 16 * (4 + 5 * b2) * (1 + 2 * b2) * B * R0**2
        + 4 * (-83 - 68 * b2 + 88 * b4 + 36 * n + 120 * n * b2 + 96 * n * b4) * B * R0 * S0
        + 16 * (41 + 98 * b2 + 50 * b4) * B**2 * R * S0
        - (1 + 2 * b2) * (-59 - 98 * b2 - 32 * b4 + 21 * n + 66 * n * b2 + 48 * n * b4) * B * S0_0
        + 16 * (1 + 2 * b2) * (31 + 61 * b2 + 25 * b4) * B**2 * (R0KSK + RKSK0 - TR * S0 - BS0K)
        + 2 * (175 + 292 * b2 + 100 * b4) * (2 * b2 + 1) ** 2 * B**2 * SK0K
        - 16 * (2 + b2) * (1 + 2 * b2) ** 3 * B * SS
        - 4
        * (-80 - 156 * b2 - 42 * b4 + 8 * b6 + 77 * n + 318 * n * b2 + 402 * n * b4 + 148 * n * b6)
        * B**2
        * SK0SK
        + 4 * (-23 + 392 * b2 + 560 * b4 + 160 * b6 + 24 * n + 42 * n * b2 + 6 * n * b4) * B * S0**2
        + 24 * (1 + 2 * b2) * (25 + 56 * b2 + 32 * b4 + 4 * b6) * B**3 * SJK
        + 4 * (5 + 4 * b2) * (1 + 2 * b2) * (43 + 76 * b2 + 16 * b4) * B**3 * sg
        + 24 * (53 + 144 * b2 + 102 * b4 + 16 * b6) * B**3 * SKSK
    )

    t[12] = (
        2 * (1 + 2 * b2) ** 2 * (1 + 8 * b2 + n + 2 * n * b2) * RS
        + (1 + 2 * b2) ** 4 * RIC
        + 2 * (1 + 2 * b2) ** 3 * (R00 * TR + BR00K)
        - 4 * (1 + 2 * b2) ** 2 * R * R00
        - 2 * (1 + 2 * b2) ** 3 * R0_0
        + 4 * (1 + 2 * b2) ** 2 * R0**2
        - 2 * (1 + 2 * b2) * (4 * n - 11 + (8 * n + 14) * b2) * R0 * S0
        + 4 * (1 + 2 * b2) ** 2 * (17 + 16 * b2) * B * (S0 * TR + BS0K - R0KSK - RKSK0)
        - 8 * (5 + 4 * b2) * (1 + 2 * b2) ** 3 * B * SK0K
        - 16 * (1 + 2 * b2) * (7 + 8 * b2) * B * S0 * R
        + (1 + 2 * b2) ** 2 * (-3 + n + 2 * n * b2) * S0_0
        + 2 * (1 + 2 * b2) ** 4 * SS
        + 2 * (1 + 2 * b2) * (19 * n - 19 + (58 * n + 14) * b2 + (40 * n + 32) * b4) * B * SK0SK
        + (-5 * n + 9 - (8 * n + 14) * b2 + (4 * n - 264) * b4 - 96 * b6) * S0**2
        - 8 * (1 + 2 * b2) * (47 + 80 * b2 + 26 * b4) * B**2 * SKSK
        - (139 + 196 * b2 + 52 * b4) * (1 + 2 * b2) ** 2 * B**2 * SJK
        - 6 * (29 + 48 * b2 + 16 * b4) * (1 + 2 * b2) ** 2 * B**2 * sg
    )

    t[13] = (
        8 * (1 + 2 * b2) ** 2 * R * S0
        + 4 * (1 + 2 * b2) ** 3 * (R0KSK + RKSK0 - S0 * TR - BS0K)
        + 2 * (1 + 2 * b2) ** 4 * SK0K
        - 2 * (1 + 2 * b2) ** 2 * (-1 + 4 * b2 + n + 2 * n * b2) * SK0SK
        + 6 * (1 + 2 * b2) ** 3 * (3 + 2 * b2) * B * SJK
        + 4 * (5 + 4 * b2) * (1 + 2 * b2) ** 3 * B * sg
        + 12 * (1 + 2 * b2) ** 2 * (5 + 4 * b2) * B * SKSK
    )

    t[14] = -((1 + 2 * b2) ** 4) * SJK - (1 + 2 * b2) ** 4 * sg - 4 * (1 + 2 * b2) ** 3 * SKSK

    return np.asarray(t)


IDENTITY_TOL = 1e-6  # relative, for the identity and for each line of its parity split
TERM_PARITY_TOL = 1e-10  # t_m(-y) = (-1)^m t_m(y) holds up to rounding


class IdentityCheck(NamedTuple):
    """The cleared identity and its parity split at one sample (x, y, sigma)."""

    lhs: float  # cleared Einstein residual at y, from the curvature pipeline
    rhs: float  # Sum t_m(y) alpha^m, from the coefficient table
    rel_dev: float
    term_parity_dev: float  # max rel deviation of t_m(-y) from (-1)^m t_m(y)
    even_dev: float  # even part in y of the cleared residual vs Sum t_2m alpha^2m
    odd_dev: float  # odd part vs Sum t_2m+1 alpha^2m+1
    suspect: int | None  # set exactly when the identity fails: the m whose t_m is likeliest wrong

    @property
    def parity_ok(self) -> bool:
        split = self.even_dev <= IDENTITY_TOL and self.odd_dev <= IDENTITY_TOL
        return split and self.term_parity_dev <= TERM_PARITY_TOL

    @property
    def ok(self) -> bool:
        return self.suspect is None and self.parity_ok


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _cleared_lhs(bundle: AlphaBetaBundle, ys: np.ndarray, sigma: float) -> np.ndarray:
    """The cleared Einstein residual at each row of the stack ``ys``, from one curvature pass."""
    _, ric = finsler.riemann_curvature(finsler.spray(bundle, ys))
    al = np.sqrt(np.einsum("mj,jk,mk->m", ys, bundle.a, ys))
    be = ys @ bundle.b
    b2 = bundle.bsq
    F = al * al / (al - be)
    clear = al**2 * (be - al) ** 2 * (2 * be - al) ** 4 * (3 * be - (2 * b2 + 1) * al) ** 4
    with np.errstate(over="ignore", invalid="ignore"):  # a huge sigma: verify_identity rejects the result
        return (ric - sigma * F * F) * clear


def verify_identity(bundle: AlphaBetaBundle, y, sigma: float = 0.0) -> IdentityCheck:
    """Check the cleared identity and its parity split at (x, y, sigma).

    Flipping y negates beta and every odd-degree scalar, so t_m(-y) =
    (-1)^m t_m(y) and the identity splits into an even and an odd line in
    alpha, each checked against the parity projection of the cleared
    residual.  The left side is evaluated at y and -y as one stack, through
    one spray and one curvature pass; the table at -y is computed, not
    derived from the one at y, so the term parity is a test.  A side that
    is not finite, as a huge sigma makes it, raises a ``GeometryError``.
    """
    y = np.asarray(y, dtype=float)
    lhs, lhs_neg = map(float, _cleared_lhs(bundle, np.stack([y, -y]), sigma))
    cs = contraction_set(bundle, y, sigma)
    terms, terms_neg = appendix_terms(cs), appendix_terms(contraction_set(bundle, -y, sigma))
    powers = cs.alpha ** np.arange(15)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = float(terms @ powers)
    if not all(map(math.isfinite, (lhs, lhs_neg, rhs))):
        raise GeometryError(
            f"the cleared identity at sigma = {sigma!r} is not finite at x={bundle.x}: "
            f"lhs {lhs} (at -y {lhs_neg}), rhs {rhs}"
        )
    rel = _rel(lhs, rhs)
    suspect = None
    if not rel <= IDENTITY_TOL:
        # the deviation left with t_m zeroed is smallest for the bad coefficient
        suspect = int(np.argmin(np.abs(lhs - (rhs - terms * powers))))
    scale = np.maximum(np.maximum(np.abs(terms), np.abs(terms_neg)), 1.0)
    term_parity_dev = float(np.max(np.abs(terms_neg - (-1.0) ** np.arange(15) * terms) / scale))
    even = float(terms[0::2] @ powers[0::2])
    odd = float(terms[1::2] @ powers[1::2])
    return IdentityCheck(
        lhs, rhs, rel, term_parity_dev,
        # halved before the sum, which cannot overflow for finite sides
        even_dev=_rel(0.5 * lhs + 0.5 * lhs_neg, even),
        odd_dev=_rel(0.5 * lhs - 0.5 * lhs_neg, odd),
        suspect=suspect,
    )
