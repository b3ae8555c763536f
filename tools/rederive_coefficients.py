"""Re-derive the cleared-identity coefficient table symbolically (dev tool).

Derives Ric for F = alpha^2/(alpha - beta) through the curvature-split
relation

    Ric = Ricbar + 2 T^k_|k - y^j T^k_.k|j + 2 T^j T^k_.j.k - T^k_.j T^j_.k

with the deformation field T in its closed rational form, carrying every
quantity as an abstract contraction scalar.  Vertical/horizontal derivative
rules and all index contractions live in explicit tables; scalars are exact
sympy expressions over num/(alpha^a P^p Q^q) fractions with P = 2 beta -
alpha and Q = 3 beta - (2 b^2 + 1) alpha, so no rational-function gcd is
ever needed and the whole run takes a few seconds.

The result is compared coefficient-by-coefficient against
``finslerab.identity.appendix_terms`` (corrected table).  A MATCH on all
fifteen lines certifies the correction layer in ``identity.py``; this is the
script that generated it.  Requires sympy (dev dependency only).

Run:  PYTHONPATH=src python tools/rederive_coefficients.py
"""

import time

import sympy as sp

al, B, b2, nn, sg = sp.symbols("al B b2 nn sg")
r00, r0, rr, trR, s0 = sp.symbols("r00 r0 rr trR s0")
dr00y, dr00b, dr0y, ds0y, dsk0k, ds0b = sp.symbols("dr00y dr00b dr0y ds0y dsk0k ds0b")
rs, ss, sjk, sksk, rksk0, r0ksk, sk0sk = sp.symbols("rs ss sjk sksk rksk0 r0ksk sk0sk")
RIC = sp.Symbol("RIC")

Pf = 2 * B - al
Qf = 3 * B - (2 * b2 + 1) * al


class Rat:
    """num / (al^a P^p Q^q) with num kept expanded."""

    __slots__ = ("num", "a", "p", "q")

    def __init__(self, num, a=0, p=0, q=0):
        self.num = sp.expand(num)
        self.a, self.p, self.q = a, p, q

    def __add__(self, o):
        if not isinstance(o, Rat):
            o = Rat(o)
        a, p, q = max(self.a, o.a), max(self.p, o.p), max(self.q, o.q)
        n1 = self.num * al ** (a - self.a) * Pf ** (p - self.p) * Qf ** (q - self.q)
        n2 = o.num * al ** (a - o.a) * Pf ** (p - o.p) * Qf ** (q - o.q)
        return Rat(n1 + n2, a, p, q)

    __radd__ = __add__

    def __neg__(self):
        r = Rat.__new__(Rat)
        r.num, r.a, r.p, r.q = -self.num, self.a, self.p, self.q
        return r

    def __sub__(self, o):
        return self + (-o if isinstance(o, Rat) else Rat(-o))

    def __mul__(self, o):
        if not isinstance(o, Rat):
            o = Rat(o)
        return Rat(self.num * o.num, self.a + o.a, self.p + o.p, self.q + o.q)

    __rmul__ = __mul__

    def diff(self, s):
        """d/ds with al, B, b2 entering the denominator factors."""
        dnum = sp.diff(self.num, s)
        dP = sp.diff(Pf, s)
        dQ = sp.diff(Qf, s)
        dal = sp.diff(al, s)
        out = Rat(dnum, self.a, self.p, self.q)
        if self.a and dal != 0:
            out = out + Rat(-self.a * dal * self.num, self.a + 1, self.p, self.q)
        if self.p and dP != 0:
            out = out + Rat(-self.p * dP * self.num, self.a, self.p + 1, self.q)
        if self.q and dQ != 0:
            out = out + Rat(-self.q * dQ * self.num, self.a, self.p, self.q + 1)
        return out


ZERO = Rat(0)

SCALARS = (al, B, r00, s0, r0)

UPL = {
    ("y", "yl"): al**2, ("y", "bl"): B, ("y", "s0l"): 0, ("y", "r0l"): r00,
    ("y", "svl"): s0, ("y", "rvl"): r0, ("y", "dr00"): dr00y, ("y", "ds0"): ds0y, ("y", "dr0"): dr0y,
    ("b", "yl"): B, ("b", "bl"): b2, ("b", "s0l"): -s0, ("b", "r0l"): r0,
    ("b", "svl"): 0, ("b", "rvl"): rr, ("b", "dr00"): dr00b, ("b", "ds0"): ds0b, ("b", "dr0"): None,
    ("s0", "yl"): 0, ("s0", "bl"): s0, ("s0", "s0l"): ss, ("s0", "r0l"): rs,
    ("s0", "svl"): sk0sk, ("s0", "rvl"): rksk0, ("s0", "dr00"): None, ("s0", "ds0"): None, ("s0", "dr0"): None,
    ("sv", "yl"): s0, ("sv", "bl"): 0, ("sv", "s0l"): -sk0sk, ("sv", "r0l"): r0ksk,
    ("sv", "svl"): sksk, ("sv", "rvl"): None, ("sv", "dr00"): None, ("sv", "ds0"): None, ("sv", "dr0"): None,
    ("ss0", "yl"): ss, ("ss0", "bl"): sk0sk, ("ss0", "s0l"): None, ("ss0", "r0l"): None,
    ("ss0", "svl"): None, ("ss0", "rvl"): None, ("ss0", "dr00"): None, ("ss0", "ds0"): None, ("ss0", "dr0"): None,
}
AMAT = {("y", "y"): al**2, ("y", "b"): B, ("b", "b"): b2,
        ("y", "s0"): 0, ("b", "s0"): s0, ("s0", "s0"): -ss}
RMAT = {("y", "y"): r00, ("y", "b"): r0, ("b", "b"): rr,
        ("y", "s0"): rs, ("b", "s0"): rksk0, ("s0", "s0"): None}
SMAT_ACTION = {"y": {"s0": 1}, "b": {"sv": -1}, "s0": {"ss0": 1}}


def pair(u, w):
    v = UPL[(u, w)]
    if v is None:
        raise RuntimeError(f"contraction ({u},{w}) assumed absent")
    return v


def dot(upper, lower):
    acc = ZERO
    for u, cu in upper.items():
        for w, cw in lower.items():
            val = pair(u, w)
            if val != 0:
                acc = acc + (cu if isinstance(cu, Rat) else Rat(cu)) * cw * Rat(val)
    return acc


def sym_pair(mat, u, v):
    key = (u, v) if (u, v) in mat else (v, u)
    val = mat[key]
    if val is None:
        raise RuntimeError(f"matrix contraction {key} assumed absent")
    return val


DV = {al: {"yl": Rat(1, a=1)}, B: {"bl": Rat(1)}, r00: {"r0l": Rat(2)}, s0: {"svl": Rat(1)}, r0: {"rvl": Rat(1)}}
DH = {al: {}, B: {"r0l": Rat(1), "s0l": Rat(1)}, r00: {"dr00": Rat(1)}, s0: {"ds0": Rat(1)}, r0: {"dr0": Rat(1)}}
DH_B2 = {"rvl": Rat(2), "svl": Rat(2)}


def vgrad(R):
    out = {}
    for qsym in SCALARS:
        c = R.diff(qsym)
        if c.num != 0:
            for w, cw in DV[qsym].items():
                out[w] = out.get(w, ZERO) + c * cw
    return out


def hgrad(R):
    out = {}
    for qsym in SCALARS:
        c = R.diff(qsym)
        if c.num != 0:
            for w, cw in DH[qsym].items():
                out[w] = out.get(w, ZERO) + c * cw
    c = R.diff(b2)
    if c.num != 0:
        for w, cw in DH_B2.items():
            out[w] = out.get(w, ZERO) + c * cw
    return out


def vhess_contract(R, u, v):
    acc = ZERO
    c = R.diff(al)
    if c.num != 0:
        acc = acc + c * (Rat(sym_pair(AMAT, u, v), a=1) - Rat(pair(u, "yl") * pair(v, "yl"), a=3))
    c = R.diff(r00)
    if c.num != 0:
        acc = acc + c * Rat(2 * sym_pair(RMAT, u, v))
    for qsym in SCALARS:
        dq = R.diff(qsym)
        if dq.num == 0:
            continue
        for psym in SCALARS:
            c2 = dq.diff(psym)
            if c2.num == 0:
                continue
            for wq, cq in DV[qsym].items():
                for wp, cp in DV[psym].items():
                    val = pair(u, wq) * pair(v, wp)
                    if val != 0:
                        acc = acc + c2 * cq * cp * Rat(val)
    return acc


t0 = time.time()
# --- deformation field -------------------------------------------------------
# A = -al^2/P ; W = (2 al^2 s0 + r00 P)/P ; Bc = -al W / Q... (with explicit dens)
A = Rat(-(al**2), p=1)
Wn = 2 * al**2 * s0 + r00 * Pf  # W = Wn / P
Bc = Rat(-al * Wn, p=1, q=1)
Cc = Rat((4 * B - al) * Wn, a=1, p=1, q=1) * Rat(sp.Rational(1, 2))
T = {"s0": A, "b": Bc, "y": Cc}

# --- term 1: T^k_{|k} --------------------------------------------------------
term1 = (
    dot({"s0": Rat(1)}, hgrad(A)) + A * Rat(dsk0k)
    + dot({"b": Rat(1)}, hgrad(Bc)) + Bc * Rat(trR)
    + dot({"y": Rat(1)}, hgrad(Cc))
)
print("t1 done", time.time() - t0, flush=True)

# --- E = T^k_{.k} --------------------------------------------------------------
E = dot({"s0": Rat(1)}, vgrad(A)) + dot({"b": Rat(1)}, vgrad(Bc)) + dot({"y": Rat(1)}, vgrad(Cc)) + Rat(nn) * Cc
term2 = dot({"y": Rat(1)}, hgrad(E))
print("t2 done", time.time() - t0, flush=True)

# --- term 3: T^j T^k_{.j.k} ----------------------------------------------------
term3 = ZERO
for uT, cT in T.items():
    acc = vhess_contract(A, uT, "s0") + vhess_contract(Bc, uT, "b") + vhess_contract(Cc, uT, "y")
    for up2, c2 in SMAT_ACTION[uT].items():
        acc = acc + Rat(c2) * dot({up2: Rat(1)}, vgrad(A))
    acc = acc + Rat(nn + 1) * dot({uT: Rat(1)}, vgrad(Cc))
    term3 = term3 + cT * acc
print("t3 done", time.time() - t0, flush=True)

# --- term 4: T^k_{.j} T^j_{.k} ---------------------------------------------------
gA, gB, gC = vgrad(A), vgrad(Bc), vgrad(Cc)
rank1 = [(gA, "s0"), (gB, "b"), (gC, "y")]
term4 = ZERO
for w1, u1 in rank1:
    for w2, u2 in rank1:
        term4 = term4 + dot({u2: Rat(1)}, w1) * dot({u1: Rat(1)}, w2)
for w, u in rank1:
    for up2, c2 in SMAT_ACTION[u].items():
        term4 = term4 + Rat(2 * c2) * A * dot({up2: Rat(1)}, w)
    term4 = term4 + Rat(2) * Cc * dot({u: Rat(1)}, w)
term4 = term4 + A * A * Rat(sjk) + Cc * Cc * Rat(nn)
print("t4 done", time.time() - t0, flush=True)

# --- cleared residual ----------------------------------------------------------
ric = Rat(RIC) + Rat(2) * term1 - term2 + Rat(2) * term3 - term4
# sigma part: sg al^4/(al-B)^2 * clear = sg al^6 P^4 Q^4  (exact cancellation)
# clear = al^2 (B - al)^2 P^4 Q^4
print("ric den exponents:", ric.a, ric.p, ric.q, flush=True)
if ric.p > 4 or ric.q > 4:
    raise RuntimeError("denominator exceeds clearing powers")
Lnum = sp.expand(
    ric.num * (B - al) ** 2 * Pf ** (4 - ric.p) * Qf ** (4 - ric.q) * al**2
    - sg * al ** (6 + ric.a) * Pf**4 * Qf**4
)
print("cleared, size:", len(Lnum.args), " time:", time.time() - t0, flush=True)

LP = sp.Poly(Lnum, al)
raw = {m: c for (m,), c in LP.as_dict().items()}
for m in range(ric.a):
    if sp.expand(raw.get(m, 0)) != 0:
        raise RuntimeError(f"alpha^{m} remainder nonzero: not polynomial after al^{ric.a} shift")
derived = {m - ric.a: sp.expand(raw[m]) for m in raw if m >= ric.a}

# --- compare against the transcribed table --------------------------------------
from finslerab.identity import ContractionSet, appendix_terms  # noqa: E402

cs = ContractionSet(
    n=nn, sigma=sg, alpha=al, beta=B, bsq=b2, ricbar=RIC, r00=r00, r0=r0, r=rr,
    rkk=trR, s0=s0, r00_0=dr00y, br00k=dr00b, r0_0=dr0y, s0_0=ds0y, sk0k=dsk0k,
    bs0k=ds0b, r0k_sk0=rs, s0k_sk0=ss, sjk_skj=sjk, sk_sk=sksk, rk_sk0=rksk0,
    r0k_sk=r0ksk, sk0_sk=sk0sk,
)
table = appendix_terms(cs)
print("comparing ...", time.time() - t0, flush=True)
ok = True
for m in range(15):
    diff = sp.expand(derived.get(m, 0) - sp.nsimplify(table[m], rational=False))
    if diff == 0:
        print(f"t_{m}: MATCH")
    else:
        ok = False
        print(f"t_{m}: DIFFERENCE = {sp.factor(diff)}")
print("ALL MATCH" if ok else "MISMATCHES FOUND -- identity.py correction layer is stale", " total time:", time.time() - t0)
raise SystemExit(0 if ok else 1)
