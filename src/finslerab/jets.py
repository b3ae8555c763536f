"""Truncated Taylor (jet) arithmetic of total order 2.

A Jet carries the value of a quantity together with its exact first and
second partial derivatives with respect to a fixed set of ``d`` seed
directions.  Arithmetic on jets propagates those derivatives through the
chain/product rule with no truncation error at order <= 2, which is what
every curvature formula downstream consumes.

The Hessian is stored as the packed upper triangle (row-major, i <= j),
so symmetry is structural rather than asserted.

Jets are immutable values and every operation is pure, so evaluation can be
fanned out across workers with no coordination.

``ArrayJet`` is the vector-mode counterpart: a whole array of order-2 jets
over the same directions, with the full Hessian, propagated by numpy
broadcasting (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., 2008).
The spray hot path runs on it; the scalar ``Jet`` stays the independent
oracle it is tested against.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Jet",
    "ArrayJet",
    "JetError",
    "seed",
    "elem",
    "fd_oracle",
    "jsqrt",
    "jsin",
    "jcos",
    "jexp",
    "jlog",
]

# Denominators smaller than this are treated as singular instead of being
# allowed to overflow into inf/NaN silently.
_TINY = 1e-300


class JetError(ValueError):
    """Domain violation in jet arithmetic (division by zero, log of <= 0, ...)."""


# Per-dimension index caches: triu index pair arrays for packing symmetric
# outer products, and a (d, d) lookup table mapping (i, j) -> packed slot.
_IDX_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _indices(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    try:
        return _IDX_CACHE[d]
    except KeyError:
        iu, ju = np.triu_indices(d)
        table = np.empty((d, d), dtype=np.intp)
        table[iu, ju] = np.arange(iu.size)
        table[ju, iu] = table[iu, ju]
        _IDX_CACHE[d] = (iu, ju, table)
        return _IDX_CACHE[d]


class Jet:
    """Order-2 jet: value, gradient (d,), packed symmetric Hessian (d(d+1)/2,)."""

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val: float, grad: np.ndarray, hess: np.ndarray):
        self.val = float(val)
        self.grad = grad
        self.hess = hess

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(v: float, d: int) -> "Jet":
        return Jet(v, np.zeros(d), np.zeros(d * (d + 1) // 2))

    @staticmethod
    def variable(v: float, direction: int, d: int) -> "Jet":
        if not 0 <= direction < d:
            raise JetError(f"direction {direction} out of range for {d} directions")
        g = np.zeros(d)
        g[direction] = 1.0
        return Jet(v, g, np.zeros(d * (d + 1) // 2))

    @property
    def d(self) -> int:
        return self.grad.shape[0]

    # -- accessors ----------------------------------------------------------

    def hess_entry(self, i: int, j: int) -> float:
        _, _, table = _indices(self.d)
        return float(self.hess[table[i, j]])

    def hess_matrix(self) -> np.ndarray:
        iu, ju, _ = _indices(self.d)
        m = np.zeros((self.d, self.d))
        m[iu, ju] = self.hess
        m[ju, iu] = self.hess
        return m

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad, self.hess + other.hess)
        return Jet(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, self.grad - other.grad, self.hess - other.hess)
        return Jet(self.val - other, self.grad, self.hess)

    def __rsub__(self, other):
        return Jet(other - self.val, -self.grad, -self.hess)

    def __mul__(self, other):
        if isinstance(other, Jet):
            iu, ju, _ = _indices(self.d)
            g1, g2 = self.grad, other.grad
            hess = (
                self.val * other.hess
                + other.val * self.hess
                + g1[iu] * g2[ju]
                + g1[ju] * g2[iu]
            )
            return Jet(self.val * other.val, self.val * g2 + other.val * g1, hess)
        return Jet(self.val * other, self.grad * other, self.hess * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        if abs(other) < _TINY:
            raise JetError("division by zero")
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return other * self._reciprocal()

    def _reciprocal(self) -> "Jet":
        v = self.val
        if abs(v) < _TINY:
            raise JetError("division by zero jet")
        inv = 1.0 / v
        return self._chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def __pow__(self, expo):
        if isinstance(expo, Jet):
            raise JetError("exponent must be a real constant")
        p = float(expo)
        v = self.val
        if p == 0.0:
            return Jet.constant(1.0, self.d)
        if p != int(p) and v <= 0.0:
            raise JetError(f"fractional power of non-positive base {v}")
        if p < 0 and abs(v) < _TINY:
            raise JetError("negative power of zero")
        try:
            c0 = v**p
            c1 = p * v ** (p - 1.0)
            # at p = 1 the factor p - 1 is 0, and 0^-1 would raise at v = 0
            c2 = p * (p - 1.0) * v ** (p - 2.0) if p != 1.0 else 0.0
        except OverflowError:
            raise JetError(f"overflow in {v}^{p}") from None
        return self._chain(c0, c1, c2)

    def _chain(self, c0: float, c1: float, c2: float) -> "Jet":
        """Compose with a scalar function given its value and derivatives at self.val."""
        iu, ju, _ = _indices(self.d)
        g = self.grad
        return Jet(c0, c1 * g, c1 * self.hess + c2 * (g[iu] * g[ju]))

    def __repr__(self):
        return f"Jet({self.val!r}, grad={self.grad!r})"


def _trail(v, k: int):
    """``v`` with k trailing unit axes, to broadcast against grad (k = 1) or hess (k = 2).

    A 0-d value broadcasts as it is, and scalar-by-array products are the
    cheaper numpy path, which matters on the spray's small arrays.
    """
    return v.reshape(v.shape + (1,) * k) if v.ndim else v


class ArrayJet:
    """Array of order-2 jets over ``d`` shared directions.

    ``val`` has a leading shape S, ``grad`` shape S + (d,) and ``hess`` the
    full symmetric Hessian, shape S + (d, d).  Operands broadcast over their
    leading shapes as numpy arrays do, so a scalar jet (S = ()) times a
    vector of jets is a vector of jets.  A plain operand must be a scalar.
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad: np.ndarray, hess: np.ndarray):
        self.val = np.asarray(val, dtype=float)
        self.grad = grad
        self.hess = hess

    @staticmethod
    def from_jets(jets) -> "ArrayJet":
        """Stack a scalar ``Jet``, or a list of them, into one ArrayJet."""
        if isinstance(jets, Jet):
            return ArrayJet(jets.val, jets.grad, jets.hess_matrix())
        return ArrayJet(
            [j.val for j in jets],
            np.array([j.grad for j in jets]),
            np.array([j.hess_matrix() for j in jets]),
        )

    def __add__(self, other):
        if isinstance(other, ArrayJet):
            return ArrayJet(self.val + other.val, self.grad + other.grad, self.hess + other.hess)
        return ArrayJet(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return ArrayJet(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, ArrayJet):
            u, v = self.val, other.val
            outer = self.grad[..., :, None] * other.grad[..., None, :]
            hess = _trail(u, 2) * other.hess
            hess += _trail(v, 2) * self.hess
            hess += outer
            hess += outer.swapaxes(-1, -2)
            return ArrayJet(u * v, _trail(u, 1) * other.grad + _trail(v, 1) * self.grad, hess)
        return ArrayJet(self.val * other, self.grad * other, self.hess * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ArrayJet):
            return self * other.reciprocal()
        if abs(other) < _TINY:
            raise JetError("division by zero")
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return other * self.reciprocal()

    def reciprocal(self) -> "ArrayJet":
        v = self.val
        if (np.abs(v) < _TINY).any():
            raise JetError("division by zero jet")
        inv = 1.0 / v
        return self._chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def sqrt(self) -> "ArrayJet":
        v = self.val
        if (v <= _TINY).any():
            raise JetError(f"sqrt of non-positive value {np.min(v)}")
        r = np.sqrt(v)
        return self._chain(r, 0.5 / r, -0.25 / (r * v))

    def _chain(self, c0, c1, c2) -> "ArrayJet":
        """Compose elementwise with a scalar function given its value and derivatives."""
        g = self.grad
        hess = _trail(c1, 2) * self.hess
        hess += _trail(c2, 2) * (g[..., :, None] * g[..., None, :])
        return ArrayJet(c0, _trail(c1, 1) * g, hess)


# -- elementary functions ---------------------------------------------------


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
    try:
        e = math.exp(a.val)
    except OverflowError:
        raise JetError(f"overflow in exp({a.val})") from None
    return a._chain(e, e, e)


def jlog(a: Jet) -> Jet:
    if a.val <= _TINY:
        raise JetError(f"log of non-positive value {a.val}")
    inv = 1.0 / a.val
    return a._chain(math.log(a.val), inv, -inv * inv)


def jsin(a: Jet) -> Jet:
    s, c = math.sin(a.val), math.cos(a.val)
    return a._chain(s, c, -s)


def jcos(a: Jet) -> Jet:
    s, c = math.sin(a.val), math.cos(a.val)
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
