"""Truncated Taylor (jet) arithmetic of total order 2.

An ``ArrayJet`` is an array of order-2 jets over ``d`` shared seed
directions: values with their exact first partials and full Hessians,
propagated by the chain and product rules through numpy broadcasting, with
no truncation error at order <= 2 (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., 2008).  It is the only representation production
code evaluates: metric expressions (``dsl``) run on it, and the spray
returns array jets whose Hessians hold only their y columns
(``finsler.Spray``).  Its elementary functions raise ``JetError`` on domain
violations and on overflow.

The scalar ``Jet`` is read by no run.  The test suite's scalar oracles
build on its rules, which share nothing with ``ArrayJet``'s, and it stays
here only because the benchmark's tracer binds ``finslerab.jets.Jet`` by
name.  Both types take the values of exp, log, sin, cos and pow from numpy,
so they differ only in how they propagate derivatives.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ArrayJet", "JetError"]

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
        c0 = _numpy(np.power, v, p)
        c1 = p * _numpy(np.power, v, p - 1.0)
        # at p = 1 the factor p - 1 is 0, and 0^-1 would be inf at v = 0
        c2 = p * (p - 1.0) * _numpy(np.power, v, p - 2.0) if p != 1.0 else 0.0
        if not (math.isfinite(c0) and math.isfinite(c1) and math.isfinite(c2)):
            raise JetError(f"overflow in {v}^{p}")
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
    cheaper numpy path, which matters on small arrays.
    """
    return v.reshape(v.shape + (1,) * k) if v.ndim else v


class ArrayJet:
    """Array of order-2 jets over ``d`` shared directions.

    ``val`` has a leading shape S, ``grad`` shape S + (d,) and ``hess`` the
    full symmetric Hessian, shape S + (d, d).  Operands broadcast over their
    leading shapes as numpy arrays do, so a scalar jet (S = ()) times a
    vector of jets is a vector of jets.  ``grad`` and ``hess`` need only
    broadcast to S: derivatives that do not vary along a leading axis may
    omit it.  A plain operand must be a scalar.  Division is by
    ``reciprocal``.
    """

    __slots__ = ("val", "grad", "hess")
    __array_ufunc__ = None  # a numpy scalar operand defers to the reflected operator

    def __init__(self, val, grad: np.ndarray, hess: np.ndarray):
        self.val = np.asarray(val, dtype=float)
        self.grad = grad
        self.hess = hess

    def __add__(self, other):
        if isinstance(other, ArrayJet):
            return ArrayJet(self.val + other.val, self.grad + other.grad, self.hess + other.hess)
        return ArrayJet(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return ArrayJet(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        if isinstance(other, ArrayJet):
            return ArrayJet(self.val - other.val, self.grad - other.grad, self.hess - other.hess)
        return ArrayJet(self.val - other, self.grad, self.hess)

    def __rsub__(self, other):
        return ArrayJet(other - self.val, -self.grad, -self.hess)

    def __mul__(self, other):
        if isinstance(other, ArrayJet):
            u, v = self.val, other.val
            outer = self.grad[..., :, None] * other.grad[..., None, :]
            hess = _trail(u, 2) * other.hess + _trail(v, 2) * self.hess  # full shape S
            hess += outer
            hess += outer.swapaxes(-1, -2)
            return ArrayJet(u * v, _trail(u, 1) * other.grad + _trail(v, 1) * self.grad, hess)
        return ArrayJet(self.val * other, self.grad * other, self.hess * other)

    __rmul__ = __mul__

    def reciprocal(self) -> "ArrayJet":
        v = self.val
        if (np.abs(v) < _TINY).any():
            raise JetError("division by zero jet")
        inv = 1.0 / v
        return self._chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def __pow__(self, expo) -> "ArrayJet":
        if isinstance(expo, ArrayJet):
            raise JetError("exponent must be a real constant")
        p = float(expo)
        v = self.val
        if p == 0.0:
            return ArrayJet(np.ones_like(v), np.zeros_like(self.grad), np.zeros_like(self.hess))
        if p != int(p) and (v <= 0.0).any():
            raise JetError(f"fractional power of non-positive base {_first(v, v <= 0.0)}")
        if p < 0 and (np.abs(v) < _TINY).any():
            raise JetError("negative power of zero")
        # at p = 1 the factor p - 1 is 0, and 0^-1 would be inf at v = 0
        return self._elementary(
            f"{{}}^{p}",
            lambda v: (
                np.power(v, p),
                p * np.power(v, p - 1.0),
                p * (p - 1.0) * np.power(v, p - 2.0) if p != 1.0 else np.zeros_like(v),
            ),
        )

    def sqrt(self) -> "ArrayJet":
        v = self.val
        if (v <= _TINY).any():
            raise JetError(f"sqrt of non-positive value {_first(v, v <= _TINY)}")

        def coefs(v):
            r = np.sqrt(v)
            return r, 0.5 / r, -0.25 / (r * v)  # r * v underflows below about 1e-206

        return self._elementary("sqrt({})", coefs)

    def log(self) -> "ArrayJet":
        v = self.val
        if (v <= _TINY).any():
            raise JetError(f"log of non-positive value {_first(v, v <= _TINY)}")

        def coefs(v):
            inv = 1.0 / v
            return np.log(v), inv, -inv * inv

        return self._elementary("log({})", coefs)

    def exp(self) -> "ArrayJet":
        return self._elementary("exp({})", lambda v: (np.exp(v),) * 3)

    def sin(self) -> "ArrayJet":
        return self._elementary("sin({})", lambda v: (np.sin(v), np.cos(v), -np.sin(v)))

    def cos(self) -> "ArrayJet":
        return self._elementary("cos({})", lambda v: (np.cos(v), -np.sin(v), -np.cos(v)))

    def _elementary(self, label: str, coefs) -> "ArrayJet":
        """Compose with the function whose value and first two derivatives at val are ``coefs(val)``.

        Each must be finite: otherwise the argument is not finite or the
        function overflows there, and that is a ``JetError``.
        """
        with np.errstate(all="ignore"):
            c0, c1, c2 = coefs(self.val)
            bad = ~(np.isfinite(c0) & np.isfinite(c1) & np.isfinite(c2))
        if bad.any():
            v = _first(np.broadcast_to(self.val, bad.shape), bad)
            what = "overflow" if math.isfinite(v) else "non-finite value"
            raise JetError(f"{what} in {label.format(v)}")
        return self._chain(c0, c1, c2)

    def _chain(self, c0, c1, c2) -> "ArrayJet":
        """Compose elementwise with a scalar function given its value and derivatives."""
        g = self.grad
        hess = _trail(c1, 2) * self.hess
        hess += _trail(c2, 2) * (g[..., :, None] * g[..., None, :])
        return ArrayJet(c0, _trail(c1, 1) * g, hess)


def _first(v: np.ndarray, mask: np.ndarray) -> float:
    """The first entry of ``v`` where ``mask`` holds, for an error message."""
    return float(v[mask][0])


# Jet.__pow__ takes its values from numpy, as ArrayJet does: numpy's pow can
# differ from the math module's in the last bit, and the oracle comparison
# should see the derivative rules, not two libraries' rounding.


def _numpy(fn, *args) -> float:
    with np.errstate(all="ignore"):
        return float(fn(*args))
