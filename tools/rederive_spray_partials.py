"""Re-derive the spray's local partials symbolically and check the shipped ones (dev tool).

The spray of F = alpha^2/(alpha - beta) is

    G^i = Gbar^i - L s^i_0 + C_b b^i + C_y y^i,

and ``finslerab.finsler._coefficient_partials`` gives the values, the
Jacobian and the Hessian of (L, C_b, C_y) over
u = (alpha^2, r00, b^2, beta, s0), hand-factored, as one flat list: 3
values, the 3 x 5 Jacobian row by row and the upper triangle of each
coefficient's Hessian.  This script writes the
three coefficients from their definitions,

    L   = alpha^2 / (2 beta - alpha),
    C_b = -alpha K / Q,   C_y = (4 beta - alpha) K / (2 alpha Q),
    K   = r00 + 2 L s0,   Q = 3 beta - (2 b^2 + 1) alpha,   alpha = sqrt(alpha^2),

differentiates them with sympy, evaluates the result at random points in
30-digit arithmetic, and compares it entry by entry with the shipped
function, which runs on Python floats (``finsler.spray`` calls it once per
y, also for each row of a stack), to a relative 1e-12.
Requires sympy (dev dependency only).

Run:  PYTHONPATH=src python tools/rederive_spray_partials.py
"""

import time

import mpmath
import numpy as np
import sympy as sp

from finslerab.finsler import _HESSIANS, _coefficient_partials

TOL = 1e-12
POINTS = 40

t0 = time.time()
A, r00, q, B, s0 = sp.symbols("A r00 q B s0")
u = (A, r00, q, B, s0)
al = sp.sqrt(A)
L = A / (2 * B - al)
K = r00 + 2 * L * s0
Q = 3 * B - (2 * q + 1) * al
coefficients = (L, -al * K / Q, (4 * B - al) * K / (2 * al * Q))
names = ("L", "C_b", "C_y")
jacobian = [[sp.diff(c, v) for v in u] for c in coefficients]
hessian = [[[sp.diff(dc, v) for v in u] for dc in row] for row in jacobian]
evaluate = sp.lambdify(u, [list(coefficients), jacobian, hessian], modules="mpmath")
print(f"derived in {time.time() - t0:.1f} s", flush=True)

# points in the validity region: b^2 < 1/4, |s| = |beta / alpha| <= b
rng = np.random.default_rng(0)
alpha2 = rng.uniform(0.2, 5.0, POINTS)
bsq = rng.uniform(0.0, 0.24, POINTS)
beta = rng.uniform(-1.0, 1.0, POINTS) * np.sqrt(bsq * alpha2)
r = rng.uniform(-2.0, 2.0, POINTS) * alpha2
s = rng.uniform(-1.0, 1.0, POINTS) * np.sqrt(alpha2)

mpmath.mp.dps = 30
worst = 0.0
failures = []


def compare(label, got, want):
    global worst
    dev = abs(float(got) - float(want)) / max(1.0, abs(float(want)))
    worst = max(worst, dev)
    if not dev <= TOL:
        failures.append(f"{label}: shipped {float(got)!r}, sympy {float(want)!r}")


for k in range(POINTS):
    point = (float(alpha2[k]), float(r[k]), float(bsq[k]), float(beta[k]), float(s[k]))
    want = evaluate(*(mpmath.mpf(v) for v in point))
    one = _coefficient_partials(*point)
    for c, name in enumerate(names):
        compare(f"{name} at point {k}", one[c], want[0][c])
        for a in range(5):
            compare(f"d{name}/d{u[a]} at point {k}", one[3 + 5 * c + a], want[1][c][a])
            for b in range(5):
                compare(f"d2{name}/d{u[a]}d{u[b]} at point {k}", one[_HESSIANS[c, a, b]], want[2][c][a][b])

for line in failures[:20]:
    print(line)
print(f"{POINTS} points: worst relative deviation {worst:.2e} (bound {TOL:.0e})")
print("ALL MATCH" if not failures else f"{len(failures)} MISMATCHES", f" total time: {time.time() - t0:.1f} s")
raise SystemExit(0 if not failures else 1)
