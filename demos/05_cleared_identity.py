"""The degree-14 cleared identity behind the Einstein condition.

Multiplying Ric - sigma F^2 by alpha^2 (beta-alpha)^2 (2 beta-alpha)^4
(3 beta-(2b^2+1) alpha)^4 gives a polynomial Sum_m t_m alpha^m whose fifteen
coefficients are explicit in the covariant contraction scalars.  The left
side here comes entirely from the spray/curvature pipeline, the right side
entirely from the coefficient table -- their agreement at generic points is
the engine's deepest end-to-end check.

The published coefficient table is itself treated as falsifiable data: the
library carries both the verbatim table and a symbolically re-derived
correction to its r00*s0 / r0*s0 / s0^2 brackets (t_3 .. t_12), and this
demo shows the deviation the uncorrected table produces.
"""

import numpy as np

from finslerab import build_bundle, random_metric
from finslerab.identity import appendix_terms, contraction_set, verify_identity

spec = random_metric(4, seed=7)
rng = np.random.default_rng(2)

worst = 0.0
for _ in range(10):
    x = rng.uniform(-0.9, 0.9, 4)
    bu = build_bundle(spec, x)
    y = rng.standard_normal(4)
    y /= np.sqrt(y @ bu.a @ y)  # alpha(x, y) = 1
    sigma = float(rng.uniform(-1, 1))
    diag = verify_identity(bu, y, sigma)
    worst = max(worst, diag.rel_dev)
print("corrected table, worst relative deviation over 10 samples:", worst)

print("parity split at the last sample (even/odd lines):", diag.even_dev, diag.odd_dev)
print("t_m(-y) = (-1)^m t_m(y) to", diag.term_parity_dev, "; identity and split hold:", diag.ok)

cs = contraction_set(bu, y, sigma)
powers = cs.alpha ** np.arange(15)
printed = float(appendix_terms(cs, printed=True) @ powers)
corrected = float(appendix_terms(cs) @ powers)
print("\nverbatim published table at the same sample:")
print("  relative deviation from the pipeline:", abs(diag.lhs - printed) / max(1.0, abs(diag.lhs)))
print("  (the corrected table reproduces it to", abs(diag.lhs - corrected) / max(1.0, abs(diag.lhs)), ")")
