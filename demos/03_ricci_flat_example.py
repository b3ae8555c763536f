"""The shipped 5-dimensional Ricci-flat slope metric, checked six ways.

The metric alpha = diag(t^2, t^2, 1/t, t, 1) with t = x4 is Ricci-flat but
genuinely curved, and the constant 1-form beta = 0.4 dy^5 is parallel.  The
deformed metric F = alpha^2/(alpha - beta) is then Ricci-flat as well, its
S-curvature vanishes, and -- because alpha is not flat -- it does NOT have
constant flag curvature: the fit K = Ric / ((n - 1) F^2) is 0, but the fit's
residual stays order one.
"""

import numpy as np

from finslerab import build_bundle, shipped_metric
from finslerab.finsler import flag_curvature_fit, metric_value, ricci_via_T, riemann_curvature, spray
from finslerab.scurvature import s_curvature_def

spec = shipped_metric("matsumoto_example")
rng = np.random.default_rng(0)

x = np.array([0.1, -0.3, 0.5, 1.2, 0.4])
bu = build_bundle(spec, x)
y = rng.standard_normal(5)
y /= np.sqrt(y @ bu.a @ y)  # alpha(x, y) = 1

print("max |Ricci tensor of alpha| :", np.max(np.abs(bu.ricci_tensor)))
print("max |curvature tensor|      :", np.max(np.abs(bu.riem4)), " (Ricci-flat, NOT flat)")
print("max |b_i|j|                 :", np.max(np.abs(bu.Db)), " (parallel form)")

# one spray record at (x, y): every curvature and S reader below takes it
sp = spray(bu, y)
R, ric = riemann_curvature(sp)
print("\nRic of F, direct route      :", ric)
print("Ric of F, deformation route :", ricci_via_T(sp))
print("F^2 at the sample           :", metric_value(bu, y) ** 2)
print("S-curvature (BH volume)     :", s_curvature_def(sp, "bh"))

K, res = flag_curvature_fit(sp, R, metric_value(bu, y))
print("\nflag-curvature fit          : K =", K, " residual =", res)
print("  -> no constant flag curvature, exactly as the theory demands for")
print("     a parallel form over a curved Ricci-flat alpha.")
