"""Weak and strong convergence rates of the geodesic Euler scheme.

Both estimates couple all discretization levels to one driving path
(coarse increments are block sums of fine ones), so level differences
isolate the discretization error from the Monte Carlo noise.
"""

from heatcurrents import default_config
from heatcurrents.diagnostics import strong_convergence_test, weak_order_test

cfg = default_config(n_steps=64)

# weak order: bias of E[Re tr g_1] vs step size.  Order 1 for this scheme.
report = weak_order_test(cfg, n_levels=4, n_samples=400_000)
print(f"weak order slope:   {report.estimate:.3f} +- {report.stderr:.3f}")
print(f"  rule: {report.tolerance_rule}, pass = {report.passed}")

# strong (pathwise) rate: RMS distance between coupled coarse and fine
# solutions.  Driving noise is rough in time, so the rate is 1/2.
cfg = default_config(n_steps=1024)
report = strong_convergence_test(cfg, n_levels=5, n_samples=2048)
print(f"strong rate:        {report.estimate:.3f} +- {report.stderr:.3f}")
print(f"  rule: {report.tolerance_rule}, pass = {report.passed}")
