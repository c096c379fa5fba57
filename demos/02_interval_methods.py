"""The four interval constructions side by side.

Each method answers "how uncertain is CV_B?" differently: a Wald
interval on the logit scale, intervals that let only one component
vary, an equal-split adjustment that lets both vary, and the
propagating-imprecision envelope that searches over every split.
"""

import math

from cvmeta import fit_rem, load_hssp
from cvmeta.intervals import (
    alpha_adjusted_intervals,
    fixed_intervals,
    propimp_intervals,
    tau2_ci_qprofile,
    wald_logit_intervals,
)
from cvmeta.numerics import norm_quantile

data = load_hssp()
fit = fit_rem(data)

tau_iv = tau2_ci_qprofile(data)
half = norm_quantile(0.975) * math.sqrt(fit.var_beta_hat)
print(f"components: tau2 in ({tau_iv.lower:.3f}, {tau_iv.upper:.3f}),"
      f" beta in ({fit.beta_hat - half:.3f}, {fit.beta_hat + half:.3f})")

rows = {
    "wald logit": wald_logit_intervals(fit),
    "fixed tau": fixed_intervals(data, "FIXED_TAU", fit=fit),
    "fixed beta": fixed_intervals(data, "FIXED_BETA", fit=fit),
    "both at 95": fixed_intervals(data, "BOTH95", fit=fit),
    "alpha adjusted": alpha_adjusted_intervals(data, fit=fit),
    "propimp": propimp_intervals(data, fit=fit)[0],
}

print(f"\n{'method':<16}{'CV_B':>20}{'M1':>20}")
for name, ivs in rows.items():
    cv, m1 = ivs["CV_B"], ivs["M1"]
    print(f"{name:<16}({cv.lower:7.3f}, {cv.upper:8.3f})"
          f"    ({m1.lower:6.3f}, {m1.upper:6.3f})")

# Fixing one component understates the uncertainty; combining two
# marginal 95% intervals overstates it.  The alpha-adjusted row uses
# component level ~83.4% so the corners land near overall 95%, and
# propimp widens that just enough to cover every way of splitting the
# error budget between the two components.
trace = propimp_intervals(data, fit=fit)[1]
print(f"\npropimp searched {trace.evaluations} corner evaluations"
      f" (theta {trace.theta_lower:.3f} lower, {trace.theta_upper:.3f} upper)")
