"""How the two consumer types read the same review signal.

Sophisticated consumers condition on the review's precision; naive consumers
collapse everything onto the average precision w_bar.  The gap between them
is the whole engine of the model, so print it for a sweep of h.
"""

import numpy as np

from splab import ModelParams, build_wtp_schedule, w_bar

# At v_B = 0 a consumer's WTP, mu*1 + (1-mu)*0, is their posterior mu, so the
# ladder's five rungs are the five beliefs: sophisticated bad-high, naive bad,
# sophisticated low-precision, naive good, sophisticated good-high.
print(f"{'h':>5} {'w_bar':>6} | {'soph good+high':>14} {'soph good+low':>13} {'naive good':>10}")
for h in np.linspace(0.5, 1.0, 11):
    p = ModelParams(h=float(h), lam=0.0, v_B=0.0)
    levels = build_wtp_schedule(p).levels
    row = (levels[4].wtp, levels[2].wtp, levels[3].wtp)
    print(f"{h:5.2f} {w_bar(p):6.3f} | {row[0]:14.4f} {row[1]:13.4f} {row[2]:10.4f}")

print()
print("Low-precision reviews are pure noise (posterior pinned at the prior 0.5),")
print("so a sophisticated reader ignores them while the naive reader treats every")
print("review as if it had the average precision (1+2h)/4.")

# The naive posterior after a bad review, which anchors the lowest pooled price:
print()
for h in (0.6, 0.8, 0.95):
    naive_bad = build_wtp_schedule(ModelParams(h=float(h), lam=0.0, v_B=0.0)).levels[1].wtp
    print(f"h={h}: naive posterior after a bad review = {naive_bad:.4f}")
