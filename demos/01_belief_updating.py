"""How the two consumer types read the same review signal.

Sophisticated consumers condition on the review's precision; naive consumers
collapse everything onto the average precision w_bar.  The gap between them
is the whole engine of the model, so print it for a sweep of h.
"""

import numpy as np

from splab import (
    ModelParams,
    Precision,
    Signal,
    Valence,
    posterior_naive,
    posterior_sophisticated,
    w_bar,
)

GH = Signal(Valence.GOOD, Precision.HIGH)
GL = Signal(Valence.GOOD, Precision.LOW)

print(f"{'h':>5} {'w_bar':>6} | {'soph good+high':>14} {'soph good+low':>13} {'naive good':>10}")
for h in np.linspace(0.5, 1.0, 11):
    p = ModelParams(h=float(h), lam=0.0, v_B=0.0)
    row = (
        posterior_sophisticated(p, GH),
        posterior_sophisticated(p, GL),
        posterior_naive(p, Valence.GOOD),
    )
    print(f"{h:5.2f} {w_bar(p):6.3f} | {row[0]:14.4f} {row[1]:13.4f} {row[2]:10.4f}")

print()
print("Low-precision reviews are pure noise (posterior pinned at the prior 0.5),")
print("so a sophisticated reader ignores them while the naive reader treats every")
print("review as if it had the average precision (1+2h)/4.")

# The naive posterior after a bad review, which anchors the lowest pooled price:
print()
for h in (0.6, 0.8, 0.95):
    p = ModelParams(h=float(h), lam=0.0, v_B=0.0)
    print(f"h={h}: naive posterior after a bad review = {posterior_naive(p, Valence.BAD):.4f}")
