"""Reference ladder: one posterior call per rung, then the WtpLevel objects.

This is the formulation `splab.demand.build_wtp_schedule` used before the
flat `ladder` function.  Each rung's posterior is `_bayes` on its signal's
likelihoods, written out, as the enum-keyed posterior functions of
`splab.model` gave it before they were removed; the masses are
written out per rung, and the coverages are suffix sums taken from the top
rung down.  It lives in the tests only, where the flat ladder and the
schedule built on it must equal it bit for bit.
"""

from __future__ import annotations

from splab.demand import CONSUMER_LABELS, WtpLevel, WtpSchedule
from splab.model import L, ModelParams, _bayes, w_bar, wtp_from_posterior


def build_wtp_schedule(params: ModelParams) -> WtpSchedule:
    h, lam, mu0 = params.h, params.lam, params.mu0
    wb = w_bar(params)

    # Each rung's likelihoods under G and B as its consumer reads them:
    # sophisticated bad-high, naive bad, sophisticated low, naive good,
    # sophisticated good-high.
    posteriors = (
        _bayes(mu0, 1.0 - h, h),
        _bayes(mu0, 1.0 - wb, wb),
        _bayes(mu0, L, 1.0 - L),
        _bayes(mu0, wb, 1.0 - wb),
        _bayes(mu0, h, 1.0 - h),
    )
    wtps = tuple(wtp_from_posterior(mu, params) for mu in posteriors)

    mass_G = (
        lam * (1.0 - h) / 2.0,
        (1.0 - lam) * (3.0 - 2.0 * h) / 4.0,
        lam / 2.0,
        (1.0 - lam) * (1.0 + 2.0 * h) / 4.0,
        lam * h / 2.0,
    )
    mass_B = tuple(reversed(mass_G))

    levels = tuple(
        WtpLevel(k + 1, wtps[k], mass_G[k], mass_B[k], CONSUMER_LABELS[k])
        for k in range(5)
    )
    return WtpSchedule(
        params=params,
        levels=levels,
        coverage_G=_suffix_sums(mass_G),
        coverage_B=_suffix_sums(mass_B),
    )


def _suffix_sums(masses: tuple[float, ...]) -> tuple[float, ...]:
    out = [0.0] * len(masses)
    acc = 0.0
    for k in range(len(masses) - 1, -1, -1):
        acc = masses[k] + acc
        out[k] = acc
    return tuple(out)
