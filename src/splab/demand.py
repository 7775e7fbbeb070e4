"""Willingness-to-pay schedule and expected demand.

In the symmetric baseline (gamma = 0.5, mu0 = 0.5) the population sorts into
five willingness-to-pay levels, ordered low to high:

    1. sophisticated, bad high-precision signal   (posterior 1-h)
    2. naive, bad signal                          (posterior 1-w_bar)
    3. sophisticated, low-precision signal        (posterior 0.5)
    4. naive, good signal                         (posterior w_bar)
    5. sophisticated, good high-precision signal  (posterior h)

The mass at each level depends on the true quality because quality tilts the
signal distribution: a good product pushes mass up the schedule, a bad one
pushes it down.  Expected demand at a price is the total mass at or above
that price (consumers buy when indifferent), which makes expected profit
p * expected_demand(schedule, p, quality) piecewise linear in price with
kinks exactly at the five WTP values.

The ladder exists for the baseline only (off it the equilibrium module
prices the fully naive market from its two naive WTPs).  `ladder` returns
its floats as flat tuples, which the solver and threshold engine read;
`build_wtp_schedule` wraps the same floats in WtpLevel/WtpSchedule objects.
Both read `ladder_fields`, whose one body of arithmetic also runs on numpy
arrays for the batched grid, so a grid point and a scalar call agree bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    BASE,
    L,
    ModelParams,
    ParameterError,
    Quality,
    Record,
    _require_base,
    posterior_wtp,
)

#: Population segment behind each WTP level, lowest to highest.
CONSUMER_LABELS: tuple[str, ...] = (
    "soph-bad-high",
    "naive-bad",
    "soph-low-precision",
    "naive-good",
    "soph-good-high",
)


@dataclass(frozen=True)
class WtpLevel(Record):
    """One rung of the willingness-to-pay ladder."""

    level: int  # 1..5, ascending WTP
    wtp: float
    mass_G: float  # population share at this WTP when quality is G
    mass_B: float  # population share at this WTP when quality is B
    consumer_label: str


@dataclass(frozen=True)
class WtpSchedule(Record):
    """The five-level WTP ladder plus precomputed upper-tail masses.

    coverage_G[k] (0-indexed) is the total Q=G mass at level k+1 and above,
    i.e. expected demand at any price in (wtp_k-1, wtp_k].  Storing the
    suffix sums once guarantees that every demand lookup and every rung's
    profit evaluate through identical floats.
    """

    params: ModelParams
    levels: tuple[WtpLevel, ...]
    coverage_G: tuple[float, ...]
    coverage_B: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "levels": [lvl.to_dict() for lvl in self.levels],
        }


def ladder(params: ModelParams) -> tuple[tuple[float, ...], ...]:
    """(wtps, coverage_G, coverage_B): the five rungs as flat float tuples.

    Raises UnsupportedVariantError unless gamma = 0.5 and mu0 = 0.5.
    """
    _require_base(params, "the five-level WTP ladder")
    return ladder_fields(params.h, params.lam, params.v_B)


def ladder_fields(h, lam, v_B) -> tuple[tuple, ...]:
    """`ladder` at the baseline point (h, lam, v_B), unvalidated.

    The fields may be floats or numpy arrays that broadcast together; every
    step is one elementwise IEEE operation in a fixed order, so an array
    element rounds exactly as the float call does.  w_bar is `model.w_bar`'s
    expression and each rung's WTP is `model.posterior_wtp`.
    """
    wb = BASE * h + (1.0 - BASE) * L
    # Pr(signal | G), Pr(signal | B) of each rung's signal, in CONSUMER_LABELS order.
    wtps = (
        posterior_wtp(BASE, 1.0 - h, h, v_B),
        posterior_wtp(BASE, 1.0 - wb, wb, v_B),
        posterior_wtp(BASE, L, 1.0 - L, v_B),
        posterior_wtp(BASE, wb, 1.0 - wb, v_B),
        posterior_wtp(BASE, h, 1.0 - h, v_B),
    )
    mass_G = _rung_masses(h, lam)
    return wtps, _suffix_sums(mass_G), _suffix_sums(mass_G[::-1])


def _rung_masses(h, lam) -> tuple:
    """Mass of (consumer type, signal cell) behind each rung when Q = G;
    a bad product sees the mirror image, so its masses are these reversed."""
    return (
        lam * (1.0 - h) / 2.0,
        (1.0 - lam) * (3.0 - 2.0 * h) / 4.0,
        lam / 2.0,
        (1.0 - lam) * (1.0 + 2.0 * h) / 4.0,
        lam * h / 2.0,
    )


def _suffix_sums(m: tuple) -> tuple:
    """(m0+...+m4, m1+...+m4, ..., m4), added from the top rung down onto
    0.0, so that a -0.0 mass (lam = -0.0) sums to +0.0."""
    s4 = m[4] + 0.0
    s3 = m[3] + s4
    s2 = m[2] + s3
    s1 = m[1] + s2
    return (m[0] + s1, s1, s2, s3, s4)


def build_wtp_schedule(params: ModelParams) -> WtpSchedule:
    """`ladder(params)` as WtpLevels; UnsupportedVariantError off the baseline."""
    wtps, coverage_G, coverage_B = ladder(params)
    mass_G = _rung_masses(params.h, params.lam)
    levels = tuple(
        WtpLevel(k + 1, wtps[k], mass_G[k], mass_G[4 - k], CONSUMER_LABELS[k])
        for k in range(5)
    )
    return WtpSchedule(params, levels, coverage_G, coverage_B)


def expected_demand(schedule: WtpSchedule, price: float, quality: Quality) -> float:
    """Fraction of the population buying at `price` given the true quality.

    Consumers buy when WTP >= price (purchase at indifference), so demand is
    the upper-tail mass from the lowest level whose WTP covers the price.
    """
    if not isinstance(quality, Quality):
        raise ParameterError(f"quality must be a Quality, got {quality!r}")
    if not 0.0 <= price <= 1.0:
        raise ParameterError(f"price must lie in [0, 1], got {price}")
    coverage = schedule.coverage_G if quality is Quality.G else schedule.coverage_B
    for k, lvl in enumerate(schedule.levels):
        if price <= lvl.wtp:
            return coverage[k]
    return 0.0
