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

This module builds the ladder for the baseline variant only.  Off the
baseline the equilibrium module prices the fully naive market (lam = 0) from
its two naive WTPs directly, so non-baseline parameters are rejected here.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .model import (
    ModelParams,
    ParameterError,
    Precision,
    Quality,
    Signal,
    UnsupportedVariantError,
    Valence,
    posterior_naive,
    posterior_sophisticated,
    wtp_from_posterior,
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
class WtpLevel:
    """One rung of the willingness-to-pay ladder."""

    level: int  # 1..5, ascending WTP
    wtp: float
    mass_G: float  # population share at this WTP when quality is G
    mass_B: float  # population share at this WTP when quality is B
    consumer_label: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class WtpSchedule:
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def build_wtp_schedule(params: ModelParams) -> WtpSchedule:
    """Construct the five-level schedule for baseline parameters.

    Raises UnsupportedVariantError unless gamma = 0.5 and mu0 = 0.5.
    """
    if not params.is_base_variant:
        raise UnsupportedVariantError(
            "the five-level WTP schedule exists only for the symmetric "
            f"baseline (gamma=0.5, mu0=0.5); got gamma={params.gamma}, "
            f"mu0={params.mu0}"
        )
    h, lam = params.h, params.lam

    posteriors = (
        posterior_sophisticated(params, Signal(Valence.BAD, Precision.HIGH)),
        posterior_naive(params, Valence.BAD),
        posterior_sophisticated(params, Signal(Valence.GOOD, Precision.LOW)),
        posterior_naive(params, Valence.GOOD),
        posterior_sophisticated(params, Signal(Valence.GOOD, Precision.HIGH)),
    )
    wtps = tuple(wtp_from_posterior(mu, params) for mu in posteriors)

    # Joint mass of (consumer type, signal cell) behind each level.  For a
    # good product the sophisticated bad-high cell has probability (1-h)/2,
    # naive bad-valence (3-2h)/4, low precision 1/2, and so on; a bad product
    # sees the mirror image, so mass_B is mass_G reversed.
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


def expected_demand(schedule: WtpSchedule, price: float, quality: Quality) -> float:
    """Fraction of the population buying at `price` given the true quality.

    Consumers buy when WTP >= price (purchase at indifference), so demand is
    the upper-tail mass from the lowest level whose WTP covers the price.
    """
    if not 0.0 <= price <= 1.0:
        raise ParameterError(f"price must lie in [0, 1], got {price}")
    coverage = schedule.coverage_G if quality is Quality.G else schedule.coverage_B
    for k, lvl in enumerate(schedule.levels):
        if price <= lvl.wtp:
            return coverage[k]
    return 0.0
