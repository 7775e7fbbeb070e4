"""Primitives for a market where buyers learn product quality from noisy reviews.

A monopolist sells a product of binary quality ``Q`` (good ``G`` with value
``V_G = 1`` or bad ``B`` with value ``v_B < 1``).  Each consumer privately
observes one signal about quality.  A signal has a valence (good/bad news)
and a precision ``w``: with probability ``gamma`` the precision is high
(``w = h``) and otherwise low (``w = L = 0.5``, pure noise).  A signal of
precision ``w`` carries the correct valence with probability ``w``.  The
model fixes ``V_G`` and ``L``, so they are module constants, not parameters.

Consumers differ in what they can see.  A *sophisticated* consumer observes
both valence and precision and updates beliefs on the pair.  A *naive*
consumer observes only the valence and updates as if every signal had the
average precision ``w_bar = gamma*h + (1-gamma)*L``.  A fraction ``lambda``
of the population is sophisticated.

A belief is computed in one of two forms defined here, which round alike:
`posterior_wtp` on floats or arrays (the ladder and the naive market) and
`_bayes` with `wtp_from_posterior` on floats (the oracle's cells).
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import asdict, dataclass


class ParameterError(ValueError):
    """A model parameter is outside its admissible domain."""


class UnsupportedVariantError(ValueError):
    """The operation does not cover this model variant (e.g. gamma != 0.5)."""


#: Low signal precision: a low-precision signal is pure noise.
L = 0.5
#: Value of the good-quality product; v_B is measured against it.
V_G = 1.0
#: gamma and mu0 of the symmetric baseline, the only variant with a ladder.
BASE = 0.5


class Record:
    """Base of the frozen result dataclasses: a dict and a JSON form."""

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


class Quality(enum.Enum):
    """True product quality."""

    G = "G"
    B = "B"


#: Each ModelParams field, in field order, with the test its finite float
#: value must pass and the range that test admits, as error messages print it.
FIELD_RANGES = {
    "h": (lambda value: 0.5 <= value <= 1.0, "[0.5, 1]"),
    "lam": (lambda value: 0.0 <= value <= 1.0, "[0, 1]"),
    "v_B": (lambda value: 0.0 <= value < V_G, "[0, 1)"),
    "gamma": (lambda value: 0.0 < value < 1.0, "(0, 1)"),
    "mu0": (lambda value: 0.0 <= value <= 1.0, "[0, 1]"),
}


@dataclass(frozen=True, init=False)
class ModelParams:
    """Market parameters.

    h      -- high signal precision, in [0.5, 1].  h = 0.5 is the degenerate
              uninformative boundary: admitted so callers can evaluate the
              no-dispersion limit, though strict-ordering results need h > 0.5.
    lam    -- fraction of sophisticated consumers, in [0, 1].
    v_B    -- value of the bad-quality product, in [0, 1).
    gamma  -- probability a signal has high precision, in (0, 1).
    mu0    -- common prior that quality is good, in [0, 1].

    A grid builds one per point, so `__init__` is written out: it has the
    generated signature and ends with `__post_init__`, which validates, but
    stores the five fields in one dict update, not one `object.__setattr__`
    call each (about 0.85 against 1.2 µs).  The cost is the instance dict,
    which is then materialised: about 240 bytes per live object against 115.
    """

    h: float
    lam: float
    v_B: float
    gamma: float = BASE
    mu0: float = BASE

    def __init__(
        self, h: float, lam: float, v_B: float, gamma: float = BASE, mu0: float = BASE
    ) -> None:
        self.__dict__.update(h=h, lam=lam, v_B=v_B, gamma=gamma, mu0=mu0)
        self.__post_init__()

    def __post_init__(self) -> None:
        h, lam, v_B, gamma, mu0 = self.h, self.lam, self.v_B, self.gamma, self.mu0
        # Five in-range floats pass in one test, FIELD_RANGES' five written
        # out (NaN fails every comparison); anything else goes through
        # _validate, which converts and names the first bad field.
        if (
            type(h) is float and type(lam) is float and type(v_B) is float
            and type(gamma) is float and type(mu0) is float
            and 0.5 <= h <= 1.0 and 0.0 <= lam <= 1.0 and 0.0 <= v_B < V_G
            and 0.0 < gamma < 1.0 and 0.0 <= mu0 <= 1.0
        ):
            return
        self._validate()

    def _validate(self) -> None:
        for name in ("h", "lam", "v_B", "gamma", "mu0"):
            value = getattr(self, name)
            object.__setattr__(self, name, float(value))
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        for name, (in_range, text) in FIELD_RANGES.items():
            if not in_range(getattr(self, name)):
                raise ParameterError(f"{name} must lie in {text}, got {getattr(self, name)}")

    @property
    def is_base_variant(self) -> bool:
        """True for the symmetric baseline gamma = 0.5, mu0 = 0.5."""
        return self.gamma == BASE and self.mu0 == BASE

    def to_dict(self) -> dict:
        return {
            "h": self.h,
            "lambda": self.lam,
            "v_B": self.v_B,
            "gamma": self.gamma,
            "mu0": self.mu0,
        }


def _require_base(params: ModelParams, op: str) -> None:
    """Raise UnsupportedVariantError unless `params` is the baseline."""
    if not params.is_base_variant:
        raise UnsupportedVariantError(
            f"{op} covers the symmetric baseline only (gamma=0.5, mu0=0.5); "
            f"got gamma={params.gamma}, mu0={params.mu0}"
        )


def w_bar(params: ModelParams) -> float:
    """Average signal precision, gamma*h + (1-gamma)*L.

    This is both the precision a naive consumer imputes to every signal and
    the unconditional probability that a signal's valence matches quality.
    At gamma = 0.5 it equals (1 + 2h)/4.
    """
    return params.gamma * params.h + (1.0 - params.gamma) * L


def _bayes(mu0: float, like_G: float, like_B: float) -> float:
    """Posterior Pr(G | evidence) from prior mu0 and the two likelihoods.

    A zero denominator can only occur at a degenerate prior combined with an
    impossible signal; the prior is returned unchanged (it is absorbing).
    """
    num = mu0 * like_G
    den = num + (1.0 - mu0) * like_B
    if den == 0.0:
        return mu0
    return num / den


def wtp_from_posterior(mu: float, params: ModelParams) -> float:
    """Willingness to pay of a consumer with belief mu: mu*V_G + (1-mu)*v_B.

    Prices come from posteriors through this expression only, here or in
    its array form `posterior_wtp`, so that analytically equal
    willingness-to-pay values are bitwise equal.
    """
    return mu * V_G + (1.0 - mu) * params.v_B


def posterior_wtp(mu0, like_G, like_B, v_B):
    """The WTP of `_bayes(mu0, like_G, like_B)`, on floats or numpy arrays.

    The fields may be floats or arrays that broadcast together.  Every step
    is one elementwise IEEE operation in the order of `_bayes` and
    `wtp_from_posterior`, so an array element rounds exactly as the float
    call does.  `_bayes`'s zero-denominator guard is arithmetic, not a
    branch: where den == 0 both of its non-negative terms are 0, so num is
    a zero of mu0's sign and num / 1 + mu0 is mu0, as `_bayes` returns;
    elsewhere num / den + 0 * mu0 is num / den (a -0.0 quotient needs
    mu0 = -0.0, whose 0 * mu0 is -0.0 too).  The baseline ladder and the
    fully naive market price through it.
    """
    num = mu0 * like_G
    den = num + (1.0 - mu0) * like_B
    zero = den == 0.0
    mu = num / (den + zero) + zero * mu0
    return mu * V_G + (1.0 - mu) * v_B
