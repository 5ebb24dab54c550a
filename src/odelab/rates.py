"""The pinned minimax rate formulas: one catalogue from rate id to formula.

Each entry maps a rate id to the :class:`RateSpec` fields it needs and
its closed form in (beta, d, n, ...); ``RATE_IDS`` lists the ids and
:func:`rate_eval` reads one.  The module needs only the standard library,
so ``odelab rates`` runs without numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["MissingField", "RateSpec", "rate_eval", "RATE_IDS"]


class MissingField(Exception):
    """A rate formula was asked for without one of its inputs."""


@dataclass(frozen=True)
class RateSpec:
    beta: float
    d: int
    n: Optional[int] = None
    m: Optional[int] = None
    n_max: Optional[int] = None
    T_max: Optional[float] = None
    T_sum: Optional[float] = None
    step: Optional[float] = None
    delta: Optional[float] = None
    s: float = 0.0


def _onlyn_exponent(beta: float, d: float) -> float:
    # shared by every n-only rate so equal-by-construction claims are bitwise
    return -(2.0 * beta) / (2.0 * (beta + 1.0) + d)


def _snake_inner(q: RateSpec, d: float) -> float:
    return q.delta ** (-(d - 1.0)) * q.n / q.T_sum


def _snake_combined_nice(q: RateSpec, beta: float, d: float) -> float:
    delta_star = rate_eval(q, "stubble-balancing-step")
    T_star = delta_star ** (-(d - 1.0))
    inner = delta_star ** (-(d - 1.0)) / T_star * q.n  # exactly n
    return inner ** _onlyn_exponent(beta, d)


# The rate catalogue: id -> (the RateSpec fields it needs, its formula(q, beta, d)),
# evaluated at the spec q with beta = q.beta and d = float(q.d).
_RATES = {
    "stubble-prob": (("m", "n_max", "T_max"), lambda q, beta, d:
                     (q.m * q.n_max * q.T_max**2) ** (-beta / (2.0 * beta + d))),
    "stubble-nice": ((), lambda q, beta, d: rate_eval(q, "stubble-nice-prob-term")
                     + rate_eval(q, "stubble-nice-det-term")),
    "stubble-nice-sup": (("n", "step"), lambda q, beta, d:
                         (q.n / math.log(q.n) * q.step**2) ** (-(2.0 * beta) / (2.0 * beta + d))
                         + q.step ** (2.0 * beta)),
    "stubble-nice-prob-term": (("n", "step"), lambda q, beta, d:
                               (q.n * q.step**2) ** (-(2.0 * beta) / (2.0 * beta + d))),
    "stubble-nice-det-term": (("step",), lambda q, beta, d: q.step ** (2.0 * beta)),
    "stubble-onlyn": (("n",), lambda q, beta, d: q.n ** _onlyn_exponent(beta, d)),
    "stubble-onlyn-sup": (("n",), lambda q, beta, d:
                          (q.n / math.log(q.n)) ** _onlyn_exponent(beta, d)),
    "stubble-balancing-step": (("n",), lambda q, beta, d:
                               q.n ** (-1.0 / (2.0 * (beta + 1.0) + d))),
    "snake-prob": (("delta", "n", "T_sum"), lambda q, beta, d:
                   _snake_inner(q, d) ** (-beta / (2.0 * (beta + 1.0) + d))),
    "snake-combined": (("delta", "n", "T_sum"), lambda q, beta, d:
                       q.delta ** (2.0 * beta) + _snake_inner(q, d) ** _onlyn_exponent(beta, d)),
    "snake-combined-nice": (("n",), _snake_combined_nice),
    "regression": (("n",), lambda q, beta, d: q.n ** (-(beta - q.s) / (2.0 * beta + d))),
    "regression-sup": (("n",), lambda q, beta, d:
                       (q.n / math.log(q.n)) ** (-(beta - q.s) / (2.0 * beta + d))),
}
RATE_IDS = tuple(_RATES)


def rate_eval(spec: RateSpec, which: str) -> float:
    """Evaluate one pinned rate formula; see RATE_IDS for the catalogue."""
    if which not in _RATES:
        raise ValueError(f"unknown rate id {which!r}; known: {sorted(RATE_IDS)}")
    needs, formula = _RATES[which]
    for name in needs:
        if getattr(spec, name) is None:
            raise MissingField(f"rate '{which}' needs field '{name}'")
    return formula(spec, spec.beta, float(spec.d))
