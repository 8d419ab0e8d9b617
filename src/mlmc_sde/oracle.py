"""Closed-form reference moments for the Clark-Cameron test problem.

These are the acceptance truths the Monte Carlo machinery is checked
against: the exact second moment of the splitting-scheme level sample for
f(u, s) = u^2, and the exact E[U_T^2] of the SDE itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# exact coefficients of the 2^{-4l}, 2^{-3l}, 2^{-2l} groups
_C4_MU4, _C4_MU2 = Fraction(3, 16), Fraction(1)
_C3_MU2, _C3_1 = Fraction(1, 4), Fraction(2)
_C2_1 = Fraction(5, 8)


@dataclass(frozen=True)
class OracleValue:
    value: float
    provenance: str


def _rounded(total: Fraction) -> float:
    """Round a nonnegative exact value to a float once; past the float range
    that is inf."""
    try:
        return float(total)
    except OverflowError:
        return math.inf


def znv_second_moment(level: int, mu: float = 1.0, horizon: float = 1.0) -> OracleValue:
    """Exact E[(Z^l)^2] for the nv coupling on Clark-Cameron with f = u^2.

    The closed form,

        2^{-4l} (3/16 mu^4 T^6 + mu^2 T^5)
          + 2^{-3l} (1/4 mu^2 T^5 + 2 T^4)
          + 2^{-2l} (5/8 T^4),

    was derived per coarse block (the six coupled paths differ by sums of
    independent block terms, since the common S-propagation cancels) and
    cross-checked against exhaustive symbolic expectation of the coupled
    schemes at levels 1 and 2.  It is evaluated in exact rational
    arithmetic and rounded once at the end (to inf past the float range):
    these coefficients are the acceptance truth the sampling machinery is
    tested against, so no floating-point reformulation is allowed.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    mu2 = Fraction(mu) ** 2
    t = Fraction(horizon)
    t4, t5, t6 = t**4, t**5, t**6
    quarter = Fraction(1, 2**level)
    total = (
        quarter**4 * (_C4_MU4 * mu2**2 * t6 + _C4_MU2 * mu2 * t5)
        + quarter**3 * (_C3_MU2 * mu2 * t5 + _C3_1 * t4)
        + quarter**2 * (_C2_1 * t4)
    )
    return OracleValue(_rounded(total), "appendix-closed-form")


def cc_exact_usq_mean(mu: float = 1.0, horizon: float = 1.0, s0: float = 0.0) -> OracleValue:
    """Exact E[U_T^2] for Clark-Cameron via the Ito isometry.

    U_T = int_0^T S_t dW^1 with S_t = s0 + mu t + W^2_t, so
    E[U_T^2] = int_0^T ((s0 + mu t)^2 + t) dt.
    """
    t = Fraction(horizon)
    mu_f, s0_f = Fraction(mu), Fraction(s0)
    total = s0_f**2 * t + s0_f * mu_f * t**2 + mu_f**2 * t**3 / 3 + t**2 / 2
    return OracleValue(_rounded(total), "ito-isometry")
