"""Closed-form reference values the benchmark checks the program's outputs against.

Independent of the package under test: the Clark-Cameron moments are
re-derived here, and the Heston call is priced with Lewis' formula using
numpy only.  Run ``python3 perfbench/reference.py`` for the self-tests.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def cc_usq_mean(mu: float = 1.0, horizon: float = 1.0, s0: float = 0.0) -> float:
    """E[U_T^2] for dU = S dW1, dS = mu dt + dW2 (Ito isometry)."""
    t, mu, s0 = Fraction(horizon), Fraction(mu), Fraction(s0)
    return float(s0**2 * t + s0 * mu * t**2 + mu**2 * t**3 / 3 + t**2 / 2)


def cc_znv_second_moment(level: int, mu: float = 1.0, horizon: float = 1.0) -> float:
    """E[(Z^l)^2] of the nv coupling on Clark-Cameron with f = u^2."""
    q, mu2, t = Fraction(1, 2**level), Fraction(mu) ** 2, Fraction(horizon)
    return float(
        q**4 * (Fraction(3, 16) * mu2**2 * t**6 + mu2 * t**5)
        + q**3 * (Fraction(1, 4) * mu2 * t**5 + 2 * t**4)
        + q**2 * (Fraction(5, 8) * t**4)
    )


def _integrated_cir_laplace(s, kappa, theta, sigma, v0, horizon):
    """E[exp(-s int_0^T V dt)] for CIR variance V and real s >= 0."""
    gamma = np.sqrt(kappa**2 + 2.0 * sigma**2 * s)
    decay = np.exp(-gamma * horizon)
    den = (gamma + kappa) * (1.0 - decay) + 2.0 * gamma * decay
    b = 2.0 * s * (1.0 - decay) / den
    log_a = (2.0 * kappa * theta / sigma**2) * (
        np.log(2.0 * gamma / den) + 0.5 * (kappa - gamma) * horizon
    )
    return np.exp(log_a - b * v0)


def heston_call(rate=0.05, kappa=0.5, theta=0.9, sigma=0.05, v0=1.0, horizon=1.0,
                nodes=400, u_max=60.0) -> float:
    """At-the-money call (S0 = K = 1) under uncorrelated Heston, Lewis' formula.

    C = 1 - e^{-rT/2} / pi * int_0^inf cos(u r T) phi(u - i/2) / (u^2 + 1/4) du.
    With zero correlation, phi(u - i/2) is the Laplace transform of the
    integrated variance at the real point s = (u^2 + 1/4) / 2, so the
    integrand is real and smooth; it decays like exp(-u^2 int V / 2), and a
    Gauss-Legendre rule on [0, u_max] resolves it to rounding error.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * u_max * (x + 1.0)
    s = 0.5 * (u**2 + 0.25)
    laplace = _integrated_cir_laplace(s, kappa, theta, sigma, v0, horizon)
    integrand = np.cos(u * rate * horizon) * laplace / (u**2 + 0.25)
    integral = 0.5 * u_max * float(np.dot(w, integrand))
    return 1.0 - math.exp(-0.5 * rate * horizon) / math.pi * integral


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def black_scholes_atm(rate: float, total_variance: float, horizon: float = 1.0) -> float:
    """Black-Scholes call with S0 = K = 1 at the given integrated variance."""
    sd = math.sqrt(total_variance)
    d1 = (rate * horizon + 0.5 * total_variance) / sd
    return _normal_cdf(d1) - math.exp(-rate * horizon) * _normal_cdf(d1 - sd)


def self_test() -> list[str]:
    """Return a description of each failed self-test (empty when all pass)."""
    failures = []
    kappa, theta, v0, rate = 0.5, 0.9, 1.0, 0.05
    # sigma -> 0: the variance is deterministic, so Heston is Black-Scholes
    # at the integrated variance theta T + (v0 - theta)(1 - e^{-kappa T}) / kappa
    integrated = theta + (v0 - theta) * (1.0 - math.exp(-kappa)) / kappa
    bs = black_scholes_atm(rate, integrated)
    near_bs = heston_call(rate, kappa, theta, 1e-3, v0)
    if abs(near_bs - bs) > 1e-7:
        failures.append(f"sigma->0 limit {near_bs!r} != Black-Scholes {bs!r}")
    price = heston_call()
    if abs(price - 0.394692) > 5e-7:
        failures.append(f"default Heston call {price!r} != 0.394692")
    if abs(heston_call(nodes=200) - price) > 1e-12:
        failures.append("quadrature not converged at 200 nodes")
    if cc_usq_mean() != 5.0 / 6.0:
        failures.append("Clark-Cameron E[U_T^2] != 5/6")
    return failures


if __name__ == "__main__":
    print(f"heston call at CLI defaults: {heston_call():.12f}")
    problems = self_test()
    for line in problems:
        print(f"FAIL {line}")
    print("self-test", "FAIL" if problems else "PASS")
    raise SystemExit(1 if problems else 0)
