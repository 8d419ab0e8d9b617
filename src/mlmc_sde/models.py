"""SDE test models with closed-form flows for splitting schemes.

A model is one problem instance: its parameters, its start point X_0 and
its horizon T, on which every grid of step T / 2^l is built.  The schemes
read a model through its Milstein terms and the exact flows of its drift /
diffusion vector fields, which take and return a tuple of n coordinate
arrays, so no call builds a new stacked state.  Each concrete model also
keeps stacked closed forms of its coefficients (states of shape (..., n),
a batch of Monte Carlo samples being a leading axis): the Ito drift, the
diffusion columns sigma^j, their Jacobian products and sigma^0.  No scheme
calls them; they are the independent reference the tests check the
Milstein terms and flows against.
A splitting step runs its diffusion flows through one call,
``diffusion_orders``, which composes them in both orders; a model may
override it to share work between flows and orders.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


class NegativeSqrtArgument(ValueError):
    """A square root was requested on a negative variance state.

    Raised by the Heston flows, where a negative variance signals a
    corrupted state (unreachable while xi >= 0, in either composition order
    of the splitting step, so the check can stay batch-wide).  A splitting
    step checks each variance it starts its diffusion flows from once: flow
    1 leaves v unchanged, and flow 2 leaves a square, so no later root of
    the step can see a negative argument.
    """


PAYOFF_LABELS = ("cos-u", "u-squared", "u-plus", "heston-call")


def _require_finite(params) -> None:
    """Reject a float field of the dataclass instance ``params`` that is not finite."""
    for f in fields(params):
        if f.type == "float" and not np.isfinite(getattr(params, f.name)):
            raise ValueError(f"{f.name} must be finite, got {getattr(params, f.name)}")


@dataclass(frozen=True)
class Payoff:
    """Terminal payoff f(X_T), selected by label.

    ``heston-call`` is the at-the-money call on S = exp(u) with strike 1,
    discounted at `rate` over `maturity`.  The other labels act on the
    first state coordinate only.
    """

    label: str
    rate: float = 0.0
    maturity: float = 1.0

    def __post_init__(self):
        if self.label not in PAYOFF_LABELS:
            raise ValueError(f"unknown payoff label {self.label!r}")
        _require_finite(self)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        u = np.asarray(x)[..., 0]
        if self.label == "cos-u":
            return np.cos(u)
        if self.label == "u-squared":
            return u * u
        if self.label == "u-plus":
            return np.maximum(u, 0.0)
        disc = np.exp(-self.rate * self.maturity)  # heston-call
        return disc * np.maximum(np.exp(u) - 1.0, 0.0)


class SdeModel:
    """Common interface: what the schemes call, the Milstein terms and exact flows.

    With b the Ito drift and sigma^j the diffusion columns, (d sigma^j)
    sigma^m is the directional derivative of sigma^j along sigma^m, and
    sigma^0 = b - 1/2 sum_j (d sigma^j) sigma^j is the Stratonovich-corrected
    drift whose flow the splitting scheme runs.  Concrete models define
    every method with closed forms; there is no numerical ODE fallback,
    because an approximate flow silently changes the weak order of the
    splitting scheme built on top of it.
    """

    n: int
    d: int
    horizon: float

    def __post_init__(self):
        _require_finite(self)
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")

    def initial_state(self, m: int) -> np.ndarray:
        """m copies of the start point as an (m, n) batch stored coordinate-major."""
        raise NotImplementedError

    def milstein_terms(self, c: tuple) -> tuple:
        """(b, {j: sigma^j}, {(j, m): (d sigma^j) sigma^m}) on coordinates c.

        Each term is a tuple of n coordinates (arrays or scalars), None where
        the coordinate is a structural zero; Jacobian pairs that vanish
        entirely are left out.  Keys ascend, j before m.
        """
        raise NotImplementedError

    def drift_flow(self, c: tuple, t: float) -> tuple:
        """Exact solution of dx/dt = sigma^0(x) after time t, on coordinates c."""
        raise NotImplementedError

    def diffusion_flow(self, j: int, c: tuple, w: np.ndarray) -> tuple:
        """Exact solution of dx/dw = sigma^j(x) after (per-sample) time w, on coordinates c."""
        raise NotImplementedError

    def diffusion_orders(self, up: tuple, down: tuple, w: np.ndarray) -> tuple:
        """(flows 1..d on up, flows d..1 on down), flow j driven by row w[j - 1].

        ``up`` may be ``down``: a step of paths with no twin starts both
        orders from the same coordinates.  A model that overrides this must
        return, bit for bit, what this composition of ``diffusion_flow``
        calls returns, and leave its inputs as they were.
        """
        for j in range(1, self.d + 1):
            up = self.diffusion_flow(j, up, w[j - 1])
        for j in range(self.d, 0, -1):
            down = self.diffusion_flow(j, down, w[j - 1])
        return up, down


@dataclass(frozen=True)
class ClarkCameronModel(SdeModel):
    """dU = S dW^1, dS = mu dt + dW^2."""

    mu: float = 1.0
    u0: float = 0.0
    s0: float = 0.0
    horizon: float = 1.0

    n = 2
    d = 2

    def initial_state(self, m):
        return np.repeat([[float(self.u0)], [float(self.s0)]], m, axis=1).T

    def drift(self, x):
        u = x[..., 0]
        return np.stack([np.zeros_like(u), np.full_like(u, self.mu)], axis=-1)

    def diffusion(self, j, x):
        u, s = x[..., 0], x[..., 1]
        if j == 1:
            return np.stack([s, np.zeros_like(s)], axis=-1)
        if j == 2:
            return np.stack([np.zeros_like(u), np.ones_like(u)], axis=-1)
        raise ValueError(f"diffusion index {j} out of range")

    def jacobian_product(self, j, m, x):
        u = x[..., 0]
        if (j, m) == (1, 2):
            return np.stack([np.ones_like(u), np.zeros_like(u)], axis=-1)
        return np.zeros_like(x)

    def stratonovich_drift(self, x):
        # sigma^1, sigma^2 have vanishing self-corrections here
        return self.drift(x)

    def milstein_terms(self, c):
        u, s = c
        return (None, self.mu), {1: (s, None), 2: (None, 1.0)}, {(1, 2): (1.0, None)}

    def drift_flow(self, c, t):
        u, s = c
        return u, s + self.mu * t

    def diffusion_flow(self, j, c, w):
        u, s = c
        if j == 1:
            return u + s * w, s
        if j == 2:
            return u, s + w
        raise ValueError(f"diffusion index {j} out of range")


@dataclass(frozen=True)
class HestonModel(SdeModel):
    """dU = (r - V/2) dt + sqrt(V) dW^1, dV = kappa (theta - V) dt + sigma sqrt(V) dW^2.

    The state is (log-price, variance).  Construction requires the
    non-attainability condition 2 kappa theta >= sigma^2 and
    xi = theta - sigma^2 / (4 kappa) >= 0, which keeps the variance of the
    splitting scheme positive.  ``negative_variance`` controls how the
    explicit Milstein-type scheme treats a negative variance coordinate:
    "error" propagates NaN so the sample is counted as aborted, "reflect"
    substitutes sqrt(max(v, 0)).
    """

    rate: float = 0.05
    kappa: float = 0.5
    theta: float = 0.9
    sigma: float = 0.05
    u0: float = 0.0
    v0: float = 1.0
    negative_variance: str = "error"
    horizon: float = 1.0

    n = 2
    d = 2

    def __post_init__(self):
        super().__post_init__()
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        if 2.0 * self.kappa * self.theta < self.sigma**2:
            raise ValueError("need 2 kappa theta >= sigma^2 (zero boundary attainable)")
        if self.xi < 0.0:
            raise ValueError("need xi = theta - sigma^2/(4 kappa) >= 0")
        if self.v0 <= 0.0:
            raise ValueError("v0 must be positive")
        if self.negative_variance not in ("error", "reflect"):
            raise ValueError("negative_variance must be 'error' or 'reflect'")

    @property
    def xi(self) -> float:
        return self.theta - self.sigma**2 / (4.0 * self.kappa)

    def initial_state(self, m):
        return np.repeat([[float(self.u0)], [float(self.v0)]], m, axis=1).T

    def _vol(self, v):
        # scheme-coefficient square root under the negative-variance policy
        if self.negative_variance == "reflect":
            return np.sqrt(np.maximum(v, 0.0))
        with np.errstate(invalid="ignore"):
            return np.sqrt(v)

    def _flow_sqrt(self, v):
        if (v < 0.0).any():
            raise NegativeSqrtArgument("negative variance reached a flow square root")
        return np.sqrt(v)

    def drift(self, x):
        u, v = x[..., 0], x[..., 1]
        return np.stack([self.rate - 0.5 * v, self.kappa * (self.theta - v)], axis=-1)

    def diffusion(self, j, x):
        v = x[..., 1]
        vol = self._vol(v)
        if j == 1:
            return np.stack([vol, np.zeros_like(vol)], axis=-1)
        if j == 2:
            return np.stack([np.zeros_like(vol), self.sigma * vol], axis=-1)
        raise ValueError(f"diffusion index {j} out of range")

    def jacobian_product(self, j, m, x):
        v = x[..., 1]
        zero = np.zeros_like(v)
        if (j, m) == (1, 2):
            return np.stack([np.full_like(v, 0.5 * self.sigma), zero], axis=-1)
        if (j, m) == (2, 2):
            return np.stack([zero, np.full_like(v, 0.5 * self.sigma**2)], axis=-1)
        return np.zeros_like(x)

    def stratonovich_drift(self, x):
        u, v = x[..., 0], x[..., 1]
        return np.stack(
            [self.rate - 0.5 * v, self.kappa * (self.theta - v) - 0.25 * self.sigma**2],
            axis=-1,
        )

    def milstein_terms(self, c):
        u, v = c
        vol = self._vol(v)
        return ((self.rate - 0.5 * v, self.kappa * (self.theta - v)),
                {1: (vol, None), 2: (None, self.sigma * vol)},
                {(1, 2): (0.5 * self.sigma, None), (2, 2): (None, 0.5 * self.sigma**2)})

    def drift_flow(self, c, t):
        u, v = c
        decay = np.exp(-self.kappa * t)
        xi = self.xi
        # u + (r - xi/2) t + (v - xi) (decay - 1) / (2 kappa) and
        # v decay + xi (1 - decay), operation for operation, in the two outputs;
        # v_new holds u's last term before its own value.  The variance
        # passes through exactly at t = 0
        u_new = np.add(u, (self.rate - 0.5 * xi) * t)
        v_new = np.subtract(v, xi)
        v_new *= decay - 1.0
        v_new /= 2.0 * self.kappa
        u_new += v_new
        np.multiply(v, decay, out=v_new)
        v_new += xi * (1.0 - decay)
        return u_new, v_new

    def diffusion_flow(self, j, c, w):
        u, v = c
        if j == 1:
            return u + self._flow_sqrt(v) * w, v
        if j == 2:
            # the squared form keeps the variance nonnegative bit for bit; a
            # zero increment returns sqrt(v)^2, within an ulp or two of v
            root = self._flow_sqrt(v) + 0.5 * self.sigma * w
            return u, root * root
        raise ValueError(f"diffusion index {j} out of range")

    def diffusion_orders(self, up, down, w):
        # the per-flow composition, bit for bit, with each root taken once:
        # flow 1 leaves v unchanged, so the ascending order's flow 2 reuses its
        # root, and from one start both orders' flow 2 make the same square;
        # the descending order's second root is of that square, so the check
        # of each starting variance covers every root of the step
        (u, v), (u_down, v_down) = up, down
        w1, half = w[0], 0.5 * self.sigma * w[1]
        root = self._flow_sqrt(v)
        v_up = root + half
        v_up *= v_up
        if down is up:
            v_down = v_up
        else:
            v_down = self._flow_sqrt(v_down)
            v_down += half
            v_down *= v_down
        root *= w1
        shift = np.sqrt(v_down)
        shift *= w1
        return (np.add(u, root, out=root), v_up), (np.add(u_down, shift, out=shift), v_down)


MODELS = {"clark-cameron": ClarkCameronModel, "heston": HestonModel}


def build_model(name: str, **kwargs) -> SdeModel:
    """Construct a model by CLI name from the keyword arguments it has fields for."""
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r}")
    cls = MODELS[name]
    return cls(**{f.name: kwargs[f.name] for f in fields(cls) if f.name in kwargs})
