"""Nonlinearities g and the derived envelope machinery.

From an odd continuous g with negative slope at the origin we derive
m0 = -(1/2) limsup_{xi->0} g(xi)/xi and the envelopes

    lambda(xi)     = max(g(xi) + m0 xi, 0)           (xi >= 0, odd extension)
    lambda_bar(xi) = xi^{p0} sup_{0<tau<=xi} lambda(tau)/tau^{p0}

together with their primitives Lambda and Lambda_bar.  lambda_bar is the
smallest odd majorant of lambda with lambda_bar(xi)/xi^{p0} non-decreasing.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, ClassVar, Optional

import numpy as np

# equal steps of the envelope table on [0, 1] and on each octave above it
_STEPS = 16384
# check_hypotheses samples g at this many equal steps up to this bound
_CHECK_XI_MAX = 30.0
_CHECK_SAMPLES = 2000


@dataclass(eq=False)
class NonlinearityModel:
    """An odd nonlinearity g, its primitive G, its derivative g', and envelope data.

    g, G and g' must accept numpy arrays.  delta0 is the width of the interval
    where lambda vanishes; it may be supplied exactly (constructors do) or
    estimated from samples.  A model compares and hashes by identity, so it
    keys the quantities kept on an iterate (`grid.per_iterate`).
    """

    g: Callable[[np.ndarray], np.ndarray]
    big_g: Callable[[np.ndarray], np.ndarray]
    gprime: Callable[[np.ndarray], np.ndarray]
    m0: float
    delta0: Optional[float] = None
    # (nodes, running max of lambda/xi^p0, Lambda, Lambda_bar), see `_envelopes`
    _table: Optional[tuple] = field(default=None, init=False, repr=False)
    # the exponent of the envelope lambda_bar, the same for every model
    p0: ClassVar[float] = 2.0

    def __post_init__(self):
        if self.m0 <= 0:
            raise ValueError("m0 must be positive")

    def _envelopes(self, xi_max: float) -> tuple:
        """The envelope table, on nodes reaching at least xi_max.

        The nodes take _STEPS equal steps on [0, 1] and on each octave
        [2^(i-1), 2^i] above it, and the table grows one octave at a time, so
        its size is logarithmic in xi_max and its value at a node does not
        depend on how far it reaches.  Lambda and Lambda_bar are cumulative
        trapezoids of lambda and of lambda_bar = xi^p0 times the running max.
        """
        if self._table is None or self._table[0][-1] < xi_max < np.inf:
            from scipy.integrate import cumulative_trapezoid

            xi = np.linspace(0.0, 1.0, _STEPS + 1)
            while xi[-1] < xi_max < np.inf:
                xi = np.concatenate((xi, xi[-1] * (1.0 + np.arange(1, _STEPS + 1) / _STEPS)))
            lam = lambda_of(self, xi)
            runmax = np.maximum.accumulate(_over_p0(lam, xi))
            self._table = (xi, runmax, cumulative_trapezoid(lam, xi, initial=0),
                           cumulative_trapezoid(xi**self.p0 * runmax, xi, initial=0))
        return self._table


def power_model(p: float, omega: float) -> NonlinearityModel:
    """g(xi) = |xi|^{p-1} xi - omega xi; m0 = omega/2 and delta0 = (omega/2)^{1/(p-1)} exactly."""
    if not (1.0 < p <= 5.0):
        raise ValueError("p must lie in (1, 5]")
    if omega <= 0:
        raise ValueError("omega must be positive")

    def g(xi):
        xi = np.asarray(xi, dtype=float)
        out = np.abs(xi)
        out **= p - 1
        out *= xi
        out -= omega * xi
        return out

    def big_g(xi):
        xi = np.asarray(xi, dtype=float)
        out = np.abs(xi)
        out **= p + 1
        out /= p + 1
        out -= omega * xi**2 / 2.0
        return out

    def gprime(xi):
        out = np.abs(np.asarray(xi, dtype=float))
        out **= p - 1
        out *= p
        out -= omega
        return out

    return NonlinearityModel(
        g=g,
        big_g=big_g,
        m0=omega / 2.0,
        delta0=(omega / 2.0) ** (1.0 / (p - 1.0)),
        gprime=gprime,
    )


def table_model(samples) -> NonlinearityModel:
    """Nonlinearity from (xi, g(xi)) samples on xi >= 0, extended oddly.

    g is monotone-cubic interpolated and clamped beyond the last sample; G is
    integrated and g' differentiated from the interpolant, and past the last
    sample G grows linearly and g' is 0, as the clamped g requires.  m0 is
    estimated from the samples nearest the origin.
    """
    from scipy.interpolate import PchipInterpolator

    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4:
        raise ValueError("need at least 4 (xi, g) sample pairs")
    xi_s, g_s = pts[:, 0], pts[:, 1]
    if xi_s[0] < 0 or np.any(np.diff(xi_s) <= 0):
        raise ValueError("sample abscissae must be non-negative and increasing")
    if xi_s[0] > 0:
        xi_s = np.concatenate(([0.0], xi_s))
        g_s = np.concatenate(([0.0], g_s))
    interp = PchipInterpolator(xi_s, g_s)
    anti = interp.antiderivative()
    slope = interp.derivative()

    def g(xi):
        xi = np.asarray(xi, dtype=float)
        return np.sign(xi) * interp(np.clip(np.abs(xi), 0.0, xi_s[-1]))

    # past the last sample g is g(xi_last), so G grows linearly there
    g_last, big_g_last = float(interp(xi_s[-1])), float(anti(xi_s[-1]))

    def big_g(xi):
        a = np.abs(np.asarray(xi, dtype=float))
        return np.where(a <= xi_s[-1], anti(np.minimum(a, xi_s[-1])),
                        big_g_last + g_last * (a - xi_s[-1]))

    def gprime(xi):
        a = np.abs(np.asarray(xi, dtype=float))
        # g is odd, so g' is even; past the last sample g is constant, so the
        # cubic is never extrapolated there
        return np.where(a <= xi_s[-1], slope(np.minimum(a, xi_s[-1])), 0.0)

    # m0 comes from the slope of g at the origin: g(xi)/xi -> -2 m0
    small = xi_s[-1] * 1e-8
    m0 = -0.5 * float(g(small) / small)
    if m0 <= 0:
        raise ValueError("sampled nonlinearity has no negative slope at 0")
    return NonlinearityModel(g=g, big_g=big_g, gprime=gprime, m0=m0)


def _scalar_or_array(xi, out: np.ndarray) -> np.ndarray | float:
    """out as a float when the query xi is a scalar, else as an array."""
    return float(out) if np.ndim(xi) == 0 else out


def _over_p0(lam, a: np.ndarray) -> np.ndarray:
    """lam/a^p0 for a >= 0, taken as 0 at a = 0."""
    return np.divide(lam, a**NonlinearityModel.p0, out=np.zeros_like(a), where=a > 0)


def lambda_of(model: NonlinearityModel, xi) -> np.ndarray | float:
    """lambda(xi) = max(g(xi) + m0 xi, 0) for xi >= 0, odd in xi."""
    arr = np.asarray(xi, dtype=float)
    a = np.abs(arr)
    return _scalar_or_array(xi, np.sign(arr) * np.maximum(model.g(a) + model.m0 * a, 0.0))


def lambda_bar_of(model: NonlinearityModel, xi) -> np.ndarray | float:
    """Envelope xi^{p0} sup_{0<tau<=xi} lambda(tau)/tau^{p0}, odd, 0 at 0."""
    arr = np.asarray(xi, dtype=float)
    a = np.abs(arr)
    nodes, runmax, _, _ = model._envelopes(a.max(initial=0.0))
    # the sup over the table's nodes up to a, and over the query point itself
    sup = np.maximum(runmax[np.searchsorted(nodes, a, side="right") - 1],
                     _over_p0(lambda_of(model, a), a))
    return _scalar_or_array(xi, np.sign(arr) * (a**model.p0 * sup))


def capital_lambda(model: NonlinearityModel, xi) -> np.ndarray | float:
    """Lambda(xi) = int_0^xi lambda; even and non-negative."""
    a = np.abs(np.asarray(xi, dtype=float))
    nodes, _, lam, _ = model._envelopes(a.max(initial=0.0))
    return _scalar_or_array(xi, np.interp(a, nodes, lam))


def capital_lambda_bar(model: NonlinearityModel, xi) -> np.ndarray | float:
    """Lambda_bar(xi) = int_0^xi lambda_bar; even, >= Lambda."""
    a = np.abs(np.asarray(xi, dtype=float))
    nodes, _, _, lam_bar = model._envelopes(a.max(initial=0.0))
    return _scalar_or_array(xi, np.interp(a, nodes, lam_bar))


@dataclass
class HypothesisReport:
    """Numerical checks of the structural hypotheses on g."""

    odd_violation: float
    m0: float
    delta0: float
    zeta0: Optional[float]
    growth_ok: bool
    g2prime_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.odd_violation < 1e-10
            and self.g2prime_ok
            and self.growth_ok
            and self.zeta0 is not None
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def check_hypotheses(model: NonlinearityModel) -> HypothesisReport:
    """Sample-based report on oddness, slope at 0, subcritical growth, G > 0.

    The limsup of g(xi)/xi at 0 is estimated on xi = 2^{-k}.  Growth passes if
    max_{s <= xi} |g(s)| exp(-0.1 xi^2) (subcritical exactly when g is, with no dip
    where g changes sign) never rises on xi in [15, 30] and ends below 1e-6: g fails
    when it grows as fast as exp(0.1 xi^2) there, and passes at exp(0.01 xi^2).
    """
    xi = np.linspace(_CHECK_XI_MAX / _CHECK_SAMPLES, _CHECK_XI_MAX, _CHECK_SAMPLES)
    odd_violation = float(np.max(np.abs(model.g(-xi) + model.g(xi))))

    small = 2.0 ** -np.arange(1, 41, dtype=float)
    slopes = model.g(small) / small
    limsup = float(np.max(slopes[-10:]))
    g2prime_ok = np.isfinite(limsup) and limsup < 0
    m0_est = -0.5 * limsup if g2prime_ok else float("nan")

    # the log, which cannot underflow; -inf while g is 0 on every sample so far
    with np.errstate(divide="ignore"):
        excess = np.log(np.maximum.accumulate(np.abs(model.g(xi)))) - 0.1 * xi**2
    excess = excess[xi >= 0.5 * _CHECK_XI_MAX]
    growth_ok = bool(excess[-1] < np.log(1e-6)
                     and np.array_equal(excess, np.minimum.accumulate(excess)))

    big_g = model.big_g(xi)
    pos = np.nonzero(big_g > 0)[0]
    zeta0 = float(xi[pos[0]]) if pos.size else None

    lam = lambda_of(model, xi)
    zero = np.nonzero(lam > 0)[0]
    delta0_est = float(xi[zero[0] - 1]) if zero.size and zero[0] > 0 else 0.0
    delta0 = model.delta0 if model.delta0 is not None else delta0_est

    return HypothesisReport(
        odd_violation=odd_violation,
        m0=model.m0 if g2prime_ok else m0_est,
        delta0=delta0,
        zeta0=zeta0,
        growth_ok=growth_ok,
        g2prime_ok=bool(g2prime_ok),
    )
