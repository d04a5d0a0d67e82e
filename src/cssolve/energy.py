"""Energy functionals for the gauged Schrödinger problem.

Provides the full action J_q, its truncated variant, the dilation-augmented
functional Jt(theta, u) = J_trunc(u(e^{-theta} .)) in closed form, its theta-
and u-derivatives, Sobolev (Riesz) gradients, and the frequency rescaling
between the fixed-frequency and gauged normalizations of the equation.
Each reads u', ||grad u||^2, N(u) and int G(u) from `energy_pieces`, which
keeps them on u, so a certificate computes them once.  The cutoff phi is
evaluated only in `truncation_bounds`, and the u-gradient is one vector,
`_gradient`: `weak_gradient` pairs it with a direction and `riesz_gradient`
solves the Sobolev metric for it (`verify` reads G . u as a scalar, from N'(u)[u] = 6N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gauge import big_n, big_n_gradient
from .grid import (RadialFunction, differentiate, dilate, integrate_plane, per_iterate,
                   sobolev_metric)
from .nonlinearity import NonlinearityModel, capital_lambda_bar


def phi(s: float) -> float:
    """Quintic-smoothstep cutoff: 1 on [0,1], 0 on [2,inf), C^2 in between."""
    t = min(max(s - 1.0, 0.0), 1.0)
    return 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def phi_prime(s: float) -> float:
    """Derivative of phi; zero outside (1, 2), min value -15/8 at s = 3/2."""
    t = s - 1.0
    if not 0.0 < t < 1.0:
        return 0.0
    return -30.0 * t**2 * (1.0 - t) ** 2


@dataclass(frozen=True)
class EnergyBreakdown:
    """Action value split into kinetic, gauge and potential contributions."""

    dirichlet: float
    nonlocal_term: float
    potential: float
    total: float
    truncation_active: bool


class Pieces(NamedTuple):
    """What the action and its derivatives read of u, from `energy_pieces`."""

    du: np.ndarray
    dirichlet: float
    n_val: float
    big_g_int: float


@per_iterate
def energy_pieces(u: RadialFunction, model: NonlinearityModel) -> Pieces:
    """u' = differentiate(u), (1/2)||grad u||^2, N(u) and int G(u), kept on u."""
    du = differentiate(u).values
    return Pieces(du, 0.5 * integrate_plane(u.grid, du**2), big_n(u),
                  integrate_plane(u.grid, model.big_g(u.values)))


def j_q(u: RadialFunction, q: float, model: NonlinearityModel) -> EnergyBreakdown:
    """Full action: (1/2)||grad u||^2 + (q/2)N(u) - int G(u)."""
    if q < 0:
        raise ValueError("q must be non-negative")
    _, dirichlet, n_val, big_g_int = energy_pieces(u, model)
    nonlocal_term = 0.5 * q * n_val
    potential = -big_g_int
    return EnergyBreakdown(
        dirichlet, nonlocal_term, potential, dirichlet + nonlocal_term + potential,
        bool(q * n_val > 1.0),
    )


def j_trunc(u: RadialFunction, q: float, model: NonlinearityModel) -> EnergyBreakdown:
    """Truncated action: the gauge term is weighted by phi(q N(u)); j_tilde at theta = 0."""
    return j_tilde(0.0, u, q, model)


def i_comparison(u: RadialFunction, model: NonlinearityModel) -> float:
    """Comparison functional (1/2)||grad u||^2 - int Lambda_bar(u); a lower bound for j_trunc."""
    return (energy_pieces(u, model).dirichlet
            - integrate_plane(u.grid, capital_lambda_bar(model, u.values)))


def j_tilde(theta: float, u: RadialFunction, q: float,
            model: NonlinearityModel) -> EnergyBreakdown:
    """Closed form of j_trunc(u(e^{-theta} .)):

        (1/2)||grad u||^2 + (q/2) e^{4 theta} phi(q e^{4 theta} N) N - e^{2 theta} int G(u).
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if q < 0:
        raise ValueError("q must be non-negative")
    _, dirichlet, n_val, big_g_int = energy_pieces(u, model)
    nonlocal_term = 0.5 * truncation_bounds(theta, u, q)[0]
    potential = -math.exp(2.0 * theta) * big_g_int
    return EnergyBreakdown(
        dirichlet, nonlocal_term, potential, dirichlet + nonlocal_term + potential,
        bool(q * math.exp(4.0 * theta) * n_val > 1.0),
    )


def d_theta_j_tilde(theta: float, u: RadialFunction, q: float, model: NonlinearityModel) -> float:
    """theta-derivative of j_tilde:

        2C + D - 2 e^{2 theta} int G(u),    (C, D) = truncation_bounds(theta, u, q).

    At theta = 0 with inactive truncation this is the scale-invariance
    (Pohozaev) residual 2qN - 2 int G, which vanishes at solutions.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    c, d = truncation_bounds(theta, u, q)
    return 2.0 * c + d - 2.0 * math.exp(2.0 * theta) * energy_pieces(u, model).big_g_int


def truncation_bounds(theta: float, u: RadialFunction, q: float) -> tuple[float, float]:
    """C = q e^{4 theta} phi(s) N >= 0 and D = 2 q^2 e^{8 theta} phi'(s) N^2 <= 0,
    s = q e^{4 theta} N(u); C in [0, 2) and |D| < 16 whenever s < 2, and both
    vanish when s >= 2."""
    n_val = big_n(u)
    e4 = math.exp(4.0 * theta)
    s = q * e4 * n_val
    return q * e4 * phi(s) * n_val, 2.0 * q * q * e4 * e4 * phi_prime(s) * n_val**2


def _gradient(theta: float, u: RadialFunction, q: float, model: NonlinearityModel) -> np.ndarray:
    """G with weak_gradient(theta, u, q, model, v) = G . v for every grid v:

        G = D^T W D u - e^{2 theta} W g(u) + ((C/2 + D/4)/N) grad N(u),

    D the derivative matrix, W the plane weights, (C, D) = truncation_bounds(theta, u, q).
    """
    w_plane = u.grid.plane_weights
    du, _, n_val, _ = energy_pieces(u, model)
    out = u.grid.derivative_t @ (w_plane * du) - math.exp(2.0 * theta) * w_plane * model.g(u.values)
    c, d = truncation_bounds(theta, u, q)
    if c != 0.0 or d != 0.0:
        out = out + (0.5 * c + 0.25 * d) / n_val * big_n_gradient(u)
    return out


def weak_gradient(theta: float, u: RadialFunction, q: float, model: NonlinearityModel,
                  v: RadialFunction) -> float:
    """Directional u-derivative of j_tilde at (theta, u) in direction v, `_gradient` . v:

        int grad u . grad v
        + [(q/2) e^{4 theta} phi(s) + (q^2/2) e^{8 theta} phi'(s) N] N'(u)[v]
        - e^{2 theta} int g(u) v,    s = q e^{4 theta} N(u).
    """
    if u.grid != v.grid:
        raise ValueError("u and v must live on the same grid")
    return float(np.dot(_gradient(theta, u, q, model), v.values))


def riesz_gradient(theta: float, u: RadialFunction, q: float,
                   model: NonlinearityModel) -> RadialFunction:
    """Riesz representative w of the weak gradient in the Sobolev metric:

        <w, v>_{H1, m0} = weak_gradient(theta, u, q, model, v)  for every grid v,

    realized exactly in the discrete metric by solving (D^T W D + m0 W) w = `_gradient`,
    with the factors that `sobolev_metric` keeps per (grid, m0).
    """
    return RadialFunction(u.grid, sobolev_metric(u.grid, model.m0)(_gradient(theta, u, q, model)))


def rescale_omega(u: RadialFunction, omega: float, p: float) -> tuple[RadialFunction, float]:
    """Transport a solution of the fixed-frequency equation

        -Delta u + omega u + (gauge terms) = |u|^{p-1} u

    to the gauged normalization with g(v) = -v + |v|^{p-1} v via

        v = omega^{-1/(p-1)} u(omega^{-1/2} .),   q = omega^{2(3-p)/(p-1)}.

    The returned q is the target coupling for unit source coupling.  The
    gauge terms are linear in the coupling, so a source solved at coupling
    q_s is carried to coupling q_s * q.  The profile is resampled on the
    same grid by `dilate`.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if not (1.0 < p <= 5.0) or p == 3.0:
        raise ValueError("p must lie in (1, 3) or (3, 5]")
    q = omega ** (2.0 * (3.0 - p) / (p - 1.0))
    if omega == 1.0:
        return u, q
    v = dilate(u, omega ** -0.5)
    return RadialFunction(u.grid, omega ** (-1.0 / (p - 1.0)) * v.values), q
