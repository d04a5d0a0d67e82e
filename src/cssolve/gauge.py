"""Nonlocal gauge-field quantities of the planar gauged Schrodinger model.

Everything reduces to two cumulative integrals of the radial profile u:

    h_u(r) = int_0^r s u(s)^2 ds            (prefix, magnetic potential)
    A_u(r) = int_r^R (u(s)^2 / s) h_u(s) ds (suffix, electric potential)

and the nonlocal energy N(u) = 2*pi int u^2 h_u^2 / r dr.  All three share
one cumulative quadrature rule so that the discrete identity
N'(u)[u] = 6 N(u) holds at machine precision, not merely in the limit.
h_u, N(u) and the gauge potential are kept on u (`per_iterate`), so each
is computed once per iterate, however many callers read it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .grid import (
    TWO_PI,
    RadialFunction,
    cumulative_adjoint,
    cumulative_integral,
    differentiate,
    integrate_plane,
    over_r,
    per_iterate,
)


@dataclass(frozen=True)
class PhysicalConstants:
    """Coupling constants; the derived coupling is q = e^4 / (c^2 kappa^2)."""

    e_coupling: float = 1.0
    kappa: float = 1.0
    mass: float = 1.0
    c_light: float = 1.0

    def __post_init__(self):
        for name in ("e_coupling", "kappa", "mass", "c_light"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def q(self) -> float:
        return self.e_coupling**4 / (self.c_light**2 * self.kappa**2)


@dataclass(frozen=True)
class GaugeFields:
    """Reconstructed static gauge fields of a radial matter profile."""

    h: RadialFunction
    a0: RadialFunction
    a_tangential: RadialFunction
    b_field: RadialFunction
    e_field: RadialFunction
    charge: float
    flux: float


@per_iterate
def prefix_h(u: RadialFunction) -> RadialFunction:
    """h_u(r) = int_0^r s u(s)^2 ds; h(0) = 0, non-decreasing."""
    g = u.grid
    f = u.values**2
    h = cumulative_integral(g, np.multiply(f, g.nodes, out=f))
    # a fresh array: frozen here, so RadialFunction wraps it without a copy
    h.setflags(write=False)
    return RadialFunction(g, h)


def suffix_a(u: RadialFunction) -> RadialFunction:
    """A_u(r) = int_r^{R_max} (u^2/s) h_u(s) ds; non-increasing, A(R_max) = 0.

    The integrand has the analytic limit 0 at s = 0 since h_u = O(s^2).
    """
    g = u.grid
    f = u.values**2
    a = cumulative_integral(g, over_r(g, np.multiply(f, prefix_h(u).values, out=f)))
    np.subtract(a[-1], a, out=a)
    # a fresh array: frozen here, so RadialFunction wraps it without a copy
    a.setflags(write=False)
    return RadialFunction(g, a)


@per_iterate
def gauge_potential(u: RadialFunction, q: float) -> tuple[np.ndarray, np.ndarray]:
    """(h_u, V) with V(r) = 2q A_u(r) + q h_u(r)^2 / r^2, both read-only.

    V is the gauge potential of the strong form; the h^2/r^2 term vanishes at 0.
    """
    g = u.grid
    h = prefix_h(u).values
    v = over_r(g, h)
    v **= 2
    v *= q
    v += 2.0 * q * suffix_a(u).values
    v.setflags(write=False)
    return h, v


@per_iterate
def big_n(u: RadialFunction) -> float:
    """Nonlocal energy N(u) = 2*pi int u^2 h_u^2 / r dr >= 0."""
    g = u.grid
    f = over_r(g, u.values**2 * prefix_h(u).values ** 2)
    return TWO_PI * float(np.sum(g.weights * f))


def big_n_prime(u: RadialFunction, v: RadialFunction) -> float:
    """Directional derivative N'(u)[v], exact for the discrete N.

    Two terms: 2 int (uv/r^2) h_u^2 dx plus 4 int (u^2/r^2) h_u k dx with
    k(r) = int_0^r s u v ds; with v = u the second prefix equals h_u and the
    value is 6 N(u) identically.
    """
    g = u.grid
    if v.grid != g:
        raise ValueError("u and v must live on the same grid")
    hu = prefix_h(u).values
    k = cumulative_integral(g, g.nodes * u.values * v.values)
    t1 = over_r(g, u.values * v.values * hu**2)
    t2 = over_r(g, u.values**2 * hu * k)
    return TWO_PI * float(np.sum(g.weights * (2.0 * t1 + 4.0 * t2)))


def big_n_gradient(u: RadialFunction) -> np.ndarray:
    """Vector f with N'(u)[v] = f . v for every grid vector v.

    Exact transpose of the discrete big_n_prime, assembled with the
    cumulative rule's adjoint.
    """
    g = u.grid
    hu = prefix_h(u).values
    w = TWO_PI * g.weights
    t1 = over_r(g, u.values * hu**2)
    z = over_r(g, w * u.values**2 * hu)
    return 2.0 * w * t1 + 4.0 * g.nodes * u.values * cumulative_adjoint(g, z)


def gauge_fields(u: RadialFunction, consts: PhysicalConstants = PhysicalConstants()) -> GaugeFields:
    """Reconstruct the static gauge fields carried by a radial profile.

    The orientation of B is fixed so that the total flux satisfies
    flux = -charge / kappa.
    """
    g = u.grid
    e, kap = consts.e_coupling, consts.kappa
    h = prefix_h(u)
    a0_scale = consts.e_coupling**3 / (consts.mass * consts.c_light**2 * kap**2)
    a0 = RadialFunction(g, a0_scale * suffix_a(u).values)
    b = RadialFunction(g, -(e / kap) * u.values**2)
    e_r = RadialFunction(g, -differentiate(a0).values)
    charge = e * integrate_plane(RadialFunction(g, u.values**2))
    flux = integrate_plane(b)
    return GaugeFields(
        h=h,
        a0=a0,
        a_tangential=RadialFunction(g, over_r(g, (e / kap) * h.values)),
        b_field=b,
        e_field=e_r,
        charge=charge,
        flux=flux,
    )


def save_gauge_csv(path_csv, path_json, fields: GaugeFields, kappa: float) -> None:
    """Write gauge fields as CSV r,h,a0,a_tan,b,e_r plus a JSON sidecar."""
    g = fields.h.grid
    with open(path_csv, "w") as fh:
        fh.write("r,h,a0,a_tan,b,e_r\n")
        for i in range(g.n):
            row = (g.nodes[i], fields.h.values[i], fields.a0.values[i],
                   fields.a_tangential.values[i], fields.b_field.values[i],
                   fields.e_field.values[i])
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    with open(path_json, "w") as fh:
        json.dump({"charge": fields.charge, "flux": fields.flux, "kappa": kappa}, fh, indent=2)
        fh.write("\n")
