"""Equivalent-circuit mapping and coupling-rate predictions.

An ion of mass m and charge q oscillating at omega a distance D_eff from
a pickup electrode maps onto a series LC resonator with

    L = m D_eff^2 / q^2,    C = 1 / (omega^2 L).

Two such resonators joined by a floating wire of capacitance C_w exchange
energy at

    kappa = (pi/2) (q^2 / m omega) / (C_w D_1 D_2),

which reduces to the single-D_eff form when the sites are symmetric. The
direct free-space Coulomb rate for the same pair is

    Omega_ex = q^2 / (4 pi eps0 m omega r^3),

a convention fixed so the wire/Coulomb enhancement ratio reproduces the
measured benchmark; it is convention-dependent and flagged as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import CONST, check_range

# resonant-formula validity window for the two site frequencies
RESONANCE_REL_TOL = 1e-3


@dataclass(frozen=True)
class CircuitEquivalent:
    """Series-LC image of one trapped ion at its resonance frequency."""

    inductance: float   # H
    capacitance: float  # F
    omega: float        # rad/s, shared resonance

    def __post_init__(self):
        if not (self.inductance > 0 and self.capacitance > 0):
            raise ValueError("L and C must be positive")
        resid = abs(self.omega ** 2 * self.inductance * self.capacitance - 1.0)
        if resid > 1e-12:
            raise ValueError(f"omega^2 L C = 1 violated by {resid:.3e}")


@dataclass(frozen=True)
class CouplingPrediction:
    """Wire rate, free-space rate, and their ratio."""

    kappa: float          # rad/s
    coulomb_rate: float   # rad/s
    enhancement_ratio: float

    def __post_init__(self):
        if not (self.kappa > 0 and self.coulomb_rate > 0):
            raise ValueError("rates must be positive")
        if abs(self.enhancement_ratio - self.kappa / self.coulomb_rate) > 1e-9 * self.enhancement_ratio:
            raise ValueError("enhancement_ratio must equal kappa/coulomb_rate")


def circuit_equivalent(species, site):
    """L = m D_eff^2 / q^2 and the C that resonates it at the site frequency."""
    m = species.mass
    q = species.charge
    w = site.vertical_frequency
    inductance = m * site.effective_distance ** 2 / q ** 2
    capacitance = 1.0 / (w ** 2 * inductance)
    return CircuitEquivalent(inductance=inductance, capacitance=capacitance, omega=w)


def wire_coupling_rate(species, site1, site2, wire):
    """Wire-mediated exchange rate in rad/s; resonant sites only.

    The asymmetric generalization replaces D_eff^2 by D_1 * D_2 (the
    induced-charge coupling is bilinear in the two ion-wire couplings).
    """
    w1 = site1.vertical_frequency
    w2 = site2.vertical_frequency
    if abs(w1 - w2) / w1 >= RESONANCE_REL_TOL:
        raise ValueError(
            "sites detuned by more than 1e-3 relative: the resonant coupling "
            "formula does not apply; use the dynamics module for detuned behavior")
    w = 0.5 * (w1 + w2)
    q2_over_m = species.charge ** 2 / species.mass
    d1 = site1.effective_distance
    d2 = site2.effective_distance
    denominator = w * wire.capacitance * d1 * d2
    rate = (math.pi / 2.0) * q2_over_m / denominator if denominator > 0 else 0.0
    return check_range(f"the rate at capacitance {wire.capacitance!r} F", rate,
                       gt=0)


def coulomb_coupling_rate(species, omega, separation):
    """Free-space dipole-dipole exchange rate q^2/(4 pi eps0 m omega r^3)."""
    check_range("omega", omega, gt=0)
    check_range("separation", separation, gt=0)
    q2_over_m = species.charge ** 2 / species.mass
    return q2_over_m / (4.0 * math.pi * CONST.vacuum_permittivity * omega * separation ** 3)


def crossover_radius(species, omega, kappa):
    """Separation where the free-space rate equals a given wire rate."""
    check_range("omega", omega, gt=0)
    check_range("kappa", kappa, gt=0)
    q2_over_m = species.charge ** 2 / species.mass
    return (q2_over_m / (4.0 * math.pi * CONST.vacuum_permittivity * omega * kappa)) ** (1.0 / 3.0)


def enhancement_report(species, site1, site2, wire):
    """Both rates at the wire's center separation, plus their ratio."""
    kappa = wire_coupling_rate(species, site1, site2, wire)
    w = 0.5 * (site1.vertical_frequency + site2.vertical_frequency)
    coulomb = coulomb_coupling_rate(species, w, wire.center_separation)
    return CouplingPrediction(kappa=kappa, coulomb_rate=coulomb,
                              enhancement_ratio=kappa / coulomb)
