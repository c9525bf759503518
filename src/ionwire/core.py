"""Physical constants, domain types, and unit conversions.

Everything internal runs in pure SI with angular frequencies in rad/s.
Human-facing boundaries (CLI, scenario files) accept MHz, um, fF and
quanta/ms; the key tables in ``scenario`` convert them, using the
frequency helpers here. Occupations n_bar are real-valued ensemble
means, never integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018 values, immutable."""

    elementary_charge: float = 1.602176634e-19     # C, exact
    atomic_mass_unit: float = 1.66053906660e-27    # kg
    reduced_planck: float = 1.054571817e-34        # J s
    vacuum_permittivity: float = 8.8541878128e-12  # F/m
    boltzmann: float = 1.380649e-23                # J/K, exact


CONST = PhysicalConstants()

# Neutral-atom mass; the missing electron is 1.4e-5 relative, far below
# every tolerance band in this package.
CA40_MASS_NUMBER = 39.9625909
ELECTRON_MASS_NUMBER = 5.48579909065e-4


@dataclass(frozen=True)
class IonSpecies:
    """Charged particle: charge in units of e, mass in units of u."""

    charge_number: int
    mass_number: float
    label: str = ""

    def __post_init__(self):
        # on the SI values too, which a subnormal number underflows to 0
        if not (self.charge != 0 and math.isfinite(self.charge_number)):
            raise ValueError("charge_number must be nonzero and finite")
        if not (0 < self.mass_number < math.inf and self.mass > 0):
            raise ValueError("mass_number must be positive and finite")

    @property
    def charge(self):
        """Signed charge in C."""
        return self.charge_number * CONST.elementary_charge

    @property
    def mass(self):
        """Mass in kg."""
        return self.mass_number * CONST.atomic_mass_unit


def calcium_40():
    return IonSpecies(charge_number=1, mass_number=CA40_MASS_NUMBER, label="40Ca+")


def electron():
    return IonSpecies(charge_number=-1, mass_number=ELECTRON_MASS_NUMBER, label="e-")


@dataclass(frozen=True)
class TrapSite:
    """One trap well: vertical mode frequency and geometry.

    vertical_frequency : rad/s
    physical_height    : m, ion height above the electrode plane
    effective_distance : m, voltage-to-field ratio U/|E_z| at the ion
    """

    vertical_frequency: float
    physical_height: float
    effective_distance: float

    def __post_init__(self):
        if not (0 < self.vertical_frequency < math.inf):
            raise ValueError("vertical_frequency must be positive and finite")
        if not (0 < self.physical_height < math.inf):
            raise ValueError("physical_height must be positive and finite")
        # the image-charge geometry always gives D_eff above the physical height
        if not (self.physical_height <= self.effective_distance < math.inf):
            raise ValueError("effective_distance must be finite and "
                             ">= physical_height")


@dataclass(frozen=True)
class WireSpec:
    """Floating coupling wire: lumped capacitance and paddle geometry.

    resistance is carried for bookkeeping only; it does not enter the
    coupling rate.
    """

    capacitance: float        # F
    paddle_side: float        # m
    center_separation: float  # m
    resistance: float = 0.0   # ohm

    def __post_init__(self):
        if not (0 < self.capacitance < math.inf):
            raise ValueError("capacitance must be positive and finite")
        if not (0 < self.paddle_side < math.inf):
            raise ValueError("paddle_side must be positive and finite")
        if not (self.paddle_side < self.center_separation < math.inf):
            raise ValueError("center_separation must be finite and exceed "
                             "paddle_side")
        if not (0 <= self.resistance < math.inf):
            raise ValueError("resistance must be finite and >= 0")


# ---------------------------------------------------------------------------
# conversions

def _check_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def quanta_to_energy(n_bar, omega):
    """Mean oscillator energy (n_bar + 1/2) * hbar * omega in J."""
    _check_finite("n_bar", n_bar)
    _check_finite("omega", omega)
    if n_bar < 0:
        raise ValueError("n_bar must be >= 0")
    if omega <= 0:
        raise ValueError("omega must be positive")
    return (n_bar + 0.5) * CONST.reduced_planck * omega


def energy_to_quanta(energy, omega):
    """Inverse of quanta_to_energy; rejects energies below the zero point."""
    _check_finite("energy", energy)
    _check_finite("omega", omega)
    if omega <= 0:
        raise ValueError("omega must be positive")
    zero_point = 0.5 * CONST.reduced_planck * omega
    # tiny negative slack absorbs round-trip rounding at n_bar = 0
    if energy < zero_point * (1.0 - 1e-12):
        raise ValueError("energy below zero-point, unphysical")
    return energy / (CONST.reduced_planck * omega) - 0.5


def quanta_to_temperature(n_bar, omega):
    """Exact Bose relation T = hbar*omega / (k_B ln(1 + 1/n_bar))."""
    _check_finite("n_bar", n_bar)
    _check_finite("omega", omega)
    if n_bar <= 0:
        raise ValueError("temperature undefined at n_bar = 0 in the Bose form")
    if omega <= 0:
        raise ValueError("omega must be positive")
    return CONST.reduced_planck * omega / (CONST.boltzmann * math.log1p(1.0 / n_bar))


def temperature_to_quanta(temperature, omega):
    """Bose occupation n_bar = 1/(exp(hbar*omega/k_B T) - 1)."""
    _check_finite("temperature", temperature)
    _check_finite("omega", omega)
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if omega <= 0:
        raise ValueError("omega must be positive")
    x = CONST.reduced_planck * omega / (CONST.boltzmann * temperature)
    return 1.0 / math.expm1(x)


# ---------------------------------------------------------------------------
# boundary unit helpers (MHz, Hz, quanta/ms <-> SI)

def mhz_to_rad_s(f_mhz):
    return TWO_PI * f_mhz * 1e6


def rad_s_to_mhz(omega):
    return omega / (TWO_PI * 1e6)


def rad_s_to_hz(omega):
    return omega / TWO_PI


def hz_to_rad_s(f_hz):
    return TWO_PI * f_hz


def per_s_to_quanta_per_ms(rate):
    return rate * 1e-3

