"""Physical constants, domain types, and unit conversions.

Everything internal runs in pure SI with angular frequencies in rad/s.
Human-facing boundaries (CLI, scenario files) accept MHz, um, fF and
quanta/ms; the key tables in ``scenario`` convert them, using the
frequency helpers here. Occupations n_bar are real-valued ensemble
means, never integers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

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


_HOLDS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


class RangeError(ValueError):
    """The ValueError of ``check_range``. It keeps the checked name, the
    bounds and the bad entry, so that ``restate`` can word it again under
    another name and in other units."""

    def __init__(self, name, low, high, value, index):
        self.name, self.low, self.high = name, low, high
        self.value, self.index = value, index
        super().__init__(self.restate(name))

    def restate(self, name, convert=None):
        """``<name> must be ..., got <value>``. With ``convert`` the bounds
        and the value pass through it and show 12 significant digits, which
        hides the rounding of a round trip through other units."""
        def show(x):        # an int as it is
            return repr(x if isinstance(x, int) else float(x)) \
                if convert is None else f"{float(convert(x)):.12g}"

        need = [f"{op} {show(b)}".removesuffix(".0")
                for op, b in (self.low, self.high) if math.isfinite(b)]
        if self.low == (">", -math.inf) or self.high == ("<", math.inf):
            need.insert(0, "finite")
        index = self.index
        at = f" at index {index[0] if len(index) == 1 else index}" if index else ""
        return (f"{name} must be {' and '.join(need) or 'a number'}, "
                f"got {show(self.value)}{at}")


def check_range(name, value, *, ge=None, gt=None, le=None, lt=None):
    """``value``, a number or an array, if each entry lies within the
    bounds, at most one a side: ``ge`` and ``le`` inclusive, ``gt`` and
    ``lt`` strict. NaN never does, nor does +-inf unless a bound admits it
    (``le=math.inf`` or ``ge=-math.inf``). Else RangeError ``<name> must
    be ..., got <value>``, naming an array's first bad entry and its index;
    a Python int stays exact, even one too large for a float.
    """
    # a side without a bound has the strict infinite one, which fails +-inf
    low = (">=", ge) if ge is not None else (">", -math.inf if gt is None else gt)
    high = ("<=", le) if le is not None else ("<", math.inf if lt is None else lt)
    v = value if isinstance(value, (int, float)) else np.asarray(value, float)
    ok = _HOLDS[low[0]](v, low[1]) & _HOLDS[high[0]](v, high[1])
    if ok is True or ok is not False and ok.all():
        return value
    if ok is False:
        raise RangeError(name, low, high, value, ())
    index = tuple(int(i) for i in np.unravel_index(np.argmin(ok), v.shape))
    raise RangeError(name, low, high, float(v[index]), index)


def check_count(name, value, least):
    """``value`` as an int, when it is an integer >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return check_range(name, int(value), ge=least)


@dataclass(frozen=True)
class IonSpecies:
    """Charged particle: charge in units of e, mass in units of u."""

    charge_number: int
    mass_number: float
    label: str = ""

    def __post_init__(self):
        # either sign; bounded so that the charge in C is a float
        check_range("charge_number magnitude", abs(self.charge_number), gt=0,
                    le=1e308)
        check_range("mass_number", self.mass_number, gt=0)
        # and on the SI values, which a subnormal number underflows to 0
        check_range("charge_number in C", abs(self.charge), gt=0)
        check_range("mass_number in kg", self.mass, gt=0)

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
        check_range("vertical_frequency", self.vertical_frequency, gt=0)
        check_range("physical_height", self.physical_height, gt=0)
        # the image-charge geometry always gives D_eff above the physical height
        check_range("effective_distance", self.effective_distance,
                    ge=self.physical_height)


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
        check_range("capacitance", self.capacitance, gt=0)
        check_range("paddle_side", self.paddle_side, gt=0)
        check_range("center_separation", self.center_separation,
                    gt=self.paddle_side)
        check_range("resistance", self.resistance, ge=0)


# ---------------------------------------------------------------------------
# conversions

def quanta_to_energy(n_bar, omega):
    """Mean oscillator energy (n_bar + 1/2) * hbar * omega in J."""
    check_range("n_bar", n_bar, ge=0)
    check_range("omega", omega, gt=0)
    return (n_bar + 0.5) * CONST.reduced_planck * omega


def energy_to_quanta(energy, omega):
    """Inverse of quanta_to_energy; rejects energies below the zero point."""
    check_range("omega", omega, gt=0)
    zero_point = 0.5 * CONST.reduced_planck * omega
    # tiny negative slack absorbs round-trip rounding at n_bar = 0
    check_range("energy", energy, ge=zero_point * (1.0 - 1e-12))
    return energy / (CONST.reduced_planck * omega) - 0.5


def quanta_to_temperature(n_bar, omega):
    """Exact Bose relation T = hbar*omega / (k_B ln(1 + 1/n_bar))."""
    check_range("n_bar", n_bar, gt=0)
    check_range("omega", omega, gt=0)
    return CONST.reduced_planck * omega / (CONST.boltzmann * math.log1p(1.0 / n_bar))


def temperature_to_quanta(temperature, omega):
    """Bose occupation n_bar = 1/(exp(hbar*omega/k_B T) - 1)."""
    check_range("temperature", temperature, gt=0)
    check_range("omega", omega, gt=0)
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

