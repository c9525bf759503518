import math
import os

import numpy as np
import pytest

from ionwire import core
from ionwire.core import (CONST, IonSpecies, TrapSite, WireSpec, calcium_40,
                          check_range, electron, energy_to_quanta, hz_to_rad_s,
                          mhz_to_rad_s, per_s_to_quanta_per_ms,
                          quanta_to_energy, quanta_to_temperature,
                          rad_s_to_hz, rad_s_to_mhz, temperature_to_quanta)


def test_zero_point_energy():
    w = mhz_to_rad_s(2.0)
    assert quanta_to_energy(0.0, w) == pytest.approx(
        0.5 * CONST.reduced_planck * w, rel=1e-14)


def test_occupation_at_100_millikelvin():
    w = mhz_to_rad_s(2.0)
    x = CONST.reduced_planck * w / (CONST.boltzmann * 0.1)
    expected = 1.0 / math.expm1(x)
    assert temperature_to_quanta(0.1, w) == pytest.approx(expected, rel=1e-12)
    assert temperature_to_quanta(0.1, w) == pytest.approx(1041.331, rel=1e-4)


def test_characteristic_temperature():
    # n_bar = 1/(e - 1) happens exactly at T = hbar w / k_B
    w = mhz_to_rad_s(2.0)
    t = quanta_to_temperature(1.0 / (math.e - 1.0), w)
    assert t == pytest.approx(CONST.reduced_planck * w / CONST.boltzmann,
                              rel=1e-12)


def test_energy_round_trip():
    w = mhz_to_rad_s(1.99)
    for n in np.logspace(-3, 6, 91):
        n = float(n)
        back = energy_to_quanta(quanta_to_energy(n, w), w)
        assert back == pytest.approx(n, rel=1e-12)


def test_temperature_round_trip():
    w = mhz_to_rad_s(1.368)
    for n in np.logspace(-3, 6, 91):
        n = float(n)
        back = temperature_to_quanta(quanta_to_temperature(n, w), w)
        assert back == pytest.approx(n, rel=1e-12)


def test_unit_helpers():
    assert mhz_to_rad_s(1.99) == pytest.approx(2 * math.pi * 1.99e6, rel=1e-15)
    assert rad_s_to_mhz(mhz_to_rad_s(1.99)) == pytest.approx(1.99, rel=1e-15)
    assert rad_s_to_hz(hz_to_rad_s(11.1)) == pytest.approx(11.1, rel=1e-15)
    assert per_s_to_quanta_per_ms(206e3) == pytest.approx(206.0, rel=1e-15)


def test_species_mass_and_charge():
    ca = calcium_40()
    assert ca.mass == pytest.approx(39.9625909 * CONST.atomic_mass_unit,
                                    rel=1e-9)
    assert ca.charge == pytest.approx(CONST.elementary_charge, rel=1e-15)
    el = electron()
    assert el.mass == pytest.approx(9.109e-31, rel=1e-3)
    # charge magnitude enters the coupling quadratically, sign irrelevant
    assert abs(el.charge) == pytest.approx(CONST.elementary_charge, rel=1e-15)


def test_species_validation():
    with pytest.raises(ValueError):
        IonSpecies(0, 40.0, "bad")
    with pytest.raises(ValueError):
        IonSpecies(1, -1.0, "bad")


def test_trap_site_validation():
    with pytest.raises(ValueError):
        TrapSite(-1.0, 60e-6, 130e-6)
    with pytest.raises(ValueError):
        TrapSite(mhz_to_rad_s(2.0), -60e-6, 130e-6)
    with pytest.raises(ValueError):
        # the image-charge lever arm can never be shorter than the height
        TrapSite(mhz_to_rad_s(2.0), 60e-6, 30e-6)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="effective_distance"):
            TrapSite(mhz_to_rad_s(2.0), 60e-6, bad)


def test_wire_spec_validation():
    with pytest.raises(ValueError):
        WireSpec(-30e-15, 120e-6, 620e-6)
    with pytest.raises(ValueError):
        # paddles would overlap
        WireSpec(30e-15, 120e-6, 100e-6)


def test_quanta_energy_domain_errors():
    w = mhz_to_rad_s(2.0)
    with pytest.raises(ValueError):
        quanta_to_energy(-1.0, w)
    with pytest.raises(ValueError):
        quanta_to_energy(1.0, 0.0)
    with pytest.raises(ValueError):
        energy_to_quanta(0.0, w)  # below zero-point
    with pytest.raises(ValueError):
        quanta_to_temperature(0.0, w)
    with pytest.raises(ValueError):
        temperature_to_quanta(-0.1, w)


# the one argument check: NaN always fails, +-inf fails unless a bound
# admits it, each bound inclusive (ge, le) or strict (gt, lt), and an
# array's message names its first bad entry and that entry's index
@pytest.mark.parametrize("value,bounds,message", [
    (math.nan, {}, "x must be finite, got nan"),
    (math.inf, {}, "x must be finite, got inf"),
    (-math.inf, {}, "x must be finite, got -inf"),
    (-1.0, {"ge": 0}, "x must be finite and >= 0, got -1.0"),
    (0.0, {"gt": 0}, "x must be finite and > 0, got 0.0"),
    (2.5, {"le": 2}, "x must be finite and <= 2, got 2.5"),
    (1.0, {"lt": 1}, "x must be finite and < 1, got 1.0"),
    (math.nan, {"ge": 0, "lt": 1}, "x must be >= 0 and < 1, got nan"),
    # +inf admitted by its bound, NaN and -inf still not
    (math.nan, {"ge": 0, "le": math.inf}, "x must be >= 0, got nan"),
    (-math.inf, {"ge": 0, "le": math.inf}, "x must be >= 0, got -inf"),
    (math.inf, {"ge": -math.inf, "le": 2}, "x must be <= 2, got inf"),
    (np.array([[1.0, 2.0], [math.nan, -1.0]]), {"ge": 0},
     "x must be finite and >= 0, got nan at index (1, 0)"),
    (np.array([0.5, -1.0, math.inf]), {"gt": 0},
     "x must be finite and > 0, got -1.0 at index 1"),
])
def test_check_range_rejects_naming_the_first_bad_entry(value, bounds,
                                                        message):
    with pytest.raises(ValueError) as err:
        check_range("x", value, **bounds)
    assert str(err.value) == message


@pytest.mark.parametrize("value,bounds", [
    (-1e308, {}), (0.0, {"ge": 0}), (5e-324, {"gt": 0}), (2.0, {"le": 2}),
    (0.999, {"lt": 1}), (math.inf, {"ge": 0, "le": math.inf}),
    (-math.inf, {"ge": -math.inf}), (np.full((2, 3), 0.5), {"gt": 0, "lt": 1})])
def test_check_range_returns_values_within_the_bounds(value, bounds):
    assert check_range("x", value, **bounds) is value


def test_check_range_keeps_an_int_exact():
    # an int beyond the float range is compared and reported as it is
    big = 10 ** 400
    with pytest.raises(ValueError) as err:
        check_range("x", -big, ge=0)
    assert err.value.value == -big
    assert str(err.value) == f"x must be finite and >= 0, got {-big}"
    assert check_range("x", big, ge=0) is big
    with pytest.raises(ValueError, match=r"^n must be >= 1 and < 3, got 5$"):
        check_range("n", 5, ge=1, lt=3)


def test_constants_table_lists_codata_values():
    # docs/constants.md is the checked-in table of the constants in use
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "docs", "constants.md")
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 4:
                values[cells[0]] = cells[2]
    expected = {"e": CONST.elementary_charge, "u": CONST.atomic_mass_unit,
                "hbar": CONST.reduced_planck,
                "eps0": CONST.vacuum_permittivity, "k_B": CONST.boltzmann,
                "m(40Ca+)": core.CA40_MASS_NUMBER,
                "m(e-)": core.ELECTRON_MASS_NUMBER}
    for symbol, value in expected.items():
        assert float(values[symbol]) == value, symbol
