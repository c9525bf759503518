import math

import pytest

from ionwire import circuit, geometry
from ionwire.circuit import (CircuitEquivalent, CouplingPrediction,
                             circuit_equivalent, coulomb_coupling_rate,
                             crossover_radius, enhancement_report,
                             wire_coupling_rate)
from ionwire.core import (CONST, TWO_PI, IonSpecies, TrapSite, WireSpec,
                          calcium_40, electron, mhz_to_rad_s, rad_s_to_hz)

PADDLE = geometry.RectPatch.centered_square(120e-6)
WIRE = WireSpec(30e-15, 120e-6, 620e-6)


def site_at(height, f_mhz):
    return TrapSite(mhz_to_rad_s(f_mhz), height,
                    geometry.effective_distance(PADDLE, height))


def test_symmetric_coupling_prediction():
    s = site_at(60e-6, 2.0)
    k = wire_coupling_rate(calcium_40(), s, s, WIRE)
    assert rad_s_to_hz(k) == pytest.approx(9.626389572, abs=1e-6)
    assert 7.5 <= rad_s_to_hz(k) <= 12.5


def test_asymmetric_coupling_prediction():
    s1 = site_at(50e-6, 1.990)
    s2 = site_at(70e-6, 1.990)
    k = wire_coupling_rate(calcium_40(), s1, s2, WIRE)
    assert rad_s_to_hz(k) == pytest.approx(9.642769551, abs=1e-6)
    assert abs(rad_s_to_hz(k) - 10.2) / 10.2 < 0.25


def test_coupling_from_first_principles():
    # direct arithmetic oracle: kappa = (pi/2) q^2 / (m w C_w D1 D2)
    ca = calcium_40()
    s1 = site_at(50e-6, 1.990)
    s2 = site_at(70e-6, 1.990)
    expected = (math.pi / 2.0) * ca.charge ** 2 / (
        ca.mass * mhz_to_rad_s(1.990) * 30e-15
        * s1.effective_distance * s2.effective_distance)
    assert wire_coupling_rate(ca, s1, s2, WIRE) == pytest.approx(
        expected, rel=1e-12)


def test_circuit_equivalent_values():
    # L = m D^2 / q^2 and C = 1/(w^2 L) for the series motional branch
    ca = calcium_40()
    site = TrapSite(mhz_to_rad_s(1.990), 50e-6, 130e-6)
    equiv = circuit_equivalent(ca, site)
    l_expected = ca.mass * 130e-6 ** 2 / ca.charge ** 2
    assert equiv.inductance == pytest.approx(l_expected, rel=1e-12)
    assert equiv.capacitance == pytest.approx(
        1.0 / (site.vertical_frequency ** 2 * l_expected), rel=1e-12)
    assert equiv.inductance == pytest.approx(43688.65, rel=1e-4)
    assert equiv.capacitance == pytest.approx(1.4641e-19, rel=1e-3)
    assert 40000.0 <= equiv.inductance <= 48000.0


def test_coupling_identity_with_circuit_form():
    # same number through the lumped-element route:
    # kappa = (pi/2) / (C_w w sqrt(L1 L2))
    ca = calcium_40()
    s1 = site_at(50e-6, 1.990)
    s2 = site_at(70e-6, 1.990)
    w = mhz_to_rad_s(1.990)
    l1 = circuit_equivalent(ca, s1).inductance
    l2 = circuit_equivalent(ca, s2).inductance
    alt = (math.pi / 2.0) / (30e-15 * w * math.sqrt(l1 * l2))
    assert wire_coupling_rate(ca, s1, s2, WIRE) == pytest.approx(alt, rel=1e-12)


def test_coupling_frequency_scaling():
    ca = calcium_40()
    k1 = wire_coupling_rate(ca, site_at(60e-6, 1.0), site_at(60e-6, 1.0), WIRE)
    k2 = wire_coupling_rate(ca, site_at(60e-6, 2.0), site_at(60e-6, 2.0), WIRE)
    assert k1 / k2 == pytest.approx(2.0, rel=1e-12)
    ka = wire_coupling_rate(ca, site_at(60e-6, 1.368), site_at(60e-6, 1.368), WIRE)
    kb = wire_coupling_rate(ca, site_at(60e-6, 1.990), site_at(60e-6, 1.990), WIRE)
    assert ka / kb == pytest.approx(1.990 / 1.368, rel=1e-12)
    # the two operating frequencies happen to sit close to a factor sqrt(2)
    assert abs(ka / kb - math.sqrt(2.0)) / math.sqrt(2.0) < 0.03


def test_coulomb_rate_value():
    w_ex = coulomb_coupling_rate(calcium_40(), mhz_to_rad_s(1.99), 620e-6)
    expected = calcium_40().charge ** 2 / (
        4 * math.pi * CONST.vacuum_permittivity * calcium_40().mass
        * mhz_to_rad_s(1.99) * 620e-6 ** 3)
    assert w_ex == pytest.approx(expected, rel=1e-12)
    assert rad_s_to_hz(w_ex) == pytest.approx(0.18568, abs=2e-5)


def test_measured_enhancement_over_coulomb():
    w_ex = coulomb_coupling_rate(calcium_40(), mhz_to_rad_s(1.99), 620e-6)
    ratio = TWO_PI * 11.1 / w_ex
    assert ratio == pytest.approx(59.7794, abs=1e-3)
    assert 45.0 <= ratio <= 75.0


def test_enhancement_report_structure():
    s1 = site_at(50e-6, 1.990)
    s2 = site_at(70e-6, 1.990)
    pred = enhancement_report(calcium_40(), s1, s2, WIRE)
    assert isinstance(pred, CouplingPrediction)
    assert pred.enhancement_ratio == pytest.approx(
        pred.kappa / pred.coulomb_rate, rel=1e-12)
    assert pred.kappa == pytest.approx(
        wire_coupling_rate(calcium_40(), s1, s2, WIRE), rel=1e-12)


def test_predicted_enhancement_is_charge_and_mass_free():
    # kappa and the Coulomb rate share the q^2/m prefactor, so the
    # predicted ratio depends on geometry and frequency only
    ratios = []
    for sp in (calcium_40(), electron(), IonSpecies(2, 9.0122, "Be2+")):
        s1 = TrapSite(mhz_to_rad_s(1.990), 50e-6,
                      geometry.effective_distance(PADDLE, 50e-6))
        s2 = TrapSite(mhz_to_rad_s(1.990), 70e-6,
                      geometry.effective_distance(PADDLE, 70e-6))
        ratios.append(enhancement_report(sp, s1, s2, WIRE).enhancement_ratio)
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)
    assert ratios[0] == pytest.approx(ratios[2], rel=1e-12)


def test_electron_to_ion_coupling_ratio():
    # lighter particle at higher frequency: kappa scales as 1/(m w)
    ca = calcium_40()
    el = electron()
    s_ca = site_at(60e-6, 2.0)
    s_el = site_at(60e-6, 100.0)
    k_ca = wire_coupling_rate(ca, s_ca, s_ca, WIRE)
    k_el = wire_coupling_rate(el, s_el, s_el, WIRE)
    expected = (ca.mass / el.mass) * (2.0 / 100.0)
    assert k_el / k_ca == pytest.approx(expected, rel=1e-12)
    assert k_el / k_ca == pytest.approx(1456.95, abs=0.05)
    assert 1300.0 <= k_el / k_ca <= 1600.0


def test_crossover_radius():
    ca = calcium_40()
    w = mhz_to_rad_s(1.99)
    kappa = TWO_PI * 11.1
    r = crossover_radius(ca, w, kappa)
    assert r * 1e6 == pytest.approx(158.565, abs=0.01)
    assert coulomb_coupling_rate(ca, w, r) == pytest.approx(kappa, rel=1e-9)


def test_detuned_sites_rejected():
    s1 = site_at(60e-6, 1.368)
    s2 = site_at(60e-6, 1.990)
    with pytest.raises(ValueError, match="dynamics"):
        wire_coupling_rate(calcium_40(), s1, s2, WIRE)


def test_circuit_invariants_enforced():
    with pytest.raises(ValueError):
        CircuitEquivalent(-1.0, 1e-19, mhz_to_rad_s(2.0))
    with pytest.raises(ValueError):
        # inconsistent resonance triple
        CircuitEquivalent(43688.65, 1.4641e-19, mhz_to_rad_s(5.0))
    with pytest.raises(ValueError):
        CouplingPrediction(TWO_PI * 11.1, TWO_PI * 0.18, 2.0)
    with pytest.raises(ValueError):
        coulomb_coupling_rate(calcium_40(), mhz_to_rad_s(2.0), -1e-6)
    with pytest.raises(ValueError):
        crossover_radius(calcium_40(), mhz_to_rad_s(2.0), 0.0)


@pytest.mark.parametrize("name,call", [
    ("omega", lambda: crossover_radius(calcium_40(), -1e7, 10.0)),
    ("omega", lambda: crossover_radius(calcium_40(), math.inf, 10.0)),
    ("kappa", lambda: crossover_radius(calcium_40(), 1e7, math.inf)),
    ("omega", lambda: coulomb_coupling_rate(calcium_40(), math.nan, 1e-3)),
    ("separation", lambda: coulomb_coupling_rate(calcium_40(), 1e7, math.inf)),
    ("center_separation", lambda: WireSpec(30e-15, 120e-6, math.inf)),
    ("capacitance", lambda: WireSpec(math.inf, 120e-6, 620e-6)),
    ("paddle_side", lambda: WireSpec(30e-15, -1.0, 620e-6)),
    ("resistance", lambda: WireSpec(30e-15, 120e-6, 620e-6, math.nan)),
    ("resistance", lambda: WireSpec(30e-15, 120e-6, 620e-6, -1.0)),
    ("mass_number", lambda: IonSpecies(1, math.inf)),
    ("charge_number", lambda: IonSpecies(math.nan, 40.0))])
def test_bad_numbers_are_rejected_naming_the_argument(name, call):
    with pytest.raises(ValueError, match=name):
        call()


@pytest.mark.parametrize("name,call", [
    # the rate's denominator underflows to zero, or overflows to inf
    ("capacitance", lambda: wire_coupling_rate(
        calcium_40(), site_at(60e-6, 2.0), site_at(60e-6, 2.0),
        WireSpec(5e-324, 120e-6, 620e-6))),
    ("capacitance", lambda: enhancement_report(
        calcium_40(), site_at(60e-6, 2.0), site_at(60e-6, 2.0),
        WireSpec(1e308, 120e-6, 620e-6))),
    # a subnormal number underflows to a zero charge or mass in SI units
    ("charge_number", lambda: IonSpecies(5e-324, 40.0)),
    ("mass_number", lambda: IonSpecies(1, 5e-324))])
def test_numbers_out_of_float_range_are_rejected_naming_the_argument(name,
                                                                      call):
    with pytest.raises(ValueError, match=name):
        call()
