import dataclasses
import math

import numpy as np
import pytest

from ionwire import circuit, scenario
from ionwire.core import TWO_PI
from ionwire.scenario import (KIND_INVALID, KIND_MISSING, KIND_UNIT,
                              KIND_UNKNOWN, TEXT, ScenarioError,
                              canonical_dict, parse_scenario_text,
                              read_options, scenario_digest,
                              serialize_scenario)

from conftest import load_bundled

BASE = """\
[species]
label = 40Ca+
charge_number = 1
mass_u = 39.9625909

[site1]
frequency_mhz = 1.990
height_um = 50
deff_um = auto

[site2]
frequency_mhz = 1.990
height_um = 70
deff_um = auto

[wire]
capacitance_ff = 30
paddle_um = 120
separation_um = 620

[noise]
site1_heating_quanta_per_ms = 206
site1_reference_mhz = 1.990
site1_jitter_sigma_hz = 0
site2_heating_quanta_per_ms = 0
site2_reference_mhz = 1.990
site2_jitter_sigma_hz = 0

[cooling]
site1_damping_per_s = 0
site1_target_quanta = 0
site2_damping_per_s = inf
site2_target_quanta = 182

[coupling]
kappa_hz = 11.1

[schedule]
kind = sympathetic_run
wait_ms = 0,1,2,3,4,5,6,7,8,9,10
initial_hot_quanta = 1000

[run]
ensemble = 200
seed = 7
"""


# digests of the bundled scenarios as format_version 2 defines them
FROZEN_DIGESTS = {
    "scan_benchmark":
        "08c92f811df0b2ee81f42a17cc29d70d0b2c8c02824df8a1b35315328685d221",
    "sympathetic_benchmark":
        "b653e620b81b8b00088ef19fd953f8d84787b3474c8c5365f763bd2b7d6dcf26",
    "swap_benchmark":
        "a974b76f5512eb51e30712c594f98cfb9a1bd1b7bf0966e1354fab5277bad209",
}


def test_bundled_scenarios_parse():
    for name, digest in FROZEN_DIGESTS.items():
        scn = load_bundled(name)
        assert scn.ensemble_size >= 1
        assert scenario_digest(scn) == digest


def test_parsed_physical_values():
    scn = parse_scenario_text(BASE)
    assert scn.site1.vertical_frequency == pytest.approx(
        TWO_PI * 1.99e6, rel=1e-12)
    assert scn.site1.physical_height == pytest.approx(50e-6, rel=1e-12)
    assert scn.cooling2.steady_state_occupation == 182.0
    assert math.isinf(scn.cooling2.damping_rate)
    assert scn.kappa_override == pytest.approx(TWO_PI * 11.1, rel=1e-12)
    assert scn.kappa() == pytest.approx(TWO_PI * 11.1, rel=1e-12)
    assert scn.noise1.heating_rate_at_reference == pytest.approx(206e3, rel=1e-12)
    assert scn.seed == 7 and scn.ensemble_size == 200


def test_integer_too_large_for_a_float_parses():
    scn = parse_scenario_text(BASE.replace("seed = 7", "seed = 1" + "0" * 400))
    assert scn.seed == 10 ** 400


def test_auto_effective_distance_and_coupling():
    text = BASE.replace("kappa_hz = 11.1", "kappa_hz = auto")
    scn = parse_scenario_text(text)
    assert scn.kappa_override is None
    expected = circuit.wire_coupling_rate(scn.species, scn.site1, scn.site2,
                                          scn.wire)
    assert scn.kappa() == pytest.approx(expected, rel=1e-12)
    # auto deff comes from the patch geometry
    assert scn.site1.effective_distance == pytest.approx(131.069935e-6,
                                                         abs=1e-9)


def test_digest_round_trip():
    scenarios = [load_bundled(name) for name in
                 ("scan_benchmark", "sympathetic_benchmark", "swap_benchmark")]
    for scn in scenarios:
        again = parse_scenario_text(serialize_scenario(scn))
        assert scenario_digest(again) == scenario_digest(scn)
        assert canonical_dict(again) == canonical_dict(scn)


def test_digest_ignores_layout_noise():
    ref = scenario_digest(parse_scenario_text(BASE))
    reordered = BASE.replace(
        "label = 40Ca+\ncharge_number = 1\nmass_u = 39.9625909",
        "mass_u = 39.9625909\nlabel = 40Ca+\ncharge_number = 1")
    assert reordered != BASE
    assert scenario_digest(parse_scenario_text(reordered)) == ref
    commented = BASE.replace("[wire]", "; wiring block\n[wire]")
    assert scenario_digest(parse_scenario_text(commented)) == ref


def test_digest_tracks_physics_changes():
    ref = scenario_digest(parse_scenario_text(BASE))
    assert scenario_digest(parse_scenario_text(
        BASE.replace("seed = 7", "seed = 8"))) != ref
    assert scenario_digest(parse_scenario_text(
        BASE.replace("ensemble = 200", "ensemble = 300"))) != ref
    assert scenario_digest(parse_scenario_text(
        BASE.replace("height_um = 50", "height_um = 51"))) != ref


def test_digest_ignores_output_dir():
    with_dir = BASE + "output_dir = /tmp/some/where\n"
    a = parse_scenario_text(BASE)
    b = parse_scenario_text(with_dir)
    assert b.output_dir == "/tmp/some/where"
    assert scenario_digest(a) == scenario_digest(b)


def test_canonical_dict_format_version():
    d = canonical_dict(parse_scenario_text(BASE))
    assert d["format_version"] == 2


def test_empty_file_names_first_missing_section():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("")
    assert err.value.kind == KIND_MISSING
    assert "species" in str(err.value)


def test_missing_section_diagnostic():
    text = BASE.replace("[cooling]", "[cooling_zzz]")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    # either report is acceptable ordering-wise, but cooling must be the
    # section that is flagged missing when only it is absent
    assert err.value.kind in (KIND_MISSING, KIND_UNKNOWN)
    text2 = "\n".join(line for line in BASE.splitlines()
                      if not line.startswith("[cooling]")
                      and "damping" not in line and "target" not in line)
    with pytest.raises(ScenarioError) as err2:
        parse_scenario_text(text2)
    assert err2.value.kind == KIND_MISSING
    assert err2.value.section == "cooling" or "cooling" in str(err2.value)


def test_missing_key_diagnostic():
    text = BASE.replace("frequency_mhz = 1.990\nheight_um = 50\n",
                        "height_um = 50\n", 1)
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert err.value.kind == KIND_MISSING
    assert err.value.section == "site1"
    assert "frequency_mhz" in str(err.value)


def test_unknown_key_diagnostic_with_line():
    text = BASE.replace("separation_um = 620",
                        "separation_um = 620\nglitter = 9")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert err.value.kind == KIND_UNKNOWN
    assert err.value.key == "glitter"
    assert err.value.line == BASE.splitlines().index("separation_um = 620") + 2
    assert f":{err.value.line}:" in str(err.value)


def test_unknown_section_diagnostic():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(BASE + "\n[lasers]\npower = 3\n")
    assert err.value.kind == KIND_UNKNOWN
    assert "lasers" in str(err.value)


def test_bad_unit_diagnostic():
    cases = [("capacitance_ff = 30", "capacitance_ff = thirty", "wire",
              "capacitance_ff"),
             ("site2_damping_per_s = inf", "site2_damping_per_s = nan",
              "cooling", "site2_damping_per_s"),
             ("wait_ms = 0,1,2", "wait_ms = 0,nan,2", "schedule", "wait_ms"),
             # an empty list is located at its key, not at the schedule
             ("wait_ms = 0,1,2,3,4,5,6,7,8,9,10", "wait_ms = ,", "schedule",
              "wait_ms")]
    for value in ("nan", "inf"):
        cases += [("deff_um = auto", f"deff_um = {value}", "site1", "deff_um"),
                  ("kappa_hz = 11.1", f"kappa_hz = {value}", "coupling",
                   "kappa_hz")]
    # finite as written, but infinite once converted to SI units
    cases += [("frequency_mhz = 1.990", "frequency_mhz = 1e308", "site1",
               "frequency_mhz"),
              ("site2_heating_quanta_per_ms = 0",
               "site2_heating_quanta_per_ms = 1e306", "noise",
               "site2_heating_quanta_per_ms"),
              ("kappa_hz = 11.1", "kappa_hz = 1e308", "coupling", "kappa_hz")]
    for old, new, section, key in cases:
        text = BASE.replace(old, new, 1)
        with pytest.raises(ScenarioError) as err:
            parse_scenario_text(text)
        assert err.value.kind == KIND_UNIT
        assert err.value.section == section
        assert err.value.key == key
        assert err.value.line == next(
            i for i, line in enumerate(text.splitlines(), start=1)
            if line.startswith(new))


def test_invariant_violation_diagnostics():
    bad_cap = BASE.replace("capacitance_ff = 30", "capacitance_ff = -1")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(bad_cap)
    assert err.value.kind == KIND_INVALID

    bad_waits = BASE.replace("wait_ms = 0,1,2,3,4,5,6,7,8,9,10",
                             "wait_ms = 0,2,1")
    with pytest.raises(ScenarioError) as err2:
        parse_scenario_text(bad_waits)
    assert err2.value.kind == KIND_INVALID
    assert err2.value.section == "schedule"

    bad_kappa = BASE.replace("kappa_hz = 11.1", "kappa_hz = -3")
    with pytest.raises(ScenarioError) as err3:
        parse_scenario_text(bad_kappa)
    assert err3.value.kind == KIND_INVALID

    # the auto effective distance needs a height above the plane
    zero_height = BASE.replace("height_um = 50", "height_um = 0")
    with pytest.raises(ScenarioError) as err4:
        parse_scenario_text(zero_height)
    assert err4.value.kind == KIND_INVALID
    assert err4.value.section == "site1"

    # the ensemble is bounded below 10**8 realizations
    assert parse_scenario_text(BASE.replace(
        "ensemble = 200", "ensemble = 99999999")).ensemble_size == 10 ** 8 - 1
    with pytest.raises(ScenarioError) as err5:
        parse_scenario_text(BASE.replace("ensemble = 200",
                                         "ensemble = 100000000"))
    assert err5.value.kind == KIND_INVALID
    assert (err5.value.section, err5.value.key) == ("run", "ensemble")


SCAN_SCHEDULE = ("kind = resonance_scan\ncenter_mhz = 1.990\nspan_khz = 6\n"
                 "points = 9\nprobe_ms = 2\nhot_quanta = 10000\n"
                 "cold_quanta = 200")


def _with_scan_schedule(schedule):
    # a scan integrates both clamps, so it takes no hard (infinite) one
    return BASE.replace(
        "kind = sympathetic_run\nwait_ms = 0,1,2,3,4,5,6,7,8,9,10\n"
        "initial_hot_quanta = 1000", schedule).replace(
        "site2_damping_per_s = inf", "site2_damping_per_s = 1000")


def test_scan_schedule_requires_hot_above_cold():
    text = _with_scan_schedule(SCAN_SCHEDULE.replace("hot_quanta = 10000",
                                                     "hot_quanta = 100"))
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert err.value.kind == KIND_INVALID


_SCAN_GRID = "center_mhz = 1.990\nspan_khz = 6\npoints = 9"


# a record's failed range check is reported at the line of the file key
# that gave the value, under that key's name and in its units
@pytest.mark.parametrize("old,new,section,words", [
    ("cold_quanta = 200", "cold_quanta = 20000", "schedule",
     "cold_quanta must be >= 0 and < 10000, got 20000.0"),
    ("span_khz = 6", "span_khz = 0", "schedule",
     "span_khz must be finite and > 0, got 0.0"),
    ("probe_ms = 2", "probe_ms = 0", "schedule",
     "probe_ms must be finite and > 0, got 0"),
    ("separation_um = 620", "separation_um = 100", "wire",
     "separation_um must be finite and > 120, got 100"),
    (_SCAN_GRID, "frequencies_mhz = 1.988,-1.989,1.990,1.991,1.992,1.993",
     "schedule", "frequencies_mhz must be finite and > 0, got -1.989 at index 1"),
    ("site1_reference_mhz = 1.990", "site1_reference_mhz = 0", "noise",
     "site1_reference_mhz with nonzero heating must be finite and > 0, "
     "got 0"),
    ("mass_u = 39.9625909", "mass_u = -1", "species",
     "mass_u must be finite and > 0, got -1.0"),
    ("capacitance_ff = 30", "capacitance_ff = -1", "wire",
     "capacitance_ff must be finite and > 0, got -1"),
    # once a crash: the charge in C overflowed converting the int to a float
    ("charge_number = 1", "charge_number = 1" + "0" * 400, "species",
     f"charge_number magnitude must be > 0 and <= 1e+308, got {10 ** 400}")],
    ids=["cold_above_hot", "zero_span", "zero_probe", "wire_separation",
         "negative_frequency", "zero_reference", "negative_mass",
         "negative_capacitance", "huge_charge"])
def test_record_errors_are_located_at_the_key_that_gave_the_value(
        old, new, section, words):
    text = _with_scan_schedule(SCAN_SCHEDULE).replace(old, new, 1)
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text, path="s.scenario")
    key = new.partition(" = ")[0]
    line = text.splitlines().index(new) + 1
    assert err.value.kind == KIND_INVALID
    assert (err.value.section, err.value.key, err.value.line) == \
        (section, key, line)
    assert str(err.value) == f"s.scenario:{line}: [invalid] {section}.{key}: {words}"


def _numeric_keys():
    """Section -> file names of the numeric keys of every ``_Key`` table."""
    def names(keys, prefixes=("",)):
        return {p + k.name for p in prefixes for k in keys if k.kind != TEXT}

    site = scenario._SITE_PREFIXES
    return {"species": names(scenario._SPECIES_KEYS),
            "wire": names(scenario._WIRE_KEYS),
            "site1": names(scenario._SITE_KEYS),
            "site2": names(scenario._SITE_KEYS),
            "noise": names(scenario._NOISE_KEYS, site),
            "cooling": names(scenario._COOLING_KEYS, site),
            "coupling": names(scenario._COUPLING_KEYS),
            "schedule": names(scenario._GRID_KEYS).union(
                *(names(kind.keys) for kind in scenario.SCHEDULES.values())),
            "run": names(scenario._RUN_KEYS)}


def test_every_numeric_key_reports_a_bad_value_at_its_own_line():
    # each key's value is judged by a record or by the key's own bounds,
    # and either way the diagnostic stays at the key that gave the value
    from importlib import resources
    numeric = _numeric_keys()
    walked = set()
    for name in FROZEN_DIGESTS:
        text = resources.files("ionwire.data").joinpath(
            name + ".scenario").read_text(encoding="utf-8")
        lines = text.splitlines()
        section = ""
        for i, line in enumerate(lines):
            if line.startswith("["):
                section = line.strip("[]")
            key = line.partition("=")[0].strip()
            if line.startswith("#") or key not in numeric.get(section, ()):
                continue
            walked.add((section, key))
            # a negative charge number is an electron's; 0 is no charge
            bad = "0" if key == "charge_number" else "-1"
            for value, kind in (("nan", KIND_UNIT), (bad, KIND_INVALID)):
                mutated = "\n".join(lines[:i] + [f"{key} = {value}"]
                                    + lines[i + 1:])
                with pytest.raises(ScenarioError) as err:
                    parse_scenario_text(mutated)
                assert (err.value.kind, err.value.section, err.value.key,
                        err.value.line) == (kind, section, key, i + 1), \
                    (name, key, value, str(err.value))
                # a range failure's message starts with the key's name
                named = "" if kind == KIND_UNIT else key
                assert f"{section}.{key}: {named}" in str(err.value)
    # every table gave keys to walk
    assert {section for section, _ in walked} == set(numeric)
    # the coupling override is checked where the Scenario record is, under
    # [run], but its bad value stays at its own key
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(BASE.replace("kappa_hz = 11.1", "kappa_hz = -3"))
    assert (err.value.section, err.value.key, err.value.line) == \
        ("coupling", "kappa_hz", BASE.splitlines().index("kappa_hz = 11.1") + 1)
    assert "kappa_hz must be finite and >= 0, got -3" in str(err.value)


@pytest.mark.parametrize("command", sorted(scenario.OPTION_KEYS))
def test_every_numeric_option_reports_a_bad_value_naming_its_flag(command):
    for key in scenario.OPTION_KEYS[command]:
        for value, kind in (("nan", KIND_UNIT), ("-1", KIND_INVALID)):
            with pytest.raises(ScenarioError) as err:
                read_options(command, {key.name.replace("-", "_"): value})
            flag = f"--{key.name}"
            assert (err.value.kind, err.value.key) == (kind, flag)
            named = "" if kind == KIND_UNIT else flag
            assert f"{flag}: {named}" in str(err.value)


def test_record_errors_from_a_defaulted_key_stay_at_the_section():
    # site2's reference frequency takes its default, 0: no line gave it,
    # and site1's key must not be blamed for it
    text = BASE.replace("site2_heating_quanta_per_ms = 0\n"
                        "site2_reference_mhz = 1.990\n",
                        "site2_heating_quanta_per_ms = 5\n")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert (err.value.section, err.value.key) == ("noise", "")
    assert err.value.line == text.splitlines().index("[noise]") + 1
    assert "reference_frequency with nonzero heating" in str(err.value)


# a bad scan or wait grid, or swap pair, is reported at the line of the
# schedule key that gave it, a check that is not a range check too
@pytest.mark.parametrize("text,key,words", [
    (_with_scan_schedule(SCAN_SCHEDULE.replace(
        _SCAN_GRID, "frequencies_mhz = 1.988,1.989,1.990,1.991,1.992")),
     "frequencies_mhz", "probe_frequencies needs at least 6 values, got 5"),
    (_with_scan_schedule(SCAN_SCHEDULE.replace(
        _SCAN_GRID, "frequencies_mhz = " + ",".join(["1.990"] * 6))),
     "frequencies_mhz", "probe_frequencies must span a nonzero range"),
    (_with_scan_schedule(SCAN_SCHEDULE.replace("points = 9", "points = 5")),
     "points", "points must be >= 6 and < 1000, got 5"),
    (BASE.replace("wait_ms = 0,1,2,3,4,5,6,7,8,9,10", "wait_ms = -3,-2,-1"),
     "wait_ms", "wait_ms must be finite and >= 0, got -3 at index 0"),
    (_with_scan_schedule(SCAN_SCHEDULE.replace("points = 9", "points = 1000")),
     "points", "points must be >= 6 and < 1000, got 1000"),
    (BASE.replace("wait_ms = 0,1,2,3,4,5,6,7,8,9,10", "wait_ms = 0,2,1"),
     "wait_ms", "wait_times must be strictly increasing"),
    (BASE.replace("wait_ms = 0,1,2,3,4,5,6,7,8,9,10", "wait_ms = 0,1"),
     "wait_ms", "wait_times needs at least 3 values to fit a slope, got 2"),
    # the run records at whole multiples of the first step
    (BASE.replace("wait_ms = 0,1,2,3,4,5,6,7,8,9,10", "wait_ms = 0,2,3"),
     "wait_ms", "wait_times must be strictly increasing whole multiples of "
     "their first step"),
    (_with_scan_schedule("kind = swap_demo\ninitial_quanta = 1,2,3\n"
                         "duration_ms = 45"),
     "initial_quanta", "initial_occupations needs exactly two values, got 3")],
    ids=["five-frequencies", "equal-frequencies", "five-points",
         "negative-waits", "points-above-bound", "unordered-waits",
         "two-waits", "off-grid-waits", "three-initial-quanta"])
def test_bad_scan_and_wait_grids_are_located(text, key, words):
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert err.value.kind == KIND_INVALID
    assert (err.value.section, err.value.key) == ("schedule", key)
    assert err.value.line == next(
        i for i, line in enumerate(text.splitlines(), start=1)
        if line.startswith(key + " = "))
    assert words in str(err.value)


def _line_of(lines, section, key):
    """Index of the ``key = `` line of ``[section]`` in ``lines``."""
    start = lines.index(f"[{section}]")
    return next(i for i in range(start, len(lines))
                if lines[i].startswith(key + " = "))


# a run that its integrators would refuse as it starts, or that would fail,
# overflow or divide by zero later, is refused at the key that drives it,
# by the step limits and the step grid the run takes: past the step budget
# at the key of its duration, slow rates near the carrier at the key of the
# largest; each (section, line) edit replaces the line of its key there
@pytest.mark.parametrize("name,edits,at,words", [
    ("scan", [("schedule", "probe_ms = 1e308")], ("schedule", "probe_ms"),
     "step budget exceeded: inf steps"),
    ("swap", [("schedule", "duration_ms = 1e308")],
     ("schedule", "duration_ms"), "step budget exceeded: inf steps"),
    ("sympathetic", [("noise", "site1_jitter_sigma_hz = 300"),
                     ("schedule", "wait_ms = 0,1e5,2e5")],
     ("schedule", "wait_ms"), "step budget exceeded: 4.71e+08 steps"),
    # a wait step of more steps than a float can count (exit 3 before)
    ("sympathetic", [("noise", "site1_jitter_sigma_hz = 300"),
                     ("schedule", "wait_ms = 0,1e307,2e307")],
     ("schedule", "wait_ms"), "step budget exceeded: inf steps"),
    ("scan", [("coupling", "kappa_hz = 1e5")], ("coupling", "kappa_hz"),
     "scale separation violated"),
    ("swap", [("coupling", "kappa_hz = 2e5")], ("coupling", "kappa_hz"),
     "scale separation violated"),
    ("scan", [("noise", "site2_jitter_sigma_hz = 2e4")],
     ("noise", "site2_jitter_sigma_hz"), "scale separation violated"),
    ("scan", [("cooling", "site2_damping_per_s = 1e6")],
     ("cooling", "site2_damping_per_s"), "scale separation violated"),
    ("sympathetic", [("noise", "site1_jitter_sigma_hz = 1e5")],
     ("noise", "site1_jitter_sigma_hz"), "scale separation violated"),
    # the cases below exited 2 naming no key, or 3, before
    ("scan", [("schedule", "span_khz = 1e5")], ("schedule", "span_khz"),
     "span_khz must be > 0 and < 2736, got 100000.0"),
    ("scan", [("schedule", "span_khz = 1e-300")], ("schedule", "span_khz"),
     "span 1e-300 kHz parts no probe frequencies at center 1.368 MHz"),
    ("scan", [("noise", "site2_jitter_sigma_hz = 0"),
              ("schedule", "span_khz = 300")], ("schedule", "span_khz"),
     "scale separation violated"),
    ("scan", [("noise", "site2_jitter_sigma_hz = 0"),
              ("schedule", "center_mhz = 1.5")], ("schedule", "center_mhz"),
     "scale separation violated"),
    ("scan", [("schedule", "probe_ms = 1e-4")], ("schedule", "probe_ms"),
     "probe_ms is shorter than one period of site1's trap frequency"),
    ("scan", [("site2", "frequency_mhz = 1.5")], ("site2", "frequency_mhz"),
     "sites detuned by more than 1e-3 relative"),
    ("sympathetic", [("cooling", "site2_target_quanta = 1000")],
     ("schedule", "initial_hot_quanta"),
     "initial_hot_quanta must differ from site2_target_quanta"),
    ("swap", [("coupling", "kappa_hz = 1e-320")], ("coupling", "kappa_hz"),
     "kappa_hz of a swap run must be finite and > 1.39067116157e-309"),
    ("sympathetic", [("noise", "site1_reference_mhz = 1e100")],
     ("noise", "site1_heating_quanta_per_ms"),
     "the heating at the trap frequency reaches 1.3e+203 quanta over the "
     "run, over 1e+80"),
    ("sympathetic", [("wire", "paddle_um = 1e-300")], ("site1", "deff_um"),
     "effective_distance of the paddle at this height: degenerate patch"),
    ("sympathetic", [("site2", "height_um = 1e308")], ("site2", "deff_um"),
     "effective_distance of the paddle at this height: axial field not "
     "finite")],
    ids=["scan-probe-past-step-budget", "swap-duration-past-step-budget",
         "sympathetic-waits-past-step-budget",
         "sympathetic-wait-step-past-float-range", "scan-kappa-near-carrier",
         "swap-kappa-near-carrier", "scan-jitter-near-carrier",
         "scan-damping-near-carrier", "sympathetic-jitter-near-carrier",
         "scan-span-below-0-hz", "scan-span-parts-no-points",
         "scan-span-near-carrier", "scan-center-near-carrier",
         "scan-probe-under-a-period", "scan-detuned-sites",
         "sympathetic-hot-start-at-target", "swap-swap-time-past-float",
         "sympathetic-heating-past-max-quanta", "deff-of-a-tiny-paddle",
         "deff-at-a-huge-height"])
def test_runs_the_integrators_refuse_are_located(name, edits, at, words):
    from importlib import resources
    lines = resources.files("ionwire.data").joinpath(
        f"{name}_benchmark.scenario").read_text(encoding="utf-8").splitlines()
    for section, edit in edits:
        lines[_line_of(lines, section, edit.split(" = ")[0])] = edit
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("\n".join(lines), "bad.scenario")
    assert err.value.kind == KIND_INVALID
    assert (err.value.section, err.value.key) == at
    line = _line_of(lines, *at) + 1
    assert str(err.value).startswith(
        f"bad.scenario:{line}: [invalid] {at[0]}.{at[1]}: {words}")


def test_scan_grid_overflow_is_located():
    assert parse_scenario_text(_with_scan_schedule(SCAN_SCHEDULE))
    text = _with_scan_schedule(SCAN_SCHEDULE.replace("center_mhz = 1.990",
                                                     "center_mhz = 1e308"))
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert (err.value.section, err.value.key) == ("schedule", "center_mhz")
    assert err.value.line == text.splitlines().index("center_mhz = 1e308") + 1


def test_duplicate_section_and_key_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(BASE + "\n[wire]\ncapacitance_ff = 31\n")
    assert err.value.kind == KIND_INVALID
    dup_key = BASE.replace("capacitance_ff = 30",
                           "capacitance_ff = 30\ncapacitance_ff = 31")
    with pytest.raises(ScenarioError) as err2:
        parse_scenario_text(dup_key)
    assert err2.value.kind == KIND_INVALID


def test_key_before_section_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("stray = 1\n" + BASE)
    assert err.value.kind == KIND_INVALID
    assert err.value.line == 1


def test_error_message_format():
    text = BASE.replace("capacitance_ff = 30", "capacitance_ff = thirty")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text, path="demo.scenario")
    msg = str(err.value)
    assert msg.startswith("demo.scenario:")
    assert "[unit]" in msg
    assert "wire.capacitance_ff" in msg


def test_replace_supports_null_coupling():
    scn = parse_scenario_text(BASE)
    null = dataclasses.replace(scn, kappa_override=0.0)
    assert null.kappa() == 0.0
    with pytest.raises(ValueError):
        dataclasses.replace(scn, kappa_override=-1.0)


def test_scan_and_sympathetic_records_need_two_realizations():
    # their fits weight each point by the ensemble's standard error
    for name in ("scan_benchmark", "sympathetic_benchmark"):
        scn = load_bundled(name)
        with pytest.raises(ValueError, match="ensemble_size must be .*>= 2"):
            dataclasses.replace(scn, ensemble_size=1)
        assert dataclasses.replace(scn, ensemble_size=2).ensemble_size == 2
    # the noiseless swap runs a single trajectory, and holds no other size
    swap = load_bundled("swap_benchmark")
    assert swap.ensemble_size == 1
    with pytest.raises(ValueError, match="^ensemble_size must be 1, got 5$"):
        dataclasses.replace(swap, ensemble_size=5)


@pytest.mark.parametrize("seed", [-1, 1.5, math.nan, "7", True])
def test_replace_rejects_a_seed_the_file_format_cannot_hold(seed):
    # the parser takes an integer >= 0 only, so the record does too: a
    # serialized scenario always parses back
    scn = parse_scenario_text(BASE)
    with pytest.raises(ValueError, match="seed"):
        dataclasses.replace(scn, seed=seed)
    big = dataclasses.replace(scn, seed=10 ** 30)
    assert parse_scenario_text(serialize_scenario(big)).seed == 10 ** 30


# ---------------------------------------------------------------------------
# seeded fuzzing of the bundled scenario texts

_BAD_UNITS = ("1.99 MHz", "abc", "", "1,,2", "0x1f", "1e", "--3", "auto")
_EDGE_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308")


def _mutate(text, rng):
    """One to three edits: drop a key, corrupt a unit, write an edge
    value, or swap two section headers."""
    lines = text.splitlines()
    for _ in range(rng.integers(1, 4)):
        keyed = [i for i, line in enumerate(lines) if "=" in line]
        i = keyed[rng.integers(len(keyed))]
        key = lines[i].partition("=")[0].strip()
        op = rng.integers(4)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines[i] = f"{key} = {rng.choice(_BAD_UNITS)}"
        elif op == 2:
            lines[i] = f"{key} = {rng.choice(_EDGE_VALUES)}"
        else:
            headers = [j for j, line in enumerate(lines)
                       if line.startswith("[")]
            a, b = rng.choice(headers, 2, replace=False)
            lines[a], lines[b] = lines[b], lines[a]
    return "\n".join(lines) + "\n"


def _leaves(value, path=""):
    """(dotted field path, value) of every leaf of a canonical dict."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, f"{path}.{k}")
    elif isinstance(value, list):
        for v in value:
            yield from _leaves(v, path)
    else:
        yield path, value


def test_fuzzed_scenarios_fail_only_with_scenario_error():
    from importlib import resources
    rng = np.random.default_rng(20260815)
    accepted = 0
    for name in FROZEN_DIGESTS:
        text = resources.files("ionwire.data").joinpath(
            name + ".scenario").read_text(encoding="utf-8")
        for _ in range(150):
            mutated = _mutate(text, rng)
            try:
                scn = parse_scenario_text(mutated)
            except ScenarioError:
                continue
            except Exception as exc:
                pytest.fail(f"{exc!r} escaped the parser on:\n{mutated}")
            accepted += 1
            floats = [(path, v) for path, v in _leaves(canonical_dict(scn))
                      if isinstance(v, float)]
            assert not any(math.isnan(v) for _, v in floats), mutated
            # only a damping rate may be infinite (a hard clamp)
            assert not any(math.isinf(v) and not path.endswith(".damping_rate")
                           for path, v in floats), mutated
            again = parse_scenario_text(serialize_scenario(scn))
            assert scenario_digest(again) == scenario_digest(scn), mutated
    # the edits must leave some scenarios valid, or the round trip is untested
    assert accepted > 0
