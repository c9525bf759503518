import dataclasses
import math

import numpy as np
import pytest

from ionwire import dynamics, experiments
from ionwire.core import TWO_PI, mhz_to_rad_s
from ionwire.dynamics import CoolingClamp, NoiseModel
from ionwire.experiments import (ExperimentReport, HeadlineNumber,
                                 load_expectations, run_prediction_table,
                                 run_resonance_scan, run_swap_demo,
                                 run_sympathetic)
from ionwire.scenario import (ScheduleResonanceScan, ScheduleSwap,
                              ScheduleSympathetic, scenario_digest)


def by_name(report, name):
    for h in report.headline:
        if h.name == name:
            return h
    raise KeyError(name)


# ---------------------------------------------------------------------------
# closed-form prediction table

def test_prediction_table_values(prediction_report):
    rep = prediction_report
    assert rep.passed
    assert by_name(rep, "kappa_symmetric_hz").value == pytest.approx(
        9.626389572, abs=1e-6)
    assert by_name(rep, "kappa_asymmetric_hz").value == pytest.approx(
        9.642769551, abs=1e-6)
    assert by_name(rep, "enhancement_ratio_measured").value == pytest.approx(
        59.7794, abs=1e-3)
    assert by_name(rep, "electron_scaling").value == pytest.approx(
        1456.95, abs=0.05)
    assert by_name(rep, "inductance_henry").value == pytest.approx(
        43688.65, abs=0.5)
    assert by_name(rep, "coulomb_rate_hz").value == pytest.approx(
        0.18568, abs=2e-5)
    assert by_name(rep, "crossover_radius_um").value == pytest.approx(
        158.565, abs=0.01)


def test_prediction_table_bands(prediction_report):
    rep = prediction_report
    assert by_name(rep, "kappa_symmetric_hz").band == (7.5, 12.5)
    lo, hi = by_name(rep, "kappa_asymmetric_hz").band
    assert lo == pytest.approx(10.2 * 0.75, rel=1e-12)
    assert hi == pytest.approx(10.2 * 1.25, rel=1e-12)
    assert by_name(rep, "enhancement_ratio_measured").band == (45.0, 75.0)
    for h in rep.headline:
        assert h.check() == h.passed
    assert rep.wall_time_s < 60.0


# ---------------------------------------------------------------------------
# resonance scan benchmark

def test_scan_report_bands(scan_report, scan_scenario):
    rep = scan_report
    assert rep.passed, [(h.name, h.value, h.band) for h in rep.headline]
    base = by_name(rep, "baseline_quanta_per_ms")
    assert base.band == (225.0, 275.0)
    assert base.band[0] <= base.value <= base.band[1]
    peak = by_name(rep, "peak_quanta_per_ms")
    assert peak.band == (700.0, 1300.0)
    assert peak.band[0] <= peak.value <= peak.band[1]
    assert abs(by_name(rep, "center_offset_hz").value) <= 100.0
    assert by_name(rep, "width_rel_err").value <= 0.20
    injected = math.hypot(scan_scenario.noise1.jitter_sigma,
                          scan_scenario.noise2.jitter_sigma)
    width = by_name(rep, "width_sigma_hz").value
    assert abs(width - injected) / injected <= 0.20
    assert rep.scenario_digest == scenario_digest(scan_scenario)
    assert rep.wall_time_s < 600.0
    assert "scan" in rep.tables
    assert rep.fits["resonance"].converged


def test_null_coupling_scan_is_flat(scan_scenario):
    sched = dataclasses.replace(
        scan_scenario.schedule,
        probe_frequencies=scan_scenario.schedule.probe_frequencies[::4][:9])
    null = dataclasses.replace(scan_scenario, schedule=sched,
                               kappa_override=0.0, ensemble_size=150,
                               label="null-scan")
    rep = run_resonance_scan(null)
    fit = rep.fits["resonance"]
    amp, sig = fit.parameters["amplitude"], fit.sigmas["amplitude"]
    assert amp <= 3.0 * sig
    # baseline stays at the injected free heating rate
    assert fit.parameters["baseline_coeff"] == pytest.approx(250e3, rel=0.10)


def test_peak_gain_doubles_with_hot_occupation():
    # common random numbers make the comparison nearly noise-free
    omega = mhz_to_rad_s(1.368)
    kappa = TWO_PI * 59.0
    noise = (NoiseModel(0.0, omega, 1.0, 372.65),
             NoiseModel(250e3, omega, 1.0, 372.65))
    rates = {}
    for n_hot in (0.0, 1e4, 2e4):
        tr = dynamics.integrate_envelope(
            kappa, omega, (0.0, 0.0), noise, duration=2e-3, seed=515,
            n_realizations=800, initial_occupations=(n_hot, 200.0),
            init_phase=("coherent", "coherent"), record_points=2)
        rates[n_hot] = (tr.n_bar_2[-1] - 200.0) / 2e-3
    gain_ratio = (rates[2e4] - rates[0.0]) / (rates[1e4] - rates[0.0])
    assert gain_ratio == pytest.approx(2.0, abs=0.05)
    # the incoherent route obeys the same linearity exactly
    out = {}
    for n_hot in (0.0, 1e4, 2e4):
        tr = dynamics.rate_equation_model(n_hot, 200.0, 0.0, 250e3, 132.0,
                                          CoolingClamp(0.0, 0.0), 2e-3, 3)
        out[n_hot] = tr.n_bar_2[-1]
    assert (out[2e4] - out[0.0]) / (out[1e4] - out[0.0]) == pytest.approx(
        2.0, rel=1e-9)


# ---------------------------------------------------------------------------
# sympathetic benchmark

def test_sympathetic_report_bands(sympathetic_report, sympathetic_scenario):
    rep = sympathetic_report
    assert rep.passed, [(h.name, h.value, h.band) for h in rep.headline]
    unc = by_name(rep, "uncoupled_quanta_per_ms")
    assert abs(unc.value - 206.0) <= 15.0
    cpl = by_name(rep, "coupled_quanta_per_ms")
    assert 90.0 <= cpl.value <= 115.0
    assert by_name(rep, "extraction_rel_err").value <= 0.05
    extracted = by_name(rep, "kappa_extracted_hz").value
    assert abs(extracted - 11.1) / 11.1 <= 0.05
    assert by_name(rep, "late_time_ordering").value == 1.0
    assert rep.scenario_digest == scenario_digest(sympathetic_scenario)
    assert rep.wall_time_s < 600.0
    assert rep.fits["uncoupled"].converged and rep.fits["coupled"].converged


def test_null_coupling_sympathetic_branches_agree(sympathetic_scenario):
    null = dataclasses.replace(sympathetic_scenario, kappa_override=0.0,
                               ensemble_size=4000, label="null")
    rep = run_sympathetic(null)
    rate_u = rep.fits["uncoupled"].parameters["rate"]
    rate_c = rep.fits["coupled"].parameters["rate"]
    sig_u = rep.fits["uncoupled"].sigmas["rate"]
    # deterministic branch reduces to pure heating
    assert rate_c == pytest.approx(206e3, rel=1e-6)
    assert abs(rate_u - rate_c) <= 3.0 * sig_u
    assert abs(by_name(rep, "kappa_extracted_hz").value) < 0.5
    assert by_name(rep, "kappa_injected_hz").value == 0.0
    with pytest.raises(KeyError):
        by_name(rep, "extraction_rel_err")
    assert by_name(rep, "late_time_ordering").band is None


# ---------------------------------------------------------------------------
# swap benchmark

def test_swap_report_bands(swap_report, swap_scenario):
    rep = swap_report
    assert rep.passed, [(h.name, h.value, h.band) for h in rep.headline]
    kappa = swap_scenario.kappa()
    expected_ms = math.pi / (2.0 * kappa) * 1e3
    assert by_name(rep, "swap_time_ms").value == pytest.approx(
        expected_ms, rel=0.01)
    assert by_name(rep, "swap_time_rel_err").value <= 0.01
    assert by_name(rep, "envelope_rms_rel").value <= 0.03
    assert by_name(rep, "residual_fraction").value <= 0.01
    assert rep.scenario_digest == scenario_digest(swap_scenario)
    assert rep.wall_time_s < 300.0


def test_swap_requires_noiseless_scenario(swap_scenario):
    noisy = dataclasses.replace(
        swap_scenario,
        noise1=NoiseModel(1e3, swap_scenario.site1.vertical_frequency,
                          1.0, 0.0))
    with pytest.raises(ValueError, match="noise"):
        run_swap_demo(noisy)


def test_swap_refuses_a_cooled_record_made_in_code(swap_scenario):
    # the parser refuses cooling at its key; the run refuses a record made
    # in code rather than run it uncooled
    cooled = dataclasses.replace(swap_scenario,
                                 cooling2=CoolingClamp(5000.0, 0.0))
    with pytest.raises(ValueError,
                       match=r"^damping_rate of a swap run .* must be 0, got"):
        run_swap_demo(cooled)


def test_swap_refuses_an_uncoupled_record_made_in_code(swap_scenario):
    # the swap time is pi/(2 kappa): no exchange is a usage error, not a
    # division by zero
    uncoupled = dataclasses.replace(swap_scenario, kappa_override=0.0)
    with pytest.raises(ValueError,
                       match=r"^kappa_override of a swap run must be .*> 0"):
        run_swap_demo(uncoupled)


# ---------------------------------------------------------------------------
# schedule plumbing

def test_schedule_kind_mismatches_rejected(scan_scenario, sympathetic_scenario,
                                           swap_scenario):
    with pytest.raises(ValueError):
        run_swap_demo(scan_scenario)
    with pytest.raises(ValueError):
        run_resonance_scan(sympathetic_scenario)
    with pytest.raises(ValueError):
        run_sympathetic(swap_scenario)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ScheduleResonanceScan((mhz_to_rad_s(1.368),), 2e-3, 1e4, 200.0)
    with pytest.raises(ValueError):
        ScheduleResonanceScan((mhz_to_rad_s(1.368), mhz_to_rad_s(1.369)),
                              2e-3, 100.0, 200.0)
    with pytest.raises(ValueError):
        ScheduleSympathetic((0.0, 1e-3), 1000.0)
    with pytest.raises(ValueError):
        ScheduleSympathetic((0.0, 2e-3, 1e-3), 1000.0)
    with pytest.raises(ValueError):
        ScheduleSwap(-1.0, (1000.0, 0.0))


def test_scenario_kappa_override_contract(sympathetic_scenario):
    assert sympathetic_scenario.kappa() == pytest.approx(TWO_PI * 11.1, rel=1e-12)
    free = dataclasses.replace(sympathetic_scenario, kappa_override=None)
    from ionwire import circuit
    assert free.kappa() == pytest.approx(
        circuit.wire_coupling_rate(free.species, free.site1, free.site2,
                                   free.wire), rel=1e-12)
    with pytest.raises(ValueError):
        dataclasses.replace(sympathetic_scenario, kappa_override=-0.1)


def test_expectations_file_contract():
    exp = load_expectations()
    assert exp["version"] == 1
    for section in ("prediction_table", "resonance_scan", "sympathetic",
                    "swap"):
        assert section in exp
        for band in exp[section].values():
            assert len(band) == 2 and band[0] <= band[1]


def test_report_structure(sympathetic_report):
    rep = sympathetic_report
    assert isinstance(rep, ExperimentReport)
    assert all(isinstance(h, HeadlineNumber) for h in rep.headline)
    for h in rep.headline:
        assert h.check() == h.passed
    assert rep.artifact_choices
    assert rep.wall_time_s > 0.0
    assert rep.name == "sympathetic"
