"""End-to-end reproductions of the benchmark measurements.

Each ``run_*`` operation wires geometry -> circuit -> dynamics -> analysis
for one published-style measurement, compares its headline numbers against
bands stored in ``data/expectations.json`` (bands are data, not code), and
returns an ExperimentReport. Unspecified experimental details (probe
duration, scan grid, wait-time grid, preparation statistics) are artifact
choices and are labeled as such inside every report.

File emission lives in the cli module; everything here is pure data.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import analysis, circuit, dynamics
from . import scenario as scenario_file
from .core import (TrapSite, WireSpec, calcium_40, electron,
                   hz_to_rad_s, mhz_to_rad_s, per_s_to_quanta_per_ms,
                   rad_s_to_hz)
from .geometry import RectPatch, effective_distance
from .scenario import ScheduleResonanceScan, ScheduleSwap, ScheduleSympathetic

# Reference trap hardware the bundled scenarios model: 120 um square coupling
# paddles 620 um apart, 30 fF total wire capacitance, and the benchmark
# effective exchange rate measured on that hardware.
REFERENCE_PADDLE_SIDE = 120e-6
REFERENCE_SEPARATION = 620e-6
REFERENCE_CAPACITANCE = 30e-15
MEASURED_KAPPA_HZ = 11.1


@dataclass
class HeadlineNumber:
    name: str
    value: float
    unit: str
    band: tuple = None      # (lo, hi) or None for informational rows
    source: str = ""
    passed: bool = None

    def check(self):
        if self.band is not None:
            self.passed = bool(self.band[0] <= self.value <= self.band[1])
        return self.passed


@dataclass
class ExperimentReport:
    name: str
    scenario_digest: str
    headline: list
    artifact_choices: dict = field(default_factory=dict)
    trajectories: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)     # {column name: values}
    notes: list = field(default_factory=list)
    passed: bool = True
    wall_time_s: float = 0.0

    def finalize(self, t_start):
        self.wall_time_s = time.perf_counter() - t_start
        checked = [h.check() for h in self.headline]
        self.passed = all(c for c in checked if c is not None)
        return self


def load_expectations():
    """Versioned pass/fail bands; data, not code."""
    with resources.files("ionwire.data").joinpath("expectations.json").open() as f:
        exp = json.load(f)
    if exp.get("version") != 1:
        raise ValueError(f"unsupported expectations version {exp.get('version')!r}")
    return exp


def _banded(exp, group, name, value, unit):
    """Headline row ``name`` checked against its expectation band."""
    lo, hi = exp[group][name]
    return HeadlineNumber(name, value, unit, (float(lo), float(hi)),
                          f"expectations:{group}.{name}")


# ---------------------------------------------------------------------------
# prediction table

def _reference_site(height, frequency, deff=None):
    patch = RectPatch.centered_square(REFERENCE_PADDLE_SIDE)
    d = float(effective_distance(patch, height)) if deff is None else deff
    return TrapSite(vertical_frequency=frequency, physical_height=height,
                    effective_distance=d)


def run_prediction_table():
    """Predicted coupling rates and rate ratios for the reference trap."""
    t0 = time.perf_counter()
    exp = load_expectations()
    ca = calcium_40()
    wire = WireSpec(capacitance=REFERENCE_CAPACITANCE,
                    paddle_side=REFERENCE_PADDLE_SIDE,
                    center_separation=REFERENCE_SEPARATION)

    # row 1: symmetric 60 um sites at 2 MHz
    w_sym = mhz_to_rad_s(2.0)
    site_sym = _reference_site(60e-6, w_sym)
    kappa_sym = circuit.wire_coupling_rate(ca, site_sym, site_sym, wire)

    # row 2: asymmetric 50/70 um sites at 1.990 MHz
    w_asym = mhz_to_rad_s(1.990)
    site_a = _reference_site(50e-6, w_asym)
    site_b = _reference_site(70e-6, w_asym)
    kappa_asym = circuit.wire_coupling_rate(ca, site_a, site_b, wire)

    # row 3: wire rate vs free-space Coulomb rate at the wire separation
    w_ratio = mhz_to_rad_s(1.99)
    coulomb = circuit.coulomb_coupling_rate(ca, w_ratio, REFERENCE_SEPARATION)
    kappa_meas = hz_to_rad_s(MEASURED_KAPPA_HZ)
    pred = circuit.enhancement_report(ca, site_a, site_b, wire)

    # row 4: electron at 100 MHz vs calcium at 2 MHz, same geometry
    el = electron()
    w_e = mhz_to_rad_s(100.0)
    site_e = _reference_site(60e-6, w_e, deff=site_sym.effective_distance)
    kappa_e = circuit.wire_coupling_rate(el, site_e, site_e, wire)
    electron_scaling = kappa_e / kappa_sym

    lc = circuit.circuit_equivalent(ca, _reference_site(50e-6, w_asym, deff=130e-6))

    headline = [
        _banded(exp, "prediction_table", "kappa_symmetric_hz",
                rad_s_to_hz(kappa_sym), "Hz"),
        _banded(exp, "prediction_table", "kappa_asymmetric_hz",
                rad_s_to_hz(kappa_asym), "Hz"),
        _banded(exp, "prediction_table", "enhancement_ratio_measured",
                kappa_meas / coulomb, ""),
        _banded(exp, "prediction_table", "enhancement_ratio_predicted",
                pred.enhancement_ratio, ""),
        _banded(exp, "prediction_table", "electron_scaling",
                electron_scaling, ""),
        _banded(exp, "prediction_table", "inductance_henry",
                lc.inductance, "H"),
        HeadlineNumber("coulomb_rate_hz", rad_s_to_hz(coulomb), "Hz",
                       None, "informational"),
        HeadlineNumber("crossover_radius_um",
                       1e6 * circuit.crossover_radius(ca, w_ratio, kappa_meas),
                       "um", None, "informational"),
    ]
    report = ExperimentReport(
        name="prediction_table",
        scenario_digest="builtin-reference-parameters",
        headline=headline,
        tables={"rows": {
            "case": ["symmetric 60um @ 2 MHz", "asymmetric 50/70um @ 1.990 MHz",
                     "coulomb @ 620um, 1.99 MHz",
                     "electron 100 MHz / calcium 2 MHz scaling"],
            "kappa_hz": [rad_s_to_hz(kappa_sym), rad_s_to_hz(kappa_asym),
                         rad_s_to_hz(coulomb), electron_scaling]}},
        artifact_choices={
            "measured_kappa_hz": MEASURED_KAPPA_HZ,
            "deff_model": "gapless-plane analytic, 120 um square paddle",
        })
    report.notes.append(
        "enhancement_ratio_measured uses the benchmark measured rate "
        f"{MEASURED_KAPPA_HZ} Hz; enhancement_ratio_predicted uses the "
        "circuit-model rate at 50/70 um heights.")
    return report.finalize(t0)


# ---------------------------------------------------------------------------
# resonance scan

def _point_seed(master, idx):
    return int(np.random.SeedSequence(int(master), spawn_key=(int(idx),))
               .generate_state(1, np.uint64)[0])


def run_resonance_scan(scenario):
    """Heating-rate spectroscopy of the cold ion across the resonance."""
    t0 = time.perf_counter()
    sched = scenario.schedule
    if not isinstance(sched, ScheduleResonanceScan):
        raise ValueError("scenario schedule must be a resonance scan")
    exp = load_expectations()

    kappa = scenario.kappa()
    w1 = scenario.site1.vertical_frequency
    w2_nominal = scenario.site2.vertical_frequency
    probes = np.asarray(sched.probe_frequencies, float)
    deltas = probes - w1
    t_probe = sched.probe_duration

    # every probe point in one call, on one step grid (the smallest of the
    # points' step limits); each keeps its own seed
    trajectories = dynamics.integrate_envelope(
        kappa=kappa, carrier=w1, detuning=[(0.0, float(d)) for d in deltas],
        noise=(scenario.noise1, scenario.noise2),
        cooling=(scenario.cooling1, scenario.cooling2),
        duration=t_probe,
        seed=[_point_seed(scenario.seed, i) for i in range(probes.size)],
        n_realizations=scenario.ensemble_size,
        initial_occupations=(sched.hot_occupation, sched.cold_occupation),
        init_phase=(dynamics.INIT_THERMAL, dynamics.INIT_COHERENT),
        record_points=2)
    # two-point gain over the probe; the coherent-phase cold prep makes
    # n2(0) exact so the SEM of the gain is the SEM of the endpoint
    rates = np.array([(traj.n_bar_2[-1] - sched.cold_occupation) / t_probe
                      for traj in trajectories])
    sems = np.array([max(traj.n_bar_sem_2[-1] / t_probe, 1e-12)
                     for traj in trajectories])

    # the probe's own Fourier width is in the line shape, so the fitted
    # width is the jitter's alone
    fit = analysis.fit_resonance(probes, rates, sems, probe=(kappa, t_probe))
    p = fit.parameters
    peak_rate = analysis.resonance_model(
        p["center"], p["baseline_coeff"], p["amplitude"], p["center"],
        p["width_sigma_hz"], p["omega_ref"], (kappa, t_probe))
    sigma_injected = math.hypot(scenario.noise1.jitter_sigma,
                                scenario.noise2.jitter_sigma)
    width_err = abs(p["width_sigma_hz"] - sigma_injected) / sigma_injected \
        if sigma_injected > 0 else float("nan")
    center_offset = rad_s_to_hz(p["center"] - w2_nominal)

    headline = [
        _banded(exp, "resonance_scan", "baseline_quanta_per_ms",
                per_s_to_quanta_per_ms(p["baseline_coeff"]), "quanta/ms"),
        _banded(exp, "resonance_scan", "peak_quanta_per_ms",
                per_s_to_quanta_per_ms(peak_rate), "quanta/ms"),
        _banded(exp, "resonance_scan", "center_offset_hz",
                center_offset, "Hz"),
        _banded(exp, "resonance_scan", "width_rel_err", width_err, ""),
        HeadlineNumber("width_sigma_hz", p["width_sigma_hz"], "Hz",
                       None, "informational"),
        HeadlineNumber("kappa_scan_hz", rad_s_to_hz(kappa), "Hz",
                       None, "scenario coupling input"),
    ]
    report = ExperimentReport(
        name="resonance_scan",
        scenario_digest=scenario_file.scenario_digest(scenario),
        headline=headline,
        fits={"resonance": fit},
        tables={"scan": {"omega_rad_s": probes, "rate_quanta_per_s": rates,
                         "sigma_quanta_per_s": sems}},
        artifact_choices={
            "probe_duration_ms": t_probe * 1e3,
            "estimator": "two-point gain (n2(T) - n2(0))/T per probe point",
            "cold_prep": "fixed amplitude, random phase (mean-preserving)",
            "hot_prep": "thermal, no hold clamp during the probe",
            "scan_grid": f"{probes.size} points, "
                         f"{rad_s_to_hz(probes.min() - w2_nominal):+.0f} to "
                         f"{rad_s_to_hz(probes.max() - w2_nominal):+.0f} Hz",
            "ensemble_size": scenario.ensemble_size,
        })
    if scenario.kappa_override is not None:
        kappa_pred = circuit.wire_coupling_rate(
            scenario.species, scenario.site1, scenario.site2, scenario.wire)
        report.headline.append(HeadlineNumber(
            "kappa_circuit_prediction_hz", rad_s_to_hz(kappa_pred), "Hz",
            None, "circuit model at scenario geometry"))
        report.notes.append(
            "scenario overrides the coupling rate with an effective value "
            "calibrated to the observed on-resonance exchange; per-shot "
            "frequency jitter suppresses the ensemble rate well below the "
            "bare-coupling estimate, so the Hamiltonian rate and the "
            "effective scan rate differ by construction.")
    return report.finalize(t0)


# ---------------------------------------------------------------------------
# sympathetic heating-rate reduction

def run_sympathetic(scenario):
    """Uncoupled vs clamped-coupled hot-ion heating, plus rate extraction."""
    t0 = time.perf_counter()
    sched = scenario.schedule
    if not isinstance(sched, ScheduleSympathetic):
        raise ValueError("scenario schedule must be a sympathetic run")
    exp = load_expectations()

    kappa_ex = scenario.kappa()   # 1/s incoherent exchange rate
    w1 = scenario.site1.vertical_frequency
    n_ss = scenario.cooling2.steady_state_occupation
    n1_0 = sched.initial_hot_occupation
    waits = np.asarray(sched.wait_times, float)
    t_fit = float(waits[-1])
    iw, n_rec = sched.wait_steps, sched.records     # the waits' records, all
    [(_key, t_end, dt, _dt_max)] = \
        scenario_file.SCHEDULES[sched.kind].grids(scenario)

    # branch A: free heating, stochastic ensemble, on the grid the
    # scenario's kind gives
    traj_u = dynamics.integrate_envelope(
        kappa=0.0, carrier=w1, detuning=(0.0, 0.0),
        noise=(scenario.noise1, dynamics.NO_NOISE),
        cooling=(dynamics.NO_COOLING, dynamics.NO_COOLING), duration=t_end,
        dt=dt, seed=scenario.seed, n_realizations=scenario.ensemble_size,
        initial_occupations=(n1_0, n_ss),
        init_phase=(dynamics.INIT_COHERENT, dynamics.INIT_COHERENT),
        record_points=n_rec)

    # branch B: incoherent exchange against a hard-clamped cold ion
    heat1 = dynamics.noise_psd(scenario.noise1, w1)
    clamp = dynamics.CoolingClamp(damping_rate=math.inf,
                                  steady_state_occupation=n_ss)
    traj_c = dynamics.rate_equation_model(
        n1_0=n1_0, n2_0=n_ss, heat1=heat1, heat2=0.0, kappa_ex=kappa_ex,
        cooling2=clamp, duration=t_end, record_points=n_rec)

    # the t = 0 point is exact by construction (fixed-amplitude prep); floor
    # its weight so the normal equations stay well conditioned
    sem_floor = 1e-6 * float(np.max(traj_u.n_bar_1[iw]))
    fit_u = analysis.fit_linear_heating(
        traj_u.times[iw], traj_u.n_bar_1[iw],
        np.maximum(traj_u.n_bar_sem_1[iw], sem_floor))
    fit_c = analysis.fit_linear_heating(traj_c.times[iw], traj_c.n_bar_1[iw])

    rate_u = fit_u.parameters["rate"]
    rate_c = fit_c.parameters["rate"]
    # time-averaged hot-ion occupation over the fit window (documented choice)
    in_window = traj_c.times <= t_fit + 1e-12
    n1_avg = float(np.trapezoid(traj_c.n_bar_1[in_window],
                                traj_c.times[in_window]) / t_fit)
    kappa_eff = analysis.extract_kappa(rate_u, rate_c, n1_avg, n_ss)
    kappa_endpoint = analysis.extract_kappa(rate_u, rate_c, n1_0, n_ss)

    crossing_ok = traj_c.n_bar_1[-1] < traj_u.n_bar_1[-1]

    headline = [
        _banded(exp, "sympathetic", "uncoupled_quanta_per_ms",
                per_s_to_quanta_per_ms(rate_u), "quanta/ms"),
        _banded(exp, "sympathetic", "coupled_quanta_per_ms",
                per_s_to_quanta_per_ms(rate_c), "quanta/ms"),
        HeadlineNumber("kappa_injected_hz", rad_s_to_hz(kappa_ex), "Hz",
                       None, "scenario coupling input"),
        HeadlineNumber("kappa_extracted_hz", rad_s_to_hz(kappa_eff), "Hz",
                       None, "time-averaged-n1 extraction"),
        HeadlineNumber("kappa_endpoint_hz", rad_s_to_hz(kappa_endpoint), "Hz",
                       None, "endpoint-n1 extraction, shown for comparison"),
        # the decoupled null run has no extraction target and no ordering
        HeadlineNumber("late_time_ordering", float(crossing_ok), "",
                       (1.0, 1.0) if kappa_ex > 0 else None,
                       "coupled curve below uncoupled at run end"),
    ]
    if kappa_ex > 0:
        extraction_err = abs(kappa_eff - kappa_ex) / kappa_ex
        headline.insert(2, _banded(exp, "sympathetic", "extraction_rel_err",
                                   extraction_err, ""))
    report = ExperimentReport(
        name="sympathetic",
        scenario_digest=scenario_file.scenario_digest(scenario),
        headline=headline,
        trajectories={"uncoupled": traj_u, "coupled": traj_c},
        fits={"uncoupled": fit_u, "coupled": fit_c},
        artifact_choices={
            "wait_grid_ms": [w * 1e3 for w in waits],
            "fit_window_ms": t_fit * 1e3,
            "curve_extension_ms": t_end * 1e3,
            "coupled_branch": "deterministic rate equations, hard clamp",
            "uncoupled_branch": "stochastic envelope ensemble",
            "n1_average": "trapezoid time-average over the fit window",
            "ensemble_size": scenario.ensemble_size,
        })
    report.notes.append(
        "the endpoint-n1 extraction differs from the time-averaged one by "
        "construction; both are reported because the benchmark value is only "
        "consistent with the time-averaged reading.")
    return report.finalize(t0)


# ---------------------------------------------------------------------------
# noiseless swap demonstration

def run_swap_demo(scenario):
    """Full-SDE resonant energy exchange with the envelope cross-check."""
    t0 = time.perf_counter()
    sched = scenario.schedule
    if not isinstance(sched, ScheduleSwap):
        raise ValueError("scenario schedule must be a swap demo")
    # the parser refuses these at their keys, records made in code here
    kind = scenario_file.SCHEDULES[sched.kind]
    for record in (scenario.noise1, scenario.noise2, scenario.cooling1,
                   scenario.cooling2):
        kind.check_record(record)
    kappa = scenario.kappa()
    kind.coupling(kappa)
    exp = load_expectations()

    w = 0.5 * (scenario.site1.vertical_frequency +
               scenario.site2.vertical_frequency)
    params = dynamics.PairParams.resonant(scenario.species.mass, w, kappa)
    n1_0, n2_0 = sched.initial_occupations

    traj = dynamics.integrate_full(
        params, (n1_0, n2_0),
        noise=(dynamics.NO_NOISE, dynamics.NO_NOISE),
        cooling=(dynamics.NO_COOLING, dynamics.NO_COOLING),
        duration=sched.duration, seed=scenario.seed, n_realizations=1,
        init_phase=(dynamics.INIT_FIXED, dynamics.INIT_FIXED),
        record_points=1001)

    env = dynamics.integrate_envelope(
        kappa=kappa, carrier=w, duration=sched.duration, seed=scenario.seed,
        n_realizations=1, initial_occupations=(n1_0, n2_0),
        init_phase=(dynamics.INIT_FIXED, dynamics.INIT_FIXED),
        record_points=1001)

    # swap instant: parabolic refinement of the sampled n1 minimum
    k_min = int(np.argmin(traj.n_bar_1))
    t_swap = traj.times[k_min]
    if 0 < k_min < traj.times.size - 1:
        y0, y1, y2 = traj.n_bar_1[k_min - 1:k_min + 2]
        denom = y0 - 2 * y1 + y2
        if denom > 0:
            t_swap = t_swap + 0.5 * (y0 - y2) / denom * \
                (traj.times[k_min + 1] - traj.times[k_min])
    t_expected = math.pi / (2.0 * kappa)
    swap_err = abs(t_swap - t_expected) / t_expected
    residual = traj.n_bar_1[k_min] / n1_0

    env_on_grid_1 = np.interp(traj.times, env.times, env.n_bar_1)
    env_on_grid_2 = np.interp(traj.times, env.times, env.n_bar_2)
    scale = max(n1_0, n2_0)
    rms = math.sqrt(float(np.mean((traj.n_bar_1 - env_on_grid_1) ** 2 +
                                  (traj.n_bar_2 - env_on_grid_2) ** 2) / 2.0)) / scale

    headline = [
        HeadlineNumber("swap_time_ms", t_swap * 1e3, "ms", None,
                       "first minimum of n1(t)"),
        _banded(exp, "swap", "swap_time_rel_err", swap_err, ""),
        _banded(exp, "swap", "envelope_rms_rel", rms, ""),
        _banded(exp, "swap", "residual_fraction", residual, ""),
    ]
    report = ExperimentReport(
        name="swap_demo",
        scenario_digest=scenario_file.scenario_digest(scenario),
        headline=headline,
        trajectories={"full": traj, "envelope": env},
        artifact_choices={
            "record_points": 1001,
            "swap_time_estimator": "parabolic refinement of the grid minimum",
        })
    return report.finalize(t0)
