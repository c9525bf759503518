import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import least_squares, nnls
from scipy.special import eval_laguerre

from ionwire import analysis, dynamics, experiments
from ionwire.analysis import (FitResult, RabiDataset, extract_kappa,
                              fit_linear_heating, fit_rabi_nbar,
                              fit_resonance, laguerre_sequence,
                              rabi_excitation, resonance_model,
                              synthesize_rabi, thermal_weights)
from ionwire.core import TWO_PI


# ---------------------------------------------------------------------------
# weighted linear fits

def test_linear_fit_exact_recovery():
    t = np.linspace(0.0, 10e-3, 11)
    y = 3.0 + 7.0e3 * t
    fit = fit_linear_heating(t, y)
    assert fit.parameters["rate"] == pytest.approx(7.0e3, rel=1e-12)
    assert fit.parameters["intercept"] == pytest.approx(3.0, rel=1e-12)
    weighted = fit_linear_heating(t, y, np.full(11, 0.5))
    assert weighted.parameters["rate"] == pytest.approx(7.0e3, rel=1e-12)
    assert weighted.converged


def test_linear_fit_uncertainty_coverage():
    # reported 1-sigma must cover the truth at the Gaussian rate
    rng = np.random.default_rng(2026)
    t = np.linspace(0.0, 10e-3, 11)
    sigma = np.full(11, 25.0)
    hits = 0
    n_sets = 500
    for _ in range(n_sets):
        y = 1000.0 + 2.06e5 * t + rng.normal(0.0, 25.0, 11)
        fit = fit_linear_heating(t, y, sigma)
        if abs(fit.parameters["rate"] - 2.06e5) < fit.sigmas["rate"]:
            hits += 1
    assert 0.62 < hits / n_sets < 0.75


def test_linear_fit_contracts():
    with pytest.raises(ValueError):
        fit_linear_heating([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_linear_heating([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_linear_heating([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [1.0, -1.0, 1.0])


# weights whose normal equations leave the float range are refused, naming
# the sigmas, without a warning: at 1e170 sigma^2 overflows, at 1e150 the
# determinant underflows, at 1e-170 sigma^2 underflows to an infinite
# weight; at 1e60 the fit still recovers the line
@pytest.mark.parametrize("sigma", [1e170, 1e150, 1e-170])
def test_linear_fit_refuses_weights_out_of_float_range(sigma):
    t = np.linspace(0.0, 10e-3, 11)
    y = 3.0 + 7.0e3 * t
    with pytest.raises(ValueError, match="^sigmas "):
        fit_linear_heating(t, y, np.full(11, sigma))
    fit = fit_linear_heating(t, y, np.full(11, 1e60))
    assert fit.parameters["rate"] == pytest.approx(7.0e3, rel=1e-12)


# ---------------------------------------------------------------------------
# resonance line shape

def scan_grid(n=31, span_hz=6e3, f0=1.368e6):
    return TWO_PI * np.linspace(f0 - span_hz / 2.0, f0 + span_hz / 2.0, n)


def test_resonance_noiseless_recovery():
    w = scan_grid()
    truth = dict(a_base=250e3, b_peak=750e3, center=TWO_PI * 1.368e6,
                 width_sigma_hz=527.0)
    y = resonance_model(w, truth["a_base"], truth["b_peak"], truth["center"],
                        truth["width_sigma_hz"], float(np.median(w)))
    fit = fit_resonance(w, y)
    assert fit.parameters["baseline_coeff"] == pytest.approx(250e3, rel=1e-6)
    assert fit.parameters["amplitude"] == pytest.approx(750e3, rel=1e-6)
    assert fit.parameters["center"] == pytest.approx(TWO_PI * 1.368e6, rel=1e-9)
    assert fit.parameters["width_sigma_hz"] == pytest.approx(527.0, rel=1e-6)
    assert fit.converged


@pytest.mark.parametrize("width", [200.0, 500.0, 1000.0])
def test_resonance_width_recovery_under_noise(width):
    rng = np.random.default_rng(7)
    w = scan_grid()
    y = resonance_model(w, 250e3, 750e3, TWO_PI * 1.368e6, width,
                        float(np.median(w)))
    y = y + rng.normal(0.0, 15e3, w.size)
    fit = fit_resonance(w, y, np.full(w.size, 15e3))
    assert abs(fit.parameters["width_sigma_hz"] - width) / width < 0.15


def test_resonance_flat_data_keeps_amplitude_consistent_with_zero():
    rng = np.random.default_rng(2)
    w = scan_grid()
    y = 250e3 * (float(np.median(w)) / w) ** 2 + rng.normal(0.0, 10e3, w.size)
    fit = fit_resonance(w, y, np.full(w.size, 10e3))
    # no peak present: the fitted amplitude may not be significant
    assert fit.parameters["amplitude"] <= 3.0 * fit.sigmas["amplitude"]
    assert fit.parameters["baseline_coeff"] == pytest.approx(250e3, rel=0.05)


# the bundled scan's coupling and probe time
PROBE = (TWO_PI * 59.0, 2e-3)


def test_probe_line_noiseless_recovery():
    w = scan_grid()
    y = resonance_model(w, 250e3, 750e3, TWO_PI * 1.368e6, 527.0,
                        float(np.median(w)), PROBE)
    fit = fit_resonance(w, y, probe=PROBE)
    assert fit.parameters["baseline_coeff"] == pytest.approx(250e3, rel=1e-6)
    assert fit.parameters["amplitude"] == pytest.approx(750e3, rel=1e-6)
    assert fit.parameters["center"] == pytest.approx(TWO_PI * 1.368e6, rel=1e-9)
    assert fit.parameters["width_sigma_hz"] == pytest.approx(527.0, rel=1e-6)
    assert fit.converged


def test_probe_line_recovers_the_jitter_from_exact_scan_means(scan_scenario):
    # the bundled scan's exact means: their line is the jitter's Gaussian
    # averaged over the 2 ms probe's own exchange line, so a Gaussian fit
    # overstates the jitter by about 10%, while the probe line recovers it
    s, sched = scan_scenario, scan_scenario.schedule
    w1, t_probe = s.site1.vertical_frequency, sched.probe_duration
    probes = np.asarray(sched.probe_frequencies)
    d_max = float(np.max(np.abs(probes - w1)))
    noise, cooling = (s.noise1, s.noise2), (s.cooling1, s.cooling2)
    exact = dynamics.integrate_envelope(
        s.kappa(), w1, detuning=[(0.0, d) for d in probes - w1], noise=noise,
        cooling=cooling, duration=t_probe,
        dt=dynamics.envelope_step_limit(s.kappa(), w1, (d_max, d_max), noise,
                                        cooling, t_probe),
        seed=[0] * probes.size,
        initial_occupations=(sched.hot_occupation, sched.cold_occupation),
        init_phase=("thermal", "coherent"), record_points=2, exact=True)
    rates = np.array([(tr.n_bar_2[-1] - sched.cold_occupation) / t_probe
                      for tr in exact])
    injected = math.hypot(s.noise1.jitter_sigma, s.noise2.jitter_sigma)
    width = {probe: fit_resonance(probes, rates, 0.01 * rates, probe)
             .parameters["width_sigma_hz"] / injected
             for probe in (None, (s.kappa(), t_probe))}
    assert width[None] > 1.05
    assert width[(s.kappa(), t_probe)] == pytest.approx(1.0, abs=0.01)


def test_resonance_width_floor_is_grid_spacing():
    w = scan_grid()
    spacing_hz = float(np.median(np.diff(np.sort(w)))) / TWO_PI
    y = resonance_model(w, 250e3, 750e3, TWO_PI * 1.368e6, 527.0,
                        float(np.median(w)))
    fit = fit_resonance(w, y)
    assert fit.parameters["width_sigma_hz"] >= 0.5 * spacing_hz - 1e-9


def test_resonance_needs_enough_points():
    w = scan_grid(n=5)
    y = np.full(5, 1.0)
    with pytest.raises(ValueError):
        fit_resonance(w, y)


# ---------------------------------------------------------------------------
# the resonance fit against scipy's trust-region least squares, which it
# replaced, called with the arguments it used to get

RESONANCE_NAMES = ("baseline_coeff", "amplitude", "center", "width_sigma_hz")


def _scipy_resonance_fit(w, y, s, probe, fit):
    """scipy's least_squares from the fit's own seed, with its old bounds,
    scales and tolerances."""
    w_ref, span = fit.parameters["omega_ref"], w.max() - w.min()
    spacing_hz = float(np.median(np.diff(np.sort(w)))) / TWO_PI
    a0 = float(np.median(np.sort(y)[:max(w.size // 3, 2)]))
    b0 = max(float(y.max() - a0), 1e-3 * max(a0, 1.0))
    return least_squares(
        lambda p: (resonance_model(w, *p, w_ref, probe) - y) / s,
        [fit.initial_guess[n] for n in RESONANCE_NAMES],
        bounds=([0.0, 0.0, w.min() - span, 0.5 * spacing_hz],
                [np.inf, np.inf, w.max() + span, 10.0 * span / TWO_PI]),
        method="trf", x_scale=[max(a0, 1.0), max(b0, 1.0), w_ref, 500.0],
        xtol=1e-12, ftol=1e-12, max_nfev=800)


def assert_matches_scipy(omegas, rates, sigmas=None, probe=None):
    """The fit's cost is at most scipy's x (1 + 1e-9), it converges where
    scipy does, and where both reach a minimum above the rounding of the
    rates with a peak, the parameters agree to 1e-3 of their sigmas."""
    w, y = np.asarray(omegas, float), np.asarray(rates, float)
    s = np.ones_like(y) if sigmas is None else np.asarray(sigmas, float)
    fit = fit_resonance(w, y, sigmas, probe)
    ref = _scipy_resonance_fit(w, y, s, probe, fit)
    # the cost of an error of 8 ulp in every rate
    floor = 0.5 * float(np.sum((8.0 * np.finfo(float).eps * y / s) ** 2))
    assert 0.5 * fit.residual_norm ** 2 <= ref.cost * (1.0 + 1e-9) + floor
    assert fit.converged or not ref.success
    if ref.success and ref.cost > floor and fit.parameters["amplitude"] > 0:
        for k, name in enumerate(RESONANCE_NAMES):
            assert abs(fit.parameters[name] - ref.x[k]) \
                <= 1e-3 * fit.sigmas[name], name
    return fit


def _synthetic_line(kind):
    """(omegas, rates, sigmas, probe) of a line the fits above take."""
    w = scan_grid()
    w_ref = float(np.median(w))
    if kind in ("gaussian", "probe-line"):
        probe = PROBE if kind == "probe-line" else None
        return w, resonance_model(w, 250e3, 750e3, TWO_PI * 1.368e6, 527.0,
                                  w_ref, probe), None, probe
    if kind == "noisy-unweighted":
        return (*_synthetic_line("noisy-500")[:2], None, None)
    if kind.startswith("noisy-"):
        y = resonance_model(w, 250e3, 750e3, TWO_PI * 1.368e6,
                            float(kind[6:]), w_ref)
        return w, y + np.random.default_rng(7).normal(0.0, 15e3, w.size), \
            np.full(w.size, 15e3), None
    if kind == "edge":
        # a wide peak centered beyond the top of the scan
        y = resonance_model(w, 250e3, 750e3, w.max() + TWO_PI * 1.5e3,
                            1500.0, w_ref)
        return w, y + np.random.default_rng(3).normal(0.0, 10e3, w.size), \
            np.full(w.size, 10e3), None
    if kind == "ripple":
        # a noiseless baseline with a ripple that no peak on the scan fits
        y = 250e3 * (w_ref / w) ** 2 + 5e3 * np.sin(np.arange(w.size))
        return w, y, np.full(w.size, 10e3), None
    # a baseline alone, with and without noise
    noise = 0.0 if kind == "flat-noiseless" else 10e3
    y = 250e3 * (w_ref / w) ** 2
    return w, y + np.random.default_rng(2).normal(0.0, noise, w.size), \
        np.full(w.size, 10e3), None


@pytest.mark.parametrize("line", ["gaussian", "probe-line", "noisy-200",
                                  "noisy-500", "noisy-1000", "flat",
                                  "flat-noiseless", "edge",
                                  "noisy-unweighted", "ripple"])
def test_resonance_fit_matches_scipy_on_synthetic_lines(line):
    fit = assert_matches_scipy(*_synthetic_line(line))
    if line == "flat-noiseless":
        # the amplitude sits on its bound
        assert fit.parameters["amplitude"] == 0.0
        assert fit.residual_norm == 0.0
    if line == "edge":
        assert fit.parameters["center"] > scan_grid().max()
    if line == "ripple":
        # at amplitude 0 the cost is 1.9418; a narrow peak on one crest
        # of the ripple fits below it
        assert fit.parameters["amplitude"] > 0.0
        assert 0.5 * fit.residual_norm ** 2 < 1.9


def test_resonance_fit_matches_scipy_on_scan_datasets(scan_scenario,
                                                      scan_report):
    # ten scans of perfbench size, 31 points x 64 realizations, and the
    # bundled scan's 1,200
    probe = (scan_scenario.kappa(), scan_scenario.schedule.probe_duration)
    reports = [experiments.run_resonance_scan(dataclasses.replace(
        scan_scenario, seed=seed, ensemble_size=64)) for seed in range(1, 11)]
    for rep in reports + [scan_report]:
        table = rep.tables["scan"]
        fit = assert_matches_scipy(table["omega_rad_s"],
                                   table["rate_quanta_per_s"],
                                   table["sigma_quanta_per_s"], probe)
        assert fit.as_dict() == rep.fits["resonance"].as_dict()


@pytest.mark.parametrize("a,b,zero_line,held", [
    (2.0, 3.0, False, [False, False]), (-1.0, 3.0, False, [True, False]),
    (2.0, -3.0, False, [False, True]), (2.0, 0.0, True, [False, True])],
    ids=["both", "a-clipped", "b-clipped", "zero-line"])
def test_nonneg_pair_matches_scipy_nnls(a, b, zero_line, held):
    # the closed-form inner solve of the resonance fit against scipy's
    # active-set NNLS, on weighted problems that take each of its branches
    rng = np.random.default_rng(5)
    w = scan_grid()
    base = (float(np.median(w)) / w) ** 2
    line = np.exp(-0.5 * ((w - w[20]) / (TWO_PI * 800.0)) ** 2)
    if zero_line:
        line = np.zeros_like(w)
    sigmas = rng.uniform(0.5, 2.0, w.size)
    y = a * base + b * line + rng.normal(0.0, 0.01, w.size)
    got = analysis._nonneg_pair(base, line, y, sigmas)
    want = nnls(np.column_stack((base, line)) / sigmas[:, None], y / sigmas)[0]
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)
    assert list(got == 0.0) == held


@pytest.mark.parametrize("probe", [None, PROBE], ids=["gaussian", "probe-line"])
def test_resonance_jacobian_matches_central_differences(probe):
    w = scan_grid()
    w_ref = float(np.median(w))
    rates, sigmas = np.zeros_like(w), np.full(w.size, 15e3)
    p = np.array([250e3, 750e3, TWO_PI * 1.3682e6, 527.0])
    r, jac = analysis._resonance_terms(p, w, rates, sigmas, w_ref, probe)
    assert np.array_equal(
        r, resonance_model(w, *p, w_ref, probe) / sigmas)
    # steps of 1e-4 of each parameter's scale; central differences err by
    # O(h^2), here below 1e-6 of the column's largest entry
    for k, h in enumerate(1e-4 * np.array([250e3, 750e3, TWO_PI * 527.0,
                                           527.0])):
        up, down = p.copy(), p.copy()
        up[k] += h
        down[k] -= h
        numeric = (analysis._resonance_terms(up, w, rates, sigmas, w_ref,
                                             probe)[0] -
                   analysis._resonance_terms(down, w, rates, sigmas, w_ref,
                                             probe)[0]) / (2.0 * h)
        assert np.max(np.abs(jac[:, k] - numeric)) \
            <= 1e-6 * np.max(np.abs(jac[:, k])), RESONANCE_NAMES[k]


@pytest.mark.parametrize("probe", [None, PROBE], ids=["gaussian", "probe-line"])
def test_resonance_second_derivatives_match_central_differences(probe):
    # the last three columns of _resonance_terms, the second derivatives in
    # (center, center), (center, width) and (width, width), against central
    # differences of the center and width columns
    w = scan_grid()
    w_ref = float(np.median(w))
    rates, sigmas = np.zeros_like(w), np.full(w.size, 15e3)
    p = np.array([250e3, 750e3, TWO_PI * 1.3682e6, 527.0])
    jac = analysis._resonance_terms(p, w, rates, sigmas, w_ref, probe)[1]
    for k, cols in ((2, [4, 5]), (3, [5, 6])):
        h = 1e-4 * (TWO_PI * 527.0 if k == 2 else 527.0)
        up, down = p.copy(), p.copy()
        up[k] += h
        down[k] -= h
        numeric = (analysis._resonance_terms(up, w, rates, sigmas, w_ref,
                                             probe)[1][:, 2:4] -
                   analysis._resonance_terms(down, w, rates, sigmas, w_ref,
                                             probe)[1][:, 2:4]) / (2.0 * h)
        for col, num in zip(cols, numeric.T):
            assert np.max(np.abs(jac[:, col] - num)) \
                <= 1e-6 * np.max(np.abs(jac[:, col])), (k, col)


# ---------------------------------------------------------------------------
# sideband-free thermometry

def test_laguerre_sequence_matches_scipy():
    for x in (0.0025, 0.01, 0.25):
        seq = laguerre_sequence(3000, x)
        ref = eval_laguerre(np.arange(3001), x)
        worst = np.max(np.abs(seq - ref) / np.maximum(np.abs(ref), 1e-12))
        assert worst < 1e-6


def test_thermal_weights_geometric():
    n_bar = 5.0
    w = thermal_weights(n_bar, 200)
    n = np.arange(201)
    ref = (n_bar ** n) / (n_bar + 1.0) ** (n + 1)
    assert np.allclose(w, ref, rtol=1e-12)
    assert w.sum() <= 1.0 + 1e-12


def test_rabi_excitation_against_brute_force():
    n_bar, rabi, eta = 182.0, TWO_PI * 50e3, 0.05
    times = np.linspace(1e-7, 60e-6, 40)
    p = rabi_excitation(times, n_bar, rabi, eta)
    n = np.arange(5001)
    # log space: 182^n overflows float64 near n = 140
    weights = np.exp(n * math.log(n_bar) - (n + 1) * math.log(n_bar + 1.0))
    rabi_n = rabi * math.exp(-eta * eta / 2.0) * eval_laguerre(n, eta * eta)
    brute = np.array([np.sum(weights * np.sin(0.5 * rabi_n * t) ** 2)
                      for t in times])
    assert np.max(np.abs(p - brute)) < 5e-9


def test_rabi_excitation_bounds():
    times = np.linspace(0.0, 100e-6, 50)
    p = rabi_excitation(times, 50.0, TWO_PI * 50e3, 0.05)
    assert p[0] == pytest.approx(0.0, abs=1e-15)
    assert np.all(p >= 0.0) and np.all(p <= 1.0)


@pytest.mark.parametrize("n_bar", [50.0, 182.0, 1000.0])
def test_thermometry_round_trip(n_bar):
    rabi, eta = TWO_PI * 50e3, 0.05
    t_pi = math.pi / rabi
    times = np.linspace(0.05 * t_pi, 6.0 * t_pi, 60)
    data, manifest = synthesize_rabi(n_bar, rabi, eta, times, shots=200,
                                     seed=12)
    assert manifest["seed"] == 12
    fit = fit_rabi_nbar(data)
    assert abs(fit.parameters["n_bar"] - n_bar) / n_bar < 0.10


def test_thermometry_ground_state():
    rabi, eta = TWO_PI * 50e3, 0.05
    t_pi = math.pi / rabi
    times = np.linspace(0.05 * t_pi, 6.0 * t_pi, 60)
    data, _ = synthesize_rabi(0.0, rabi, eta, times, shots=400, seed=12)
    fit = fit_rabi_nbar(data)
    assert fit.parameters["n_bar"] < 1.0
    # n_bar is held at zero, where the likelihood still falls into the range
    assert fit.converged and fit.parameters["n_bar"] == 0.0
    assert fit.n_iterations < 10
    _, grad, _, _ = analysis._nll_derivatives(
        data, 0.0, math.log(fit.parameters["carrier_rabi"]))
    assert grad[0] > 0.0


def test_thermometry_fit_at_underflowing_rabi_step():
    # P depends on Omega_0 t only: at Omega_0 = 2 pi 1e-300 kHz the fit must
    # give what the same counts give at 2 pi 1 kHz, in relative terms
    fits = []
    for rabi in (2 * math.pi * 1e-300 * 1e3, 2 * math.pi * 1e3):
        t_pi = math.pi / rabi
        times = np.linspace(0.05 * t_pi, 6.0 * t_pi, 5)
        data, _ = synthesize_rabi(5.0, rabi, 0.05, times, shots=10, seed=0)
        fits.append((data, fit_rabi_nbar(data)))
    (tiny_data, tiny), (data, fit) = fits
    assert np.array_equal(tiny_data.excitation_probability,
                          data.excitation_probability)
    assert tiny.converged and fit.converged
    for got, want in (
            (tiny.parameters["n_bar"], fit.parameters["n_bar"]),
            (tiny.sigmas["n_bar"], fit.sigmas["n_bar"]),
            (tiny.sigmas["carrier_rabi"] / tiny.parameters["carrier_rabi"],
             fit.sigmas["carrier_rabi"] / fit.parameters["carrier_rabi"])):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
    assert fit.sigmas["n_bar"] > 0.0


def test_thermometry_fit_is_frozen():
    rabi, eta = TWO_PI * 50e3, 0.05
    t_pi = math.pi / rabi
    times = np.linspace(0.05 * t_pi, 6.0 * t_pi, 60)
    data, _ = synthesize_rabi(50.0, rabi, eta, times, shots=200, seed=12)
    fit = fit_rabi_nbar(data)
    assert fit.method == "mle-binomial-newton"
    assert fit.n_iterations == 5 and fit.converged
    assert fit.initial_guess == {"n_bar": 80.0, "carrier_rabi": rabi}
    # the Newton fit, frozen; and the grid-seeded Nelder-Mead search with
    # a numeric Hessian that it replaced, which found the same optimum
    newton = ({"n_bar": 51.0247179918461, "carrier_rabi": 315372.24210108485},
              {"n_bar": 1.5945729836972413, "carrier_rabi": 803.0218703309706})
    nelder_mead = ({"n_bar": 51.02472921142999,
                    "carrier_rabi": 315372.2380570258},
                   {"n_bar": 1.5945730051021676,
                    "carrier_rabi": 803.0220904189105})
    for frozen, rel in ((newton, (1e-12, 1e-12)), (nelder_mead, (1e-5, 1e-4))):
        for got, want, tol in zip((fit.parameters, fit.sigmas), frozen, rel):
            assert got.keys() == want.keys()
            for k in want:
                assert got[k] == pytest.approx(want[k], rel=tol)


def test_fit_keeps_n_bar_below_the_truncation_bound():
    # the likelihood rises past the largest n_bar the truncation cap allows:
    # the fit stops there, says it did not converge, and every number is finite
    rabi = TWO_PI * 50e3
    t_pi = math.pi / rabi
    times = np.linspace(0.05 * t_pi, 6.0 * t_pi, 20)
    data, _ = synthesize_rabi(12000.0, rabi, 0.05, times, 200, 2)
    fit = fit_rabi_nbar(data)
    assert fit.method == "mle-binomial-newton" and not fit.converged
    assert 12000.0 < fit.parameters["n_bar"] < analysis.N_BAR_MAX
    assert math.isfinite(fit.parameters["carrier_rabi"])
    assert all(math.isfinite(v) for v in fit.sigmas.values())


@pytest.mark.parametrize("n_bar,shots", [(0.0, 400), (50.0, 200),
                                          (1000.0, 2000), (4000.0, 200)])
def test_seed_grid_matches_the_nll_of_each_pair(n_bar, shots):
    # the batched grid sums what _rabi_nll sums; a pair it stops summing
    # must lie above the grid's least NLL, so the seed is the same
    rabi = TWO_PI * 50e3
    t_pi = math.pi / rabi
    times = np.linspace(0.05 * t_pi, 6.0 * t_pi, 20)
    data, _ = synthesize_rabi(n_bar, rabi, 0.05, times, shots, 3)
    nbar_grid = [0.1, 1.0, 5.0, 20.0, 80.0, 300.0, 1000.0, 4000.0]
    omega_grid = [0.9 * rabi, rabi, 1.1 * rabi]
    grid = analysis._seed_grid_nll(data, nbar_grid, omega_grid)
    each = np.array([[analysis._rabi_nll(data, nb, om) for om in omega_grid]
                     for nb in nbar_grid])
    summed = np.isfinite(grid)
    assert np.allclose(grid[summed], each[summed], rtol=1e-12, atol=0.0)
    assert np.all(each[~summed] > each.min())
    assert np.argmin(grid) == np.argmin(each)
    if n_bar < 4000.0:      # the n_bar = 4000 column is cut short
        assert not summed[-1].any()


def test_failed_newton_iteration_returns_its_last_iterate(monkeypatch):
    # with no usable step the iteration fails at its seed; the fit reports
    # that iterate as not converged, with the sigmas of its Hessian
    monkeypatch.setattr(analysis, "_newton_step", lambda *args: (None, False))
    rabi = TWO_PI * 50e3
    t_pi = math.pi / rabi
    for n_bar, points, seed in ((50.0, 60, 12), (12000.0, 20, 2)):
        times = np.linspace(0.05 * t_pi, 6.0 * t_pi, points)
        data, _ = synthesize_rabi(n_bar, rabi, 0.05, times, 200, seed)
        fit = fit_rabi_nbar(data)
        nb, om = fit.initial_guess["n_bar"], fit.initial_guess["carrier_rabi"]
        assert analysis._newton_mle(data, nb, om)[-1] == "failed"
        assert fit.method == "mle-binomial-newton" and not fit.converged
        assert fit.n_iterations == 0
        nll, _, hess, _ = analysis._nll_derivatives(data, nb, math.log(om))
        om = math.exp(math.log(om))
        assert fit.parameters == {"n_bar": nb, "carrier_rabi": om}
        assert fit.residual_norm == nll
        assert (fit.sigmas["n_bar"], fit.sigmas["carrier_rabi"]) == \
            analysis._hessian_sigmas(hess, om)


@pytest.mark.parametrize("hess", [np.full((2, 2), math.nan),
                                  np.array([[math.inf, 0.0], [0.0, 1.0]]),
                                  np.array([[1.0, 2.0], [2.0, 1.0]])])
def test_hessian_sigmas_are_zero_unless_finite_and_positive_definite(hess):
    assert analysis._hessian_sigmas(hess, TWO_PI * 50e3) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# the closed-form derivatives of the thermometry NLL

def _derivative_dataset():
    rabi, eta = TWO_PI * 50e3, 0.05
    t_pi = math.pi / rabi
    times = np.linspace(0.05 * t_pi, 6.0 * t_pi, 60)
    return synthesize_rabi(50.0, rabi, eta, times, shots=200, seed=12)[0]


@pytest.mark.parametrize("n_bar", [0.0, 0.3, 50.0, 182.0, 1000.0, 14000.0])
def test_derivative_kernel_p_equals_rabi_excitation(n_bar):
    rabi, eta = TWO_PI * 50e3, 0.05
    times = np.linspace(1e-7, 60e-6, 60)
    p, _, _ = analysis._excitation_derivatives(times, n_bar, rabi, eta)
    assert np.max(np.abs(p - rabi_excitation(times, n_bar, rabi, eta))) \
        <= 1e-15


@pytest.mark.parametrize("n_bar", [0.3, 50.0, 1000.0])
def test_nll_gradient_and_hessian_match_central_differences(n_bar):
    # n_bar 1000 sums 20,101 Fock terms, across kernel blocks
    data = _derivative_dataset()
    u = math.log(TWO_PI * 50e3 * 1.003)
    nll, grad, hess, _ = analysis._nll_derivatives(data, n_bar, u)
    assert nll == pytest.approx(analysis._rabi_nll(data, n_bar, math.exp(u)),
                                rel=1e-13)

    def f(nb, uu):
        return analysis._rabi_nll(data, nb, math.exp(uu))

    h_n, h_u = 1e-4 * n_bar, 1e-6
    numeric = [(f(n_bar + h_n, u) - f(n_bar - h_n, u)) / (2 * h_n),
               (f(n_bar, u + h_u) - f(n_bar, u - h_u)) / (2 * h_u)]
    assert grad == pytest.approx(numeric, rel=1e-5)
    # each Hessian column against differences of the analytic gradient
    for j, h in enumerate((h_n, h_u)):
        step = np.eye(2)[j] * h
        up = analysis._nll_derivatives(data, *(np.array([n_bar, u]) + step))
        down = analysis._nll_derivatives(data, *(np.array([n_bar, u]) - step))
        column = (up[1] - down[1]) / (2 * h)
        assert hess[:, j] == pytest.approx(column, rel=1e-5,
                                           abs=1e-6 * abs(hess[j, j]))


def test_nll_n_bar_derivatives_at_zero_match_one_sided_differences():
    data = _derivative_dataset()
    u = math.log(TWO_PI * 50e3)
    nll, grad, hess, _ = analysis._nll_derivatives(data, 0.0, u)
    assert np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))

    def f(nb):
        return analysis._rabi_nll(data, nb, math.exp(u))

    h = 1e-4
    # second-order forward differences
    first = (-3 * f(0.0) + 4 * f(h) - f(2 * h)) / (2 * h)
    second = (2 * f(0.0) - 5 * f(h) + 4 * f(2 * h) - f(3 * h)) / h ** 2
    assert grad[0] == pytest.approx(first, rel=1e-6)
    assert hess[0, 0] == pytest.approx(second, rel=1e-4)
    grad_up = analysis._nll_derivatives(data, h, u)[1]
    assert hess[1, 0] == pytest.approx((grad_up[1] - grad[1]) / h, rel=1e-3)


def test_thermal_columns_match_the_thermal_weights():
    for n_bar in (0.0, 0.3, 5.0):
        w = analysis._thermal_columns(n_bar, 0, 400)
        assert np.array_equal(w[:, 0], thermal_weights(n_bar, 399))
        # p_n sums to one, so its derivatives sum to zero over the whole sum
        assert abs(w[:, 1].sum()) < 1e-12 and abs(w[:, 2].sum()) < 1e-12
    # the closed forms at n_bar = 0: p_0 = 1/(1+n), p_1 = n/(1+n)^2, ...
    w = analysis._thermal_columns(0.0, 0, 4)
    assert w[:, 1].tolist() == [-1.0, 1.0, 0.0, 0.0]
    assert w[:, 2].tolist() == [2.0, -4.0, 2.0, 0.0]
    block = analysis._thermal_columns(50.0, 1000, 1400)
    assert np.array_equal(block, analysis._thermal_columns(50.0, 0, 1400)[1000:])


def _plain_excitation(times, n_bar, carrier_rabi, lamb_dicke):
    """The Fock sum written out: a fresh Laguerre sequence, no cache."""
    t = np.asarray(times, float)
    n_top = analysis._truncation(n_bar)
    x = lamb_dicke ** 2
    omega_n = carrier_rabi * math.exp(-0.5 * x) * laguerre_sequence(n_top, x)
    p_n = thermal_weights(n_bar, n_top)
    out = np.zeros_like(t)
    for lo in range(0, n_top + 1, 20_000):
        hi = min(lo + 20_000, n_top + 1)
        out += np.sin(0.5 * np.outer(t, omega_n[lo:hi])) ** 2 @ p_n[lo:hi]
    return out


def test_rabi_excitation_is_independent_of_call_order(monkeypatch):
    times = np.linspace(1e-7, 60e-6, 60)
    rabi = TWO_PI * 50e3
    # n_bar 1000 spans two Fock blocks
    cases = [(50.0, 0.05), (1000.0, 0.05), (182.0, 0.07), (0.0, 0.05)]

    def cold(n_bar, eta):
        monkeypatch.setattr(analysis, "_laguerre_kept", (None, np.empty(0)))
        return rabi_excitation(times, n_bar, rabi, eta)

    expected = {c: cold(*c) for c in cases}
    for c in cases:
        assert np.array_equal(expected[c],
                              _plain_excitation(times, c[0], rabi, c[1]))
    orders = [
        [(1000.0, 0.05), (50.0, 0.05)],                      # after a longer one
        [(50.0, 0.05), (182.0, 0.07), (50.0, 0.05)],         # other eta and back
        [(50.0, 0.05), (1000.0, 0.05), (182.0, 0.07), (0.0, 0.05),
         (1000.0, 0.05), (182.0, 0.07), (50.0, 0.05)],       # interleaved
    ]
    for order in orders:
        for c in order:
            assert np.array_equal(rabi_excitation(times, c[0], rabi, c[1]),
                                  expected[c])


def _pole_and_zero_times(rabi):
    """Pulse times whose phases rabi t/2 are 0 and the floats nearest to
    k pi and (k + 1/2) pi, with both float neighbours of each, k up to
    318,309 (phases to 1e6); rabi/2 is a power of two, so each phase is
    exactly the float chosen."""
    half = 0.5 * rabi
    assert math.frexp(half)[0] == 0.5
    phases = [0.0]
    for k in (1, 2, 3, 7, 100, 12345, 318309):
        for target in (k * math.pi, (k + 0.5) * math.pi):
            phases += [math.nextafter(target, -math.inf), target,
                       math.nextafter(target, math.inf)]
    return np.array(sorted(phases)) / half


@pytest.mark.parametrize("n_bar", [0.0, 1000.0])
def test_tangent_kernels_at_the_poles_and_zeros_of_tan(n_bar):
    # at eta = 0 every Omega_n is Omega_0, so the phase of every Fock term
    # is rabi t/2: tan is largest or smallest on each one
    rabi = 2.0 ** 18
    times = _pole_and_zero_times(rabi)
    data, _ = synthesize_rabi(n_bar, rabi, 0.0, times, 2000, 5)
    omega_grid = [0.9 * rabi, rabi, 1.1 * rabi]
    nbar_grid = [0.1, 1.0, 5.0, 20.0, 80.0, 300.0, 1000.0, 4000.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, dp, d2p = analysis._excitation_derivatives(times, n_bar, rabi, 0.0)
        grid = analysis._seed_grid_nll(data, nbar_grid, omega_grid)
        assert np.max(np.abs(p - rabi_excitation(times, n_bar, rabi, 0.0))) \
            <= 1e-15
        each = [[analysis._binomial_terms(
            data, rabi_excitation(times, nb, om, 0.0))[:2] for om in omega_grid]
            for nb in nbar_grid]
    assert np.all(np.isfinite(dp)) and np.all(np.isfinite(d2p))
    nll = np.array([[e[0] for e in row] for row in each])
    # a P next to its clip at 1 - 1e-9 (the n_bar 4000 truncation leaves
    # 2e-9 of the mass out) makes the NLL ill-conditioned in P: allow what
    # a change of 1e-15 in each P moves it by, beyond 1e-12 of the NLL
    slack = np.array([[1e-15 * np.abs(e[1]).sum() for e in row]
                      for row in each])
    summed = np.isfinite(grid)
    assert summed[:, 1].any()
    assert np.all(np.abs(grid - nll)[summed]
                  <= (1e-12 * nll + slack)[summed])


def test_derivative_kernel_where_every_rabi_rate_underflows():
    # Omega_n/2 is 0 for every n at a carrier of 5e-324 rad/s, which a
    # dataset may hold: P and its derivatives are 0, without a warning
    times = np.linspace(1e-7, 60e-6, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, dp, d2p = analysis._excitation_derivatives(times, 50.0, 5e-324,
                                                      0.05)
    assert not (p.any() or dp.any() or d2p.any())


def _sine_derivatives(times, n_bar, carrier_rabi, lamb_dicke):
    """The derivative kernel written with sin and cos of the phases in
    20,000-term blocks, from a fresh Laguerre sequence."""
    t = np.asarray(times, float)
    n_top = analysis._truncation(n_bar)
    x = lamb_dicke ** 2
    omega_n = carrier_rabi * math.exp(-0.5 * x) * laguerre_sequence(n_top, x)
    acc = np.zeros((6, t.size))
    for lo in range(0, n_top + 1, 20_000):
        hi = min(lo + 20_000, n_top + 1)
        phi = 0.5 * np.outer(t, omega_n[lo:hi])
        w = analysis._thermal_columns(n_bar, lo, hi)
        s, c = np.sin(phi), np.cos(phi)
        phi_sin = 2.0 * phi * s * c                 # phi sin 2phi
        acc[:3] += (s * s @ w).T
        acc[3:5] += (phi_sin @ w[:, :2]).T
        acc[5] += (phi_sin + 2.0 * phi * phi * (c * c - s * s)) @ w[:, 0]
    return acc[0], acc[[1, 3]], acc[[2, 4, 5]]


def test_fit_matches_a_fit_on_the_sine_derivative_kernel(monkeypatch):
    # each n_bar, point count and shot count once; n_bar 12000 sums 240,101
    # Fock terms, where the tangent kernel's rounding moved the fit most
    rabi = TWO_PI * 50e3
    t_pi = math.pi / rabi
    cases = [(0.0, 60, 2000, 12), (50.0, 60, 200, 12), (1000.0, 20, 2000, 3),
             (12000.0, 20, 200, 0)]
    for n_bar, points, shots, seed in cases:
        times = np.linspace(0.05 * t_pi, 6.0 * t_pi, points)
        data, _ = synthesize_rabi(n_bar, rabi, 0.05, times, shots, seed)
        fit = fit_rabi_nbar(data)
        with monkeypatch.context() as m:
            m.setattr(analysis, "_excitation_derivatives", _sine_derivatives)
            sine = fit_rabi_nbar(data)
        assert fit.initial_guess == sine.initial_guess
        assert (fit.n_iterations, fit.converged) == \
            (sine.n_iterations, sine.converged)
        for got, want in ((fit.parameters, sine.parameters),
                          (fit.sigmas, sine.sigmas)):
            for k in want:
                assert got[k] == pytest.approx(want[k], rel=1e-9, abs=1e-12)
        assert fit.residual_norm == pytest.approx(sine.residual_norm,
                                                  rel=1e-13)


def test_fit_rejects_a_zero_lamb_dicke_parameter():
    # at eta = 0 every Omega_n is Omega_0, so P(t) holds no n_bar to fit
    rabi = TWO_PI * 50e3
    times = np.linspace(1e-6, 60e-6, 20)
    data, _ = synthesize_rabi(182.0, rabi, 0.0, times, 200, 0)
    with pytest.raises(ValueError, match="lamb_dicke must be > 0"):
        fit_rabi_nbar(data)


@pytest.mark.parametrize("eta", [1e-9, 1e-200])
def test_fit_rejects_a_lamb_dicke_parameter_that_leaves_p_flat(eta):
    # Omega_1 rounds to Omega_0, so dP/dn_bar is exactly 0 at every pulse
    # time: the fit used to report n_bar 0 +- 0 as converged
    rabi = TWO_PI * 50e3
    times = np.linspace(1e-6, 60e-6, 20)
    data, _ = synthesize_rabi(182.0, rabi, eta, times, 200, 0)
    with pytest.raises(ValueError, match="dP/dn_bar is 0 at every pulse time"):
        fit_rabi_nbar(data)


def _plain_laguerre(n_max, x):
    """The recurrence written into a numpy array, element by element."""
    out = np.empty(n_max + 1)
    out[0] = 1.0
    out[1] = 1.0 - x
    for n in range(1, n_max):
        out[n + 1] = ((2 * n + 1 - x) * out[n] - n * out[n - 1]) / (n + 1)
    return out


@pytest.mark.parametrize("x", [0.0, 0.0025, 0.0049, 0.3, 1.7])
def test_laguerre_sequence_equals_the_array_recurrence(x):
    assert np.array_equal(laguerre_sequence(20_100, x),
                          _plain_laguerre(20_100, x))


def test_laguerre_sequence_is_fresh_and_the_kept_one_read_only():
    a = laguerre_sequence(500, 0.0025)
    b = laguerre_sequence(500, 0.0025)
    assert a.flags.writeable and a is not b
    a[:] = 0.0
    assert np.array_equal(b, laguerre_sequence(500, 0.0025))
    # the recurrence makes each sequence a bitwise prefix of a longer one
    assert np.array_equal(laguerre_sequence(2000, 0.0025)[:501], b)
    assert laguerre_sequence(0, 0.3).tolist() == [1.0]

    rabi_excitation(np.linspace(1e-7, 60e-6, 5), 50.0, TWO_PI * 50e3, 0.05)
    kept = analysis._laguerre_kept[1]
    assert not kept.flags.writeable
    with pytest.raises(ValueError):
        kept[0] = 2.0
    assert not analysis._laguerre_prefix(10, 0.05 ** 2).flags.writeable


@pytest.mark.parametrize("call", [
    lambda: thermal_weights(math.nan, 10),
    lambda: rabi_excitation(np.array([1e-6]), math.nan, TWO_PI * 50e3, 0.05),
    lambda: synthesize_rabi(math.nan, TWO_PI * 50e3, 0.05,
                            np.array([1e-6, 2e-6]), 100, 0),
], ids=["thermal_weights", "rabi_excitation", "synthesize_rabi"])
def test_nan_n_bar_is_rejected(call):
    with pytest.raises(ValueError, match="n_bar"):
        call()


def test_rabi_dataset_validation():
    with pytest.raises(ValueError):
        RabiDataset(np.array([1e-6, 2e-6]), np.array([0.1]), 100,
                    TWO_PI * 50e3, 0.05)
    with pytest.raises(ValueError):
        RabiDataset(np.array([2e-6, 1e-6]), np.array([0.1, 0.2]), 100,
                    TWO_PI * 50e3, 0.05)
    with pytest.raises(ValueError):
        RabiDataset(np.array([1e-6, 2e-6]), np.array([0.1, 1.2]), 100,
                    TWO_PI * 50e3, 0.05)
    with pytest.raises(ValueError):
        synthesize_rabi(-1.0, TWO_PI * 50e3, 0.05,
                        np.array([1e-6, 2e-6]), 100, 0)


W_SCAN = TWO_PI * (1.368e6 + 500.0 * np.arange(-4, 4))


@pytest.mark.parametrize("call,name", [
    (lambda: fit_linear_heating([0, 1, 2, 3], [1, 2, 3, 4], [1, math.nan, 1, 1]),
     "sigmas"),
    (lambda: fit_linear_heating([0, 1, 2, 3], [1, 2, 3, 4], [1, math.inf, 1, 1]),
     "sigmas"),
    (lambda: fit_linear_heating([0, math.nan, 2, 3], [1, 2, 3, 4]), "times"),
    (lambda: fit_linear_heating([0, 1, 2, 3], [1, 2, math.inf, 4]),
     "occupations"),
    (lambda: fit_linear_heating([0, 1, 2], [1, 2, 3, 4]), "occupations"),
    (lambda: fit_linear_heating([0, 1, 2], [1, 2, 3], [1, 1]), "sigmas"),
    (lambda: fit_resonance(W_SCAN, np.ones(8), [1.0] * 7 + [math.nan]),
     "sigmas"),
    (lambda: fit_resonance(np.r_[W_SCAN[:7], math.nan], np.ones(8)), "omegas"),
    (lambda: fit_resonance(W_SCAN, np.r_[np.ones(7), -math.inf]), "rates"),
    (lambda: fit_resonance(W_SCAN, np.ones(7)), "rates"),
    (lambda: fit_resonance(W_SCAN, np.ones(8), np.ones(9)), "sigmas"),
    (lambda: fit_resonance(W_SCAN, np.ones(8), probe=(math.nan, 2e-3)), "probe"),
    (lambda: RabiDataset(np.array([1e-6, math.nan]), np.array([0.1, 0.2]), 100,
                         TWO_PI * 50e3, 0.05), "pulse_times"),
    (lambda: RabiDataset(np.array([1e-6, 2e-6]), np.array([0.1, math.nan]), 100,
                         TWO_PI * 50e3, 0.05), "excitation_probability"),
    (lambda: RabiDataset(np.array([1e-6, 2e-6]), np.array([0.1, 0.2]), math.nan,
                         TWO_PI * 50e3, 0.05), "shots_per_point"),
    (lambda: RabiDataset(np.array([1e-6, 2e-6]), np.array([0.1, 0.2]), 2.5,
                         TWO_PI * 50e3, 0.05), "shots_per_point"),
    (lambda: synthesize_rabi(50.0, TWO_PI * 50e3, 0.05, np.array([1e-6, 2e-6]),
                             2.5, 0), "shots"),
    (lambda: RabiDataset(np.array([1e-6, 2e-6]), np.array([0.1, 0.2]), 100,
                         math.inf, 0.05), "carrier_rabi"),
    (lambda: FitResult({"rate": 1.0}, {"rate": math.nan}, 0.0, 1, True, "m",
                       "wls"), "sigma for rate"),
    (lambda: fit_rabi_nbar(RabiDataset(np.array([-1e-6, 0.0]),
                                       np.array([0.1, 0.2]), 100, 0.0, 0.05)),
     "pulse_times"),
    (lambda: fit_resonance(np.full(8, W_SCAN[0]), np.ones(8)), "omegas"),
    (lambda: analysis.probe_line([0.0, 100.0], 0.0, 300.0, 2e-3),
     "width_sigma_hz"),
    (lambda: resonance_model(W_SCAN, 1.0, 1.0, W_SCAN[4], math.nan, W_SCAN[4]),
     "width_sigma_hz"),
], ids=["heating-nan-sigma", "heating-inf-sigma", "heating-nan-time",
        "heating-inf-occupation", "heating-short-occupations",
        "heating-short-sigmas", "resonance-nan-sigma", "resonance-nan-omega",
        "resonance-inf-rate", "resonance-short-rates", "resonance-long-sigmas",
        "resonance-nan-probe-kappa",
        "rabi-nan-time", "rabi-nan-probability",
        "rabi-nan-shots", "rabi-fractional-shots",
        "synthesize-fractional-shots", "rabi-inf-carrier", "fit-result-nan-sigma",
        "rabi-seed-without-positive-time", "resonance-equal-omegas",
        "probe-line-zero-width", "resonance-model-nan-width"])
def test_fitter_inputs_reject_bad_numbers_naming_the_argument(call, name):
    with pytest.raises(ValueError, match=name):
        call()


def test_rabi_seed_skips_a_zero_pulse_time():
    # without a carrier_rabi the fit seeds Omega_0 from P(t) at t > 0; a
    # pulse time of 0 once gave an infinite seed and a scipy error
    data = RabiDataset([0.0, 1e-6, 2e-6], [0.0, 0.1, 0.1], 100, 0.0, 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_rabi_nbar(data)
    numbers = [*fit.parameters.values(), *fit.sigmas.values(), fit.residual_norm]
    assert np.all(np.isfinite(numbers))


# ---------------------------------------------------------------------------
# exchange-rate extraction

def test_extract_kappa_endpoint_identity():
    # (206000 - 102000) / (1000 - 182) quanta-normalized
    kex = extract_kappa(206e3, 102e3, 1000.0, 182.0)
    assert kex == pytest.approx(104000.0 / 818.0, rel=1e-12)
    assert kex == pytest.approx(127.139, abs=1e-3)


def test_extract_kappa_antisymmetry():
    a = extract_kappa(206e3, 102e3, 1000.0, 182.0)
    b = extract_kappa(102e3, 206e3, 1000.0, 182.0)
    assert a == pytest.approx(-b, rel=1e-12)


def test_extract_kappa_singular_at_equal_occupations():
    with pytest.raises(ValueError):
        extract_kappa(206e3, 102e3, 182.0, 182.0)


def test_fit_result_serialization():
    fit = fit_linear_heating(np.linspace(0, 1, 5), np.linspace(0, 2, 5))
    d = fit.as_dict()
    assert d["model_id"] and d["method"]
    assert set(d["parameters"]) == {"rate", "intercept"}
    assert set(d["sigmas"]) == {"rate", "intercept"}
    assert isinstance(fit, FitResult)
