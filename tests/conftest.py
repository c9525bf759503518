"""Shared fixtures.

The expensive ensemble runs are session-scoped so the benchmark modules
and the acceptance gate share one computation. Everything is seeded;
reruns are bit-identical.
"""
import csv
import json

import numpy as np
import pytest
from importlib import resources

from ionwire import dynamics, experiments
from ionwire.core import TWO_PI, calcium_40, mhz_to_rad_s
from ionwire.scenario import parse_scenario


def load_bundled(name):
    root = resources.files("ionwire").joinpath("data")
    return parse_scenario(str(root.joinpath(name + ".scenario")))


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def parse_problem(name, text):
    """None when the CSV or JSON file ``name`` parses, else what is wrong:
    a CSV row not as wide as its header, or JSON that does not load or holds
    a NaN or Infinity literal."""
    if name.endswith(".csv"):
        # the first line is the schema comment
        rows = list(csv.reader(text.splitlines(keepends=True)[1:]))
        for i, row in enumerate(rows):
            if len(row) != len(rows[0]):
                return f"row {i + 1} has {len(row)} fields under " \
                       f"{len(rows[0])} columns"
    elif name.endswith(".json"):
        try:
            json.loads(text, parse_constant=_refuse_constant)
        except ValueError as exc:
            return str(exc)
    return None


@pytest.fixture(scope="session")
def scan_scenario():
    return load_bundled("scan_benchmark")


@pytest.fixture(scope="session")
def sympathetic_scenario():
    return load_bundled("sympathetic_benchmark")


@pytest.fixture(scope="session")
def swap_scenario():
    return load_bundled("swap_benchmark")


@pytest.fixture(scope="session")
def prediction_report():
    return experiments.run_prediction_table()


@pytest.fixture(scope="session")
def scan_report(scan_scenario):
    return experiments.run_resonance_scan(scan_scenario)


@pytest.fixture(scope="session")
def sympathetic_report(sympathetic_scenario):
    return experiments.run_sympathetic(sympathetic_scenario)


@pytest.fixture(scope="session")
def swap_report(swap_scenario):
    return experiments.run_swap_demo(swap_scenario)


@pytest.fixture(scope="session")
def long_noiseless_run():
    """10^6-step noiseless Verlet run used for drift and spectrum checks.

    20 kHz carrier with kappa = 2 pi x 500 Hz keeps the normal-mode
    splitting (2 kappa = 1 kHz) far above the 10 Hz record resolution,
    and 40001 records over 0.1 s keep the carrier far below Nyquist.
    """
    omega = TWO_PI * 20e3
    kappa = TWO_PI * 500.0
    params = dynamics.PairParams.resonant(calcium_40().mass, omega, kappa)
    traj = dynamics.integrate_full(
        params, (200.0, 50.0), duration=0.1, dt=1e-7, seed=4,
        n_realizations=1, init_phase=("fixed", "fixed"),
        record_points=40001, record_positions=True)
    return {"params": params, "omega": omega, "kappa": kappa, "traj": traj}


@pytest.fixture(scope="session")
def symmetric_heating_run():
    """Equal drive on both sites; occupations should grow symmetrically."""
    omega = TWO_PI * 100e3
    params = dynamics.PairParams.resonant(calcium_40().mass, omega, TWO_PI * 200.0)
    noise = dynamics.NoiseModel(2000.0, omega, 0.0, 0.0)
    traj = dynamics.integrate_full(
        params, (0.0, 0.0), noise=(noise, noise), duration=12.5e-3,
        seed=9, n_realizations=2000, init_phase=("fixed", "fixed"),
        record_points=26)
    return traj


@pytest.fixture(scope="session")
def integrator_pair():
    """Same lossy heating scenario through both integrators."""
    omega = TWO_PI * 100e3
    kappa = TWO_PI * 11.1
    noise = (dynamics.NoiseModel(206e3, omega, 1.0, 0.0), dynamics.NO_NOISE)
    cooling = (dynamics.NO_COOLING, dynamics.CoolingClamp(1e3, 182.0))
    common = dict(noise=noise, cooling=cooling, duration=10e-3, seed=21,
                  n_realizations=3000, init_phase=("coherent", "coherent"),
                  record_points=26)
    params = dynamics.PairParams.resonant(calcium_40().mass, omega, kappa)
    full = dynamics.integrate_full(params, (1000.0, 182.0), **common)
    env = dynamics.integrate_envelope(kappa, omega, (0.0, 0.0),
                                      initial_occupations=(1000.0, 182.0),
                                      **common)
    return {"full": full, "envelope": env}
