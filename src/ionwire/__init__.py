"""Wire-mediated motional coupling between remotely trapped ions.

Simulation and analysis toolkit: image-charge coupling geometry, the
equivalent-circuit exchange rate, stochastic two-oscillator dynamics
with heating and Doppler clamps, spectroscopy and thermometry fitters,
and end-to-end experiment reproductions with expectation bands.
"""

__version__ = "0.1.0"

from .analysis import (FitResult, RabiDataset, extract_kappa,
                       fit_linear_heating, fit_rabi_nbar, fit_resonance,
                       rabi_excitation, synthesize_rabi)
from .circuit import (CircuitEquivalent, CouplingPrediction, circuit_equivalent,
                      coulomb_coupling_rate, crossover_radius,
                      enhancement_report, wire_coupling_rate)
from .core import (CONST, IonSpecies, TrapSite, WireSpec, calcium_40, electron,
                   energy_to_quanta, quanta_to_energy, quanta_to_temperature,
                   temperature_to_quanta)
from .dynamics import (CoolingClamp, EnsembleTrajectory, NoiseModel,
                       PairParams, integrate_envelope, integrate_full,
                       noise_psd, rate_equation_fixed_point,
                       rate_equation_model)
from .experiments import (ExperimentReport, HeadlineNumber, load_expectations,
                          run_prediction_table, run_resonance_scan,
                          run_swap_demo, run_sympathetic)
from .geometry import (RectPatch, effective_distance, effective_distance_table,
                       patch_field, patch_potential, sample_field)
from .scenario import (Scenario, ScenarioError, ScheduleResonanceScan,
                       ScheduleSwap, ScheduleSympathetic, parse_scenario,
                       scenario_digest, serialize_scenario)

__all__ = [
    "__version__",
    "CONST", "IonSpecies", "TrapSite", "WireSpec", "calcium_40", "electron",
    "quanta_to_energy", "energy_to_quanta", "quanta_to_temperature",
    "temperature_to_quanta",
    "RectPatch", "patch_potential", "patch_field", "sample_field",
    "effective_distance", "effective_distance_table",
    "CircuitEquivalent", "CouplingPrediction", "circuit_equivalent",
    "wire_coupling_rate", "coulomb_coupling_rate", "crossover_radius",
    "enhancement_report",
    "NoiseModel", "CoolingClamp", "PairParams",
    "EnsembleTrajectory", "integrate_full", "integrate_envelope",
    "rate_equation_model", "rate_equation_fixed_point", "noise_psd",
    "FitResult", "RabiDataset", "fit_linear_heating", "fit_resonance",
    "extract_kappa", "rabi_excitation", "synthesize_rabi", "fit_rabi_nbar",
    "Scenario", "ScheduleResonanceScan", "ScheduleSympathetic", "ScheduleSwap",
    "ExperimentReport", "HeadlineNumber", "load_expectations",
    "run_resonance_scan", "run_sympathetic", "run_swap_demo",
    "run_prediction_table",
    "ScenarioError", "parse_scenario", "serialize_scenario", "scenario_digest",
]
