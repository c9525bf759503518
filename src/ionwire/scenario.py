"""Scenarios: the parameter set of one run and its strict INI-style file.

Sectioned, unit-suffixed key-value text. Unknown sections and keys are
rejected so a typo cannot silently fall back to a default in a physics
run. Every diagnostic carries the file, line, section, and key context.
Each section's keys are described once, in a table of ``_Key`` entries
that both the parser and the serializer walk. The commands' direct
options are ``_Key`` entries too, read the same way under their flags.

Digests canonicalize a value (SI values, sorted keys, floats rounded to
12 significant digits) so that key order, comments, flag spelling, and
float round-trip wobble do not change the hash.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import analysis, circuit, dynamics
from .core import (IonSpecies, RangeError, TrapSite, WireSpec, check_count,
                   check_range, hz_to_rad_s, mhz_to_rad_s, rad_s_to_hz,
                   rad_s_to_mhz)
from .geometry import RectPatch, effective_distance

# every schedule occupation is below this. At large n the sympathetic fit
# weights each point by (1e-6 n)^-2, at its SEM floor, and its normal
# equations multiply two weights: below 1e80 the products stay above
# 1e-296, twelve decades above the smallest normal float, which leaves
# room for the spread of the times
MAX_QUANTA = 1e80


@dataclass(frozen=True)
class ScheduleResonanceScan:
    probe_frequencies: np.ndarray   # rad/s, absolute cold-ion frequencies
    probe_duration: float           # s
    hot_occupation: float
    cold_occupation: float
    kind: str = "resonance_scan"

    def __post_init__(self):
        # each field's range, in key order, before the shape of the values
        check_range("probe_frequencies", self.probe_frequencies, gt=0)
        check_range("probe_duration", self.probe_duration, gt=0)
        # the hot ion starts hotter than the cold ion; the cold occupation
        # is checked against it, so a cold one raised too far is named
        check_range("hot_occupation", self.hot_occupation, gt=0, lt=MAX_QUANTA)
        check_range("cold_occupation", self.cold_occupation, ge=0,
                    lt=self.hot_occupation)
        # the resonance fit needs 6 points spread over the line
        if len(self.probe_frequencies) < 6:
            raise ValueError(f"probe_frequencies needs at least 6 values, "
                             f"got {len(self.probe_frequencies)}")
        if np.ptp(self.probe_frequencies) == 0:
            raise ValueError("probe_frequencies must span a nonzero range")


@dataclass(frozen=True)
class ScheduleSympathetic:
    wait_times: np.ndarray          # s
    initial_hot_occupation: float
    kind: str = "sympathetic_run"
    # 2,501 records at the bound: 9 s at the bundled 20,000 realizations
    MAX_WAIT_STEPS = 1000

    def __post_init__(self):
        check_range("wait_times", self.wait_times, ge=0)
        check_range("initial_hot_occupation", self.initial_hot_occupation,
                    ge=0, lt=MAX_QUANTA)
        if len(self.wait_times) < 3:
            raise ValueError(f"wait_times needs at least 3 values to fit a "
                             f"slope, got {len(self.wait_times)}")
        # the run records at each multiple of the first step, from 0
        step = float(self.wait_times[1] - self.wait_times[0])
        if np.any(np.diff(self.wait_times) <= 0) or any(
                abs(math.remainder(w, step)) > 1e-6 * step
                for w in self.wait_times):
            raise ValueError("wait_times must be strictly increasing whole "
                             "multiples of their first step")
        last = float(self.wait_times[-1])
        if last > self.MAX_WAIT_STEPS * step:     # before dividing by step
            raise ValueError(f"wait_times must end within {self.MAX_WAIT_STEPS}"
                             f" times their first step, got {last / step:.6g}")
        # the waits in steps, and the run's records: one each step from 0 on
        # past the fit window to 2.5 times it (rounded up), to exhibit the
        # curve ordering at late times; no fields, so no digest sees them
        steps = np.rint(np.asarray(self.wait_times, float) / step).astype(int)
        object.__setattr__(self, "wait_steps", steps)
        object.__setattr__(self, "records", (5 * int(steps[-1]) + 1) // 2 + 1)


@dataclass(frozen=True)
class ScheduleSwap:
    duration: float                 # s
    initial_occupations: tuple = (1000.0, 0.0)
    kind: str = "swap_demo"

    def __post_init__(self):
        check_range("initial_occupations", self.initial_occupations, ge=0,
                    lt=MAX_QUANTA)
        check_range("duration", self.duration, gt=0)
        if len(self.initial_occupations) != 2:
            raise ValueError(f"initial_occupations needs exactly two values, "
                             f"got {len(self.initial_occupations)}")
        # with the swap's zero phases n1(t) is smallest at t = 0 unless the
        # first ion starts hotter, so only then is there a swap to time
        check_range("initial_occupations of the first ion (hotter than the "
                    "second)", self.initial_occupations[0],
                    gt=self.initial_occupations[1])


@dataclass(frozen=True)
class Scenario:
    """Full parameter set for one experiment run."""

    species: object
    site1: TrapSite
    site2: TrapSite
    wire: WireSpec
    noise1: dynamics.NoiseModel
    noise2: dynamics.NoiseModel
    cooling1: dynamics.CoolingClamp
    cooling2: dynamics.CoolingClamp
    schedule: object
    ensemble_size: int
    seed: int
    kappa_override: float = None    # rad/s; None = circuit prediction
    label: str = ""
    output_dir: str = ""            # default landing spot; CLI --out wins

    def __post_init__(self):
        check_count("ensemble_size", self.ensemble_size,
                    *SCHEDULES[self.schedule.kind].ensemble)
        check_count("seed", self.seed, 0)
        # zero is allowed: a decoupled run is the null experiment
        if self.kappa_override is not None:
            check_range("kappa_override", self.kappa_override, ge=0)

    def kappa(self):
        """Exchange rate in rad/s: explicit override or circuit prediction."""
        if self.kappa_override is not None:
            return self.kappa_override
        return circuit.wire_coupling_rate(self.species, self.site1,
                                          self.site2, self.wire)


# ---------------------------------------------------------------------------
# file format

KIND_MISSING = "missing"
KIND_UNKNOWN = "unknown"
KIND_UNIT = "unit"
KIND_INVALID = "invalid"

# fixed order: the first absent section is the one named in the diagnostic
REQUIRED_SECTIONS = ("species", "site1", "site2", "wire", "noise",
                     "cooling", "schedule", "run")
OPTIONAL_SECTIONS = ("coupling",)


class ScenarioError(ValueError):
    """Parse/validation failure with location context."""

    def __init__(self, kind, message, path="", line=0, section="", key=""):
        self.kind = kind
        self.path = path
        self.line = line
        self.section = section
        self.key = key
        where = path or "<scenario>"
        if line:
            where += f":{line}"
        ctx = ".".join(filter(None, (section, key)))
        super().__init__(f"{where}: [{kind}] {ctx}: {message}")


# ---------------------------------------------------------------------------
# raw reader (configparser drops line numbers, which the diagnostics need)

def _read_raw(text, path):
    sections = {}
    current = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError(KIND_INVALID, "unterminated section header",
                                    path, lineno)
            name = line[1:-1].strip()
            if name in sections:
                raise ScenarioError(KIND_INVALID, "duplicate section",
                                    path, lineno, name)
            if name not in REQUIRED_SECTIONS and name not in OPTIONAL_SECTIONS:
                raise ScenarioError(KIND_UNKNOWN, "unknown section",
                                    path, lineno, name)
            current = {}
            current_name = name
            sections[name] = (lineno, current)
            continue
        if current is None:
            raise ScenarioError(KIND_INVALID, "key before any section",
                                path, lineno)
        if "=" not in line:
            raise ScenarioError(KIND_INVALID, "expected key = value",
                                path, lineno, current_name)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in current:
            raise ScenarioError(KIND_INVALID, "duplicate key",
                                path, lineno, current_name, key)
        current[key] = (value.strip(), lineno)
    return sections


# ---------------------------------------------------------------------------
# keys

NUMBER = "number"
INTEGER = "integer"
LIST = "list"       # comma-separated numbers, read as one array
TEXT = "text"


def _fmt(value):
    if value == math.inf:
        return "inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


@dataclass(frozen=True)
class _Key:
    """One ``key = value`` line of a section and the dataclass field it
    fills: it parses the text and converts it to SI units, and the record
    the field goes into judges the value. ``default`` is in file units, or a
    function of the section that returns them; None makes the key required.
    ``bounds`` judges a value that no record checked in its section does: a
    scan grid key, a run option, the coupling override, a command's flag."""

    name: str
    field: str
    kind: str = NUMBER
    units: tuple = (None, None)   # (to SI, from SI); None keeps the value
    default: object = None
    bounds: dict = None           # check_range keywords on the SI value
    auto: bool = False            # ``auto`` reads as None
    choices: dict = None          # text kinds: file text -> field value

    def write(self, value):
        """The file text of a field value."""
        if value is None:
            return "auto"
        if self.choices:
            return next(t for t, v in self.choices.items() if v == value)
        if self.kind in (INTEGER, TEXT):
            return str(value)
        if self.units[1] is not None:
            value = self.units[1](value)
        if self.kind == LIST:
            return ",".join(_fmt(v) for v in value)
        return _fmt(value)


def _scaled(to_si, from_si):
    # both factors are given: v / 1e-6 can round differently from v * 1e6
    return (lambda v: v * to_si, lambda v: v * from_si)


_UM = _scaled(1e-6, 1e6)
_MS = _scaled(1e-3, 1e3)
_MHZ = (mhz_to_rad_s, rad_s_to_mhz)
_SITE_PREFIXES = ("site1_", "site2_")


def _scan_grid(sc):
    """Default probe grid in MHz: ``points`` frequencies spread over
    ``span_khz`` around ``center_mhz``."""
    center, span, points = sc.read(_GRID_KEYS).values()
    half = 0.5 * span * 1e-3
    return np.linspace(center - half, center + half, points)


# each table lists its keys in parse order: the first bad key is reported
_SPECIES_KEYS = (
    _Key("label", "label", TEXT),
    _Key("charge_number", "charge_number", INTEGER),
    _Key("mass_u", "mass_number"))
_WIRE_KEYS = (
    _Key("capacitance_ff", "capacitance", units=_scaled(1e-15, 1e15)),
    _Key("paddle_um", "paddle_side", units=_UM),
    _Key("separation_um", "center_separation", units=_UM),
    _Key("resistance_ohm", "resistance", default=0.0))
_SITE_KEYS = (
    _Key("frequency_mhz", "vertical_frequency", units=_MHZ),
    _Key("height_um", "physical_height", units=_UM),
    _Key("deff_um", "effective_distance", units=_UM, auto=True))
_NOISE_KEYS = (         # after a site prefix
    _Key("heating_quanta_per_ms", "heating_rate_at_reference",
         units=_scaled(1e3, 1e-3)),
    _Key("reference_mhz", "reference_frequency", units=_MHZ, default=0.0),
    _Key("spectral_exponent", "spectral_exponent", default=1.0),
    _Key("jitter_sigma_hz", "jitter_sigma"))
_COOLING_KEYS = (       # after a site prefix
    _Key("damping_per_s", "damping_rate"),
    _Key("target_quanta", "steady_state_occupation"))
_COUPLING_KEYS = (      # the Scenario record is checked under [run]
    _Key("kappa_hz", "kappa_override", units=(hz_to_rad_s, rad_s_to_hz),
         bounds=dict(ge=0), auto=True),)
_RUN_OPTIONS = (      # also the --ensemble and --seed overrides
    # a bound on the run's length; batches are made one at a time as they run
    _Key("ensemble", "ensemble_size", INTEGER, bounds=dict(ge=1, lt=10 ** 8)),
    _Key("seed", "seed", INTEGER, bounds=dict(ge=0)))
_RUN_KEYS = _RUN_OPTIONS + (
    _Key("label", "label", TEXT, default=""),
    _Key("output_dir", "output_dir", TEXT, default=""))
# read only where frequencies_mhz is absent, and never written
_GRID_KEYS = (
    _Key("center_mhz", "center", bounds=dict(ge=0)),
    _Key("span_khz", "span", bounds=dict(gt=0)),
    # the scan runs every point x ensemble: 999 points at the bundled 1,200
    # realizations take 10 to 12 s, against 0.5 s for its 31
    _Key("points", "points", INTEGER, bounds=dict(ge=6, lt=1000)))


class _Section:
    def __init__(self, name, lineno, entries, path):
        self.name = name
        self.lineno = lineno
        self.entries = dict(entries)
        self.path = path
        self.origin = {}    # field -> (key, file key, line) of the last read
        self.lines = {name: line for name, (_text, line) in self.entries.items()}

    def read(self, keys, prefix=""):
        """Field name -> SI value for ``prefix`` + each key, in table order;
        notes which file key and line gave each field, if one did."""
        values = {}
        for key in keys:
            name = prefix + key.name
            if name in self.entries:
                self.origin[key.field] = (key, name, self.entries[name][1])
            else:
                self.origin.pop(key.field, None)
            values[key.field] = value = self._value(key, name)
            if key.bounds and value is not None:
                with self.checked():
                    check_range(key.field, value, **key.bounds)
        return values

    def _value(self, key, name):
        text = None
        lineno = self.lineno
        if name in self.entries:
            text, lineno = self.entries.pop(name)
            if key.auto and text.lower() == "auto":
                return None
        elif key.default is None:
            raise ScenarioError(KIND_MISSING, "required key is missing",
                                self.path, lineno, self.name, name)

        def error(kind, message):
            return ScenarioError(kind, message, self.path, lineno, self.name,
                                 name)

        if key.kind == TEXT:
            value = key.default if text is None else text
            if key.choices is None:
                return value
            if value not in key.choices:
                raise error(KIND_INVALID, f"must be one of "
                            f"{sorted(key.choices)}, got {value!r}")
            return key.choices[value]

        if text is None:
            value = key.default(self) if callable(key.default) else key.default
        elif key.kind == LIST:
            try:
                value = [float(tok) for tok in text.split(",") if tok.strip()]
            except ValueError:
                value = []
            if not value:      # unparsable or empty
                raise error(KIND_UNIT, f"expected comma-separated numbers, "
                            f"got {text!r}")
        else:
            try:
                value = int(text) if key.kind == INTEGER else float(text)
            except ValueError:
                raise error(KIND_UNIT, f"expected a plain number in the units "
                            f"of the key suffix, got {text!r}")
        if key.kind == LIST:
            value = np.array(value, float)
        # a value that overflows in SI is judged as the inf it becomes
        with np.errstate(over="ignore"):
            return value if key.units[0] is None else key.units[0](value)

    def finish(self):
        if self.entries:
            key = min(self.entries, key=lambda k: self.entries[k][1])
            raise ScenarioError(KIND_UNKNOWN, "unknown key",
                                self.path, self.entries[key][1], self.name, key)

    @contextlib.contextmanager
    def checked(self):
        """Report an invariant failure inside as a diagnostic. One whose
        message starts with a field that a key gave is reported at that
        key's line, a failed range check restated under the key's name and
        in its units; any other at this section. A range check failed by a
        value that is no number is a unit error."""
        try:
            yield
        except ScenarioError:
            raise
        except ValueError as exc:
            ranged = isinstance(exc, RangeError)
            # nan, or an infinity where the range admits none, is no number
            kind = KIND_UNIT if ranged and not (exc.value == exc.value and (
                abs(exc.value) < math.inf or (">=", -math.inf) == exc.low
                or ("<=", math.inf) == exc.high)) else KIND_INVALID
            # a diagnostic on a field starts with its name; a range check's
            # name may go on with a qualifier
            field = str(exc).split(" ")[0]
            if field not in self.origin:
                raise ScenarioError(kind, str(exc), self.path, self.lineno,
                                    self.name)
            key, name, lineno = self.origin[field]
            message = exc.restate(name + exc.name[len(field):], key.units[1]) \
                if ranged else str(exc)
            raise ScenarioError(kind, message, self.path, lineno, self.name,
                                name)


# ---------------------------------------------------------------------------
# schedule kinds

def _pair(quanta):
    return tuple(quanta.tolist())


@dataclass(frozen=True)
class ScheduleKind:
    """Everything that depends on one schedule kind."""

    schedule: type      # the schedule dataclass
    keys: tuple         # its [schedule] keys after ``kind``, in parse order
    runner: str         # name of its run_* function in ``experiments``
    command: str        # CLI subcommand
    help: str           # its one-line help
    bundled: str        # default bundled scenario
    # least and most realizations; a fit weighting by their spread needs two
    ensemble: tuple = (2, None)
    zeroed: tuple = ()  # noise and cooling fields its run leaves out
    # noise and cooling fields its integrators take, which must be finite;
    # the parser admits an infinite damping rate, a hard clamp
    finite: tuple = ()
    coupled: bool = False   # its run times an exchange, so needs kappa > 0
    # the run's integrator grids of a scenario: (key of the duration,
    # duration, step or None, step limit) each, as ``dynamics.step_grid``
    # takes them
    grids: object = None

    def check_record(self, record):
        """``record`` (noise or cooling) if each field its run leaves out is 0
        and each its integrators take is finite."""
        for name in self.zeroed:
            if hasattr(record, name):
                check_range(f"{name} of a {self.command} run (no noise or "
                            f"cooling)", getattr(record, name), ge=0, le=0)
        for name in self.finite:
            if hasattr(record, name):
                check_range(f"{name} of a {self.command} run",
                            getattr(record, name), ge=0)
        return record

    def coupling(self, kappa_override):
        """The [coupling] fields, if the run has the exchange it needs."""
        if self.coupled and kappa_override is not None:
            check_range(f"kappa_override of a {self.command} run",
                        kappa_override, gt=0)
        return {"kappa_override": kappa_override}


def _scan_grids(scn):
    """Every probe point in one envelope run over the probe, at the
    smallest of their step limits: the farthest point's, as the limit
    falls as the detuning grows."""
    sched, w1 = scn.schedule, scn.site1.vertical_frequency
    far = max(sched.probe_frequencies - w1, key=abs)
    return [("probe_ms", sched.probe_duration, None, dynamics.envelope_step_limit(
        scn.kappa(), w1, (0.0, float(far)), (scn.noise1, scn.noise2),
        (scn.cooling1, scn.cooling2), sched.probe_duration))]


def _sympathetic_grids(scn):
    """The free-heating branch: an envelope run of ion 1's noise alone to
    the last record, on the longest step that divides the wait step and
    keeps to the step limit. Where the wait step holds more steps than a
    float can count, the step is the limit, a grid refused either way."""
    sched = scn.schedule
    wait_step = float(sched.wait_times[1] - sched.wait_times[0])
    end = (sched.records - 1) * wait_step
    dt_max = dynamics.envelope_step_limit(
        0.0, scn.site1.vertical_frequency, (0.0, 0.0),
        (scn.noise1, dynamics.NO_NOISE), (dynamics.NO_COOLING,) * 2, end)
    steps = wait_step / dt_max
    return [("wait_ms", end, wait_step / math.ceil(steps)
             if math.isfinite(steps) else dt_max, dt_max)]


def _swap_grids(scn):
    """The noiseless Verlet run over the duration, at the mean of the two
    trap frequencies. Its grid is the longer: where the slow rates pass,
    the envelope run takes 100 max(kappa T, 1) steps, fewer. Those rates
    are left to the run, whose Verlet steps go unstable first."""
    w = 0.5 * (scn.site1.vertical_frequency + scn.site2.vertical_frequency)
    params = dynamics.PairParams.resonant(scn.species.mass, w, scn.kappa())
    return [("duration_ms", scn.schedule.duration, None,
             dynamics.verlet_step_limit(params))]


# keyed by the ``kind`` value of the [schedule] section, which the schedule
# record holds; runners are named, not held, so a replaced experiments.run_*
# is the one that runs
SCHEDULES = {kind.schedule.kind: kind for kind in (
    ScheduleKind(
        ScheduleResonanceScan,
        (_Key("frequencies_mhz", "probe_frequencies", LIST, units=_MHZ,
              default=_scan_grid),
         _Key("probe_ms", "probe_duration", units=_MS),
         _Key("hot_quanta", "hot_occupation"),
         _Key("cold_quanta", "cold_occupation")),
        "run_resonance_scan", "scan",
        "heating-rate spectroscopy across the resonance", "scan_benchmark",
        finite=("damping_rate",), grids=_scan_grids),
    ScheduleKind(
        ScheduleSympathetic,
        (_Key("wait_ms", "wait_times", LIST, units=_MS),
         _Key("initial_hot_quanta", "initial_hot_occupation")),
        "run_sympathetic", "sympathetic", "sympathetic heating-rate reduction",
        "sympathetic_benchmark", grids=_sympathetic_grids),
    ScheduleKind(
        ScheduleSwap,
        (_Key("initial_quanta", "initial_occupations", LIST,
              units=(_pair, None), default=(1000.0, 0.0)),
         _Key("duration_ms", "duration", units=_MS)),
        "run_swap_demo", "swap", "noiseless resonant exchange demonstration",
        "swap_benchmark", ensemble=(1, 1),
        zeroed=("heating_rate_at_reference", "jitter_sigma", "damping_rate"),
        coupled=True, grids=_swap_grids),
)}
_KIND_KEY = _Key("kind", "kind", TEXT, choices={k: k for k in SCHEDULES})


# ---------------------------------------------------------------------------
# command-line options, read like scenario keys named after their flags

OPTION_KEYS = {
    "deff": (
        _Key("paddle-um", "paddle_side", units=_UM, default=120.0,
             bounds=dict(gt=0)),
        _Key("heights-um", "heights", LIST, units=_UM,
             default=(40.0, 50.0, 60.0, 70.0, 80.0, 100.0, 150.0, 200.0),
             bounds=dict(gt=0))),
    "thermometry": (
        _Key("nbar", "n_bar", default=182.0,
             bounds=dict(ge=0, lt=analysis.N_BAR_MAX)),
        # Generator.binomial takes an int64 count
        _Key("shots", "shots", INTEGER, default=200, bounds=dict(ge=1, lt=2**63)),
        # more points than fitted parameters; the Fock blocks of every
        # thermometry kernel hold three points x 512 floats
        _Key("points", "points", INTEGER, default=60, bounds=dict(ge=3, lt=1000)),
        _Key("rabi-khz", "carrier_rabi",
             units=(lambda f: 2 * math.pi * f * 1e3,
                    lambda w: w / (2 * math.pi * 1e3)),
             default=50.0, bounds=dict(gt=0)),
        # at 0 every Omega_n is Omega_0 and P(t) holds no n_bar to fit
        _Key("lamb-dicke", "lamb_dicke", default=0.05, bounds=dict(gt=0, lt=1)),
        _Key("seed", "seed", INTEGER, default=0, bounds=dict(ge=0))),
    **{kind.command: _RUN_OPTIONS for kind in SCHEDULES.values()},
    "swap": _RUN_OPTIONS[1:],       # the seed: a swap runs one realization
}


def read_options(command, values, make=dict):
    """``make`` of field name -> SI value of each option of ``command``
    given, or with a default; ``values`` maps argparse destinations to text,
    None if absent. A failure of ``make`` that starts with a field an option
    gave names that option's flag."""
    keys = OPTION_KEYS.get(command, ())
    given = {f"--{k.name}": (values[k.name.replace("-", "_")], 0) for k in keys
             if values.get(k.name.replace("-", "_")) is not None}
    section = _Section("", 0, given, "<command line>")
    fields = section.read(
        [k for k in keys if k.default is not None or f"--{k.name}" in given],
        "--")
    with section.checked():
        return make(**fields)


# ---------------------------------------------------------------------------
# parse

def _trap_site(wire, **fields):
    """TrapSite; ``deff_um = auto`` takes the effective distance of a square
    patch the size of the wire's paddle, once the site has checked the height."""
    if fields["effective_distance"] is not None:
        return TrapSite(**fields)
    site = TrapSite(**{**fields, "effective_distance": fields["physical_height"]})
    patch = RectPatch.centered_square(wire.paddle_side)
    return dataclasses.replace(site, effective_distance=float(
        effective_distance(patch, site.physical_height)))


def parse_scenario_text(text, path="<scenario>"):
    raw = _read_raw(text, path)
    for name in REQUIRED_SECTIONS:
        if name not in raw:
            raise ScenarioError(KIND_MISSING, "required section is missing",
                                path, 0, name)
    sections = {name: _Section(name, lineno, entries, path)
                for name, (lineno, entries) in raw.items()}

    def build(name, make, keys, prefixes=("",)):
        """``make`` of each prefix's fields, refusing those the kind's run
        leaves out or cannot take (``ScheduleKind.check_record``); then no
        key may be left over."""
        sc = sections[name]
        with sc.checked():
            made = [kind.check_record(make(**sc.read(keys, prefix)))
                    for prefix in prefixes]
        sc.finish()
        return made

    # the schedule first: its kind says which fields ``build`` refuses
    kind = SCHEDULES[sections["schedule"].read((_KIND_KEY,))[_KIND_KEY.field]]
    [schedule] = build("schedule", kind.schedule, kind.keys)
    [species] = build("species", IonSpecies, _SPECIES_KEYS)
    [wire] = build("wire", WireSpec, _WIRE_KEYS)
    [site1] = build("site1", functools.partial(_trap_site, wire), _SITE_KEYS)
    [site2] = build("site2", functools.partial(_trap_site, wire), _SITE_KEYS)
    noise1, noise2 = build("noise", dynamics.NoiseModel, _NOISE_KEYS,
                           _SITE_PREFIXES)
    cooling1, cooling2 = build("cooling", dynamics.CoolingClamp,
                               _COOLING_KEYS, _SITE_PREFIXES)
    [coupling] = build("coupling", kind.coupling, _COUPLING_KEYS) \
        if "coupling" in sections else [{}]
    [run] = build("run", dict, _RUN_KEYS)
    with sections["run"].checked():
        scn = Scenario(species=species, site1=site1, site2=site2, wire=wire,
                       noise1=noise1, noise2=noise2, cooling1=cooling1,
                       cooling2=cooling2, schedule=schedule, **coupling, **run)
    _check_grids(scn, sections, path)
    return scn


def _check_grids(scn, sections, path):
    """Refuse at a key what the run's integrators would refuse as it
    starts: slow rates near the carrier (``dynamics.envelope_step_limit``),
    at the key of the largest, and a grid that ``dynamics.step_grid``
    refuses, at the key of its duration. A key the file does not give is
    reported at its section."""
    def refuse(section, key, exc):
        # without a [coupling] section the wire gives kappa
        sc = sections.get(section) or sections["wire"]
        line = sc.lines.get(key, sc.lineno)
        raise ScenarioError(KIND_INVALID, str(exc), path, line, sc.name,
                            key if key in sc.lines else "")

    try:
        grids = SCHEDULES[scn.schedule.kind].grids(scn)
    except ValueError as exc:
        if not hasattr(exc, "rate"):
            raise
        # kappa, then each ion's detuning plus jitter, then each damping rate
        ion = (exc.rate - 1) % 2 + 1
        if exc.rate == 0:
            refuse("coupling", "kappa_hz", exc)
        elif exc.rate > 2:
            refuse("cooling", f"site{ion}_damping_per_s", exc)
        elif (scn.noise1, scn.noise2)[ion - 1].jitter_sigma > 0:
            refuse("noise", f"site{ion}_jitter_sigma_hz", exc)
        refuse("schedule", "frequencies_mhz", exc)
    for key, duration, dt, dt_max in grids:
        try:
            dynamics.step_grid(duration, dt, dt_max, 2)
        except ValueError as exc:
            refuse("schedule", key, exc)


def parse_scenario(path):
    """Read and validate a scenario file; returns an SI-normalized Scenario."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    return parse_scenario_text(text, path=str(path))


# ---------------------------------------------------------------------------
# serialize

def serialize_scenario(scn):
    """Canonical text form; parse(serialize(s)) has the digest of s."""
    lines = []

    def section(name, keys, *objects, prefixes=("",)):
        lines.append(f"[{name}]")
        for prefix, obj in zip(prefixes, objects):
            lines.extend(f"{prefix}{key.name} = "
                         f"{key.write(getattr(obj, key.field))}" for key in keys)
        lines.append("")

    section("species", _SPECIES_KEYS, scn.species)
    section("site1", _SITE_KEYS, scn.site1)
    section("site2", _SITE_KEYS, scn.site2)
    section("wire", _WIRE_KEYS, scn.wire)
    section("noise", _NOISE_KEYS, scn.noise1, scn.noise2,
            prefixes=_SITE_PREFIXES)
    section("cooling", _COOLING_KEYS, scn.cooling1, scn.cooling2,
            prefixes=_SITE_PREFIXES)
    section("coupling", _COUPLING_KEYS, scn)
    section("schedule", (_KIND_KEY,) + SCHEDULES[scn.schedule.kind].keys,
            scn.schedule)
    section("run", _RUN_KEYS, scn)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# canonical digest

def _round12(value):
    if value is None or isinstance(value, (str, int)) or value == math.inf:
        return value
    return float(f"{float(value):.12g}")


def _canonical(value):
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name)
                 for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (tuple, list, np.ndarray)):
        return [_canonical(v) for v in value]
    return _round12(value)


def canonical_dict(scn):
    """SI-valued nested dict of every Scenario field but output_dir, with
    floats rounded to 12 significant digits, and the version of this form
    (2: version 1 also held the noise records' jitter kind and correlation
    time)."""
    d = _canonical(scn)
    del d["output_dir"]
    d["format_version"] = 2
    return d


def digest(value):
    """SHA-256 of the canonical JSON of a value: dataclasses and dicts as
    sorted objects, sequences as lists, floats rounded to 12 digits."""
    payload = json.dumps(_canonical(value), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def scenario_digest(scn):
    return digest(canonical_dict(scn))
