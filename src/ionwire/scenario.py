"""Scenarios: the parameter set of one run and its strict INI-style file.

Sectioned, unit-suffixed key-value text. Unknown sections and keys are
rejected so a typo cannot silently fall back to a default in a physics
run. Every diagnostic carries the file, line, section, and key context.

Digests canonicalize the parsed scenario (SI values, sorted keys, floats
rounded to 12 significant digits) so that key order, comments, and float
round-trip wobble do not change the hash.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import circuit, dynamics
from .core import IonSpecies, TrapSite, WireSpec, mhz_to_rad_s, rad_s_to_mhz
from .geometry import RectPatch, effective_distance

SCHEDULE_SCAN = "resonance_scan"
SCHEDULE_SYMPATHETIC = "sympathetic_run"
SCHEDULE_SWAP = "swap_demo"


@dataclass(frozen=True)
class ScheduleResonanceScan:
    probe_frequencies: np.ndarray   # rad/s, absolute cold-ion frequencies
    probe_duration: float           # s
    hot_occupation: float
    cold_occupation: float
    kind: str = SCHEDULE_SCAN

    def __post_init__(self):
        if len(self.probe_frequencies) < 2:
            raise ValueError("scan needs at least two probe frequencies")
        if not (self.probe_duration > 0):
            raise ValueError("probe_duration must be positive")
        if self.hot_occupation <= self.cold_occupation:
            raise ValueError("hot ion must start hotter than the cold ion")


@dataclass(frozen=True)
class ScheduleSympathetic:
    wait_times: np.ndarray          # s
    initial_hot_occupation: float
    kind: str = SCHEDULE_SYMPATHETIC

    def __post_init__(self):
        if len(self.wait_times) < 3:
            raise ValueError("need at least three wait times to fit a slope")
        if np.any(np.diff(self.wait_times) <= 0):
            raise ValueError("wait_times must be strictly increasing")


@dataclass(frozen=True)
class ScheduleSwap:
    duration: float                 # s
    initial_occupations: tuple = (1000.0, 0.0)
    kind: str = SCHEDULE_SWAP

    def __post_init__(self):
        if not (self.duration > 0):
            raise ValueError("duration must be positive")


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
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")
        # zero is allowed: a decoupled run is the null experiment
        if self.kappa_override is not None and self.kappa_override < 0:
            raise ValueError("kappa_override must be >= 0 when given")

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

_JITTER_KINDS = {"per_shot": dynamics.JITTER_PER_SHOT,
                 "ou": dynamics.JITTER_OU}
_JITTER_NAMES = {v: k for k, v in _JITTER_KINDS.items()}


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
        ctx = section
        if key:
            ctx += f".{key}"
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


class _Section:
    def __init__(self, name, lineno, entries, path):
        self.name = name
        self.lineno = lineno
        self.entries = dict(entries)
        self.path = path

    def _take(self, key, required, default):
        if key not in self.entries:
            if required:
                raise ScenarioError(KIND_MISSING, "required key is missing",
                                    self.path, self.lineno, self.name, key)
            return default, 0
        value, lineno = self.entries.pop(key)
        return value, lineno

    def number(self, key, required=True, default=None, minimum=None,
               allow_inf=False, integer=False):
        value, lineno = self._take(key, required, None)
        if value is None:
            return default
        try:
            if allow_inf and value.lower() in ("inf", "infinity"):
                num = math.inf
            else:
                num = int(value) if integer else float(value)
        except ValueError:
            raise ScenarioError(
                KIND_UNIT, f"expected a plain number in the units of the key "
                f"suffix, got {value!r}", self.path, lineno, self.name, key)
        if math.isnan(num) or (math.isinf(num) and not allow_inf):
            raise ScenarioError(KIND_UNIT, "value must be finite",
                                self.path, lineno, self.name, key)
        if minimum is not None and num < minimum:
            raise ScenarioError(KIND_INVALID, f"must be >= {minimum}",
                                self.path, lineno, self.name, key)
        return num

    def number_or_auto(self, key, minimum=None):
        """``number``, or None for ``auto``."""
        if self.entries.get(key, ("",))[0].lower() == "auto":
            del self.entries[key]
            return None
        return self.number(key, minimum=minimum)

    def number_list(self, key, required=True, default=None):
        value, lineno = self._take(key, required, None)
        if value is None:
            return default
        try:
            nums = [float(tok) for tok in value.split(",") if tok.strip()]
            finite = all(math.isfinite(num) for num in nums)
        except ValueError:
            finite = False
        if not finite:
            raise ScenarioError(
                KIND_UNIT, f"expected comma-separated finite numbers, got "
                f"{value!r}", self.path, lineno, self.name, key)
        return nums

    def text(self, key, required=True, default=None, choices=None):
        value, lineno = self._take(key, required, default)
        if lineno and choices and value not in choices:
            raise ScenarioError(
                KIND_INVALID, f"must be one of {sorted(choices)}, got {value!r}",
                self.path, lineno, self.name, key)
        return value

    def finish(self):
        if self.entries:
            key = min(self.entries, key=lambda k: self.entries[k][1])
            raise ScenarioError(KIND_UNKNOWN, "unknown key",
                                self.path, self.entries[key][1], self.name, key)

    @contextlib.contextmanager
    def checked(self):
        """Report an invariant failure inside as a diagnostic at this section."""
        try:
            yield
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(KIND_INVALID, str(exc), self.path, self.lineno,
                                self.name)


# ---------------------------------------------------------------------------
# schedule kinds

def _fmt(value):
    if value == math.inf:
        return "inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _parse_scan(sc):
    freqs = sc.number_list("frequencies_mhz", required=False)
    if freqs is None:
        center = sc.number("center_mhz", minimum=0.0)
        span = sc.number("span_khz", minimum=0.0)
        points = sc.number("points", integer=True, minimum=2)
        half = 0.5 * span * 1e-3
        freqs = list(np.linspace(center - half, center + half, points))
    return dict(probe_frequencies=np.array([mhz_to_rad_s(f) for f in freqs]),
                probe_duration=sc.number("probe_ms", minimum=0.0) * 1e-3,
                hot_occupation=sc.number("hot_quanta", minimum=0.0),
                cold_occupation=sc.number("cold_quanta", minimum=0.0))


def _serialize_scan(sched):
    return [("frequencies_mhz", ",".join(
                _fmt(rad_s_to_mhz(w)) for w in sched.probe_frequencies)),
            ("probe_ms", _fmt(sched.probe_duration * 1e3)),
            ("hot_quanta", _fmt(sched.hot_occupation)),
            ("cold_quanta", _fmt(sched.cold_occupation))]


def _parse_sympathetic(sc):
    return dict(wait_times=np.array(sc.number_list("wait_ms")) * 1e-3,
                initial_hot_occupation=sc.number("initial_hot_quanta",
                                                 minimum=0.0))


def _serialize_sympathetic(sched):
    return [("wait_ms", ",".join(_fmt(t * 1e3) for t in sched.wait_times)),
            ("initial_hot_quanta", _fmt(sched.initial_hot_occupation))]


def _parse_swap(sc):
    pair = sc.number_list("initial_quanta", required=False,
                          default=[1000.0, 0.0])
    if len(pair) != 2:
        raise ValueError("initial_quanta needs exactly two values")
    return dict(duration=sc.number("duration_ms", minimum=0.0) * 1e-3,
                initial_occupations=(pair[0], pair[1]))


def _serialize_swap(sched):
    return [("duration_ms", _fmt(sched.duration * 1e3)),
            ("initial_quanta", ",".join(_fmt(n)
                                        for n in sched.initial_occupations))]


@dataclass(frozen=True)
class ScheduleKind:
    """Everything that depends on one schedule kind."""

    schedule: type      # the schedule dataclass
    parse: object       # [schedule] section -> the dataclass's fields
    serialize: object   # schedule -> (key, text) pairs after ``kind``
    runner: str         # name of its run_* function in ``experiments``
    command: str        # CLI subcommand
    bundled: str        # default bundled scenario


# keyed by the ``kind`` value of the [schedule] section; runners are named,
# not held, so a replaced experiments.run_* is the one that runs
SCHEDULES = {
    SCHEDULE_SCAN: ScheduleKind(
        ScheduleResonanceScan, _parse_scan, _serialize_scan,
        "run_resonance_scan", "scan", "scan_benchmark"),
    SCHEDULE_SYMPATHETIC: ScheduleKind(
        ScheduleSympathetic, _parse_sympathetic, _serialize_sympathetic,
        "run_sympathetic", "sympathetic", "sympathetic_benchmark"),
    SCHEDULE_SWAP: ScheduleKind(
        ScheduleSwap, _parse_swap, _serialize_swap,
        "run_swap_demo", "swap", "swap_benchmark"),
}


# ---------------------------------------------------------------------------
# parse

def parse_scenario_text(text, path="<scenario>"):
    raw = _read_raw(text, path)
    for name in REQUIRED_SECTIONS:
        if name not in raw:
            raise ScenarioError(KIND_MISSING, "required section is missing",
                                path, 0, name)

    def section(name):
        lineno, entries = raw[name]
        return _Section(name, lineno, entries, path)

    sp = section("species")
    label = sp.text("label")
    with sp.checked():
        species = IonSpecies(charge_number=sp.number("charge_number", integer=True),
                             mass_number=sp.number("mass_u", minimum=0.0),
                             label=label)
    sp.finish()

    wr = section("wire")
    with wr.checked():
        wire = WireSpec(capacitance=wr.number("capacitance_ff", minimum=0.0) * 1e-15,
                        paddle_side=wr.number("paddle_um", minimum=0.0) * 1e-6,
                        center_separation=wr.number("separation_um", minimum=0.0) * 1e-6,
                        resistance=wr.number("resistance_ohm", required=False,
                                             default=0.0, minimum=0.0))
    wr.finish()

    def parse_site(name):
        sc = section(name)
        with sc.checked():
            freq = mhz_to_rad_s(sc.number("frequency_mhz", minimum=0.0))
            height = sc.number("height_um", minimum=0.0) * 1e-6
            deff_um = sc.number_or_auto("deff_um")
            if deff_um is None:
                patch = RectPatch.centered_square(wire.paddle_side)
                deff = float(effective_distance(patch, height))
            else:
                deff = deff_um * 1e-6
            site = TrapSite(vertical_frequency=freq, physical_height=height,
                            effective_distance=deff)
        sc.finish()
        return site

    site1 = parse_site("site1")
    site2 = parse_site("site2")

    no = section("noise")

    def parse_noise(prefix):
        kind = _JITTER_KINDS[no.text(f"{prefix}_jitter_kind", required=False,
                                     default="per_shot",
                                     choices=set(_JITTER_KINDS))]
        tau_ms = no.number(f"{prefix}_jitter_correlation_ms", required=False,
                           default=0.0, minimum=0.0)
        with no.checked():
            return dynamics.NoiseModel(
                heating_rate_at_reference=no.number(
                    f"{prefix}_heating_quanta_per_ms", minimum=0.0) * 1e3,
                reference_frequency=mhz_to_rad_s(
                    no.number(f"{prefix}_reference_mhz", required=False,
                              default=0.0, minimum=0.0)),
                spectral_exponent=no.number(f"{prefix}_spectral_exponent",
                                            required=False, default=1.0),
                jitter_sigma=no.number(f"{prefix}_jitter_sigma_hz",
                                       minimum=0.0),
                jitter_kind=kind,
                jitter_correlation_time=tau_ms * 1e-3)

    noise1 = parse_noise("site1")
    noise2 = parse_noise("site2")
    no.finish()

    co = section("cooling")

    def parse_cooling(prefix):
        with co.checked():
            return dynamics.CoolingClamp(
                damping_rate=co.number(f"{prefix}_damping_per_s",
                                       minimum=0.0, allow_inf=True),
                steady_state_occupation=co.number(f"{prefix}_target_quanta",
                                                  minimum=0.0))

    cooling1 = parse_cooling("site1")
    cooling2 = parse_cooling("site2")
    co.finish()

    kappa_override = None
    if "coupling" in raw:
        cp = section("coupling")
        kappa_hz = cp.number_or_auto("kappa_hz", minimum=0.0)
        cp.finish()
        if kappa_hz is not None:
            kappa_override = 2.0 * math.pi * kappa_hz

    sc = section("schedule")
    kind = SCHEDULES[sc.text("kind", choices=set(SCHEDULES))]
    with sc.checked():
        schedule = kind.schedule(**kind.parse(sc))
    sc.finish()

    rn = section("run")
    ensemble = rn.number("ensemble", integer=True, minimum=1)
    seed = rn.number("seed", integer=True, minimum=0)
    run_label = rn.text("label", required=False, default="")
    output_dir = rn.text("output_dir", required=False, default="")
    rn.finish()

    with rn.checked():
        return Scenario(species=species, site1=site1, site2=site2, wire=wire,
                        noise1=noise1, noise2=noise2, cooling1=cooling1,
                        cooling2=cooling2, schedule=schedule,
                        ensemble_size=ensemble, seed=seed,
                        kappa_override=kappa_override, label=run_label,
                        output_dir=output_dir)


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

    def sec(name, *pairs):
        lines.append(f"[{name}]")
        for key, value in pairs:
            lines.append(f"{key} = {value}")
        lines.append("")

    sec("species",
        ("label", scn.species.label),
        ("charge_number", scn.species.charge_number),
        ("mass_u", _fmt(scn.species.mass_number)))
    for name, site in (("site1", scn.site1), ("site2", scn.site2)):
        sec(name,
            ("frequency_mhz", _fmt(rad_s_to_mhz(site.vertical_frequency))),
            ("height_um", _fmt(site.physical_height * 1e6)),
            ("deff_um", _fmt(site.effective_distance * 1e6)))
    sec("wire",
        ("capacitance_ff", _fmt(scn.wire.capacitance * 1e15)),
        ("paddle_um", _fmt(scn.wire.paddle_side * 1e6)),
        ("separation_um", _fmt(scn.wire.center_separation * 1e6)),
        ("resistance_ohm", _fmt(scn.wire.resistance)))

    noise_pairs = []
    for prefix, nm in (("site1", scn.noise1), ("site2", scn.noise2)):
        noise_pairs += [
            (f"{prefix}_heating_quanta_per_ms",
             _fmt(nm.heating_rate_at_reference * 1e-3)),
            (f"{prefix}_reference_mhz", _fmt(rad_s_to_mhz(nm.reference_frequency))),
            (f"{prefix}_spectral_exponent", _fmt(nm.spectral_exponent)),
            (f"{prefix}_jitter_sigma_hz", _fmt(nm.jitter_sigma)),
            (f"{prefix}_jitter_kind", _JITTER_NAMES[nm.jitter_kind]),
        ]
        if nm.jitter_kind == dynamics.JITTER_OU:
            noise_pairs.append((f"{prefix}_jitter_correlation_ms",
                                _fmt(nm.jitter_correlation_time * 1e3)))
    sec("noise", *noise_pairs)

    cool_pairs = []
    for prefix, cl in (("site1", scn.cooling1), ("site2", scn.cooling2)):
        cool_pairs += [(f"{prefix}_damping_per_s", _fmt(cl.damping_rate)),
                       (f"{prefix}_target_quanta",
                        _fmt(cl.steady_state_occupation))]
    sec("cooling", *cool_pairs)

    if scn.kappa_override is not None:
        sec("coupling", ("kappa_hz", _fmt(scn.kappa_override / (2 * math.pi))))

    sched = scn.schedule
    sec("schedule", ("kind", sched.kind),
        *SCHEDULES[sched.kind].serialize(sched))

    run_pairs = [("ensemble", scn.ensemble_size), ("seed", scn.seed)]
    if scn.label:
        run_pairs.append(("label", scn.label))
    if scn.output_dir:
        run_pairs.append(("output_dir", scn.output_dir))
    sec("run", *run_pairs)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# canonical digest

def _round12(value):
    if value is None or isinstance(value, (str, int)) or value == math.inf:
        return value
    return float(f"{float(value):.12g}")


def _canonical(value):
    if dataclasses.is_dataclass(value):
        return {f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list, np.ndarray)):
        return [_canonical(v) for v in value]
    return _round12(value)


def canonical_dict(scn):
    """SI-valued nested dict of every Scenario field but output_dir, with
    floats rounded to 12 significant digits."""
    d = _canonical(scn)
    del d["output_dir"]
    d["format_version"] = 1
    return d


def scenario_digest(scn):
    payload = json.dumps(canonical_dict(scn), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
