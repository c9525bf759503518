"""The measured run process of the ionwire benchmark.

It imports ``ionwire.cli`` once, then calls ``ionwire.cli.main`` with
the argument lists of one workload, pass after pass, until the measuring
window is over, and checks the files every invocation writes. With
tracing on it also wraps the package's public functions from outside
(see tracer.py) and reports per-layer numbers for each pass.

run.py starts it as ``python3 worker.py '<json config>'``; the config
holds ``workload``, ``seed``, ``seconds``, ``trace`` and ``outdir``. The
last line it prints is its result as one JSON object.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

import numpy
import scipy

from ionwire import (analysis, circuit, cli, dynamics, experiments, scenario,
                     svgplot)

from reference import Pacer, scaled
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SWAP_SCENARIO = os.path.join(HERE, "scenarios", "swap_short.scenario")

# The bundled scan at 64 instead of 1,200 realizations per probe point, so
# one scan takes seconds, not a minute. Its expectation bands are calibrated
# for 1,200 realizations, so at 64 a band can fail by chance: exit status 1
# is accepted and the fit is checked against the injected values instead.
# At 64 realizations the fit understates the width's uncertainty (over 25
# seeds its z-scores had a standard deviation of 1.6), so the width only
# has to be within a factor SCAN_WIDTH_FACTOR of the injected width; that
# still fails a scan whose jitter broadening is lost or doubled.
SCAN_ENSEMBLE = 64
SCAN_BASELINE = 250e3                            # quanta/s, site2 heating
SCAN_CENTER = 2 * math.pi * 1.368e6              # rad/s, site2 frequency
SCAN_WIDTH_HZ = math.hypot(372.65, 372.65)       # both sites' jitter
SCAN_WIDTH_FACTOR = 2.0
THERMOMETRY_NBAR = (50.0, 182.0, 1000.0)
# Ten times the CLI's default shots. An NLL evaluation costs in proportion
# to the n_bar the optimizer tries, so a fit that lands far from the
# injected n_bar costs more; at 2,000 shots the fits land within a few
# percent and the cost varies less from seed to seed. The cost of an NLL
# evaluation does not depend on the number of shots.
THERMOMETRY_SHOTS = 2000
# A fitted value passes when it lies within this many of the fit's own
# 1-sigma uncertainties of the injected value.
TOLERANCE_SIGMAS = 5.0

PER_LAYER = (
    "scenario.parse_s", "scenario.parse_calls", "scenario.digest_s",
    "geometry.effective_distance_s", "geometry.effective_distance_calls",
    "circuit.coupling_s", "circuit.coupling_calls",
    "dynamics.envelope_s", "dynamics.envelope_calls",
    "dynamics.envelope_realization_ms",
    "dynamics.full_s", "dynamics.full_calls", "dynamics.full_realization_ms",
    "dynamics.rate_eq_s",
    "analysis.fit_rabi_s", "analysis.fit_rabi_calls",
    "analysis.fit_rabi_iterations", "analysis.fit_rabi_mle_frac",
    "analysis.rabi_excitation_s", "analysis.rabi_excitation_calls",
    "analysis.laguerre_s", "analysis.laguerre_calls",
    "analysis.fit_resonance_s", "analysis.fit_resonance_nfev",
    "analysis.fit_linear_heating_s",
    "experiments.self_s", "svgplot.line_plot_s",
    "cli.self_s", "cli.output_bytes", "cli.output_files",
    "trace.run_s", "trace.overhead_s",
)
# Counts that must repeat exactly from one traced pass to the next.
REPEATING = tuple(name for name in PER_LAYER if name.endswith(
    ("_calls", "_realization_ms", "_iterations", "_nfev"))) + (
    "cli.output_bytes", "cli.output_files")


def derive_seed(*key):
    """A 63-bit seed for one invocation, derived from the workload seed."""
    digest = hashlib.sha256(":".join(map(str, key)).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def pass_argv(workload, seed):
    """The CLI argument lists of one pass; every pass of a run repeats them."""
    def s(*key):
        return str(derive_seed(seed, workload, *key))
    if workload == "scan":
        return [["scan", "--ensemble", str(SCAN_ENSEMBLE), "--seed", s()]]
    if workload == "swap":
        return [["swap", "--scenario", SWAP_SCENARIO, "--svg", "--seed", s()]]
    if workload == "sympathetic":
        return [["sympathetic", "--seed", s()]]
    return [["thermometry", "--nbar", repr(nbar),
             "--shots", str(THERMOMETRY_SHOTS), "--seed", s(nbar)]
            for nbar in THERMOMETRY_NBAR]


# ---------------------------------------------------------------------------
# output checks

def _within(label, value, injected, sigma):
    if not (sigma > 0 and math.isfinite(value)):
        return f"{label}: no usable fit ({value!r} +- {sigma!r})"
    if abs(value - injected) > TOLERANCE_SIGMAS * sigma:
        return (f"{label}: fitted {value:.6g} +- {sigma:.3g}, injected "
                f"{injected:.6g}: more than {TOLERANCE_SIGMAS:g} sigma off")
    return None


def _load_json(outdir, name):
    with open(os.path.join(outdir, name), encoding="utf-8") as f:
        return json.load(f)


def check_outputs(argv, status, outdir):
    """None when the invocation's outputs are right, else the reason."""
    command = argv[0]
    allowed = (0, 1) if command == "scan" else (0,)
    if status not in allowed:
        return f"exit status {status}"
    manifest = _load_json(outdir, "manifest.json")
    missing = [n for n in manifest["outputs"]
               if not os.path.isfile(os.path.join(outdir, n))]
    expected = {"scan": ("resonance_scan_headline.csv",
                         "resonance_scan_fit_resonance.json"),
                "swap": ("swap_demo_headline.csv", "swap_demo_nbar.svg"),
                "sympathetic": ("sympathetic_headline.csv",),
                "thermometry": ("thermometry_fit.json",)}[command]
    missing += [n for n in expected if n not in manifest["outputs"]]
    if missing:
        return f"missing outputs {missing}"
    if command == "scan":
        fit = _load_json(outdir, "resonance_scan_fit_resonance.json")
        p, sig = fit["parameters"], fit["sigmas"]
        for label, key, injected in (
                ("baseline", "baseline_coeff", SCAN_BASELINE),
                ("center", "center", SCAN_CENTER)):
            error = _within(label, p[key], injected, sig[key])
            if error:
                return error
        ratio = p["width_sigma_hz"] / SCAN_WIDTH_HZ
        if not 1 / SCAN_WIDTH_FACTOR <= ratio <= SCAN_WIDTH_FACTOR:
            return (f"width: fitted {p['width_sigma_hz']:.6g} Hz, injected "
                    f"{SCAN_WIDTH_HZ:.6g} Hz: more than a factor "
                    f"{SCAN_WIDTH_FACTOR:g} off")
    if command == "thermometry":
        fit = _load_json(outdir, "thermometry_fit.json")
        injected = float(argv[argv.index("--nbar") + 1])
        return _within("n_bar", fit["parameters"]["n_bar"], injected,
                       fit["sigmas"]["n_bar"])
    return None


def _tables(outdir):
    """Tables and fit files by name; the manifest and report hold times."""
    tables = {}
    for name in os.listdir(outdir):
        if name.endswith((".csv", ".json")) and name != "manifest.json":
            with open(os.path.join(outdir, name), "rb") as f:
                tables[name] = f.read()
    return tables


def _directory_size(outdir):
    names = os.listdir(outdir)
    return (sum(os.path.getsize(os.path.join(outdir, n)) for n in names),
            len(names))


# ---------------------------------------------------------------------------
# tracing

def _realization_ms(prefix):
    def count(counts, args, _result):
        counts[prefix + "_realization_ms"] += \
            args["n_realizations"] * args["duration"] * 1e3
    return count


def _rabi_fit(counts, _args, result):
    counts["analysis.fit_rabi_iterations"] += result.n_iterations
    counts["analysis.fit_rabi_mle"] += result.method.startswith("mle")


def _resonance_fit(counts, _args, result):
    counts["analysis.fit_resonance_nfev"] += result.n_iterations


def build_tracer():
    """Wrap each layer's public functions at the names their callers use."""
    t = Tracer()
    t.add(cli, "main", "cli.main")
    # bundled scenarios are parsed through cli's name, files through scenario's
    t.add(cli, "parse_scenario_text", "scenario.parse")
    t.add(scenario, "parse_scenario_text", "scenario.parse")
    t.add(scenario, "scenario_digest", "scenario.digest")
    t.add(scenario, "effective_distance", "geometry.effective_distance")
    t.add(circuit, "wire_coupling_rate", "circuit.coupling")
    for attr in ("run_resonance_scan", "run_swap_demo", "run_sympathetic"):
        t.add(experiments, attr, "experiments.run")
    t.add(dynamics, "integrate_envelope", "dynamics.envelope",
          _realization_ms("dynamics.envelope"))
    t.add(dynamics, "integrate_full", "dynamics.full",
          _realization_ms("dynamics.full"))
    t.add(dynamics, "rate_equation_model", "dynamics.rate_eq")
    t.add(analysis, "fit_rabi_nbar", "analysis.fit_rabi", _rabi_fit)
    t.add(analysis, "rabi_excitation", "analysis.rabi_excitation")
    t.add(analysis, "laguerre_sequence", "analysis.laguerre")
    t.add(analysis, "fit_resonance", "analysis.fit_resonance", _resonance_fit)
    t.add(analysis, "fit_linear_heating", "analysis.fit_linear_heating")
    t.add(svgplot, "line_plot", "svgplot.line_plot")
    return t


def layer_metrics(tracer, pass_s, output_bytes, output_files):
    inclusive, own = tracer.totals()
    counts = tracer.counts
    metrics = {}
    for name in PER_LAYER:
        if name.endswith("_s"):
            metrics[name] = inclusive[name[:-2]]
        else:
            metrics[name] = counts[name]
    metrics["experiments.self_s"] = own["experiments.run"]
    metrics["cli.self_s"] = own["cli.main"]
    fits = counts["analysis.fit_rabi_calls"]
    metrics["analysis.fit_rabi_mle_frac"] = \
        counts["analysis.fit_rabi_mle"] / fits if fits else 0.0
    metrics["cli.output_bytes"] = output_bytes
    metrics["cli.output_files"] = output_files
    metrics["trace.run_s"] = pass_s
    return metrics


# ---------------------------------------------------------------------------
# passes

class Run:
    def __init__(self, config, pacer):
        self.pacer = pacer
        self.workload = config["workload"]
        self.seed = config["seed"]
        self.seconds = config["seconds"]
        self.outdir = config["outdir"]
        self.attempted = 0
        self.errors = []

    def invoke(self, argv, outdir):
        """One CLI invocation; returns (seconds, error or None)."""
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                status = cli.main(argv + ["--out", outdir])
        except Exception as exc:          # a crash is a failed operation
            elapsed = time.perf_counter() - start
            error = f"raised {type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            try:
                error = check_outputs(argv, status, outdir)
            except (OSError, ValueError, KeyError) as exc:
                error = f"unreadable outputs: {exc}"
        if error:
            self.errors.append(f"{' '.join(argv)}: {error}")
        return elapsed, error

    def run_pass(self, keep=False, measure_output=False):
        """One pass: wall and scaled seconds per invocation, output bytes
        and files, and the tables of the first invocation if ``keep``."""
        wall, scaled_s, size, files, kept = [], [], 0, 0, None
        for j, argv in enumerate(pass_argv(self.workload, self.seed)):
            outdir = os.path.join(self.outdir, str(j))
            before = self.pacer.seconds()
            elapsed, _error = self.invoke(argv, outdir)
            wall.append(elapsed)
            scaled_s.append(scaled(elapsed, before, self.pacer.seconds()))
            if os.path.isdir(outdir):
                if measure_output:
                    b, n = _directory_size(outdir)
                    size, files = size + b, files + n
                if keep and kept is None:
                    kept = _tables(outdir)
                shutil.rmtree(outdir)
        return wall, scaled_s, size, files, kept

    def seeding_check(self, tables_one_worker):
        """The pass again at two workers; its tables must match byte for byte."""
        argv = pass_argv(self.workload, self.seed)[0]
        outdir = os.path.join(self.outdir, "two-workers")
        os.environ["IONWIRE_THREADS"] = "2"
        try:
            _elapsed, error = self.invoke(argv, outdir)
        finally:
            os.environ["IONWIRE_THREADS"] = "1"
        if error is None and tables_one_worker is not None:
            tables = _tables(outdir)
            differ = sorted(n for n in set(tables) | set(tables_one_worker)
                            if tables.get(n) != tables_one_worker.get(n))
            if differ:
                self.errors.append(f"{' '.join(argv)}: tables differ between "
                                   f"1 and 2 workers: {differ}")
        shutil.rmtree(outdir, ignore_errors=True)

    def untraced(self):
        deadline = time.perf_counter() + self.seconds
        wall, scaled_s, tables = [], [], None
        while not wall or time.perf_counter() < deadline:
            keep = self.workload == "sympathetic" and not wall
            w, s, _size, _files, kept = self.run_pass(keep=keep)
            wall.append(w)
            scaled_s.append(s)
            tables = tables or kept
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if self.workload == "sympathetic":
            self.seeding_check(tables)
        return {"wall_s": wall, "scaled_s": scaled_s, "peak_rss_mb": peak_rss_mb}

    def traced_pass(self, tracer):
        tracer.reset()
        tracer.install()
        try:
            wall, _scaled, size, files, _kept = self.run_pass(measure_output=True)
        finally:
            tracer.uninstall()
        return layer_metrics(tracer, sum(wall), size, files)

    def traced(self):
        """Untraced and traced passes, alternating; at least two of each."""
        tracer = build_tracer()
        deadline = time.perf_counter() + self.seconds
        untraced_s, layers = [], []
        while len(layers) < 2 or time.perf_counter() < deadline:
            untraced_s.append(sum(self.run_pass()[0]))
            layers.append(self.traced_pass(tracer))
        unrepeated = {n: [m[n] for m in layers] for n in REPEATING
                      if any(m[n] != layers[0][n] for m in layers)}
        metrics = {n: statistics.median(m[n] for m in layers)
                   for n in PER_LAYER}
        # neighbouring passes share the host's speed, so pair them
        metrics["trace.overhead_s"] = statistics.median(
            m["trace.run_s"] - u for m, u in zip(layers, untraced_s))
        return {"layers": metrics, "untraced_s": untraced_s,
                "traced_passes": len(layers), "unrepeated_counts": unrepeated}


def environment(config):
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "ionwire_threads": os.environ.get("IONWIRE_THREADS"),
            "seed": config["seed"], "workload": config["workload"]}


def main():
    config = json.loads(sys.argv[1])
    with Pacer() as pacer:
        run = Run(config, pacer)
        os.makedirs(run.outdir, exist_ok=True)
        result = run.traced() if config["trace"] else run.untraced()
    result.update(attempted=run.attempted, errors=run.errors,
                  env=environment(config))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
