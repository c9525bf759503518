"""Command-line front end: subcommand dispatch and file emission.

Exit codes are a contract: 0 success, 1 expectation-band failure,
2 usage or configuration error, 3 any other failure (a crash, reported in
one line on stderr). All computation happens in the library
modules; this layer owns argument parsing, the master seed, output
paths, and atomic writes. Only one environment override exists,
IONWIRE_OUT (output directory); every physical parameter must come from
the scenario file or flags so runs stay auditable. The subcommands are
the schedule kinds of ``scenario.SCHEDULES`` (with --scenario and --svg)
and the entries of ``_COMMANDS``. Each takes --out and --format, and as
its own flags ``scenario.OPTION_KEYS[command]``, read like scenario keys
but naming the flag (``scenario.read_options``). Tables go out a column
at a time, each given as {column name: values}; a float cell is the
``repr`` of its value. All JSON goes through ``_Writer.json``, with a nan or
an infinity written as the string "nan", "inf" or "-inf".
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import math
import os
import platform
import sys
import tempfile
from importlib import resources

import numpy as np

from . import (__version__, analysis, circuit, dynamics, experiments, geometry,
               svgplot)
from .core import rad_s_to_hz
from .scenario import (OPTION_KEYS, SCHEDULES, digest, parse_scenario,
                       parse_scenario_text, read_options, scenario_digest)

EXIT_OK = 0
EXIT_BAND_FAILURE = 1
EXIT_USAGE = 2
EXIT_CRASH = 3

BUNDLED = tuple(kind.bundled for kind in SCHEDULES.values())
CSV_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# output plumbing

class _Writer:
    """Single-writer context: atomic file emission under one directory."""

    def __init__(self, outdir):
        self.outdir = outdir
        self.outputs = []
        os.makedirs(outdir, exist_ok=True)

    def text(self, name, text):
        path = os.path.join(self.outdir, name)
        fd, tmp = tempfile.mkstemp(dir=self.outdir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
                f.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.outputs.append(name)
        return path

    def json(self, name, payload):
        return self.text(name, json.dumps(_json_safe(payload), indent=2,
                                          sort_keys=True) + "\n")


def _csv_cell(value):
    if isinstance(value, str):
        # RFC 4180: a cell a reader would split is quoted, its quotes doubled
        if any(c in value for c in ',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))     # nan, inf and -inf included


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def _table(writer, name, table_id, table, fmt):
    """Write ``table``, {column name: values}, as CSV or as JSON rows. A
    float array's CSV cells are each value's repr, as from _csv_cell."""
    if fmt == "json":
        rows = zip(*(col.tolist() if isinstance(col, np.ndarray) else col
                     for col in table.values()))
        return writer.json(name + ".json", {"schema": f"ionwire.{table_id}.v1",
                                            "rows": [dict(zip(table, row))
                                                     for row in rows]})
    cells = [map(repr, col.tolist()) if isinstance(col, np.ndarray)
             and col.dtype.kind == "f" else map(_csv_cell, col)
             for col in table.values()]
    lines = [f"# ionwire csv schema v{CSV_SCHEMA_VERSION} table={table_id}",
             ",".join(table), *map(",".join, zip(*cells))]
    return writer.text(name + ".csv", "\n".join(lines) + "\n")


def _report_markdown(report):
    lines = [f"# {report.name}", "",
             f"scenario digest: `{report.scenario_digest}`",
             f"wall time: {report.wall_time_s:.2f} s",
             f"overall: {'PASS' if report.passed else 'FAIL'}", "",
             "| headline | value | unit | band | source | status |",
             "|---|---|---|---|---|---|"]
    for h in report.headline:
        band = "" if h.band is None else f"[{h.band[0]:g}, {h.band[1]:g}]"
        status = "" if h.passed is None else ("pass" if h.passed else "FAIL")
        lines.append(f"| {h.name} | {h.value:.6g} | {h.unit} | {band} "
                     f"| {h.source} | {status} |")
    if report.artifact_choices:
        lines += ["", "## artifact choices", ""]
        for k, v in sorted(report.artifact_choices.items()):
            lines.append(f"- {k}: {v}")
    if report.notes:
        lines += ["", "## notes", ""]
        for note in report.notes:
            lines.append(f"- {note}")
    return "\n".join(lines) + "\n"


def _write_report(writer, report, fmt, svg=False):
    hs = report.headline
    _table(writer, f"{report.name}_headline", "headline", {
        "name": [h.name for h in hs], "value": [h.value for h in hs],
        "unit": [h.unit for h in hs],
        "band_lo": ["" if h.band is None else h.band[0] for h in hs],
        "band_hi": ["" if h.band is None else h.band[1] for h in hs],
        "source": [h.source for h in hs],
        "passed": ["" if h.passed is None else h.passed for h in hs]}, fmt)
    for name, traj in report.trajectories.items():
        _table(writer, f"{report.name}_{name}_trajectory", "trajectory",
               {"time_s": traj.times, "n_bar_1": traj.n_bar_1,
                "sem_1": traj.n_bar_sem_1, "n_bar_2": traj.n_bar_2,
                "sem_2": traj.n_bar_sem_2}, fmt)
    for name, fit in report.fits.items():
        writer.json(f"{report.name}_fit_{name}.json", fit.as_dict())
    for name, tab in report.tables.items():
        _table(writer, f"{report.name}_{name}", name, tab, fmt)
    writer.text(f"{report.name}_report.md", _report_markdown(report))
    if svg:
        _write_svg(writer, report)


def _write_svg(writer, report):
    if report.trajectories:
        series = []
        for name, traj in sorted(report.trajectories.items()):
            series.append((f"{name} ion1", traj.times * 1e3, traj.n_bar_1))
            series.append((f"{name} ion2", traj.times * 1e3, traj.n_bar_2))
        writer.text(f"{report.name}_nbar.svg",
                    svgplot.line_plot(series, title=report.name,
                                      xlabel="time (ms)",
                                      ylabel="mean occupation"))
    scan = report.tables.get("scan")
    if scan is not None:
        f_mhz = scan["omega_rad_s"] / (2e6 * math.pi)
        rate = scan["rate_quanta_per_s"] * 1e-3
        err = scan["sigma_quanta_per_s"] * 1e-3
        writer.text(f"{report.name}_rate.svg",
                    svgplot.line_plot(
                        [("measured", f_mhz, rate, err)], title=report.name,
                        xlabel="probe frequency (MHz)",
                        ylabel="heating rate (quanta/ms)"))


def _manifest(writer, args, config_digest, started, scn=None, seed=None,
              passed=None, rng_layout=None):
    """manifest.json; the seed and ensemble size are the ones the run used,
    taken from ``scn`` when the command runs a scenario, the layout of the
    integrators' random draws when it runs them, and the versions of python
    and numpy, and of scipy where something loaded it."""
    payload = {"tool": "ionwire", "version": __version__,
               "command": args.command, "config_digest": config_digest,
               "seed": seed if scn is None else scn.seed,
               "ensemble": None if scn is None else scn.ensemble_size,
               "started": started, "finished": _now(),
               "outputs": sorted(writer.outputs),
               "versions": {"python": platform.python_version(),
                            "numpy": np.__version__}}
    if "scipy" in sys.modules:      # no command loads it
        payload["versions"]["scipy"] = sys.modules["scipy"].__version__
    if rng_layout is not None:
        payload["rng_layout"] = rng_layout
    if passed is not None:
        payload["passed"] = passed
    writer.json("manifest.json", payload)


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# scenario access

def _load_scenario(args, default_bundled):
    name = args.scenario or default_bundled
    if name in BUNDLED:
        text = resources.files("ionwire.data").joinpath(
            name + ".scenario").read_text(encoding="utf-8")
        scn = parse_scenario_text(text, path=f"bundled:{name}")
    else:
        scn = parse_scenario(name)
    # --seed and --ensemble, where given, replace the scenario's own
    return read_options(args.command, vars(args),
                        lambda **opts: dataclasses.replace(scn, **opts))


def _resolve_outdir(args, scn=None):
    if args.out:
        return args.out
    env = os.environ.get("IONWIRE_OUT")
    if env:
        return env
    if scn is not None and scn.output_dir:
        return scn.output_dir
    return "ionwire-out"


# ---------------------------------------------------------------------------
# subcommands; each returns whether its expectation bands passed, or None

def _cmd_report(kind, args, started):
    scn = _load_scenario(args, kind.bundled)
    report = getattr(experiments, kind.runner)(scn)
    writer = _Writer(_resolve_outdir(args, scn))
    _write_report(writer, report, args.format, svg=args.svg)
    _manifest(writer, args, report.scenario_digest, started, scn=scn,
              passed=report.passed, rng_layout=dynamics.RNG_LAYOUT)
    print(f"{report.name}: {'PASS' if report.passed else 'FAIL'} "
          f"({writer.outdir})")
    return report.passed


def _cmd_predict(args, started):
    report = experiments.run_prediction_table()
    writer = _Writer(_resolve_outdir(args))
    _write_report(writer, report, args.format, svg=False)
    _manifest(writer, args, report.scenario_digest, started,
              passed=report.passed)
    for h in report.headline:
        band = "" if h.band is None else \
            f"  band [{h.band[0]:g}, {h.band[1]:g}]" \
            f" {'pass' if h.passed else 'FAIL'}"
        print(f"{h.name:32s} {h.value:12.6g} {h.unit}{band}")
    print(f"{report.name}: {'PASS' if report.passed else 'FAIL'}")
    return report.passed


def _cmd_rate(args, started):
    scn = _load_scenario(args, "sympathetic_benchmark")
    pred = circuit.enhancement_report(scn.species, scn.site1, scn.site2,
                                      scn.wire)
    lc1 = circuit.circuit_equivalent(scn.species, scn.site1)
    lc2 = circuit.circuit_equivalent(scn.species, scn.site2)
    values = {
        "kappa_wire_hz": rad_s_to_hz(pred.kappa),
        "kappa_scenario_hz": rad_s_to_hz(scn.kappa()),
        "coulomb_rate_hz": rad_s_to_hz(pred.coulomb_rate),
        "enhancement_ratio": pred.enhancement_ratio,
        "site1_inductance_h": lc1.inductance,
        "site1_capacitance_f": lc1.capacitance,
        "site2_inductance_h": lc2.inductance,
        "site2_capacitance_f": lc2.capacitance,
    }
    writer = _Writer(_resolve_outdir(args, scn))
    _table(writer, "rate", "rate", {"quantity": list(values),
                                    "value": list(values.values())},
           args.format)
    _manifest(writer, args, scenario_digest(scn), started, scn=scn)
    for name, value in values.items():
        print(f"{name:24s} {value:.6g}")


def _cmd_deff(args, started):
    opts = read_options(args.command, vars(args))
    table = geometry.effective_distance_table(opts["paddle_side"],
                                              opts["heights"])
    h_um, d_um = table.T * 1e6
    writer = _Writer(_resolve_outdir(args))
    _table(writer, "deff", "deff", {"height_um": h_um, "deff_um": d_um},
           args.format)
    _manifest(writer, args, digest(opts), started)
    for h, d in zip(h_um, d_um):
        print(f"height {h:8.2f} um   deff {d:8.2f} um")


def _cmd_thermometry(args, started):
    opts = read_options(args.command, vars(args))
    nbar, rabi = opts["n_bar"], opts["carrier_rabi"]
    t_pi = math.pi / rabi
    times = np.linspace(0.05 * t_pi, 6.0 * t_pi, opts["points"])
    dataset, truth = analysis.synthesize_rabi(
        nbar, rabi, opts["lamb_dicke"], times, opts["shots"], opts["seed"])
    try:
        fit = analysis.fit_rabi_nbar(dataset)
    except ValueError as exc:
        # the options are checked; what the fit still refuses is an eta
        # too small for P(t) to depend on n_bar
        raise ValueError(f"--lamb-dicke: {exc}") from None
    n_fit = fit.parameters["n_bar"]
    err = abs(n_fit - nbar)
    # at n_bar 0, or one so small that the ratio overflows, the absolute one
    rel = 100 * err / nbar if nbar > 0 else math.inf
    off = f"{rel:.2f}% off" if math.isfinite(rel) else f"off by {err:.4g}"

    writer = _Writer(_resolve_outdir(args))
    _table(writer, "thermometry_data", "rabi",
           {"pulse_time_s": dataset.pulse_times,
            "excitation_probability": dataset.excitation_probability,
            "shots": [dataset.shots_per_point] * len(dataset.pulse_times)},
           args.format)
    writer.json("thermometry_fit.json", fit.as_dict())
    writer.json("thermometry_truth.json", truth)
    _manifest(writer, args, digest(opts), started, seed=opts["seed"])
    sig = fit.sigmas.get("n_bar", float("nan"))
    print(f"injected n_bar {nbar:g}, fitted {n_fit:.4g} "
          f"+- {sig:.2g} ({off}), method {fit.method}")


# the other commands: (help, handler, whether it reads a scenario)
_COMMANDS = {
    "rate": ("coupling rates and circuit equivalents", _cmd_rate, True),
    "deff": ("effective ion-wire distance vs height", _cmd_deff, False),
    "thermometry": ("Rabi thermometry round trip", _cmd_thermometry, False),
    "predict": ("predicted rates vs expectation bands", _cmd_predict, False),
}


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="ionwire",
        description="Simulation and analysis of wire-mediated motional "
                    "coupling between remotely trapped ions.")
    parser.add_argument("--version", action="version",
                        version=f"ionwire {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="DIR",
                        help="output directory (default: IONWIRE_OUT or "
                             "./ionwire-out)")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="tabular output format (default csv)")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                required=True)
    kinds = {kind.command: (kind.help, functools.partial(_cmd_report, kind),
                            True) for kind in SCHEDULES.values()}
    for name, (text, run, reads_scenario) in {**kinds, **_COMMANDS}.items():
        cmd = sub.add_parser(name, help=text, parents=[common])
        cmd.set_defaults(run=run)
        if reads_scenario:
            cmd.add_argument("--scenario", metavar="PATH",
                             help="scenario file, or one of: "
                                  + ", ".join(BUNDLED))
        for key in OPTION_KEYS.get(name, ()):
            cmd.add_argument("--" + key.name, help=(
                "replaces the scenario's value" if reads_scenario else None))
        if name in kinds:
            cmd.add_argument("--svg", action="store_true",
                             help="also emit SVG line plots")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        passed = args.run(args, _now())
    except (ValueError, FileNotFoundError) as exc:
        print(f"ionwire: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a crash must not read as a band failure
        print(f"ionwire: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CRASH
    return EXIT_BAND_FAILURE if passed is False else EXIT_OK


def entry():
    sys.exit(main())
