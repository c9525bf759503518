"""End-to-end command line checks run through subprocesses."""
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings

import pytest

import ionwire
from ionwire import cli
from ionwire.scenario import read_options
from conftest import load_bundled, parse_problem

# the subprocesses run in temporary directories, where a relative
# PYTHONPATH entry no longer finds the package under test
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(
    ionwire.__file__)))
SWAP_SHORT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "perfbench", "scenarios",
                          "swap_short.scenario")

NULL_SCAN = """\
[species]
label = 40Ca+
charge_number = 1
mass_u = 39.9625909

[site1]
frequency_mhz = 1.368
height_um = 60
deff_um = auto

[site2]
frequency_mhz = 1.368
height_um = 80
deff_um = auto

[wire]
capacitance_ff = 30
paddle_um = 120
separation_um = 620

[noise]
site1_heating_quanta_per_ms = 0
site1_jitter_sigma_hz = 372.65
site2_heating_quanta_per_ms = 250
site2_reference_mhz = 1.368
site2_jitter_sigma_hz = 372.65

[cooling]
site1_damping_per_s = 0
site1_target_quanta = 0
site2_damping_per_s = 0
site2_target_quanta = 0

[coupling]
kappa_hz = 0

[schedule]
kind = resonance_scan
center_mhz = 1.368
span_khz = 6
points = 9
probe_ms = 2
hot_quanta = 10000
cold_quanta = 200

[run]
ensemble = 60
seed = 99
"""


def run_python(args, cwd):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("IONWIRE_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def run_cli(args, cwd, check=None):
    proc = run_python(["-m", "ionwire", *args], cwd)
    if check is not None:
        assert proc.returncode == check, proc.stderr + proc.stdout
    return proc


def read_manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


def test_all_subcommands_advertise_help(tmp_path):
    for sub in ("rate", "deff", "swap", "scan", "sympathetic",
                "thermometry", "predict"):
        proc = run_cli([sub, "--help"], tmp_path, check=0)
        assert sub in proc.stdout
    # thermometry reads no scenario, so no help text may point to one
    assert "scenario" not in run_cli(["thermometry", "--help"], tmp_path,
                                     check=0).stdout


def test_importing_the_cli_loads_no_scipy(tmp_path):
    # no command loads scipy, and numpy.random loads on the first ensemble
    # or thermometry draw, not on import
    proc = run_python(["-c", "import sys, ionwire.cli; print(sorted("
                       "m for m in sys.modules if m.split('.')[0] == 'scipy'"
                       " or m.split('.')[:2] == ['numpy', 'random']))"],
                      tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_manifest_records_the_library_versions(tmp_path, monkeypatch):
    import platform
    import types

    import numpy as np
    # a fresh run loads no scipy, so its manifest names python and numpy
    run_cli(["deff", "--out", str(tmp_path / "fresh")], tmp_path, check=0)
    assert read_manifest(tmp_path / "fresh")["versions"] == {
        "python": platform.python_version(), "numpy": np.__version__}
    # scipy's version is recorded where something loaded scipy
    monkeypatch.setitem(sys.modules, "scipy",
                        types.SimpleNamespace(__version__="0.0-loaded"))
    assert cli.main(["deff", "--out", str(tmp_path / "loaded")]) == 0
    assert read_manifest(tmp_path / "loaded")["versions"]["scipy"] == \
        "0.0-loaded"


@pytest.mark.parametrize("argv,statuses", [
    (["thermometry"], ("0",)),
    (["sympathetic", "--ensemble", "400", "--seed", "42"], ("0",)),
    # at 16 realizations a band may fail, which exits 1
    (["scan", "--ensemble", "16", "--seed", "9"], ("0", "1"))],
    ids=["thermometry", "sympathetic", "scan"])
def test_run_loads_no_scipy_and_no_process_pool(argv, statuses, tmp_path):
    # the thermometry fit is a hand-written Newton iteration, the resonance
    # fit a hand-written Levenberg-Marquardt and the rate equations a closed
    # form, so no run loads any scipy module; the ensembles run in this
    # process, so none loads a process pool
    out = str(tmp_path / "t")
    proc = run_python(["-c", "import sys, ionwire.cli; status = ionwire.cli."
                       f"main({argv + ['--out', out]!r}); print(status, [m for"
                       " m in sys.modules if m.split('.')[0] in ('scipy',"
                       " 'multiprocessing') or m == 'concurrent.futures."
                       "process'])"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    status, modules = proc.stdout.splitlines()[-1].split(" ", 1)
    assert status in statuses and modules == "[]", proc.stdout
    if argv[0] == "thermometry":
        with open(os.path.join(out, "thermometry_fit.json")) as fh:
            assert json.load(fh)["method"] == "mle-binomial-newton"


def test_usage_errors_exit_2(tmp_path):
    assert run_cli([], tmp_path).returncode == 2
    assert run_cli(["frobnicate"], tmp_path).returncode == 2
    proc = run_cli(["scan", "--scenario", "no_such_file.scenario",
                    "--out", str(tmp_path / "o")], tmp_path)
    assert proc.returncode == 2
    assert "no_such_file" in proc.stderr
    # deff draws no plot, so it offers no --svg
    assert run_cli(["deff", "--svg"], tmp_path).returncode == 2


def test_commands_offer_only_the_flags_they_read():
    parser = cli.build_parser()
    ensemble_run = {"--scenario", "--seed", "--ensemble", "--svg"}
    offered = {"rate": {"--scenario"}, "deff": set(), "predict": set(),
               "thermometry": {"--seed"},
               "swap": {"--scenario", "--seed", "--svg"},
               "scan": ensemble_run, "sympathetic": ensemble_run}
    values = {"--scenario": ["swap_benchmark"], "--seed": ["5"],
              "--ensemble": ["3"], "--svg": []}
    for command, flags in offered.items():
        parser.parse_args([command, "--out", "o", "--format", "json"])
        for flag, value in values.items():
            argv = [command, flag, *value]
            if flag in flags:
                parser.parse_args(argv)
                continue
            with pytest.raises(SystemExit) as err:
                parser.parse_args(argv)
            assert err.value.code == 2, argv


def test_malformed_scenario_exits_2(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text(NULL_SCAN.replace("capacitance_ff = 30",
                                     "capacitance_ff = thirty"))
    proc = run_cli(["scan", "--scenario", str(bad),
                    "--out", str(tmp_path / "o")], tmp_path)
    assert proc.returncode == 2
    assert "[unit]" in proc.stderr


def test_predict_writes_manifest_and_tables(tmp_path):
    out = tmp_path / "pred"
    proc = run_cli(["predict", "--out", str(out)], tmp_path, check=0)
    man = read_manifest(out)
    assert man["tool"] == "ionwire" and man["command"] == "predict"
    files = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert files == sorted(man["outputs"])
    table = out / "prediction_table_headline.csv"
    assert table.exists()
    first = table.read_text().splitlines()[0]
    assert first.startswith("# ionwire csv schema v1 table=")
    assert "PASS" in proc.stdout


def test_seed_repeatability_is_byte_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        run_cli(["sympathetic", "--scenario", "sympathetic_benchmark", "--ensemble",
                 "400", "--seed", "42", "--svg", "--out", str(out)], tmp_path)
        outs.append(out)
    csvs = sorted(p.name for p in outs[0].iterdir()
                  if p.suffix in (".csv", ".svg"))
    assert any(n.endswith(".svg") for n in csvs), "expected an svg plot"
    for name in csvs:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    ja = json.loads((outs[0] / "sympathetic_fit_uncoupled.json").read_text())
    jb = json.loads((outs[1] / "sympathetic_fit_uncoupled.json").read_text())
    assert ja == jb


def test_no_writes_outside_out_dir(tmp_path):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    out = tmp_path / "results"
    run_cli(["predict", "--out", str(out)], workdir, check=0)
    assert list(workdir.iterdir()) == []


def test_json_format_switch(tmp_path):
    out = tmp_path / "j"
    run_cli(["deff", "--format", "json", "--out", str(out)], tmp_path,
            check=0)
    man = read_manifest(out)
    assert any(name.endswith(".json") and name != "manifest.json"
               for name in man["outputs"])
    assert not any(name.endswith(".csv") for name in man["outputs"])


def test_deff_table_contents(tmp_path):
    out = tmp_path / "d"
    run_cli(["deff", "--heights-um", "40,50,60", "--out", str(out)],
            tmp_path, check=0)
    rows = (out / "deff.csv").read_text().splitlines()
    assert rows[1].split(",")[0] == "height_um"
    assert len(rows) == 2 + 3
    d50 = float(rows[3].split(",")[1])
    assert abs(d50 - 131.069935) < 1e-3


def test_rate_reports_enhancement(tmp_path):
    out = tmp_path / "r"
    proc = run_cli(["rate", "--out", str(out)], tmp_path, check=0)
    man = read_manifest(out)
    assert man["command"] == "rate"
    # without --seed the manifest records the scenario's own seed and size
    bundled = load_bundled("sympathetic_benchmark")
    assert man["seed"] == bundled.seed
    assert man["ensemble"] == bundled.ensemble_size
    rows = (out / "rate.csv").read_text()
    assert "enhancement_ratio" in rows
    assert "kappa_wire_hz" in proc.stdout


def test_thermometry_round_trip_cli(tmp_path):
    out = tmp_path / "t"
    proc = run_cli(["thermometry", "--nbar", "182", "--seed", "12",
                    "--out", str(out)], tmp_path, check=0)
    assert "fitted" in proc.stdout
    fit = json.loads((out / "thermometry_fit.json").read_text())
    assert abs(fit["parameters"]["n_bar"] - 182.0) / 182.0 < 0.10
    truth = json.loads((out / "thermometry_truth.json").read_text())
    assert truth["n_bar_true"] == 182.0 and truth["seed"] == 12


def test_crash_exits_3_without_traceback(tmp_path):
    # kappa near the trap frequency makes the Verlet step unstable
    with open(SWAP_SHORT, encoding="utf-8") as fh:
        text = fh.read()
    scn = tmp_path / "unstable.scenario"
    scn.write_text(text.replace("kappa_hz = 333", "kappa_hz = 2000000"))
    proc = run_cli(["swap", "--scenario", str(scn),
                    "--out", str(tmp_path / "u")], tmp_path)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("ionwire: RuntimeError: unstable step")
    assert len(proc.stderr.splitlines()) == 1


def test_subnormal_wire_capacitance_exits_2(tmp_path):
    # 5e-309 fF is 5e-324 F, so the rate's denominator underflows to zero
    from importlib import resources
    text = resources.files("ionwire").joinpath(
        "data", "sympathetic_benchmark.scenario").read_text(encoding="utf-8")
    scn = tmp_path / "subnormal.scenario"
    scn.write_text(text.replace("capacitance_ff = 30", "capacitance_ff = 5e-309"))
    proc = run_cli(["rate", "--scenario", str(scn),
                    "--out", str(tmp_path / "r")], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "capacitance" in proc.stderr


@pytest.mark.parametrize("command,old,new,named", [
    ("scan", "center_mhz = 1.368\nspan_khz = 6\npoints = 9",
     "frequencies_mhz = 1.366,1.367,1.368,1.369,1.370", "probe_frequencies"),
    ("scan", "center_mhz = 1.368\nspan_khz = 6\npoints = 9",
     "frequencies_mhz = " + ",".join(["1.368"] * 6), "probe_frequencies"),
    ("sympathetic", "wait_ms = 0,1,2,3,4,5,6,7,8,9,10", "wait_ms = -3,-2,-1",
     "wait_ms"),
    ("sympathetic", "wait_ms = 0,1,2,3,4,5,6,7,8,9,10", "wait_ms = 0,2,3",
     "schedule.wait_ms"),
    # one point above the bound, not a grid too large to build
    ("scan", "points = 9", "points = 1000", "schedule.points"),
    # past the bound of 1,000 wait steps, refused before any division
    *[("sympathetic", "wait_ms = 0,1,2,3,4,5,6,7,8,9,10", f"wait_ms = {w}",
       "schedule.wait_ms: wait_times must end within 1000 times their first "
       "step, got ") for w in ("0,4.9e-321,1", "0,0.0001,1000",
                               "0,0.01,10.01")],
    # jitter is per shot, with no kind or correlation time to set
    ("scan", "site2_jitter_sigma_hz = 372.65",
     "site2_jitter_sigma_hz = 372.65\nsite2_jitter_kind = ou",
     "bad.scenario:27: [unknown] noise.site2_jitter_kind: unknown key"),
    ("scan", "site2_jitter_sigma_hz = 372.65",
     "site2_jitter_sigma_hz = 372.65\nsite2_jitter_correlation_ms = 5",
     "bad.scenario:27: [unknown] noise.site2_jitter_correlation_ms: "
     "unknown key"),
    ("scan", "site1_jitter_sigma_hz = 372.65",
     "site1_jitter_sigma_hz = 372.65\nsite1_jitter_kind = per_shot",
     "bad.scenario:24: [unknown] noise.site1_jitter_kind: unknown key"),
    # a step count past the budget, refused before it is made an integer
    ("scan", "probe_ms = 2", "probe_ms = 1e308", "step budget exceeded"),
    # the scan integrates both clamps; only sympathetic's is a hard clamp
    *[("scan", f"site{i}_damping_per_s = 0", f"site{i}_damping_per_s = inf",
       f"] cooling.site{i}_damping_per_s: site{i}_damping_per_s of a scan "
       f"run must be finite and >= 0, got inf") for i in (1, 2)],
    # squares of occupations near the target would overflow
    ("sympathetic", "site2_target_quanta = 182", "site2_target_quanta = 1e308",
     "] cooling.site2_target_quanta: site2_target_quanta must be >= 0 and "
     "< 1e+100, got 1e+308")],
    ids=["five-frequencies", "equal-frequencies", "negative-waits",
         "off-grid-waits", "points-above-bound", "subnormal-wait-step",
         "fine-wait-grid", "waits-above-bound", "ou-jitter",
         "jitter-correlation", "per-shot-jitter-kind",
         "probe-past-step-budget", "site1-infinite-damping",
         "site2-infinite-damping", "target-above-bound"])
def test_bad_scan_and_wait_grids_exit_2_naming_the_key(command, old, new,
                                                       named, tmp_path,
                                                       capsys):
    from importlib import resources
    text = NULL_SCAN if command == "scan" else resources.files("ionwire") \
        .joinpath("data", "sympathetic_benchmark.scenario").read_text()
    assert old in text
    scn = tmp_path / "bad.scenario"
    scn.write_text(text.replace(old, new))
    started = time.perf_counter()
    status, err = _main([command, "--scenario", str(scn),
                         "--out", str(tmp_path / "o")], capsys)
    assert time.perf_counter() - started < 1.0     # refused before it runs
    assert status == 2, err
    assert len(err.splitlines()) == 1 and named in err, err


@pytest.mark.parametrize("command", ["scan", "sympathetic"])
@pytest.mark.parametrize("source", ["file", "flag"])
def test_an_ensemble_of_one_exits_2_naming_the_key(command, source, tmp_path,
                                                   capsys):
    # one realization has no standard error for the fits to weight by
    from importlib import resources
    bundled = {"scan": "scan_benchmark", "sympathetic": "sympathetic_benchmark"}
    text = resources.files("ionwire").joinpath(
        "data", bundled[command] + ".scenario").read_text(encoding="utf-8")
    one = tmp_path / "one.scenario"
    one.write_text(re.sub(r"(?m)^ensemble = \d+$", "ensemble = 1", text))
    argv, named = {"file": (["--scenario", str(one)], "] run.ensemble: "),
                   "flag": (["--ensemble", "1"], "] --ensemble: ")}[source]
    status, err = _main([command, *argv, "--out", str(tmp_path / "o")],
                        capsys)
    assert status == 2, err
    assert len(err.splitlines()) == 1 and named in err, err
    assert "must be finite and >= 2, got 1" in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("old,new,named", [
    ("site1_damping_per_s = 0", "site1_damping_per_s = 5000",
     "] cooling.site1_damping_per_s: site1_damping_per_s of a swap run "
     "(no noise or cooling) must be 0, got 5000"),
    ("site2_jitter_sigma_hz = 0", "site2_jitter_sigma_hz = 3",
     "] noise.site2_jitter_sigma_hz: site2_jitter_sigma_hz of a swap run "
     "(no noise or cooling) must be 0, got 3"),
    ("ensemble = 1", "ensemble = 5",
     "] run.ensemble: ensemble must be 1, got 5"),
    # the swap time pi/(2 kappa) needs an exchange
    ("kappa_hz = 333", "kappa_hz = 0",
     "] coupling.kappa_hz: kappa_hz of a swap run must be finite and > 0, "
     "got 0"),
    # n1(t) is smallest at t = 0 unless the first ion starts hotter
    *[("initial_quanta = 1000,0", f"initial_quanta = {n1},{n2}",
       f"] schedule.initial_quanta: initial_quanta of the first ion (hotter "
       f"than the second) must be finite and > {n2}, got {n1}.0")
      for n1, n2 in ((0, 1000), (500, 1000), (0, 0))]],
    ids=["cooling", "noise", "ensemble", "coupling", "empty-first-ion",
         "colder-first-ion", "both-ions-empty"])
def test_swap_refuses_what_its_one_noiseless_run_leaves_out(old, new, named,
                                                            tmp_path, capsys):
    # the swap integrates one realization without noise or cooling; a
    # scenario that asks for more exits 2 at the key, not 0 without it
    with open(SWAP_SHORT, encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(old) == 1
    scn = tmp_path / "swap.scenario"
    scn.write_text(text.replace(old, new))
    status, err = _main(["swap", "--scenario", str(scn),
                         "--out", str(tmp_path / "o")], capsys)
    assert status == 2, err
    assert len(err.splitlines()) == 1 and named in err, err
    assert not (tmp_path / "o").exists()


def test_a_nan_headline_is_written_as_a_json_string(tmp_path, capsys):
    # a scan without jitter injects no width, so the width's relative
    # error is 0 / 0
    assert NULL_SCAN.count("jitter_sigma_hz = 372.65") == 2
    scn = tmp_path / "unjittered.scenario"
    scn.write_text(NULL_SCAN.replace("jitter_sigma_hz = 372.65",
                                     "jitter_sigma_hz = 0"))
    out = tmp_path / "o"
    status, err = _main(["scan", "--scenario", str(scn), "--format", "json",
                         "--out", str(out)], capsys)
    assert status == 1 and err == "", err
    for path in out.glob("*.json"):
        assert parse_problem(path.name, path.read_text()) is None, path.name
    rows = json.loads((out / "resonance_scan_headline.json").read_text())["rows"]
    assert {"name": "width_rel_err", "value": "nan"}.items() <= \
        next(r for r in rows if r["name"] == "width_rel_err").items()


def test_a_swap_of_a_huge_mass_runs(tmp_path, capsys):
    # m1 m2 w1 w2 overflows above about 1e175 u, but the coupling spring
    # sqrt(m1 w1 m2 w2) is finite: no unstable step
    with open(SWAP_SHORT, encoding="utf-8") as fh:
        text = fh.read()
    assert text.count("mass_u = 39.9625909") == 1
    scn = tmp_path / "heavy.scenario"
    scn.write_text(text.replace("mass_u = 39.9625909", "mass_u = 1e308"))
    status, err = _main(["swap", "--scenario", str(scn),
                         "--out", str(tmp_path / "o")], capsys)
    assert status == 0 and err == "", err


def test_a_sympathetic_run_just_below_the_target_bound_runs(tmp_path,
                                                           capsys):
    from importlib import resources
    text = resources.files("ionwire").joinpath(
        "data", "sympathetic_benchmark.scenario").read_text(encoding="utf-8")
    scn = tmp_path / "hot_target.scenario"
    scn.write_text(text.replace("site2_target_quanta = 182",
                                "site2_target_quanta = 9.99e99"))
    # at 64 realizations a band may fail, which exits 1
    status, err = _main(["sympathetic", "--scenario", str(scn), "--ensemble",
                         "64", "--out", str(tmp_path / "o")], capsys)
    assert status in (0, 1) and err == "", err


# every schedule occupation is below scenario.MAX_QUANTA: at and above it
# the run exits 2 at its key, just below it the run goes on without a
# warning (a band may fail at a small ensemble, which exits 1)
OCCUPATION_KEYS = {     # key: command, its bundled line, the line at value
    "hot_quanta": ("scan", "hot_quanta = 10000", "hot_quanta = {}"),
    "initial_hot_quanta": ("sympathetic", "initial_hot_quanta = 1000",
                           "initial_hot_quanta = {}"),
    "initial_quanta": ("swap", "initial_quanta = 1000,0",
                       "initial_quanta = {},0"),
}


@pytest.mark.parametrize("key", OCCUPATION_KEYS)
def test_occupations_from_the_bound_up_exit_2_at_their_key(key, tmp_path,
                                                           capsys):
    from importlib import resources
    command, old, new = OCCUPATION_KEYS[key]
    text = resources.files("ionwire").joinpath(
        "data", f"{command}_benchmark.scenario").read_text(encoding="utf-8")
    assert old in text
    small = () if command == "swap" else ("--ensemble", "64")
    for value in ("1e308", "1e100", "1e80", "9.99e79"):
        scn = tmp_path / f"{value}.scenario"
        scn.write_text(text.replace(old, new.format(value)))
        status, err = _main([command, "--scenario", str(scn), *small,
                             "--out", str(tmp_path / value)], capsys)
        if value == "9.99e79":
            assert status in (0, 1) and err == "", err
        else:
            assert status == 2 and len(err.splitlines()) == 1, (value, err)
            assert f"] schedule.{key}: {key} must be " in err, err
            assert f"< 1e+80, got {float(value):g}" in err, err


# the last is the bound's 1,000 steps
@pytest.mark.parametrize("waits", ["0,1,2,3", "0,2,4,6,8,10",
                                   "0,1,2,3,4,5,6,7,8,9", "0,0.01,10"])
def test_sympathetic_records_at_each_wait_of_a_uniform_grid(waits, tmp_path,
                                                            capsys):
    from importlib import resources
    text = resources.files("ionwire").joinpath(
        "data", "sympathetic_benchmark.scenario").read_text(encoding="utf-8")
    scn = tmp_path / "waits.scenario"
    scn.write_text(text.replace("wait_ms = 0,1,2,3,4,5,6,7,8,9,10",
                                f"wait_ms = {waits}"))
    out = tmp_path / "o"
    # at 50 realizations a band may fail, which exits 1
    status, err = _main(["sympathetic", "--scenario", str(scn),
                         "--ensemble", "50", "--out", str(out)], capsys)
    assert status in (0, 1) and err == "", err
    rows = (out / "sympathetic_uncoupled_trajectory.csv").read_text()
    times_ms = [1e3 * float(row.split(",")[0])
                for row in rows.splitlines()[2:]]
    step = float(waits.split(",")[1])
    # a record each wait step, on to 2.5 times the last wait
    assert times_ms == pytest.approx([step * i for i in range(len(times_ms))])
    assert times_ms[-1] >= 2.5 * float(waits.split(",")[-1])


def test_a_registered_schedule_kind_becomes_a_command(tmp_path, monkeypatch,
                                                      capsys):
    # the parser and the dispatch are built from SCHEDULES and OPTION_KEYS:
    # a kind registered there is a command with --scenario, its options and
    # --svg, and runs its runner
    import dataclasses
    from ionwire import experiments, scenario
    kind = dataclasses.replace(scenario.SCHEDULES["swap_demo"],
                               runner="run_fake", command="fake",
                               help="a registered kind")
    monkeypatch.setitem(scenario.SCHEDULES, "fake_demo", kind)
    monkeypatch.setitem(scenario.OPTION_KEYS, "fake",
                        scenario.OPTION_KEYS["swap"])
    ran = []

    def run_fake(scn):
        ran.append(scn)
        return experiments.ExperimentReport("fake", "digest", [])

    monkeypatch.setattr(experiments, "run_fake", run_fake, raising=False)
    args = cli.build_parser().parse_args(
        ["fake", "--scenario", "swap_benchmark", "--seed", "3", "--svg"])
    assert (args.scenario, args.seed, args.svg) == ("swap_benchmark", "3", True)
    out = tmp_path / "o"
    assert cli.main(["fake", "--seed", "3", "--out", str(out)]) == 0
    assert [scn.seed for scn in ran] == [3]
    assert read_manifest(out)["command"] == "fake"
    assert capsys.readouterr().out.startswith("fake: PASS")


def test_band_failure_exits_1(tmp_path):
    scn = tmp_path / "null.scenario"
    scn.write_text(NULL_SCAN)
    out = tmp_path / "n"
    proc = run_cli(["scan", "--scenario", str(scn), "--out", str(out)],
                   tmp_path)
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
    # artifacts still land for post-mortem use
    assert (out / "manifest.json").exists()
    man = read_manifest(out)
    assert man["passed"] is False


def test_scan_precision_scales_with_ensemble(tmp_path):
    fits = {}
    for n in (50, 400):
        out = tmp_path / f"e{n}"
        run_cli(["scan", "--scenario", "scan_benchmark", "--ensemble", str(n),
                 "--seed", "42", "--out", str(out)], tmp_path, check=0)
        fits[n] = json.loads(
            (out / "resonance_scan_fit_resonance.json").read_text())
    w50 = fits[50]["parameters"]["width_sigma_hz"]
    w400 = fits[400]["parameters"]["width_sigma_hz"]
    s50 = fits[50]["sigmas"]["width_sigma_hz"]
    s400 = fits[400]["sigmas"]["width_sigma_hz"]
    # same physics, only the statistical precision may differ
    assert abs(w50 - w400) < 3.0 * math.hypot(s50, s400)
    ratio = s50 / s400
    assert math.sqrt(8.0) / 2.0 < ratio < math.sqrt(8.0) * 2.0


# ---------------------------------------------------------------------------
# direct options, run in-process

_EDGE_TEXTS = ("nan", "inf", "-inf", "-1", "0", "1e308", "1" + "0" * 400, "")
_DIRECT_FLAGS = {
    "deff": ("--paddle-um", "--heights-um"),
    "thermometry": ("--nbar", "--shots", "--points", "--rabi-khz",
                    "--lamb-dicke", "--seed")}
_SMALL_THERMOMETRY = ("--nbar", "5", "--shots", "20", "--points", "8")


def _main(argv, capsys):
    """(status, stderr) of ``cli.main``; a numpy warning fails the run."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = cli.main(argv)
    return status, capsys.readouterr().err


def test_fuzzed_direct_options_exit_0_or_2(tmp_path, capsys):
    for command, flags in _DIRECT_FLAGS.items():
        small = _SMALL_THERMOMETRY if command == "thermometry" else ()
        for flag in flags:
            for i, text in enumerate(_EDGE_TEXTS):
                out = tmp_path / f"{command}{flag}{i}"
                # --flag=text: after a space, argparse reads -inf as a flag
                argv = [command, *small, f"{flag}={text}", "--out", str(out)]
                status, err = _main(argv, capsys)
                assert status in (0, 2), (argv, err)
                assert len(err.splitlines()) <= 1, (argv, err)
                assert "Traceback" not in err
                for table in out.glob("*.csv"):
                    assert "nan" not in table.read_text(), (argv, table)


def test_rejected_options_exit_2_naming_the_flag(tmp_path, capsys):
    cases = [("deff", "--heights-um", "nan"), ("deff", "--heights-um", ""),
             ("thermometry", "--points", "1"),
             ("thermometry", "--nbar", "nan"),
             ("thermometry", "--shots", "100000000000000000000"),
             ("thermometry", "--rabi-khz", "0"),
             # the thermal tail at the truncation cap bounds n_bar
             ("thermometry", "--nbar", "1e308"),
             ("thermometry", "--nbar", "14477")]
    for command in ("swap", "scan", "sympathetic"):
        cases += [(command, "--seed", text)
                  for text in ("-1", "1.5", "nan", "inf", "1e308", "")]
        if command != "swap":
            cases += [(command, "--ensemble", text)
                      for text in ("0", "-1", "2.5", "nan", "1e308", "",
                                   "100000000", "1" + "0" * 400)]
    for command, flag, text in cases:
        status, err = _main([command, f"{flag}={text}",
                             "--out", str(tmp_path / "o")], capsys)
        assert status == 2, (command, flag, text, err)
        assert len(err.splitlines()) == 1 and flag in err, err
    assert not (tmp_path / "o").exists()
    assert read_options("thermometry", {"nbar": "14476"})["n_bar"] == 14476.0


def test_n_bar_near_the_truncation_bound_fits_without_error(tmp_path, capsys):
    # the likelihood keeps rising up to the bound: the fit stops below it
    # and reports that it did not converge
    out = tmp_path / "t"
    status, err = _main(["thermometry", "--nbar", "12000", "--points", "20",
                         "--shots", "200", "--seed", "2", "--out", str(out)],
                        capsys)
    assert status == 0, err
    fit = json.loads((out / "thermometry_fit.json").read_text())
    assert fit["converged"] is False
    assert fit["parameters"]["n_bar"] < 14476.06


def test_zero_lamb_dicke_exits_2_naming_the_flag(tmp_path, capsys):
    # at eta = 0 every Omega_n is Omega_0: P(t) holds no n_bar to fit
    status, err = _main(["thermometry", *_SMALL_THERMOMETRY, "--lamb-dicke=0",
                         "--out", str(tmp_path / "o")], capsys)
    assert status == 2, err
    assert len(err.splitlines()) == 1 and "--lamb-dicke" in err, err
    assert "must be > 0" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("eta", ["1e-9", "1e-200"])
def test_lamb_dicke_too_small_for_p_to_hold_n_bar_exits_2(eta, tmp_path,
                                                          capsys):
    # positive, but Omega_1 rounds to Omega_0: dP/dn_bar is 0 everywhere
    status, err = _main(["thermometry", "--lamb-dicke", eta,
                         "--out", str(tmp_path / "o")], capsys)
    assert status == 2, err
    assert len(err.splitlines()) == 1 and "--lamb-dicke" in err, err
    assert "dP/dn_bar is 0" in err
    assert not (tmp_path / "o").exists()


def test_small_lamb_dicke_still_fits_with_its_large_sigma(tmp_path, capsys):
    status, err = _main(["thermometry", "--lamb-dicke", "1e-5",
                         "--out", str(tmp_path / "o")], capsys)
    assert status == 0, err
    fit = json.loads((tmp_path / "o" / "thermometry_fit.json").read_text())
    assert fit["sigmas"]["n_bar"] > 1e3


@pytest.mark.parametrize("nbar", ["0", "1e-320"])
def test_thermometry_gives_the_absolute_offset_where_no_relative_one_exists(
        nbar, tmp_path, capsys):
    out = tmp_path / "t"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = cli.main(["thermometry", "--nbar", nbar, "--out", str(out)])
    stdout = capsys.readouterr().out
    assert status == 0
    n_fit = json.loads((out / "thermometry_fit.json").read_text()) \
        ["parameters"]["n_bar"]
    # the fit lands above 0, so n_fit / n_bar is undefined or overflows
    assert n_fit > 1.0
    assert "%" not in stdout
    assert f"(off by {abs(n_fit - float(nbar)):.4g})" in stdout


def test_direct_option_digests_cover_the_validated_values(tmp_path, capsys):
    def config_digest(*argv):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        assert _main([*argv, "--out", str(out)], capsys)[0] == 0
        return read_manifest(out)["config_digest"]

    # the pulse grid is part of the configuration
    assert config_digest("thermometry", *_SMALL_THERMOMETRY[:4],
                         "--points", "20") != \
        config_digest("thermometry", *_SMALL_THERMOMETRY[:4], "--points", "40")
    # the spelling of a value is not
    assert config_digest("deff", "--heights-um", "40,50") == \
        config_digest("deff", "--heights-um", "40.0,50.0")
