"""The ionwire benchmark: four CLI workloads, timed end to end.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

``--workload`` is one of scan, swap, thermometry, sympathetic, or ``all``
to run the four in turn. Each workload run first times a few fresh
interpreters importing ``ionwire.cli`` (set-up), then starts one run
process (worker.py) that calls ``ionwire.cli.main`` pass after pass for
``--seconds`` and checks every output. ``--trace 1`` makes a separate,
traced run that reports per-layer numbers instead of end-to-end ones.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
The program is imported from ``src/`` of the checkout. Every process
runs on one CPU, and every child single-threaded (IONWIRE_THREADS and the
BLAS/OpenMP pools set to 1). Times are scaled by a reference kernel, see
reference.py.
See README.md in this directory for the metrics and the workloads.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from reference import Pacer, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("scan", "swap", "thermometry", "sympathetic")
SETUP_RUNS = 5
# A run must end within 180 s; the worker gets what is left of this.
DEADLINE_S = 170.0
SINGLE_THREADED = {
    "IONWIRE_THREADS": "1", "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
}
IMPORT_CLI = "import os, ionwire.cli; os._exit(0)"


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


def prepare_children():
    """Environment and CPU that every child inherits.

    All run on one CPU, so the reference kernel is timed on the CPU the
    measured process uses; see reference.py.
    """
    os.environ.update(SINGLE_THREADED)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(argv, timeout):
    """Run a child in its own session; kill the session if it overruns."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{argv[1]} ran out of time")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchmarkError(f"{argv[1:]} exited with {proc.returncode}")
    return out


def setup_times(started):
    """Seconds from interpreter start until ``import ionwire.cli`` is done,
    as (wall, scaled) lists. The first import, which may compile bytecode,
    is not timed."""
    wall, scaled_s = [], []
    with Pacer() as pacer:
        for i in range(SETUP_RUNS + 1):
            before = pacer.seconds()
            t0 = time.perf_counter()
            run_child([sys.executable, "-c", IMPORT_CLI],
                      DEADLINE_S - (time.monotonic() - started))
            elapsed = time.perf_counter() - t0
            if i:
                wall.append(elapsed)
                scaled_s.append(scaled(elapsed, before, pacer.seconds()))
    return wall, scaled_s


def run_workload(workload, seed, seconds, trace, started):
    setup = setup_times(started)
    config = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "outdir": os.path.join(OUT, str(os.getpid()))}
    try:
        out = run_child(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(config)],
            DEADLINE_S - (time.monotonic() - started))
    finally:
        shutil.rmtree(config["outdir"], ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_wall_s"], result["setup_scaled_s"] = setup
    result["env"]["git_commit"] = git_commit()
    return result


def _samples(values):
    return (f"{len(values)} samples, min {min(values):.4g} s, "
            f"median {statistics.median(values):.4g} s, max {max(values):.4g} s")


def report(workload, result, trace):
    """Print the workload's summary; return its metrics."""
    failed = len(result["errors"])
    attempted = result["attempted"]
    print(f"[{workload}] env {json.dumps(result['env'], sort_keys=True)}")
    for error in result["errors"]:
        print(f"[{workload}] FAILED {error}")
    print(f"[{workload}] failed_frac {failed / attempted:.4g} "
          f"({failed} of {attempted} operations)")
    if trace:
        layers = result["layers"]
        run_s = layers["trace.run_s"]
        print(f"[{workload}] untraced passes: {_samples(result['untraced_s'])}")
        print(f"[{workload}] traced passes: {result['traced_passes']}")
        for name, value in layers.items():
            share = (f"  ({100 * value / run_s:.1f}% of trace.run_s)"
                     if name.endswith("_s") and name != "trace.run_s" else "")
            print(f"[{workload}] {name:36s} {value:.6g}{share}")
        return layers
    metrics = {"setup_s": statistics.median(result["setup_scaled_s"]),
               "run_s": _pass_median(result["scaled_s"]),
               "peak_rss_mb": result["peak_rss_mb"]}
    print(f"[{workload}] setup_s {metrics['setup_s']:.4f} s scaled, "
          f"{statistics.median(result['setup_wall_s']):.4f} s wall "
          f"(medians of {len(result['setup_wall_s'])})")
    print(f"[{workload}] run_s {metrics['run_s']:.4f} s scaled, "
          f"{_pass_median(result['wall_s']):.4f} s wall "
          f"(medians over {len(result['wall_s'])} passes; wall passes "
          f"{_samples([sum(p) for p in result['wall_s']])})")
    print(f"[{workload}] peak_rss_mb {metrics['peak_rss_mb']:.2f} MB")
    return metrics


def _pass_median(passes):
    """Each invocation's median over the passes, summed over one pass."""
    return sum(statistics.median(column) for column in zip(*passes))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "ionwire", "cli.py")):
        print(f"perfbench: no ionwire package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    prepare_children()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for workload in workloads:
            started = time.monotonic()
            result = run_workload(workload, args.seed, args.seconds,
                                  args.trace, started)
            if args.trace and result["unrepeated_counts"]:
                raise BenchmarkError(
                    f"{workload}: counts differ between traced passes: "
                    f"{result['unrepeated_counts']}")
            values = report(workload, result, args.trace)
            prefix = f"{workload}." if args.workload == "all" else ""
            for name, value in values.items():
                metrics[prefix + name] = {"value": value, "unit": _unit(name)}
            attempted += result["attempted"]
            failed += len(result["errors"])
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_realization_ms"):
        return "realization-ms"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
