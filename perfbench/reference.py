"""A fixed reference kernel that measures how fast the host is right now.

On a VM whose cores are shared with other VMs, the speed of identical
work drifts by up to 2x within minutes. The reference kernel is timed
just before and just after every measured operation. The operation's
wall time is then rescaled to a host on which the kernel takes
REFERENCE_S, which cancels the drift the two share.

The kernel mixes the kinds of work ionwire does: a Python loop of small
numpy calls (the integrators' step loops), a scalar recurrence (the
Laguerre sequence), small vectorized operations, and a sin^2-and-matvec
over a 9.6 MB array (the Fock sums). It runs in a child process, the
Pacer, so that its arrays never count towards the measured process's
peak memory. run.py pins the benchmark's processes to one CPU, so the
Pacer times the CPU the measured process runs on.

Run as a script, this module is the Pacer: each line read from standard
input makes it run the kernel once and print its wall time.
"""

import subprocess
import sys
import time

# About the kernel's time on a 2-core Xeon VM whose cores are not
# contended; the scaled times are wall seconds on such a host.
REFERENCE_S = 0.025


def _kernel():
    import numpy as np
    step = np.full((64, 2, 2), 0.5 + 0.0j)
    grid = np.linspace(0.0, 1.0, 20_000)
    rates = np.linspace(1.0, 30.0, 60)[:, None] * grid[None, :]

    def run():
        a = np.ones((64, 2), dtype=complex)
        for _ in range(1000):
            a = np.einsum("rij,rj->ri", step, a)
        seq = [1.0, 0.9975]
        for n in range(1, 20_000):
            seq.append(((2 * n + 1 - 0.0025) * seq[-1] - n * seq[-2]) / (n + 1))
        total = a[0, 0].real + seq[-1]
        for k in range(10):
            total += float(np.sin(grid * (k + 1.0)) @ grid)
        total += float((np.sin(0.5 * rates) ** 2 @ grid).sum())
        if total != total:
            raise ArithmeticError("reference kernel produced NaN")
    return run


def scaled(seconds, before, after):
    """``seconds`` at the reference speed, from the kernel times around it."""
    return seconds * REFERENCE_S / (0.5 * (before + after))


class Pacer:
    """A child process that times the reference kernel on request."""

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.seconds()      # the kernel's first run pays one-off costs
        return self

    def seconds(self):
        """Wall time of one run of the kernel."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference process has ended")
        return float(line)

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _serve():
    run = _kernel()
    while sys.stdin.readline():
        start = time.perf_counter()
        run()
        print(repr(time.perf_counter() - start), flush=True)


if __name__ == "__main__":
    _serve()
